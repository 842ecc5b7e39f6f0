"""Pool workers run single-threaded BLAS; the embedding process does not
change.

Each ``run_many`` pool worker pins every loaded OpenBLAS library to one
thread when it starts, so two workers on a small host do not
oversubscribe the cores with BLAS threads on 20-node matrices.
"""

import os

import pytest

import repro.sim.batch as batch
from repro.obs import metrics as obs_metrics
from repro.sim import RunSpec, run_many

pytestmark = pytest.mark.skipif(
    not batch._loaded_openblas(), reason="no OpenBLAS library is loaded"
)


@pytest.fixture(autouse=True)
def _fresh_pool():
    batch._shutdown_pool()
    yield
    batch._shutdown_pool()


def _openblas_threads():
    """Thread count of every loaded OpenBLAS library, by path."""
    return {path: get() for path, _, get in batch._loaded_openblas()}


def _worker_threads(pool):
    """Every loaded OpenBLAS library's thread count, read in a worker."""
    return pool.submit(_openblas_threads).result(timeout=60.0)


def _assert_pinned(pool):
    threads = _worker_threads(pool)
    assert threads, "the worker loaded no OpenBLAS library"
    assert set(threads.values()) == {1}, threads


def test_pool_worker_reads_one_thread():
    _assert_pinned(batch._get_pool(2))


def test_parent_thread_counts_unchanged_by_pooled_sweep():
    # Start the parent from a known multi-threaded setting, so a pin
    # leaking into it shows even on a single-CPU host or after an
    # earlier test.
    libs = batch._loaded_openblas()
    before = _openblas_threads()
    for _, set_threads, _ in libs:
        set_threads(2)
    try:
        specs = [
            RunSpec(name, "Hyb", instructions=250_000)
            for name in ("gzip", "gcc", "mesa")
        ]
        results = run_many(specs, processes=2)
        assert len(results) == len(specs)
        assert batch._POOL is not None, "the sweep did not use the pool"
        assert set(_openblas_threads().values()) == {2}
    finally:
        for path, set_threads, _ in libs:
            set_threads(before[path])


def test_pool_rebuilt_after_obs_change_is_pinned(monkeypatch, tmp_path):
    first = batch._get_pool(2)
    _assert_pinned(first)
    monkeypatch.setenv(obs_metrics.OBS_DIR_ENV, str(tmp_path))
    previous = obs_metrics.set_enabled(not obs_metrics.enabled())
    try:
        rebuilt = batch._get_pool(2)
        assert rebuilt is not first
        _assert_pinned(rebuilt)
    finally:
        batch._shutdown_pool()
        obs_metrics.set_enabled(previous)


def test_pool_rebuilt_after_breakage_is_pinned():
    from concurrent.futures.process import BrokenProcessPool

    broken = batch._get_pool(2)
    with pytest.raises(BrokenProcessPool):
        broken.submit(os._exit, 1).result(timeout=60.0)
    rebuilt = batch._get_pool(2)
    assert rebuilt is not broken
    _assert_pinned(rebuilt)

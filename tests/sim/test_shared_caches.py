"""Results do not depend on the state of the per-process shared caches.

A process builds its run-invariant state once and shares it read-only
across runs: the sensor noise table per seed
(:func:`repro.sensors.array.noise_table`), the thermal network's mode
basis, span-probe operators and span cache, the default substrate and
one workload per benchmark name (:mod:`repro.sim.batch`), and the
dual-core substrate per package.  A run must give the same result
whatever earlier runs left in those caches.
"""

import numpy as np
import pytest

import repro.multicore.batch as multicore_batch
import repro.multicore.engine as multicore_engine
import repro.sim.batch as batch
from repro.multicore import DualCoreRunSpec
from repro.sensors.array import NOISE_TABLES
from repro.sim import RunSpec, run_many, run_one
from repro.thermal.rc_model import SPAN_CACHE_SIZE

SEED = 3
SPEC = RunSpec("gzip", "Hyb", instructions=40_000_000, seed=SEED)
LONGER = RunSpec("gzip", "DVS", instructions=120_000_000, seed=SEED)


@pytest.fixture()
def clear_caches(monkeypatch, fresh_tables):
    """Empties every shared cache when called; the process's caches
    are put back after the test."""

    def clear():
        fresh_tables.clear()
        monkeypatch.setattr(batch, "_SUBSTRATE", None)
        monkeypatch.setattr(batch, "_WORKLOADS", {})
        monkeypatch.setattr(batch, "_WARMUP_CACHE", {})
        monkeypatch.setattr(multicore_engine, "_SUBSTRATES", {})
        monkeypatch.setattr(multicore_batch, "_WARMUP_CACHE", {})

    clear()
    return clear


def _result(spec):
    return run_one(spec).to_json_dict()


def _table_rows(tables):
    return {key[0]: table.rows for key, table in tables.items()}


def _lockstep(specs):
    return [r.to_json_dict() for r in run_many(specs, lockstep=True)]


def test_result_is_independent_of_cache_state(clear_caches, fresh_tables):
    # Inside a lockstep batch, beside runs that read the same table.
    batch_specs = [
        RunSpec("art", "Hyb", instructions=40_000_000, seed=SEED),
        SPEC,
        LONGER,
    ]
    batched = _lockstep(batch_specs)
    clear_caches()
    alone = _result(SPEC)
    rows_alone = _table_rows(fresh_tables)[SEED]
    assert rows_alone > 0
    # Lockstep stepping matches the serial path to BLAS summation order.
    for field, value in batched[1].items():
        assert value == pytest.approx(alone[field], rel=1e-12, abs=1e-12)

    # A longer run on the same seed grows the table past this run.
    _result(LONGER)
    assert _table_rows(fresh_tables)[SEED] > rows_alone
    assert _result(SPEC) == alone

    # Enough other seeds evict the table; it is redrawn from scratch.
    for seed in range(100, 100 + NOISE_TABLES):
        _result(RunSpec("mesa", "Hyb", instructions=5_000_000, seed=seed))
    assert SEED not in _table_rows(fresh_tables)
    assert _result(SPEC) == alone

    # A batch on grown tables and warm network caches.
    _result(LONGER)
    assert _lockstep(batch_specs) == batched


def test_dual_core_result_is_independent_of_cache_state(clear_caches, fresh_tables):
    spec = DualCoreRunSpec(
        workloads=("crafty", "mesa"),
        policies=("Hyb", "Hyb"),
        duration_s=5e-3,
        seed=SEED,
    )
    alone = _result(spec)
    longer = DualCoreRunSpec(
        workloads=("gzip", "art"),
        policies=("DVS", "DVS"),
        duration_s=15e-3,
        seed=SEED,
    )
    _result(longer)
    assert _result(spec) == alone
    clear_caches()
    assert _result(spec) == alone


def test_shared_state_is_built_once(clear_caches, fresh_tables):
    assert batch._named_workload("gzip") is batch._named_workload("gzip")
    first = multicore_engine.MultiCoreEngine(
        [batch._named_workload("gzip"), batch._named_workload("art")]
    )
    second = multicore_engine.MultiCoreEngine(
        [batch._named_workload("mesa"), batch._named_workload("art")]
    )
    assert first.hotspot is second.hotspot
    assert first.floorplan is second.floorplan
    assert len(multicore_engine._SUBSTRATES) == 1


def test_shared_caches_stay_bounded_and_read_only(clear_caches, fresh_tables):
    for seed in range(NOISE_TABLES + 4):
        _result(RunSpec("gzip", "Hyb", instructions=10_000_000, seed=seed))
        assert len(fresh_tables) <= NOISE_TABLES
    network = batch._default_substrate()[1].network
    assert 0 < len(network._span_halves) <= SPAN_CACHE_SIZE
    shared = [
        *network.span_operators,
        *network.mode_basis,
        *network._span_halves.values(),
    ]
    for table in fresh_tables.values():
        shared += [table.offsets, table.chunk(0)]
    assert all(isinstance(array, np.ndarray) for array in shared)
    assert not any(array.flags.writeable for array in shared)

"""The reporting rules: tail percentiles, unit medians, pool shape."""

import dataclasses
import statistics

import pytest

from perfbench.layers import _pool_shape, _queue_wait
from perfbench.run import percentile, tail_ok
from perfbench.workloads import Measurement, PROBE_REF_S


@pytest.mark.parametrize(
    "n, p, ok",
    [
        (1000, 99, True),
        (999, 99, False),
        (200, 95, True),
        (199, 95, False),
        (100, 90, True),
        (99, 90, False),
        (20, 50, True),
        (19, 50, False),
        (10_000, 99.9, True),
        (9_999, 99.9, False),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, p, ok):
    assert tail_ok(n, p) is ok


def test_percentile_interpolates():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 99) == pytest.approx(99.01)
    assert percentile([3.0], 95) == 3.0


def test_sweep_wall_is_sum_of_per_unit_medians_at_reference_speed():
    walls = [[1.0, 2.0], [3.0, 2.0], [2.0, 9.0]]
    # The third pass ran at half speed (probe twice as long).
    probes = [[PROBE_REF_S] * 2, [PROBE_REF_S] * 2, [2 * PROBE_REF_S] * 2]
    m = Measurement(unit_walls=walls, unit_probes=probes, statistic=statistics.median,
                    pairs=[], instructions=0.0, rss_mb=0.0)
    # unit 0: median(1, 3, 1) = 1; unit 1: median(2, 2, 4.5) = 2.
    assert m.sweep_wall_s == pytest.approx(3.0)
    # unscaled: median(1, 3, 2) + median(2, 2, 9) = 4.
    assert m.raw_sweep_wall_s == pytest.approx(4.0)
    fastest = dataclasses.replace(m, statistic=min)
    # unit 0: min(1, 3, 1) = 1; unit 1: min(2, 2, 4.5) = 2.
    assert fastest.sweep_wall_s == pytest.approx(3.0)
    assert fastest.raw_sweep_wall_s == pytest.approx(3.0)


def test_pool_shape_from_task_spans():
    spans = [
        ("sim.batch", 0.0, 2.0, 1, 0, 1, 10),
        ("sim.batch.pool_task", 0.1, 1.1, 11, 0, 1, 20),
        ("sim.batch.pool_task", 0.1, 1.9, 12, 0, 1, 21),
        ("sim.batch", 2.0, 3.0, 2, 0, 2, 10),  # serial sweep: no tasks
    ]
    shape = _pool_shape(spans, processes=2)
    # busy 1.0 + 1.8 over 2 workers x 2.0 s of pooled sweep.
    assert shape["sim.batch.pool_utilization"] == pytest.approx(0.7)
    # slowest 1.8 over mean 1.4.
    assert shape["sim.batch.pool_imbalance"] == pytest.approx(1.8 / 1.4)


def test_queue_wait_subtracts_execute_and_cache_write():
    spans = [
        ("service.server.execute", 0.0, 0.004, 1, 0, "d1", 5),
        ("service.cache.put", 0.004, 0.005, 2, 0, "d1", 5),
        ("service.server.execute", 0.0, 0.002, 3, 0, "d2", 5),
    ]
    assert _queue_wait(spans, {"d1": 0.010, "d2": 0.003}) == pytest.approx(
        (0.005 + 0.001) / 2
    )

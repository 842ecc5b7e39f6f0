"""Run results do not depend on the state of the shared noise tables.

Every fault-free ``SensorArray`` reads its seed's process-wide
``NoiseTable``, which draws Gaussian rows in chunks that start at
``NOISE_CHUNK`` rows and double.  Row ``j`` is always each sensor's
``j``-th draw, so neither the table's state when a run starts nor its
chunk sizes may reach a result.  Each test runs the same work against:

* an empty table cache (the run draws every row it reads);
* tables already grown far past the run (it draws none);
* an empty cache whose tables grow one row at a time at first.

The budgets below read ~100 sensor samples, crossing several chunks of
the 1-row schedule and the first chunks of the default one.
"""

import pytest

import repro.sensors.array as sensor_array
from repro.multicore import DualCoreRunSpec
from repro.sim import RunSpec, run_many, run_one


def _identical_across_table_states(monkeypatch, fresh_tables, fn):
    outputs = [fn()]
    assert fresh_tables, "the run read no noise table"
    for table in fresh_tables.values():
        table.chunk(12)
    outputs.append(fn())
    fresh_tables.clear()
    monkeypatch.setattr(sensor_array, "NOISE_CHUNK", 1)
    outputs.append(fn())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]


@pytest.mark.parametrize("policy", ["Hyb", "DVS"])
def test_single_core_run_one(monkeypatch, fresh_tables, policy):
    spec = RunSpec("gzip", policy, instructions=60_000_000)
    _identical_across_table_states(
        monkeypatch, fresh_tables, lambda: run_one(spec).to_json_dict()
    )


def test_lockstep_sweep(monkeypatch, fresh_tables):
    specs = [
        RunSpec(name, "Hyb", instructions=60_000_000)
        for name in ("gzip", "art")
    ]
    _identical_across_table_states(
        monkeypatch,
        fresh_tables,
        lambda: [
            r.to_json_dict() for r in run_many(specs, lockstep=True)
        ],
    )


def test_dual_core_run_one(monkeypatch, fresh_tables):
    spec = DualCoreRunSpec(
        workloads=("crafty", "mesa"),
        policies=("Hyb", "Hyb"),
        duration_s=10e-3,
    )
    _identical_across_table_states(
        monkeypatch, fresh_tables, lambda: run_one(spec).to_json_dict()
    )

"""Run results do not depend on the sensor-noise refill schedule.

``SensorArray`` pre-draws Gaussian noise in chunks that start at
``NOISE_CHUNK`` columns and double; column ``j`` is always each
sensor's ``j``-th draw, so the chunk sizes must never reach a result.
The budgets below read ~100 sensor samples, crossing several refills
of a 1-column schedule and at least one of a 64-column schedule.
"""

import pytest

import repro.sensors.array as sensor_array
from repro.multicore import DualCoreRunSpec
from repro.sim import RunSpec, run_many, run_one

CHUNKS = (1, 64)


def _identical_across_chunks(monkeypatch, fn):
    outputs = []
    for chunk in CHUNKS:
        monkeypatch.setattr(sensor_array, "NOISE_CHUNK", chunk)
        outputs.append(fn())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("policy", ["Hyb", "DVS"])
def test_single_core_run_one(monkeypatch, policy):
    spec = RunSpec("gzip", policy, instructions=60_000_000)
    _identical_across_chunks(
        monkeypatch, lambda: run_one(spec).to_json_dict()
    )


def test_lockstep_sweep(monkeypatch):
    specs = [
        RunSpec(name, "Hyb", instructions=60_000_000)
        for name in ("gzip", "art")
    ]
    _identical_across_chunks(
        monkeypatch,
        lambda: [
            r.to_json_dict() for r in run_many(specs, lockstep=True)
        ],
    )


def test_dual_core_run_one(monkeypatch):
    spec = DualCoreRunSpec(
        workloads=("crafty", "mesa"),
        policies=("Hyb", "Hyb"),
        duration_s=10e-3,
    )
    _identical_across_chunks(
        monkeypatch, lambda: run_one(spec).to_json_dict()
    )

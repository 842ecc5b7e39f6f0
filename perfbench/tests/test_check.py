"""Output checks: tolerance rules and error counting."""

import dataclasses
from pathlib import Path

import pytest

from perfbench.check import Checker, as_json, compare, committed_table
from perfbench.run import run_checks
from perfbench.workloads import Measurement

ROOT = Path(__file__).resolve().parents[2]


def test_compare_tolerances():
    assert compare({"a": 1, "b": 2.0}, {"a": 1, "b": 2.0 * (1 + 5e-10)}) == []
    assert compare({"b": 2.0}, {"b": 2.0 * (1 + 5e-9)})
    assert compare({"cycles": 10}, {"cycles": 11})
    assert compare({"cycles": 10}, {"cycles": 10.0})  # int vs float
    assert compare({"block": "IntReg"}, {"block": "FPMul"})
    assert compare({"cores": [{"x": 1.0}]}, {"cores": [{"x": 1.0}, {"x": 2.0}]})
    assert compare({"a": 1}, {"a": 1, "b": 2})


def _tiny_runs():
    from repro.sim.batch import RunSpec, run_many

    specs = [
        RunSpec("gzip", "none", instructions=20_000, seed=11),
        RunSpec("mesa", "DVS", instructions=20_000, seed=12),
        RunSpec("crafty", "Hyb", instructions=20_000, seed=13),
        RunSpec("eon", "FG", instructions=20_000, seed=14),
    ]
    return specs, run_many(specs)


@dataclasses.dataclass
class _Bench:
    name: str = "unit_check"
    seed: int = 5


def test_corrupted_result_is_counted_in_error_rate():
    specs, results = _tiny_runs()
    clean = Measurement(unit_walls=[[1.0]], unit_probes=[[1.0]], statistic=min,
                        pairs=list(zip(specs, results)), instructions=0.0, rss_mb=0.0)
    failed, failures = run_checks(_Bench(), clean)
    assert (failed, failures) == (0, [])

    corrupted = list(results)
    corrupted[2] = dataclasses.replace(results[2], violations=results[2].violations + 1)
    bad = dataclasses.replace(clean, pairs=list(zip(specs, corrupted)))
    failed, failures = run_checks(_Bench(), bad)
    assert failed == 1
    assert "violations" in failures[0]
    # error_rate as printed: failed over attempted.
    assert failed / bad.attempted == pytest.approx(0.25)


def test_recorded_reference_is_used_and_missing_results_fail():
    from repro.sim.supervisor import spec_digest

    specs, results = _tiny_runs()
    recorded = {spec_digest(s): as_json(r) for s, r in zip(specs, results)}
    drifted = dataclasses.replace(results[0], elapsed_s=results[0].elapsed_s * (1 + 1e-6))
    checker = Checker("unit_check", 0, recorded=recorded)
    flags = checker.check([(specs[0], drifted), (specs[1], results[1]),
                           (specs[2], RuntimeError("worker died"))])
    assert flags == [True, False, True]
    assert checker.recomputed == 0
    assert checker.checked == 2


def test_committed_table_drops_the_throughput_line():
    text = committed_table(ROOT, "fig3b")
    assert text.startswith("Figure 3b")
    assert "[throughput" not in text

"""Paired significance testing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import paired_comparison
from repro.errors import ReproError


def test_clear_difference_is_significant():
    a = {f"b{i}": 1.10 + 0.001 * i for i in range(9)}
    b = {f"b{i}": 1.16 + 0.001 * i for i in range(9)}
    result = paired_comparison(a, b)
    assert result.mean_difference == pytest.approx(-0.06)
    assert result.significant(0.99)
    assert result.n == 9


def test_identical_samples_not_significant():
    a = {"x": 1.1, "y": 1.2}
    result = paired_comparison(a, dict(a))
    assert result.mean_difference == 0.0
    assert result.p_value == 1.0
    assert not result.significant()


def test_noisy_overlap_not_significant():
    a = {"b0": 1.10, "b1": 1.30, "b2": 1.05, "b3": 1.40}
    b = {"b0": 1.12, "b1": 1.28, "b2": 1.10, "b3": 1.33}
    result = paired_comparison(a, b)
    assert not result.significant(0.99)


def test_sign_convention():
    a = {"x": 1.0, "y": 1.01}
    b = {"x": 1.2, "y": 1.22}
    assert paired_comparison(a, b).mean_difference < 0.0  # A is faster


def test_mismatched_benchmarks_rejected():
    with pytest.raises(ReproError):
        paired_comparison({"x": 1.0}, {"y": 1.0})


def test_single_benchmark_rejected():
    with pytest.raises(ReproError):
        paired_comparison({"x": 1.0}, {"x": 1.1})


def test_confidence_range_validated():
    a = {"x": 1.0, "y": 1.1}
    b = {"x": 1.2, "y": 1.3}
    result = paired_comparison(a, b)
    with pytest.raises(ReproError):
        result.significant(1.5)


def test_cli_and_server_imports_leave_scipy_stats_unloaded():
    """``scipy.stats`` is imported only when a paired test runs, so
    every ``python -m repro`` command (``serve`` included) starts
    without it."""
    probe = (
        "import sys\n"
        "import repro.cli, repro.service.server\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_paired_comparison_matches_scipy_ttest_rel():
    from scipy import stats

    a = {"b0": 1.10, "b1": 1.30, "b2": 1.05, "b3": 1.40, "b4": 1.21}
    b = {"b0": 1.12, "b1": 1.28, "b2": 1.10, "b3": 1.33, "b4": 1.26}
    keys = sorted(a)
    expected = stats.ttest_rel([a[k] for k in keys], [b[k] for k in keys])
    result = paired_comparison(a, b)
    assert result.t_statistic == float(expected.statistic)
    assert result.p_value == float(expected.pvalue)

"""Paired significance tests.

The paper states its performance differences versus DVS are "significant
at the 99 % confidence level"; with nine benchmarks and paired runs this
is a paired t-test over per-benchmark slowdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ReproError


@dataclass(frozen=True)
class PairedComparison:
    """Result of comparing two techniques over the same benchmarks."""

    mean_difference: float
    t_statistic: float
    p_value: float
    n: int

    def significant(self, confidence: float = 0.99) -> bool:
        """True when the difference is significant at ``confidence``."""
        if not 0.0 < confidence < 1.0:
            raise ReproError("confidence must be in (0, 1)")
        return self.p_value < (1.0 - confidence)


def paired_comparison(
    slowdowns_a: Mapping[str, float], slowdowns_b: Mapping[str, float]
) -> PairedComparison:
    """Paired t-test of technique A against technique B.

    ``mean_difference`` is mean(A) - mean(B): negative means A is faster.
    Both mappings must cover the same benchmarks.
    """
    if set(slowdowns_a) != set(slowdowns_b):
        raise ReproError(
            "paired comparison needs identical benchmark sets: "
            f"{sorted(slowdowns_a)} vs {sorted(slowdowns_b)}"
        )
    if len(slowdowns_a) < 2:
        raise ReproError("paired comparison needs at least two benchmarks")
    keys = sorted(slowdowns_a)
    a = [slowdowns_a[k] for k in keys]
    b = [slowdowns_b[k] for k in keys]
    if all(abs(x - y) < 1e-15 for x, y in zip(a, b)):
        # Identical samples: no evidence of any difference.
        return PairedComparison(
            mean_difference=0.0, t_statistic=0.0, p_value=1.0, n=len(keys)
        )
    # Imported here, not at module level: every ``python -m repro``
    # command imports this package, and none but this call needs
    # ``scipy.stats``, which is slow to import and heavy in memory.
    from scipy import stats

    t_stat, p_value = stats.ttest_rel(a, b)
    mean_diff = sum(x - y for x, y in zip(a, b)) / len(keys)
    return PairedComparison(
        mean_difference=mean_diff,
        t_statistic=float(t_stat),
        p_value=float(p_value),
        n=len(keys),
    )

"""Output checks: every result against a reference.

Integer statistics must match exactly, floats to a relative 1e-9 (the
documented tolerance between the lockstep and per-run paths), strings
exactly.  At the default seed the reference is the file recorded under
``perfbench/reference``; specs it does not hold (other seeds, other run
lengths) are checked on a seeded sample recomputed with ``run_one``
outside the timed section.

For ``paper_sweep`` the sensor-seed-0 pass is also rendered as the
Figure 3b / 4a / 4b tables and compared, line by line, with the
committed ``benchmarks/results`` tables, which fixes the figure means
to their printed precision.
"""

from __future__ import annotations

import gzip
import json
import math
import random
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

FLOAT_REL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SAMPLE_SHARE = 0.1
SAMPLE_MIN = 6


def compare(expected, actual, path: str = "result") -> List[str]:
    """Differences between two JSON-like values, as readable strings."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if expected is actual else [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, int) and isinstance(actual, int):
        return [] if expected == actual else [f"{path}: {expected} != {actual}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(expected, int) != isinstance(actual, int):
            return [f"{path}: type {type(expected).__name__} != {type(actual).__name__}"]
        if math.isclose(expected, actual, rel_tol=FLOAT_REL, abs_tol=0.0):
            return []
        return [f"{path}: {expected!r} != {actual!r} (rel {FLOAT_REL:g})"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        out: List[str] = []
        for key in expected:
            out += compare(expected[key], actual[key], f"{path}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{path}[{i}]")
        return out
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


def as_json(result) -> dict:
    """A result's comparable fields (its journal form)."""
    return json.loads(json.dumps(result.to_json_dict()))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> Dict[str, dict]:
    """Recorded ``digest -> result`` mapping (empty when absent)."""
    path = reference_path(workload)
    if not path.is_file():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)["results"]


def save_reference(workload: str, results: Dict[str, dict], note: str) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = reference_path(workload)
    payload = {"note": note, "results": dict(sorted(results.items()))}
    # mtime=0 keeps the archive byte-stable across re-recordings.
    with open(path, "wb") as raw, gzip.GzipFile(
        fileobj=raw, mode="wb", mtime=0
    ) as handle:
        handle.write(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return path


def reference_for(specs: Sequence, digest_of) -> Dict[str, dict]:
    """Recompute each distinct spec with ``run_one`` (the per-run path)."""
    from repro.sim.batch import run_one

    out: Dict[str, dict] = {}
    for spec in specs:
        digest = digest_of(spec)
        if digest not in out:
            out[digest] = as_json(run_one(spec))
    return out


class Checker:
    """Checks outcomes of one run against the recorded reference, or a
    seeded recomputed sample for specs the recording does not hold."""

    def __init__(
        self, workload: str, seed: int, recorded: Optional[Dict[str, dict]] = None
    ) -> None:
        from repro.sim.supervisor import spec_digest

        self.digest = spec_digest
        self.recorded = load_reference(workload) if recorded is None else recorded
        self.rng = random.Random(f"check/{workload}/{seed}")
        self.failures: List[str] = []
        self.checked = 0
        self.recomputed = 0

    def check(self, pairs: Iterable[Tuple[object, object]]) -> List[bool]:
        """``(spec, outcome)`` pairs -> per-pair "failed" flags.

        An outcome that is not a result (an exception, a failure record,
        ``None``) fails.  Distinct specs missing from the recording are
        sampled (share :data:`SAMPLE_SHARE`, at least
        :data:`SAMPLE_MIN`) and recomputed.
        """
        pairs = list(pairs)
        digests = [self.digest(spec) for spec, _ in pairs]
        unrecorded = sorted({d for d in digests if d not in self.recorded})
        count = min(
            len(unrecorded),
            max(SAMPLE_MIN, math.ceil(SAMPLE_SHARE * len(unrecorded))),
        )
        sampled = set(self.rng.sample(unrecorded, count)) if unrecorded else set()
        fresh: Dict[str, dict] = {}
        flags = []
        for (spec, outcome), digest in zip(pairs, digests):
            if not hasattr(outcome, "to_json_dict"):
                self.failures.append(f"{digest}: no result ({outcome!r:.200})")
                flags.append(True)
                continue
            expected = self.recorded.get(digest)
            if expected is None and digest in sampled:
                if digest not in fresh:
                    fresh[digest] = reference_for([spec], self.digest)[digest]
                    self.recomputed += 1
                expected = fresh[digest]
            if expected is None:
                flags.append(False)
                continue
            self.checked += 1
            diffs = compare(expected, as_json(outcome))
            if diffs:
                self.failures.append(f"{digest}: " + "; ".join(diffs[:3]))
            flags.append(bool(diffs))
        return flags


# --- paper figures ---------------------------------------------------------------


def _suite_eval(runs, baselines):
    from repro.core.metrics import mean_slowdown, slowdown_factor

    slowdowns = {
        run.benchmark: slowdown_factor(run, base) for run, base in zip(runs, baselines)
    }
    return {
        "slowdowns": slowdowns,
        "mean": mean_slowdown(list(slowdowns.values())),
        "violations": sum(run.violations for run in runs),
    }


def figure_tables(groups: Dict[str, list]) -> Dict[str, str]:
    """Figure 3b / 4a / 4b table text (without the throughput line) from
    one pass's results, rendered exactly as the harness renders them."""
    from repro.analysis import paired_comparison, render_table
    from repro.core import overhead_reduction
    from repro.core.crossover import PAPER_DUTY_CYCLES

    base = groups["baseline"]
    evals = {name: _suite_eval(runs, base) for name, runs in groups.items()}
    rows = [
        [duty, evals[f"fig3b.FG{duty:g}"]["mean"], evals[f"fig3b.FG{duty:g}"]["violations"]]
        for duty in sorted(PAPER_DUTY_CYCLES, reverse=True)
    ]
    rows.append(["DVS (ref)", evals["fig3b.DVS"]["mean"], evals["fig3b.DVS"]["violations"]])
    tables = {
        "fig3b": render_table(
            ["duty cycle", "mean slowdown", "violations"],
            rows,
            title=(
                "Figure 3b: fixed-duty stand-alone FG sweep with binary "
                "DVS-stall superimposed"
            ),
        )
    }
    techniques = ("FG", "DVS", "PI-Hyb", "Hyb")
    for figure, mode, title, paper, suffix in (
        ("fig4a", "stall", "Figure 4a: DTM slowdown with DVS-stall (9 SPEC benchmarks)",
         "~25%", ""),
        ("fig4b", "ideal", "Figure 4b: DTM slowdown with DVS-ideal (9 SPEC benchmarks)",
         "~11%", "-ideal"),
    ):
        ev = {name: evals[f"{figure}.{name}"] for name in techniques}
        lines = [
            render_table(
                ["technique", "mean slowdown", "violations"],
                [[name, ev[name]["mean"], ev[name]["violations"]] for name in techniques],
                title=title,
            )
        ]
        if figure == "fig4a":
            lines.append(
                render_table(
                    ["benchmark", *techniques],
                    [
                        [b] + [ev[name]["slowdowns"][b] for name in techniques]
                        for b in sorted(ev["DVS"]["slowdowns"])
                    ],
                    title="Per-benchmark slowdowns",
                )
            )
        for hybrid in ("PI-Hyb", "Hyb"):
            reduction = overhead_reduction(ev["DVS"]["mean"], ev[hybrid]["mean"])
            stats = paired_comparison(ev[hybrid]["slowdowns"], ev["DVS"]["slowdowns"])
            lines.append(
                f"{hybrid} vs DVS{suffix}: {reduction * 100:.1f}% overhead "
                f"reduction (paper: {paper}), p={stats.p_value:.4g}, "
                f"significant at 99%: {stats.significant(0.99)}"
            )
        tables[figure] = "\n\n".join(lines)
    return tables


COMMITTED_TABLES = {
    "fig3b": "fig3b.txt",
    "fig4a": "fig4a_stall.txt",
    "fig4b": "fig4b_ideal.txt",
}


def committed_table(root: Path, figure: str) -> Optional[str]:
    """A committed table's text without its throughput line."""
    path = root / "benchmarks" / "results" / COMMITTED_TABLES[figure]
    if not path.is_file():
        return None
    text = path.read_text(encoding="utf-8")
    kept = [line for line in text.split("\n\n") if not line.startswith("[throughput")]
    return "\n\n".join(kept).rstrip()


def check_figures(root: Path, groups: Dict[str, list]) -> List[str]:
    """Mismatches between the rendered and the committed figure tables."""
    failures = []
    for figure, text in figure_tables(groups).items():
        committed = committed_table(root, figure)
        if committed is None:
            failures.append(f"{figure}: committed table missing")
            continue
        mine = [line.rstrip() for line in text.rstrip().splitlines()]
        theirs = [line.rstrip() for line in committed.splitlines()]
        if mine != theirs:
            diff = next(
                (f"{a!r} != {b!r}" for a, b in zip(theirs, mine) if a != b),
                f"{len(theirs)} lines != {len(mine)} lines",
            )
            failures.append(f"{figure} table differs from the committed one: {diff}")
    return failures


PAPER_DVS_OVERHEAD_PCT = 22.0
PAPER_HYB_GAIN_PCT = 25.0


def fidelity(groups: Dict[str, list]) -> Dict[str, float]:
    """Distance of the figure configuration from the paper's numbers, in
    percentage points: mean DVS-stall overhead against 22 %, and the
    PI-Hyb vs DVS overhead reduction against 25 % (Figure 4a)."""
    from repro.core import overhead_reduction

    base = groups["baseline"]
    dvs = _suite_eval(groups["fig4a.DVS"], base)["mean"]
    pihyb = _suite_eval(groups["fig4a.PI-Hyb"], base)["mean"]
    return {
        "fidelity_dvs_overhead_err_pp": abs((dvs - 1.0) * 100.0 - PAPER_DVS_OVERHEAD_PCT),
        "fidelity_pihyb_gain_err_pp": abs(
            overhead_reduction(dvs, pihyb) * 100.0 - PAPER_HYB_GAIN_PCT
        ),
    }

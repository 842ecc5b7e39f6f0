"""The repository benchmark: one seeded workload, measured end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 15 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it untraced and then again under the span
tracer, and prints the per-layer metrics.  Either way every result is
checked (see :mod:`perfbench.check`).  Human-readable lines, all
starting with ``#``, come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-reference`` recomputes and stores the reference results of
the workload at the given seed; it is how ``perfbench/reference`` was
made (at the default seed and the ``run_seconds`` of BENCHMARK.json).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3
E2E_UNITS = {
    "setup_s": "s",
    "sweep_wall_s": "s",
    "sim_instr_per_s": "instr/s",
    "specs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """``host.calib_s``: median of nine runs of the fixed speed-probe
    kernel, timed at the start of every run so that figures from
    different hosts can be compared."""
    from perfbench.workloads import speed_probe

    return statistics.median(speed_probe() for _ in range(9))


def setup_probe_samples(args) -> list:
    """Set-up time of ``SETUP_PROBES`` fresh processes (each imports the
    program and sets the workload up from nothing)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=170, cwd=str(ROOT),
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_ok(n: int, p: float) -> bool:
    """Whether ``n`` samples leave at least 10 beyond the ``p``-th
    percentile (the highest percentile a report may quote)."""
    return int(n * (100.0 - p) / 100.0 + 1e-9) >= 10


def service_latency(extra: dict) -> dict:
    """Miss/hit latency percentiles (ms) with their sample counts.  A
    percentile without 10 samples beyond it is left out (the run is too
    short to quote it)."""
    lat = extra["latency"]
    out = {}
    for kind, points in (("miss", (50, 95)), ("hit", (50, 99)), ("joint", (50,))):
        samples = lat[kind]
        out[f"{kind}_samples"] = len(samples)
        for p in points:
            if samples and (p == 50 or tail_ok(len(samples), p)):
                out[f"{kind}_p{p}_ms"] = percentile(samples, p) * 1e3
    return out


def emit(line: str) -> None:
    print(f"# {line}", flush=True)


def run_checks(bench, measurement) -> tuple:
    """Reference checks; returns (failed count, failure messages)."""
    from perfbench import check
    from perfbench.specs import DEFAULT_SEED

    checker = check.Checker(bench.name, bench.seed)
    flags = checker.check(measurement.pairs)
    if measurement.failed:
        flags = [a or b for a, b in zip(flags, measurement.failed)]
    failures = list(checker.failures) + measurement.extra.get("problems", [])
    emit(f"checked {checker.checked} results against references "
         f"({checker.recomputed} recomputed with run_one)")
    failed = sum(flags)
    if bench.name == "paper_sweep" and bench.seed == DEFAULT_SEED:
        table_failures = check.check_figures(ROOT, bench.figure_pass(measurement))
        emit(f"figure tables checked against benchmarks/results: "
             f"{len(table_failures)} differ")
        failures += table_failures
        failed += len(table_failures)
    return failed, failures


def identical(untraced, traced) -> list:
    """Specs whose traced result differs from the untraced one."""
    from perfbench.check import as_json

    def by_spec(measurement):
        from repro.sim.supervisor import spec_digest

        out = {}
        for spec, outcome in measurement.pairs:
            out[spec_digest(spec)] = (
                as_json(outcome) if hasattr(outcome, "to_json_dict") else repr(outcome)
            )
        return out

    first, second = by_spec(untraced), by_spec(traced)
    return [d for d in first if first[d] != second.get(d)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources (src/repro) are not under {ROOT}",
              file=sys.stderr)
        return 2
    # Import the program and this package from the checkout root (in
    # place of the script's own directory), here and in child processes.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    bench = WORKLOADS[args.workload](args.seed, args.seconds, run_dir)
    try:
        if args.setup_probe:
            bench.setup()
            print(json.dumps({"setup_s": time.perf_counter() - T0}), flush=True)
            return 0
        if args.record_reference:
            return record_reference(bench)
        return run(bench, args)
    finally:
        bench.teardown()
        shutil.rmtree(run_dir, ignore_errors=True)


def record_reference(bench) -> int:
    from perfbench import check
    from repro.sim.supervisor import spec_digest

    bench.setup()
    results = check.reference_for(bench.all_specs(), spec_digest)
    path = check.save_reference(
        bench.name, results,
        note=f"run_one results of {bench.name} at seed {bench.seed}, "
             f"{bench.seconds:g} s",
    )
    emit(f"recorded {len(results)} reference results to {path}")
    return 0


def run(bench, args) -> int:
    calib_s = calibrate()
    emit(f"workload {bench.name} seed {args.seed} seconds {args.seconds:g} "
         f"trace {args.trace}")
    emit(f"host.calib_s = {calib_s:.6f} s")
    probes = args.trace == 0 and bench.name != "service_mix"
    setup_samples = setup_probe_samples(args) if probes else []
    bench.setup()
    measurement = bench.measure()
    failed, failures = run_checks(bench, measurement)
    emit(f"{measurement.passes} passes; pass walls "
         + ", ".join(f"{sum(w):.3f}" for w in measurement.unit_walls)
         + f" s; unscaled sweep {measurement.raw_sweep_wall_s:.4f} s")
    if args.trace == 0:
        if bench.name == "service_mix":
            # Every pass starts a fresh server: each launch up to its
            # first successful ping is one set-up sample.
            setup_samples = bench.launches
        sweep = measurement.sweep_wall_s
        values = {
            "setup_s": statistics.median(setup_samples),
            "sweep_wall_s": sweep,
            "sim_instr_per_s": measurement.instructions / measurement.passes / sweep,
            "specs_per_s": measurement.attempted / measurement.passes / sweep,
            "peak_rss_mb": measurement.rss_mb,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
        emit("setup samples: " + ", ".join(f"{s:.4f}" for s in setup_samples))
        report_extra(bench, measurement)
    else:
        from perfbench.layers import PER_LAYER_UNITS, layer_metrics
        from perfbench.tracer import Tracer, leaked_wrappers

        trace_dir = bench.run_dir / "trace"
        trace_dir.mkdir()
        tracer = Tracer(trace_dir)
        traced, merged = bench.traced(tracer)
        leaks = leaked_wrappers()
        if leaks:
            failures.append(f"wrappers not restored: {leaks[:5]}")
            failed += 1
        differing = identical(measurement, traced)
        if differing:
            failures.append(f"{len(differing)} traced results differ from untraced")
            failed += len(differing)
        values = layer_metrics(
            merged,
            processes=bench.processes or 1,
            miss_latencies=traced.extra.get("miss_latencies"),
            server_status=traced.extra.get("status"),
        )
        values["host.calib_s"] = calib_s
        values["bench.trace_overhead_ratio"] = (
            traced.sweep_wall_s / measurement.sweep_wall_s
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        save_spans(bench, args, merged)
    for name, metric in metrics.items():
        emit(f"{name} = {metric['value']:.6g} {metric['unit']}")
    emit(f"error_rate = {failed / max(1, measurement.attempted):.6g} "
         f"({failed} of {measurement.attempted})")
    for message in failures[:20]:
        emit(f"FAILED {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": measurement.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def report_extra(bench, measurement) -> None:
    """Figures printed by name beside the end-to-end metrics."""
    from perfbench import check

    if bench.name == "paper_sweep":
        for name, value in check.fidelity(bench.figure_pass(measurement)).items():
            emit(f"{name} = {value:.6g} pp")
    if bench.name == "service_mix":
        for name, value in service_latency(measurement.extra).items():
            unit = "ms" if name.endswith("_ms") else "samples"
            emit(f"{name} = {value:.6g} {unit}")
        status = measurement.extra["status"]
        emit(f"server dedup_joins = {status['dedup_joins']} "
             f"shed = {status['shed']} jobs_done = {status['jobs_done']}")


def save_spans(bench, args, merged) -> None:
    """Write the merged span log of a traced run (kept, one per workload
    and seed, under ``.perfbench/``)."""
    path = ROOT / ".perfbench" / f"spans-{bench.name}-s{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in merged["spans"]:
            name, start, end, span_id, parent, request, pid = span
            handle.write(json.dumps({
                "name": name, "start": start, "end": end, "id": span_id,
                "parent": parent, "request": request, "pid": pid,
            }) + "\n")
    emit(f"span log: {path.relative_to(ROOT)} ({len(merged['spans'])} spans)")


if __name__ == "__main__":
    sys.exit(main())

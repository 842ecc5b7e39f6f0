"""What the traced run wraps, and the per-layer metrics derived from it.

:func:`targets` lists every public function or method the tracer wraps,
each under a span name.  Span names group into layers; a call is
re-entrant (not a new span) when the innermost open span has the same
layer.  :func:`layer_metrics` turns the merged span totals into the
``per_layer`` metrics named in ``BENCHMARK.json``.  The layer -> end-to-end
map those metrics are read against is in ``perfbench/README.md``.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Dict, List, Optional

from perfbench.tracer import run_many_factory, submit_factory


def _one(args, kwargs, result) -> float:
    return 1.0


def _batched_rows(args, kwargs, result) -> float:
    solvers = args[0] if args else kwargs["solvers"]
    return float(len(solvers))


def _ff_steps(args, kwargs, result) -> float:
    return float(args[3] if len(args) > 3 else kwargs["steps"])


def _lockstep_runs(args, kwargs, result) -> float:
    return float(len(result)) if result is not None else 0.0


def _kernel_steps(args, kwargs, result) -> float:
    return float(args[0].count)


def _cache_hit(args, kwargs, result) -> float:
    return 1.0 if result is not None else 0.0


def _digest_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("digest")


def _spec_request(args, kwargs):
    from perfbench.tracer import WRAPPED_MARK
    from repro.sim import supervisor

    digest = supervisor.spec_digest
    digest = getattr(digest, WRAPPED_MARK, digest)
    return digest(args[1])


# Span name -> layer, for names sharing one layer.
_LAYER = {
    "thermal.step": "thermal",
    "thermal.batched": "thermal",
    "thermal.ff": "thermal",
    "thermal.proof": "thermal",
    "sim.batch.pool_wait": "sim.batch.pool",
    "service.cache.get": "service.cache",
    "service.cache.put": "service.cache",
}


def _methods(module_name: str, class_name: str, names, span: str, **options):
    module = importlib.import_module(module_name)
    owner = getattr(module, class_name)
    return [
        (owner, name, span, dict(options, layer=_LAYER.get(span, span)))
        for name in names
        if name in owner.__dict__
    ]


def _function(module_name: str, name: str, span: str, **options):
    module = importlib.import_module(module_name)
    return [(module, name, span, dict(options, layer=_LAYER.get(span, span)))]


def _policy_classes() -> List[type]:
    for module_name in (
        "repro.dtm.clock_gating",
        "repro.dtm.dvs",
        "repro.dtm.fetch_gating",
        "repro.dtm.hybrid",
        "repro.dtm.local_toggling",
        "repro.dtm.migration",
        "repro.dtm.none",
        "repro.dtm.predictive",
    ):
        importlib.import_module(module_name)
    from repro.dtm.base import DtmPolicy

    seen, todo = [], [DtmPolicy]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def import_program() -> None:
    """Import every module a run may reach, so that nothing binds a
    wrapped name by ``from ... import`` after :func:`targets` patched it
    (uninstall could not find such a copy)."""
    for module_name in (
        "repro.sim.batch",
        "repro.sim.engine",
        "repro.sim.lockstep",
        "repro.sim.contract",
        "repro.sim.kernel",
        "repro.sim.supervisor",
        "repro.sim.shm",
        "repro.multicore.batch",
        "repro.multicore.engine",
        "repro.service.protocol",
        "repro.service.cache",
        "repro.service.server",
        "repro.service.client",
        "repro.core.policies",
        "repro.workloads.spec",
        "repro.workloads.compiler",
    ):
        importlib.import_module(module_name)


def targets() -> List[tuple]:
    """Every ``(owner, attr, span name, options)`` the tracer wraps."""
    import_program()
    from concurrent.futures.process import ProcessPoolExecutor

    found: List[tuple] = []
    # Sweep runner, warm-ups, pool and supervisor.
    found += _function("repro.sim.batch", "run_many", "sim.batch",
                       factory=run_many_factory)
    found += _methods("repro.sim.engine", "SimulationEngine",
                      ["compute_initial_temperatures"], "sim.batch.warmup",
                      logged=True)
    found += _methods("repro.multicore.engine", "MultiCoreEngine",
                      ["compute_initial_temperatures"], "sim.batch.warmup",
                      logged=True)
    found.append((ProcessPoolExecutor, "submit", "sim.batch.pool_submit",
                  {"factory": submit_factory}))
    found += _function("repro.sim.supervisor", "futures_wait",
                       "sim.batch.pool_wait")
    found += _function("repro.sim.supervisor", "spec_digest",
                       "sim.supervisor.digest")
    found += _methods("repro.sim.supervisor", "SweepJournal", ["record"],
                      "sim.supervisor.journal", logged=True,
                      request=_digest_arg)
    # Engines and their step loops.
    found += _methods("repro.sim.engine", "SimulationEngine", ["run"],
                      "sim.engine", logged=True, units=_one)
    found += _methods("repro.sim.lockstep", "LockstepEngine", ["run"],
                      "sim.engine", logged=True, units=_lockstep_runs)
    found += _methods("repro.multicore.engine", "MultiCoreEngine", ["run"],
                      "multicore", logged=True)
    found += _methods("repro.sim.kernel", "DenseSpanTask", ["run"],
                      "sim.kernel", units=_kernel_steps)
    found += _function("repro.sim.contract", "service_round", "sim.lockstep")
    # Thermal stepping, stride and its proof.
    found += _function("repro.thermal.solver", "step_lockstep",
                       "thermal.batched", units=_batched_rows)
    for cls in ("TransientSolver", "ExponentialSolver"):
        found += _methods("repro.thermal.solver", cls, ["step"],
                          "thermal.step", units=_one)
    found += _methods("repro.thermal.solver", "ExponentialSolver",
                      ["fast_forward"], "thermal.ff", units=_ff_steps)
    found += _methods("repro.thermal.solver", "SpanProbe",
                      ["widened", "bounds"], "thermal.proof")
    # Sensing, power, performance model, policies.
    found += _methods("repro.sensors.array", "SensorArray",
                      ["sample", "sample_vector", "sample_hottest"], "sensors")
    found += _methods("repro.power.model", "PowerModel",
                      ["block_powers_vector", "dynamic_vector_w",
                       "leakage_vector_w", "block_powers", "total_power"],
                      "power")
    for module_name, cls in (
        ("repro.uarch.interval", "IntervalPerformanceModel"),
        ("repro.workloads.compiler", "CompiledIntervalModel"),
    ):
        found += _methods(module_name, cls,
                          ["advance", "span_instructions", "fast_forward",
                           "run_length"], "uarch")
    for cls in _policy_classes():
        for name in ("update", "update_hottest"):
            if name in cls.__dict__ and not getattr(
                cls.__dict__[name], "__isabstractmethod__", False
            ):
                found.append((cls, name, "dtm", {"layer": "dtm"}))
    found += _methods("repro.multicore.hopping", "CoreHopper", ["update"],
                      "dtm")
    # Service.
    found += _function("repro.service.protocol", "encode_frame",
                       "service.protocol")
    found += _function("repro.service.protocol", "decode_payload",
                       "service.protocol")
    found += _methods("repro.service.cache", "ResultCache", ["get"],
                      "service.cache.get", logged=True, units=_cache_hit,
                      request=_digest_arg)
    found += _methods("repro.service.cache", "ResultCache", ["put"],
                      "service.cache.put", logged=True, request=_digest_arg)
    found += _methods("repro.service.server", "SweepService", ["_execute"],
                      "service.server.execute", logged=True,
                      request=_spec_request)
    return found


# --- derived metrics ----------------------------------------------------------

PER_LAYER_UNITS: Dict[str, str] = {}
"""Metric name -> unit, in BENCHMARK.json order (filled below)."""


def _declare(unit: str, *names: str) -> None:
    for name in names:
        PER_LAYER_UNITS[name] = unit


_declare("count", "sim.engine.runs")
_declare("s", "sim.engine.self_s")
_declare("count", "sim.kernel.spans", "sim.kernel.steps")
_declare("s", "sim.kernel.self_s")
_declare("count", "sim.lockstep.rounds")
_declare("s", "sim.lockstep.self_s")
_declare("ratio", "sim.lockstep.batched_share")
_declare("count", "thermal.steps")
_declare("s", "thermal.step_s")
_declare("count", "thermal.ff_calls", "thermal.ff_steps")
_declare("s", "thermal.ff_s")
_declare("ratio", "thermal.stride_share")
_declare("count", "thermal.proof_calls")
_declare("s", "thermal.proof_s", "thermal.proof_s_per_stride")
_declare("count", "sensors.samples")
_declare("s", "sensors.self_s")
_declare("count", "power.calls")
_declare("s", "power.self_s")
_declare("count", "uarch.advances")
_declare("s", "uarch.self_s")
_declare("count", "dtm.updates")
_declare("s", "dtm.self_s")
_declare("count", "multicore.runs")
_declare("s", "multicore.self_s")
_declare("count", "sim.batch.calls")
_declare("s", "sim.batch.self_s")
_declare("count", "sim.batch.warmups")
_declare("s", "sim.batch.warmup_s")
_declare("count", "sim.batch.pool_submits")
_declare("s", "sim.batch.pool_submit_s", "sim.batch.pool_wait_s",
         "sim.batch.pool_worker_busy_s")
_declare("ratio", "sim.batch.pool_utilization", "sim.batch.pool_imbalance")
_declare("B", "sim.batch.pool_payload_bytes")
_declare("count", "sim.supervisor.digests")
_declare("s", "sim.supervisor.digest_s")
_declare("count", "sim.supervisor.journal_records")
_declare("s", "sim.supervisor.journal_s")
_declare("count", "service.protocol.frames")
_declare("s", "service.protocol.self_s")
_declare("count", "service.cache.gets")
_declare("s", "service.cache.get_s")
_declare("ratio", "service.cache.hit_ratio")
_declare("count", "service.cache.puts")
_declare("s", "service.cache.put_s", "service.server.execute_s",
         "service.server.queue_wait_s")
_declare("count", "service.server.dedup_joins", "service.server.refusals")
_declare("s", "host.calib_s")
_declare("ratio", "bench.trace_overhead_ratio")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    merged: dict,
    processes: int = 1,
    miss_latencies: Optional[Dict[str, float]] = None,
    server_status: Optional[dict] = None,
) -> Dict[str, float]:
    """Per-layer metrics from merged span state.

    ``processes`` is the pool size (for utilisation);
    ``miss_latencies`` maps a miss's spec digest to its client-observed
    latency in seconds, and ``server_status`` is the service's final
    STATUS reply (both only on the service workload).  Figures a
    workload does not exercise read 0.
    """
    totals = merged["totals"]

    def get(name: str, field: int) -> float:
        agg = totals.get(name)
        return float(agg[field]) if agg is not None else 0.0

    count = lambda name: get(name, 0)  # noqa: E731
    total = lambda name: get(name, 1)  # noqa: E731
    own = lambda name: get(name, 2)  # noqa: E731
    units = lambda name: get(name, 3)  # noqa: E731

    dense = units("thermal.step") + units("thermal.batched")
    strided = units("thermal.ff")
    out = {
        "sim.engine.runs": units("sim.engine"),
        "sim.engine.self_s": own("sim.engine"),
        "sim.kernel.spans": count("sim.kernel"),
        "sim.kernel.steps": units("sim.kernel"),
        "sim.kernel.self_s": own("sim.kernel"),
        "sim.lockstep.rounds": count("sim.lockstep"),
        "sim.lockstep.self_s": own("sim.lockstep"),
        "sim.lockstep.batched_share": _ratio(units("thermal.batched"), dense),
        "thermal.steps": dense,
        "thermal.step_s": total("thermal.step") + total("thermal.batched"),
        "thermal.ff_calls": count("thermal.ff"),
        "thermal.ff_steps": strided,
        "thermal.ff_s": total("thermal.ff"),
        "thermal.stride_share": _ratio(strided, strided + dense),
        "thermal.proof_calls": count("thermal.proof"),
        "thermal.proof_s": total("thermal.proof"),
        "thermal.proof_s_per_stride": _ratio(
            total("thermal.proof"), count("thermal.ff")
        ),
        "sensors.samples": count("sensors"),
        "sensors.self_s": own("sensors"),
        "power.calls": count("power"),
        "power.self_s": own("power"),
        "uarch.advances": count("uarch"),
        "uarch.self_s": own("uarch"),
        "dtm.updates": count("dtm"),
        "dtm.self_s": own("dtm"),
        "multicore.runs": count("multicore"),
        "multicore.self_s": own("multicore"),
        "sim.batch.calls": count("sim.batch"),
        "sim.batch.self_s": own("sim.batch"),
        "sim.batch.warmups": count("sim.batch.warmup"),
        "sim.batch.warmup_s": total("sim.batch.warmup"),
        "sim.batch.pool_submits": count("sim.batch.pool_submit"),
        "sim.batch.pool_submit_s": total("sim.batch.pool_submit"),
        "sim.batch.pool_wait_s": total("sim.batch.pool_wait"),
        "sim.batch.pool_worker_busy_s": total("sim.batch.pool_task"),
        "sim.batch.pool_payload_bytes": units("sim.batch.pool_submit"),
        "sim.supervisor.digests": count("sim.supervisor.digest"),
        "sim.supervisor.digest_s": total("sim.supervisor.digest"),
        "sim.supervisor.journal_records": count("sim.supervisor.journal"),
        "sim.supervisor.journal_s": total("sim.supervisor.journal"),
        "service.protocol.frames": count("service.protocol"),
        "service.protocol.self_s": own("service.protocol"),
        "service.cache.gets": count("service.cache.get"),
        "service.cache.get_s": total("service.cache.get"),
        "service.cache.hit_ratio": _ratio(
            units("service.cache.get"), count("service.cache.get")
        ),
        "service.cache.puts": count("service.cache.put"),
        "service.cache.put_s": total("service.cache.put"),
        "service.server.execute_s": total("service.server.execute"),
    }
    out.update(_pool_shape(merged["spans"], processes))
    out["service.server.queue_wait_s"] = _queue_wait(
        merged["spans"], miss_latencies or {}
    )
    status = server_status or {}
    out["service.server.dedup_joins"] = float(status.get("dedup_joins", 0))
    out["service.server.refusals"] = float(
        status.get("shed", 0) + status.get("cancelled", 0)
    )
    return out


def _pool_shape(spans: List[tuple], processes: int) -> Dict[str, float]:
    """Pool utilisation (worker busy over workers x wall of the sweeps
    that used the pool) and imbalance (median over those sweeps of the
    slowest task over the mean task)."""
    tasks: Dict[object, List[float]] = {}
    for name, start, end, _sid, _parent, request, _pid in spans:
        if name == "sim.batch.pool_task":
            tasks.setdefault(request, []).append(end - start)
    if not tasks:
        return {"sim.batch.pool_utilization": 0.0, "sim.batch.pool_imbalance": 0.0}
    # Pool tasks carry the sequence number of the run_many call that
    # submitted them, which is also that call's request id.
    pooled_wall = sum(
        end - start
        for name, start, end, _sid, _parent, request, _pid in spans
        if name == "sim.batch" and request in tasks
    )
    busy = sum(sum(durations) for durations in tasks.values())
    imbalance = statistics.median(
        max(durations) / (sum(durations) / len(durations))
        for durations in tasks.values()
    )
    return {
        "sim.batch.pool_utilization": _ratio(busy, processes * pooled_wall),
        "sim.batch.pool_imbalance": imbalance,
    }


def _queue_wait(spans: List[tuple], miss_latencies: Dict[str, float]) -> float:
    """Median over misses of the client-observed latency minus the
    server's execute and cache-write time for that digest.  The journal
    append happens inside execute, so it is not subtracted twice."""
    busy: Dict[str, float] = {}
    for name, start, end, _sid, _parent, request, _pid in spans:
        if name in ("service.server.execute", "service.cache.put"):
            busy[request] = busy.get(request, 0.0) + (end - start)
    waits = [
        latency - busy[digest]
        for digest, latency in miss_latencies.items()
        if digest in busy
    ]
    return statistics.median(waits) if waits else 0.0

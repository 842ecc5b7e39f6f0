"""Lockstep batched execution of many simulation runs in one process.

The process-pool path in :mod:`repro.sim.batch` parallelises *across*
runs; this module instead advances many runs *together* in a single
process.  Every run is the engine's :meth:`~repro.sim.engine.
SimulationEngine.iter_run` generator, which suspends at each thermal
step and asks the driver to advance its solver.  The
:class:`LockstepEngine` collects the pending requests of all live runs
and yields them as one *round* (a mapping of index -> request); the
contract driver (:func:`~repro.sim.contract.service_round`) groups the
compatible ones (same stepper class, same shared network, same dt) and
services each group with one batched BLAS-3 operation via
:func:`~repro.thermal.solver.step_lockstep`; fast-forward jumps, odd
time steps and the last survivors of a draining batch are serviced
individually.  Per-run physics is untouched -- sensing, policy, power
and accounting all run inside the generators -- so lockstep results
match :func:`~repro.sim.batch.run_one` to BLAS summation order.

Because runs under DVS change their cycle time independently, grouping
is re-derived every round from the requests actually pending: runs
drift apart in simulated time but still batch whenever their current
step lengths coincide (the common case -- most policies hold the
nominal frequency for long stretches).

Specs with ``raise_on_violation``, and specs that are not single-core
:class:`~repro.sim.batch.RunSpec` instances (e.g. dual-core specs,
which run on the dual-core die's network and step loop, not the
single-core one this batch groups), fall back to the serial runner: an
emergency must abort only its own run, not the whole batch.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

from repro.obs import heartbeat as obs_heartbeat
from repro.obs import metrics as obs_metrics
from repro.obs import runctx as obs_runctx
from repro.obs import spill as obs_spill
from repro.sim.contract import SimEngine, drive
from repro.sim.results import RunResult

# Sequence number for chunk record ids within one process.
_CHUNK_SEQ = 0


class LockstepEngine(SimEngine):
    """Advances a batch of specs together under the engine contract.

    :meth:`iter_run` yields *rounds* -- mappings of spec index to the
    ``(solver, power, dt, count)`` request that run is suspended on --
    and expects a mapping of stepped temperature vectors back.  The
    batch's result (a list of :class:`~repro.sim.results.RunResult` in
    spec order) is the generator's return value.

    The engine holds no state between runs beyond the spec list itself
    (per-run engines, solvers and sensor arrays are built fresh inside
    every :meth:`iter_run`), so :meth:`reset` only discards a partially
    driven :meth:`build`/:meth:`step` session.
    """

    def __init__(self, specs):
        self._specs = list(specs)

    @property
    def specs(self) -> list:
        """The batch's specs, in result order."""
        return list(self._specs)

    def reset(self) -> None:
        if self._active is not None:
            self._active.close()
        self._active = None
        self._pending_reply = None

    def run(self, budget=None, initial=None, settle_time_s: float = 0.0):
        """Execute the batch and return results in spec order."""
        return drive(self.iter_run(budget, initial, settle_time_s))

    def iter_run(self, budget=None, initial=None, settle_time_s: float = 0.0):
        """Generator form of :meth:`run`.

        ``budget``/``initial``/``settle_time_s`` are unused: every spec
        carries its own.  They remain in the signature so the lockstep
        engine satisfies the :class:`~repro.sim.contract.SimEngine`
        contract verbatim.
        """
        from repro.sim.batch import (
            _begin_heartbeat,
            _build_policy,
            _default_substrate,
            _resolve_workload,
            run_one,
            steady_state_for,
        )
        from repro.sim.batch import RunSpec
        from repro.sim.engine import SimulationEngine
        from repro.sim.faults import fire_prerun_faults

        specs = self._specs
        results: List[Optional[RunResult]] = [None] * len(specs)
        generators: Dict[int, object] = {}
        pending: Dict[int, tuple] = {}
        # Progress publishers for the interleaved runs.  Each one is
        # registered just before its generator's creation-advance (the
        # engine captures the ambient publisher when its body first
        # runs) and released right after, so concurrent runs each hold
        # their own; finish happens when the run completes or in the
        # finally below on an aborted batch.
        heartbeats: Dict[int, object] = {}

        # One telemetry record per chunk: the interleaved generators
        # share one process, so per-run attribution is impossible here --
        # instead the engines' end-of-run publishes land in this
        # chunk-level run context (runs delegated to run_one below open
        # their own nested context, so their metrics stay per-run and
        # are not double counted).
        obs_on = obs_metrics.enabled()
        if obs_on:
            global _CHUNK_SEQ
            _CHUNK_SEQ += 1
            obs_runctx.begin(
                f"lockstep.p{os.getpid()}.c{_CHUNK_SEQ}",
                benchmark=f"lockstep[{len(specs)}]",
                policy="chunk",
                chunk=True,
                runs=len(specs),
            )
        error: Optional[str] = None
        self._emit("run.start", 0.0, runs=len(specs))

        floorplan, hotspot, power_model = _default_substrate()
        try:
            for index, spec in enumerate(specs):
                if not isinstance(spec, RunSpec) or spec.config.raise_on_violation:
                    # Other engine types cannot join the single-core
                    # BLAS-3 groups, and raise_on_violation must
                    # abort one run, not the round -- both take the
                    # one-spec path.
                    results[index] = run_one(spec)
                    continue
                fire_prerun_faults(spec.config.fault_plan, spec.seed)
                workload = _resolve_workload(spec)
                initial_vec = spec.initial
                if initial_vec is None:
                    initial_vec = steady_state_for(workload)
                engine = SimulationEngine(
                    workload,
                    policy=_build_policy(spec),
                    floorplan=floorplan,
                    hotspot=hotspot,
                    power_model=power_model,
                    config=spec.config,
                    seed=spec.seed,
                )
                generator = engine.iter_run(
                    spec.instructions,
                    initial=np.array(initial_vec, dtype=float, copy=True),
                    settle_time_s=spec.settle_time_s,
                )
                generators[index] = generator
                publisher = _begin_heartbeat(spec)
                if publisher is not None:
                    heartbeats[index] = publisher
                _advance(index, None, generators, pending, results)
                obs_heartbeat.release(publisher)
                if index not in generators:
                    obs_heartbeat.finish(heartbeats.pop(index, None))

            while pending:
                replies = yield dict(pending)
                for index in sorted(replies):
                    _advance(
                        index, replies[index], generators, pending, results
                    )
                    if index not in generators:
                        obs_heartbeat.finish(heartbeats.pop(index, None))
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            # One run failing (or the driver itself raising) must not
            # leak the other runs' suspended generators: close them all
            # so their engines unwind now, not at a garbage collection
            # of unknowable timing.  On clean completion the dict is
            # already empty.
            for generator in generators.values():
                try:
                    generator.close()
                except Exception:  # pragma: no cover - defensive
                    pass
            generators.clear()
            pending.clear()
            for publisher in heartbeats.values():
                obs_heartbeat.finish(publisher, error=error or "aborted")
            heartbeats.clear()
            if obs_on:
                obs_spill.record(obs_runctx.end(error=error))
        self._emit("run.complete", 0.0, runs=len(specs))
        return results


def run_lockstep(specs) -> List[RunResult]:
    """Execute ``specs`` in lockstep and return results in spec order.

    Equivalent to ``[run_one(s) for s in specs]`` up to BLAS summation
    order (see module docstring); the wins are shared per-step overhead
    and matrix-matrix arithmetic across the batch.
    """
    return LockstepEngine(specs).run()


def _advance(
    index: int,
    reply: Optional[np.ndarray],
    generators: Dict[int, object],
    pending: Dict[int, tuple],
    results: List[Optional[RunResult]],
) -> None:
    """Resume one run until its next thermal-step request or completion."""
    try:
        pending[index] = generators[index].send(reply)
    except StopIteration as stop:
        results[index] = stop.value
        pending.pop(index, None)
        del generators[index]

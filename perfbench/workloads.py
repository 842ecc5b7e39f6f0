"""The four workloads: set-up, measured section and traced variant.

Each workload object is built from ``(seed, seconds)``, sets itself up
(:meth:`Workload.setup`), runs its measured section once per call to
:meth:`Workload.measure`, and runs the same inputs under the tracer in
:meth:`Workload.traced`.  Run-time files (service caches, span files)
go to a private directory under ``.perfbench/`` in the checkout, which
the run deletes when it ends.

A measured section is several passes of the same shape (see
:mod:`perfbench.specs`), and every unit of every pass is timed.  A
shared 2-vCPU host drifts by tens of percent over seconds to minutes,
so between units a fixed Python + numpy kernel (:func:`speed_probe`)
is timed too -- in as many processes at once as the workload keeps
busy -- and each unit is scaled by the probes around it.  The sweep
time is the sum over units of each scaled unit's median over passes.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import specs
from perfbench.tracer import Tracer, merge_states, read_state_files

ROOT = Path(__file__).resolve().parent.parent
perf = time.perf_counter


PROBE_REF_S = 0.005
"""Duration of one :func:`speed_probe` at the reference host speed
(about its median on the 2-vCPU container the benchmark was defined
on: Python 3.11, OpenBLAS 0.3.31).  Sweep times are reported in host
seconds at that speed."""


def speed_probe() -> float:
    """Host seconds of a fixed kernel shaped like the simulator's inner
    loop: small matrix products, a ufunc and Python arithmetic."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 9 * 60).reshape(9, 60)
    b = np.linspace(0.0, 0.01, 60 * 60).reshape(60, 60)
    start = perf()
    acc = 0.0
    for i in range(700):
        c = a @ b
        np.tanh(c, out=c)
        acc += float(c[0, 0]) * 0.5 + (i % 7)
    return perf() - start


def probe_helper() -> None:
    """Body of a :class:`ParallelProbe` helper: one probe per input
    line, its time printed back; exits at end of input."""
    for _ in sys.stdin:
        print(repr(speed_probe()), flush=True)


class ParallelProbe:
    """:func:`speed_probe` run in ``n`` helper processes at once; a
    call returns the slowest helper's time.  Measures the host's speed
    for workloads that keep ``n`` processes busy (pool workers, the
    server beside its clients)."""

    def __init__(self, n: int) -> None:
        command = [sys.executable, "-c",
                   "from perfbench.workloads import probe_helper; probe_helper()"]
        self._procs = [
            subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True, cwd=str(ROOT))
            for _ in range(n)
        ]

    @property
    def pids(self) -> List[int]:
        return [proc.pid for proc in self._procs]

    def __call__(self) -> float:
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        return max(float(proc.stdout.readline()) for proc in self._procs)

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._procs = []


class UnitClock:
    """Unit wall times, each with the mean of the speed probes taken
    just before and just after it."""

    def __init__(self, probe: Callable[[], float]) -> None:
        self.probe = probe
        self.walls: List[List[float]] = []
        self.probes: List[List[float]] = []
        self._before = 0.0

    def new_pass(self) -> None:
        self.walls.append([])
        self.probes.append([])
        self._before = self.probe()

    def record(self, wall: float) -> None:
        after = self.probe()
        self.walls[-1].append(wall)
        self.probes[-1].append((self._before + after) / 2.0)
        self._before = after


@dataclass
class Measurement:
    """What one measured section produced."""

    unit_walls: List[List[float]]
    """Host seconds per pass, per unit."""
    unit_probes: List[List[float]]
    """Speed-probe seconds around each unit."""
    statistic: Callable[[List[float]], float]
    """How each unit's passes combine (median, or min for the pool)."""
    pairs: List[Tuple[object, object]]
    """``(spec, outcome)`` per attempted spec or submission."""
    instructions: float
    """Simulated committed instructions executed in the section."""
    rss_mb: float
    failed: List[bool] = field(default_factory=list)
    """Per-pair failures known without a reference (refused, raised)."""
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.pairs)

    @property
    def passes(self) -> int:
        return len(self.unit_walls)

    @property
    def sweep_wall_s(self) -> float:
        """One pass's wall time at the reference host speed: each unit
        scaled by ``PROBE_REF_S`` over its probes, combined over passes
        by :attr:`statistic`, summed over units."""
        return self._combine([
            [wall * PROBE_REF_S / probe for wall, probe in zip(walls, probes)]
            for walls, probes in zip(self.unit_walls, self.unit_probes)
        ])

    @property
    def raw_sweep_wall_s(self) -> float:
        """As :attr:`sweep_wall_s`, in unscaled host seconds."""
        return self._combine(self.unit_walls)

    def _combine(self, rows: List[List[float]]) -> float:
        return sum(self.statistic(column) for column in zip(*rows))


def peak_rss_mb(exclude=()) -> float:
    """Peak resident set (VmHWM) of this process plus every live
    descendant (pool workers, the service) not in ``exclude``, in MiB."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("ascii", "replace")
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    todo, total_kb = [os.getpid()], 0
    while todo:
        pid = todo.pop()
        if pid in exclude:
            continue
        todo.extend(parents.get(pid, []))
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _run_group(group: list, **kwargs) -> list:
    """``run_many`` on one group; a raised error becomes every spec's
    outcome, so it is counted rather than ending the run."""
    from repro.sim.batch import run_many

    try:
        return run_many(group, **kwargs)
    except Exception as exc:  # noqa: BLE001 - counted as failures
        return [exc] * len(group)


def _instructions(outcomes) -> float:
    total = 0.0
    for outcome in outcomes:
        if hasattr(outcome, "total_instructions"):
            total += outcome.total_instructions
        elif hasattr(outcome, "instructions"):
            total += outcome.instructions
    return total


class Workload:
    """Sweeps of ``run_many`` calls: ``self.passes`` is a list of passes,
    each a list of groups, each group one call."""

    name = ""
    processes: Optional[int] = None
    busy_processes = 1
    """Processes the workload keeps busy (the speed probe's width)."""
    statistic = staticmethod(statistics.median)
    """How a unit's passes combine into the sweep time."""

    def __init__(self, seed: int, seconds: float, run_dir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.passes: List[List[list]] = []
        self._parallel_probe: Optional[ParallelProbe] = None

    def probe(self) -> float:
        """One speed probe as wide as the workload."""
        if self.busy_processes == 1:
            return speed_probe()
        if self._parallel_probe is None:
            self._parallel_probe = ParallelProbe(self.busy_processes)
        return self._parallel_probe()

    def close_probe(self) -> None:
        if self._parallel_probe is not None:
            self._parallel_probe.close()
            self._parallel_probe = None

    def setup(self) -> None:
        raise NotImplementedError

    def all_specs(self) -> list:
        """Every spec the measured section submits (after setup)."""
        return [spec for groups in self.passes for group in groups for spec in group]

    def new_pass(self) -> None:
        """Hook run before each pass, outside the timed units."""

    def measure(self) -> Measurement:
        clock, pairs, results = UnitClock(self.probe), [], []
        for groups in self.passes:
            self.new_pass()
            clock.new_pass()
            pass_results = []
            for group in groups:
                start = perf()
                outcomes = _run_group(group, processes=self.processes)
                clock.record(perf() - start)
                pairs.extend(zip(group, outcomes))
                pass_results.append(outcomes)
            results.append(pass_results)
        return Measurement(
            unit_walls=clock.walls,
            unit_probes=clock.probes,
            statistic=self.statistic,
            pairs=pairs,
            instructions=_instructions(o for _, o in pairs),
            rss_mb=self.rss_mb(),
            extra={"results": results},
        )

    def teardown(self) -> None:
        self.close_probe()

    def rss_mb(self) -> float:
        """:func:`peak_rss_mb` without the probe's helper processes."""
        helpers = self._parallel_probe.pids if self._parallel_probe else ()
        return peak_rss_mb(exclude=helpers)

    def traced(self, tracer: Tracer) -> Tuple[Measurement, dict]:
        """The measured section under ``tracer``; returns the measurement
        and the span state merged with the files pool workers and traced
        servers wrote."""
        from perfbench.layers import targets

        tracer.install(targets())
        try:
            measurement = self.measure_traced(tracer)
        finally:
            tracer.uninstall()
        states = read_state_files(tracer.out_dir, "*.jsonl")
        return measurement, merge_states([tracer.snapshot()] + states)

    def measure_traced(self, tracer: Tracer) -> Measurement:
        return self.measure()


class PaperSweep(Workload):
    """Figure 3b / 4a / 4b spec sets through ``run_many`` defaults."""

    name = "paper_sweep"

    def setup(self) -> None:
        from repro.sim.batch import steady_state_for
        from repro.workloads.spec import build_spec_suite

        suite = build_spec_suite()
        initial = {w.name: steady_state_for(w) for w in suite}
        self.group_names = []
        for sensor_seed in specs.pass_seeds(self.seed, self.seconds, specs.PAPER_PASS_S):
            named = specs.paper_groups(suite, initial, sensor_seed)
            self.group_names = [name for name, _ in named]
            self.passes.append([group for _, group in named])

    def figure_pass(self, measurement: Measurement) -> Dict[str, list]:
        """The first pass's results by group name (sensor seed 0 at the
        default seed: the committed figure configuration)."""
        return dict(zip(self.group_names, measurement.extra["results"][0]))


class PoolSweep(Workload):
    """Short single-core grids through ``run_many(processes=2)``."""

    name = "pool_sweep"
    processes = specs.POOL_PROCESSES
    busy_processes = specs.POOL_PROCESSES
    _tracing = False
    # Pool calls switch between a fast and a slow regime (two workers
    # each running two BLAS threads on two vCPUs) that can last a whole
    # pool lifetime.  Every pass gets a fresh, warmed pool, and a unit
    # counts at its fastest pass: the median would follow whichever
    # regime dominated a run.
    statistic = staticmethod(min)

    def setup(self) -> None:
        from repro.sim.batch import steady_state_for
        from repro.workloads.spec import SPEC_BENCHMARK_NAMES

        for name in SPEC_BENCHMARK_NAMES:
            steady_state_for(name)
        self.passes = specs.pool_passes(self.seed, self.seconds)
        self._warm_pool()

    def new_pass(self) -> None:
        if not self._tracing:
            self._stop_pool()
            self._warm_pool()

    def _warm_pool(self) -> None:
        from repro.sim.batch import RunSpec, run_many

        warm = [
            RunSpec("gzip", "none", instructions=10_000, seed=10**9 + i)
            for i in range(2 * self.processes)
        ]
        run_many(warm, processes=self.processes)

    def _stop_pool(self) -> None:
        import repro.sim.batch as batch

        # Join the workers (the library's own teardown terminates them
        # without waiting).
        pool = batch._POOL
        if pool is not None:
            pool.shutdown(wait=True)
        batch._shutdown_pool()

    def teardown(self) -> None:
        self._stop_pool()
        super().teardown()

    def measure_traced(self, tracer: Tracer) -> Measurement:
        # Workers fork from the traced parent, so the pool is rebuilt now
        # that the wrappers are in and warmed, the warm-up's spans are
        # dropped, and it then serves every pass.
        self._stop_pool()
        self._warm_pool()
        tracer.clear()
        for path in tracer.out_dir.glob("worker-*.jsonl"):
            path.unlink()
        self._tracing = True
        try:
            return self.measure()
        finally:
            self._tracing = False
            self._stop_pool()


class DualCore(Workload):
    """The A9 dual-core grid through ``run_many`` defaults."""

    name = "dualcore"

    def setup(self) -> None:
        from repro.multicore.batch import dual_core_steady_state

        initial = {
            "+".join(pair): dual_core_steady_state(pair) for pair in specs.DUAL_PAIRS
        }
        self.passes = [
            specs.dual_groups(sensor_seed, initial)
            for sensor_seed in specs.pass_seeds(self.seed, self.seconds, specs.DUAL_PASS_S)
        ]


# --- service ------------------------------------------------------------------------


class Server:
    """One ``repro serve`` process on an ephemeral localhost port.

    ``launch_s`` is the time from starting the process to its first
    successful ping."""

    def __init__(self, run_dir: Path, label: str, trace_dir: Optional[Path] = None):
        self.dir = run_dir / label
        self.dir.mkdir(parents=True, exist_ok=True)
        serve_args = [
            "--host", "127.0.0.1", "--port", "0",
            "--cache-dir", str(self.dir / "cache"),
        ]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            bootstrap = str(Path(__file__).with_name("serve_traced.py"))
            command = [sys.executable, bootstrap, str(trace_dir), *serve_args]
        self._log = open(self.dir / "server.log", "wb")
        start = perf()
        self.proc = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, cwd=str(ROOT)
        )
        try:
            self.address = self._wait_address()
        except BaseException:
            self.stop()
            raise
        self.launch_s = perf() - start

    def _wait_address(self, timeout_s: float = 60.0) -> Tuple[str, int]:
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + timeout_s
        marker = "sweep service listening on "
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{(self.dir / 'server.log').read_text(errors='replace')[-2000:]}"
                )
            text = (self.dir / "server.log").read_text(errors="replace")
            if marker in text:
                host, _, port = text.split(marker, 1)[1].split()[0].rpartition(":")
                address = (host, int(port))
                with ServiceClient(address, timeout=10.0) as client:
                    client.ping()
                return address
            time.sleep(0.002)
        raise RuntimeError("server did not come up")

    def status(self) -> dict:
        from repro.service.client import ServiceClient

        with ServiceClient(self.address, timeout=30.0) as client:
            return client.status()

    def stop(self, timeout_s: float = 60.0) -> None:
        """Graceful drain (SIGTERM), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class ServiceMix(Workload):
    """Two closed-loop clients against ``repro serve``; each pass runs
    against a fresh server, and a unit is a block of rounds."""

    name = "service_mix"
    busy_processes = 2

    def setup(self) -> None:
        import repro.service.client  # noqa: F401 - part of client set-up

        self.plans = specs.service_passes(self.seed, self.seconds)
        self.trace_dir: Optional[Path] = None
        self.launches: List[float] = []

    def all_specs(self) -> list:
        return [request.spec for plan in self.plans for client in plan for request in client]

    def _run_pass(self, index: int, plan, clock: UnitClock) -> Tuple[list, dict, float]:
        from repro.service.client import ServiceBusyError, ServiceClient

        label = f"server{index}" + ("-traced" if self.trace_dir else "")
        server = Server(self.run_dir, label, trace_dir=self.trace_dir)
        self.launches.append(server.launch_s)
        try:
            joint = threading.Barrier(len(plan))
            started = []

            def block_done() -> None:
                # Runs once per block, while both clients wait.
                if started:
                    clock.record(perf() - started.pop())
                else:
                    clock.new_pass()
                started.append(perf())

            block = threading.Barrier(len(plan), action=block_done)
            records: List[list] = [[] for _ in plan]
            errors: List[BaseException] = []

            def client_loop(client_index: int) -> None:
                out = records[client_index]
                requests = plan[client_index]
                try:
                    with ServiceClient(server.address, timeout=120.0) as client:
                        block.wait(timeout=120.0)
                        for r, request in enumerate(requests, start=1):
                            if request.kind == "joint":
                                joint.wait(timeout=120.0)
                            start = perf()
                            try:
                                outcome = client.submit([request.spec], timeout_s=120.0)[0]
                            except ServiceBusyError as exc:
                                outcome = exc
                            out.append((request, outcome, perf() - start))
                            if r % specs.SERVICE_BLOCK == 0 or r == len(requests):
                                block.wait(timeout=120.0)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    joint.abort()
                    block.abort()

            threads = [
                threading.Thread(target=client_loop, args=(i,), name=f"client{i}")
                for i in range(len(plan))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise RuntimeError(f"service client failed: {errors[0]!r}") from errors[0]
            rss = self.rss_mb()
            status = server.status()
        finally:
            server.stop()
        return records, status, rss

    def measure(self) -> Measurement:
        clock, pairs, failed, problems, executed = UnitClock(self.probe), [], [], [], {}
        latency: Dict[str, List[float]] = {"miss": [], "hit": [], "joint": []}
        miss_latencies: Dict[str, float] = {}
        statuses, rss = [], 0.0
        for index, plan in enumerate(self.plans):
            records, status, pass_rss = self._run_pass(index, plan, clock)
            statuses.append(status)
            rss = max(rss, pass_rss)
            for out in records:
                for request, outcome, seconds in out:
                    result = getattr(outcome, "result", None)
                    ok = getattr(outcome, "ok", False) and result is not None
                    # A repeat must come from the cache and a fresh spec
                    # must not; the second half of a joint submission may
                    # join the running job or, arriving late, hit the cache.
                    if not ok:
                        problem = f"{request.kind}: {outcome!r:.200}"
                    elif request.kind != "joint" and outcome.cached != (request.kind == "hit"):
                        problem = f"{request.kind} answered with cached={outcome.cached}"
                    else:
                        problem = None
                    if problem is not None:
                        problems.append(problem)
                    pairs.append((request.spec, result if ok else outcome))
                    failed.append(problem is not None)
                    latency[request.kind].append(seconds)
                    if ok and request.kind != "hit":
                        executed[outcome.digest] = result
                    if ok and request.kind == "miss":
                        miss_latencies[outcome.digest] = seconds
        status = {
            key: sum(s.get(key, 0) for s in statuses)
            for key in ("dedup_joins", "shed", "cancelled", "jobs_done")
        }
        return Measurement(
            unit_walls=clock.walls,
            unit_probes=clock.probes,
            statistic=self.statistic,
            pairs=pairs,
            instructions=_instructions(executed.values()),
            rss_mb=rss,
            failed=failed,
            extra={
                "latency": latency,
                "miss_latencies": miss_latencies,
                "status": status,
                "problems": problems,
            },
        )

    def measure_traced(self, tracer: Tracer) -> Measurement:
        self.trace_dir = tracer.out_dir
        try:
            return self.measure()
        finally:
            self.trace_dir = None


WORKLOADS = {
    cls.name: cls for cls in (PaperSweep, PoolSweep, ServiceMix, DualCore)
}

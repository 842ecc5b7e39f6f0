"""Seeded inputs of the four workloads.

Everything the program receives is built here from the benchmark seed
and the run length; the same ``(seed, seconds)`` always gives the same
specs.  Work is sized from ``seconds`` with fixed per-pass constants, so
both sides of an A/B comparison run exactly the same work.

Every workload is a number of *passes* of the same shape: the same
groups of specs, each pass with its own sensor seeds, so no spec repeats
anywhere in a run.  Each pass is cut into *units* (one ``run_many``
call, or a block of service rounds) that are timed on their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Sequence, Tuple

DEFAULT_SEED = 0
"""The seed whose references are recorded under ``perfbench/reference``."""

# --- paper_sweep ----------------------------------------------------------------

PAPER_INSTRUCTIONS = 20_000_000
"""The harness's default per-run budget (``DEFAULT_INSTRUCTIONS``)."""

PAPER_SETTLE_S = 2.0e-3
"""The harness's default settle lead-in (``DEFAULT_SETTLE_TIME_S``)."""

PAPER_PASS_S = 4.0
"""Approximate host seconds of one paper pass; sets the pass count."""

MIN_PASSES = 3


def pass_seeds(seed: int, seconds: float, pass_s: float) -> List[int]:
    """Sensor seeds of a run's passes: ``seed * P + p``.  At the
    default seed the first pass is sensor seed 0, the configuration of
    the committed figure tables."""
    passes = max(MIN_PASSES, round(seconds / pass_s))
    return [seed * passes + p for p in range(passes)]


def paper_groups(suite, initial: Dict[str, object], sensor_seed: int) -> List[Tuple[str, list]]:
    """The Figure 3b / 4a / 4b spec sets for one sensor seed, as the
    harness builds them, one group per ``run_many`` call.

    Groups: the no-DTM baselines; fixed-duty FG at the eight paper duty
    cycles and binary DVS (Figure 3b, DVS-stall); FG, DVS, PI-Hyb and
    Hyb under DVS-stall (4a) and DVS-ideal (4b).
    """
    from repro.core.crossover import PAPER_DUTY_CYCLES
    from repro.core.policies import make_policy
    from repro.dtm.dvs import DvsPolicy
    from repro.dtm.fetch_gating import (
        FixedFetchGatingPolicy,
        duty_cycle_to_gating_fraction,
    )
    from repro.sim.batch import RunSpec
    from repro.sim.config import EngineConfig

    def group(policy, dvs_mode=None):
        config = EngineConfig(dvs_mode=dvs_mode) if dvs_mode else None
        return [
            RunSpec(
                workload=workload,
                policy=policy,
                instructions=PAPER_INSTRUCTIONS,
                settle_time_s=PAPER_SETTLE_S,
                engine_config=config,
                seed=sensor_seed,
                initial=initial[workload.name],
            )
            for workload in suite
        ]

    groups = [("baseline", group("none"))]
    for duty in PAPER_DUTY_CYCLES:
        fraction = duty_cycle_to_gating_fraction(duty)
        groups.append(
            (f"fig3b.FG{duty:g}", group(partial(FixedFetchGatingPolicy, fraction), "stall"))
        )
    groups.append(("fig3b.DVS", group(partial(DvsPolicy), "stall")))
    for mode, figure in (("stall", "fig4a"), ("ideal", "fig4b")):
        for name in ("FG", "DVS", "PI-Hyb", "Hyb"):
            groups.append((f"{figure}.{name}", group(partial(make_policy, name), mode)))
    return groups


# --- pool_sweep -----------------------------------------------------------------

POOL_PROCESSES = 2
POOL_BATCH = 24
"""Specs per ``run_many`` call."""

POOL_BATCHES = 5
"""``run_many`` calls per pass."""

POOL_PASS_S = 0.75
"""Approximate host seconds of one pool pass; sets the pass count."""

POOL_BUDGETS = (250_000, 500_000, 1_000_000)
SHORT_POLICIES = ("none", "FG", "DVS", "Hyb", "PI-Hyb")


MODES = ("stall", "ideal")


def _short_spec(rng: random.Random, sensor_seed: int, budgets=POOL_BUDGETS):
    from repro.sim.batch import RunSpec
    from repro.workloads.spec import SPEC_BENCHMARK_NAMES

    return RunSpec(
        workload=rng.choice(SPEC_BENCHMARK_NAMES),
        policy=rng.choice(SHORT_POLICIES),
        instructions=rng.choice(budgets),
        dvs_mode=rng.choice(MODES),
        seed=sensor_seed,
    )


def pool_passes(seed: int, seconds: float) -> List[List[list]]:
    """Passes of ``POOL_BATCHES`` grids of short single-core specs.

    A pass cycles through every benchmark, policy, budget and DVS mode
    in fixed proportions, shuffled by the seed and cut into batches, so
    each pass does the same total work while the seed decides how it
    falls into batches and pool chunks.  Every spec has its own sensor
    seed: nothing repeats within or across calls.
    """
    from repro.sim.batch import RunSpec
    from repro.workloads.spec import SPEC_BENCHMARK_NAMES

    names, per_pass = SPEC_BENCHMARK_NAMES, POOL_BATCHES * POOL_BATCH
    shapes = [
        (
            names[k % len(names)],
            SHORT_POLICIES[(k // len(names)) % len(SHORT_POLICIES)],
            POOL_BUDGETS[k % len(POOL_BUDGETS)],
            MODES[(k // 2) % len(MODES)],
        )
        for k in range(per_pass)
    ]
    random.Random(f"pool_sweep/{seed}").shuffle(shapes)
    passes = max(MIN_PASSES, round(seconds / POOL_PASS_S))
    out = []
    for p in range(passes):
        base = seed * 1_000_000 + p * per_pass
        specs = [
            RunSpec(name, policy, instructions=budget, dvs_mode=mode, seed=base + k)
            for k, (name, policy, budget, mode) in enumerate(shapes)
        ]
        out.append([specs[b:b + POOL_BATCH] for b in range(0, per_pass, POOL_BATCH)])
    return out


# --- service_mix ----------------------------------------------------------------

SERVICE_CLIENTS = 2
SERVICE_PASSES = 3
"""Passes, each against a fresh server with an empty cache."""

SERVICE_ROUNDS_PER_S = 90.0
"""Closed-loop rounds per client per second of run length (over all
passes); sized so the hit tail percentile has 10 samples beyond it."""

SERVICE_BLOCK = 10
"""Rounds per timed unit."""

SERVICE_BUDGETS = (100_000, 200_000)


@dataclass(frozen=True)
class Request:
    """One closed-loop submission of one client."""

    kind: str  # "miss", "hit" or "joint"
    spec: object


def service_passes(seed: int, seconds: float) -> List[List[List[Request]]]:
    """Per pass, per client request sequences of equal length.

    Rounds come in blocks of :data:`SERVICE_BLOCK`.  One round of each
    block is *joint*: both clients submit the same fresh spec at once
    (one executes, the other joins it).  In the others each client
    submits a fresh spec (a miss) or repeats one it already got a
    result for (a hit), in seeded order, five of one and four of the
    other, alternating by block and client.  Passes share the pattern
    and differ in every fresh spec's sensor seed.
    """
    blocks = max(2, round(seconds * SERVICE_ROUNDS_PER_S / SERVICE_PASSES / SERVICE_BLOCK))
    out = []
    for p in range(SERVICE_PASSES):
        rng = random.Random(f"service_mix/{seed}")
        fresh = iter(range(seed * 1_000_000 + p * 100_000, seed * 1_000_000 + (p + 1) * 100_000))
        plans: List[List[Request]] = [[] for _ in range(SERVICE_CLIENTS)]
        done: List[list] = [[] for _ in range(SERVICE_CLIENTS)]
        for b in range(blocks):
            joint_at = rng.randrange(1, SERVICE_BLOCK)
            kinds = []
            for c in range(SERVICE_CLIENTS):
                misses = (SERVICE_BLOCK - 1 + (b + c) % 2) // 2
                order = ["miss"] * misses + ["hit"] * (SERVICE_BLOCK - 1 - misses)
                rng.shuffle(order)
                kinds.append(order)
            for r in range(SERVICE_BLOCK):
                if r == joint_at:
                    spec = _short_spec(rng, next(fresh), SERVICE_BUDGETS)
                    for c in range(SERVICE_CLIENTS):
                        plans[c].append(Request("joint", spec))
                        done[c].append(spec)
                    continue
                for c in range(SERVICE_CLIENTS):
                    kind = kinds[c].pop()
                    if kind == "hit" and done[c]:
                        plans[c].append(Request("hit", rng.choice(done[c])))
                    else:
                        spec = _short_spec(rng, next(fresh), SERVICE_BUDGETS)
                        plans[c].append(Request("miss", spec))
                        done[c].append(spec)
        out.append(plans)
    return out


# --- dualcore -------------------------------------------------------------------

DUAL_PAIRS = (("crafty", "mesa"), ("crafty", "gcc"), ("gzip", "eon"))
DUAL_DURATION_S = 4.0e-3
DUAL_SETTLE_S = 1.5e-3
DUAL_PASS_S = 0.9
"""Approximate host seconds of one dual-core pass; sets the pass count."""


def dual_groups(sensor_seed: int, initial: Dict[str, object]) -> List[list]:
    """The A9 grid, one group per pair: each pair under no management,
    Hyb per core, core hopping, and hopping plus Hyb."""
    from repro.multicore.batch import DualCoreRunSpec
    from repro.multicore.hopping import HoppingConfig

    managers = (
        (("none", "none"), None),
        (("Hyb", "Hyb"), None),
        (("none", "none"), HoppingConfig()),
        (("Hyb", "Hyb"), HoppingConfig()),
    )
    return [
        [
            DualCoreRunSpec(
                workloads=pair,
                policies=policies,
                duration_s=DUAL_DURATION_S,
                settle_time_s=DUAL_SETTLE_S,
                hopping=hopping,
                seed=sensor_seed,
                initial=initial["+".join(pair)],
            )
            for policies, hopping in managers
        ]
        for pair in DUAL_PAIRS
    ]


"""Steady-state and transient solvers for thermal RC networks.

The governing equation (temperatures in Celsius, ambient folded into the
source term) is::

    C dT/dt = P + g_amb * T_amb - L T

Steady state is one linear solve (against a factorisation cached on the
network).  Transients offer two steppers behind one interface:

* :class:`TransientSolver` -- backward Euler,
  ``(C/dt + L) T_{k+1} = (C/dt) T_k + P + g_amb * T_amb``,
  unconditionally stable, LU-factorised once per distinct dt.  Kept as
  the regression anchor.
* :class:`ExponentialSolver` -- the *exact* discrete propagator for the
  LTI network, ``T_{k+1} = A_d T_k + B_d u`` with
  ``A_d = expm(-C^{-1} L dt)`` and ``B_d = (I - A_d) L^{-1}``: one
  ~n x n matvec pair per step instead of a factorized solve, no
  time-discretisation error, plus closed-form multi-step fast-forward
  ``T_{k+K} = A_d^K T_k + (I - A_d^K) T_ss`` for constant-power spans.

Both steppers cache per-dt operators (dt rounded to femtosecond
granularity) behind a small LRU, because DVS changes the cycle time and
continuous-DVS sweeps can touch many distinct step lengths over a long
sweep.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import expm, lu_factor
from scipy.linalg.lapack import get_lapack_funcs

from repro.errors import NumericalError, ThermalModelError
from repro.thermal.rc_model import ThermalNetwork

_LOGGER = logging.getLogger("repro.thermal")

STEPPER_BACKWARD_EULER = "be"
STEPPER_EXPONENTIAL = "expm"

DIVERGENCE_LIMIT_C = 1.0e4
"""Any node magnitude beyond this (in Celsius) counts as divergence: no
physical trajectory of the package leaves [-100, 500] C, so 10^4 flags
blow-ups early while never tripping on a legitimate transient.  NaN and
Inf fail the same comparison, so one vector predicate covers all three
health hazards."""


def _healthy(values: np.ndarray) -> bool:
    """True when every entry is finite and within the divergence limit.

    Written as two ufunc-method reductions (no ``np.all`` wrapper, no
    ``np.abs`` temporary): a NaN anywhere poisons both reductions, so
    the comparisons come back False exactly as the predicate form did.
    """
    lo = values.min()
    hi = values.max()
    return bool(-DIVERGENCE_LIMIT_C < lo <= hi < DIVERGENCE_LIMIT_C)


def _bad_node_name(network: ThermalNetwork, values: np.ndarray) -> str:
    """Name of the first unhealthy node (a block name where possible)."""
    bad = np.where(~(np.abs(values) < DIVERGENCE_LIMIT_C))[0]
    index = int(bad[0]) if bad.size else 0
    for name, node in zip(network.block_names, network.block_node_indices):
        if int(node) == index:
            return name
    return f"node{index}"

FACTOR_CACHE_SIZE = 64
"""Per-dt operator cache bound (LU factors / propagators): multi-step or
continuous DVS creates one entry per distinct dt, so long sweeps need a
cap; 64 covers every realistic level ladder without thrash."""

POWER_CACHE_SIZE = 128
"""Cache bound for composed ``(dt, K)`` fast-forward propagators."""


class _LruCache:
    """A tiny least-recently-used mapping for per-dt solver operators."""

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ThermalModelError("cache size must be >= 1")
        self._maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self._maxsize:
            self._data.popitem(last=False)


def steady_state(network: ThermalNetwork, power: np.ndarray) -> np.ndarray:
    """Solve ``L T = P + g_amb * T_amb`` for the steady temperatures.

    Parameters
    ----------
    network:
        The assembled RC network.
    power:
        (n,) injected power vector (see
        :meth:`~repro.thermal.rc_model.ThermalNetwork.power_vector`).

    Returns
    -------
    numpy.ndarray
        (n,) temperatures in Celsius.
    """
    if power.shape != (network.size,):
        raise ThermalModelError(
            f"power vector has shape {power.shape}, expected ({network.size},)"
        )
    rhs = power + network.ambient_source
    try:
        return network.solve_steady(rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ThermalModelError(f"steady-state solve failed: {exc}") from exc


class TransientSolver:
    """Backward-Euler integrator over a thermal RC network.

    The solver owns the current temperature vector; callers advance it with
    :meth:`step` once per power sample.  Factorisations of ``C/dt + L`` are
    cached per dt (rounded to femtosecond granularity) since a DTM run uses
    only a handful of distinct frequencies.

    Every step is health-checked (finite and within
    :data:`DIVERGENCE_LIMIT_C`); backward Euler is the last-resort
    stepper, so an unhealthy result raises
    :class:`~repro.errors.NumericalError` directly.
    """

    #: Interface parity with :class:`ExponentialSolver`: backward Euler
    #: has no further fallback, so this never becomes true.
    fallback_active = False

    def __init__(self, network: ThermalNetwork, initial: np.ndarray):
        if initial.shape != (network.size,):
            raise ThermalModelError(
                f"initial temperatures have shape {initial.shape}, "
                f"expected ({network.size},)"
            )
        self._network = network
        self._temps = np.array(initial, dtype=float, copy=True)
        self._ambient_source = network.ambient_source
        self._factor_cache = _LruCache(FACTOR_CACHE_SIZE)
        self._rhs = np.empty(network.size)
        self._time_s = 0.0

    @property
    def network(self) -> ThermalNetwork:
        """The underlying RC network."""
        return self._network

    @property
    def temperatures(self) -> np.ndarray:
        """Current node temperatures in Celsius (copy)."""
        return self._temps.copy()

    @property
    def time_s(self) -> float:
        """Simulated time elapsed since construction, in seconds."""
        return self._time_s

    def _factorisation(self, dt: float):
        key = int(round(dt * 1e15))
        cached = self._factor_cache.get(key)
        if cached is None:
            c_over_dt = self._network.capacitance / dt
            matrix = np.diag(c_over_dt) + self._network.conductance
            lu, piv = lu_factor(matrix)
            # Bind the LAPACK triangular solve directly: it is what
            # lu_solve calls after several layers of validation, which
            # dominate the cost of solving a ~17-node system once per
            # thermal step.
            getrs, = get_lapack_funcs(("getrs",), (lu,))
            cached = (lu, piv, c_over_dt, getrs)
            self._factor_cache.put(key, cached)
        return cached

    def step(self, power: np.ndarray, dt: float, copy: bool = True) -> np.ndarray:
        """Advance the network by ``dt`` seconds with constant injected
        ``power`` over the step.

        Returns the new temperature vector -- a copy by default.  With
        ``copy=False`` the solver's own state array is returned; it is
        overwritten by the next :meth:`step`, so read what you need from
        it before advancing again (the engine's inner loop gathers the
        block temperatures immediately)."""
        if dt <= 0.0:
            raise ThermalModelError(f"time step must be > 0, got {dt}")
        if power.shape != (self._network.size,):
            raise ThermalModelError(
                f"power vector has shape {power.shape}, "
                f"expected ({self._network.size},)"
            )
        lu, piv, c_over_dt, getrs = self._factorisation(dt)
        # Assemble the right-hand side in a reused buffer and let LAPACK
        # solve in place on it; the buffer then *becomes* the state
        # vector (next step's multiply is elementwise, so reading the
        # old state out of the same array it writes is safe).
        rhs = self._rhs
        np.multiply(c_over_dt, self._temps, out=rhs)
        rhs += power
        rhs += self._ambient_source
        solution, info = getrs(lu, piv, rhs, overwrite_b=1)
        if info != 0:  # pragma: no cover - defensive
            raise ThermalModelError(f"transient solve failed (info={info})")
        if not _healthy(solution):
            raise NumericalError(
                _bad_node_name(self._network, solution),
                self._time_s,
                STEPPER_BACKWARD_EULER,
            )
        self._temps = solution
        self._rhs = solution
        self._time_s += dt
        return self._temps.copy() if copy else self._temps

    def reset(self, temperatures: np.ndarray) -> None:
        """Overwrite the state with ``temperatures`` and zero the clock."""
        if temperatures.shape != (self._network.size,):
            raise ThermalModelError(
                f"temperatures have shape {temperatures.shape}, "
                f"expected ({self._network.size},)"
            )
        self._temps = np.array(temperatures, dtype=float, copy=True)
        self._time_s = 0.0


class ExponentialSolver:
    """Exact exponential-propagator integrator over a thermal RC network.

    Because the network is LTI, the solution of
    ``C dT/dt = u - L T`` with ``u`` held constant over a step is exactly

        T_{k+1} = A_d T_k + B_d u,
        A_d = expm(-C^{-1} L dt),   B_d = (I - A_d) L^{-1},

    so a step costs two ~n x n matvecs instead of a factorized solve and
    carries *no* time-discretisation error (the only approximation left
    is the zero-order hold on the power, which backward Euler makes
    too).  A span of K steps with unchanged power jumps in closed form
    through :meth:`fast_forward`, using ``A_d^K`` composed from cached
    squarings.  :meth:`span_envelope` gives rigorous per-node bounds on
    the constant-power trajectory over a span; it is the reference
    form.  The engine's stride proves its jumps with :meth:`span_probe`
    instead: the same bounds on the block rows, evaluated in closed form
    from block powers (:class:`SpanProbe`).

    The interface matches :class:`TransientSolver` (``step`` /
    ``temperatures`` / ``time_s`` / ``reset``), so the two are
    interchangeable behind :func:`make_transient_solver`.
    """

    def __init__(self, network: ThermalNetwork, initial: np.ndarray):
        if initial.shape != (network.size,):
            raise ThermalModelError(
                f"initial temperatures have shape {initial.shape}, "
                f"expected ({network.size},)"
            )
        self._network = network
        self._temps = np.array(initial, dtype=float, copy=True)
        self._ambient_source = network.ambient_source
        self._linv = network.conductance_inverse
        self._prop_cache = _LruCache(FACTOR_CACHE_SIZE)
        self._power_cache = _LruCache(POWER_CACHE_SIZE)
        self._squarings = _LruCache(FACTOR_CACHE_SIZE)
        n = network.size
        self._u = np.empty(n)
        self._scratch = np.empty(n)
        self._out = np.empty(n)
        self._time_s = 0.0
        #: Set when a numerical-health trip forced a backward-Euler
        #: recovery; the engine then disables fast-forward for the rest
        #: of the run (the exponential operators are suspect).
        self.fallback_active = False

    @property
    def network(self) -> ThermalNetwork:
        """The underlying RC network."""
        return self._network

    @property
    def temperatures(self) -> np.ndarray:
        """Current node temperatures in Celsius (copy)."""
        return self._temps.copy()

    @property
    def time_s(self) -> float:
        """Simulated time elapsed since construction, in seconds."""
        return self._time_s

    # --- operators ---------------------------------------------------------------

    @staticmethod
    def _dt_key(dt: float) -> int:
        return int(round(dt * 1e15))

    def _propagator(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(A_d, B_d)`` for one step of ``dt`` seconds, cached per dt."""
        key = self._dt_key(dt)
        cached = self._prop_cache.get(key)
        if cached is None:
            a_d = expm(self._network.generator * dt)
            b_d = (np.eye(self._network.size) - a_d) @ self._linv
            cached = (np.ascontiguousarray(a_d), np.ascontiguousarray(b_d))
            self._prop_cache.put(key, cached)
        return cached

    def _propagator_power(self, dt: float, steps: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(A_d^K, (I - A_d^K) L^{-1})`` composed from cached squarings.

        Run-length spans repeat the same K (steps to the next sensor
        sample), so the composed pair is cached per ``(dt, K)``; the
        binary-exponentiation squarings are cached per dt.
        """
        key = (self._dt_key(dt), steps)
        cached = self._power_cache.get(key)
        if cached is None:
            squarings = self._squarings.get(key[0])
            if squarings is None:
                squarings = [self._propagator(dt)[0]]
                self._squarings.put(key[0], squarings)
            result: Optional[np.ndarray] = None
            bit = 0
            remaining = steps
            while remaining:
                while bit >= len(squarings):
                    squarings.append(squarings[-1] @ squarings[-1])
                if remaining & 1:
                    power = squarings[bit]
                    result = power if result is None else power @ result
                remaining >>= 1
                bit += 1
            b_k = (np.eye(self._network.size) - result) @ self._linv
            cached = (np.ascontiguousarray(result), np.ascontiguousarray(b_k))
            self._power_cache.put(key, cached)
        return cached

    # --- stepping ----------------------------------------------------------------

    def _check_step(self, power: np.ndarray, dt: float) -> None:
        if dt <= 0.0:
            raise ThermalModelError(f"time step must be > 0, got {dt}")
        if power.shape != (self._network.size,):
            raise ThermalModelError(
                f"power vector has shape {power.shape}, "
                f"expected ({self._network.size},)"
            )

    def _apply(self, a_d: np.ndarray, b_d: np.ndarray, power: np.ndarray) -> None:
        u = self._u
        np.add(power, self._ambient_source, out=u)
        np.dot(a_d, self._temps, out=self._out)
        np.dot(b_d, u, out=self._scratch)
        self._out += self._scratch
        self._temps, self._out = self._out, self._temps

    def step(self, power: np.ndarray, dt: float, copy: bool = True) -> np.ndarray:
        """Advance the network by ``dt`` seconds with constant injected
        ``power`` over the step.

        Returns the new temperature vector -- a copy by default; with
        ``copy=False`` the solver's own state array is returned (it is
        overwritten two steps later, so read what you need before
        advancing).

        An unhealthy result (NaN/Inf or past
        :data:`DIVERGENCE_LIMIT_C`) triggers a backward-Euler recovery
        from the pre-step state (:attr:`fallback_active` is then set);
        :class:`~repro.errors.NumericalError` is raised only when the
        fallback fails too."""
        self._check_step(power, dt)
        a_d, b_d = self._propagator(dt)
        self._apply(a_d, b_d, power)
        if not _healthy(self._temps):
            self._recover(power, dt, 1)
        self._time_s += dt
        return self._temps.copy() if copy else self._temps

    def fast_forward(
        self, power: np.ndarray, dt: float, steps: int, copy: bool = True
    ) -> np.ndarray:
        """Jump ``steps`` consecutive ``dt`` steps of constant ``power``
        in closed form: exactly equivalent to calling :meth:`step`
        ``steps`` times with the same arguments (up to last-ulp matrix
        association order).  Health-guarded like :meth:`step` (recovery
        re-integrates the span with backward Euler)."""
        self._check_step(power, dt)
        if steps < 1:
            raise ThermalModelError(f"fast-forward needs >= 1 step, got {steps}")
        a_k, b_k = self._propagator_power(dt, steps)
        self._apply(a_k, b_k, power)
        if not _healthy(self._temps):
            self._recover(power, dt, steps)
        self._time_s += steps * dt
        return self._temps.copy() if copy else self._temps

    def _recover(self, power: np.ndarray, dt: float, steps: int) -> None:
        """Re-integrate the failed span with backward Euler.

        After :meth:`_apply`'s buffer swap, ``self._out`` still holds
        the pre-step state; recovery restarts from it.  Raises
        :class:`~repro.errors.NumericalError` when the pre-step state or
        the power vector is already corrupt, or when backward Euler
        also produces an unhealthy result -- i.e. only when *both*
        steppers have failed."""
        previous = self._out
        if not _healthy(previous):
            raise NumericalError(
                _bad_node_name(self._network, previous),
                self._time_s,
                STEPPER_EXPONENTIAL,
                detail="pre-step state already corrupt",
            )
        if not np.all(np.isfinite(power)):
            raise NumericalError(
                _bad_node_name(self._network, power),
                self._time_s,
                f"{STEPPER_EXPONENTIAL}->{STEPPER_BACKWARD_EULER}",
                detail="power vector is non-finite",
            )
        fallback = TransientSolver(self._network, previous)
        try:
            for _ in range(steps):
                recovered = fallback.step(power, dt, copy=False)
        except NumericalError as exc:
            raise NumericalError(
                exc.block,
                self._time_s + exc.time_s,
                f"{STEPPER_EXPONENTIAL}->{STEPPER_BACKWARD_EULER}",
            ) from exc
        self._temps[:] = recovered
        first = not self.fallback_active
        self.fallback_active = True
        if first:
            # Cold path by construction (a numerical-health trip): worth
            # a counter, a structured event and a logged warning.
            from repro.obs import events as obs_events
            from repro.obs import metrics as obs_metrics

            obs_metrics.inc("thermal.fallback_activations")
            obs_events.emit(
                "thermal.fallback",
                time_s=self._time_s,
                dt=dt,
                steps=steps,
            )
            _LOGGER.warning(
                "exponential stepper tripped a numerical-health guard at "
                "t=%.6gs; recovered with backward Euler (dt=%.3g, "
                "steps=%d) and disabled expm for the rest of the run",
                self._time_s,
                dt,
                steps,
            )

    def span_envelope(
        self, power: np.ndarray, span_s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rigorous per-node bounds on the constant-power trajectory
        over the next ``span_s`` seconds.

        Returns ``(lower, upper)`` such that the trajectory from the
        current state under constant ``power`` satisfies
        ``lower <= T(t) <= upper`` elementwise for *all*
        ``t in [0, span_s]``.  Derivation: with ``y = C^{1/2}(T - T_ss)``
        the dynamics decouple into modes of the symmetric positive
        definite ``Ã = C^{-1/2} L C^{-1/2}``, so each node's deviation is
        a sum of exponentially decaying modal terms
        ``w_ij * exp(-rate_j * t)``; every term is monotone in ``t`` and
        takes its extremes at the span's endpoints.  Limiting the horizon
        to the span matters: slow package modes (the heat sink's seconds-
        scale time constant) then contribute only their current, nearly
        frozen offset instead of their distant asymptote.
        """
        if power.shape != (self._network.size,):
            raise ThermalModelError(
                f"power vector has shape {power.shape}, "
                f"expected ({self._network.size},)"
            )
        if span_s <= 0.0:
            raise ThermalModelError(f"span must be > 0, got {span_s}")
        rates, vectors, c_sqrt, inv_c_sqrt = self._network.mode_basis
        u = power + self._ambient_source
        t_ss = self._linv @ u
        coeffs = vectors.T @ (c_sqrt * (self._temps - t_ss))
        weights = (vectors * coeffs[None, :]) * inv_c_sqrt[:, None]
        decayed = weights * np.exp(-rates * span_s)[None, :]
        lower = t_ss + np.minimum(weights, decayed).sum(axis=1)
        upper = t_ss + np.maximum(weights, decayed).sum(axis=1)
        return lower, upper

    def span_probe(self) -> "SpanProbe":
        """A closed-form :meth:`span_envelope` over the block rows,
        taking block powers only (the package nodes inject none).  See
        :class:`SpanProbe`."""
        return SpanProbe(self)

    def reset(self, temperatures: np.ndarray) -> None:
        """Overwrite the state with ``temperatures`` and zero the clock."""
        if temperatures.shape != (self._network.size,):
            raise ThermalModelError(
                f"temperatures have shape {temperatures.shape}, "
                f"expected ({self._network.size},)"
            )
        self._temps = np.array(temperatures, dtype=float, copy=True)
        self._time_s = 0.0
        self.fallback_active = False


class SpanProbe:
    """Closed-form span envelope over the block rows, in stacked form.

    The engine's event-driven stride asks, once per sensor period, for
    bounds on the *block* temperatures over the coming span, under a
    constant power injected at those blocks.  This probe answers it in
    a handful of in-place numpy calls on buffers it owns.

    Per modal term ``w`` with span decay ``d`` in ``(0, 1]``,
    ``max(w, w d) = w h+ + |w| h-`` and ``min(w, w d) = w h+ - |w| h-``
    with ``h± = (1 ± d) / 2``.  With the modal coordinate
    ``c = H (T - T_ss)``, ``H = V^T C^{1/2}``, and the row-restricted,
    un-whitened basis ``R = V[rows] C^{-1/2}[rows]``, the envelope of
    :meth:`ExponentialSolver.span_envelope` on the rows is therefore

        upper/lower = T_ss[rows] + R (c ∘ h+) ± |R| (|c| ∘ h-).

    Only the pair ``[h+, h-]`` depends on the span length
    (:meth:`~repro.thermal.rc_model.ThermalNetwork.span_halves`, cached
    per network).  Everything else is one of three constant operators,
    built once per network
    (:attr:`~repro.thermal.rc_model.ThermalNetwork.span_operators`) and
    shared by every probe on it:

    * ``[p | 1 | T] -> c``: ``c = H T - H L^{-1} u`` with the power
      ``u`` split into the row powers ``p`` and the ambient source.
      Every node outside ``rows`` is taken to inject zero power -- true
      of the package nodes (spreader, sink), which dissipate nothing
      (:meth:`~repro.thermal.rc_model.ThermalNetwork.power_vector`).
    * ``[c ∘ h+ | |c| ∘ h- | p | 1] -> upper`` and ``-> lower``: the
      modal sums plus ``T_ss[rows] = L^{-1}[rows, rows] p +
      (L^{-1} u_amb)[rows]``.

    A probe only allocates its work buffers.  Inputs are row powers:
    ``(m,)`` for :meth:`bounds`, ``(2, m)`` for :meth:`widened`.  Both
    return the probe's own ``(2, m)`` buffer holding ``[upper; lower]``,
    overwritten by the next call.  The bounds equal ``span_envelope`` on
    the rows up to the reassociation of the sums (about 1e-13 C on the
    default network; ``tests/thermal/test_span_probe.py``).
    """

    def __init__(self, solver: "ExponentialSolver"):
        self._solver = solver
        network = solver._network
        self._halves = network.span_halves
        ops = network.span_operators
        self._coeff_op = ops.coeff_op
        self._upper_op = ops.upper_op
        self._lower_op = ops.lower_op
        n = network.size
        m = network.block_node_indices.size
        # One work row per envelope side, laid out
        # ``[c ∘ h+ | |c| ∘ h- | p | 1 | T]`` so both products read
        # contiguous slices of it.
        work = np.empty((2, 2 * n + m + 1 + n))
        work[:, 2 * n + m] = 1.0
        self._powers_in = work[:, 2 * n:2 * n + m]
        self._temps_in = work[:, 2 * n + m + 1:]
        self._coeff_in = work[:, 2 * n:]
        self._signed = work[:, :n]
        self._magnitude = work[:, n:2 * n]
        self._modal = work[:, :2 * n]
        self._upper_in = work[0, :2 * n + m + 1]
        self._lower_in = work[1, :2 * n + m + 1]
        self._coeffs = np.empty((2, n))
        self._out = np.empty((2, m))
        self._upper = self._out[0]
        self._lower = self._out[1]

    def bounds(self, powers: np.ndarray, span_s: float) -> np.ndarray:
        """``[upper; lower]`` on the rows for the trajectory under the
        constant row powers ``powers`` over ``[0, span_s]``: the
        row-restricted :meth:`ExponentialSolver.span_envelope`.  Returns
        the probe's buffer, overwritten by the next call."""
        return self.widened(powers, span_s)

    def widened(self, power_pair: np.ndarray, span_s: float) -> np.ndarray:
        """``[upper; lower]`` where ``upper`` bounds the trajectory under
        the constant row powers ``power_pair[0]`` from above and
        ``lower`` bounds the one under ``power_pair[1]`` from below, over
        ``[0, span_s]``.  An ``(m,)`` ``power_pair`` is broadcast to both
        rows (that is :meth:`bounds`).  Returns the probe's buffer,
        overwritten by the next call."""
        np.copyto(self._powers_in, power_pair)
        np.copyto(self._temps_in, self._solver._temps)
        coeffs = self._coeffs
        np.dot(self._coeff_in, self._coeff_op, out=coeffs)
        np.abs(coeffs, out=self._magnitude)
        np.copyto(self._signed, coeffs)
        self._modal *= self._halves(span_s)
        np.dot(self._upper_in, self._upper_op, out=self._upper)
        np.dot(self._lower_in, self._lower_op, out=self._lower)
        return self._out


def step_lockstep(solvers, powers, dt: float):
    """Advance many same-network solvers by one ``dt`` step at once.

    All solvers must be the same stepper class over the *same*
    :class:`~repro.thermal.rc_model.ThermalNetwork` object (the lockstep
    batch runner builds its engines on one shared substrate).  The R
    state vectors are stacked into an ``(R, n)`` matrix and advanced
    with one BLAS-3 operation -- a matrix-matrix product pair for the
    exponential stepper, a multi-right-hand-side triangular solve for
    backward Euler -- instead of R separate matvec/solve dispatches.
    Numerically this touches each run with exactly the operators
    :meth:`ExponentialSolver.step` / :meth:`TransientSolver.step` would
    use, so per-run trajectories match the serial path to BLAS summation
    order.

    Returns the list of the solvers' own state arrays (no copies), in
    input order.
    """
    first = solvers[0]
    if dt <= 0.0:
        raise ThermalModelError(f"time step must be > 0, got {dt}")
    network = first._network
    for solver in solvers:
        if type(solver) is not type(first) or solver._network is not network:
            raise ThermalModelError(
                "lockstep stepping needs solvers of one class over one "
                "shared network"
            )
    count = len(solvers)
    size = network.size
    if isinstance(first, ExponentialSolver):
        a_d, b_d = first._propagator(dt)
        t_rows = np.empty((count, size))
        u_rows = np.empty((count, size))
        for i, (solver, power) in enumerate(zip(solvers, powers)):
            t_rows[i] = solver._temps
            np.add(power, solver._ambient_source, out=u_rows[i])
        out = t_rows @ a_d.T
        out += u_rows @ b_d.T
        if _healthy(out):
            for i, solver in enumerate(solvers):
                solver._temps[:] = out[i]
                solver._time_s += dt
        else:
            # One or more runs went unhealthy: adopt the healthy rows,
            # and push each unhealthy run through its own solver's
            # guarded step (backward-Euler recovery, or NumericalError
            # when that fails too).  The solvers' states are untouched
            # so far, so the individual re-step sees the pre-step state.
            row_ok = np.all(np.abs(out) < DIVERGENCE_LIMIT_C, axis=1)
            for i, solver in enumerate(solvers):
                if row_ok[i]:
                    solver._temps[:] = out[i]
                    solver._time_s += dt
                else:
                    solver.step(powers[i], dt, copy=False)
    else:
        lu, piv, c_over_dt, getrs = first._factorisation(dt)
        rhs = np.empty((size, count), order="F")
        for i, (solver, power) in enumerate(zip(solvers, powers)):
            column = rhs[:, i]
            np.multiply(c_over_dt, solver._temps, out=column)
            column += power
            column += solver._ambient_source
        solution, info = getrs(lu, piv, rhs, overwrite_b=1)
        if info != 0:  # pragma: no cover - defensive
            raise ThermalModelError(f"lockstep solve failed (info={info})")
        for i, solver in enumerate(solvers):
            column = solution[:, i]
            if not _healthy(column):
                # Backward Euler is the last resort: no recovery path.
                raise NumericalError(
                    _bad_node_name(network, column),
                    solver._time_s,
                    STEPPER_BACKWARD_EULER,
                )
            solver._temps[:] = column
            solver._time_s += dt
    return [solver._temps for solver in solvers]


def make_transient_solver(
    network: ThermalNetwork, initial: np.ndarray, stepper: str = STEPPER_EXPONENTIAL
):
    """Build a transient stepper by name.

    ``"expm"`` (default) -- the exact :class:`ExponentialSolver`;
    ``"be"`` -- the backward-Euler :class:`TransientSolver`, kept as the
    time-discretised regression anchor.
    """
    if stepper == STEPPER_EXPONENTIAL:
        return ExponentialSolver(network, initial)
    if stepper == STEPPER_BACKWARD_EULER:
        return TransientSolver(network, initial)
    raise ThermalModelError(
        f"thermal stepper must be {STEPPER_BACKWARD_EULER!r} or "
        f"{STEPPER_EXPONENTIAL!r}, got {stepper!r}"
    )

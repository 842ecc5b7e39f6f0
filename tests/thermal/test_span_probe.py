"""SpanProbe: the stride's closed-form envelope against its references.

:class:`~repro.thermal.solver.SpanProbe` evaluates the span envelope as
``T_ss + R (c ∘ h+) ± |R| (|c| ∘ h-)`` on the block rows, from block
powers alone.  These properties tie it to the two references it stands
in for, on random node states, block powers and span lengths from
100 ns to 10 ms:

* ``bounds`` and both rows of ``widened`` equal
  :meth:`~repro.thermal.solver.ExponentialSolver.span_envelope`
  restricted to the block rows (up to summation order);
* the envelope contains every dense
  :meth:`~repro.thermal.solver.ExponentialSolver.step` of the span;
* the operators and the per-span cache live on the network, read-only
  and shared by every probe, and the cache never grows past
  ``SPAN_CACHE_SIZE``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan import build_alpha21364_floorplan
from repro.thermal import ExponentialSolver, ThermalPackage, build_thermal_network
from repro.thermal.rc_model import SPAN_CACHE_SIZE

TOL_C = 1e-9

NETWORK = build_thermal_network(build_alpha21364_floorplan(), ThermalPackage())
ROWS = np.asarray(NETWORK.block_node_indices, dtype=np.intp)
N = NETWORK.size
M = ROWS.size

offsets = st.lists(
    st.floats(-20.0, 80.0), min_size=N, max_size=N
).map(np.array)
block_powers = st.lists(
    st.floats(0.0, 10.0), min_size=M, max_size=M
).map(np.array)
spans = st.floats(-7.0, -2.0).map(lambda exponent: 10.0 ** exponent)


def _solver(offset):
    return ExponentialSolver(NETWORK, NETWORK.ambient_c + offset)


def _full(powers):
    vector = np.zeros(N)
    vector[ROWS] = powers
    return vector


def _envelope(solver, powers, span_s):
    lower, upper = solver.span_envelope(_full(powers), span_s)
    return upper[ROWS], lower[ROWS]


@settings(max_examples=60, deadline=None)
@given(offset=offsets, powers=block_powers, span_s=spans)
def test_bounds_match_span_envelope(offset, powers, span_s):
    solver = _solver(offset)
    probe = solver.span_probe()
    got = probe.bounds(powers, span_s)
    assert got.shape == (2, M)
    upper, lower = _envelope(solver, powers, span_s)
    np.testing.assert_allclose(got[0], upper, rtol=0.0, atol=TOL_C)
    np.testing.assert_allclose(got[1], lower, rtol=0.0, atol=TOL_C)


@settings(max_examples=60, deadline=None)
@given(
    offset=offsets, inflated=block_powers, deflated=block_powers, span_s=spans
)
def test_widened_rows_match_span_envelope(offset, inflated, deflated, span_s):
    solver = _solver(offset)
    probe = solver.span_probe()
    got = probe.widened(np.stack([inflated, deflated]), span_s)
    upper, _ = _envelope(solver, inflated, span_s)
    _, lower = _envelope(solver, deflated, span_s)
    np.testing.assert_allclose(got[0], upper, rtol=0.0, atol=TOL_C)
    np.testing.assert_allclose(got[1], lower, rtol=0.0, atol=TOL_C)


@settings(max_examples=30, deadline=None)
@given(
    offset=offsets,
    powers=block_powers,
    span_s=spans,
    steps=st.integers(1, 40),
)
def test_envelope_contains_dense_steps(offset, powers, span_s, steps):
    solver = _solver(offset)
    upper, lower = solver.span_probe().bounds(powers, span_s).copy()
    full = _full(powers)
    dt = span_s / steps
    for _ in range(steps):
        blocks = solver.step(full, dt, copy=False)[ROWS]
        assert np.all(blocks <= upper + TOL_C)
        assert np.all(blocks >= lower - TOL_C)


def test_probe_tracks_solver_state():
    solver = _solver(np.full(N, 30.0))
    probe = solver.span_probe()
    powers = np.full(M, 2.0)
    before = probe.bounds(powers, 1e-4).copy()
    solver.step(_full(powers), 1e-3)
    after = probe.bounds(powers, 1e-4)
    upper, lower = _envelope(solver, powers, 1e-4)
    assert not np.array_equal(before, after)
    np.testing.assert_allclose(after[0], upper, rtol=0.0, atol=TOL_C)
    np.testing.assert_allclose(after[1], lower, rtol=0.0, atol=TOL_C)


def test_span_cache_is_bounded():
    network = build_thermal_network(
        build_alpha21364_floorplan(), ThermalPackage()
    )
    probe = ExponentialSolver(network, np.full(N, 75.0)).span_probe()
    powers = np.full(M, 2.0)
    for i in range(SPAN_CACHE_SIZE + 20):
        probe.bounds(powers, (i + 1) * 1e-6)
        assert 0 < len(network._span_halves) <= SPAN_CACHE_SIZE
    # A repeated span reuses its cached entry.
    span_s = 1e-6 * SPAN_CACHE_SIZE
    assert network.span_halves(span_s) is network.span_halves(span_s)


def test_span_cache_is_keyed_by_the_exact_span():
    span_s = 1.0e-4
    nearby = span_s * (1.0 + 2e-16)  # rounds to the same femtosecond
    assert nearby != span_s
    rates = NETWORK.mode_basis.rates
    for span in (span_s, nearby, span_s):
        decay = np.exp(-rates * span)
        np.testing.assert_array_equal(
            NETWORK.span_halves(span),
            np.concatenate([(1.0 + decay) * 0.5, (1.0 - decay) * 0.5]),
        )


def test_operators_are_shared_and_read_only():
    first = _solver(np.full(N, 30.0)).span_probe()
    second = _solver(np.full(N, 60.0)).span_probe()
    assert first._coeff_op is second._coeff_op
    assert first._upper_op is second._upper_op
    ops = NETWORK.span_operators
    basis = NETWORK.mode_basis
    for array in (*ops, *basis, NETWORK.span_halves(1e-4),
                  NETWORK.conductance_inverse, NETWORK.ambient_source,
                  NETWORK.generator):
        assert not array.flags.writeable

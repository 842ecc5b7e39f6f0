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
* the per-span cache never grows past ``FACTOR_CACHE_SIZE``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan import build_alpha21364_floorplan
from repro.thermal import ExponentialSolver, ThermalPackage, build_thermal_network
from repro.thermal.solver import FACTOR_CACHE_SIZE

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
    probe = solver.span_probe(ROWS)
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
    probe = solver.span_probe(ROWS)
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
    upper, lower = solver.span_probe(ROWS).bounds(powers, span_s).copy()
    full = _full(powers)
    dt = span_s / steps
    for _ in range(steps):
        blocks = solver.step(full, dt, copy=False)[ROWS]
        assert np.all(blocks <= upper + TOL_C)
        assert np.all(blocks >= lower - TOL_C)


def test_probe_tracks_solver_state():
    solver = _solver(np.full(N, 30.0))
    probe = solver.span_probe(ROWS)
    powers = np.full(M, 2.0)
    before = probe.bounds(powers, 1e-4).copy()
    solver.step(_full(powers), 1e-3)
    after = probe.bounds(powers, 1e-4)
    upper, lower = _envelope(solver, powers, 1e-4)
    assert not np.array_equal(before, after)
    np.testing.assert_allclose(after[0], upper, rtol=0.0, atol=TOL_C)
    np.testing.assert_allclose(after[1], lower, rtol=0.0, atol=TOL_C)


def test_span_cache_is_bounded():
    solver = _solver(np.full(N, 30.0))
    probe = solver.span_probe(ROWS)
    powers = np.full(M, 2.0)
    for i in range(FACTOR_CACHE_SIZE + 20):
        probe.bounds(powers, (i + 1) * 1e-6)
        assert len(probe._halves_cache) <= FACTOR_CACHE_SIZE
    assert len(probe._halves_cache) == FACTOR_CACHE_SIZE
    # A repeated span reuses its cached entry.
    assert probe._halves(1e-6 * FACTOR_CACHE_SIZE) is probe._halves(
        1e-6 * FACTOR_CACHE_SIZE
    )

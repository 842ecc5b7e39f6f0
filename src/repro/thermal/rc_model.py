"""Construction of the thermal RC network from a floorplan and package.

The network has one node per floorplan block plus two package nodes
(spreader, sink).  It is represented by:

* ``conductance`` -- the symmetric Laplacian-plus-ground matrix L such that
  the heat equation reads ``C dT/dt = P + g_amb * T_amb - L T`` with T in
  degrees Celsius and P the injected power vector;
* ``capacitance`` -- the diagonal of the capacitance matrix (J/K);
* ``ambient_conductance`` -- per-node conductance to the fixed ambient
  (non-zero only at the sink node).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple

import numpy as np

from repro.errors import ThermalModelError
from repro.floorplan.floorplan import Floorplan
from repro.thermal.package import ThermalPackage

SPREADER_NODE = "__spreader__"
SINK_NODE = "__sink__"

SPREADER_PERIPHERY_NODES = (
    "__spreader_n__",
    "__spreader_s__",
    "__spreader_e__",
    "__spreader_w__",
)
SINK_PERIPHERY_NODES = (
    "__sink_n__",
    "__sink_s__",
    "__sink_e__",
    "__sink_w__",
)

SPAN_CACHE_SIZE = 64
"""Bound on a network's span -> ``[h+, h-]`` cache
(:meth:`ThermalNetwork.span_halves`).  A seed-0 paper pass proves its
strides over about 50 distinct span lengths."""


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class ModeBasis(NamedTuple):
    """Eigendecomposition of the whitened operator
    ``Ã = C^{-1/2} L C^{-1/2}`` (symmetric positive definite)."""

    rates: np.ndarray
    """``(n,)`` modal decay rates (eigenvalues of ``Ã``), 1/s."""
    vectors: np.ndarray
    """``(n, n)`` orthonormal eigenvectors of ``Ã``, one per column."""
    c_sqrt: np.ndarray
    """``(n,)`` ``C^{1/2}``."""
    inv_c_sqrt: np.ndarray
    """``(n,)`` ``C^{-1/2}``."""


class SpanOperators(NamedTuple):
    """The constant operators of :class:`~repro.thermal.solver.SpanProbe`
    over the block rows (the derivation is in its docstring)."""

    coeff_op: np.ndarray
    """``(m + 1 + n, n)``: ``[p | 1 | T] -> c``."""
    upper_op: np.ndarray
    """``(2n + m + 1, m)``: ``[c ∘ h+ | |c| ∘ h- | p | 1] -> upper``."""
    lower_op: np.ndarray
    """``(2n + m + 1, m)``: ``[c ∘ h+ | |c| ∘ h- | p | 1] -> lower``."""


@dataclass(frozen=True)
class ThermalNetwork:
    """A fully assembled thermal RC network.

    Attributes
    ----------
    node_names:
        All node names: floorplan blocks in floorplan order, then the
        spreader and sink nodes.
    conductance:
        (n, n) symmetric matrix L described in the module docstring.
    capacitance:
        (n,) vector of node capacitances in J/K.
    ambient_conductance:
        (n,) vector of conductances to ambient in W/K.
    ambient_c:
        Ambient temperature in degrees Celsius.
    """

    node_names: tuple
    conductance: np.ndarray
    capacitance: np.ndarray
    ambient_conductance: np.ndarray
    ambient_c: float

    @property
    def size(self) -> int:
        """Number of nodes in the network."""
        return len(self.node_names)

    @cached_property
    def block_names(self) -> tuple:
        """Names of the die-block nodes (package nodes carry a ``__``
        prefix and are excluded)."""
        return tuple(
            name for name in self.node_names if not name.startswith("__")
        )

    @cached_property
    def _node_index(self) -> Dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}

    @cached_property
    def block_node_indices(self) -> np.ndarray:
        """Node indices of the die blocks, in :attr:`block_names` order.

        Cached so hot paths can scatter per-block power into the full
        node-power vector (and gather block temperatures out of the node
        vector) with one fancy-index operation per step.
        """
        index = self._node_index
        return np.array(
            [index[name] for name in self.block_names], dtype=np.intp
        )

    @cached_property
    def _conductance_factor(self) -> tuple:
        """LU factorisation of the conductance matrix, computed once.

        Steady-state solves happen once per transient step in the
        exponential stepper's fast-forward path and ~40 times per
        workload in the leakage/temperature warmup fixed point, always
        against the same matrix; factorising once turns each solve into
        a pair of triangular substitutions.
        """
        from scipy.linalg import lu_factor

        return lu_factor(self.conductance)

    @cached_property
    def conductance_inverse(self) -> np.ndarray:
        """Dense inverse of the conductance matrix.

        The network is small (~17 nodes) and well conditioned (Laplacian
        plus ambient ground), so the explicit inverse is accurate and
        lets the exponential stepper turn the steady-state solve of its
        update into a single matvec.
        """
        from scipy.linalg import lu_solve

        return _frozen(lu_solve(self._conductance_factor, np.eye(self.size)))

    @cached_property
    def ambient_source(self) -> np.ndarray:
        """``g_amb * T_amb``: the ambient's constant source term (W)."""
        return _frozen(self.ambient_conductance * self.ambient_c)

    @cached_property
    def generator(self) -> np.ndarray:
        """``-C^{-1} L``: the generator of the continuous dynamics."""
        return _frozen(-self.conductance / self.capacitance[:, None])

    @cached_property
    def mode_basis(self) -> ModeBasis:
        """Modal decomposition of the whitened operator, computed once
        per network and shared (read-only) by every solver on it."""
        c_sqrt = np.sqrt(self.capacitance)
        inv_c_sqrt = 1.0 / c_sqrt
        whitened = self.conductance * np.outer(inv_c_sqrt, inv_c_sqrt)
        rates, vectors = np.linalg.eigh(0.5 * (whitened + whitened.T))
        return ModeBasis(
            _frozen(rates), _frozen(vectors), _frozen(c_sqrt), _frozen(inv_c_sqrt)
        )

    @cached_property
    def span_operators(self) -> SpanOperators:
        """The block-row operators of the stride's span envelope
        (:class:`~repro.thermal.solver.SpanProbe`), built once per
        network.  Every node outside the block rows is taken to inject
        zero power -- true of the package nodes, which dissipate
        nothing (:meth:`power_vector`)."""
        rows = self.block_node_indices
        n = self.size
        m = rows.size
        _, vectors, c_sqrt, inv_c_sqrt = self.mode_basis
        modal = vectors.T * c_sqrt
        # Steady-state response to each row's unit power (one column per
        # row) and to the ambient source (last column): ``[L^{-1}[:,
        # rows] | L^{-1} u_amb]``.
        sources = np.zeros((n, m + 1))
        sources[rows, np.arange(m)] = 1.0
        sources[:, m] = self.ambient_source
        response = self.conductance_inverse @ sources
        coeff_op = np.empty((m + 1 + n, n))
        np.negative((modal @ response).T, out=coeff_op[:m + 1])
        coeff_op[m + 1:] = modal.T
        basis_t = (vectors[rows] * inv_c_sqrt[rows, None]).T
        ops = np.empty((2, 2 * n + m + 1, m))
        ops[:, :n] = basis_t
        np.abs(basis_t, out=ops[0, n:2 * n])
        np.negative(ops[0, n:2 * n], out=ops[1, n:2 * n])
        ops[:, 2 * n:] = response[rows].T
        return SpanOperators(
            _frozen(coeff_op), _frozen(ops[0]), _frozen(ops[1])
        )

    @cached_property
    def _span_halves(self) -> Dict[float, np.ndarray]:
        return {}

    def span_halves(self, span_s: float) -> np.ndarray:
        """``[h+, h-] = [(1 + d) / 2, (1 - d) / 2]`` with the modal span
        decays ``d = exp(-rates * span_s)``, cached per network.

        Keyed by the exact span, so that a cached entry is always the
        value the span itself would compute and no run can see another
        run's rounding.  The cache is a plain dict emptied when it holds
        :data:`SPAN_CACHE_SIZE` entries: each operation is atomic, so
        threads may share it.
        """
        cache = self._span_halves
        halves = cache.get(span_s)
        if halves is None:
            decay = np.exp(-self.mode_basis.rates * span_s)
            halves = _frozen(
                np.concatenate([(1.0 + decay) * 0.5, (1.0 - decay) * 0.5])
            )
            if len(cache) >= SPAN_CACHE_SIZE:
                cache.clear()
            cache[span_s] = halves
        return halves

    def solve_steady(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``L x = rhs`` against the cached factorisation."""
        from scipy.linalg import lu_solve

        solution = lu_solve(self._conductance_factor, rhs)
        if not np.all(np.isfinite(solution)):  # pragma: no cover - defensive
            raise ThermalModelError("steady-state solve produced non-finite values")
        return solution

    def index_of(self, name: str) -> int:
        """Row/column index of a node."""
        try:
            return self._node_index[name]
        except KeyError:
            raise ThermalModelError(f"no thermal node named {name!r}") from None

    def power_vector(self, block_powers: Mapping[str, float]) -> np.ndarray:
        """Assemble the (n,) injected-power vector from a per-block mapping.

        Every floorplan block must be present; package nodes dissipate no
        power.  Negative powers are rejected.
        """
        vector = np.zeros(self.size)
        blocks = set(self.block_names)
        for name, watts in block_powers.items():
            if name not in blocks:
                raise ThermalModelError(f"power given for unknown block {name!r}")
            if watts < 0.0:
                raise ThermalModelError(f"negative power for block {name!r}")
            vector[self.index_of(name)] = watts
        missing = blocks - set(block_powers)
        if missing:
            raise ThermalModelError(f"power missing for blocks: {sorted(missing)}")
        return vector

    def temperatures_as_mapping(self, temps: np.ndarray) -> Dict[str, float]:
        """Convert a temperature vector back to ``{node: celsius}``."""
        if temps.shape != (self.size,):
            raise ThermalModelError(
                f"temperature vector has shape {temps.shape}, expected ({self.size},)"
            )
        return {name: float(temps[i]) for i, name in enumerate(self.node_names)}


def build_thermal_network(
    floorplan: Floorplan, package: ThermalPackage
) -> ThermalNetwork:
    """Derive the RC network for ``floorplan`` under ``package``.

    Mirrors HotSpot's block-level model: per-block vertical paths to a lumped
    spreader, lateral silicon coupling between abutting blocks, spreader to
    sink conduction, and sink-to-ambient convection.
    """
    blocks = floorplan.blocks
    names: List[str] = [block.name for block in blocks] + [SPREADER_NODE, SINK_NODE]
    n = len(names)
    spreader = n - 2
    sink = n - 1

    conductance = np.zeros((n, n))
    capacitance = np.zeros(n)
    ambient = np.zeros(n)

    def couple(i: int, j: int, resistance: float) -> None:
        if resistance <= 0.0:
            raise ThermalModelError("coupling resistance must be > 0")
        g = 1.0 / resistance
        conductance[i, i] += g
        conductance[j, j] += g
        conductance[i, j] -= g
        conductance[j, i] -= g

    # Vertical paths: block -> spreader.
    for i, block in enumerate(blocks):
        couple(i, spreader, package.block_vertical_resistance(block.area))
        capacitance[i] = package.block_capacitance(block.area)

    # Lateral silicon coupling between abutting blocks.
    for pair in floorplan.adjacencies:
        i = floorplan.index_of(pair.block_a)
        j = floorplan.index_of(pair.block_b)
        couple(
            i,
            j,
            package.lateral_resistance(pair.center_distance, pair.shared_edge_length),
        )

    # Package path: spreader -> sink -> ambient.
    couple(spreader, sink, package.spreader_to_sink_resistance(floorplan.die_area))
    ambient[sink] = 1.0 / package.convection_resistance
    conductance[sink, sink] += ambient[sink]

    capacitance[spreader] = package.spreader_capacitance
    capacitance[sink] = package.sink_capacitance

    return ThermalNetwork(
        node_names=tuple(names),
        conductance=conductance,
        capacitance=capacitance,
        ambient_conductance=ambient,
        ambient_c=package.ambient_c,
    )


def build_detailed_thermal_network(
    floorplan: Floorplan, package: ThermalPackage
) -> ThermalNetwork:
    """The full HotSpot-style package model.

    Like :func:`build_thermal_network` but with the spreader and sink each
    split into a centre node (under the die) plus four peripheral
    trapezoids, as in HotSpot's validated configuration.  The centre
    couples laterally to the periphery, the peripheries couple vertically
    down the stack, and the sink's convection to ambient is shared between
    centre and periphery by footprint area.

    For the paper's experiments the block-level model is sufficient (the
    two agree within tenths of a kelvin at the hotspot -- see the tests);
    the detailed model exists for studies where spreading into the package
    periphery matters (small dies, asymmetric heat sources).
    """
    blocks = floorplan.blocks
    names: List[str] = (
        [block.name for block in blocks]
        + [SPREADER_NODE, SINK_NODE]
        + list(SPREADER_PERIPHERY_NODES)
        + list(SINK_PERIPHERY_NODES)
    )
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    spreader = index[SPREADER_NODE]
    sink = index[SINK_NODE]

    conductance = np.zeros((n, n))
    capacitance = np.zeros(n)
    ambient = np.zeros(n)

    def couple(i: int, j: int, resistance: float) -> None:
        if resistance <= 0.0:
            raise ThermalModelError("coupling resistance must be > 0")
        g = 1.0 / resistance
        conductance[i, i] += g
        conductance[j, j] += g
        conductance[i, j] -= g
        conductance[j, i] -= g

    # Die: identical to the block-level model.
    for i, block in enumerate(blocks):
        couple(i, spreader, package.block_vertical_resistance(block.area))
        capacitance[i] = package.block_capacitance(block.area)
    for pair in floorplan.adjacencies:
        couple(
            floorplan.index_of(pair.block_a),
            floorplan.index_of(pair.block_b),
            package.lateral_resistance(
                pair.center_distance, pair.shared_edge_length
            ),
        )

    copper = package.package_material
    die_area = floorplan.die_area
    die_side = die_area**0.5

    # Spreader: centre = die footprint; periphery = the rest in 4 parts.
    spreader_periphery_area = max(
        (package.spreader_area - die_area) / 4.0, 1e-12
    )
    # Lateral path centre -> each peripheral trapezoid: roughly a quarter
    # of the annulus width through the spreader cross-section.
    annulus = (package.spreader_side - die_side) / 2.0
    lateral_sp = copper.conduction_resistance(
        max(annulus, 1e-6),
        package.spreader_thickness * die_side,
    )
    for name in SPREADER_PERIPHERY_NODES:
        couple(spreader, index[name], lateral_sp)
        capacitance[index[name]] = copper.capacitance(
            spreader_periphery_area * package.spreader_thickness
        )

    # Sink: centre under the spreader, periphery in 4 parts.
    sink_periphery_area = max(
        (package.sink_area - package.spreader_area) / 4.0, 1e-12
    )
    sink_annulus = (package.sink_side - package.spreader_side) / 2.0
    lateral_sink = copper.conduction_resistance(
        max(sink_annulus, 1e-6),
        package.sink_thickness * package.spreader_side,
    )
    for name in SINK_PERIPHERY_NODES:
        couple(sink, index[name], lateral_sink)
        capacitance[index[name]] = copper.capacitance(
            sink_periphery_area * package.sink_thickness
        )

    # Vertical package path.
    couple(spreader, sink, package.spreader_to_sink_resistance(die_area))
    for sp_name, sink_name in zip(SPREADER_PERIPHERY_NODES, SINK_PERIPHERY_NODES):
        vertical = copper.conduction_resistance(
            package.spreader_thickness / 2.0 + package.sink_thickness / 2.0,
            spreader_periphery_area,
        )
        couple(index[sp_name], index[sink_name], vertical)

    # Convection shared by footprint area.
    total_conductance = 1.0 / package.convection_resistance
    centre_share = package.spreader_area / package.sink_area
    ambient[sink] = total_conductance * centre_share
    conductance[sink, sink] += ambient[sink]
    for name in SINK_PERIPHERY_NODES:
        i = index[name]
        ambient[i] = total_conductance * (1.0 - centre_share) / 4.0
        conductance[i, i] += ambient[i]

    capacitance[spreader] = copper.capacitance(die_area * package.spreader_thickness)
    capacitance[sink] = copper.capacitance(
        package.spreader_area * package.sink_thickness
    )

    return ThermalNetwork(
        node_names=tuple(names),
        conductance=conductance,
        capacitance=capacitance,
        ambient_conductance=ambient,
        ambient_c=package.ambient_c,
    )

"""The per-block sensor array and its 10 kHz sampler."""

from __future__ import annotations

import logging
import math
import random
import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import SensorFaultError, SimulationError
from repro.floorplan.floorplan import Floorplan
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.sensors.faults import SensorFault
from repro.sensors.sensor import SensorParameters, ThermalSensor
from repro.units import KHZ

_LOGGER = logging.getLogger("repro.sensors")

NOISE_CHUNK = 8
"""Rows in the first chunk of a :class:`NoiseTable`.  Each further
chunk doubles up to :data:`NOISE_CHUNK_MAX`, so a table holds at most
about twice the rows its longest run has read (and at least this
many): a seed whose runs read one or two samples draws 8 values per
sensor, not hundreds.  The schedule never changes a reading -- row
``j`` is each sensor's ``j``-th draw whatever the chunk sizes."""

NOISE_CHUNK_MAX = 1024
"""Upper bound on the geometric noise-chunk growth."""

NOISE_TABLES = 8
"""Noise tables kept per process; the least recently used is dropped
(arrays already reading it keep their reference)."""


def _sensor_seed(seed: int, index: int) -> int:
    """RNG seed of the ``index``-th sensor of an array seeded ``seed``."""
    return seed * 1009 + index


class NoiseTable:
    """Fixed offsets and pre-drawn Gaussian noise of one sensor seed.

    Sensor ``i`` of an array seeded ``s`` draws from its own stream,
    ``random.Random(s * 1009 + i)``: the fixed offset first, then one
    Gaussian per sample.  The table replays those streams once per
    process: :attr:`offsets` holds the offsets, and row ``j`` of the
    concatenated :meth:`chunk` arrays holds each sensor's ``j``-th
    draw, so a fault-free array reading rows ``0, 1, 2, ...`` sees
    exactly the noise of on-demand :class:`ThermalSensor` reads.

    Every array built with the same ``(seed, sensor count,
    parameters)`` shares the table through :func:`noise_table` and
    reads it through its own cursor.  Chunks are drawn on first demand
    (under a lock, so concurrent readers cannot interleave draws) and
    are read-only afterwards; the table therefore only grows, to the
    rows of the longest run that used it.
    """

    def __init__(self, parameters: SensorParameters, seed: int, count: int):
        self._sigma = parameters.noise_sigma_c
        bound = parameters.max_offset_c
        self._rngs = [
            random.Random(_sensor_seed(seed, index)) for index in range(count)
        ]
        self.offsets = np.array(
            [rng.uniform(-bound, bound) for rng in self._rngs]
        )
        self.offsets.setflags(write=False)
        self._chunks: List[np.ndarray] = []
        self._lock = threading.Lock()

    @property
    def rows(self) -> int:
        """Noise rows drawn so far (one per sample read ahead)."""
        return sum(len(chunk) for chunk in self._chunks)

    def chunk(self, index: int) -> np.ndarray:
        """Chunk ``index`` of the noise rows, ``(rows, sensors)``,
        drawn (with every chunk before it) on first demand."""
        chunks = self._chunks
        if index >= len(chunks):
            with self._lock:
                while index >= len(chunks):
                    rows = min(NOISE_CHUNK << len(chunks), NOISE_CHUNK_MAX)
                    chunks.append(self._draw(rows))
        return chunks[index]

    def _draw(self, rows: int) -> np.ndarray:
        block = np.empty((rows, len(self._rngs)))
        sigma = self._sigma
        for i, rng in enumerate(self._rngs):
            gauss = rng.gauss
            block[:, i] = [gauss(0.0, sigma) for _ in range(rows)]
        block.setflags(write=False)
        return block


_TABLES: "OrderedDict[tuple, NoiseTable]" = OrderedDict()
_TABLES_LOCK = threading.Lock()


def noise_table(
    parameters: SensorParameters, seed: int, count: int
) -> NoiseTable:
    """The process's :class:`NoiseTable` for ``count`` sensors seeded
    ``seed`` under ``parameters``, built on first use; at most
    :data:`NOISE_TABLES` are kept."""
    key = (seed, count, parameters)
    with _TABLES_LOCK:
        table = _TABLES.get(key)
        if table is None:
            table = _TABLES[key] = NoiseTable(parameters, seed, count)
            if len(_TABLES) > NOISE_TABLES:
                _TABLES.popitem(last=False)
        else:
            _TABLES.move_to_end(key)
    return table


_NO_NOISE = np.empty((0, 0))
_NO_NOISE.setflags(write=False)


class SensorArray:
    """One :class:`ThermalSensor` in the middle of each floorplan block.

    ``sampling_rate_hz`` limits how often the DTM controller can obtain
    fresh readings (10 kHz in the paper -- "aggressive but reasonable").
    The array tracks the time of the last sample; :meth:`due` tells the
    simulation engine when the next sample may be taken.

    ``faults`` attaches one :class:`~repro.sensors.faults.SensorFault`
    per named block (stuck-at, dropout, extra offset; see
    :mod:`repro.sensors.faults`).  Dropped-out sensors are skipped when
    sampling -- the controller keeps operating on the survivors -- but
    an array with *no* live sensor raises
    :class:`~repro.errors.SensorFaultError` instead of returning an
    empty (and silently violation-free) sample.

    The fixed offsets and the noise of the vectorized paths come from
    the seed's shared :class:`NoiseTable`; the per-sensor
    :class:`ThermalSensor` objects (and their RNG streams) are built
    only when the scalar :meth:`sample` path is first used.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        parameters: Optional[SensorParameters] = None,
        sampling_rate_hz: float = 10.0 * KHZ,
        seed: int = 0,
        faults: Optional[Sequence[SensorFault]] = None,
    ):
        if sampling_rate_hz <= 0.0:
            raise SimulationError("sampling rate must be > 0")
        self._params = parameters if parameters is not None else SensorParameters()
        self._period_s = 1.0 / sampling_rate_hz
        by_block: Dict[str, SensorFault] = {}
        for fault in faults or ():
            if fault.block not in floorplan.block_names:
                raise SimulationError(
                    f"sensor fault names unknown block {fault.block!r}"
                )
            if fault.block in by_block:
                raise SimulationError(
                    f"block {fault.block!r} has more than one sensor fault"
                )
            by_block[fault.block] = fault
        if by_block:
            # Fault-plan application used to be silent; a degraded array
            # changes every downstream statistic, so say so.
            _LOGGER.warning(
                "sensor array built with %d faulted sensor(s): %s",
                len(by_block),
                ", ".join(sorted(by_block)),
            )
            obs_metrics.inc("sensors.faults_attached", len(by_block))
            obs_events.emit(
                "sensors.faults_attached",
                count=len(by_block),
                blocks=",".join(sorted(by_block)),
            )
        self._seed = seed
        self._faults = by_block
        self._names = tuple(floorplan.block_names)
        self._table = noise_table(self._params, seed, len(self._names))
        self._offsets = self._table.offsets
        self._last_sample_s = -self._period_s  # first sample due at t = 0
        # Scalar-path sensors, built on the first sample() call.
        self._sensors: Optional[Dict[str, ThermalSensor]] = None
        # Vectorized-path cursor: row ``_row`` of chunk ``_chunk_index``
        # of the shared table is the next sample's noise.
        self._chunk_index = -1
        self._noise = _NO_NOISE
        self._row = 0

    def reset(self) -> None:
        """Rewind the array to construction state.

        Rewinds the noise cursor to the table's first row and drops the
        scalar path's sensors (rebuilt, re-seeded, on the next
        :meth:`sample`), so a reset array replays bit-identical readings
        on a repeated run (the engine contract's reset-reentrancy
        guarantee).
        """
        self._last_sample_s = -self._period_s
        self._sensors = None
        self._chunk_index = -1
        self._noise = _NO_NOISE
        self._row = 0

    @property
    def parameters(self) -> SensorParameters:
        """Shared sensor error model."""
        return self._params

    @property
    def sampling_period_s(self) -> float:
        """Time between samples in seconds."""
        return self._period_s

    @property
    def block_names(self) -> tuple:
        """Blocks covered by the array."""
        return self._names

    @property
    def vector_eligible(self) -> bool:
        """True when :meth:`sample_vector` reproduces :meth:`sample`
        exactly: no injected sensor faults (stuck/offset/dropout
        handling stays on the scalar path)."""
        return not self._faults

    def offset_of(self, block: str) -> float:
        """Fixed offset of one block's sensor."""
        try:
            index = self._names.index(block)
        except ValueError:
            raise SimulationError(f"no sensor on block {block!r}") from None
        return float(self._offsets[index])

    @property
    def next_due_s(self) -> float:
        """Earliest simulation time at which the next sample is due.

        The engine's constant-power fast-forward clips its jumps to this
        boundary so the policy sees exactly the sample times (and the
        sensors draw exactly the noise sequence) of explicit stepping.
        """
        return self._last_sample_s + self._period_s

    def due(self, time_s: float) -> bool:
        """True when a new sample may be taken at simulation time
        ``time_s`` (at least one sampling period since the last)."""
        return time_s - self._last_sample_s >= self._period_s - 1e-12

    def _check_due(self, time_s: float) -> None:
        if not self.due(time_s):
            raise SimulationError(
                f"sensor sample at t={time_s * 1e6:.1f} us violates the "
                f"{self._period_s * 1e6:.0f} us sampling period"
            )
        self._last_sample_s = time_s

    def _mixing_error(self) -> SimulationError:
        # Both paths read the same per-sensor streams from their first
        # draw, so switching paths mid-run would replay or skip noise.
        return SimulationError(
            "cannot mix sample() and sample_vector() on one array: "
            "each path reads the noise streams from their start"
        )

    def sample(
        self, true_temps_c: Mapping[str, float], time_s: float
    ) -> Dict[str, float]:
        """Read every sensor once, marking ``time_s`` as the sample time.

        The engine should call this only when :meth:`due` is true; calling
        early raises, which catches controllers that assume a faster
        sampling rate than the hardware provides.
        """
        sensors = self._sensors
        if sensors is None:
            if self._chunk_index >= 0:
                raise self._mixing_error()
            sensors = self._sensors = {
                name: ThermalSensor(
                    self._params,
                    seed=_sensor_seed(self._seed, index),
                    fault=self._faults.get(name),
                )
                for index, name in enumerate(self._names)
            }
        self._check_due(time_s)
        readings: Dict[str, float] = {}
        for name, sensor in sensors.items():
            if not sensor.alive:
                continue
            if name not in true_temps_c:
                raise SimulationError(f"no true temperature for block {name!r}")
            readings[name] = sensor.read(true_temps_c[name])
        if not readings:
            _LOGGER.error(
                "every sensor in the array has dropped out at t=%.6gs",
                time_s,
            )
            obs_events.emit("sensors.all_dropped_out", time_s=time_s)
            raise SensorFaultError(
                "every sensor in the array has dropped out; the DTM "
                "controller has no thermal observability"
            )
        return readings

    def _noisy(
        self, true_temps_c: np.ndarray, time_s: float, path: str
    ) -> np.ndarray:
        """``true + offset + noise`` for one vectorized sample: the next
        row of the shared table, advancing this array's cursor."""
        if self._faults:
            raise SimulationError(
                f"{path} is only valid on a fault-free array; "
                "use sample() so per-sensor faults apply"
            )
        self._check_due(time_s)
        values = true_temps_c + self._offsets
        if self._params.noise_sigma_c > 0.0:
            row = self._row
            if row >= len(self._noise):
                if self._sensors is not None:
                    raise self._mixing_error()
                self._chunk_index += 1
                self._noise = self._table.chunk(self._chunk_index)
                row = 0
            values += self._noise[row]
            self._row = row + 1
        return values

    def sample_vector(
        self, true_temps_c: np.ndarray, time_s: float
    ) -> Dict[str, float]:
        """Read every sensor once from a temperature *vector*.

        The fast-path form of :meth:`sample` for the simulation engine:
        ``true_temps_c`` holds the block temperatures in
        :attr:`block_names` order, and the whole array is read with a
        handful of NumPy operations.  Readings are bit-identical to the
        scalar path -- same offsets, same per-sensor noise streams (read
        from the seed's :class:`NoiseTable`), same round-half-even
        quantisation -- which the equivalence tests assert.  Only valid
        on a fault-free array (:attr:`vector_eligible`); faulted arrays
        keep the scalar path's per-sensor handling.
        """
        values = self._noisy(true_temps_c, time_s, "sample_vector")
        step = self._params.quantisation_c
        if step > 0.0:
            values /= step
            np.round(values, out=values)
            values *= step
        return dict(zip(self._names, values.tolist()))

    def sample_hottest(self, true_temps_c: np.ndarray, time_s: float) -> float:
        """Read every sensor once and return only the hottest reading.

        The fused-sensing form of :meth:`sample_vector` for policies
        that consume nothing but the array maximum (the paper's
        trigger/emergency comparisons).  Quantisation ``q(v) =
        rint(v / step) * step`` is monotone, so ``q(max v) == max q(v)``
        bit for bit (a NaN propagates through both): only the maximum is
        quantised, and no per-sample dict is built.  Only valid on a
        fault-free array (:attr:`vector_eligible`).
        """
        values = self._noisy(true_temps_c, time_s, "sample_hottest")
        hottest = float(values.max())
        step = self._params.quantisation_c
        if step > 0.0:
            scaled = hottest / step
            if math.isfinite(scaled):
                # round() is half-to-even like np.rint; copysign keeps
                # rint's signed zero.
                scaled = math.copysign(round(scaled), scaled)
            hottest = scaled * step
        return hottest

    @staticmethod
    def max_reading(readings: Mapping[str, float]) -> float:
        """The hottest observed temperature across the array."""
        if not readings:
            raise SimulationError("empty sensor readings")
        return max(readings.values())

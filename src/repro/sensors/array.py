"""The per-block sensor array and its 10 kHz sampler."""

from __future__ import annotations

import logging
from typing import Dict, Mapping, Optional, Sequence

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
"""Gaussian noise values pre-drawn per sensor on the *first* refill of
the vectorized sampling path (see :meth:`SensorArray.sample_vector`).
Each refill doubles the chunk up to :data:`NOISE_CHUNK_MAX`, so a run
draws at most about twice the samples it reads (and at least this
many): a short run that reads one or two samples draws 8 values per
sensor, not hundreds, while a long run still amortises the refill
overhead over 1024-column chunks.  The schedule never changes a
reading -- column ``j`` is each sensor's ``j``-th draw whatever the
chunk sizes."""

NOISE_CHUNK_MAX = 1024
"""Upper bound on the geometric noise-chunk growth."""


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
        self._sensors: Dict[str, ThermalSensor] = {
            name: ThermalSensor(
                self._params,
                seed=seed * 1009 + index,
                fault=by_block.get(name),
            )
            for index, name in enumerate(floorplan.block_names)
        }
        self._last_sample_s = -self._period_s  # first sample due at t = 0
        self._names = tuple(self._sensors)
        self._has_faults = bool(by_block)
        # Vectorized-path state, built lazily on first sample_vector():
        # per-sensor fixed offsets and a (n, chunk) buffer of pre-drawn
        # Gaussian noise, the chunk growing from NOISE_CHUNK.  Each
        # refill draws from the sensors' own RNG streams in block order,
        # so the per-sensor noise sequence is bit-identical to on-demand
        # scalar reads.
        self._offsets: Optional[np.ndarray] = None
        self._noise_buf: Optional[np.ndarray] = None
        self._noise_cursor = 0
        self._noise_chunk = NOISE_CHUNK

    def reset(self) -> None:
        """Rewind the array to construction state.

        Re-seeds every sensor's RNG stream and discards the vectorized
        path's pre-drawn noise, so a reset array replays bit-identical
        readings on a repeated run (the engine contract's
        reset-reentrancy guarantee).
        """
        for sensor in self._sensors.values():
            sensor.reset()
        self._last_sample_s = -self._period_s
        self._offsets = None
        self._noise_buf = None
        self._noise_cursor = 0
        self._noise_chunk = NOISE_CHUNK

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
        return not self._has_faults

    def offset_of(self, block: str) -> float:
        """Fixed offset of one block's sensor."""
        try:
            return self._sensors[block].offset_c
        except KeyError:
            raise SimulationError(f"no sensor on block {block!r}") from None

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

    def sample(
        self, true_temps_c: Mapping[str, float], time_s: float
    ) -> Dict[str, float]:
        """Read every sensor once, marking ``time_s`` as the sample time.

        The engine should call this only when :meth:`due` is true; calling
        early raises, which catches controllers that assume a faster
        sampling rate than the hardware provides.
        """
        if not self.due(time_s):
            raise SimulationError(
                f"sensor sample at t={time_s * 1e6:.1f} us violates the "
                f"{self._period_s * 1e6:.0f} us sampling period"
            )
        if self._noise_buf is not None:
            # sample_vector() pre-draws noise, so a scalar read here
            # would consume values out of order and silently diverge
            # from the pure-scalar noise sequence.
            raise SimulationError(
                "cannot mix sample() and sample_vector() on one array: "
                "the vectorized path has pre-drawn noise in flight"
            )
        self._last_sample_s = time_s
        readings: Dict[str, float] = {}
        for name, sensor in self._sensors.items():
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

    def _refill_noise(self) -> np.ndarray:
        """Draw the next chunk of Gaussians from every sensor's RNG.

        Pre-drawing in chunks amortises the per-call Python overhead of
        the scalar path while consuming exactly the same values from
        exactly the same per-sensor streams: column ``j`` of the buffer
        holds each sensor's ``j``-th future draw.  The first chunk is
        small (:data:`NOISE_CHUNK`, 8 columns) and the chunk doubles on
        every refill up to :data:`NOISE_CHUNK_MAX` (1024), so the draws
        wasted at the end of a run never exceed the draws consumed by
        more than the first chunk, and a long run pays few refills.
        """
        chunk = self._noise_chunk
        self._noise_buf = buf = np.empty((len(self._names), chunk))
        self._noise_chunk = min(chunk * 2, NOISE_CHUNK_MAX)
        sigma = self._params.noise_sigma_c
        for i, sensor in enumerate(self._sensors.values()):
            gauss = sensor._rng.gauss
            buf[i, :] = [gauss(0.0, sigma) for _ in range(chunk)]
        self._noise_cursor = 0
        return buf

    def sample_vector(
        self, true_temps_c: np.ndarray, time_s: float
    ) -> Dict[str, float]:
        """Read every sensor once from a temperature *vector*.

        The fast-path form of :meth:`sample` for the simulation engine:
        ``true_temps_c`` holds the block temperatures in
        :attr:`block_names` order, and the whole array is read with a
        handful of NumPy operations.  Readings are bit-identical to the
        scalar path -- same offsets, same per-sensor noise streams
        (pre-drawn in chunks), same round-half-even quantisation --
        which the equivalence tests assert.  Only valid on a fault-free
        array (:attr:`vector_eligible`); faulted arrays keep the scalar
        path's per-sensor handling.
        """
        if self._has_faults:
            raise SimulationError(
                "sample_vector is only valid on a fault-free array; "
                "use sample() so per-sensor faults apply"
            )
        if not self.due(time_s):
            raise SimulationError(
                f"sensor sample at t={time_s * 1e6:.1f} us violates the "
                f"{self._period_s * 1e6:.0f} us sampling period"
            )
        self._last_sample_s = time_s
        if self._offsets is None:
            self._offsets = np.array(
                [sensor._offset for sensor in self._sensors.values()]
            )
        values = true_temps_c + self._offsets
        if self._params.noise_sigma_c > 0.0:
            buf = self._noise_buf
            if buf is None or self._noise_cursor >= buf.shape[1]:
                buf = self._refill_noise()
            values += buf[:, self._noise_cursor]
            self._noise_cursor += 1
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
        trigger/emergency comparisons): same offsets, same pre-drawn
        per-sensor noise streams, same round-half-even quantisation --
        the per-block values are computed identically and the maximum of
        identical values is order-independent, so the returned float is
        bit-identical to ``max(sample_vector(...).values())`` -- but no
        per-sample dict is built.  Only valid on a fault-free array
        (:attr:`vector_eligible`).
        """
        if self._has_faults:
            raise SimulationError(
                "sample_hottest is only valid on a fault-free array; "
                "use sample() so per-sensor faults apply"
            )
        if not self.due(time_s):
            raise SimulationError(
                f"sensor sample at t={time_s * 1e6:.1f} us violates the "
                f"{self._period_s * 1e6:.0f} us sampling period"
            )
        self._last_sample_s = time_s
        if self._offsets is None:
            self._offsets = np.array(
                [sensor._offset for sensor in self._sensors.values()]
            )
        values = true_temps_c + self._offsets
        if self._params.noise_sigma_c > 0.0:
            buf = self._noise_buf
            if buf is None or self._noise_cursor >= buf.shape[1]:
                buf = self._refill_noise()
            values += buf[:, self._noise_cursor]
            self._noise_cursor += 1
        step = self._params.quantisation_c
        if step > 0.0:
            values /= step
            np.round(values, out=values)
            values *= step
        return float(values.max())

    @staticmethod
    def max_reading(readings: Mapping[str, float]) -> float:
        """The hottest observed temperature across the array."""
        if not readings:
            raise SimulationError("empty sensor readings")
        return max(readings.values())

"""Per-block sensor array and sampling-rate enforcement."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sensors import SensorArray, SensorParameters
from repro.sensors.array import (
    NOISE_CHUNK,
    NOISE_CHUNK_MAX,
    NOISE_TABLES,
    noise_table,
)
from repro.sensors.faults import SensorFault


@pytest.fixture()
def array(floorplan):
    return SensorArray(floorplan, seed=0)


def flat_temps(floorplan, value=85.0):
    return {name: value for name in floorplan.block_names}


class TestCoverage:
    def test_one_sensor_per_block(self, array, floorplan):
        assert set(array.block_names) == set(floorplan.block_names)

    def test_sample_covers_all_blocks(self, array, floorplan):
        readings = array.sample(flat_temps(floorplan), 0.0)
        assert set(readings) == set(floorplan.block_names)

    def test_missing_temperature_raises(self, array):
        with pytest.raises(SimulationError):
            array.sample({"IntReg": 85.0}, 0.0)


class TestSamplingRate:
    def test_default_is_10khz(self, array):
        assert array.sampling_period_s == pytest.approx(100e-6)

    def test_first_sample_due_immediately(self, array):
        assert array.due(0.0)

    def test_early_resample_rejected(self, array, floorplan):
        array.sample(flat_temps(floorplan), 0.0)
        assert not array.due(50e-6)
        with pytest.raises(SimulationError):
            array.sample(flat_temps(floorplan), 50e-6)

    def test_resample_after_period(self, array, floorplan):
        array.sample(flat_temps(floorplan), 0.0)
        assert array.due(100e-6)
        array.sample(flat_temps(floorplan), 100e-6)

    def test_rejects_non_positive_rate(self, floorplan):
        with pytest.raises(SimulationError):
            SensorArray(floorplan, sampling_rate_hz=0.0)


class TestErrors:
    def test_per_block_offsets_differ(self, array):
        offsets = {array.offset_of(name) for name in array.block_names}
        assert len(offsets) > len(array.block_names) // 2

    def test_offset_lookup_unknown_block(self, array):
        with pytest.raises(SimulationError):
            array.offset_of("nope")

    def test_ideal_array_reads_exactly(self, floorplan):
        array = SensorArray(
            floorplan, parameters=SensorParameters.ideal(), seed=0
        )
        readings = array.sample(flat_temps(floorplan, 83.4), 0.0)
        assert all(v == pytest.approx(83.4) for v in readings.values())

    def test_seeded_reproducibility(self, floorplan):
        temps = flat_temps(floorplan)
        a = SensorArray(floorplan, seed=11).sample(temps, 0.0)
        b = SensorArray(floorplan, seed=11).sample(temps, 0.0)
        assert a == b

    def test_max_reading(self, array, floorplan):
        readings = {"a": 1.0, "b": 3.0}
        assert SensorArray.max_reading(readings) == 3.0
        with pytest.raises(SimulationError):
            SensorArray.max_reading({})


class TestVectorPath:
    """The engine's vectorized sensing fast path.

    ``sample_vector`` must be *bit-identical* to ``sample``: same fixed
    offsets, same per-sensor noise streams (read from the seed's shared
    noise table, drawn in growing chunks), same round-half-even
    quantisation.
    """

    def _vector_temps(self, array, temps):
        return np.array([temps[name] for name in array.block_names])

    @staticmethod
    def _chunk_boundaries():
        """Sample counts at which a fresh table must draw its next
        chunk: the cumulative chunk sizes, through the first capped
        chunk."""
        boundaries, drawn, chunk = [], 0, NOISE_CHUNK
        while True:
            drawn += chunk
            boundaries.append(drawn)
            if chunk == NOISE_CHUNK_MAX:
                return boundaries
            chunk = min(chunk * 2, NOISE_CHUNK_MAX)

    def test_bit_identical_to_scalar_across_chunk_refills(
        self, floorplan, fresh_tables
    ):
        boundaries = self._chunk_boundaries()
        assert len(boundaries) >= 3
        scalar = SensorArray(floorplan, seed=7)
        vector = SensorArray(floorplan, seed=7)
        hottest = SensorArray(floorplan, seed=7)
        table = noise_table(vector.parameters, 7, len(vector.block_names))
        temps = flat_temps(floorplan)
        vec = self._vector_temps(vector, temps)
        period = scalar.sampling_period_s
        rows = []
        # Sample k reads row k of the table, so comparing every sample
        # through the last boundary + 1 covers the counts just before,
        # at and just after each growth step.  ``vector`` and
        # ``hottest`` read the one table through their own cursors.
        for i in range(boundaries[-1] + 2):
            time_s = i * period
            expected = scalar.sample(temps, time_s)
            assert vector.sample_vector(vec, time_s) == expected, i
            assert hottest.sample_hottest(vec, time_s) == max(
                expected.values()
            ), i
            rows.append(table.rows)
        # The table grew exactly when a sample read past its last row.
        grown = [i for i in range(1, len(rows)) if rows[i] != rows[i - 1]]
        assert grown == boundaries
        assert rows[0] == NOISE_CHUNK
        assert rows[-1] == boundaries[-1] + NOISE_CHUNK_MAX
        # A later array on the grown table reads the same values
        # without drawing any.
        late = SensorArray(floorplan, seed=7)
        replay = SensorArray(floorplan, seed=7)
        for i in range(boundaries[-1] + 2):
            time_s = i * period
            assert late.sample_vector(vec, time_s) == replay.sample(
                temps, time_s
            ), i
        assert table.rows == rows[-1]

    def test_one_sample_draws_at_most_the_first_chunk(
        self, floorplan, fresh_tables
    ):
        array = SensorArray(floorplan, seed=2)
        table = noise_table(array.parameters, 2, len(array.block_names))
        assert table.rows == 0
        vec = self._vector_temps(array, flat_temps(floorplan))
        first = array.sample_vector(vec, 0.0)
        assert NOISE_CHUNK <= 8
        assert table.rows == NOISE_CHUNK
        assert table.chunk(0).shape == (NOISE_CHUNK, len(array.block_names))
        # A second array on the seed shares the drawn chunk.
        again = SensorArray(floorplan, seed=2).sample_vector(vec, 0.0)
        assert again == first
        assert table.rows == NOISE_CHUNK

    def test_noise_chunk_growth_is_bounded(self, floorplan, fresh_tables):
        array = SensorArray(floorplan, seed=3)
        table = noise_table(array.parameters, 3, len(array.block_names))
        vec = self._vector_temps(array, flat_temps(floorplan))
        period = array.sampling_period_s
        samples = NOISE_CHUNK * 40
        for i in range(samples):
            array.sample_vector(vec, i * period)
        chunks = [table.chunk(k) for k in range(len(table._chunks))]
        assert all(len(chunk) <= NOISE_CHUNK_MAX for chunk in chunks)
        assert samples <= table.rows < 2 * samples + NOISE_CHUNK

    def test_shared_table_is_read_only(self, floorplan, fresh_tables):
        array = SensorArray(floorplan, seed=4)
        vec = self._vector_temps(array, flat_temps(floorplan))
        array.sample_vector(vec, 0.0)
        table = noise_table(array.parameters, 4, len(array.block_names))
        assert not table.offsets.flags.writeable
        assert not table.chunk(0).flags.writeable
        assert not table.chunk(3).flags.writeable

    def test_table_count_is_bounded_and_eviction_replays(
        self, floorplan, fresh_tables
    ):
        vec = self._vector_temps(
            SensorArray(floorplan, seed=0), flat_temps(floorplan)
        )

        def readings(seed):
            array = SensorArray(floorplan, seed=seed)
            period = array.sampling_period_s
            return [array.sample_vector(vec, i * period) for i in range(20)]

        before = readings(5)
        for seed in range(100, 100 + NOISE_TABLES + 3):
            readings(seed)
            assert len(fresh_tables) <= NOISE_TABLES
        assert len(fresh_tables) == NOISE_TABLES
        assert all(key[0] != 5 for key in fresh_tables)
        assert readings(5) == before

    def test_hottest_quantises_only_the_maximum(self, floorplan):
        rng = np.random.default_rng(0)
        vector = SensorArray(floorplan, seed=9)
        hottest = SensorArray(floorplan, seed=9)
        period = vector.sampling_period_s
        n = len(vector.block_names)
        for i in range(200):
            vec = rng.uniform(-80.0, 160.0, n)
            if i % 7 == 3:
                vec[rng.integers(n)] = np.nan
            values = np.array(list(vector.sample_vector(vec, i * period).values()))
            got = hottest.sample_hottest(vec, i * period)
            expected = np.max(values)
            if np.isnan(expected):
                assert np.isnan(got), i
            else:
                assert got == expected, i

    def test_fault_free_array_is_vector_eligible(self, array):
        assert array.vector_eligible

    def test_faulted_array_is_not_vector_eligible(self, floorplan):
        faulted = SensorArray(
            floorplan, seed=0, faults=(SensorFault.dropout("FPMul"),)
        )
        assert not faulted.vector_eligible
        vec = self._vector_temps(faulted, flat_temps(floorplan))
        with pytest.raises(SimulationError, match="fault-free"):
            faulted.sample_vector(vec, 0.0)

    def test_mixing_scalar_reads_into_vector_stream_raises(self, floorplan):
        array = SensorArray(floorplan, seed=0)
        vec = self._vector_temps(array, flat_temps(floorplan))
        array.sample_vector(vec, 0.0)
        with pytest.raises(SimulationError, match="mix"):
            array.sample(flat_temps(floorplan), array.sampling_period_s)

    def test_mixing_vector_reads_into_scalar_stream_raises(self, floorplan):
        array = SensorArray(floorplan, seed=0)
        vec = self._vector_temps(array, flat_temps(floorplan))
        array.sample(flat_temps(floorplan), 0.0)
        with pytest.raises(SimulationError, match="mix"):
            array.sample_hottest(vec, array.sampling_period_s)

    def test_reset_rewinds_both_paths(self, floorplan):
        array = SensorArray(floorplan, seed=6)
        temps = flat_temps(floorplan)
        vec = self._vector_temps(array, temps)
        period = array.sampling_period_s
        first = [array.sample_vector(vec, i * period) for i in range(12)]
        array.reset()
        assert [array.sample(temps, i * period) for i in range(12)] == first
        array.reset()
        assert [array.sample_vector(vec, i * period) for i in range(12)] == first

    def test_vector_respects_sampling_period(self, floorplan):
        array = SensorArray(floorplan, seed=0)
        vec = self._vector_temps(array, flat_temps(floorplan))
        array.sample_vector(vec, 0.0)
        with pytest.raises(SimulationError, match="sampling period"):
            array.sample_vector(vec, array.sampling_period_s / 10.0)

    def test_ideal_vector_reads_exactly(self, floorplan):
        array = SensorArray(
            floorplan, parameters=SensorParameters.ideal(), seed=0
        )
        vec = self._vector_temps(array, flat_temps(floorplan, 83.4))
        readings = array.sample_vector(vec, 0.0)
        assert all(v == pytest.approx(83.4) for v in readings.values())

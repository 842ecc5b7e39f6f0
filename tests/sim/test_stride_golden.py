"""Reduced-budget golden for the event-driven stride.

Figure 4a's spec shape (gcc, crafty and mesa under no DTM, FG, DVS,
PI-Hyb and Hyb with DVS-stall) at a 2 M-instruction budget and sensor
seed 0, run through ``run_many`` with its defaults (lockstep on).  The
expected values were recorded before the stride's leakage-drift proof
was rewritten in closed form; any change to a stride decision (a span
taken or rejected, a segment split, a threshold classification) moves
at least one field or counter here.

Every :class:`~repro.sim.results.RunResult` field is compared with
``==`` -- floats included -- and so are the sweep's
``engine.ff_spans_taken`` / ``engine.ff_spans_rejected`` counters.  Two
variants: no settle lead-in (runs start on the no-DTM steady state, so
a few strides straddle a threshold and are rejected) and the figure
harness's 2 ms settle (long stretches of proved strides).
"""

import dataclasses

import pytest

import repro.obs as obs
from repro.sim import RunSpec, run_many
from repro.sim.batch import last_sweep_report
from repro.sim.results import RunResult

BENCHMARKS = ("gcc", "crafty", "mesa")
POLICIES = ("none", "FG", "DVS", "PI-Hyb", "Hyb")
INSTRUCTIONS = 2_000_000

FIELDS = (
    "benchmark", "policy", "instructions", "elapsed_s", "cycles",
    "violations", "max_true_temp_c", "hottest_block",
    "time_above_trigger_s", "dvs_switches", "dvs_low_time_s",
    "stall_time_s", "mean_gating_fraction", "mean_power_w", "migrations",
    "trigger_crossings",
)

# settle_time_s -> (ff_spans_taken, ff_spans_rejected, rows in FIELDS order)
GOLDEN = {
    0.0: (87, 3, [
        ('gcc', 'none', 2000000, 0.0004166666666666667, 1250000, 125, 85.30622521655926, 'IntReg', 0.0004166666666666667, 0, 0.0, 0.0, 0.0, 25.90998208052151, 0, 1),
        ('gcc', 'FG', 2000000, 0.0005184425240163724, 1555328, 156, 85.30601885489774, 'IntReg', 0.0005184425240163724, 0, 0.0, 0.0, 0.4670945600711079, 21.598136505366213, 0, 1),
        ('gcc', 'DVS', 2000000, 0.00047528404253039254, 1218178, 78, 85.28867777507095, 'IntReg', 0.00047528404253039254, 1, 0.00046528404253039256, 1e-05, 0.0, 17.46568302204627, 0, 1),
        ('gcc', 'PI-Hyb', 2000000, 0.0004636905106977655, 1226011, 104, 85.30601885489774, 'IntReg', 0.0004636905106977655, 1, 0.0003536905106977656, 1e-05, 0.033643129717114625, 19.07160277093243, 0, 1),
        ('gcc', 'Hyb', 2000000, 0.00047528404253039254, 1218178, 78, 85.28867777507095, 'IntReg', 0.00047528404253039254, 1, 0.00046528404253039256, 1e-05, 0.0, 17.46568302204627, 0, 1),
        ('crafty', 'none', 2000000, 0.0003030303030303031, 909091, 91, 86.50256172705421, 'IntReg', 0.0003030303030303031, 0, 0.0, 0.0, 0.0, 26.303054469070684, 0, 1),
        ('crafty', 'FG', 2000000, 0.0004394176728470826, 1318253, 132, 86.49667883218693, 'IntReg', 0.0004394176728470826, 0, 0.0, 0.0, 0.5243571120050025, 20.311774906108393, 0, 1),
        ('crafty', 'DVS', 2000000, 0.0003545760605865777, 902148, 92, 86.47728175797809, 'IntReg', 0.0003545760605865777, 1, 0.0003445760605865777, 1e-05, 0.0, 17.678589757694713, 0, 1),
        ('crafty', 'PI-Hyb', 2000000, 0.0003418528358178623, 907023, 92, 86.49667883218693, 'IntReg', 0.0003418528358178623, 1, 0.00023185283581786235, 1e-05, 0.06669536599119455, 19.682254789765217, 0, 1),
        ('crafty', 'Hyb', 2000000, 0.0003545760605865777, 902148, 92, 86.47728175797809, 'IntReg', 0.0003545760605865777, 1, 0.0003445760605865777, 1e-05, 0.0, 17.678589757694713, 0, 1),
        ('mesa', 'none', 2000000, 0.0003333333333333333, 1000000, 0, 82.40609595320134, 'IntReg', 0.0003333333333333333, 0, 0.0, 0.0, 0.0, 24.082439317047015, 0, 1),
        ('mesa', 'FG', 2000000, 0.00033334005930409164, 1000020, 0, 82.40609595320134, 'IntReg', 0.00033334005930409164, 0, 0.0, 0.0, 0.003600290556074163, 24.068003817393283, 0, 1),
        ('mesa', 'DVS', 2000000, 0.0003732816368653883, 989308, 0, 82.40609595320134, 'IntReg', 0.0003732816368653883, 1, 0.00026328163686538836, 1e-05, 0.0, 18.324258339418417, 0, 1),
        ('mesa', 'PI-Hyb', 2000000, 0.00033334005930409164, 1000020, 0, 82.40609595320134, 'IntReg', 0.00033334005930409164, 0, 0.0, 0.0, 0.003600290556074163, 24.068003817393283, 0, 1),
        ('mesa', 'Hyb', 2000000, 0.0003434728979300882, 1030419, 0, 82.40609595320134, 'IntReg', 0.0003434728979300882, 0, 0.0, 0.0, 0.2362854045616195, 22.886700038585115, 0, 1),
    ]),
    2.0e-3: (479, 0, [
        ('gcc', 'none', 2000000, 0.0004166666666666724, 1250000, 125, 85.28169846488127, 'IntReg', 0.0004166666666666667, 0, 0.0, 0.0, 0.0, 25.909407634939228, 0, 1),
        ('gcc', 'FG', 2000000, 0.0007143059412932857, 2142918, 0, 84.02087504644133, 'IntReg', 0.0007143059412932795, 0, 0.0, 0.0, 0.6666666666666606, 18.478762322038886, 0, 1),
        ('gcc', 'DVS', 2000000, 0.0004652840425303957, 1218178, 0, 83.78010782261555, 'IntReg', 0.0004652840425303924, 0, 0.0004652840425303924, 0.0, 0.0, 17.539708057030644, 0, 1),
        ('gcc', 'PI-Hyb', 2000000, 0.0004652840425303957, 1218178, 0, 83.83235504588323, 'IntReg', 0.0004652840425303924, 0, 0.0004652840425303924, 0.0, 0.0, 17.54165624792933, 0, 1),
        ('gcc', 'Hyb', 2000000, 0.0004652840425303957, 1218178, 0, 83.78010782261555, 'IntReg', 0.0004652840425303924, 0, 0.0004652840425303924, 0.0, 0.0, 17.539708057030644, 0, 1),
        ('crafty', 'none', 2000000, 0.000303030303030308, 909091, 91, 86.51947219906805, 'IntReg', 0.0003030303030303031, 0, 0.0, 0.0, 0.0, 26.303536144694764, 0, 1),
        ('crafty', 'FG', 2000000, 0.0005862744883244342, 1758823, 0, 84.91890186259589, 'IntReg', 0.0005862744883244285, 0, 0.0, 0.0, 0.66666666666666, 17.898588700524133, 0, 1),
        ('crafty', 'DVS', 2000000, 0.000344576060586581, 902148, 0, 84.8474510597264, 'IntReg', 0.0003445760605865777, 0, 0.0003445760605865777, 0.0, 0.0, 17.79786649087079, 0, 1),
        ('crafty', 'PI-Hyb', 2000000, 0.000344576060586581, 902148, 0, 84.89907799481932, 'IntReg', 0.0003445760605865777, 0, 0.0003445760605865777, 0.0, 0.0, 17.79976742628738, 0, 1),
        ('crafty', 'Hyb', 2000000, 0.000344576060586581, 902148, 0, 84.8474510597264, 'IntReg', 0.0003445760605865777, 0, 0.0003445760605865777, 0.0, 0.0, 17.79786649087079, 0, 1),
        ('mesa', 'none', 2000000, 0.0003333333333333387, 1000000, 0, 82.38977575020128, 'IntReg', 0.0003333333333333334, 0, 0.0, 0.0, 0.0, 24.081785414663845, 0, 1),
        ('mesa', 'FG', 2000000, 0.0003338274686350679, 1001482, 0, 82.36835248252855, 'IntReg', 0.00033382746863506313, 0, 0.0, 0.0, 0.11713314427929113, 23.6028889411547, 0, 1),
        ('mesa', 'DVS', 2000000, 0.00033333333333333565, 1000000, 0, 81.73196556450002, 'IntReg', 0.0, 0, 0.0, 0.0, 0.0, 24.050667216469463, 0, 0),
        ('mesa', 'PI-Hyb', 2000000, 0.0003338274686350679, 1001482, 0, 82.36835248252855, 'IntReg', 0.00033382746863506313, 0, 0.0, 0.0, 0.11713314427929113, 23.6028889411547, 0, 1),
        ('mesa', 'Hyb', 2000000, 0.0003478184256144167, 1043455, 0, 82.22022091867984, 'IntReg', 0.0003478184256144117, 0, 0.0, 0.0, 0.33333333333332854, 22.383130837032578, 0, 1),
    ]),
}


@pytest.fixture()
def obs_enabled(tmp_path, monkeypatch):
    monkeypatch.setenv(obs.OBS_DIR_ENV, str(tmp_path))
    obs.reset_for_testing()
    previous = obs.set_enabled(True)
    yield
    obs.set_enabled(previous)
    obs.reset_for_testing()


def test_fields_cover_run_result():
    names = {f.name for f in dataclasses.fields(RunResult)}
    assert names - set(FIELDS) == {"dvs_mode", "trace"}


@pytest.mark.parametrize("settle_s", sorted(GOLDEN))
def test_stride_golden(obs_enabled, settle_s):
    taken, rejected, rows = GOLDEN[settle_s]
    specs = [
        RunSpec(
            workload=benchmark,
            policy=policy,
            instructions=INSTRUCTIONS,
            settle_time_s=settle_s,
            dvs_mode="stall",
            seed=0,
        )
        for benchmark in BENCHMARKS
        for policy in POLICIES
    ]
    results = run_many(specs)
    for result, expected in zip(results, rows):
        got = tuple(getattr(result, name) for name in FIELDS)
        assert got == expected
        assert result.dvs_mode == "stall"
    counters = last_sweep_report().counters
    assert counters["engine.ff_spans_taken"] == taken
    assert counters.get("engine.ff_spans_rejected", 0.0) == rejected

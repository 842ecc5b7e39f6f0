"""Span arithmetic, re-entrancy, patch restoration and worker merging."""

import json

import pytest

from perfbench.tracer import (
    WRAPPED_MARK,
    Tracer,
    merge_states,
    read_state_files,
)


class FakeClock:
    """A clock the traced functions advance explicitly."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def totals(tracer):
    return tracer.snapshot()["totals"]


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.spend(2.0)

    leaf = tracer.wrap(leaf, "power")

    def middle():
        clock.spend(1.0)
        leaf()
        clock.spend(1.0)

    middle = tracer.wrap(middle, "sensors")

    def outer():
        clock.spend(3.0)
        middle()
        leaf()

    outer = tracer.wrap(outer, "sim.engine")
    outer()
    got = totals(tracer)
    # outer: 3 own + middle(4) + leaf(2) = 9 inclusive, 3 self.
    assert got["sim.engine"][:3] == [1, 9.0, 3.0]
    # middle: 1 + leaf(2) + 1 = 4 inclusive, 2 self.
    assert got["sensors"][:3] == [1, 4.0, 2.0]
    # leaf twice, 2 s each, no children.
    assert got["power"][:3] == [2, 4.0, 4.0]


def test_reentrant_call_into_same_layer_is_not_a_new_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def dynamic():
        clock.spend(1.0)

    dynamic = tracer.wrap(dynamic, "power")

    def vector():
        clock.spend(2.0)
        dynamic()  # same layer: timed as part of this span

    vector = tracer.wrap(vector, "power")
    vector()
    assert totals(tracer)["power"][:3] == [1, 3.0, 3.0]


def test_layer_reentered_below_another_layer_is_a_new_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def thermal_step():
        clock.spend(1.0)

    step = tracer.wrap(thermal_step, "thermal.step", layer="thermal")

    def kernel():
        clock.spend(0.5)
        step()

    kernel = tracer.wrap(kernel, "sim.kernel")

    def ff():
        clock.spend(2.0)
        kernel()

    ff = tracer.wrap(ff, "thermal.ff", layer="thermal")
    ff()
    got = totals(tracer)
    assert got["thermal.ff"][:3] == [1, 3.5, 2.0]
    assert got["sim.kernel"][:3] == [1, 1.5, 0.5]
    assert got["thermal.step"][:3] == [1, 1.0, 1.0]


def test_units_and_logged_spans_with_parent_and_request():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def execute(spec):
        clock.spend(1.0)
        return spec

    execute = tracer.wrap(
        execute, "service.server.execute", logged=True,
        units=lambda a, k, r: 2.0, request=lambda a, k: f"digest-{a[0]}",
    )

    def sweep():
        execute(7)

    sweep = tracer.wrap(sweep, "sim.batch", logged=True)
    sweep()
    snap = tracer.snapshot()
    assert snap["totals"]["service.server.execute"][3] == 2.0
    spans = {span[0]: span for span in snap["spans"]}
    child, parent = spans["service.server.execute"], spans["sim.batch"]
    assert child[4] == parent[3]  # parent id
    assert child[5] == "digest-7"  # request id
    assert parent[4] == 0


def test_exception_still_closes_the_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.spend(1.0)
        raise ValueError("x")

    boom = tracer.wrap(boom, "dtm")
    with pytest.raises(ValueError):
        boom()
    assert totals(tracer)["dtm"][:3] == [1, 1.0, 1.0]
    assert tracer._state().stack == []


class Model:
    def advance(self, cycles):
        return cycles * 2


def test_install_wraps_and_uninstall_restores():
    original = Model.__dict__["advance"]
    tracer = Tracer()
    tracer.install([(Model, "advance", "uarch", {"units": lambda a, k, r: 1.0})])
    try:
        assert hasattr(Model.__dict__["advance"], WRAPPED_MARK)
        assert Model().advance(3) == 6
        assert totals(tracer)["uarch"][0] == 1
    finally:
        tracer.uninstall()
    assert Model.__dict__["advance"] is original


def test_worker_files_merge_with_parent(tmp_path):
    parent = {
        "totals": {"sim.batch": [2, 1.0, 0.25, 0.0]},
        "spans": [["sim.batch", 0.0, 1.0, 1, 0, 1, 100]],
    }
    workers = [
        {"totals": {"sim.engine": [3, 0.6, 0.5, 3.0],
                    "sim.batch.pool_task": [1, 0.7, 0.1, 0.0]},
         "spans": [["sim.batch.pool_task", 0.1, 0.8, 201_000_000, 0, 1, 201]]},
        {"totals": {"sim.engine": [1, 0.2, 0.1, 1.0]},
         "spans": []},
        {"totals": {"sim.engine": [2, 0.4, 0.3, 2.0],
                    "sim.batch.pool_task": [1, 0.5, 0.1, 0.0]},
         "spans": [["sim.batch.pool_task", 0.2, 0.7, 202_000_000, 0, 1, 202]]},
    ]
    # Two workers; the first appended twice (after each of its tasks).
    (tmp_path / "worker-201.jsonl").write_text(
        json.dumps(workers[0]) + "\n" + json.dumps(workers[1]) + "\n"
    )
    (tmp_path / "worker-202.jsonl").write_text(json.dumps(workers[2]) + "\n")
    (tmp_path / "server-300.jsonl").write_text(json.dumps(workers[2]) + "\n")
    states = read_state_files(tmp_path, "worker-*.jsonl")
    assert len(states) == 3
    merged = merge_states([parent] + states)
    assert merged["totals"]["sim.batch"] == [2, 1.0, 0.25, 0.0]
    assert merged["totals"]["sim.engine"] == pytest.approx([6, 1.2, 0.9, 6.0])
    assert merged["totals"]["sim.batch.pool_task"] == pytest.approx([2, 1.2, 0.2, 0.0])
    assert sorted(span[6] for span in merged["spans"]) == [100, 201, 202]
    # The inputs are not modified by merging.
    assert parent["totals"]["sim.batch"] == [2, 1.0, 0.25, 0.0]


def test_flush_appends_and_clears(tmp_path):
    clock = FakeClock()
    tracer = Tracer(out_dir=tmp_path, clock=clock)
    step = tracer.wrap(lambda: clock.spend(1.0), "thermal.step", layer="thermal")
    step()
    tracer.flush("worker")
    step()
    tracer.flush("worker")
    merged = merge_states(read_state_files(tmp_path, "worker-*.jsonl"))
    assert merged["totals"]["thermal.step"][:2] == [2, 2.0]
    assert tracer.snapshot()["totals"] == {}

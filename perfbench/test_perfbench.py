"""Tests for the benchmark's own helpers: tail selection, the reference
timing, self time from nested spans, leaf aggregation, rebinding, digest
comparison, the budget re-check, and agreement between BENCHMARK.json and
the layer table."""

import gc
import json
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest
from layers import DERIVED, TARGETS, Target, metric_specs, predictions
from reference import REF_SECOND_SLICES, REF_SHARE, ref_seconds, time_reference
from run import compare_digests, tail_percentile
from tracer import Tracer
from workloads import BUDGET, WORKLOADS, budget_violations

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.mark.parametrize("n, expected", [
    (100, (90, 90)),
    (1000, (99, 990)),
    (25, (60, 15)),     # the 11th largest of 25
    (21, (100 * 11 / 21, 11)),
    (20, (100.0, 20)),  # the 11th largest would be below the median
    (1, (100.0, 1)),
])
def test_tail_percentile_returns_percentile_value_and_n(n, expected):
    values = list(range(n, 0, -1))
    p, value, count = tail_percentile(values)
    assert (p, value) == pytest.approx(expected)
    assert count == n
    if p < 100:
        assert sum(v > value for v in values) == 10


def test_tail_percentile_rejects_empty():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_time_reference_runs_slices_for_its_share_and_takes_the_median():
    clock = FakeClock()
    slices = iter([0.02, 0.01, 0.05, 0.02, 0.03, 0.04])

    def work():
        assert not gc.isenabled()
        clock.t += next(slices)

    # 0.09 s of slices: the fourth one crosses it
    assert time_reference(0.09 / REF_SHARE, clock, work) == pytest.approx(0.02)
    assert next(slices) == 0.03
    assert gc.isenabled()


def test_time_reference_runs_at_least_one_slice():
    clock = FakeClock()

    def work():
        clock.t += 0.25

    assert time_reference(0.0, clock, work) == 0.25


def test_ref_seconds_counts_reference_slices():
    assert ref_seconds(3.0, 0.01) == pytest.approx(300 / REF_SECOND_SLICES)


def _nested(tracer, clock):
    def leaf():
        clock.t += 1.0

    leaf_w = tracer.wrap("m.leaf", leaf)

    def middle():
        clock.t += 2.0
        leaf_w()
        leaf_w()

    middle_w = tracer.wrap("m.middle", middle)

    def outer():
        clock.t += 4.0
        middle_w()
        clock.t += 0.5

    return tracer.wrap("m.outer", outer, span=True), leaf_w


def test_self_time_is_span_minus_its_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer, _ = _nested(tracer, clock)
    outer()
    outer()
    stats = tracer.layer_stats()
    assert (stats["m.outer"].calls, stats["m.outer"].total) == (2, 17.0)
    assert stats["m.outer"].self_time == 9.0
    assert (stats["m.middle"].total, stats["m.middle"].self_time) == (8.0, 4.0)
    assert (stats["m.leaf"].calls, stats["m.leaf"].self_time) == (4, 4.0)
    records = tracer.span_records()
    assert [(r["start"], r["end"], r["self_s"]) for r in records] == [
        (0.0, 8.5, 4.5), (8.5, 17.0, 4.5)]


def test_hot_calls_fold_per_parent_span():
    clock = FakeClock()
    tracer = Tracer(clock)
    _, leaf = _nested(tracer, clock)

    def loop():
        for _ in range(1000):
            leaf()

    tracer.unit = 7
    tracer.wrap("m.loop", loop, span=True)()
    (span,) = tracer.spans
    assert list(span.children) == ["m.leaf"]  # one node, not 1000 records
    assert span.children["m.leaf"].calls == 1000
    (record,) = tracer.span_records()
    assert record["unit"] == 7 and record["parent"] is None
    assert record["calls"] == {"m.leaf": {"calls": 1000, "total_s": 1000.0}}


def test_spans_link_to_the_nearest_enclosing_span():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap("m.inner", lambda: None, span=True)
    hot = tracer.wrap("m.hot", inner)
    tracer.wrap("m.top", hot, span=True)()
    top, below = tracer.span_records()
    assert (top["name"], below["name"], below["parent"]) == ("m.top", "m.inner", top["id"])


def test_counter_and_exceptions():
    tracer = Tracer()
    f = tracer.wrap("m.f", lambda x: x > 0, count=lambda args, result: int(result))
    for x in (1, -1, 2):
        f(x)

    def boom():
        raise KeyError("x")

    g = tracer.wrap("m.g", boom)
    with pytest.raises(KeyError):
        g()
    stats = tracer.layer_stats()
    assert (stats["m.f"].calls, stats["m.f"].count) == (3, 2)
    assert stats["m.g"].calls == 1
    assert tracer.stack == [tracer.root]


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    exec("def f():\n    return 1\n"
         "def g():\n    return f() + 1\n", a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.f = a.f  # as ``from .a import f`` leaves it

    class Thing:
        def method(self):
            return a.f()

    a.Thing = Thing
    for name, module in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    return a, b


def test_install_rebinds_imported_names_and_uninstall_restores(fake_package):
    a, b = fake_package
    original = a.f
    tracer = Tracer()
    tracer.install([Target("a.f", "fakepkg.a", "f"),
                    Target("a.g", "fakepkg.a", "g"),
                    Target("a.method", "fakepkg.a:Thing", "method")],
                   package="fakepkg")
    assert b.f is a.f is not original
    a.g()          # calls f through a's own global: nests under g
    b.f()
    a.Thing().method()
    stats = tracer.layer_stats()
    assert stats["a.f"].calls == 3 and stats["a.method"].calls == 1
    assert "a.f" in tracer.root.children["a.g"].children
    tracer.uninstall()
    assert a.f is original and b.f is original
    assert "method" in a.Thing.__dict__ and a.Thing().method() == 1


def test_compare_digests_matches_by_unit_key():
    observed = {"seed=1": "aa", "seed=2": "bb", "seed=3": "cc"}
    reference = {"seed=1": "aa", "seed=2": "xx", "seed=9": "dd"}
    assert compare_digests(observed, reference) == (1, 2, ["seed=2"])
    assert compare_digests(observed, {}) == (0, 0, [])


def _record(pid, day, stamp):
    return SimpleNamespace(pid=pid, day=day, timestamp=stamp)


def test_budget_recheck_flags_each_rule():
    ok = [_record("p1", 1, "2024-01-01T08:00:00"),
          _record("p1", 1, "2024-01-01T10:00:00"),
          _record("p1", 1, "2024-01-01T20:55:00")]
    assert budget_violations(ok, BUDGET) == []
    bad = ok + [_record("p1", 1, "2024-01-01T12:00:00"),   # 4th contact
                _record("p2", 1, "2024-01-01T09:00:00"),
                _record("p2", 1, "2024-01-01T10:55:00"),   # gap < 120 min
                _record("p3", 1, "2024-01-01T21:00:00"),   # outside window
                _record("p4", 6, "2024-01-06T09:00:00")]   # Saturday
    problems = " | ".join(budget_violations(bad, BUDGET))
    for needle in ("p1 day 1: 4 contacts", "p2 day 1: 09:00 and 10:55",
                   "p3 day 1: 21:00 outside", "p4 day 6: contact on a weekend"):
        assert needle in problems


def test_benchmark_json_matches_the_layer_table():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert spec["per_layer"] == metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    table = predictions()
    function_metrics = {f"{t.name}.{s}" for t in TARGETS for s in ("calls", "self_s")}
    assert set(table) == function_metrics | {d.name for d in DERIVED}
    for entry in table.values():
        for metric, workload in entry["moves"]:
            assert metric in end_to_end and workload in WORKLOADS
        assert set(entry["steady"]) <= set(WORKLOADS)

"""Tests of the benchmark's own arithmetic.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run        # noqa: E402
import spans      # noqa: E402
import summary    # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- self time ----------------------------------------------------------------

def test_self_times_on_a_nested_trace():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has two children, both named d: [5, 6] and [7, 8.5]
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    events = [(0.0, "begin", "root"), (1.0, "begin", "a"), (2.0, "begin", "c"),
              (3.0, "end", "c"), (4.0, "end", "a"), (5.0, "begin", "b"),
              (5.0, "begin", "d"), (6.0, "end", "d"), (7.0, "begin", "d"),
              (8.5, "end", "d"), (9.0, "end", "b"), (10.0, "end", "root")]
    open_spans = {}
    for t, kind, name in events:
        clock.now = t
        if kind == "begin":
            open_spans[name] = tracer.begin(name)
        else:
            tracer.end(open_spans.pop(name))
    expected = {"root": 10 - 3 - 4, "a": 3 - 1, "c": 1, "b": 4 - 1 - 1.5,
                "d": 1 + 1.5}
    for name, self_s in expected.items():
        assert tracer.self_s(name) == pytest.approx(self_s), name
    # self times partition the root's duration
    assert sum(expected.values()) == 10.0
    assert tracer.stats["d"][0] == 2
    assert tracer.stats["root"][1] == 10.0
    # raw spans keep their parents
    ids = {name: (sid, parent) for sid, parent, name, _, _ in tracer.spans}
    assert ids["c"][1] == ids["a"][0] and ids["a"][1] == ids["root"][0]
    assert ids["root"][1] is None


def test_an_interrupted_span_is_unwound_by_its_parent():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    outer = tracer.begin("outer")
    clock.now = 1.0
    tracer.begin("inner")          # never ended, as if cut by a timeout
    clock.now = 3.0
    tracer.end(outer)
    assert tracer.self_s("outer") == pytest.approx(3.0)
    assert "inner" not in tracer.stats
    assert tracer._stack == []


def test_generators_are_timed_per_resumption():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def numbers():
        for k in range(3):
            clock.now += 1.0       # work inside the generator
            yield k

    wrapped = spans._wrap(tracer, numbers, "gen", None)
    out = []
    for item in wrapped():
        clock.now += 10.0          # work in the consumer is not charged
        out.append(item)
    assert out == [0, 1, 2]
    assert tracer.counts["gen.calls"] == 1
    assert tracer.counts["gen.yielded"] == 3
    assert tracer.stats["gen"][0] == 4   # three yields and the final return
    assert tracer.self_s("gen") == pytest.approx(3.0)


def test_patches_reach_every_module_that_imported_the_name():
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def target(x):
        return x + 1

    home.target = target
    user.target = target               # imported by name
    pkg = types.ModuleType("fakepkg")
    saved = dict(sys.modules)
    sys.modules.update({"fakepkg": pkg, "fakepkg.home": home,
                        "fakepkg.user": user})
    old_targets = spans.TARGETS
    spans.TARGETS = (("home", "target"),)
    try:
        tracer = spans.Tracer()
        with spans.Patches(tracer, package="fakepkg"):
            assert home.target is user.target is not target
            assert user.target(1) == 2
        assert home.target is user.target is target
        assert tracer.counts["home.target.calls"] == 1
    finally:
        spans.TARGETS = old_targets
        sys.modules.clear()
        sys.modules.update(saved)


# -- the tail percentile --------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 1001))            # 1..1000
    assert summary.tail_percentile(samples) == (99.0, 990, 10)
    samples = list(range(1, 10001))
    assert summary.tail_percentile(samples) == (99.9, 9990, 10)
    samples = list(range(1, 1000))            # 999: p99 leaves only 9
    assert summary.tail_percentile(samples) == (90.0, 900, 99)


def test_tail_with_too_few_samples_is_the_maximum():
    assert summary.tail_percentile([3, 1, 2]) == (100.0, 3, 0)


def test_a_fixed_tail_level_ignores_the_number_of_passes():
    one_pass = list(range(1, 1001))
    four_passes = one_pass * 4
    level = summary.tail_level(len(one_pass))
    assert summary.tail_percentile(four_passes, level) == (99.0, 990, 40)


def test_quartile_spread():
    assert summary.quartile_spread([1.0] * 10) == 0.0
    assert summary.quartile_spread(list(range(1, 11))) == pytest.approx(
        (8.25 - 2.75) / 5.5)


# -- the fingerprint comparator -------------------------------------------------

REF = {"verdicts": {"core/e": "PRUT", "mirror/e": "PP"},
       "totals": {"filters": 2008}}


def _with(group, text, totals=None):
    fp = json.loads(json.dumps(REF))
    fp["verdicts"][group] = text
    if totals is not None:
        fp["totals"] = totals
    return fp


def test_identical_fingerprints_agree():
    assert summary.compare_fingerprints(REF, REF) == []


def test_proved_refuted_flip_is_flagged():
    problems = summary.compare_fingerprints(REF, _with("core/e", "RRUT"))
    assert problems == ["core/e[0]: P->R flip"]
    problems = summary.compare_fingerprints(REF, _with("core/e", "PPUT"))
    assert problems == ["core/e[1]: R->P flip"]


def test_unknown_to_decided_is_allowed_but_not_the_reverse():
    assert summary.compare_fingerprints(REF, _with("core/e", "PRPT")) == []
    assert summary.compare_fingerprints(REF, _with("core/e", "URUT")) == [
        "core/e[0]: P->U"]


def test_timeouts_are_not_compared():
    assert summary.compare_fingerprints(REF, _with("core/e", "TRUP")) == []


def test_changed_totals_and_op_lists_are_flagged():
    problems = summary.compare_fingerprints(REF, _with("core/e", "PRUT",
                                                       {"filters": 2007}))
    assert problems == ["total filters: 2008 -> 2007"]
    problems = summary.compare_fingerprints(REF, _with("core/e", "PRU"))
    assert problems == ["core/e: op list differs from the reference"]


# -- host speed ---------------------------------------------------------------

class StepClock(FakeClock):
    """Advances by the next of `steps` on every second read, so that each
    timed block takes the next step."""

    def __init__(self, steps):
        super().__init__()
        self.steps = list(steps)
        self.reads = 0

    def __call__(self):
        self.reads += 1
        if self.reads % 2 == 0:
            self.now += self.steps.pop(0)
        return self.now


def test_meter_scales_by_the_weighted_mean_block_time():
    ref = hostspeed.REFERENCE_BLOCK_S
    meter = hostspeed.Meter(clock=StepClock([ref, 2 * ref, 4 * ref]),
                            every_s=0.01)
    meter.measure()                # weight 0.01
    assert meter.scale() == pytest.approx(1.0)
    meter.after_op(0.004)          # not yet 10 ms of op time: no block
    assert len(meter.times) == 1
    meter.after_op(0.008)          # now: the second block, weight 0.012
    meter.after_op(0.01)           # the third, weight 0.01
    assert meter.mean_s() == pytest.approx(
        (1 * 0.01 + 2 * 0.012 + 4 * 0.01) / 0.032 * ref)
    assert meter.scale() == pytest.approx(0.032 / 0.074)


def test_long_ops_get_several_blocks():
    ref = hostspeed.REFERENCE_BLOCK_S
    meter = hostspeed.Meter(clock=StepClock([ref] * 40), every_s=0.01)
    meter.after_op(0.035)          # three blocks of 0.035 / 3
    assert len(meter.times) == 3
    meter.after_op(10.0)           # a long op: MAX_BLOCKS blocks
    assert len(meter.times) == 3 + hostspeed.MAX_BLOCKS
    assert meter.scale() == pytest.approx(1.0)


def test_block_does_fixed_work():
    assert hostspeed.block() == hostspeed.block()


def test_time_limit_stretches_with_the_host(monkeypatch):
    seen = []
    monkeypatch.setattr(workloads.signal, "setitimer",
                        lambda which, seconds: seen.append(seconds))
    lib = types.SimpleNamespace(
        sequents=types.SimpleNamespace(parse_sequent=lambda text, lang: "g"),
        search=types.SimpleNamespace(prove=lambda goal, cal: "result",
                                     Proved=int, Refuted=float, Unknown=str))
    query = workloads.Query("g", "g", "g", types.SimpleNamespace(lang=None))
    op = workloads.SequentOp((query,), 0.01)
    state = workloads.PassState(limit_scale=1.5)
    assert workloads.run_sequent_op(lib, op, state) == "U"
    assert seen == [pytest.approx(0.015), 0]


# -- BENCHMARK.json and the harness agree ---------------------------------------

def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    traced = {f"{mod}.{fn}" for mod, fn in spans.TARGETS}
    for name, _ in run.PER_LAYER:
        span, _, what = name.rpartition(".")
        if what in ("calls", "self_s"):
            assert span in traced, name

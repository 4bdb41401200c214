"""Tests of the benchmark's own code: span arithmetic, speed rescaling,
count repeatability and failure accounting. The commands they spawn are small ones, not the
benchmark workloads."""

import json
import signal
import time

import pytest

import run
from calibrate import REF_KERNEL_S, SpeedSampler, reference_seconds
from tracer import Tracer, self_times


def test_self_time_on_a_synthetic_nested_call():
    now = [0]
    tr = Tracer("synthetic", clock=lambda: now[0])

    def slow_count(*args):
        now[0] += 100  # a costly count must not show in any span
        return 7

    def inner():
        now[0] += 5

    inner = tr.wrap("m.inner", inner, [("work", slow_count)])

    def outer():
        now[0] += 1
        inner()
        now[0] += 2
        inner()
        now[0] += 3

    tr.wrap("m.outer", outer)()

    self_ns, calls = self_times(tr.spans, len(tr.names))
    assert dict(zip(tr.names, self_ns)) == {"m.inner": 10, "m.outer": 6}
    assert dict(zip(tr.names, calls)) == {"m.inner": 2, "m.outer": 1}
    outer_span = [s for s in tr.spans if tr.names[s[0]] == "m.outer"][0]
    assert outer_span[2] - outer_span[1] == 16
    assert all(p == -1 for n, _, _, p in tr.spans if tr.names[n] == "m.outer")
    assert tr.counts == {"m.inner.work": 14}


def test_reference_seconds_rescales_and_leaves_kernel_runs_out():
    r = REF_KERNEL_S
    steady = [(float(t), r) for t in range(5)]
    assert reference_seconds(steady, 0.0, 4.0) == pytest.approx(4 - 4 * r)
    assert reference_seconds(steady, -1.0, 0.0) == pytest.approx(1.0)
    assert reference_seconds(steady, 4.5, 5.0) == pytest.approx(0.5)
    half_speed = [(float(t), 2 * r) for t in range(5)]
    assert reference_seconds(half_speed, 0.0, 4.0) == pytest.approx((4 - 8 * r) / 2)
    # one disturbed kernel run is smoothed away but still left out
    outlier = [(0.0, r), (1.0, r), (2.0, 10 * r), (3.0, r), (4.0, r)]
    assert reference_seconds(outlier, 0.0, 4.0) == pytest.approx(4 - 13 * r)
    # speed changes from 1 to 1/2 between two samples: the gap runs at 3/4
    change = [(0.0, r), (1.0, r), (2.0, 2 * r), (3.0, 2 * r)]
    assert reference_seconds(change, 1.0 + r, 2.0) == pytest.approx((1 - r) * 0.75)


def test_speed_sampler_samples_and_restores_the_signal():
    sampler = SpeedSampler(period=0.02)
    sampler.start()
    time.sleep(0.1)
    sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(d > 0 for _, d in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _layers():
    return json.loads(run.SPEC.read_text())["per_layer"]


def test_counts_repeat_exactly_across_traced_runs():
    small = (
        run.Workload(
            name="transgress-e8",
            argv=("transgress", "--group", "elemab:2,3", "--poly", "xyz"),
            marker="cochains.shuffle_transgression",
            units=8,
            required_lines=("check sector-cocycles: pass (8 sectors)",),
        ),
        run.Workload(
            name="fusion-e2",
            argv=("fusion-table", "--group", "elemab:2,1", "--poly", "x3", "--workers", "1"),
            marker="fusion.star",
            units=4 * 4,
            required_lines=("check associativity: pass (all 64 triples)",),
        ),
    )
    spec = _layers()
    counts = {}
    for w in small:
        first, errors = run.traced(w, "0", spec)
        second, errors_again = run.traced(w, "0", spec)
        assert errors == errors_again == []
        counts[w.name] = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
        assert counts[w.name] == {k: second[k]["value"] for k in counts[w.name]}
        assert first["trace.coverage"]["value"] > 0.5
    assert counts["transgress-e8"]["cochains.delta.tuples"] > 0
    assert counts["transgress-e8"]["smith.solve_mod1.entries"] > 0
    assert counts["fusion-e2"]["cyclotomic.mat_mul.entry_mults"] > 0


def test_failed_commands_are_counted_not_raised():
    bad_group = run.Workload(
        name="bad-group",
        argv=("transgress", "--group", "nosuch:3", "--poly", "xyz"),
        marker="cochains.shuffle_transgression",
        units=1,
    )
    t = run.measure(bad_group, "0", 0.0)
    assert t.attempted >= 2 and t.failed == t.attempted
    assert t.first_error.startswith("exit 2")
    assert not (t.wall_s or t.setup_s or t.work_s or t.peak_rss_mb)
    assert t.metrics(1) == {}

    wrong_reference = run.Workload(
        name="wrong-reference",
        argv=("transgress", "--group", "elemab:2,3", "--poly", "xyz"),
        marker="cochains.shuffle_transgression",
        units=8,
        expected="transgress-e16.stdout",
    )
    o = run.spawn(wrong_reference, "0")
    assert o.exit == 0
    assert run.check(wrong_reference, o) == "stdout differs from the reference output"

    o = run.spawn(run.WORKLOADS["fusion-cube"], "0", timeout=0.5)
    assert o.exit < 0
    assert run.check(run.WORKLOADS["fusion-cube"], o).startswith("exit -9")

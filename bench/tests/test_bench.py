"""Tests of the benchmark itself (run with: python3 -m pytest bench/tests).

They cover the percentile rule for item_ref.tail, the meter's time in
refs, the self-time arithmetic, removal of every tracing wrapper and the
correctness gates.
"""

import os
import signal
import statistics
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import expected  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, want", [
    (10, None), (11, (9, 1)), (20, (50, 10)), (24, (58, 14)),
    (100, (90, 90)), (1000, (99, 990)),
])
def test_tail_percentile_leaves_ten_items_beyond(n, want):
    got = run.tail_rank(n)
    assert got == want
    if got is not None:
        assert n - got[1] >= 10


def test_item_stats_reports_tail_only_with_enough_items():
    stats = run.item_stats([float(x) for x in range(1, 25)])
    assert stats["p50"] == 12.0
    assert (stats["tail_percentile"], stats["tail"]) == (58, 14.0)
    assert "tail" not in run.item_stats([1.0] * 10)


def _busy(seconds):
    """Python bytecode for `seconds`, so that signal handlers get to run."""
    n, end = 0, time.perf_counter() + seconds
    while time.perf_counter() < end:
        n += 1
    return n


def test_meter_divides_by_the_slices_and_disarms_its_timer():
    handler = signal.getsignal(signal.SIGALRM)
    meter = run.Meter()
    out, net = meter.timed("x", {}, _busy, 3 * run.PERIOD_S)
    assert out > 0
    assert meter.in_timer > 0  # the timer ran slices while the item ran
    near = [d for s, d in meter.slices]  # all ran within WINDOW_S of it
    assert meter.refs() == [("x", net / statistics.median(near))]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    with pytest.raises(ZeroDivisionError):
        meter.timed("y", {}, lambda n: n / 0, 1)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_meter_takes_the_median_slice_near_each_item(monkeypatch):
    monkeypatch.setattr(run, "WINDOW_S", 0.2)
    meter = run.Meter()
    meter.slices = [(0.0, 1.0), (0.9, 3.0), (1.5, 5.0), (5.0, 100.0)]
    meter.items = [("a", 1.0, 1.4, 6.0), ("b", 4.9, 4.95, 10.0)]
    # a sees the slices that start in [0.8, 1.6], b those in [4.7, 5.15]
    assert meter.refs() == [("a", 6.0 / 4.0), ("b", 10.0 / 100.0)]


def test_self_time_of_a_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has c [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]
    # a window that starts at a nested span ignores parents outside it
    assert spans.self_times(starts, ends, parents, 1, 3) == [2.0, 1.0]


def test_artifact_time_is_not_charged_to_the_check():
    # check [0, 10] builds artifact [1, 7], which calls lattice [2, 6];
    # the check also calls lattice [8, 9] itself
    starts, ends = [0.0, 1.0, 2.0, 8.0], [10.0, 7.0, 6.0, 9.0]
    parents = [-1, 0, 1, 0]
    kept = [True, True, False, False]
    assert spans.nested_self_times(starts, ends, parents, kept) == \
        {0: 4.0, 1: 6.0}


def test_item_self_times_partition_the_item_wall():
    tracer = spans.Tracer()
    inner = tracer._wrap(lambda: sum(range(1000)), "lattice.x", "lattice",
                         always=True)
    outer = tracer._wrap(lambda: [inner() for _ in range(3)], "abelian.y",
                         "abelian")
    with tracer.item("one"):
        outer()
    item = tracer.items[0]
    assert set(item["self_s"]) == {"lattice", "abelian"}
    assert abs(sum(item["self_s"].values()) + item["remainder_s"]
               - item["wall_s"]) < 1e-9
    assert tracer.per_layer()["lattice.calls"] == 3


def test_every_wrapper_is_removed_after_a_traced_item():
    before = run._layer_functions()
    wl = workloads.ResolutionWorkload()
    item = next(i for i in wl.setup(0) if i.subject == "C3/Z/-3..2")
    tracer = spans.Tracer()
    with tracer:
        assert run._layer_functions()[("tatelab.abelian", "_snf_data")] \
            is not before[("tatelab.abelian", "_snf_data")]
        with tracer.item(item.subject):
            records = wl.run_item(item)
    after = run._layer_functions()
    assert all(r["ok"] for r in records)
    assert [k for k in before if after[k] is not before[k]] == []
    assert set(before) == set(after)
    layer = tracer.per_layer()
    assert layer["lattice.snf.calls"] > 0
    assert layer["cohomology.TateCohomology.homology.calls"] == 6
    assert tracer.counters()["cohomology.cochain_rank.max"] > 0


def _tiny_campaign(reference):
    data = os.path.join(os.path.dirname(BENCH), "src", "tatelab", "data")
    return workloads.InstanceWorkload([("C2", 0)], (), data, reference)


def test_gate_trips_on_a_corrupted_reference_digest():
    wl = _tiny_campaign("0" * 64)
    records = wl.run_item(wl.setup(0)[0])
    report = wl.report(records)
    gates = {name: ok for name, ok, _ in wl.gates(records, report)}
    assert gates == {"record set": True, "report sha256": False}
    import hashlib
    good = _tiny_campaign(hashlib.sha256(report.encode()).hexdigest())
    assert all(ok for _, ok, _ in good.gates(records, report))
    tally = run.Tally()
    tally.add_records(records)
    tally.add_gates(wl.gates(records, report))
    assert not tally.correct and tally.failed == 1


def test_missing_records_and_empty_runs_never_pass():
    wl = _tiny_campaign("0" * 64)
    records = wl.run_item(wl.setup(0)[0])
    kept = records[1:]
    gates = dict((n, ok) for n, ok, _ in wl.gates(kept, wl.report(kept)))
    assert gates["record set"] is False
    assert not run.Tally().correct


def test_resolution_gate_trips_on_a_wrong_table(monkeypatch):
    wl = workloads.ResolutionWorkload()
    item = next(i for i in wl.setup(3) if i.subject == "C2/Z/-3..2")
    assert all(r["ok"] for r in wl.run_item(item))
    monkeypatch.setattr(expected, "tate", lambda g, m, i: ((3,), "wrong"))
    assert not any(r["ok"] for r in wl.run_item(item))


def test_z6_table_follows_from_the_z_table():
    # S3: H^-1(Z) = 0 and H^0(Z) = Z/6 give H^-1(Z/6) = Z/6
    assert expected.tate("S3", "Z/6", -1)[0] == (6,)
    # V4: H^-3(Z) = Z/2, H^-2(Z) = (Z/2)^2 give (Z/2)^3
    assert expected.tate("V4", "Z/6", -3)[0] == (2, 2, 2)
    assert expected.tate("Q8", "Z", 2)[0] == (2, 2)

"""tatelab benchmark: one command, three workloads, end-to-end metrics or a
traced per-layer run.

    python3 bench/run.py --workload campaign --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it are for people.

--trace 0 reports the end-to-end metrics (setup_s, wall_ref, item_ref.p50,
peak_rss_mb) with no wrappers installed; wall_ref and item_ref.p50 are
times in slices of a fixed reference computation (see Meter), which keeps
them steady while the host's speed drifts.  --trace 1 runs the fixed work
once untraced and once under the span tracer (spans.py) and reports the
per-layer metrics in seconds and counts; spans and per-item sizes go to
bench/out/.

The exit code is 0 when every output matched its reference, 1 when a
correctness gate failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 2
HASH_SEED = "0"  # PYTHONHASHSEED of every benchmark process
EDGE_SLICES = 5  # slices of reference work at each item boundary
PERIOD_S = 0.1  # a slice every PERIOD_S while an item runs
WINDOW_S = 0.2  # slices this close to an item set its speed


def tail_rank(n, beyond=10):
    """(percentile, 1-based nearest rank) of the highest whole percentile
    with at least `beyond` of n items strictly above it, or None."""
    if n <= beyond:
        return None
    p = (100 * (n - beyond)) // n
    rank = -(-p * n // 100)  # ceil(p * n / 100)
    return p, rank


def item_stats(times):
    """p50 and the tail percentile of per-item times, both by nearest
    rank, so each is the time of one item."""
    xs = sorted(times)
    out = {"count": len(xs), "p50": xs[(len(xs) + 1) // 2 - 1]}
    tr = tail_rank(len(xs))
    if tr is not None:
        out["tail_percentile"], rank = tr
        out["tail"] = xs[rank - 1]
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("campaign", "stress", "resolution"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and set up, print the set-up time")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import tatelab from ./src of this checkout, never from elsewhere."""
    init = os.path.join(SRC, "tatelab", "__init__.py")
    if not os.path.isfile(init):
        raise RuntimeError(f"{init} not found; run from a tatelab source "
                           "checkout")
    sys.path.insert(0, SRC)
    import tatelab
    if os.path.dirname(os.path.abspath(tatelab.__file__)) != \
            os.path.dirname(init):
        raise RuntimeError(f"tatelab imported from {tatelab.__file__}")
    import workloads
    return workloads


def timed_setup(name, seed):
    """(workloads module, workload, items, seconds): import plus set-up."""
    t0 = time.perf_counter()
    workloads = import_program()
    wl = workloads.make(name, os.path.join(SRC, "tatelab", "data"))
    items = wl.setup(seed)
    return workloads, wl, items, time.perf_counter() - t0


def setup_probe(args):
    """The set-up time of this workload and seed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "1",
         "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Tally:
    """Correctness bookkeeping across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_records(self, records):
        self.attempted += len(records)
        for r in records:
            if not r["ok"]:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{r['subject']} {r['id']}: "
                                         f"{r['witness']!r}"[:300])

    def add_gates(self, gates):
        for name, ok, detail in gates:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(f"gate {name}: {detail}"[:300])

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0


def reference_work(n=32, p=1_000_003):
    """One slice of fixed work in plain Python: Gaussian elimination mod p
    on an n x n integer matrix, row operations on lists of ints, the kind
    of work tatelab's lattice layer spends its time on.  It belongs to the
    benchmark, not to the program, so a change to the program leaves it
    alone."""
    rng = random.Random(0)
    m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        g = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(g * x - f * y) % p for x, y in zip(m[i], m[k])]
    return m


class Meter:
    """Times work in slices of the reference work ("ref") as well as in
    seconds.  On a shared host the processor's speed drifts, by half within
    minutes at times, and the slices slow down with it.  Slices run at
    every item boundary and, through a real-time interval timer, every
    PERIOD_S while an item runs.  An item's time in refs is its time over
    the median slice that started during it or within WINDOW_S of it; the
    timer's slices are subtracted from the item's time."""

    def __init__(self):
        self.slices = []  # (start, seconds) of each slice
        self.items = []  # (name, start, end, seconds net of timer slices)
        self.in_timer = 0.0  # seconds spent in slices the timer ran
        self.edge()

    def _slice(self):
        enabled = gc.isenabled()
        gc.disable()  # the program's garbage is not the slice's to collect
        try:
            t = time.perf_counter()
            reference_work()
            self.slices.append((t, time.perf_counter() - t))
        finally:
            if enabled:
                gc.enable()

    def edge(self):
        for _ in range(EDGE_SLICES):
            self._slice()

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self._slice()
        self.in_timer += time.perf_counter() - t

    def timed(self, name, sizes, fn, arg):
        """(fn(arg), seconds net of the timer's slices)."""
        spent = self.in_timer
        handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t = time.perf_counter()
        try:
            out = fn(arg)
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
            self.edge()
        net = end - t - (self.in_timer - spent)
        self.items.append((name, t, end, net))
        return out, net

    def refs(self):
        """[(name, time in refs)] of each item timed, in order."""
        out = []
        for name, t, end, net in self.items:
            near = [d for s, d in self.slices
                    if t - WINDOW_S <= s <= end + WINDOW_S]
            out.append((name, net / statistics.median(near)))
        return out


def tracer_timed(tracer):
    """A `timed` for run_pass that records each item as a span tree."""
    def timed(name, sizes, fn, arg):
        t = time.perf_counter()
        with tracer.item(name, **sizes):
            out = fn(arg)
        return out, time.perf_counter() - t
    return timed


def run_pass(wl, items, tally, timed):
    """All items once, then the report and the whole-pass gates, each run
    through timed(name, sizes, fn, arg) -> (fn(arg), seconds).  Returns the
    seconds of the items that did not raise, in order, then the report's."""
    secs, records = [], []
    for item in items:
        try:
            recs, sec = timed(item.subject, item.sizes, wl.run_item, item)
            secs.append(sec)
        except Exception as exc:  # an item that raises fails, the run goes on
            recs = [{"subject": item.subject, "id": "raised", "ok": False,
                     "witness": f"{type(exc).__name__}: {exc}"}]
        records.extend(recs)
    report, sec = timed("report", {}, wl.report, records)
    tally.add_records(records)
    tally.add_gates(wl.gates(records, report))
    return secs + [sec]


def end_to_end(args, wl, items, setup_s, tally, deadline):
    """Cycles of one set-up in a fresh interpreter and one metered pass,
    until the next cycle would end after `deadline` (at least MIN_PASSES
    cycles), then set-ups in fresh interpreters until the next would end
    after it."""
    setups, walls, wall_refs, per_item = [setup_s], [], [], {}
    cycle = time.perf_counter()
    while True:
        t = time.perf_counter()
        setups.append(setup_probe(args))
        probe = time.perf_counter() - t
        meter = Meter()
        walls.append(sum(run_pass(wl, items, tally, meter.timed)))
        refs = meter.refs()
        wall_refs.append(sum(r for _, r in refs))
        for name, r in refs[:-1]:  # the last is the report
            per_item.setdefault(name, []).append(r)
        now = time.perf_counter()
        if len(walls) >= MIN_PASSES and now + (now - cycle) > deadline:
            break
        cycle = now
        # Each pass starts from freshly built inputs, as a new `selftest`
        # does; passes over reused instances run measurably slower.
        items = wl.setup(args.seed)
    while True:
        t = time.perf_counter()
        if t + probe > deadline:
            break
        setups.append(setup_probe(args))
        probe = time.perf_counter() - t
    stats = item_stats([statistics.median(v) for v in per_item.values()])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"set-up times (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"passes: {len(walls)}, wall times (s): "
          f"{', '.join(f'{w:.3f}' for w in walls)}, in refs: "
          f"{', '.join(f'{w:.1f}' for w in wall_refs)}")
    if "tail" in stats:
        print(f"item_ref.tail: p{stats['tail_percentile']} of "
              f"{stats['count']} items = {stats['tail']:.4f} ref")
    else:
        print(f"item_ref.tail: not reported, {stats['count']} items "
              "(needs more than 10)")
    return {
        "setup_s": (min(setups), "s"),
        "wall_ref": (statistics.median(wall_refs), "ref"),
        "item_ref.p50": (stats["p50"], "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced(args, wl, items, tally, names):
    untraced_wall = sum(run_pass(wl, items, tally, Meter().timed))
    tracer = spans.Tracer()
    before = _layer_functions()
    with tracer:
        with tracer.item("setup"):
            traced_items = wl.setup(args.seed)
        traced_wall = sum(run_pass(wl, traced_items, tally,
                                   tracer_timed(tracer)))
    leftover = [k for k, v in _layer_functions().items()
                if before.get(k) is not v]
    tally.add_gates([("wrappers removed", not leftover, f"{leftover[:5]}")])
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"trace-{args.workload}")
    tracer.write(stem)
    layer = tracer.per_layer()
    layer.update(tracer.counters())
    layer["trace.overhead_ratio"] = traced_wall / untraced_wall
    print(f"untraced pass {untraced_wall:.3f} s, traced pass "
          f"{traced_wall:.3f} s, {len(tracer.start)} spans -> {stem}.*")
    return {name: (layer.get(name, 0), per_layer_unit(name))
            for name in names}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def _layer_functions():
    """Every function-valued attribute of the tatelab modules and their
    classes, plus the check registry, keyed by where it is looked up."""
    import tatelab
    import tatelab.analysis
    found = {}
    mods = [sys.modules[f"tatelab.{m}"] for m in spans.MODULES] + [tatelab]
    for mod in mods:
        for attr, obj in vars(mod).items():
            found[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for a, o in vars(obj).items():
                    found[(mod.__name__, attr, a)] = o
    for cid, entry in tatelab.analysis.CHECKS.items():
        found[("CHECKS", cid)] = entry
    return found


def per_layer_names(check_ids):
    """Every per-layer metric, in the order they are printed."""
    names = []
    for m in spans.MODULES:
        names += [f"{m}.calls", f"{m}.self_s"]
    for e in spans.ENTRY_POINTS:
        names += [f"{e}.calls", f"{e}.self_s"]
    names += ["lattice.snf.cells", "lattice.snf.max_cells",
              "lattice.snf.repeat_ratio", "lattice.IntMatrix.mul.cells",
              "cohomology.cochain_rank.max", "cohomology.TateCohomology.calls",
              "cohomology.TateCohomology.repeat_ratio"]
    names += [f"analysis.artifact.{a}.self_s" for a in spans.ARTIFACTS]
    names += [f"analysis.check.{c}.self_s" for c in check_ids]
    names += ["trace.overhead_ratio", "trace.remainder_s", "trace.spans"]
    return names


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        workloads, wl, items, setup_s = timed_setup(args.workload, args.seed)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tally = Tally()
        print(f"workload {args.workload}, seed {args.seed}, {len(items)} "
              f"items, trace {args.trace}")
        if args.trace:
            metrics = traced(args, wl, items, tally,
                             per_layer_names(workloads.CHECK_IDS))
        else:
            metrics = end_to_end(args, wl, items, setup_s, tally,
                                 started + args.seconds)
    except Exception as exc:  # the benchmark itself could not run
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"records attempted {tally.attempted}, failed {tally.failed}, "
          f"fail_ratio {tally.failed / max(tally.attempted, 1):.6f}")
    for line in tally.problems:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set and dict order over strings follows the hash seed, and the
        # same pass over the same inputs read about 7% more refs under
        # some seeds than under others; every run uses the same one.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())

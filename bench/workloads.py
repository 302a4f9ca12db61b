"""The benchmark's workloads, driven through tatelab's public API.

Each workload turns the workload seed into a list of items during set-up,
runs one item at a time (a closed loop with one client), and checks every
output against an independent reference:

- `campaign`: the shape of `tatelab selftest` (7 catalog groups, synthesis
  seeds 0-1, every default check) plus the three shipped instances loaded
  through instance_io, sqrt34 with its unit fixture.  Many small instances,
  so per-call overhead in lattice/abelian and the analysis orchestration
  dominate.  The report bytes must hash to the digest recorded from the
  seed commit.
- `stress`: two direct products outside the catalog, registered under the
  fixed names C2xC4 and C2xC6 (synth_instance seeds its RNG from the
  name).  Larger cochain ranks make dense Smith forms and matrix products
  dominate.
- `resolution`: pure Tate cohomology of Z, Z/6 and Z[G]; it reaches only
  lattice, abelian, groups, gmodules and cohomology, and deep bar degrees
  give tall, very sparse matrices.  Answers are compared with expected.py.

The instance sets of `campaign` and `stress` are fixed: per-instance cost
varies about a hundredfold with the synthesis seed (0.03 s to 7.5 s), so
drawing instances from the workload seed would swamp any bound on wall
time.  There the seed sets the order in which the client submits the
items.  In `resolution` the seed also relabels the elements of every group
(a random isomorphic multiplication table), which changes every matrix
while the expected answers stay the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

# Functions are called through their modules, so that the traced run's
# wrappers, which rebind module attributes, see the benchmark's own calls.
from tatelab import analysis, cft, gmodules, groups, instance_io
from tatelab.abelian import FgAb
from tatelab.cohomology import TateCohomology, TateComplex
from tatelab.lattice import IntMatrix
from tatelab.reporting import Report

import expected

CATALOG = ("C2", "C3", "C4", "V4", "S3", "D4", "Q8")
CAMPAIGN_SEEDS = 2  # `tatelab selftest --seeds 2`; one pass takes ~11 s
SHIPPED = (("i2_twist", None), ("i2_plain", None),
           ("sqrt34", "sqrt34_units"))
DIRECT_PRODUCTS = {"C2xC4": (2, 4), "C2xC6": (2, 6)}
STRESS = (("C2xC4", 0), ("C2xC4", 1), ("C2xC6", 0))

# The default checks of run_analysis, listed here so that a check the
# program stops running shows up as a missing record.
DEFAULT_CHECKS = ("cdc.inclusions", "conn.functorial", "delta1.factors",
                  "delta2.agree", "instance.valid", "nabla.class",
                  "norm.suite", "scripth.embedding", "scripth.lifts",
                  "snake.aux_units", "snake.closed_form", "wrb.exact",
                  "x.generator_iso", "x.h_minus1_zero")
CHECK_IDS = DEFAULT_CHECKS + ("fixture.units",)

RESOLUTION = (
    [(g, "Z", (-3, 2)) for g in CATALOG]
    + [(g, "Z/6", (-3, 2)) for g in CATALOG]
    + [(g, "Z[G]", (-3, 2)) for g in CATALOG[:5]]
    + [(g, "Z", (-4, 3)) for g in CATALOG[:5]])

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


class Item:
    """One unit of work whose time to verdict is measured."""

    __slots__ = ("subject", "payload", "sizes")

    def __init__(self, subject, payload, sizes=None):
        self.subject = subject
        self.payload = payload
        self.sizes = sizes or {}


def register_direct_products():
    for name, (a, b) in DIRECT_PRODUCTS.items():
        groups.GROUP_CATALOG[name] = (
            lambda a=a, b=b: groups.direct_product(groups.cyclic(a),
                                                   groups.cyclic(b)))


class InstanceWorkload:
    """Campaign and stress: run_analysis per instance, reported as
    `selftest` reports its campaign."""

    def __init__(self, synth, shipped, data_dir, reference):
        self.synth = synth
        self.shipped = shipped
        self.data_dir = data_dir
        self.reference = reference

    def setup(self, seed):
        items = []
        for group, s in self.synth:
            inst = cft.synth_instance(group, s)
            items.append(Item(f"{group}/{s}", (inst, None, s),
                              {"order": inst.group.order,
                               "cl_order": inst.cl.underlying.order()}))
        for stem, fixture in self.shipped:
            inst = instance_io.load_instance(os.path.join(self.data_dir, stem + ".json"))
            fx = None
            if fixture:
                fx = instance_io.load_fixture(
                    os.path.join(self.data_dir, fixture + ".json"),
                    inst.group)
            items.append(Item(stem, (inst, fx, 0),
                              {"order": inst.group.order,
                               "cl_order": inst.cl.underlying.order()}))
        random.Random(seed).shuffle(items)
        return items

    def run_item(self, item):
        inst, fixture, s = item.payload
        records = analysis.run_analysis(inst, seed=s, fixture=fixture)
        for r in records:
            r["subject"] = item.subject
        return records

    def expected_pairs(self):
        pairs = {(f"{g}/{s}", cid) for g, s in self.synth
                 for cid in DEFAULT_CHECKS}
        for stem, fixture in self.shipped:
            ids = CHECK_IDS if fixture else DEFAULT_CHECKS
            pairs |= {(stem, cid) for cid in ids}
        return pairs

    def report(self, records):
        """The deterministic report, serialized as `selftest` does."""
        names = sorted({g for g, _ in self.synth}, key=_catalog_order)
        seeds = sorted({s for _, s in self.synth})
        totals = {}
        failures = []
        for r in records:
            t = totals.setdefault(r["id"], {"pass": 0, "fail": 0})
            t["pass" if r["ok"] else "fail"] += 1
            if not r["ok"]:
                failures.append(r["subject"])
        meta = {"groups": names, "seeds": len(seeds), "totals": totals,
                "shipped": [stem for stem, _ in self.shipped]}
        if failures:
            meta["first_failing"] = sorted(failures)[0]
        rep = Report("selftest", f"groups={','.join(names)} "
                                 f"seeds={len(seeds)}", records, meta=meta)
        return rep.to_json()

    def gates(self, records, report_text):
        """(name, ok, detail) for each whole-pass correctness gate."""
        got = {(r["subject"], r["id"]) for r in records}
        want = self.expected_pairs()
        digest = hashlib.sha256(report_text.encode()).hexdigest()
        return [
            ("record set", got == want and len(records) == len(want),
             f"missing {sorted(want - got)[:5]} extra {sorted(got - want)[:5]}"
             f" records {len(records)}/{len(want)}"),
            ("report sha256", digest == self.reference,
             f"{digest} != reference {self.reference}"),
        ]


def _catalog_order(g):
    return (CATALOG.index(g), g) if g in CATALOG else (len(CATALOG), g)


def relabel(group, rng):
    """An isomorphic copy of `group` with its elements renumbered."""
    n = group.order
    new = list(range(n))
    rng.shuffle(new)
    old = [0] * n
    for o, p in enumerate(new):
        old[p] = o
    table = [[new[group.mul(old[a], old[b])] for b in range(n)]
             for a in range(n)]
    return groups.group_from_table(table)


def module_for(group, kind):
    if kind == "Z":
        return gmodules.trivial_module(group)
    if kind == "Z/6":
        return gmodules.trivial_module(group, FgAb(1, IntMatrix([[6]])))
    if kind == "Z[G]":
        return gmodules.regular_module(group)
    raise KeyError(kind)


class ResolutionWorkload:
    """Tate cohomology of standard modules at every degree of a window."""

    def setup(self, seed):
        rng = random.Random(seed)
        grps = {g: relabel(groups.named_group(g), rng) for g in CATALOG}
        items = []
        for g, kind, window in RESOLUTION:
            grp = grps[g]
            items.append(Item(f"{g}/{kind}/{window[0]}..{window[1]}",
                              (g, grp, kind, module_for(grp, kind), window),
                              {"order": grp.order}))
        rng.shuffle(items)
        return items

    def run_item(self, item):
        g, grp, kind, module, window = item.payload
        calc = TateCohomology(TateComplex(grp, window), module)
        records = []
        for i in range(window[0], window[1] + 1):
            h = calc.group(i)
            got = (h.free_rank(), h.invariant_factors())
            want, source = expected.tate(g, kind, i)
            records.append({"subject": item.subject, "id": f"H^{i}",
                            "ok": got == (0, want),
                            "witness": {"got": got, "want": want,
                                        "source": source}})
        return records

    def expected_pairs(self):
        return {(f"{g}/{kind}/{w[0]}..{w[1]}", f"H^{i}")
                for g, kind, w in RESOLUTION
                for i in range(w[0], w[1] + 1)}

    def report(self, records):
        return None

    def gates(self, records, report_text):
        got = {(r["subject"], r["id"]) for r in records}
        want = self.expected_pairs()
        return [("record set", got == want and len(records) == len(want),
                 f"missing {sorted(want - got)[:5]} "
                 f"extra {sorted(got - want)[:5]}")]


def make(name, data_dir):
    """The workload called `name`; data_dir holds the shipped instances."""
    if name == "resolution":
        return ResolutionWorkload()
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    if name == "campaign":
        synth = [(g, s) for s in range(CAMPAIGN_SEEDS) for g in CATALOG]
        return InstanceWorkload(synth, SHIPPED, data_dir, refs["campaign"])
    if name == "stress":
        register_direct_products()
        return InstanceWorkload(list(STRESS), (), data_dir, refs["stress"])
    raise KeyError(name)

"""Acceptance suite: one test per criterion, exact tolerances throughout.

The instance campaign (criteria 4 to 9) runs once, module-scoped: 15
seeds for each of the seven named groups plus the two worked binary
instances, with every per-instance check recorded.  Each criterion prints
its own pass/fail line.
"""

import random
import subprocess
import sys
import time

import pytest

from tatelab.abelian import FgAb
from tatelab.analysis import run_analysis
from tatelab.cft import i2_plain, i2_twist, quadratic_sqrt34, synth_instance
from tatelab.cohomology import (CohClass, Cocycle1, TateCohomology,
                                TateComplex, build_ext1_data,
                                cocycle_to_extension, connecting_hom,
                                cup_with_h1, ext1_class_to_h2,
                                extension_to_cocycle, induced_map,
                                shapiro_hminus2)
from tatelab.gmodules import (GModule, direct_sum, hom_and_tensor,
                              regular_module, trivial_module)
from tatelab.groups import abelianization, named_group
from tatelab.lattice import IntMatrix

GROUPS = ["C2", "C3", "C4", "V4", "S3", "D4", "Q8"]
CAMPAIGN_SEEDS = 15


def _invariants(a):
    """(free rank, invariant factors): equal iff the groups are
    isomorphic."""
    return (a.free_rank(), a.invariant_factors())


def _report(num, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def _random_finite_module(group, reg, rng):
    m = rng.choice([2, 3, 4, 5, 6, 8, 9])
    n = reg.underlying.n
    cols = [[m if i == j else 0 for i in range(n)] for j in range(n)]
    for _ in range(rng.randint(0, 2)):
        v = [rng.randint(-2, 2) for _ in range(n)]
        for g in range(group.order):
            cols.append(list(reg.act(g, v)))
    ab = FgAb(n, IntMatrix.from_columns([tuple(c) for c in cols], n))
    return GModule(group, ab, reg.action, check=False)


def test_criterion_1_resolution_correctness(direct_formula):
    t0 = time.monotonic()
    rng = random.Random(101)
    for name in GROUPS:
        g = named_group(name)
        cx = TateComplex(g, (-4, 3))
        reg = regular_module(g)
        reg_calc = TateCohomology(cx, reg)
        for i in range(-3, 3):
            assert reg_calc.group(i).is_trivial(), (name, i)
        for k in range(50):
            mod = _random_finite_module(g, reg, rng)
            calc = TateCohomology(cx, mod)
            direct0, direct1 = direct_formula(mod)
            assert _invariants(calc.group(-1)) == \
                _invariants(direct1.group), (name, k)
            assert _invariants(calc.group(0)) == \
                _invariants(direct0.group), (name, k)
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 120,
            f"acyclicity + 350 random-module agreements in {elapsed:.1f}s")


def test_criterion_2_standard_values():
    for name in GROUPS:
        g = named_group(name)
        cx = TateComplex(g, (-4, 3))
        z = trivial_module(g)
        calc = TateCohomology(cx, z)
        gab, _ = abelianization(g)
        assert calc.group(-2).invariant_factors() == gab.invariant_factors()
        assert calc.group(-1).is_trivial()
        assert calc.group(0).invariant_factors() == (g.order,)
    for name in ["C2", "C3", "C4"]:
        g = named_group(name)
        cx = TateComplex(g, (-4, 3))
        for mod in [trivial_module(g),
                    trivial_module(g, FgAb(1, IntMatrix([[6]])))]:
            calc = TateCohomology(cx, mod)
            for i in range(-4, 2):
                assert _invariants(calc.group(i)) == \
                    _invariants(calc.group(i + 2)), \
                    (name, i)
    _report(2, True, "H^-2 = G^ab, H^-1(Z) = 0, H^0 = Z/|G|, cyclic "
                     "periodicity with exact invariant factors")


def _nonzero_class(calc, deg):
    h = calc.homology(deg)
    for e in h.group.elements():
        if not h.group.is_zero(e):
            return CohClass(calc, deg, h.rep_of(e))
    return None


def _all_classes(calc, deg, limit=None):
    h = calc.homology(deg)
    out = [CohClass(calc, deg, h.rep_of(e))
           for e in h.group.elements()]
    return out[:limit] if limit else out


def _random_cocycle(calc_hom, hom, rng):
    h1 = calc_hom.homology(1)
    elems = list(h1.group.elements())
    rep = h1.rep_of(elems[rng.randrange(len(elems))])
    m = [rng.randint(-2, 2) for _ in range(hom.module.underlying.n)]
    cob = calc_hom.differential(0).apply(m)
    return Cocycle1.from_cochain(hom.module,
                                 tuple(a + b for a, b in zip(rep, cob)))


def test_criterion_3_section3_lemma_suite():
    # Shapiro generator map on >= 10 subgroup pairs
    pairs = 0
    for name in GROUPS:
        g = named_group(name)
        cx = TateComplex(g, (-2, 1))
        subs = g.all_subgroups()
        chosen = [subs[0], subs[-1]] + ([subs[len(subs) // 2]]
                                        if len(subs) > 2 else [])
        for sub in chosen:
            iso, hab, calc, ind = shapiro_hminus2(cx, sub)
            assert iso.is_injective() and iso.is_surjective(), \
                (name, sub.elems)
            pairs += 1
    assert pairs >= 10
    # extension <-> cocycle roundtrips, class preserving, >= 50
    rng = random.Random(103)
    roundtrips = 0
    while roundtrips < 50:
        g = named_group(rng.choice(["C2", "C3", "C4", "V4"]))
        cx = TateComplex(g, (-2, 1))
        cmod = trivial_module(g, FgAb(rng.randint(1, 2)))
        amod = trivial_module(g, FgAb(1, IntMatrix([[rng.choice([2, 3, 4])]])))
        ht = hom_and_tensor(cmod, amod)
        hom = ht["hom"]
        calc_hom = TateCohomology(cx, hom.module)
        f = _random_cocycle(calc_hom, hom, rng)
        ext = cocycle_to_extension(hom, f)
        f2 = extension_to_cocycle(hom, ext)
        assert CohClass(calc_hom, 1, f.as_cochain()) == \
            CohClass(calc_hom, 1, f2.as_cochain())
        roundtrips += 1
    # connecting = evaluation after cup at degrees -2 -> -1, >= 25
    cups = 0
    rng = random.Random(104)
    while cups < 25:
        g = named_group(rng.choice(["C2", "C3", "C4"]))
        cx = TateComplex(g, (-3, 2))
        cmod = trivial_module(g, FgAb(rng.randint(1, 2)))
        amod = trivial_module(g, FgAb(1, IntMatrix([[rng.choice([2, 3, 4])]])))
        ht = hom_and_tensor(cmod, amod)
        hom = ht["hom"]
        calc_hom = TateCohomology(cx, hom.module)
        f = _random_cocycle(calc_hom, hom, rng)
        ext = cocycle_to_extension(hom, f)
        calc_c = TateCohomology(cx, cmod)
        calc_a = TateCohomology(cx, amod)
        delta = connecting_hom(ext, -2, calc_c, calc_a,
                               TateCohomology(cx, ext.b))
        for z in _all_classes(calc_c, -2, limit=2):
            cup, ca = cup_with_h1(cx, f, z)
            push = induced_map(cup.calc, calc_a, ht["evaluation"], -1)
            assert delta(z) == push(cup)
            cups += 1
    # |Ext^1(aug, A)| = |H^2(A)| on random finite modules
    rng = random.Random(105)
    for name in ["C2", "C3", "V4"]:
        g = named_group(name)
        cx = TateComplex(g, (-2, 3))
        for _ in range(3):
            amod = trivial_module(
                g, FgAb(1, IntMatrix([[rng.choice([2, 3, 4, 5, 6])]])))
            data = build_ext1_data(g, amod)
            calc_c = TateCohomology(cx, data["ext"].c)
            calc_a = TateCohomology(cx, amod)
            assert calc_c.group(1).order() == calc_a.group(2).order()
    _report(3, True, f"Shapiro on {pairs} pairs, {roundtrips} roundtrips, "
                     f"{cups} cup agreements, Ext/H^2 order matches")


@pytest.fixture(scope="module")
def campaign():
    t0 = time.monotonic()
    instances = [("i2_twist", i2_twist()), ("i2_plain", i2_plain())]
    for name in GROUPS:
        for seed in range(CAMPAIGN_SEEDS):
            instances.append((f"{name}/{seed}",
                              synth_instance(name, seed)))
    results = {}
    for label, inst in instances:
        seed = int(label.split("/")[1]) if "/" in label else 0
        results[label] = {r["id"]: r
                          for r in run_analysis(inst, seed=seed)}
    return {"results": results, "elapsed": time.monotonic() - t0,
            "count": len(instances)}


def _campaign_all_ok(campaign, check_id):
    bad = [label for label, recs in campaign["results"].items()
           if not recs[check_id]["ok"]]
    return not bad, bad


def test_criterion_4_headline_connecting_map(campaign):
    ok, bad = _campaign_all_ok(campaign, "delta2.agree")
    assert ok, bad
    # worked instance: both maps are the nonzero morphism of 2-element
    # groups
    it = i2_twist()
    cx = TateComplex(it.group, (-2, 1))
    from tatelab.cft import xy_modules
    from tatelab.tate_sequence import (build_nabla, build_script_h,
                                       build_snake, build_wrb,
                                       generator_chain)
    xy = xy_modules(it)
    wrb = build_wrb(it, xy)
    snake = build_snake(it, wrb, build_script_h(it))
    nabla = build_nabla(it, wrb, snake)
    calc_x, calc_cl = TateCohomology(cx, xy.x), TateCohomology(cx, it.cl)
    delta = connecting_hom(nabla.ext, -2, calc_x, calc_cl,
                           TateCohomology(cx, nabla.ext.b))
    assert calc_x.group(-2).invariant_factors() == (2,)
    assert calc_cl.group(-1).invariant_factors() == (2,)
    z = generator_chain(cx, it, xy, calc_x, "p1", 1)
    assert not delta(z).is_zero()
    within = campaign["elapsed"] < 600
    _report(4, within,
            f"generic = closed form on {campaign['count']} instances "
            f"(campaign {campaign['elapsed']:.0f}s)")


def test_criterion_5_snake_closed_forms(campaign):
    ok1, bad1 = _campaign_all_ok(campaign, "snake.closed_form")
    ok2, bad2 = _campaign_all_ok(campaign, "snake.aux_units")
    ok3, bad3 = _campaign_all_ok(campaign, "scripth.embedding")
    ok4, bad4 = _campaign_all_ok(campaign, "scripth.lifts")
    _report(5, ok1 and ok2 and ok3 and ok4,
            f"snake closed forms, auxiliary units and the embedding on "
            f"{campaign['count']} instances "
            f"{bad1 + bad2 + bad3 + bad4 or ''}")


def test_criterion_6_nabla_class(campaign):
    ok, bad = _campaign_all_ok(campaign, "nabla.class")
    _report(6, ok, f"pushout class = snake cocycle class on "
                   f"{campaign['count']} instances {bad or ''}")


def test_criterion_7_x_structure(campaign):
    ok1, bad1 = _campaign_all_ok(campaign, "x.h_minus1_zero")
    ok2, bad2 = _campaign_all_ok(campaign, "x.generator_iso")
    _report(7, ok1 and ok2,
            f"H^-1(X) = 0 and the generator isomorphism on "
            f"{campaign['count']} instances {bad1 + bad2 or ''}")


def test_criterion_8_norm_suite(campaign):
    ok1, bad1 = _campaign_all_ok(campaign, "norm.suite")
    ok2, bad2 = _campaign_all_ok(campaign, "cdc.inclusions")
    # hand-derived values on the worked instances
    from tatelab.cft import norm_model
    from tatelab.tate_sequence import subgroups_cdc
    it, ip = i2_twist(), i2_plain()
    nm_t, nm_p = norm_model(it), norm_model(ip)
    cdc_t, cdc_p = (subgroups_cdc(inst, TateCohomology(
        TateComplex(inst.group, (-2, 1)), inst.cl)) for inst in (it, ip))
    hand = (nm_t.q.order() == 1 and nm_p.q.order() == 2
            and nm_t.ker.dom.order() == 2 and nm_p.ker.dom.order() == 1
            and cdc_t.cbar.dom.order() == 2
            and cdc_p.cbar.dom.order() == 1)
    _report(8, ok1 and ok2 and hand,
            f"norm kernel decompositions on {campaign['count']} instances; "
            f"worked values Q = 0 vs Z/2, kernels Z/2 vs 0 "
            f"{bad1 + bad2 or ''}")


def test_criterion_9_delta1_well_defined(campaign):
    ok, bad = _campaign_all_ok(campaign, "delta1.factors")
    samples = 0
    for recs in campaign["results"].values():
        w = recs["delta1.factors"]["witness"]
        if isinstance(w, dict):
            samples += w.get("samples", 0)
    _report(9, ok and samples >= 50,
            f"representative invariance over {samples} randomized pairs "
            f"{bad or ''}")


def test_criterion_10_fixture_path():
    from importlib.resources import files
    from tatelab.instance_io import load_fixture
    from tatelab.tate_sequence import subgroups_cdc
    from tatelab.unit_fixture import fixture_unit_check
    inst = quadratic_sqrt34()
    cx = TateComplex(inst.group, (-2, 1))
    fx = load_fixture(str(files("tatelab") / "data" / "sqrt34_units.json"),
                      inst.group)
    calc_cl = TateCohomology(cx, inst.cl)
    recs = fixture_unit_check(inst, fx, calc_cl,
                              subgroups_cdc(inst, calc_cl))
    ok = bool(recs) and all(r["ok"] for r in recs)
    _report(10, ok, "real-field unit fixture passes all assertions")


def test_criterion_11_determinism(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"st{k}.json"
        r = subprocess.run([sys.executable, "-m", "tatelab.cli", "selftest",
                            "--groups", "C2,C3", "--seeds", "2",
                            "--out", str(out)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    _report(11, outs[0] == outs[1],
            "back-to-back selftests produce byte-identical reports")

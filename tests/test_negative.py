"""Negative tests: a corrupted artifact must make exactly the check that
compares it fail, with its named witness.

Valid input cannot reach these failures, since each connecting map is
built by `connecting_hom` from the analysis graph, each short exact
sequence by the checked `ExtensionData`, and the snake and the embedding
of the class module by their builders from the instance.  So each test
patches one builder in `analysis.ARTIFACTS`, to add a nonzero class to a
connecting map, to break the exactness of a sequence, or to move the
snake or the embedding, and runs the checks that read it through
`run_analysis`.  x.generator_iso shares every artifact it reads with
other checks, so its tests patch instead the one function that only it
calls, the abelianization of the decomposition groups, or patch a shared
function only while that check runs.
"""

from types import SimpleNamespace

import pytest

from tatelab import tate_sequence
from tatelab.abelian import FgAb
from tatelab.analysis import (ARTIFACTS, CHECKS, DEFAULT_CHECKS,
                              AnalysisContext, run_analysis)
from tatelab.cft import c_p, i2_plain, i2_twist, synth_instance, xy_modules
from tatelab.cohomology import CohClass
from tatelab.gmodules import GMap
from tatelab.groups import subgroup_as_group
from tatelab.lattice import IntMatrix
from tatelab.tate_sequence import (ImageEscapesCl, aux_unit_in_r,
                                   build_snake, build_wrb, generator_chain)


def nonzero_class(calc, degree):
    """The class of the first generator of H^degree, the first unit
    canonical coordinate."""
    h = calc.homology(degree)
    cls = CohClass(calc, degree, h.rep_of(h.group.gen(0)))
    assert not cls.is_zero()
    return cls


def test_delta2_agree_names_a_moved_generator_chain(monkeypatch):
    """On i2_twist, H^-1(Cl) = Z/2.  A delta_nabla moved by the nonzero
    class at the chain of (p1, tau), tau not the identity, fails
    delta2.agree with (p1, tau, lhs, rhs) in canonical coordinates."""
    inst = i2_twist()
    xy = xy_modules(inst)
    pl = inst.other_places()[0]
    tau = next(t for t in pl.subgroup.elems if t != inst.group.identity)
    build, reads = ARTIFACTS["delta_nabla"]
    seen = {}

    def moved_builder(nabla, calc_x, calc_cl, calc_nabla):
        delta = build(nabla, calc_x, calc_cl, calc_nabla)
        target = generator_chain(inst, xy, calc_x, pl.id, tau).rep
        seen["calc_cl"] = calc_cl
        extra = seen["extra"] = nonzero_class(calc_cl, -1)
        return lambda z: (delta(z).add(extra) if z.rep == target
                          else delta(z))

    assert run_analysis(inst, checks=["delta2.agree"])[0]["ok"]
    monkeypatch.setitem(ARTIFACTS, "delta_nabla", (moved_builder, reads))
    (rec,) = run_analysis(inst, checks=["delta2.agree"])
    rhs = CohClass(seen["calc_cl"], -1, c_p(inst, pl.id, tau))
    lhs = rhs.add(seen["extra"])
    assert lhs != rhs
    assert (rec["ok"], rec["witness"]) == \
        (False, (pl.id, tau, lhs.canon, rhs.canon))


def test_delta1_factors_names_the_moved_sample(monkeypatch):
    """On i2_plain, H^0(ker s) = Z/2.  A delta_unit moved by its nonzero
    class disagrees with the formula on the first sample, and
    delta1.factors fails with the {"coeffs", "witness"} record: the
    witness is (generic, formula), generic the formula's class plus the
    added one."""
    inst = i2_plain()
    build, reads = ARTIFACTS["delta_unit"]
    seen = {}

    def moved_builder(d1, calc_cl, calc_k, calc_r):
        delta = build(d1, calc_cl, calc_k, calc_r)
        seen["calc_k"] = calc_k
        extra = seen["extra"] = nonzero_class(calc_k, 0)
        return lambda cls: delta(cls).add(extra)

    (rec,) = run_analysis(inst, checks=["delta1.factors"])
    assert rec["ok"] and rec["witness"]["samples"] >= 1, rec
    monkeypatch.setitem(ARTIFACTS, "delta_unit", (moved_builder, reads))
    (rec,) = run_analysis(inst, checks=["delta1.factors"])
    assert not rec["ok"]
    assert set(rec["witness"]) == {"coeffs", "witness"}
    generic, formula = rec["witness"]["witness"]
    calc_k = seen["calc_k"]
    want = CohClass(calc_k, 0, calc_k.homology(0).rep_of(formula)).add(
        seen["extra"])
    assert generic == want.canon != formula
    assert set(rec["witness"]["coeffs"]) == {q.id for q in inst.aux_places}


def test_wrb_exact_fails_with_the_sequence_builders_witness(monkeypatch):
    """Exactness of 0 -> R -> B -> X -> 0 is proved once, by the checked
    ExtensionData of the `rbx` artifact, which `wrb.exact` and
    `delta_rbx` read.  Valid input builds an exact sequence, so the `rbx`
    builder is patched to double B -> X: on i2_twist X = Z, so the right
    map is not onto.  Exactly the two checks that read the sequence fail,
    each with the builder's ValueError, and the other twelve pass."""
    build, reads = ARTIFACTS["rbx"]

    def doubled(wrb):
        mat = IntMatrix([[2]]).kron(wrb.b_to_x.ab.mat)
        return build(SimpleNamespace(r_to_b=wrb.r_to_b,
                                     b_to_x=GMap(wrb.b, wrb.x, mat)))

    monkeypatch.setitem(ARTIFACTS, "rbx", (doubled, reads))
    records = run_analysis(i2_twist())
    assert [r["id"] for r in records] == sorted(DEFAULT_CHECKS)
    failed = {r["id"]: r["witness"] for r in records if not r["ok"]}
    witness = "ValueError: right map is not surjective"
    assert failed == {"wrb.exact": witness, "conn.functorial": witness}
    assert len(records) - len(failed) == 12


def failed_checks(records):
    assert [r["id"] for r in records] == sorted(DEFAULT_CHECKS)
    return {r["id"]: r["witness"] for r in records if not r["ok"]}


def test_snake_aux_units_names_a_moved_auxiliary_unit(monkeypatch):
    """The snake sends an auxiliary unit to its Frobenius class by
    construction: its auxiliary columns are the classes kappa(Frob_q) - 1
    of the quotient, pulled back through the injective embedding.  So the
    `snake` builder is patched to add t: R -> Cl, the map through the
    first auxiliary copy Z[G] -> Cl, 1 -> d, with d = (s - 1)c for the
    first generator s and Smith generator c.  On D4/0, Cl = (Z/3)^2 and
    d != 0, so snake.aux_units fails naming q0, whose unit now goes to
    Frob_q0 + d.  Nothing else sees t: the distinguished elements have no
    auxiliary part, t factors through Z[G], whose H^-1 is 0, and d lies
    in I_G Cl, so its class in H^-1(Cl) is 0 and the unit sequence's
    formula still agrees."""
    inst = synth_instance("D4", 0)
    cl, ab = inst.cl, inst.cl.underlying
    q = inst.aux_places[0]
    s = inst.group.generating_set()[0]
    c = ab.smith_gens()[0]
    d = ab.sub(cl.act(s, c), c)
    assert not ab.is_zero(d)
    build, reads = ARTIFACTS["snake"]
    seen = {}

    def moved_builder(inst, wrb, sh):
        snake = build(inst, wrb, sh)
        n = inst.group.order
        off = next(o for kind, pid, _, o in wrb.w_blocks
                   if (kind, pid) == ("aux", q.id))
        to_cl = IntMatrix._trusted_columns([cl.act(g, d) for g in range(n)],
                                           ab.n)
        proj = IntMatrix._from_sparse_columns(
            [{j - off: 1} if off <= j < off + n else {}
             for j in range(wrb.w.underlying.n)], n)
        t = GMap(wrb.r, cl, to_cl.mul(proj).mul(wrb.r_incl.ab.mat))
        seen["wrb"] = wrb
        seen["snake"] = GMap(wrb.r, cl, snake.ab.add(t.ab))
        return seen["snake"]

    assert failed_checks(run_analysis(inst)) == {}
    monkeypatch.setitem(ARTIFACTS, "snake", (moved_builder, reads))
    assert failed_checks(run_analysis(inst)) == {"snake.aux_units": q.id}
    # the witness replays: the unit of q0 goes to Frob_q0 + d
    got = seen["snake"].apply(aux_unit_in_r(inst, seen["wrb"], q.id))
    assert ab.eq(got, ab.add(q.frobenius, d))


def test_scripth_embedding_names_a_kernel(monkeypatch):
    """The class module embeds into the quotient I_GS / L of the extension
    group: kappa is injective and L meets no kappa(c) - 1 but 0.  So the
    `script_h` builder is patched to double the embedding.  On S3/0,
    Cl = Z/6, and 2e kills 3Cl = Z/2: scripth.embedding fails.  The snake
    pulls back through the embedding, and 2e misses the odd classes, so
    every check that reads the snake fails with the snake builder's
    ImageEscapesCl; scripth.lifts, which reads the quotient's action and
    not the embedding, passes, as do the checks that read neither."""
    inst = synth_instance("S3", 0)
    assert inst.cl.underlying.invariant_factors() == (6,)
    build, reads = ARTIFACTS["script_h"]
    seen = {}

    def doubled(inst):
        sh = seen["sh"] = build(inst)
        sh.e = GMap(inst.cl, sh.module, IntMatrix([[2]]).kron(sh.e.ab.mat))
        sh.embeds = sh.e.ab.is_injective()
        return sh

    monkeypatch.setitem(ARTIFACTS, "script_h", (doubled, reads))
    escape = ("ImageEscapesCl: snake image escapes the class module at R "
              "generator 0")
    reading_snake = ("snake.aux_units", "snake.closed_form", "nabla.class",
                     "delta2.agree", "conn.functorial", "delta1.factors")
    assert failed_checks(run_analysis(inst)) == {
        "scripth.embedding": "embedding has a kernel",
        **{cid: escape for cid in reading_snake}}
    # the witnesses replay: 2e has kernel 3Cl, and the snake escapes it
    sh = seen["sh"]
    kernel, _ = sh.e.ab.kernel()
    assert kernel.order() == 2
    with pytest.raises(ImageEscapesCl, match="generator 0"):
        build_snake(inst, build_wrb(inst, xy_modules(inst)), sh)


def test_x_generator_iso_names_doubled_decomposition_relations(monkeypatch):
    """x.generator_iso compares ker(sum of G_p^ab -> G^ab) with H^-2(X),
    and is the only check that reads the decomposition abelianizations:
    `tate_sequence.abelianization` has no other caller.  Valid input
    presents them correctly, so that function is patched to double the
    relations of every G_p^ab, the abelianization of G itself kept.  On
    i2_twist, G = G_p0 = G_p1 = C2 and H^-2(X) = Z/2; the kernel of
    Z/4 + Z/4 -> Z/2 has order 16 / 2 = 8, so the orders differ, and no
    other check moves."""
    inst = i2_twist()
    real = tate_sequence.abelianization

    def doubled(group):
        ab, proj = real(group)
        if group is inst.group:
            return ab, proj
        rel = IntMatrix._from_sparse_columns(
            [{i: 2 * x for i, x in col.items()} for col in ab.rel._columns],
            ab.n)
        return FgAb(ab.n, rel), proj

    ctx = AnalysisContext(inst)
    assert ctx.get("calc_x").group(-2).order() == 2
    assert failed_checks(run_analysis(inst)) == {}
    monkeypatch.setattr(tate_sequence, "abelianization", doubled)
    assert [doubled(subgroup_as_group(pl.subgroup)[0])[0].order()
            for pl in inst.places] == [4, 4]
    assert failed_checks(run_analysis(inst)) == {
        "x.generator_iso": "orders differ: 8 vs 2"}


def test_x_generator_iso_names_negated_decomposition_words(monkeypatch):
    """The same function is patched to negate the words w(tau) of every
    G_p^ab, again keeping G's: g -> -w(g) is still a homomorphism, so the
    kernel and the isomorphism are unchanged, but x_p(tau) now goes to
    minus the class of its chain.  On C3/1, H^-2(X) = Z/3 and p1 has the
    trivial decomposition group, so the first tau of p2 that is not the
    identity fails with (p2, tau, -want, want), and no other check
    moves."""
    inst = synth_instance("C3", 1)
    real = tate_sequence.abelianization

    def negated(group):
        ab, proj = real(group)
        if group is inst.group:
            return ab, proj
        return ab, [tuple(-x for x in w) for w in proj]

    assert failed_checks(run_analysis(inst)) == {}
    monkeypatch.setattr(tate_sequence, "abelianization", negated)
    failed = failed_checks(run_analysis(inst))
    assert set(failed) == {"x.generator_iso"}
    place, tau, got, want = failed["x.generator_iso"]
    pl = inst.places[2]
    assert place == pl.id and len(pl.subgroup.elems) == 3
    assert tau == next(t for t in pl.subgroup.elems
                       if t != inst.group.identity)
    # the witness replays: want is the class of the chain of tau, and got
    # is its negative, another class of H^-2(X) = Z/3
    calc_x = AnalysisContext(inst).get("calc_x")
    h = calc_x.group(-2)
    assert h.invariant_factors() == (3,)
    assert want == generator_chain(inst, xy_modules(inst), calc_x, pl.id,
                                   tau).canon
    assert got == h.canon(h.neg(want)) != want


def test_x_generator_iso_names_a_map_that_is_not_bijective(monkeypatch):
    """Once the orders agree, x.generator_iso decides bijectivity by
    injectivity alone.  While that check runs, and only then,
    `generator_chain` sends every tau to the chain of the identity, the
    zero class.  On i2_twist the kernel of Z/2 + Z/2 -> Z/2 and H^-2(X)
    both have order 2, so the chain map is zero and not injective.  The
    later comparison of x_p(tau) with its chain would not see this, its
    `want` being zero too; no other check moves."""
    inst = i2_twist()
    anchor, check = CHECKS["x.generator_iso"]
    real = tate_sequence.generator_chain

    def zero_chain(inst, xy, calc_x, place_id, tau):
        return real(inst, xy, calc_x, place_id, inst.group.identity)

    def zero_chain_check(*args):
        with monkeypatch.context() as m:
            m.setattr(tate_sequence, "generator_chain", zero_chain)
            return check(*args)

    assert AnalysisContext(inst).get("calc_x").group(-2).order() == 2
    monkeypatch.setitem(CHECKS, "x.generator_iso",
                        (anchor, zero_chain_check))
    assert failed_checks(run_analysis(inst)) == {
        "x.generator_iso": "generator map is not bijective"}

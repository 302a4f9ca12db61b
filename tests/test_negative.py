"""Negative tests: a corrupted artifact must make exactly the check that
compares it fail, with its named witness.

Valid input cannot reach these failures, since each connecting map is
built by `connecting_hom` from the analysis graph and each short exact
sequence by the checked `ExtensionData`.  So each test patches one builder
in `analysis.ARTIFACTS`, to add a nonzero class to a connecting map or to
break the exactness of a sequence, and runs the checks that read it
through `run_analysis`.
"""

from types import SimpleNamespace

from tatelab.analysis import ARTIFACTS, DEFAULT_CHECKS, run_analysis
from tatelab.cft import c_p, i2_plain, i2_twist, xy_modules
from tatelab.cohomology import CohClass
from tatelab.gmodules import GMap
from tatelab.lattice import IntMatrix
from tatelab.tate_sequence import generator_chain


def unit(k, j):
    return tuple(int(i == j) for i in range(k))


def nonzero_class(calc, degree):
    """The class of the first unit canonical coordinate of H^degree."""
    h = calc.homology(degree)
    cls = CohClass(calc, degree,
                   h.rep_of(unit(len(h.group.canonical_moduli()), 0)))
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
        target = generator_chain(calc_x.complex, inst, xy, calc_x, pl.id,
                                 tau).rep
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

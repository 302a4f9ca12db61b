import random
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from tatelab.abelian import AbMap, FgAb, Homology
from tatelab.cft import i2_plain, i2_twist, synth_instance, xy_modules
from tatelab.cohomology import (MAX_WINDOW, CohClass, Cocycle1,
                                DegreeMismatch, DegreeOutOfWindow,
                                ExtensionData, TateCohomology, TateComplex,
                                WindowTooLarge,
                                build_ext1_data, connecting_hom,
                                cocycle_to_extension, cup_with_h1,
                                ext1_class_to_h2, extension_to_cocycle,
                                induced_map, shapiro_hminus2)
from tatelab.gmodules import (GMap, GModule, direct_sum, hom_and_tensor,
                              regular_module, trivial_module)
from tatelab.groups import Subgroup, named_group
from tatelab.lattice import IntMatrix
from tatelab.tate_sequence import (build_nabla, build_script_h, build_snake,
                                   build_wrb)


def _invariants(a):
    """(free rank, invariant factors): equal iff the groups are
    isomorphic."""
    return (a.free_rank(), a.invariant_factors())


def z_mod(group, m):
    return trivial_module(group, FgAb(1, IntMatrix([[m]])))


def nonzero_class(calc, deg):
    h = calc.homology(deg)
    for e in h.group.elements():
        if not h.group.is_zero(e):
            return CohClass(calc, deg, h.rep_of(h.group.canon(e)))
    return None


def all_classes(calc, deg):
    h = calc.homology(deg)
    return [CohClass(calc, deg, h.rep_of(h.group.canon(e)))
            for e in h.group.elements()]


def test_window_and_ranks():
    c2 = named_group("C2")
    with pytest.raises(WindowTooLarge):
        TateComplex(c2, (-6, 3))
    cx = TateComplex(c2, (-4, 3))
    assert [cx.rank(i) for i in (-3, -2, -1, 0, 1, 2)] == [4, 2, 1, 1, 2, 4]
    with pytest.raises(DegreeOutOfWindow):
        TateCohomology(cx, trivial_module(c2)).homology(-5)
    triv = TateComplex(named_group("1"), (-3, 3))
    assert all(triv.rank(i) == 1 for i in triv.degrees())


def ring_compose_is_zero(cx, i):
    """Whether d^{i+1} . d^i = 0 as matrices over the group ring."""
    grp = cx.group
    a = cx.ring_differential(i)
    b = cx.ring_differential(i + 1)
    for col in a.values():
        acc = {}
        for mid, zg1 in col.items():
            for tgt, zg2 in b.get(mid, {}).items():
                bucket = acc.setdefault(tgt, {})
                for g2, c2 in zg2.items():
                    for g1, c1 in zg1.items():
                        g = grp.mul(g2, g1)
                        bucket[g] = bucket.get(g, 0) + c1 * c2
        if any(any(bucket.values()) for bucket in acc.values()):
            return False
    return True


def test_ring_level_complex():
    for name in ["C2", "C3", "S3"]:
        cx = TateComplex(named_group(name), (-3, 2))
        for i in range(-4, 3):
            assert ring_compose_is_zero(cx, i), (name, i)


def test_standard_values_c2():
    c2 = named_group("C2")
    cx = TateComplex(c2, (-4, 3))
    calc = TateCohomology(cx, trivial_module(c2))
    assert calc.group(-2).invariant_factors() == (2,)
    assert calc.group(-1).is_trivial()
    assert calc.group(0).invariant_factors() == (2,)
    assert calc.group(1).is_trivial()
    assert calc.group(2).invariant_factors() == (2,)
    calc2 = TateCohomology(cx, z_mod(c2, 2))
    assert calc2.group(1).invariant_factors() == (2,)
    h = TateCohomology(cx, trivial_module(c2)).homology(-2)
    assert h.group.invariant_factors() == (2,)


def test_trivial_group_vanishing():
    cx = TateComplex(named_group("1"), (-3, 3))
    calc = TateCohomology(cx, trivial_module(named_group("1"), FgAb(1)))
    for i in range(-3, 4):
        assert calc.group(i).is_trivial(), i


def test_acyclicity_small():
    for name in ["C2", "C3", "V4"]:
        g = named_group(name)
        cx = TateComplex(g, (-3, 2))
        calc = TateCohomology(cx, regular_module(g))
        for i in range(-2, 2):
            assert calc.group(i).is_trivial(), (name, i)


def test_direct_formula_agreement_random_modules(direct_formula):
    rng = random.Random(11)
    for name in ["C2", "C3", "V4", "S3"]:
        g = named_group(name)
        cx = TateComplex(g, (-2, 1))
        reg = regular_module(g)
        for _ in range(6):
            m = rng.choice([2, 3, 4, 5])
            n = reg.underlying.n
            cols = [[m if i == j else 0 for i in range(n)] for j in range(n)]
            v = [rng.randint(-2, 2) for _ in range(n)]
            for gg in range(g.order):
                cols.append(list(reg.act(gg, v)))
            mod = GModule(g, FgAb(n, IntMatrix.from_columns(
                [tuple(c) for c in cols], n)), reg.action)
            calc = TateCohomology(cx, mod)
            direct0, direct1 = direct_formula(mod)
            assert _invariants(calc.group(0)) == _invariants(direct0.group)
            assert _invariants(calc.group(-1)) == _invariants(direct1.group)
            # class-level agreement at -1 (class_of returns canon coords)
            h, d1 = calc.homology(-1), direct1.group
            for e in list(d1.elements())[:6]:
                rep = direct1.rep_of(d1.canon(e))
                assert (not any(h.class_of(rep))) == d1.is_zero(e)
            # class-level agreement at 0: c -> direct class of (rep of c)
            # is an additive bijection from the resolution's H^0 onto
            # M^G / N M
            h0, d0 = calc.group(0), direct0.group
            phi = {c: direct0.class_of(calc.rep_of(0, c))
                   for c in map(h0.canon, h0.elements())}
            assert sorted(phi.values()) == sorted(map(d0.canon,
                                                      d0.elements()))
            for a in phi:
                for b in phi:
                    ab = h0.canon(h0.add(h0.from_canon(a), h0.from_canon(b)))
                    assert phi[ab] == d0.canon(d0.add(d0.from_canon(phi[a]),
                                                      d0.from_canon(phi[b])))


def test_induced_modules_vanish():
    s3 = named_group("S3")
    cx = TateComplex(s3, (-3, 2))
    reg = regular_module(s3)
    calc = TateCohomology(cx, reg)
    for i in range(-3, 3):
        assert calc.group(i).is_trivial(), i


def test_cyclic_periodicity():
    for name in ["C2", "C3", "C4"]:
        g = named_group(name)
        cx = TateComplex(g, (-4, 3))
        for mod in [trivial_module(g), z_mod(g, 6)]:
            calc = TateCohomology(cx, mod)
            for i in range(-4, 2):
                assert _invariants(calc.group(i)) == \
                    _invariants(calc.group(i + 2))


def test_connecting_hom_examples():
    c2 = named_group("C2")
    cx = TateComplex(c2, (-4, 3))
    rng = random.Random(1)
    # multiplication by 2 on Z, trivial action: delta at degree 0 is zero
    z = trivial_module(c2)
    cok, proj = GMap(z, z, IntMatrix([[2]])).cokernel()
    ext = ExtensionData(GMap(z, z, IntMatrix([[2]])), proj)
    calc_c, calc_a = TateCohomology(cx, cok), TateCohomology(cx, z)
    delta = connecting_hom(cx, ext, 0, calc_c=calc_c, calc_a=calc_a)
    gen = nonzero_class(calc_c, 0)
    assert calc_a.group(1).is_trivial()
    assert delta(gen).is_zero()
    # same sequence with the sign action: delta is injective Z/2 -> Z/2
    zs = GModule(c2, FgAb(1), [IntMatrix([[1]]), IntMatrix([[-1]])])
    coks, projs = GMap(zs, zs, IntMatrix([[2]])).cokernel()
    exts = ExtensionData(GMap(zs, zs, IntMatrix([[2]])), projs)
    calc_cs, calc_as = TateCohomology(cx, coks), TateCohomology(cx, zs)
    assert calc_as.group(1).invariant_factors() == (2,)
    deltas = connecting_hom(cx, exts, 0, calc_c=calc_cs, calc_a=calc_as)
    gens = nonzero_class(calc_cs, 0)
    assert not deltas(gens).is_zero()
    # lift randomization leaves the value unchanged
    for _ in range(5):
        sec = IntMatrix([[exts.section_matrix().entries[0][0]
                          + 2 * rng.randint(-3, 3)]])
        alt = connecting_hom(cx, exts, 0, calc_c=calc_cs, calc_a=calc_as,
                             section=sec)
        assert alt(gens) == deltas(gens)
    # 2-4-2 sequence: delta nonzero at degree -1
    z2m, z4m = z_mod(c2, 2), z_mod(c2, 4)
    ext3 = ExtensionData(GMap(z2m, z4m, IntMatrix([[2]])),
                         GMap(z4m, z2m, IntMatrix([[1]])))
    calc2 = TateCohomology(cx, z2m)
    delta3 = connecting_hom(cx, ext3, -1, calc_c=calc2, calc_a=calc2)
    g = nonzero_class(calc2, -1)
    assert not delta3(g).is_zero()
    # split extensions: zero connecting map in every degree
    sm, injs, projs2 = direct_sum([z2m, z2m])
    es = ExtensionData(injs[0], projs2[1])
    calc_es = TateCohomology(cx, es.c)
    for deg in (-2, -1, 0, 1):
        dd = connecting_hom(cx, es, deg, calc_c=calc_es)
        for cls in all_classes(calc_es, deg):
            assert dd(cls).is_zero()


def test_shapiro_pairs():
    pairs = []
    for name in ["C2", "C3", "C4", "V4", "S3", "D4", "Q8"]:
        g = named_group(name)
        subs = g.all_subgroups()
        pairs.append((g, subs[0]))            # trivial subgroup
        pairs.append((g, subs[-1]))           # full group
        if len(subs) > 2:
            pairs.append((g, subs[1]))
    count = 0
    for g, sub in pairs:
        cx = TateComplex(g, (-2, 1))
        iso, hab, calc, induced = shapiro_hminus2(cx, g, sub)
        assert iso.is_injective() and iso.is_surjective(), \
            (g.order, sub.elems)
        assert _invariants(iso.dom) == _invariants(iso.cod)
        count += 1
    assert count >= 10


def test_shapiro_s3_c3():
    s3 = named_group("S3")
    cx = TateComplex(s3, (-2, 1))
    iso, hab, calc, ind = shapiro_hminus2(cx, s3,
                                          Subgroup(s3, s3.closure([1])))
    assert iso.dom.invariant_factors() == (3,)
    assert iso.cod.invariant_factors() == (3,)


def random_cocycle(calc_hom, hom, rng):
    h1 = calc_hom.homology(1)
    elems = [e for e in h1.group.elements()]
    e = elems[rng.randrange(len(elems))]
    rep = h1.rep_of(h1.group.canon(e))
    # shift by a random coboundary
    m = [rng.randint(-2, 2) for _ in range(hom.module.underlying.n)]
    cob = calc_hom.differential(0).apply(m)
    return Cocycle1.from_cochain(
        hom.module, tuple(a + b for a, b in zip(rep, cob)))


def test_extension_cocycle_roundtrips():
    rng = random.Random(23)
    done = 0
    while done < 50:
        gname = rng.choice(["C2", "C3", "C4", "V4"])
        g = named_group(gname)
        cx = TateComplex(g, (-2, 1))
        cmod = trivial_module(g, FgAb(rng.randint(1, 2)))
        amod = z_mod(g, rng.choice([2, 3, 4]))
        ht = hom_and_tensor(cmod, amod)
        hom = ht["hom"]
        calc_hom = TateCohomology(cx, hom.module)
        f = random_cocycle(calc_hom, hom, rng)
        ext = cocycle_to_extension(hom, f)
        f2 = extension_to_cocycle(hom, ext)
        assert CohClass(calc_hom, 1, f.as_cochain()) == \
            CohClass(calc_hom, 1, f2.as_cochain())
        # and back again: the rebuilt extension yields the same class
        ext2 = cocycle_to_extension(hom, f2)
        f3 = extension_to_cocycle(hom, ext2)
        assert CohClass(calcHom := calc_hom, 1, f3.as_cochain()) == \
            CohClass(calc_hom, 1, f.as_cochain())
        done += 1


def _shifted_section(ext, rng):
    """Another Z-linear section of B ->> C: the default one plus the image
    of a random matrix under A -> B."""
    sec = ext.section_matrix()
    na = ext.a.underlying.n
    shift = ext.a_to_b.ab.mat.mul(IntMatrix(
        [[rng.randint(-2, 2) for _ in range(sec.cols)] for _ in range(na)],
        cols=sec.cols))
    return IntMatrix([[a + b for a, b in zip(ra, rb)]
                      for ra, rb in zip(sec.entries, shift.entries)],
                     cols=sec.cols)


def _assert_cocycle_matches_reference(hom, ext, reference, rng, label):
    """extension_to_cocycle, with the default and a shifted section, has
    the values of the all-elements reference, as elements of Hom(C, A)
    (the coordinates may differ by its relations)."""
    ab = hom.module.underlying
    for sec in (None, _shifted_section(ext, rng)):
        got = extension_to_cocycle(hom, ext, section=sec).values
        want = reference(hom, ext, section=sec)
        for g, (a, b) in enumerate(zip(got, want)):
            assert ab.eq(a, b), (label, sec is None, g)


def test_extension_to_cocycle_matches_all_elements_reference(
        corpus, extension_cocycle_reference):
    """Values built from the generators against one lift per element: on
    extensions rebuilt from random cocycles (trivial and regular C over
    the abelian catalog groups and S3) and on the nabla sequence of every
    campaign and stress instance."""
    rng = random.Random(31)
    for gname in ("C2", "C3", "C4", "V4", "S3"):
        g = named_group(gname)
        cx = TateComplex(g, (-2, 1))
        for cmod in (trivial_module(g, FgAb(2)), regular_module(g)):
            hom = hom_and_tensor(cmod, z_mod(g, rng.choice([2, 3, 4])))["hom"]
            f = random_cocycle(TateCohomology(cx, hom.module), hom, rng)
            _assert_cocycle_matches_reference(
                hom, cocycle_to_extension(hom, f),
                extension_cocycle_reference, rng, gname)
    for name, inst in corpus:
        xy = xy_modules(inst)
        wrb = build_wrb(inst, xy)
        snake = build_snake(inst, wrb, build_script_h(inst))
        nabla = build_nabla(inst, wrb, snake)
        _assert_cocycle_matches_reference(nabla.hom_x_cl, nabla.ext,
                                          extension_cocycle_reference, rng,
                                          name)


def test_norm_splice_and_twisted_middle_action():
    c2 = named_group("C2")
    cx = TateComplex(c2, (-2, 1))
    # the middle splice is multiplication by the full group-element sum
    norm_col = cx.ring_differential(-1)[0][0]
    assert norm_col == {0: 1, 1: 1}
    # twisted middle of the extension built from the nonzero cocycle:
    # the action table is sigma(a, c) = (a + c mod 2, c)
    z2m = z_mod(c2, 2)
    ht = hom_and_tensor(trivial_module(c2), z2m)
    ext = cocycle_to_extension(ht["hom"], Cocycle1(ht["hom"].module,
                                                   [(0,), (1,)]))
    b = ext.b
    assert b.underlying.torsion_order() == 2 and b.underlying.free_rank() == 1
    assert b.act(1, (0, 1)) == (1, 1)
    assert b.act(1, (1, 0)) == (1, 0)
    assert b.underlying.eq(b.act(1, b.act(1, (5, 3))), (5, 3))


def test_cocycle_validation():
    c2 = named_group("C2")
    z2 = z_mod(c2, 2)
    Cocycle1(z2, [(0,), (1,)])
    with pytest.raises(ValueError):
        Cocycle1(z2, [(1,), (1,)])
    c3 = named_group("C3")
    z3 = z_mod(c3, 3)
    with pytest.raises(ValueError):
        Cocycle1(z3, [(0,), (1,), (1,)])
    # from the generators: the walk fills in the other values, and the
    # identity is still checked at every generator
    gen, = c3.generating_set()
    f = Cocycle1.from_generators(z3, [(1,)])
    assert (f.values[gen], f.values[c3.mul(gen, gen)]) == ((1,), (2,))
    z = trivial_module(c2)
    with pytest.raises(ValueError, match="cocycle identity"):
        Cocycle1.from_generators(z, [(1,)])
    with pytest.raises(ValueError, match="one value per generator"):
        Cocycle1.from_generators(z2, [(1,), (1,)])


def test_cup_examples():
    c2 = named_group("C2")
    cx = TateComplex(c2, (-4, 3))
    z = trivial_module(c2)
    z2m = z_mod(c2, 2)
    calc_z = TateCohomology(cx, z)
    zgen = nonzero_class(calc_z, -2)
    # coboundary class cups to zero
    cup0, _ = cup_with_h1(cx, Cocycle1(z2m, [(0,), (0,)]), zgen)
    assert cup0.is_zero()
    cup, ca = cup_with_h1(cx, Cocycle1(z2m, [(0,), (1,)]), zgen)
    assert not cup.is_zero()
    assert cup.group().invariant_factors() == (2,)
    with pytest.raises(DegreeMismatch):
        cup_with_h1(cx, Cocycle1(z2m, [(0,), (1,)]),
                    nonzero_class(calc_z, 0))
    # sign-sensitive value over the 3-element group
    c3 = named_group("C3")
    cx3 = TateComplex(c3, (-3, 2))
    z3t = trivial_module(c3)
    z3m = z_mod(c3, 3)
    calc3 = TateCohomology(cx3, z3t)
    rep = [0] * cx3.rank(-2)
    rep[1] = 1
    zc = CohClass(calc3, -2, rep)
    cup3, ca3 = cup_with_h1(cx3, Cocycle1(z3m, [(0,), (1,), (2,)]), zc)
    h = TateCohomology(cx3, ca3.module).homology(-1)
    assert cup3.canon == h.class_of(ca3.pure((1,), (1,)))


def test_connecting_equals_evaluation_after_cup():
    rng = random.Random(7)
    done = 0
    while done < 25:
        gname = rng.choice(["C2", "C3", "C4"])
        g = named_group(gname)
        cx = TateComplex(g, (-3, 2))
        cmod = trivial_module(g, FgAb(rng.randint(1, 2)))
        amod = z_mod(g, rng.choice([2, 3, 4]))
        ht = hom_and_tensor(cmod, amod)
        hom = ht["hom"]
        calc_hom = TateCohomology(cx, hom.module)
        f = random_cocycle(calc_hom, hom, rng)
        ext = cocycle_to_extension(hom, f)
        calc_c = TateCohomology(cx, cmod)
        calc_a = TateCohomology(cx, amod)
        delta = connecting_hom(cx, ext, -2, calc_c=calc_c, calc_a=calc_a)
        for z in all_classes(calc_c, -2)[:3]:
            cup, ca = cup_with_h1(cx, f, z, calc_c=calc_c)
            push = induced_map(cup.calc, calc_a, ht["evaluation"], -1)
            assert delta(z) == push(cup), (gname, z.canon)
            done += 1


def test_ext1_aug_order_match_and_iso():
    rng = random.Random(9)
    for gname in ["C2", "C3", "V4"]:
        g = named_group(gname)
        cx = TateComplex(g, (-2, 3))
        for m in [2, 3, 4, rng.choice([5, 6])]:
            amod = z_mod(g, m)
            data = build_ext1_data(cx, g, amod)
            calc_c = TateCohomology(cx, data["ext"].c)
            calc_a = TateCohomology(cx, amod)
            assert calc_c.group(1).order() == calc_a.group(2).order()
            # the connecting map is injective on H^1(Hom(aug, A))
            h1 = calc_c.homology(1)
            seen = set()
            for e in h1.group.elements():
                f = Cocycle1.from_cochain(
                    data["hom_aug"].module,
                    h1.rep_of(h1.group.canon(e)), check=False)
                cls, _ = ext1_class_to_h2(cx, g, amod, f, data)
                key = h1.group.canon(e)
                assert (cls.is_zero()) == (not any(key))
                seen.add(cls.canon)
            assert len(seen) == h1.group.order()


def test_h2_c2_value():
    c2 = named_group("C2")
    cx = TateComplex(c2, (-2, 3))
    amod = trivial_module(c2)
    data = build_ext1_data(cx, c2, amod)
    calc_a = TateCohomology(cx, amod)
    assert calc_a.group(2).invariant_factors() == (2,)
    calc_c = TateCohomology(cx, data["ext"].c)
    h1 = calc_c.homology(1)
    hit = set()
    for e in h1.group.elements():
        f = Cocycle1.from_cochain(data["hom_aug"].module,
                                  h1.rep_of(h1.group.canon(e)), check=False)
        cls, _ = ext1_class_to_h2(cx, c2, amod, f, data)
        hit.add(cls.canon)
    assert len(hit) == 2  # surjective onto H^2(C2, Z) = Z/2


# Closed forms for H^i(G, M) on the catalog groups, each with the
# statement it rests on, so a mismatch points at the program or at a
# cited fact, never at a number recorded from an earlier run.
_ORDER = {"C2": 2, "C3": 3, "C4": 4, "V4": 4, "S3": 6, "D4": 8, "Q8": 8}
_CYCLIC = ("C2", "C3", "C4")
# non-cyclic G: (H_1 = G^ab, H_2 = Schur multiplier, H_3, source)
_LOW_HOMOLOGY = {
    "V4": ((2, 2), (2,), (2, 2, 2),
           "Kunneth formula for C2 x C2: H_2 = Z/2, H_3 = (Z/2)^3"),
    "S3": ((2,), (), (6,),
           "cyclic Sylow subgroups give period 4 (Cartan-Eilenberg, "
           "Homological Algebra, XII.11): H_2 = H^1 = 0, H_3 = H^0 = Z/6"),
    "D4": ((2, 2), (2,), (2, 2, 4),
           "H_2 = Z/2 (Karpilovsky, The Schur Multiplier, 1987); "
           "H_3 = H^4(D4, Z) = Z/2 + Z/2 + Z/4 (Handel, Tohoku Math. J. "
           "45, 1993), whose 2-rank 3 also follows from dim H^n(D4, F_2) "
           "= n + 1 and the universal coefficient theorem"),
    "Q8": ((2, 2), (), (8,),
           "Q8 acts freely on S^3, so it has period 4 (Cartan-Eilenberg "
           "XII.11): H_2 = H^1 = 0, H_3 = H^0 = Z/8"),
}


def _tate_z(name, i):
    """(invariant factors, source) of H^i(G, Z), trivial action, for
    -4 <= i <= 4."""
    if name in _CYCLIC:
        if i % 2:
            return (), "2-periodicity of cyclic groups: H^odd = H^-1 = 0"
        return (_ORDER[name],), "2-periodicity: H^even(C_n, Z) = Z/n"
    if i > 0:
        factors, source = _tate_z(name, -i)
        return factors, f"Tate duality, H^{i} = dual of H^{-i}: {source}"
    if i == 0:
        return (_ORDER[name],), "H^0(G, Z) = Z/NZ = Z/|G|"
    if i == -1:
        return (), "H^-1(G, Z) = ker(N)/I_G Z = 0, N injective on Z"
    ab, schur, h3, source = _LOW_HOMOLOGY[name]
    return {-2: ab, -3: schur, -4: h3}[i], f"H^{i} = H_{-i - 1}: {source}"


def _tate(name, module, i):
    """(invariant factors, source) of H^i(G, module)."""
    if module == "Z":
        return _tate_z(name, i)
    if module == "Z[G]":
        return (), "Z[G] is induced, hence cohomologically trivial"
    # Z/6 = Z/2 + Z/3; 0 -> Z -p-> Z -> Z/p -> 0 makes H^i(G, Z/p)
    # elementary abelian of rank d_p(H^i(G, Z)) + d_p(H^{i+1}(G, Z))
    (here, s_here), (up, s_up) = _tate_z(name, i), _tate_z(name, i + 1)
    ranks = {p: sum(1 for d in here + up if d % p == 0) for p in (2, 3)}
    factors = []
    while any(ranks.values()):
        factors.append(prod(p for p in ranks if ranks[p]))
        ranks = {p: max(r - 1, 0) for p, r in ranks.items()}
    return tuple(reversed(factors)), (f"Bockstein sequences from H^{i}(Z) "
                                      f"[{s_here}] and H^{i + 1}(Z) [{s_up}]")


@pytest.mark.parametrize("name", sorted(_ORDER))
def test_every_degree_matches_closed_forms(name):
    """Every degree of -4..3, Z[G] on the order-8 groups included: there
    H^-4 reads a 512 x 4096 differential whose kernel basis of 3,641
    columns is read off private coordinates, not Hermite-reduced."""
    grp = named_group(name)
    cx = TateComplex(grp, (-4, 3))
    for module, mod in (("Z", trivial_module(grp)), ("Z/6", z_mod(grp, 6)),
                        ("Z[G]", regular_module(grp))):
        calc = TateCohomology(cx, mod)
        for i in range(-4, 4):
            want, source = _tate(name, module, i)
            h = calc.group(i)
            assert (h.free_rank(), h.invariant_factors()) == (0, want), \
                (module, i, source)


def test_cohomology_keeps_differentials_and_cochain_relations_sparse():
    """Every degree of Z/6 on D4 over -4..3 is computed without building
    the rows of a specialized differential or of a cochain group's
    relations; they stay held by their sparse columns."""
    grp = named_group("D4")
    calc = TateCohomology(TateComplex(grp, (-4, 3)), z_mod(grp, 6))
    for i in range(-4, 4):
        calc.group(i)
    mats = ([calc.differential(i).mat for i in range(-5, 4)]
            + [calc.cochain_group(i).rel for i in range(-5, 5)])
    assert [m._entries for m in mats] == [None] * len(mats)


@pytest.mark.parametrize("window", [(-4, -3), (2, 3)])
@pytest.mark.parametrize("name", ["C4", "S3", "Q8"])
def test_one_sided_windows_match_closed_forms(name, window):
    """Windows whose outer edges lie on the side that keeps every tuple:
    degree -2 is the target of a boundary and degree 1 the source of a
    coboundary, so truncating them would change H^-3 and H^2."""
    grp = named_group(name)
    calc = TateCohomology(TateComplex(grp, window), trivial_module(grp))
    for i in range(window[0], window[1] + 1):
        want, source = _tate(name, "Z", i)
        h = calc.group(i)
        assert (h.free_rank(), h.invariant_factors()) == (0, want), \
            (i, source)


# -- truncated edge degrees against the whole specialization -----------------

_MODULES = {"Z": trivial_module, "Z/6": lambda g: z_mod(g, 6),
            "Z[G]": regular_module}
_EDGE_CAP = 256  # largest cochain rank, bar tuples times module rank


def _edge_cases():
    """(group, module, window) over windows inside MAX_WINDOW whose
    largest cochain group, at degree lo-1 or hi+1, stays within the cap."""
    out = []
    for name in ("C2", "C3", "C4", "V4", "S3"):
        for kind in _MODULES:
            na = _ORDER[name] if kind == "Z[G]" else 1
            for lo in range(MAX_WINDOW[0], MAX_WINDOW[1] + 1):
                for hi in range(lo, MAX_WINDOW[1] + 1):
                    if _ORDER[name] ** max(-lo, hi + 1) * na <= _EDGE_CAP:
                        out.append((name, kind, (lo, hi)))
    return out


def full_differential(cx, module, i):
    """The degree i -> i+1 differential specialized over every bar tuple
    of both degrees, read from the ring-level complex."""
    na = module.underlying.n
    dom, cod = (FgAb.direct_sum([module.underlying] * cx.rank(j))
                for j in (i, i + 1))
    rows = [[0] * dom.n for _ in range(cod.n)]
    for s_idx, col in cx.ring_differential(i).items():
        for t_idx, zg in col.items():
            for g, c in zg.items():
                for r, row in enumerate(module.action[g].entries):
                    for q, x in enumerate(row):
                        rows[t_idx * na + r][s_idx * na + q] += c * x
    return AbMap(dom, cod, IntMatrix(rows, cols=dom.n), check=False)


def _combination(incl, rng):
    """A random integer combination of the columns of incl."""
    return incl.apply([rng.randint(-3, 3) for _ in range(incl.dom.n)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_edge_cases()), st.integers(0, 2 ** 16))
@example(("C4", "Z", (-4, -3)), 0)
@example(("C4", "Z", (-3, -2)), 0)
@example(("C4", "Z", (-1, 0)), 0)
@example(("C4", "Z", (1, 2)), 0)
@example(("C4", "Z", (2, 3)), 0)
@example(("S3", "Z/6", (-3, -2)), 0)
@example(("S3", "Z/6", (-1, 0)), 0)
@example(("S3", "Z/6", (1, 2)), 0)
@example(("V4", "Z[G]", (-1, 0)), 0)
def test_truncated_edges_keep_homology(case, seed):
    """The truncated specialization and the whole one have the same
    cohomology at every degree of the window, the same cocycles at hi and
    the same boundaries at lo."""
    name, kind, (lo, hi) = case
    grp = named_group(name)
    cx = TateComplex(grp, (lo, hi))
    mod = _MODULES[kind](grp)
    calc = TateCohomology(cx, mod)
    full = {i: full_differential(cx, mod, i) for i in range(lo - 1, hi + 1)}
    for i in range(lo, hi + 1):
        got, want = calc.group(i), Homology(full[i - 1], full[i]).group
        assert _invariants(got) == _invariants(want), (i, got, want)
    rng = random.Random(seed)
    # cocycles at hi: the kernel into the (possibly truncated) degree hi+1
    top, top_full = calc.differential(hi), full[hi]
    z = _combination(top.kernel()[1], rng)
    bumped = list(z)
    bumped[rng.randrange(len(z))] += 1
    for x in (z, bumped, _combination(top_full.kernel()[1], rng),
              [rng.randint(-2, 2) for _ in z]):
        assert (top.cod.is_zero(top.apply(x))
                == top_full.cod.is_zero(top_full.apply(x))), x
    # boundaries at lo: the image out of the (possibly truncated) lo-1
    bottom, bottom_full = calc.differential(lo - 1), full[lo - 1]
    cycle = _combination(full[lo].kernel()[1], rng)
    boundary = _combination(bottom_full, rng)
    for y in (cycle, boundary, [a + b for a, b in zip(cycle, boundary)]):
        assert (bottom.image_lattice().contains(y)
                == bottom_full.image_lattice().contains(y)), y


@pytest.mark.parametrize("make", [i2_twist, i2_plain] + [
    lambda name=name: synth_instance(name, 0) for name in sorted(_ORDER)],
    ids=["i2_twist", "i2_plain"] + [f"{name}/0" for name in sorted(_ORDER)])
def test_truncated_edges_keep_h_minus1_of_x(make):
    """H^-1 of the X module over -1..0, where both edges are truncated,
    against the whole specialization: the same group, trivial, and the
    same boundaries at -1."""
    x = xy_modules(make()).x
    cx = TateComplex(x.group, (-1, 0))
    calc = TateCohomology(cx, x)
    full = {i: full_differential(cx, x, i) for i in (-2, -1, 0)}
    for i in (-1, 0):
        got, want = calc.group(i), Homology(full[i - 1], full[i]).group
        assert _invariants(got) == _invariants(want), (i, got, want)
    assert calc.group(-1).is_trivial()
    rng = random.Random(0)
    bottom = calc.differential(-2)
    for _ in range(3):
        y = _combination(full[-2], rng)
        assert bottom.image_lattice().contains(y), y


# the modules and windows of the `resolution` benchmark, and two one-sided
# windows whose outer edges keep every tuple
_SIZE_CASES = (("Z", (-3, 2)), ("Z/6", (-3, 2)), ("Z[G]", (-3, 2)),
               ("Z", (-4, 3)), ("Z", (-4, -3)), ("Z", (2, 3)))


@pytest.mark.parametrize("name", sorted(_ORDER))
def test_edge_cochain_groups_keep_generator_tuples(name):
    """At degree lo-1 <= -2 and hi+1 >= 1 a cochain group has one block per
    bar tuple ending in S; every other degree keeps all |G|^k.  The
    ring-level ranks stay whole everywhere."""
    grp = named_group(name)
    n, kept = grp.order, len(grp.generating_set())
    for kind, (lo, hi) in _SIZE_CASES:
        mod = _MODULES[kind](grp)
        na = mod.underlying.n
        cx = TateComplex(grp, (lo, hi))
        calc = TateCohomology(cx, mod)
        for i in range(lo - 1, hi + 2):
            k = cx.tuple_length(i)
            edge = (i == lo - 1 and i <= -2) or (i == hi + 1 and i >= 1)
            blocks = n ** (k - 1) * kept if edge else n ** k
            assert calc.cochain_group(i).n == blocks * na, (kind, lo, hi, i)
            assert len(cx.basis(i)) == cx.rank(i) == n ** k


def test_connecting_hom_rejects_degrees_outside_the_window():
    """A connecting map out of hi would land in the truncated degree hi+1;
    it is refused when it is built, before anything is lifted."""
    c4 = named_group("C4")
    cx = TateComplex(c4, (-2, 1))
    z2m, z4m = z_mod(c4, 2), z_mod(c4, 4)
    ext = ExtensionData(GMap(z2m, z4m, IntMatrix([[2]])),
                        GMap(z4m, z2m, IntMatrix([[1]])))
    for i in (-3, 1, 2):
        with pytest.raises(DegreeOutOfWindow):
            connecting_hom(cx, ext, i)
    # inside the window it still runs; H^0(Z/4) = Z/4 maps onto
    # H^0(Z/2) = Z/2, so the connecting map out of degree 0 is zero
    calc = TateCohomology(cx, z2m)
    delta = connecting_hom(cx, ext, 0, calc_c=calc, calc_a=calc)
    assert delta(nonzero_class(calc, 0)).is_zero()


def test_cocycle_check_reaches_elements_outside_the_generators():
    s3 = named_group("S3")
    reg = regular_module(s3)
    m = [0, 1, 0, 0, 0, 0]
    # the coboundary g -> g m - m is a cocycle
    vals = [tuple(a - b for a, b in zip(reg.act(g, m), m))
            for g in range(s3.order)]
    Cocycle1(reg, vals)
    gens = set(s3.generating_set()) | {s3.identity}
    outside = [x for x in range(s3.order) if x not in gens]
    assert outside
    for x in outside:
        bad = list(vals)
        bad[x] = tuple(v + (i == 0) for i, v in enumerate(bad[x]))
        with pytest.raises(ValueError, match="cocycle identity"):
            Cocycle1(reg, bad)
    # 1 off the subgroup of the first generator r: f(r h) = f(r) + f(h)
    # holds for every h, and f(s s) = 0 != 2 = f(s) + f(s) does not
    r = s3.generating_set()[0]
    inside = s3.closure([r])
    with pytest.raises(ValueError, match="cocycle identity"):
        Cocycle1(trivial_module(s3),
                 [(int(x not in inside),) for x in range(s3.order)])

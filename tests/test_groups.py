import itertools
import json
import random

import pytest

from tatelab.abelian import AbMap, FgAb
from tatelab.groups import (GROUP_CATALOG, FiniteGroup, GroupHom,
                            NotACocycle, NotAGroup, Subgroup, abelianization,
                            cosets_and_reps, dihedral4, direct_product,
                            extension_from_cocycle, group_from_table,
                            named_group, quaternion8, subgroup_as_group,
                            symmetric3)
from tatelab.gmodules import trivial_module
from tatelab.lattice import IntMatrix


def test_table_validation():
    assert group_from_table([[0]]).order == 1
    c2 = group_from_table([[0, 1], [1, 0]])
    assert c2.inv[1] == 1
    with pytest.raises(NotAGroup) as exc:
        group_from_table([[0, 1], [0, 1]])
    assert exc.value.axiom == "cancellation"
    with pytest.raises(NotAGroup):
        group_from_table([[1, 0], [1, 0]])
    # non-associative Latin square with identity (order 5 quasigroup)
    t = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    with pytest.raises(NotAGroup) as exc:
        group_from_table(t)
    assert exc.value.axiom == "associativity"


def _is_abelian(g):
    return all(g.mul(a, b) == g.mul(b, a) for a in range(g.order)
               for b in range(a))


def _element_orders(g):
    """Sorted orders of the elements: the sizes of the cyclic subgroups."""
    return sorted(len(g.closure([x])) for x in range(g.order))


def test_catalog():
    for name, order, abelian in [("C2", 2, True), ("C3", 3, True),
                                 ("C4", 4, True), ("V4", 4, True),
                                 ("S3", 6, False), ("D4", 8, False),
                                 ("Q8", 8, False), ("C6", 6, True)]:
        g = named_group(name)
        assert g.order == order and _is_abelian(g) == abelian
    assert _element_orders(quaternion8()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert _element_orders(dihedral4()) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_cosets_and_reps():
    s3 = symmetric3()
    full = Subgroup(s3, range(6))
    reps, rho = cosets_and_reps(s3, full)
    assert reps == (0,) and set(rho) == {0}
    triv = Subgroup(s3, [0])
    reps, rho = cosets_and_reps(s3, triv)
    assert len(reps) == 6 and all(rho[i] == i for i in range(6))
    h = Subgroup(s3, s3.closure([3]))
    reps, rho = cosets_and_reps(s3, h)
    assert len(reps) == 3 and reps[0] == s3.identity
    for sigma in range(6):
        assert s3.mul(s3.inv[rho[sigma]], sigma) in h
        assert rho[sigma] in reps
    # rho constant on left cosets
    for sigma in range(6):
        for x in h.elems:
            assert rho[s3.mul(sigma, x)] == rho[sigma]


def test_abelianization_examples():
    # |G^ab| = |G| / |G'|: G' has order 3 in S3 and 2 in Q8
    a, proj = abelianization(named_group("C4"))
    assert a.invariant_factors() == (4,)
    a, proj = abelianization(symmetric3())
    assert a.invariant_factors() == (2,)
    a, proj = abelianization(quaternion8())
    assert a.invariant_factors() == (2, 2)
    a, _ = abelianization(named_group("1"))
    assert a.is_trivial()


def test_abelianization_universal_property():
    # projection composed with a character factors through the quotient
    s3 = symmetric3()
    a, proj = abelianization(s3)
    z2 = FgAb(1, IntMatrix([[2]]))
    # the sign character S3 -> Z/2 by order parity of the coset
    sign = [0 if x in (0, 1, 2) else 1 for x in range(6)]
    # factorization: the character, given on the generator columns,
    # descends to a map on the quotient (AbMap checks the relations)
    f = AbMap(a, z2, IntMatrix([[sign[s] for s in s3.generating_set()]],
                               cols=a.n))
    for g in range(6):
        assert z2.eq(f.apply(proj[g]), (sign[g],))


def test_schreier_abelianization_matches_element_presentation(
        corpus, abelianization_reference):
    """The presentation on the generating set against the one on every
    element: the same invariant factors, and e_s -> (old image of s) is
    an isomorphism carrying the new image of every g to the old one.
    Cases: the catalog groups, each of their subgroups as a group, and
    the extension group GS of every campaign and stress instance."""
    cases = []
    for name in sorted(GROUP_CATALOG):
        grp = named_group(name)
        cases.append((name, grp))
        cases += [(f"{name} > {sub.elems}", subgroup_as_group(sub)[0])
                  for sub in grp.all_subgroups()]
    cases += [(f"GS of {name}", inst.gs) for name, inst in corpus]
    assert any(grp.order == 1 for _, grp in cases)
    for label, grp in cases:
        gens = grp.generating_set()
        a, proj = abelianization(grp)
        old, old_proj = abelianization_reference(grp)
        assert a.n == len(gens), label
        assert a.invariant_factors() == old.invariant_factors(), label
        assert a.free_rank() == old.free_rank() == 0, label
        phi = AbMap(a, old, IntMatrix._trusted_columns(
            [old_proj[s] for s in gens], old.n))
        assert phi.is_injective() and phi.is_surjective(), label
        for g in range(grp.order):
            assert old.eq(phi.apply(proj[g]), old_proj[g]), (label, g)


def test_subgroup_as_group():
    s3 = symmetric3()
    h, elems = subgroup_as_group(Subgroup(s3, s3.closure([1])))
    assert h.order == 3 and _is_abelian(h)
    assert [s3.labels[e] for e in elems] == [h.labels[i] for i in range(3)]


def test_extension_from_cocycle():
    c2 = named_group("C2")
    z2 = trivial_module(c2, FgAb(1, IntMatrix([[2]])))
    gs, kappa, pi, member = extension_from_cocycle(z2, c2,
                                                   lambda g, h: (0,))
    assert gs.order == 4
    assert _element_orders(gs) == [1, 2, 2, 2]
    assert pi.is_surjective()
    assert set(pi.kernel_elements()) == set(kappa.values())
    # zero cocycle: homomorphic section exists
    sec = {g: member[((0,), g)] for g in range(2)}
    for a in range(2):
        for b in range(2):
            assert gs.mul(sec[a], sec[b]) == sec[c2.mul(a, b)]
    # the nonsplit extension
    gs2, _, _, _ = extension_from_cocycle(
        z2, c2, lambda g, h: (1,) if (g, h) == (1, 1) else (0,))
    assert _element_orders(gs2) == [1, 2, 4, 4]
    with pytest.raises(NotACocycle):
        extension_from_cocycle(
            z2, c2, lambda g, h: (1,) if (g, h) == (1, 0) else (0,))
    # conjugation realizes the action
    for gbar in range(4):
        g = pi(gbar)
        for c in z2.underlying.elements():
            canon = z2.underlying.canon(c)
            assert gs.conj(gbar, kappa[canon]) == kappa[canon]


def test_extension_with_nontrivial_action():
    c2 = named_group("C2")
    z3 = FgAb(1, IntMatrix([[3]]))
    from tatelab.gmodules import GModule
    m = GModule(c2, z3, [IntMatrix([[1]]), IntMatrix([[-1]])])
    gs, kappa, pi, member = extension_from_cocycle(m, c2, lambda g, h: (0,))
    # semidirect product Z/3 x| C2 = S3
    assert gs.order == 6 and not _is_abelian(gs)
    ghat = next(x for x in range(6) if pi(x) == 1)
    assert gs.conj(ghat, kappa[(1,)]) == kappa[(2,)]


def test_hom_validation():
    c2, c4 = named_group("C2"), named_group("C4")
    GroupHom(c4, c2, [0, 1, 0, 1])
    with pytest.raises(NotAGroup):
        GroupHom(c4, c2, [0, 1, 1, 0])


def test_generating_sets():
    rng = random.Random(0)
    for name in ["C2", "C4", "V4", "S3", "D4", "Q8", "C6"]:
        g = named_group(name)
        gens = g.generating_set()
        assert len(g.closure(gens)) == g.order
        assert len(gens) <= 3


def test_generating_set_is_computed_once(monkeypatch):
    d4 = dihedral4()
    d4 = FiniteGroup(d4.table, d4.identity, d4.inv)  # nothing computed yet
    calls = []
    closure = FiniteGroup.closure

    def spy(self, gens):
        calls.append(tuple(gens))
        return closure(self, gens)

    monkeypatch.setattr(FiniteGroup, "closure", spy)
    first = d4.generating_set()
    assert calls
    calls.clear()
    assert d4.generating_set() == first
    assert calls == []


def _associative(table):
    """The all-triples associativity loop, kept as the reference for
    Light's test."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def _reduced_latin_squares(n, rows=None):
    """Every n x n Latin square whose first row and column are 0..n-1:
    a two-sided identity at 0."""
    rows = rows or [tuple(range(n))]
    if len(rows) == n:
        yield rows
        return
    r = len(rows)
    for rest in itertools.permutations([v for v in range(n) if v != r]):
        row = (r,) + rest
        if all(row[c] != prev[c] for prev in rows for c in range(n)):
            yield from _reduced_latin_squares(n, rows + [row])


def _intercalates(table, identity):
    """(r1, r2, c1, c2) with table[r1][c1] = table[r2][c2] and
    table[r1][c2] = table[r2][c1], away from the identity's row, column
    and value: switching the two values keeps a Latin square with the
    same identity and inverses."""
    n = len(table)
    col_of = [{v: c for c, v in enumerate(row)} for row in table]
    found = []
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            if identity in (r1, r2):
                continue
            for c1 in range(n):
                c2 = col_of[r2][table[r1][c1]]
                if c1 < c2 and identity not in (c1, c2, table[r1][c1],
                                                 table[r1][c2]) \
                        and table[r1][c2] == table[r2][c1]:
                    found.append((r1, r2, c1, c2))
    return found


def _switched(table, r1, r2, c1, c2):
    out = [list(row) for row in table]
    out[r1][c1], out[r1][c2] = out[r1][c2], out[r1][c1]
    out[r2][c1], out[r2][c2] = out[r2][c2], out[r2][c1]
    return out


def _accepted(table):
    try:
        group_from_table(table)
    except NotAGroup:
        return False
    return True


def test_light_test_agrees_with_all_triples():
    # every loop of order <= 5, plus intercalate switches of the order-8
    # tables: a Latin square with a two-sided identity is accepted iff it
    # is associative
    squares = [sq for n in range(1, 6) for sq in _reduced_latin_squares(n)]
    for g in (dihedral4(), quaternion8()):
        for r1, r2, c1, c2 in _intercalates(g.table, g.identity)[:20]:
            squares.append(_switched(g.table, r1, r2, c1, c2))
    verdicts = [(_accepted(sq), _associative(sq)) for sq in squares]
    assert all(a == b for a, b in verdicts)
    assert {a for a, _ in verdicts} == {True, False}


def test_intercalate_switches_of_an_extension_table_are_refused(tmp_path):
    from tatelab.cft import synth_instance
    from tatelab.cli import main
    from tatelab.instance_io import (InstanceSchemaError, instance_from_dict,
                                     instance_to_dict)
    inst = synth_instance("Q8", 0)
    gs = inst.gs
    assert gs.order == 72
    data = instance_to_dict(inst)
    # the loader reads the extension table first, so the rejection is
    # associativity's, not the projection's
    switches = _intercalates(gs.table, gs.identity)[:8]
    assert len(switches) == 8
    for sw in switches:
        bad = _switched(gs.table, *sw)
        assert not _associative(bad)
        with pytest.raises(NotAGroup) as exc:
            group_from_table(bad)
        assert exc.value.axiom == "associativity"
        with pytest.raises(InstanceSchemaError, match="associativity"):
            instance_from_dict(dict(data, gs={"table": bad,
                                              "labels": list(gs.labels)}))
    path = tmp_path / "switched.json"
    path.write_text(json.dumps(dict(data, gs={
        "table": _switched(gs.table, *switches[0]),
        "labels": list(gs.labels)})))
    assert main(["validate", str(path)]) == 2


def test_hom_check_reaches_elements_outside_the_generators():
    q8 = quaternion8()
    gens = set(q8.generating_set()) | {q8.identity}
    outside = [x for x in range(q8.order) if x not in gens]
    assert outside
    for x in outside:
        images = list(range(q8.order))
        images[x] = q8.inv[x]  # x has order 4, so this is another element
        assert images[x] != x
        with pytest.raises(NotAGroup) as exc:
            GroupHom(q8, q8, images)
        assert exc.value.axiom == "hom-multiplicativity"
    # r^i s^j -> r^(i+j) on S3 is multiplicative at the first generator r
    # (f(r x) = r f(x)) but not at s, since f(s s) = 1 != r^2
    s3 = symmetric3()
    r, s = s3.generating_set()
    power = [s3.identity]
    for _ in range(2):
        power.append(s3.mul(power[-1], r))
    images = [None] * s3.order
    for i in range(3):
        for j in range(2):
            images[s3.mul(power[i], s if j else s3.identity)] = \
                power[(i + j) % 3]
    with pytest.raises(NotAGroup):
        GroupHom(s3, s3, images)


def test_cocycle_check_reaches_middles_outside_the_generators():
    s3 = symmetric3()
    z2 = trivial_module(s3, FgAb(1, IntMatrix([[2]])))
    gens = set(s3.generating_set()) | {s3.identity}
    extension_from_cocycle(z2, s3, lambda g, h: (0,))
    for h in range(s3.order):
        if h in gens:
            continue
        for g in range(s3.order):
            if g == s3.identity:
                continue
            with pytest.raises(NotACocycle):
                extension_from_cocycle(
                    z2, s3, lambda a, b, bad=(g, h): (int((a, b) == bad),))
    # inflated from Q8/{1, -1}: the identity holds at the middle -1, the
    # first generator, but not at the middle i
    q8 = quaternion8()
    assert q8.generating_set()[0] == 1  # -1
    z2q = trivial_module(q8, FgAb(1, IntMatrix([[2]])))
    with pytest.raises(NotACocycle):
        extension_from_cocycle(
            z2q, q8, lambda a, b: (int(a in (2, 3) and b in (4, 5)),))


def _extension_outcome(build, cl, grp, cocycle):
    """What `build` makes of the cocycle: the table, labels, kappa, the
    images of pi and member (dicts as item lists, so order counts), or
    the witness of the NotACocycle it raises."""
    try:
        gs, kappa, pi, member = build(cl, grp, cocycle)
    except NotACocycle as exc:
        return ("not a cocycle", exc.witness)
    return (gs.table, gs.labels, list(kappa.items()), pi.images,
            list(member.items()))


def _coboundary(cl, grp, rng):
    """f(g, h) = g.b(h) + b(g) - b(gh) for a random normalized b, as
    `synth_instance` twists its extensions."""
    ab = cl.underlying
    elems = [tuple(x) for x in ab.elements()]
    b = [rng.choice(elems) for _ in range(grp.order)]
    b[grp.identity] = ab.zero()
    return {(g, h): ab.sub(ab.add(cl.act(g, b[h]), b[g]), b[grp.mul(g, h)])
            for g in range(grp.order) for h in range(grp.order)}


def _off_canonical(cl, values, rng):
    """The same cocycle with every value moved by a random multiple of a
    random relation column, so most values come back off-canonical."""
    ab = cl.underlying
    rels = [tuple(col.get(i, 0) for i in range(ab.n))
            for col in ab.rel.sparse_columns()]
    out = {}
    for key, v in values.items():
        r, k = rng.choice(rels), rng.randint(-2, 2)
        out[key] = tuple(a + k * x for a, x in zip(v, r))
    return out


def test_integer_tables_match_the_fgab_reference(extension_reference):
    from tatelab.cft import _sample_cl
    rng = random.Random(19)
    cases = []
    for name in ("C2", "C3", "C4", "V4", "S3", "D4", "Q8"):
        grp = named_group(name)
        for shape in ("trivial", "perm", "mixed"):
            for modulus in (2, 3):
                cases.append((name, shape, grp,
                              _sample_cl(grp, shape, modulus, rng,
                                         grp.all_subgroups())))
        # relations that are not diagonal: canon goes through U
        cases.append((name, "skew", grp, trivial_module(
            grp, FgAb(2, IntMatrix([[2, 4], [0, 6]])))))
    # nonsplit: the carry cocycle of C4 with values in Z/2
    c4 = named_group("C4")
    z2 = trivial_module(c4, FgAb(1, IntMatrix([[2]])))
    carry = {(g, h): (int(g + h >= 4),) for g in range(4) for h in range(4)}
    cases.append(("C4", "carry", c4, z2))
    for name, shape, grp, cl in cases:
        f = carry if shape == "carry" else _coboundary(cl, grp, rng)
        for values in (f, _off_canonical(cl, f, rng)):
            want = _extension_outcome(extension_reference, cl, grp, values)
            assert want[0] != "not a cocycle", (name, shape)
            got = _extension_outcome(extension_from_cocycle, cl, grp, values)
            assert got == want, (name, shape, cl.underlying)


def test_integer_tables_raise_the_reference_witness(extension_reference):
    from tatelab.cft import _sample_cl
    rng = random.Random(7)
    seen = set()
    for name in ("C2", "C3", "C4", "V4", "S3", "D4", "Q8"):
        grp = named_group(name)
        e = grp.identity
        for shape in ("trivial", "perm", "mixed"):
            cl = _sample_cl(grp, shape, 2, rng, grp.all_subgroups())
            ab = cl.underlying
            f = _coboundary(cl, grp, rng)
            bump = ab.smith_gens()[0]
            broken = []
            for g in range(1, grp.order):  # a nonzero f(g, 1) or f(1, g)
                for key in ((g, e), (e, g)):
                    broken.append({**f, key: ab.add(f[key], bump)})
            # one moved value off the identity; some still give cocycles
            for a in range(grp.order):
                for b in range(grp.order):
                    if e not in (a, b):
                        broken.append({**f, (a, b): ab.add(f[(a, b)], bump)})
            for values in broken:
                want = _extension_outcome(extension_reference, cl, grp,
                                          values)
                got = _extension_outcome(extension_from_cocycle, cl, grp,
                                         values)
                assert got == want, (name, shape)
                if want[0] == "not a cocycle":
                    seen.add(want[1][1] == "identity-normalization")
    assert seen == {True, False}  # both kinds of witness were compared
    # the cases of test_cocycle_check_reaches_middles_outside_the_generators
    s3 = symmetric3()
    z2 = trivial_module(s3, FgAb(1, IntMatrix([[2]])))
    for g in range(1, s3.order):
        for h in range(1, s3.order):
            values = {(a, b): (int((a, b) == (g, h)),)
                      for a in range(6) for b in range(6)}
            assert _extension_outcome(extension_from_cocycle, z2, s3,
                                      values) == \
                _extension_outcome(extension_reference, z2, s3, values)
    q8 = quaternion8()
    z2q = trivial_module(q8, FgAb(1, IntMatrix([[2]])))
    inflated = {(a, b): (int(a in (2, 3) and b in (4, 5)),)
                for a in range(8) for b in range(8)}
    want = _extension_outcome(extension_reference, z2q, q8, inflated)
    assert want[0] == "not a cocycle"
    assert _extension_outcome(extension_from_cocycle, z2q, q8,
                              inflated) == want


def test_cocycle_value_of_the_wrong_length_is_refused():
    c2 = named_group("C2")
    z2 = trivial_module(c2, FgAb(1, IntMatrix([[2]])))
    with pytest.raises(ValueError):
        extension_from_cocycle(z2, c2, lambda g, h: (0, 0))
    with pytest.raises(ValueError):
        extension_from_cocycle(
            z2, c2, lambda g, h: (0, 0) if (g, h) == (1, 1) else (0,))

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from tatelab import abelian
from tatelab.abelian import (AbMap, FgAb, Homology, NonComplex,
                             ab_quotient, subgroup_span)
from tatelab.lattice import (IntMatrix, Lattice, PrivateBasis, _kernel_columns,
                             _snf_data)


def _invariants(a):
    """(free rank, invariant factors): equal iff the groups are
    isomorphic."""
    return (a.free_rank(), a.invariant_factors())


def diag_group(*mods):
    n = len(mods)
    return FgAb(n, IntMatrix([[mods[i] if i == j else 0 for j in range(n)]
                              for i in range(n)], cols=n))


def _agrees_with_hermite(f, rng):
    """f's kernel basis against a Hermite Lattice of the same rows, and
    both against the Smith-form test f(v) = 0 in cod: the same span, the
    same members among random vectors and near-misses, and coords and
    combine inverse to each other.  Returns the kernel basis."""
    n = f.dom.n
    b = f.kernel_lattice_basis()
    lat = Lattice(n)
    for row in b.rows:
        lat._add(dict(row))
    assert len(lat) == len(b)
    assert all(lat.contains(r) for r in b.basis())
    assert all(b.contains(r) for r in lat.basis())

    def near_misses():
        # a kernel vector moved at one coordinate: its other private
        # entries still divide, so only the residual test can refuse it
        for _ in range(6):
            v = list(b.combine([rng.randint(-3, 3) for _ in range(len(b))]))
            v[rng.randrange(n)] += rng.choice((-2, -1, 1, 2, 3))
            yield tuple(v)
        for _ in range(6):
            yield tuple(rng.randint(-6, 6) for _ in range(n))

    for v in near_misses():
        assert b.contains(v) == lat.contains(v) == f.cod.is_zero(f.apply(v))
    for _ in range(4):
        c = tuple(rng.randint(-3, 3) for _ in range(len(b)))
        v = b.combine(c)
        assert f.cod.is_zero(f.apply(v)) and lat.contains(v)
        assert b.coords(v) == c and lat.combine(lat.coords(v)) == v
    return b


def test_private_kernel_agrees_with_hermite_lattice():
    rng = random.Random(5)
    # free codomain: the kernel columns keep private +-1 entries
    free = AbMap(FgAb(4), FgAb(2), IntMatrix([[1, 2, 0, -1], [0, 3, 1, 2]]))
    assert isinstance(_agrees_with_hermite(free, rng), PrivateBasis)
    # Z/6: x -> 2x has kernel 3Z + Z, and the private entry of 3Z is -3
    z6 = AbMap(FgAb(2), diag_group(6), IntMatrix([[2, 0]]))
    b = _agrees_with_hermite(z6, rng)
    assert isinstance(b, PrivateBasis)
    assert sorted(b.basis()) == [(-3, 0), (0, 1)]
    assert b.coords((1, 0)) is None and b.contains((3, 1))
    # x + y into Z/2: the cut columns (-1, 1) and (-2, 0) share coordinate
    # 0, so the second owns none and the kernel is a Hermite Lattice
    z2 = AbMap(FgAb(2), diag_group(2), IntMatrix([[1, 1]]))
    assert isinstance(_agrees_with_hermite(z2, rng), Lattice)


def test_zero_cut_kernel_columns_are_dropped():
    """x -> 5x into Z/6 presented by the dependent relations 6 and 12: one
    kernel column of [5 | 6 12] is zero on the domain coordinate.  It is
    dropped, so the other column keeps its private entry."""
    f = AbMap(FgAb(1), FgAb(1, IntMatrix([[6, 12]])), IntMatrix([[5]]))
    aug = f.mat.hstack(f.cod.rel)
    cuts = [{i: x for i, x in col.items() if i < 1}
            for col in _kernel_columns(aug.sparse_rows(), aug.cols)]
    assert {} in cuts and len(cuts) == 2
    b = _agrees_with_hermite(f, random.Random(7))
    assert isinstance(b, PrivateBasis)
    assert [abs(x) for (x,) in b.basis()] == [6]


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.sampled_from([0, 2, 6]),
       st.randoms(use_true_random=False))
def test_kernel_basis_agrees_with_hermite_lattice(n, m, mod, rng):
    """Random maps Z^m -> Z^n (mod 0) or (Z/mod)^n; both paths occur."""
    cod = FgAb(n) if mod == 0 else diag_group(*[mod] * n)
    mat = IntMatrix([[rng.randint(-3, 3) for _ in range(m)]
                     for _ in range(n)], cols=m)
    _agrees_with_hermite(AbMap(FgAb(m), cod, mat), rng)


def test_presentations():
    z = FgAb(1, IntMatrix([[]], cols=0))
    assert z.free_rank() == 1 and z.invariant_factors() == ()
    z2 = FgAb(1, IntMatrix([[2]]))
    assert z2.invariant_factors() == (2,)
    g = FgAb(2, IntMatrix([[2, 0], [0, 4]]))
    assert g.invariant_factors() == (2, 4)
    assert g.order() == 8
    # messy presentation of Z/2 x Z/4
    m = FgAb(3, IntMatrix([[2, 1, 0], [0, 4, 0], [0, 0, 1]]))
    assert m.torsion_order() == 8


def test_element_arithmetic_and_enumeration():
    g = diag_group(2, 4)
    elems = [tuple(e) for e in g.elements()]
    assert len(elems) == 8 and len({g.canon(e) for e in elems}) == 8
    x = (1, 3)
    kx = [tuple(k * a for a in x) for k in range(6)]
    assert [k for k in range(1, 6) if g.is_zero(kx[k])] == [4]  # order 4
    assert g.eq(kx[5], x)
    assert g.canon(kx[4]) == (0, 0)


def test_kernel_quotient_examples():
    z = FgAb(1)
    z4 = diag_group(4)
    k, incl = AbMap.identity(z).kernel()
    assert k.is_trivial()
    k, incl = AbMap(z4, z4, IntMatrix([[2]])).kernel()
    assert k.invariant_factors() == (2,)
    assert z4.eq(incl.apply(k.smith_gens()[0]), (2,))
    zz = FgAb(2)
    k, incl = AbMap(zz, z, IntMatrix([[1, 1]])).kernel()
    assert k.free_rank() == 1
    assert tuple(incl.apply(k.gen(0))) in {(1, -1), (-1, 1)}
    q, _ = ab_quotient(z, [(2,)])
    assert q.invariant_factors() == (2,)
    q, _ = ab_quotient(diag_group(2), [])
    assert q.order() == 2
    q, _ = ab_quotient(zz, [(1, 1)])
    assert q.free_rank() == 1 and q.torsion_order() == 1


def test_homology_examples():
    z = FgAb(1)
    h = Homology(AbMap.zero(z, z), AbMap.zero(z, z)).group
    assert h.free_rank() == 1
    h = Homology(AbMap(z, z, IntMatrix([[2]])), AbMap.zero(z, z)).group
    assert h.invariant_factors() == (2,)
    # hand-enumerated bar complex of the 2-element group at degree 1
    t2, t1, t0 = FgAb(4), FgAb(2), FgAb(1)
    d2 = AbMap(t2, t1, IntMatrix([[1, 1, 1, -1], [0, 0, 0, 2]]))
    d1 = AbMap(t1, t0, IntMatrix([[0, 0]]))
    hom = Homology(d2, d1)
    h1 = hom.group
    assert h1.invariant_factors() == (2,)
    c = hom.class_of((0, 1))
    assert any(c)
    assert h1.canon(h1.add(h1.from_canon(c), h1.from_canon(c))) == \
        h1.canon(h1.zero())
    with pytest.raises(NonComplex):
        Homology(AbMap(z, z, IntMatrix([[1]])),
                 AbMap(z, z, IntMatrix([[1]])))


def test_homology_exact_pair_trivial():
    z, zz = FgAb(1), FgAb(2)
    h = Homology(AbMap(z, zz, IntMatrix([[1], [0]])),
                 AbMap(zz, z, IntMatrix([[0, 1]]))).group
    assert h.is_trivial()


def random_diag(rng, max_n=3):
    n = rng.randint(0, max_n)
    return diag_group(*[rng.choice([2, 3, 4, 6]) for _ in range(n)])


def test_first_isomorphism_and_order_property():
    rng = random.Random(5)
    for _ in range(60):
        a, b = random_diag(rng), random_diag(rng)
        cols = [[rng.randint(-4, 4) for _ in range(b.n)] for _ in range(a.n)]
        try:
            f = AbMap(a, b, IntMatrix.from_columns(
                [tuple(c) for c in cols], b.n))
        except ValueError:
            continue
        k, kin = f.kernel()
        img, _, _ = f.image()
        q, _ = ab_quotient(a, [kin.apply(k.gen(i)) for i in range(k.n)])
        assert _invariants(q) == _invariants(img)
        if a.is_finite():
            assert a.order() == k.order() * img.order()


def test_maps_differing_by_a_relation_are_equal():
    z4 = diag_group(4)
    g = FgAb(2, IntMatrix([[2, 1], [0, 2]]))  # Z/4 on (1, 0), not diagonal
    assert AbMap(z4, z4, IntMatrix([[1]])) == AbMap(z4, z4, IntMatrix([[5]]))
    assert AbMap(z4, z4, IntMatrix([[1]])) != AbMap(z4, z4, IntMatrix([[3]]))
    f = AbMap(g, g, IntMatrix.identity(2))
    assert f == AbMap(g, g, IntMatrix([[3, 1], [0, 3]]))
    assert f != AbMap(g, g, IntMatrix([[3, 0], [0, 3]]))


def test_subgroup_span():
    g = diag_group(4, 4)
    s, incl = subgroup_span(g, [(2, 0), (0, 2)])
    assert s.order() == 4
    assert incl.image_lattice().contains((2, 2))
    assert not incl.image_lattice().contains((1, 0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=0, max_size=3),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_canonical_form_is_additive(mods, x, y):
    g = diag_group(*[m for m in mods if m != 1])
    x, y = tuple(x[:g.n]), tuple(y[:g.n])
    if len(x) < g.n or len(y) < g.n:
        return
    lhs = g.canon(g.add(x, y))
    rhs = g.canon(g.add(g.from_canon(g.canon(x)), g.from_canon(g.canon(y))))
    assert lhs == rhs


def _reference_sum(parts):
    """FgAb on the block-diagonal relations, assembled column by column."""
    n = sum(p.n for p in parts)
    cols, off = [], 0
    for p in parts:
        for j in range(p.rel.cols):
            col = [0] * n
            col[off:off + p.n] = p.rel.column(j)
            cols.append(tuple(col))
        off += p.n
    return FgAb(n, IntMatrix.from_columns(cols, n))


def _part(kind, n, cols, entries):
    if kind == "diagonal":
        return diag_group(*[abs(x) for x in entries[:n]])
    if kind == "free":
        return FgAb(n)
    rows = [[entries[(i * cols + j) % len(entries)] for j in range(cols)]
            for i in range(n)]
    return FgAb(n, IntMatrix(rows, cols=cols))


parts_strategy = st.lists(
    st.tuples(st.sampled_from(["diagonal", "free", "dense", "wide"]),
              st.integers(0, 3), st.integers(0, 4),
              st.lists(st.integers(-6, 6), min_size=3, max_size=12))
    .map(lambda t: _part(t[0], t[1] if t[0] != "wide" else max(t[1], 1),
                         t[2] if t[0] != "wide" else 20 + 3 * t[2], t[3])),
    min_size=0, max_size=4)


@settings(max_examples=120, deadline=None)
@given(parts_strategy, st.data())
def test_direct_sum_matches_block_diagonal_presentation(parts, data):
    got = FgAb.direct_sum(parts)
    ref = _reference_sum(parts)
    assert got.n == ref.n
    assert got.rel == ref.rel
    assert got.invariant_factors() == ref.invariant_factors()
    assert got.free_rank() == ref.free_rank()
    vec = st.lists(st.integers(-12, 12), min_size=ref.n, max_size=ref.n)
    for _ in range(4):
        x, y = tuple(data.draw(vec)), tuple(data.draw(vec))
        assert got.eq(x, y) == ref.eq(x, y)
        # y shifted by relations must compare equal to y
        c = data.draw(st.lists(st.integers(-3, 3), min_size=ref.rel.cols,
                               max_size=ref.rel.cols))
        y2 = ref.add(y, ref.rel.apply(tuple(c)))
        assert got.eq(y, y2) and ref.eq(y, y2)
        assert got.eq(x, y2) == ref.eq(x, y2)
        assert got.eq(got.from_canon(got.canon(x)), x)


@st.composite
def presented_groups(draw):
    """A diagonal, free or non-diagonal presentation (the kinds of
    `parts_strategy`), a direct sum of several, or one on 33 to 40
    combinations of a drawn base, more than max(n, 32) relation columns,
    which the constructor lattice-reduces (see `abelian._reduces`)."""
    if draw(st.booleans()):
        parts = draw(parts_strategy)
        return parts[0] if len(parts) == 1 else FgAb.direct_sum(parts)
    n = draw(st.integers(1, 4))
    ent = st.integers(-6, 6)
    base = draw(st.lists(st.lists(ent, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                    max_size=n), min_size=33, max_size=40))
    cols = [[sum(c * col[i] for c, col in zip(cs, base)) for i in range(n)]
            for cs in coeffs]
    grp = FgAb(n, IntMatrix.from_columns(cols, n))
    assert abelian._reduces(len(cols), n) and grp.rel.cols <= n
    return grp


@settings(max_examples=150, deadline=None)
@given(presented_groups(), st.data())
def test_smith_relation_test_agrees_with_the_hermite_lattice(
        hermite_relations, grp, data):
    """`FgAb._is_relation` and `first_difference` decide membership in
    the relation lattice from the Smith data; a Hermite lattice of the
    relations agrees on relation vectors, relation vectors moved at one
    coordinate and arbitrary vectors, and column by column on matrices
    that differ by them."""
    lat, n = hermite_relations(grp), grp.n

    def vec(k, bound):
        return data.draw(st.lists(st.integers(-bound, bound), min_size=k,
                                  max_size=k).map(tuple))

    vs = []
    for _ in range(3):
        v = list(grp.rel.apply(vec(grp.rel.cols, 3)))
        vs.append(tuple(v))
        if n:
            v[data.draw(st.integers(0, n - 1))] += data.draw(
                st.integers(-3, 3).filter(bool))
            vs.append(tuple(v))
        vs.append(vec(n, 9))
    for v in vs:
        assert grp._is_relation({i: x for i, x in enumerate(v) if x}) == \
            lat.contains(v), v
    a = [vec(n, 5) for _ in vs]
    b = [tuple(x - y for x, y in zip(col, v)) for col, v in zip(a, vs)]
    want = next((j for j, v in enumerate(vs) if not lat.contains(v)), None)
    assert grp.first_difference(IntMatrix.from_columns(a, n),
                                IntMatrix.from_columns(b, n)) == want


def test_direct_sum_reduces_each_part_without_the_whole_smith_form(
        monkeypatch):
    """Eight copies of a rank-4 part with 6 relations and a diagonal part
    carry 52 relation columns on 36 generators, so the relations are
    lattice-reduced.  Each part is reduced on its own: the relations are
    those of FgAb(n, rel), the group and its element equality agree with
    it, and no Smith form runs."""
    part = FgAb(4, IntMatrix.from_columns(
        [(2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (0, 0, 0, 2),
         (2, 3, 1, 0), (0, 2, 3, 3)], 4))
    parts = [part, diag_group(2, 0, 6, 1)] + [part] * 7
    ref = _reference_sum(parts)
    shapes = []
    snf = abelian._snf_data
    monkeypatch.setattr(abelian, "_snf_data",
                        lambda m, *a: shapes.append(m.shape) or snf(m, *a))
    got = FgAb.direct_sum(parts)
    assert shapes == []
    assert got.n == 36 and got.rel == ref.rel
    # the reduced part is not diagonal, so FgAb(n, rel) needs a Smith form
    assert any(len(col) > 1 for col in got.rel._columns)
    assert _invariants(got) == _invariants(ref) == (1, (2, 2) + (16,) * 7
                                                    + (48,))
    rng = random.Random(5)
    for _ in range(40):
        x = tuple(rng.randint(-7, 7) for _ in range(got.n))
        c = tuple(rng.randint(-2, 2) for _ in range(ref.rel.cols))
        y = ref.add(x, ref.rel.apply(c))
        z = ref.add(y, ref.gen(rng.randrange(got.n)))
        assert got.eq(x, y) and ref.eq(x, y)
        assert got.eq(x, z) == ref.eq(x, z)
        assert got.eq(got.from_canon(got.canon(x)), x)


def test_direct_sum_cases():
    dense = FgAb(2, IntMatrix([[2, 1], [0, 4]]))
    s = FgAb.direct_sum([diag_group(2), dense, FgAb(0), FgAb(1)])
    assert s.invariant_factors() == _reference_sum(
        [diag_group(2), dense, FgAb(0), FgAb(1)]).invariant_factors()
    assert s.invariant_factors() == (2, 8) and s.free_rank() == 1
    # concatenated moduli (6 then 2) are no divisibility chain
    s = FgAb.direct_sum([diag_group(6), FgAb(2, IntMatrix([[2, 2], [0, 4]]))])
    assert s.invariant_factors() == (2, 2, 12)
    assert FgAb.direct_sum([]).n == 0
    # relation columns beyond max(n, 32): reduced as the constructor does
    wide = FgAb(1, IntMatrix([[2 * k + 4 for k in range(20)]]))
    s = FgAb.direct_sum([wide, wide])
    assert s.rel == _reference_sum([wide, wide]).rel
    assert s.rel.cols <= 2 and s.invariant_factors() == (2, 2)


@st.composite
def maps_into_torsion(draw):
    """A map Z^k -> Z^n / <rel> whose codomain has torsion; its first
    generator image is repeated, so the map is not injective."""
    n = draw(st.integers(1, 4))
    ent = st.integers(-6, 6)
    rel = draw(st.lists(st.lists(ent, min_size=n, max_size=n), max_size=3))
    rel.append([draw(st.integers(2, 6))] + [0] * (n - 1))
    cod = FgAb(n, IntMatrix.from_columns(rel, n))
    assume(cod.invariant_factors())
    cols = draw(st.lists(st.lists(ent, min_size=n, max_size=n), max_size=3))
    cols += cols[:1]
    return AbMap(FgAb(len(cols)), cod, IntMatrix.from_columns(cols, n))


@settings(max_examples=200, deadline=None)
@given(maps_into_torsion(), st.data())
def test_solve_agrees_with_image_membership(f, data):
    cod = f.cod

    def vec(n):
        return data.draw(st.lists(st.integers(-9, 9), min_size=n,
                                  max_size=n).map(tuple))

    # a target built as f(x0) plus a relation combination is solved
    y = cod.add(f.apply(vec(f.dom.n)), cod.rel.apply(vec(cod.rel.cols)))
    x = f.solve(y)
    assert x is not None and cod.eq(f.apply(x), y)
    # an arbitrary target is solved iff it lies in the image; the
    # cokernel, a Smith form of [rel | mat], decides that independently
    q, _ = f.cokernel()
    for _ in range(3):
        y = vec(cod.n)
        x = f.solve(y)
        assert (x is None) == (not f.image_lattice().contains(y)) \
            == (not q.is_zero(y))
        if x is not None:
            assert cod.eq(f.apply(x), y)


class _Escaped(Exception):
    def __init__(self, j):
        super().__init__(j)
        self.j = j


@settings(max_examples=200, deadline=None)
@given(maps_into_torsion(), st.data())
def test_lift_is_solve_column_by_column(f, data):
    def vec(n):
        return st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple)

    # image elements mixed with arbitrary targets, possibly none at all
    cols = data.draw(st.lists(st.one_of(vec(f.dom.n).map(f.apply),
                                        vec(f.cod.n)), max_size=5))
    sols = [f.solve(y) for y in cols]
    mat = IntMatrix.from_columns(cols, f.cod.n)
    if None in sols:
        with pytest.raises(_Escaped) as err:
            f.lift(mat, _Escaped)
        assert err.value.j == sols.index(None)
    else:
        m = f.lift(mat, _Escaped)
        assert m.shape == (f.dom.n, len(cols))
        assert m == IntMatrix.from_columns(sols, f.dom.n)


def test_lift_edge_shapes():
    z3 = diag_group(3)
    f = AbMap(FgAb(0), z3, IntMatrix([[]], cols=0))
    assert f.lift(IntMatrix.zeros(1, 0), _Escaped).shape == (0, 0)
    assert f.lift(IntMatrix([[0, 3]]), _Escaped).shape == (0, 2)
    with pytest.raises(_Escaped) as err:
        f.lift(IntMatrix([[3, 1]]), _Escaped)
    assert err.value.j == 1
    g = AbMap(FgAb(2), z3, IntMatrix([[1, 1]]))  # not injective
    assert g.lift(IntMatrix.zeros(1, 0), _Escaped).shape == (2, 0)
    m = g.lift(IntMatrix([[1, 5]]), _Escaped)
    assert [z3.canon(g.apply(m.column(j))) for j in range(2)] == [(1,), (2,)]


def _kernel_vectors(mat, cod):
    """Vectors x with mat.x in the span of cod.rel: the columns of V past
    the rank in the Smith form of [mat | rel], cut to mat.cols entries.
    This does not touch the kernel code that Homology uses."""
    aug = mat.hstack(cod.rel)
    _, d, v, _ = _snf_data(aug, track_v=True)
    rank = sum(1 for i in range(min(d.rows, d.cols)) if d.entries[i][i])
    return [v.column(j)[:mat.cols] for j in range(rank, aug.cols)]


@st.composite
def chain_pairs(draw):
    """(d_in, d_out): Z^a -> B -> C with C finite.  B's relations and
    d_in's columns are combinations of vectors that d_out sends into C's
    relations, so their integer images are mostly nonzero; a perturbed
    pair adds an arbitrary vector to one d_in column.  Wide pairs have
    more than 32 d_in columns, so H's relations are lattice-reduced."""
    ent = st.integers(-4, 4)
    n = draw(st.integers(1, 3))
    rel_c = [tuple(m if i == j else 0 for i in range(n)) for j, m in
             enumerate(draw(st.lists(st.integers(2, 6), min_size=n,
                                     max_size=n)))]
    rel_c += draw(st.lists(st.lists(ent, min_size=n, max_size=n).map(tuple),
                           max_size=2))
    cod = FgAb(n, IntMatrix.from_columns(rel_c, n))
    m = draw(st.integers(1, 4))
    mat = IntMatrix(draw(st.lists(st.lists(ent, min_size=m, max_size=m),
                                  min_size=n, max_size=n)), cols=m)
    kers = _kernel_vectors(mat, cod)
    rng = draw(st.randoms(use_true_random=False))
    wide = draw(st.booleans())

    def combos(count):
        out = []
        for _ in range(count):
            cs = [rng.randint(-2, 2) for _ in kers]
            out.append(tuple(sum(c * k[i] for c, k in zip(cs, kers))
                             for i in range(m)))
        return out

    mid = FgAb(m, IntMatrix.from_columns(combos(rng.randint(0, 3)), m))
    cols = combos(rng.randint(33, 36) if wide else rng.randint(0, 4))
    if cols and draw(st.booleans()):
        j = rng.randrange(len(cols))
        cols[j] = tuple(x + rng.randint(-2, 2) for x in cols[j])
    d_in = AbMap(FgAb(len(cols)), mid, IntMatrix.from_columns(cols, m))
    return d_in, AbMap(mid, cod, mat)


@settings(max_examples=150, deadline=None)
@given(chain_pairs(), st.randoms(use_true_random=False))
def test_homology_agrees_with_kernel_then_quotient(pair, rng):
    d_in, d_out = pair
    mid, cod = d_out.dom, d_out.cod
    # the product is computed over Z and judged modulo cod.rel by the
    # Smith-form canonical form, not by the lattice walk under test
    prod = d_out.mat.mul(d_in.mat).transpose().entries
    if not all(cod.is_zero(col) for col in prod):
        with pytest.raises(NonComplex):
            Homology(d_in, d_out)
        return
    h = Homology(d_in, d_out)
    kgrp, incl = d_out.kernel()
    imgs = [incl.solve(col) for col in d_in.mat.transpose().entries]
    ref, _ = ab_quotient(kgrp, imgs)
    # the private presentation has the same relation columns, so the same
    # Smith form and canonical coordinates as the two-step construction
    g = h._pres
    assert g.rel == ref.rel
    assert g.invariant_factors() == ref.invariant_factors()
    assert g.free_rank() == ref.free_rank()
    # the public group is the diagonal group on those canonical moduli,
    # and a class map's matrix holds the classes of f's columns
    assert h.group.is_diagonal()
    assert h.group.canonical_moduli() == g.canonical_moduli()
    assert h.class_map(incl).mat == IntMatrix.from_columns(
        [h.class_of(incl.mat.column(j)) for j in range(kgrp.n)], h.group.n)
    # ker(d_out) as H presents it (H with no incoming map) is
    # d_out.kernel(), and H's coordinates are the kernel's: each kernel
    # generator is its own class
    cycles = Homology(AbMap.zero(FgAb(0), mid), d_out)._pres
    assert cycles.rel == kgrp.rel
    assert _invariants(cycles) == _invariants(kgrp)
    for i in range(kgrp.n):
        assert h.class_of(incl.apply(kgrp.gen(i))) == g.canon(kgrp.gen(i))

    def cycle():
        return incl.apply(tuple(rng.randint(-5, 5) for _ in range(kgrp.n)))

    for _ in range(4):
        z1, z2 = cycle(), cycle()
        c1, c2 = h.class_of(z1), h.class_of(z2)
        assert h.class_of(mid.add(z1, z2)) == \
            g.canon(g.add(g.from_canon(c1), g.from_canon(c2)))
        assert (c1 == c2) == ref.eq(incl.solve(z1), incl.solve(z2))
        assert h.class_of(h.rep_of(c1)) == c1
        y = tuple(rng.randint(-5, 5) for _ in range(mid.n))
        if cod.is_zero(d_out.apply(y)):
            assert h.class_of(y) == g.canon(incl.solve(y))
        else:
            with pytest.raises(ValueError):
                h.class_of(y)
    if g.is_finite() and g.order() <= 64:
        # rep_of is a right inverse of class_of, and distinct classes go
        # to distinct classes of the reference: class_of is a bijection
        seen = set()
        for e in g.elements():
            c = g.canon(e)
            z = h.rep_of(c)
            assert h.class_of(z) == c
            seen.add(ref.canon(incl.solve(z)))
        assert len(seen) == g.order() == ref.order()


def test_homology_walk_is_the_complex_check():
    # d_out . d_in = 2, nonzero over Z but zero in Z/2: still a complex
    z, z2 = FgAb(1), diag_group(2)
    h = Homology(AbMap(z, z, IntMatrix([[2]])), AbMap(z, z2, IntMatrix([[1]])))
    assert h.group.is_trivial() and h.class_of((2,)) == ()
    assert AbMap(z, z2, IntMatrix([[1]])).kernel()[0].free_rank() == 1
    with pytest.raises(NonComplex, match="generator 1"):
        Homology(AbMap(FgAb(2), z, IntMatrix([[2, 3]])),
                 AbMap(z, z2, IntMatrix([[1]])))


def test_homology_reduces_many_cycle_relations():
    # 34 relations on Z^34 are kept by FgAb, but the kernel of d_out has
    # rank 1, so over it they are more than max(1, 32) and are reduced
    n = 34
    rel = [tuple((4 + 2 * j) if i == 0 else 0 for i in range(n))
           for j in range(n)]
    mid = FgAb(n, IntMatrix.from_columns(rel, n))
    d_out = AbMap(mid, FgAb(n - 1), IntMatrix(
        [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]))
    d_in = AbMap(FgAb(1), mid, IntMatrix.from_columns(
        [tuple(6 if i == 0 else 0 for i in range(n))], n))
    h = Homology(d_in, d_out)
    kgrp, incl = d_out.kernel()
    cycles = Homology(AbMap.zero(FgAb(0), mid), d_out)._pres
    assert cycles.rel == kgrp.rel and kgrp.rel.cols == 1
    # kernel relations reduced first, then the image column appended: two
    # columns, as the two-step construction presents H privately
    ref, _ = ab_quotient(kgrp, [incl.solve(d_in.apply((1,)))])
    assert h._pres.rel == ref.rel and h._pres.rel.cols == 2
    assert h.group.invariant_factors() == (2,)
    assert h.class_of(h.rep_of((1,))) == (1,)


@st.composite
def maps_with_private_columns(draw):
    """A map Z^k -> Z^n, free codomain, each of whose k columns owns a
    private coordinate: column j is nonzero at coordinate owner[j], where
    every other column is zero; the coordinates no column owns carry
    arbitrary entries."""
    n = draw(st.integers(1, 6))
    owner = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    shared = [i for i in range(n) if i not in owner]
    nonzero = st.integers(-4, 4).filter(bool)
    cols = []
    for p in owner:
        col = {p: draw(nonzero)}
        for i in shared:
            col[i] = draw(st.integers(-3, 3))
        cols.append([col.get(i, 0) for i in range(n)])
    return AbMap(FgAb(len(cols)), FgAb(n), IntMatrix.from_columns(cols, n))


@settings(max_examples=200, deadline=None)
@given(maps_with_private_columns(), st.data())
def test_private_image_lattice_agrees_with_the_hermite_path(
        hermite_image, f, data):
    """Into a free codomain, columns that own private coordinates solve
    on their PrivateBasis; solve, lift and contains give exactly what the
    Hermite witness path gives, on image vectors, on image vectors moved
    at one coordinate and on arbitrary vectors."""
    lat, ref = f.image_lattice(), hermite_image(f)
    assert isinstance(lat, PrivateBasis)
    n, m = f.cod.n, f.dom.n

    def ref_solve(y):
        w = ref.generator_coords(y)
        return None if w is None else tuple(w.get(j, 0) for j in range(m))

    def vec(k, bound=9):
        return data.draw(st.lists(st.integers(-bound, bound), min_size=k,
                                  max_size=k).map(tuple))

    ys = []
    for _ in range(3):
        y = list(f.apply(vec(m, 4)))
        ys.append(tuple(y))
        y[data.draw(st.integers(0, n - 1))] += data.draw(
            st.integers(-3, 3).filter(bool))
        ys.append(tuple(y))
        ys.append(vec(n))
    for y in ys:
        assert f.solve(y) == ref_solve(y), y
        assert lat.contains(y) == ref.contains(y) == (ref_solve(y) is not None)
    sols = [ref_solve(y) for y in ys]
    mat = IntMatrix.from_columns(ys, n)
    if None in sols:
        with pytest.raises(_Escaped) as err:
            f.lift(mat, _Escaped)
        assert err.value.j == sols.index(None)
    else:
        assert f.lift(mat, _Escaped) == IntMatrix.from_columns(sols, m)


def test_image_lattice_falls_back_to_the_hermite_path():
    """One column without a private coordinate, or codomain relations,
    send the image lattice down the Hermite witness path."""
    shared = AbMap(FgAb(2), FgAb(2), IntMatrix([[1, 0], [1, 1]]))
    assert isinstance(shared.image_lattice(), Lattice)
    assert shared.solve((1, 3)) == (1, 2)
    private = AbMap(FgAb(2), FgAb(3), IntMatrix([[1, 0], [0, 2], [3, -1]]))
    assert isinstance(private.image_lattice(), PrivateBasis)
    assert private.solve((1, 2, 2)) == (1, 1)
    assert private.solve((1, 1, 3)) is None
    torsion = AbMap(FgAb(1), diag_group(4), IntMatrix([[2]]))
    assert isinstance(torsion.image_lattice(), Lattice)

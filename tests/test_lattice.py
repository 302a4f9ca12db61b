import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from tatelab.abelian import AbMap, FgAb
from tatelab.lattice import (IntMatrix, Lattice, _snf_data, kernel_basis,
                             smith_normal_form)

small_entries = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=4):
    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r, max_size=r).map(
                    lambda rows: IntMatrix(rows, cols=c))))


def unimodular_2x2(bound=3):
    for a, b, c, d in itertools.product(range(-bound, bound + 1), repeat=4):
        if a * d - b * c in (1, -1):
            yield IntMatrix([[a, b], [c, d]])


def test_snf_identity_and_zero():
    u, d, v = smith_normal_form(IntMatrix.identity(2))
    assert d == IntMatrix.identity(2)
    u, d, v = smith_normal_form(IntMatrix.zeros(2, 2))
    assert d == IntMatrix.zeros(2, 2)
    assert abs(_det2(u)) == 1 and abs(_det2(v)) == 1


def _det2(m):
    e = m.entries
    return e[0][0] * e[1][1] - e[0][1] * e[1][0]


def test_snf_2x2_example_against_exhaustive_unimodular_search():
    # oracle: scan small unimodular U, V for a diagonal form with a chain
    m = IntMatrix([[2, 4], [6, 8]])
    found = None
    for u in unimodular_2x2():
        for v in unimodular_2x2():
            d = u.mul(m).mul(v)
            e = d.entries
            if e[0][1] == 0 and e[1][0] == 0 and e[0][0] > 0 \
                    and e[1][1] % e[0][0] == 0:
                found = (abs(e[0][0]), abs(e[1][1]))
                break
        if found:
            break
    assert found == (2, 4)
    u, d, v = smith_normal_form(m)
    assert (d.entries[0][0], d.entries[1][1]) == found
    assert u.mul(m).mul(v) == d


@st.composite
def unit_pivot_matrices(draw):
    """Matrices whose Smith pivots are mostly +-1, with non-unit pivots
    after the unit ones: a permuted diagonal such as diag(1, 1, 2, 4, 0)
    plus a little noise, both biased toward +-1."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    diag = draw(st.lists(st.sampled_from([1, 1, -1, 2, 3, 4, 6, 0]),
                         min_size=min(rows, cols), max_size=min(rows, cols)))
    d = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(diag):
        d[i][i] = x
    for i, j, x in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                           st.integers(0, cols - 1),
                                           st.sampled_from([1, -1, 2])),
                                 max_size=3)):
        d[i][j] += x
    rp = draw(st.permutations(range(rows)))
    cp = draw(st.permutations(range(cols)))
    return IntMatrix([[d[i][j] for j in cp] for i in rp], cols=cols)


@settings(max_examples=240, deadline=None)
@given(st.one_of(matrices(), unit_pivot_matrices()))
@example(IntMatrix([[0, 0, 2, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 1],
                    [0, 1, 0, 0, 0], [0, 0, 1, 4, 0]]))
@example(IntMatrix([[2, 0], [0, 3]]))
def test_snf_properties(m):
    u, d, v, uinv = _snf_data(m, track_v=True)
    u0, d0, v0, uinv0 = _snf_data(m)
    assert (u0, d0, v0, uinv0) == (u, d, None, uinv)
    assert u.mul(m).mul(v) == d
    assert u.mul(uinv) == IntMatrix.identity(m.rows)
    diag = [d.entries[i][i] for i in range(min(m.rows, m.cols))]
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d.entries[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(x >= 0 for x in diag)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_rank_nullity_and_membership(m):
    ker = kernel_basis(m.entries, m.cols)
    _, d, _ = smith_normal_form(m)
    rank = sum(1 for i in range(min(m.rows, m.cols)) if d.entries[i][i])
    assert len(ker) == m.cols - rank
    for col in ker:
        assert all(x == 0 for x in m.apply(col))


@settings(max_examples=80, deadline=None)
@given(matrices(), st.lists(st.integers(-3, 3), min_size=0, max_size=4))
def test_solve_hits_constructed_targets(m, x):
    x = (x + [0] * m.cols)[:m.cols]
    b = m.apply(x)
    sol = AbMap(FgAb(m.cols), FgAb(m.rows), m).solve(b)
    assert sol is not None
    assert m.apply(sol) == tuple(b)


def test_solve_reports_unsolvable():
    m = IntMatrix([[2]])
    assert AbMap(FgAb(m.cols), FgAb(m.rows), m).solve((1,)) is None


def test_kernel_basis_streaming_sparse_rows():
    rows = [{0: 1, 1: 1, 2: 1}, {1: 2}]
    ker = kernel_basis(iter(rows), 3)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + v[1] + v[2] == 0 and 2 * v[1] == 0


def test_lattice_membership_reduction_and_witnesses():
    gens = [(2, 0, 0), (0, 3, 0), (1, 1, 1)]
    lat = Lattice(3, witnesses=True)
    for g in gens:
        lat.add(g)
    assert lat.contains((3, 4, 1))
    assert not lat.contains((1, 0, 0))
    for i, row in enumerate(lat.basis()):
        w = lat.basis_witness(i)
        rebuilt = [0, 0, 0]
        for k, c in w.items():
            for j in range(3):
                rebuilt[j] += c * gens[k][j]
        assert tuple(rebuilt) == row


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(small_entries, min_size=n, max_size=n), max_size=6),
    st.lists(st.integers(-3, 3), min_size=6, max_size=6),
    st.lists(small_entries, min_size=n, max_size=n))))
def test_witnesses_and_coords_over_random_generators(case):
    n, gens, coeffs, other = case
    lat = Lattice(n, witnesses=True)
    for g in gens:
        lat.add(g)

    def combine(w):
        return tuple(sum(c * gens[k][j] for k, c in w.items())
                     for j in range(n))

    basis = lat.basis()
    for i, row in enumerate(basis):
        assert combine(lat.basis_witness(i)) == row
    v = combine(dict(enumerate(coeffs[:len(gens)])))
    assert combine(lat.generator_coords(v)) == v
    c = lat.coords(v)
    assert len(c) == len(basis)
    assert tuple(sum(q * row[j] for q, row in zip(c, basis))
                 for j in range(n)) == v
    # off the lattice both answers are None, exactly when reduce is not 0
    off = any(lat.reduce(other))
    assert (lat.coords(other) is None) == off
    assert (lat.generator_coords(other) is None) == off


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_entries, small_entries, small_entries),
                min_size=1, max_size=6),
       st.tuples(small_entries, small_entries, small_entries),
       st.lists(st.integers(-2, 2), min_size=6, max_size=6))
def test_lattice_reduce_is_coset_canonical(gens, v, coeffs):
    lat = Lattice(3)
    for g in gens:
        lat.add(g)
    shift = [0, 0, 0]
    for g, c in zip(gens, coeffs):
        for j in range(3):
            shift[j] += c * g[j]
    assert lat.reduce(v) == lat.reduce(tuple(a + b for a, b in
                                             zip(v, shift)))


def test_intmatrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    for short_or_long in ([1], [1, 2, 3]):
        with pytest.raises(ValueError):
            IntMatrix.from_columns([[1, 2], short_or_long], 2)
    m = IntMatrix.from_columns([[1, 2], [3.0, 4]], 2)
    assert m.entries == ((1, 3), (2, 4)) and type(m.entries[0][1]) is int
    m = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 3


def _naive_mul(a, b, rows, inner, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


@settings(max_examples=120, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
       .flatmap(lambda s: st.tuples(
           st.lists(st.lists(small_entries, min_size=s[1], max_size=s[1]),
                    min_size=s[0], max_size=s[0]),
           st.lists(st.lists(small_entries, min_size=s[2], max_size=s[2]),
                    min_size=s[1], max_size=s[1]),
           st.just(s))))
def test_mul_matches_naive_triple_loop(case):
    """Each factor built from rows and through _from_sparse_columns."""
    a, b, (rows, inner, cols) = case
    want = IntMatrix(_naive_mul(a, b, rows, inner, cols), cols=cols)
    ma, mb = IntMatrix(a, cols=inner), IntMatrix(b, cols=cols)
    for left in (ma, _column_built(ma)):
        for right in (mb, _column_built(mb)):
            prod_ = left.mul(right)
            assert prod_.shape == (rows, cols)
            assert prod_ == want
            assert all(type(x) is int for row in prod_.entries for x in row)
            assert all(x for col in prod_.sparse_columns()
                       for x in col.values())


def test_mul_and_transpose_empty_shapes():
    k_by_0 = IntMatrix([[], [], []], cols=0)
    zero_by_4 = IntMatrix([], cols=4)
    assert k_by_0.mul(zero_by_4) == IntMatrix.zeros(3, 4)
    assert zero_by_4.mul(IntMatrix.zeros(4, 2)).shape == (0, 2)
    assert IntMatrix.zeros(2, 3).mul(IntMatrix([[], [], []], cols=0)).shape \
        == (2, 0)
    neg = IntMatrix([[-1, 2], [0, -3]])
    assert neg.mul(neg) == IntMatrix([[1, -8], [0, 9]])
    t = zero_by_4.transpose()
    assert t.shape == (4, 0) and t.entries == ((), (), (), ())
    assert k_by_0.transpose().shape == (0, 3)
    assert IntMatrix([[1, 2, 3]]).transpose() == IntMatrix([[1], [2], [3]])


def test_block_diagonal():
    a = IntMatrix([[1, 2]])
    b = IntMatrix([[3], [4]])
    empty = IntMatrix([], cols=0)
    m = IntMatrix.block_diagonal([a, empty, b])
    assert m == IntMatrix([[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    assert IntMatrix.block_diagonal([]).shape == (0, 0)
    assert IntMatrix.block_diagonal([IntMatrix([[], []], cols=0), a]) == \
        IntMatrix([[0, 0], [0, 0], [1, 2]])


def _column_built(m):
    """A fresh copy of m held by its sparse columns, rows not yet built."""
    c = IntMatrix._from_sparse_columns(m.sparse_columns(), m.rows)
    assert c._entries is None
    return c


def _padded_rows(blocks):
    """The block-diagonal matrix of blocks, built row by row."""
    cols, rows, left = sum(x.cols for x in blocks), [], 0
    for x in blocks:
        rows += [[0] * left + list(row) + [0] * (cols - left - x.cols)
                 for row in x.entries]
        left += x.cols
    return IntMatrix(rows, cols=cols)


@st.composite
def operand_triples(draw):
    """(m, b, w): an r x c matrix, a c x 2 one to multiply it by and an
    r x 3 one to stack beside it, r and c from 0 to 4, mostly zeros."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def mat(rows, cols):
        entry = st.one_of(st.just(0), st.just(0), small_entries)
        return IntMatrix(draw(st.lists(st.lists(entry, min_size=cols,
                                                max_size=cols),
                                       min_size=rows, max_size=rows)),
                         cols=cols)
    return mat(r, c), mat(c, 2), mat(r, 3)


@settings(max_examples=150, deadline=None)
@given(operand_triples())
def test_column_built_matrix_agrees_with_row_built(case):
    """Every view and operation of a matrix is the same whether it was
    built from rows or from sparse columns, on either side of a product,
    a Kronecker product, a stack or a block diagonal, including shapes
    with no rows or no columns; identity and zeros equal the matrices
    built from their rows."""
    m, b, w = case
    r, c = m.shape
    cb = _column_built
    assert cb(m).shape == m.shape
    assert cb(m).sparse_rows() == m.sparse_rows()
    assert cb(m).sparse_columns() == m.sparse_columns()
    one = cb(m)
    assert [one.column(j) for j in range(c)] == \
        [m.column(j) for j in range(c)]
    assert cb(m).is_zero() == m.is_zero()
    assert cb(m).transpose() == m.transpose()
    assert cb(m).transpose().shape == (c, r)
    for x, y in ((cb(m), w), (m, cb(w)), (cb(m), cb(w))):
        assert x.hstack(y) == m.hstack(w)
    for blocks, want in (((cb(m), w), (m, w)), ((w, cb(m)), (w, m)),
                         ((cb(m), cb(m)), (m, m))):
        assert IntMatrix.block_diagonal(blocks) == _padded_rows(want)
    want = m.mul(b)
    for x, y in ((cb(m), b), (m, cb(b)), (cb(m), cb(b))):
        assert x.mul(y) == want
    wr, wc = w.shape
    want = IntMatrix([[m.entries[i][p] * w.entries[k][q]
                       for p in range(c) for q in range(wc)]
                      for i in range(r) for k in range(wr)], cols=c * wc)
    for x, y in ((m, w), (cb(m), w), (m, cb(w)), (cb(m), cb(w))):
        assert x.kron(y) == want
    assert IntMatrix.identity(c) == IntMatrix(
        [[int(i == j) for j in range(c)] for i in range(c)], cols=c)
    assert IntMatrix.zeros(r, c) == IntMatrix([[0] * c] * r, cols=c)
    dense_vec = tuple(range(1, c + 1))
    sparse_vec = tuple(int(j == c - 1) for j in range(c))
    for vec in (dense_vec, sparse_vec):
        assert cb(m).apply(vec) == m.apply(vec)
    assert cb(m) == m and m == cb(m)
    assert hash(cb(m)) == hash(m)
    assert cb(m).entries == m.entries
    assert (cb(m) == IntMatrix.zeros(r, c + 1)) is False


def test_identity_and_zeros_shapes():
    assert IntMatrix.identity(3) == IntMatrix([[1, 0, 0], [0, 1, 0],
                                               [0, 0, 1]])
    assert IntMatrix.identity(0).shape == (0, 0)
    assert IntMatrix.zeros(2, 3) == IntMatrix([[0, 0, 0], [0, 0, 0]])
    assert IntMatrix.zeros(0, 3).shape == (0, 3)
    assert IntMatrix.zeros(2, 0).entries == ((), ())


sparse_entries = st.one_of(st.just(0), st.just(0), small_entries)


@st.composite
def kernel_inputs(draw):
    """(dense rows, the rows as given to kernel_basis, ncols): a mix of
    dict and dense rows, with zero rows and repeated rows."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(sparse_entries, min_size=ncols,
                                  max_size=ncols), max_size=6))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    as_dict = draw(st.lists(st.booleans(), min_size=len(rows),
                            max_size=len(rows)))
    given_rows = [{j: x for j, x in enumerate(r) if x} if d else r
                  for r, d in zip(rows, as_dict)]
    return rows, given_rows, ncols


def _lattice_of(vectors, dim):
    lat = Lattice(dim)
    for v in vectors:
        lat.add(v)
    return lat


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_kernel_basis_spans_the_smith_kernel(case):
    rows, given_rows, ncols = case
    ker = kernel_basis(iter(given_rows), ncols)
    for col in ker:
        assert len(col) == ncols
        for row in rows:
            assert sum(a * b for a, b in zip(row, col)) == 0
    # reference: the columns of V past the rank, from U m V = D
    m = IntMatrix(rows, cols=ncols)
    _, d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(m.rows, m.cols)) if d.entries[i][i])
    ref = [v.column(j) for j in range(rank, ncols)]
    assert len(ker) == ncols - rank
    ker_lat, ref_lat = _lattice_of(ker, ncols), _lattice_of(ref, ncols)
    assert all(ker_lat.contains(c) for c in ref)
    assert all(ref_lat.contains(c) for c in ker)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(small_entries, min_size=n, max_size=n), max_size=4),
    st.integers(1, 4),
    st.lists(small_entries, min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4))))
def test_contains_agrees_with_reduce(case):
    gens, scale, noise, coeffs = case
    n = len(noise)
    # scaled generators make pivot values other than 1 common
    gens = [[scale * x for x in g] for g in gens]
    lat = _lattice_of(gens, n)
    member = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)]
    vectors = [noise, member, [a + b for a, b in zip(member, noise)]]
    for row in lat.basis():
        # pivot value shifted by one: not a multiple once the pivot is > 1
        piv = next(i for i, x in enumerate(row) if x)
        off = list(row)
        off[piv] += 1
        vectors += [off, [a + b for a, b in zip(off, member)]]
        if row[piv] > 1:
            assert not lat.contains(off)
    for vec in vectors:
        expected = not any(lat.reduce(vec))
        assert lat.contains(tuple(vec)) == expected
        assert lat.contains({j: x for j, x in enumerate(vec)
                             if x}) == expected
    assert lat.contains({}) and lat.contains((0,) * n)

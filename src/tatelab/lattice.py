"""Exact linear algebra over the integers.

Everything downstream (group rings, cohomology, the instance pipelines)
reduces to integer matrix normal forms, kernels and lattice arithmetic,
so this module is the substrate of the whole package.  No floating point
is used anywhere; Python ints are arbitrary precision.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, repeat


class IntMatrix:
    """Immutable integer matrix, held by its sparse columns.

    Column j is a {row: value} dict of its nonzero entries, and the
    package reads these dicts as `_columns`, never changing them.  Every
    constructor builds them and every operation works on them, so the
    large and very sparse differentials and relation matrices of the
    cohomology never become dense.  `entries`, the rows as a tuple of int
    tuples, is a view for dense readers: built from the columns when it
    is first read, and kept.  Shape, equality and hashing depend on the
    entries only, not on how a matrix was built.

    >>> m = IntMatrix([[5, 0, 0], [0, 0, -1]])
    >>> m.shape, m.sparse_columns()
    ((2, 3), [{0: 5}, {}, {1: -1}])
    >>> c = IntMatrix._from_sparse_columns([{0: 5}, {}, {1: -1}], 2)
    >>> c.sparse_rows(), c.entries
    ([{0: 5}, {2: -1}], ((5, 0, 0), (0, 0, -1)))
    >>> c == m
    True
    """

    __slots__ = ("rows", "cols", "_columns", "_entries")

    def __init__(self, entries, cols=None):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        if entries:
            cols = len(entries[0])
        elif cols is None:
            cols = 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows in matrix")
        self._hold(_sparse(list(zip(*entries)) or [()] * cols, len(entries)),
                   len(entries))

    def _hold(self, columns, rows):
        """Set the slots: `columns` are {row: value} dicts of nonzero ints,
        taken over."""
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", len(columns))
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_entries", None)

    @classmethod
    def _from_sparse_columns(cls, columns, rows):
        """A rows x len(columns) matrix on its {row: value} dict columns.
        They hold nonzero ints only, and the matrix takes them over:
        nothing may change them afterwards."""
        m = object.__new__(cls)
        m._hold(list(columns), rows)
        return m

    @classmethod
    def _trusted(cls, entries, cols):
        """Internal constructor from rows: `entries` is a sequence of int
        sequences, each of length `cols`, so nothing is coerced or
        checked."""
        return cls._trusted_columns(list(zip(*entries)) or [()] * cols,
                                    len(entries))

    @classmethod
    def _trusted_columns(cls, columns, rows):
        """Internal from_columns: the columns are int sequences of length
        `rows` that the package built, so nothing is coerced or checked."""
        return cls._from_sparse_columns(_sparse(columns, rows), rows)

    @classmethod
    def from_columns(cls, columns, rows):
        """Build a rows x len(columns) matrix from column vectors."""
        columns = [tuple(int(x) for x in col) for col in columns]
        if any(len(col) != rows for col in columns):
            raise ValueError("column length mismatch in matrix")
        return cls._trusted_columns(columns, rows)

    @classmethod
    def identity(cls, n):
        return cls._from_sparse_columns([{j: 1} for j in range(n)], n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls._from_sparse_columns([{} for _ in range(cols)], rows)

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    @property
    def entries(self):
        """The rows, a tuple of int tuples, built on the first read."""
        if self._entries is None:
            object.__setattr__(self, "_entries",
                               tuple(map(tuple, self._row_lists())))
        return self._entries

    @property
    def shape(self):
        return (self.rows, self.cols)

    def _row_lists(self):
        """The rows as fresh lists."""
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._columns):
            for i, x in col.items():
                out[i][j] = x
        return out

    def sparse_rows(self):
        """Rows as fresh {column: value} dicts of the nonzero entries."""
        out = [{} for _ in range(self.rows)]
        for j, col in enumerate(self._columns):
            for i, x in col.items():
                out[i][j] = x
        return out

    def sparse_columns(self):
        """Columns as fresh {row: value} dicts of the nonzero entries."""
        return [dict(c) for c in self._columns]

    def column(self, j):
        return tuple(map(self._columns[j].get, range(self.rows), repeat(0)))

    @classmethod
    def block_diagonal(cls, blocks):
        """Block-diagonal matrix of the given (possibly rectangular)
        blocks."""
        cols, top = [], 0
        for b in blocks:
            if top:
                cols.extend({i + top: x for i, x in c.items()}
                            for c in b._columns)
            else:
                cols.extend(b._columns)
            top += b.rows
        return cls._from_sparse_columns(cols, top)

    def kron(self, other):
        """The Kronecker product self (x) other: column p.other.cols + q is
        {i.other.rows + k: a_ip.b_kq}.  The entries are products of
        nonzero ints at distinct places, so no sum is formed and no zero
        is stored.

        >>> m = IntMatrix([[2, 1], [0, -1]]).kron(IntMatrix([[0], [3]]))
        >>> m.shape, m.sparse_columns()
        ((4, 2), [{1: 6}, {1: 3, 3: -3}])
        """
        nr = other.rows
        return IntMatrix._from_sparse_columns(
            [{i * nr + k: x * y for i, x in lc.items() for k, y in rc.items()}
             for lc in self._columns for rc in other._columns],
            self.rows * nr)

    def transpose(self):
        return IntMatrix._from_sparse_columns(self.sparse_rows(), self.cols)

    def mul(self, other):
        """Matrix product: column j is the sum of b_kj times column k of
        self over the nonzero b_kj of other's column j, so only nonzero
        entries of both factors are visited.

        >>> IntMatrix([[1, 2], [0, 1]]).mul(IntMatrix([[0, 1], [1, -2]])
        ...                                 ).sparse_columns()
        [{0: 2, 1: 1}, {0: -3, 1: -2}]
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        left = self._columns
        out = []
        for col in other._columns:
            acc = {}
            for k, b in col.items():
                for i, a in left[k].items():
                    acc[i] = acc.get(i, 0) + a * b
            out.append({i: x for i, x in acc.items() if x})
        return IntMatrix._from_sparse_columns(out, self.rows)

    def apply(self, vec):
        """Matrix times column vector, over the vector's nonzero entries."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for vj, col in zip(vec, self._columns):
            if vj:
                for i, a in col.items():
                    out[i] += a * vj
        return tuple(out)

    def _apply_sparse(self, vec):
        """Matrix times a {index: value} vector, as a fresh dict of the
        nonzero entries."""
        cols = self._columns
        out = {}
        for j, vj in vec.items():
            for i, a in cols[j].items():
                out[i] = out.get(i, 0) + a * vj
        return {i: x for i, x in out.items() if x}

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix._from_sparse_columns(self._columns + other._columns,
                                              self.rows)

    def is_zero(self):
        return not any(self._columns)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self._columns == other._columns)

    def __hash__(self):
        return hash((self.rows, tuple(frozenset(c.items())
                                      for c in self._columns)))

    def __repr__(self):
        return f"IntMatrix({self._row_lists()!r})"


def _sparse(columns, rows):
    """{row: value} dicts of the nonzero entries of dense int columns."""
    rng = range(rows)
    return [{i: col[i] for i in compress(rng, col)} for col in columns]


def _smallest_pivot(d, t, rows, cols):
    """Position of the nonzero entry of least absolute value in d[t:, t:]."""
    best = None
    best_abs = None
    for i in range(t, rows):
        di = d[i]
        for j in range(t, cols):
            x = di[j]
            if x:
                a = -x if x < 0 else x
                if best_abs is None or a < best_abs:
                    best, best_abs = (i, j), a
                    if a == 1:
                        return best
    return best


def smith_normal_form(m: IntMatrix):
    """Smith normal form with unimodular witnesses: U * m * V == D.

    D is diagonal with d1 | d2 | ... and nonnegative diagonal.  Pivoting
    always picks the entry of least absolute value, which keeps the
    intermediate entries from exploding on the matrices this package
    produces.

    >>> u, d, v = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> [d.entries[i][i] for i in range(2)]
    [2, 4]
    """
    u, d, v, _ = _snf_data(m, track_v=True)
    return u, d, v


def _snf_data(m: IntMatrix, track_v=False):
    """(U, D, V, Uinv) with U m V = D and the inverse of U tracked; V is
    None unless `track_v`.  U, D and Uinv do not depend on `track_v`.

    Once a pivot has cleared its row and column, the rest of the matrix
    is swept for an entry the pivot does not divide, and such a row is
    added to the pivot row.  A pivot of +-1 divides every entry, so the
    sweep could find nothing there and is skipped: the result is the one
    the sweep would give, only sooner.
    """
    rows, cols = m.rows, m.cols
    d = m._row_lists()
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    uinv = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = ([[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
         if track_v else [])  # no rows: the column operations skip V

    def row_swap(a, b):
        d[a], d[b] = d[b], d[a]
        u[a], u[b] = u[b], u[a]
        for r in uinv:
            r[a], r[b] = r[b], r[a]

    def row_sub(a, q, b):
        # row a -= q * row b ; inverse op: column b += q * column a of uinv
        da, db = d[a], d[b]
        for j in range(cols):
            if db[j]:
                da[j] -= q * db[j]
        ua, ub = u[a], u[b]
        for j in range(rows):
            if ub[j]:
                ua[j] -= q * ub[j]
        for r in uinv:
            if r[a]:
                r[b] += q * r[a]

    def row_neg(a):
        d[a] = [-x for x in d[a]]
        u[a] = [-x for x in u[a]]
        for r in uinv:
            r[a] = -r[a]

    def col_swap(a, b):
        for r in d:
            r[a], r[b] = r[b], r[a]
        for r in v:
            r[a], r[b] = r[b], r[a]

    def col_sub(a, q, b):
        # col a -= q * col b
        for r in d:
            if r[b]:
                r[a] -= q * r[b]
        for r in v:
            if r[b]:
                r[a] -= q * r[b]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _smallest_pivot(d, t, rows, cols)
        if pos is None:
            break
        while True:
            i, j = pos
            if (i, j) != (t, t):
                if i != t:
                    row_swap(i, t)
                if j != t:
                    col_swap(j, t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, rows):
                x = d[i][t]
                if x:
                    q = x // p
                    row_sub(i, q, t)
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                x = d[t][j]
                if x:
                    q = x // p
                    col_sub(j, q, t)
                    if d[t][j]:
                        dirty = True
            if dirty:
                pos = _smallest_pivot(d, t, rows, cols)
                continue
            # pivot clean; enforce divisibility against the rest
            p = d[t][t]
            if p == 1 or p == -1:
                break  # a unit divides every entry
            offender = None
            for i in range(t + 1, rows):
                di = d[i]
                for j in range(t + 1, cols):
                    if di[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, -1, offender)
            pos = (t, t)
        t += 1
    for i in range(limit):
        if d[i][i] < 0:
            row_neg(i)
    return (IntMatrix._trusted(u, rows), IntMatrix._trusted(d, cols),
            IntMatrix._trusted(v, cols) if track_v else None,
            IntMatrix._trusted(uinv, rows))


def kernel_basis(row_iter, ncols):
    """Basis of {x in Z^ncols : r . x = 0 for every row r}.

    Rows may be given as sparse dicts {index: value} or dense sequences.
    Returns dense tuple columns; `_kernel_columns` computes them as
    sparse dicts.
    """
    return [tuple(map(col.get, range(ncols), repeat(0)))
            for col in _kernel_columns(row_iter, ncols)]


def _kernel_columns(row_iter, ncols):
    """kernel_basis with sparse {index: value} columns.  Works
    column-by-column so the very sparse boundary matrices of bar
    resolutions stay cheap.

    Each row is eliminated by Euclidean steps among the basis columns it
    hits.  The pivot of a step is the column whose value has the least
    absolute value and, among those, the fewest nonzeros (then the lowest
    id).  The pivot is the column added into all the others and finally
    deleted, so taking the sparsest one spreads the least fill-in; on the
    large specialized differentials a pivot chosen by value alone can
    multiply the entries touched many times over.
    """
    basis = {j: {j: 1} for j in range(ncols)}
    touch = {j: {j} for j in range(ncols)}  # coordinate -> basis col ids

    def set_entry(col_id, coord, val):
        col = basis[col_id]
        if val:
            col[coord] = val
            touch.setdefault(coord, set()).add(col_id)
        elif coord in col:
            del col[coord]
            touch[coord].discard(col_id)

    def col_sub(a, q, b):
        # column a -= q * column b
        ca, cb = basis[a], basis[b]
        for coord, val in list(cb.items()):
            set_entry(a, coord, ca.get(coord, 0) - q * val)

    for row in row_iter:
        if not isinstance(row, dict):
            row = {j: x for j, x in enumerate(row) if x}
        if not row:
            continue
        hit = set()
        for coord in row:
            hit |= touch.get(coord, set())
        vals = {}
        for cid in hit:
            col = basis[cid]
            s = 0
            for coord, rv in row.items():
                cv = col.get(coord)
                if cv:
                    s += rv * cv
            if s:
                vals[cid] = s
        while len(vals) > 1:
            order = sorted(vals, key=lambda c: (abs(vals[c]),
                                                len(basis[c]), c))
            k0 = order[0]
            p = vals[k0]
            for cid in order[1:]:
                q = vals[cid] // p
                if q:
                    col_sub(cid, q, k0)
                    vals[cid] -= q * p
                if not vals[cid]:
                    del vals[cid]
        if vals:
            (k0, _), = vals.items()
            for coord in list(basis[k0]):
                touch[coord].discard(k0)
            del basis[k0]
    return [basis[cid] for cid in sorted(basis)]


class _RowBasis:
    """A lattice in Z^dim given by independent basis rows, the sparse dicts
    in `rows`; a subclass supplies `_walk`, which writes a vector over
    them or returns None."""

    def __len__(self):
        return len(self.rows)

    @staticmethod
    def _to_sparse(vec):
        if isinstance(vec, dict):
            return {int(k): int(v) for k, v in vec.items() if v}
        return {j: int(x) for j, x in enumerate(vec) if x}

    def contains(self, vec):
        """Membership: whether `_walk` writes vec over the basis rows."""
        return self._walk(self._to_sparse(vec)) is not None

    def coords(self, vec):
        """Coefficients of vec over the basis rows, or None if vec is not
        in the lattice."""
        c = self._walk(self._to_sparse(vec))
        if c is None:
            return None
        return tuple(c.get(i, 0) for i in range(len(self.rows)))

    def combine(self, coeffs):
        """The vector sum_i coeffs[i] * (basis row i), dense; the inverse
        of coords."""
        out = [0] * self.dim
        for q, row in zip(coeffs, self.rows):
            if q:
                for c, x in row.items():
                    out[c] += q * x
        return tuple(out)

    def basis(self):
        return [tuple(map(r.get, range(self.dim), repeat(0)))
                for r in self.rows]


class PrivateBasis(_RowBasis):
    """Rows in Z^dim of which each owns a private coordinate: one where it
    is nonzero and every other row is zero.

    The rows are diagonal on their private coordinates, so they are
    independent, and in any combination v = sum_j c_j * row_j the
    coefficient c_j is v[p_j] / x_j, where p_j is row j's lowest private
    coordinate and x_j its entry there.  `_walk` reads the coefficients
    off those places and then tests the whole vector: v minus the
    combination must be zero.  No echelon form is built.

    >>> b = PrivateBasis.of([{0: 1, 2: 2}, {1: 6, 2: -1}], 3)
    >>> b.coords((2, 6, 3)), b.coords((1, 0, 0)), b.coords((0, 3, 0))
    ((2, 1), None, None)
    >>> PrivateBasis.of([{0: 1, 1: 1}, {1: 1}], 2) is None
    True
    """

    def __init__(self, dim, rows, owner):
        self.dim = dim
        self.rows = rows
        self._owner = owner  # private coordinate -> row index

    @classmethod
    def of(cls, rows, dim):
        """The basis on the sparse dicts `rows` (nonzero ints the package
        built; taken over, and never changed), or None when some row has
        no private coordinate."""
        seen = {}  # coordinate -> the one row touching it, or -1
        for j, row in enumerate(rows):
            for i in row:
                seen[i] = -1 if i in seen else j
        private = [None] * len(rows)
        for i, j in seen.items():
            if j >= 0 and (private[j] is None or i < private[j]):
                private[j] = i
        if None in private:
            return None
        return cls(dim, rows, {i: j for j, i in enumerate(private)})

    def _walk(self, v):
        """{row index: coefficient} writing the sparse dict v (ints the
        package built; it is consumed) over the rows, or None: None when a
        private entry of v is not divisible by the row's own, or when v
        minus the combination read off the private entries is not zero."""
        out = {}
        rows, owner = self.rows, self._owner
        for i, x in v.items():
            j = owner.get(i)
            if j is not None:
                q, r = divmod(x, rows[j][i])
                if r:
                    return None
                out[j] = q
        for j, q in out.items():
            _axpy(v, q, rows[j])
        return None if v else out


class Lattice(_RowBasis):
    """Integer row lattice in Z^dim kept in echelon form.

    Supports incremental insertion, membership, reduction of a vector
    modulo the lattice, and (optionally) witnesses expressing each basis
    row over the inserted generators.
    """

    def __init__(self, dim, witnesses=False):
        self.dim = dim
        self.rows = []        # sparse dicts, sorted by pivot column
        self.pivots = []      # pivot column per row
        self.witnesses = [] if witnesses else None
        self._count = 0

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the lattice.

        The basis is kept in Hermite-reduced echelon form (entries above a
        pivot reduced modulo it) so entries stay small during long runs of
        insertions.
        """
        return self._add(self._to_sparse(vec))

    def _add(self, v):
        """add for a sparse dict of ints the package built; the lattice
        takes the dict over (it may become a basis row)."""
        w = {self._count: 1} if self.witnesses is not None else None
        self._count += 1
        grew = False
        while v:
            piv = min(v)
            idx = bisect_left(self.pivots, piv)
            if idx < len(self.pivots) and self.pivots[idx] == piv:
                row = self.rows[idx]
                a, b = row[piv], v[piv]
                if b % a == 0:
                    q = b // a
                    _axpy(v, q, row)
                    if w is not None:
                        _axpy(w, q, self.witnesses[idx])
                else:
                    # replace stored row by gcd combination
                    g, x, y = _xgcd(a, b)
                    qa, qb = a // g, b // g
                    new_row = _wcomb(x, row, y, v)
                    red = _wcomb(-qb, row, qa, v)
                    if self.witnesses is not None:
                        old_w = self.witnesses[idx]
                        new_w = _wcomb(x, old_w, y, w)
                        red_w = _wcomb(qa, w, -qb, old_w)
                        self.witnesses[idx] = new_w
                        w = red_w
                    self.rows[idx] = new_row
                    v = red
                    grew = True
                    self._reduce_above(idx)
            else:
                if v[piv] < 0:
                    v = {c: -x for c, x in v.items()}
                    if w is not None:
                        w = {c: -x for c, x in w.items()}
                self.rows.insert(idx, v)
                self.pivots.insert(idx, piv)
                if self.witnesses is not None:
                    self.witnesses.insert(idx, w)
                self._reduce_above(idx)
                return True
        return grew

    def _reduce_above(self, idx):
        """Hermite-reduce around row idx: its own entries at later pivot
        columns, then earlier rows' entries at its pivot column."""
        row = self.rows[idx]
        changed = True
        while changed:
            changed = False
            for j in range(idx + 1, len(self.rows)):
                pj = self.pivots[j]
                x = row.get(pj)
                if not x:
                    continue
                q = x // self.rows[j][pj]
                if not q:
                    continue
                changed = True
                _axpy(row, q, self.rows[j])
                if self.witnesses is not None:
                    _axpy(self.witnesses[idx], q, self.witnesses[j])
        piv = self.pivots[idx]
        val = row[piv]
        for j in range(idx):
            other = self.rows[j]
            x = other.get(piv)
            if x is None:
                continue
            q = x // val
            if not q:
                continue
            _axpy(other, q, row)
            if self.witnesses is not None:
                _axpy(self.witnesses[j], q, self.witnesses[idx])

    def reduce(self, vec):
        """Residue of vec after subtracting lattice rows (pivot-wise)."""
        v = self._to_sparse(vec)
        out = {}
        while v:
            piv = min(v)
            idx = bisect_left(self.pivots, piv)
            if idx < len(self.pivots) and self.pivots[idx] == piv:
                row = self.rows[idx]
                q = v[piv] // row[piv]
                if q:
                    _axpy(v, q, row)
                if piv in v:
                    out[piv] = v.pop(piv)
            else:
                out[piv] = v.pop(piv)
        return tuple(out.get(i, 0) for i in range(self.dim))

    def _walk(self, v):
        """{basis row index: coefficient} writing the sparse dict v (ints
        the package built; it is consumed) over the basis rows, or None.
        The vector is cleared pivot by pivot, and the walk stops at the
        first coordinate without a pivot row or whose value the pivot does
        not divide; so it is None iff `any(self.reduce(v))`."""
        out = {}
        while v:
            piv = min(v)
            idx = bisect_left(self.pivots, piv)
            if idx == len(self.pivots) or self.pivots[idx] != piv:
                return None
            row = self.rows[idx]
            q, r = divmod(v[piv], row[piv])
            if r:
                return None
            out[idx] = q
            _axpy(v, q, row)
        return out

    def generator_coords(self, vec):
        """{generator index: coefficient} writing vec over the inserted
        generators (numbered in insertion order), or None if vec is not
        in the lattice: the basis-row coefficients combine the rows'
        witnesses."""
        if self.witnesses is None:
            raise ValueError("lattice built without witness tracking")
        c = self._walk(self._to_sparse(vec))
        if c is None:
            return None
        out = {}
        for idx, q in c.items():
            for k, x in self.witnesses[idx].items():
                out[k] = out.get(k, 0) + q * x
        return out

    def basis_witness(self, idx):
        """Witness coefficients of basis row idx over inserted generators."""
        if self.witnesses is None:
            raise ValueError("lattice built without witness tracking")
        return dict(self.witnesses[idx])


def _span_basis(cols, dim):
    """Basis rows, as sparse dicts, of the lattice in Z^dim spanned by the
    sparse dicts cols (package-built; consumed), inserted in order."""
    lat = Lattice(dim)
    for col in cols:
        lat._add(col)
    return lat.rows


def _xgcd(a, b):
    """g, x, y with x*a + y*b == g == gcd(a, b), g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _axpy(y, q, x):
    """y -= q * x for sparse dicts, in place; entries that vanish are
    deleted."""
    for c, v in x.items():
        nv = y.get(c, 0) - q * v
        if nv:
            y[c] = nv
        elif c in y:
            del y[c]


def _wcomb(a, wa, b, wb):
    out = {}
    for c in set(wa) | set(wb):
        val = a * wa.get(c, 0) + b * wb.get(c, 0)
        if val:
            out[c] = val
    return out

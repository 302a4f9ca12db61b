"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^n modulo the column span of a relation matrix.  Elements are
plain integer coordinate tuples in the presentation's generators; equality
and hashing go through a canonical form computed from the Smith normal
form of the relations.  Maps carry their matrix on generators and are
validated at construction.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

from .lattice import (IntMatrix, Lattice, PrivateBasis, _axpy,
                      _kernel_columns, _snf_data, _span_basis)


class NonComplex(Exception):
    """Raised when homology is requested of maps that do not compose to 0."""


def _chain_from_multiset(ds):
    """Recombine torsion moduli into an invariant-factor chain d1 | d2 | ..."""
    primes = {}
    for d in ds:
        n, p = d, 2
        while p * p <= n:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                primes.setdefault(p, []).append(e)
            p += 1
        if n > 1:
            primes.setdefault(n, []).append(1)
    for p in primes:
        primes[p].sort()
    chain = []
    while any(primes.values()):
        d = 1
        for p, es in primes.items():
            if es:
                d *= p ** es.pop()
        chain.append(d)
    chain.reverse()
    return tuple(chain)


def _reduces(ncols, n):
    """Whether FgAb keeps a lattice basis of ncols relation columns in
    Z^n instead of the columns themselves: when there are more than
    max(n, 32) of them."""
    return ncols > max(n, 32)


class FgAb:
    """Finitely generated abelian group Z^n / (column span of rel).

    An empty relation matrix presents the free group Z^n.
    """

    __slots__ = ("n", "rel", "_mods", "_u", "_uinv", "_rel_lat",
                 "_canon_idx", "_inv_factors")

    def __init__(self, n, rel=None):
        n = int(n)
        if rel is None:
            rel = IntMatrix([[] for _ in range(n)], cols=0)
        if not isinstance(rel, IntMatrix):
            rel = IntMatrix(rel)
        if rel.rows != n:
            raise ValueError(f"relation matrix has {rel.rows} rows, expected {n}")
        if _reduces(rel.cols, n):
            # large redundant relation sets: keep a lattice basis instead
            rel = IntMatrix._from_sparse_columns(
                _span_basis(rel.sparse_columns(), n), n)
        self.n = n
        self.rel = rel
        self._rel_lat = None
        self._inv_factors = None
        cols = rel._columns
        if all(len(col) <= 1 for col in cols):
            # every relation touches a single generator: no basis change needed
            mods = [0] * n
            for col in cols:
                for i, x in col.items():
                    mods[i] = gcd(mods[i], abs(x))
            self._mods = tuple(mods)
            self._u = None
            self._uinv = None
        else:
            u, d, _, uinv = _snf_data(rel)
            mods = [0] * n
            for i in range(min(n, rel.cols)):
                mods[i] = d.entries[i][i]
            self._mods = tuple(mods)
            self._u = u
            self._uinv = uinv
        self._canon_idx = tuple(i for i, m in enumerate(self._mods) if m != 1)

    @classmethod
    def direct_sum(cls, parts):
        """Direct sum on the block-diagonal relations of the parts.

        The parts' Smith data is assembled, not recomputed: diag(U_k) is
        unimodular and diag(U_k) R diag(V_k) = diag(D_k), so canon reduces
        each block modulo its own part's moduli (a part without U takes
        the identity block).  The moduli form no divisibility chain.  The
        relations stay sparse columns, however many parts there are.

        >>> z6 = FgAb(1, IntMatrix([[6]]))
        >>> s = FgAb.direct_sum([z6, FgAb(1), z6])
        >>> s, s.rel.sparse_columns()
        (FgAb(Z + Z/6 + Z/6), [{0: 6}, {2: 6}])
        """
        parts = list(parts)
        n = sum(p.n for p in parts)
        rel = IntMatrix.block_diagonal([p.rel for p in parts])
        if _reduces(rel.cols, n):
            return cls(n, rel)  # lattice-reduced as the constructor does
        grp = object.__new__(cls)
        grp.n = n
        grp.rel = rel
        grp._rel_lat = None
        grp._inv_factors = None
        grp._mods = tuple(m for p in parts for m in p._mods)
        if all(p._u is None for p in parts):
            grp._u = grp._uinv = None
        else:
            grp._u = IntMatrix.block_diagonal(
                [IntMatrix.identity(p.n) if p._u is None else p._u
                 for p in parts])
            grp._uinv = IntMatrix.block_diagonal(
                [IntMatrix.identity(p.n) if p._uinv is None else p._uinv
                 for p in parts])
        grp._canon_idx = tuple(i for i, m in enumerate(grp._mods) if m != 1)
        return grp

    # -- elements ---------------------------------------------------------

    def zero(self):
        return (0,) * self.n

    def canon(self, x):
        """Canonical coordinates; two vectors are equal in the group iff
        their canonical coordinates coincide."""
        if len(x) != self.n:
            raise ValueError("coordinate length mismatch")
        y = x if self._u is None else self._u.apply(x)
        out = []
        for i in self._canon_idx:
            m = self._mods[i]
            out.append(y[i] % m if m else y[i])
        return tuple(out)

    def from_canon(self, c):
        y = [0] * self.n
        for i, v in zip(self._canon_idx, c):
            y[i] = v
        if self._uinv is None:
            return tuple(y)
        return self._uinv.apply(y)

    def eq(self, x, y):
        return self.canon(x) == self.canon(y)

    def is_zero(self, x):
        return not any(self.canon(x))

    def first_difference(self, a, b):
        """The first column j at which the matrices a and b, both with n
        rows, differ by more than a relation, i.e. column j of a - b is
        not in the relation lattice; None when they agree in the group
        column by column.

        >>> z4 = FgAb(1, IntMatrix([[4]]))
        >>> z4.first_difference(IntMatrix([[1, 2]]), IntMatrix([[-3, 1]]))
        1
        >>> z4.first_difference(IntMatrix([[1, 2]]), IntMatrix([[5, 6]]))
        """
        for j, (ca, cb) in enumerate(zip(a._columns, b._columns)):
            if ca != cb:
                diff = dict(ca)
                _axpy(diff, 1, cb)
                if self.rel_lattice()._walk(diff) is None:
                    return j
        return None

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a for a in x)

    def gen(self, i):
        return tuple(1 if j == i else 0 for j in range(self.n))

    def gens(self):
        return [self.gen(i) for i in range(self.n)]

    # -- structure --------------------------------------------------------

    def invariant_factors(self):
        """Torsion invariant factors d1 | d2 | ... (entries > 1 only)."""
        if self._inv_factors is None:
            ds = [self._mods[i] for i in self._canon_idx if self._mods[i] > 1]
            if all(b % a == 0 for a, b in zip(ds, ds[1:])):
                # a Smith form already is a divisibility chain
                self._inv_factors = tuple(ds)
            else:
                # diagonal presentations and direct sums need not be
                self._inv_factors = _chain_from_multiset(ds)
        return self._inv_factors

    def free_rank(self):
        return sum(1 for i in self._canon_idx if self._mods[i] == 0)

    def is_finite(self):
        return self.free_rank() == 0

    def is_free(self):
        return not self.invariant_factors()

    def is_trivial(self):
        return self.is_finite() and self.torsion_order() == 1

    def torsion_order(self):
        return prod(self.invariant_factors()) if self.invariant_factors() else 1

    def order(self):
        """Group order; 0 means infinite."""
        return self.torsion_order() if self.is_finite() else 0

    def elements(self):
        """All elements of a finite group, in a deterministic order."""
        if not self.is_finite():
            raise ValueError("infinite group is not enumerable")
        ranges = [range(self._mods[i]) for i in self._canon_idx]
        for combo in itertools.product(*ranges):
            yield self.from_canon(combo)

    def random_element(self, rng):
        """Element drawn through `rng`, one canonical coordinate at a
        time: uniform on a finite cyclic factor, 0 on a free one."""
        return self.from_canon(tuple(rng.randrange(self._mods[i])
                                     if self._mods[i] else 0
                                     for i in self._canon_idx))

    def canonical_moduli(self):
        """The modulus of each canonical coordinate, 0 for a free one."""
        return tuple(self._mods[i] for i in self._canon_idx)

    def is_diagonal(self):
        """Whether every relation touches one generator, so that the
        canonical coordinates are generator coordinates."""
        return self._u is None

    def free_basis_maps(self):
        """(TB, FB): TB maps coordinates to the free canonical coordinates
        and FB embeds them back, TB*FB = identity; inverse isomorphisms
        when the group is torsion-free."""
        idx = [i for i in self._canon_idx if self._mods[i] == 0]
        u, uinv = (IntMatrix.identity(self.n),) * 2 if self._u is None \
            else (self._u, self._uinv)
        tb = IntMatrix._trusted(tuple(u.entries[i] for i in idx), self.n)
        fb = IntMatrix._trusted(tuple(tuple(r[i] for i in idx)
                                      for r in uinv.entries), len(idx))
        return tb, fb

    def smith_gens(self):
        """Independent generators (one per canonical coordinate); generator
        i has order mods[i] (0 = infinite)."""
        return [self.from_canon(e) for e in
                IntMatrix.identity(len(self._canon_idx)).entries]

    def rel_lattice(self):
        if self._rel_lat is None:
            lat = Lattice(self.n)
            for col in self.rel.sparse_columns():
                lat._add(col)
            self._rel_lat = lat
        return self._rel_lat

    def reduce_rep(self, x):
        """Small deterministic coset representative of x."""
        return self.rel_lattice().reduce(x)

    def __repr__(self):
        parts = ["Z"] * self.free_rank()
        parts += [f"Z/{d}" for d in self.invariant_factors()]
        return "FgAb(" + (" + ".join(parts) if parts else "0") + ")"


class AbMap:
    """Homomorphism between presented groups, given by a matrix on
    generators.  Construction verifies every domain relation is carried
    into the codomain's relation lattice."""

    __slots__ = ("dom", "cod", "mat", "_img_lat")

    def __init__(self, dom, cod, mat, check=True):
        if not isinstance(mat, IntMatrix):
            mat = IntMatrix(mat, cols=dom.n)
        if mat.rows != cod.n or mat.cols != dom.n:
            raise ValueError(f"map matrix is {mat.shape}, expected "
                             f"({cod.n}, {dom.n})")
        self.dom = dom
        self.cod = cod
        self.mat = mat
        self._img_lat = None
        if check:
            lat = cod.rel_lattice()
            for col in dom.rel._columns:
                if lat._walk(mat._apply_sparse(col)) is None:
                    raise ValueError("matrix does not respect domain relations")

    @classmethod
    def identity(cls, grp):
        return cls(grp, grp, IntMatrix.identity(grp.n), check=False)

    @classmethod
    def zero(cls, dom, cod):
        return cls(dom, cod, IntMatrix.zeros(cod.n, dom.n), check=False)

    def apply(self, x):
        return self.mat.apply(x)

    def compose(self, other):
        """self after other."""
        return AbMap(other.dom, self.cod, self.mat.mul(other.mat), check=False)

    def add(self, other):
        m = IntMatrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.mat.entries, other.mat.entries)],
                      cols=self.mat.cols)
        return AbMap(self.dom, self.cod, m, check=False)

    def neg(self):
        return AbMap(self.dom, self.cod,
                     IntMatrix([[-a for a in r] for r in self.mat.entries],
                               cols=self.mat.cols), check=False)

    def __eq__(self, other):
        if not isinstance(other, AbMap):
            return NotImplemented
        if self.mat.cols != other.mat.cols or self.cod.n != other.cod.n:
            return False
        return self.cod.first_difference(self.mat, other.mat) is None

    def __hash__(self):
        raise TypeError("AbMap is unhashable")

    # -- image membership and solving --------------------------------------

    def image_lattice(self):
        """Lattice in Z^{cod.n} spanned by the generator images, inserted
        first, and then the codomain relations, with witnesses: membership
        is lying in the image subgroup, and witness indices below dom.n
        are coordinates of a preimage."""
        if self._img_lat is None:
            lat = Lattice(self.cod.n, witnesses=True)
            for col in self.mat.sparse_columns():
                lat._add(col)
            for col in self.cod.rel.sparse_columns():
                lat._add(col)
            self._img_lat = lat
        return self._img_lat

    def solve(self, y):
        """Some x with f(x) = y in the codomain, or None."""
        w = self.image_lattice().generator_coords(y)
        if w is None:
            return None
        return tuple(w.get(j, 0) for j in range(self.dom.n))

    def lift(self, mat, error):
        """The matrix whose column j solves f(x) = column j of mat in the
        codomain, from mat's sparse columns to sparse columns; raises
        error(j) for the first column j outside the image."""
        lat, n = self.image_lattice(), self.dom.n
        sols = []
        for j, y in enumerate(mat._columns):
            w = lat.generator_coords(y)
            if w is None:
                raise error(j)
            sols.append({k: x for k, x in w.items() if k < n and x})
        return IntMatrix._from_sparse_columns(sols, n)

    # -- kernel / image / cokernel ----------------------------------------

    def kernel_lattice_basis(self):
        """Basis of ker f = {x in Z^dom.n : f(x) = 0 in cod}, with the
        walk that writes a vector over it.

        The kernel columns of [mat | cod.rel], cut to their first dom.n
        coordinates, generate ker f (x is in ker f iff mat x is a
        combination of cod's relations).  Cut columns that are zero add
        nothing to the span, so the others still generate ker f and the
        zero ones are dropped.  When each remaining column owns a private
        coordinate they are independent, hence a basis, and come back as
        a PrivateBasis; otherwise they are inserted into a Hermite-reduced
        Lattice.  Either way the rows are never changed afterwards, so
        matrices may be built on them.
        """
        n = self.dom.n
        aug = self.mat.hstack(self.cod.rel)
        cuts = ({i: x for i, x in col.items() if i < n}
                for col in _kernel_columns(aug.sparse_rows(), aug.cols))
        cols = [cut for cut in cuts if cut]
        basis = PrivateBasis.of(cols, n)
        if basis is not None:
            return basis
        lat = Lattice(n)
        for col in cols:
            lat._add(col)
        return lat

    def kernel(self):
        """(K, incl) with incl an injective map K -> dom whose image is
        the kernel subgroup; incl's matrix is held by the kernel basis's
        sparse rows as its columns."""
        lat = self.kernel_lattice_basis()
        k = len(lat)
        incl_mat = IntMatrix._from_sparse_columns(lat.rows, self.dom.n)
        kgrp = FgAb(k, IntMatrix._from_sparse_columns(
            _relation_coords(lat, self.dom), k))
        return kgrp, AbMap(kgrp, self.dom, incl_mat, check=False)

    def image(self):
        """(I, incl, proj): dom ->> I >-> cod factoring f; I's relations
        are the kernel basis's sparse rows, held as columns."""
        lat = self.kernel_lattice_basis()
        rel = IntMatrix._from_sparse_columns(lat.rows, self.dom.n)
        igrp = FgAb(self.dom.n, rel)
        incl = AbMap(igrp, self.cod, self.mat, check=False)
        proj = AbMap(self.dom, igrp, IntMatrix.identity(self.dom.n), check=False)
        return igrp, incl, proj

    def cokernel(self):
        """(Q, proj) with proj: cod ->> cod/im f."""
        rel = self.cod.rel.hstack(self.mat)
        q = FgAb(self.cod.n, rel)
        return q, AbMap(self.cod, q, IntMatrix.identity(self.cod.n), check=False)

    def is_injective(self):
        k, _ = self.kernel()
        return k.is_trivial()

    def is_surjective(self):
        q, _ = self.cokernel()
        return q.is_trivial()


def ab_quotient(grp, gens):
    """(Q, proj) where Q = grp / <gens>."""
    cols = [tuple(g) for g in gens]
    rel = grp.rel.hstack(IntMatrix.from_columns(cols, grp.n))
    q = FgAb(grp.n, rel)
    return q, AbMap(grp, q, IntMatrix.identity(grp.n), check=False)


def subgroup_span(grp, elems):
    """(S, incl) with S presented on the given elements of grp."""
    free = FgAb(len(elems))
    to_grp = AbMap(free, grp,
                   IntMatrix.from_columns([tuple(e) for e in elems], grp.n),
                   check=False)
    sgrp, incl, _ = to_grp.image()
    return sgrp, incl


def _reduced(cols, n):
    """The sparse relation columns as FgAb(n, .) keeps them: as they are,
    or their lattice basis (see _reduces)."""
    return _span_basis(cols, n) if _reduces(len(cols), n) else cols


def _relation_coords(lat, grp):
    """grp's relation columns over the basis rows of lat (a kernel basis
    from `AbMap.kernel_lattice_basis` in Z^grp.n, holding them), as sparse
    dicts, each written by lat's walk."""
    out = []
    for col in grp.rel.sparse_columns():
        c = lat._walk(col)
        if c is None:
            raise ValueError("a relation of the domain leaves the kernel")
        out.append(c)
    return out


class Homology:
    """Ker(d_out)/Im(d_in) at the middle of d_in: A -> B, d_out: B -> C.

    One kernel basis L of d_out (`AbMap.kernel_lattice_basis`: read off
    private coordinates, or a Hermite-reduced lattice) carries everything.
    The middle relations and the d_in columns are written over L's basis
    rows by its walk, and H is presented on those coordinates by one FgAb.
    A d_in column y walks through L iff it lies in ker d_out, i.e. iff
    d_out(y) = 0 in C, so the walk also decides that d_out . d_in = 0,
    column by column.
    """

    __slots__ = ("group", "middle", "_lat")

    def __init__(self, d_in, d_out):
        if d_in.cod is not d_out.dom and d_in.cod.n != d_out.dom.n:
            raise ValueError("maps are not composable")
        self.middle = d_out.dom
        lat = self._lat = d_out.kernel_lattice_basis()
        k = len(lat)
        # relation sets are lattice-reduced where FgAb(k, .) would reduce
        # them, so the cycle relations are those d_out.kernel() presents
        cols = _reduced(_relation_coords(lat, self.middle), k)
        for j, col in enumerate(d_in.mat.sparse_columns()):
            c = lat._walk(col)
            if c is None:
                raise NonComplex(f"d_out . d_in is nonzero on generator {j}")
            cols.append(c)
        self.group = FgAb(k, IntMatrix._from_sparse_columns(_reduced(cols, k),
                                                            k))

    def class_of(self, z):
        """Class of a cycle z (an element of the middle group)."""
        c = self._lat.coords(z)
        if c is None:
            raise ValueError("element is not a cycle")
        return self.group.canon(c)

    def rep_of(self, cls_canon):
        """A deterministic representative cycle of a class."""
        c = self.group.from_canon(cls_canon)
        return self.middle.reduce_rep(self._lat.combine(c))

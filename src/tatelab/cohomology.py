"""Tate cohomology of a finite group from a complete resolution.

The resolution splices the normalized bar resolution (degrees <= -1 of
the cochain complex, where the groups are homology-style chain groups)
with its dual (degrees >= 0, carried in the standard inhomogeneous
cochain conventions), through the norm map at the middle.  Concretely,
for a module A and G' = G minus the identity the coefficient complex is

  ... -> Maps(G'^2, A) -> Maps(G', A) -> A --N--> A -> Maps(G', A) -> ...

with the homology boundary on the left, the norm in the middle and the
usual cochain differential on the right.  Degree i of Tate cohomology is
the homology of this complex at position i, so H^0 = A^G / N A and H^-1
= ker(N) / <(g-1)a> drop out literally, H^-2 is the first homology group
and H^1 the normalized crossed homomorphisms (f(1) = 0) modulo principal
ones.

The cells are the bar tuples with no identity entry, so a tuple of
length k spans a free module of rank (|G|-1)^k.  The degenerate tuples
(some entry 1) span a subcomplex of the bar resolution that is acyclic,
and the quotient by it, the normalized bar resolution, is again a free
resolution of Z (Eilenberg-Mac Lane, Ann. of Math. 1947; Brown, GTM 87,
I.5).  The differential of the quotient is the bar differential with
every degenerate term dropped: a face that merges g and h with gh = 1
lands in the degenerate subcomplex, which the quotient sets to zero.

Everything is stored as a matrix over the group ring per pair of adjacent
degrees and specialized at a coefficient module by replacing each ring
entry with the matrix by which it acts.  The specialization is truncated
at the two edge degrees of a window lo..hi where that cannot change the
answer: at lo-1 <= -2, on the chain side, only the image of the boundary
out of it is read, and at hi+1 >= 1, on the cochain side, only the kernel
of the coboundary into it; there only the tuples whose last entry is a
generator are kept (see `TateComplex`).  Evaluating dd = 0 at (g, h, s)
with s a generator writes the (co)boundary at (g, hs) through the ones
at (g, h).s, (gh, s) and (h, s), where a degenerate term is zero; by
induction on the word length of hs every last entry is reached.  Every
other degree keeps all (|G|-1)^k tuples.
"""

from __future__ import annotations

import itertools

from .abelian import AbMap, FgAb, Homology
from .gmodules import GMap, GModule, HomModule, TensorModule, aug_ideal
from .groups import abelianization, subgroup_as_group
from .lattice import IntMatrix, _axpy


class WindowTooLarge(Exception):
    pass


class DegreeOutOfWindow(Exception):
    pass


class DegreeMismatch(Exception):
    pass


MAX_WINDOW = (-5, 5)


class TateComplex:
    """Complete-resolution data for one finite group over a degree window.

    Cohomology is computable at every degree of `window`; internally the
    complex extends one degree beyond each end.  The cells of degree i
    are the normalized bar tuples: the k-tuples, k = `tuple_length(i)`,
    over G' = G minus the identity, in `basis` order, (|G|-1)^k of them.
    A face of the bar differential whose merged entry is the identity is
    degenerate and zero in the normalized complex, so `ring_differential`
    drops it: on the chain side when a target has g.h = 1, on the cochain
    side when a source does; `_basis_index` is None for such a tuple.

    The ring-level complex (`basis`, `rank`, `ring_differential`) is
    whole at every degree.  Its specialization at a module
    (`cochain_group`, `blockified`) keeps, at an edge degree the window
    reads from one side only, just the tuples of G'^(k-1) x S with
    S = `group.generating_set()`: degree lo-1 when lo-1 <= -2, where the
    window reads only the image of the boundary out of it, and degree
    hi+1 when hi+1 >= 1, where it reads only the kernel of the coboundary
    into it.  Evaluating dd = 0 at (g, h, s), s in S, writes the
    (co)boundary at (g, hs) through the ones at (g, h).s, (gh, s) and
    (h, s), any degenerate one of them being zero.  At h = 1 the tuple
    (g, hs) = (g, s) is kept already; every other x in G' is a positive
    word hs in S with h shorter, so by induction on its length the image
    and the kernel are unchanged.  For the trivial group G' is empty and
    nothing is kept, nor is there anything to keep.  On the other side of
    an edge (a boundary into it, a coboundary out of it) the argument
    fails, and those edges keep every tuple.
    """

    def __init__(self, group, window=(-4, 3)):
        lo, hi = window
        if lo > hi or lo < MAX_WINDOW[0] or hi > MAX_WINDOW[1]:
            raise WindowTooLarge(f"window {window} exceeds {MAX_WINDOW}")
        self.group = group
        self.window = (lo, hi)
        self._cells = [g for g in range(group.order) if g != group.identity]
        self._cell_index = {g: k for k, g in enumerate(self._cells)}
        self._bases = {}
        self._diffs = {}
        self._kept = {}
        self._edge_diffs = {}

    def degrees(self):
        return range(self.window[0], self.window[1] + 1)

    def _check_degree(self, i, public=False):
        lo, hi = self.window
        if not public:
            lo, hi = lo - 1, hi + 1  # internal widening for edge homology
        if not lo <= i <= hi:
            raise DegreeOutOfWindow(f"degree {i} outside window {self.window}")

    def tuple_length(self, i):
        return -i - 1 if i <= -1 else i

    def basis(self, i):
        """Normalized bar basis of the degree-i term: tuples of non-identity
        group elements."""
        if i not in self._bases:
            self._bases[i] = list(itertools.product(
                self._cells, repeat=self.tuple_length(i)))
        return self._bases[i]

    def rank(self, i):
        return len(self._cells) ** self.tuple_length(i)

    def _edge_tuples(self, i):
        """The kept bar tuples of degree i, in basis order, if i is a
        truncated edge (see the class docstring); None otherwise."""
        lo, hi = self.window
        if not ((i == lo - 1 and i <= -2) or (i == hi + 1 and i >= 1)):
            return None
        if i not in self._kept:
            last = sorted(self.group.generating_set())
            self._kept[i] = [
                w + (s,) for w in itertools.product(
                    self._cells, repeat=self.tuple_length(i) - 1)
                for s in last]
        return self._kept[i]

    def ring_differential(self, i):
        """Differential degree i -> i+1 as {source: {target: {g: coeff}}}."""
        if i not in self._diffs:
            self._diffs[i] = self._columns(
                i, self.basis(i) if i <= -1 else self.basis(i + 1))
        return self._diffs[i]

    def _window_differential(self, i):
        """ring_differential(i) as the specialization reads it: at a
        truncated edge, over the kept sources (chain side) or targets
        (cochain side) only, numbered by their place among the kept."""
        kept = self._edge_tuples(i if i <= -1 else i + 1)
        if kept is None:
            return self.ring_differential(i)
        if i not in self._edge_diffs:
            self._edge_diffs[i] = self._columns(i, kept)
        return self._edge_diffs[i]

    def _columns(self, i, tuples):
        """Columns of the differential i -> i+1 in ring_differential's
        layout.  `tuples` lists the sources on the chain side (i <= -1)
        and the targets on the cochain side; they are numbered by their
        place in `tuples`, the other side by its basis index.  A
        degenerate term, whose `_basis_index` is None, is dropped."""
        grp = self.group
        cols = {}

        def put(s_idx, t_idx, g, c):
            if s_idx is None or t_idx is None:
                return
            col = cols.setdefault(s_idx, {})
            zg = col.setdefault(t_idx, {})
            zg[g] = zg.get(g, 0) + c
            if not zg[g]:
                del zg[g]
                if not zg:
                    del col[t_idx]

        if i <= -2:
            m = -i - 1
            for s_idx, w in enumerate(tuples):
                put(s_idx, self._basis_index(i + 1, w[:-1]), w[-1], 1)
                for k in range(1, m):
                    merged = w[:k - 1] + (grp.mul(w[k - 1], w[k]),) + w[k + 1:]
                    put(s_idx, self._basis_index(i + 1, merged),
                        grp.identity, (-1) ** (m - k))
                put(s_idx, self._basis_index(i + 1, w[1:]), grp.identity,
                    (-1) ** m)
        elif i == -1:
            for g in range(grp.order):
                put(0, 0, g, 1)
        else:
            for t_idx, w in enumerate(tuples):
                for s_w, g, c in self._cochain_terms(w, i):
                    put(self._basis_index(i, s_w), t_idx, g, c)
        return cols

    def _basis_index(self, i, w):
        """The place of the tuple w in `basis(i)`, or None if w has an
        identity entry (a degenerate tuple, zero in the complex)."""
        base, index = len(self._cells), self._cell_index
        idx = 0
        for x in w:
            k = index.get(x)
            if k is None:
                return None
            idx = idx * base + k
        return idx

    def _cochain_terms(self, w, i):
        """(source tuple, acting element, sign) triples of (delta f)(w) for
        the standard inhomogeneous differential, w in G'^(i+1)."""
        grp = self.group
        out = [(w[1:], w[0], 1)]
        for k in range(1, i + 1):
            merged = w[:k - 1] + (grp.mul(w[k - 1], w[k]),) + w[k + 1:]
            out.append((merged, grp.identity, (-1) ** k))
        out.append((w[:-1], grp.identity, (-1) ** (i + 1)))
        return out

    # -- specialization at a module ---------------------------------------

    def cochain_group(self, module, i):
        """Degree-i cochains with values in `module`: one copy of it per
        bar tuple, or per kept tuple at a truncated edge."""
        self._check_degree(i)
        kept = self._edge_tuples(i)
        size = self.rank(i) if kept is None else len(kept)
        return FgAb.direct_sum([module.underlying] * size)

    def blockified(self, module, i, dom, cod):
        """The degree i -> i+1 differential specialized at `module`, from
        `dom` to `cod`, its `cochain_group`s of degrees i and i+1, held
        by its sparse columns: block column s of a source tuple sums, over
        its ring entries c*g at target t, c times g's action columns
        shifted into block row t."""
        self._check_degree(i)
        self._check_degree(i + 1)
        na = module.underlying.n
        acts = [[tuple(c.items()) for c in a.sparse_columns()]
                for a in module.action]
        cols = [{} for _ in range(dom.n)]
        for s_idx, col in self._window_differential(i).items():
            out_cols = cols[s_idx * na:(s_idx + 1) * na]
            for t_idx, zg in col.items():
                top = t_idx * na
                for g, c in zg.items():
                    for out, pairs in zip(out_cols, acts[g]):
                        for r, a in pairs:
                            out[top + r] = out.get(top + r, 0) + c * a
        return AbMap(dom, cod, IntMatrix._from_sparse_columns(
            [{k: x for k, x in col.items() if x} for col in cols], cod.n),
            check=False)


class CohClass:
    """An element of H^i(G, M): degree, a representative cochain, and its
    canonical coordinates in the cohomology group."""

    __slots__ = ("degree", "module", "rep", "canon", "calc")

    def __init__(self, calc, degree, rep):
        self.calc = calc
        self.degree = degree
        self.module = calc.module
        self.rep = tuple(rep)
        self.canon = calc.homology(degree).class_of(self.rep)

    def is_zero(self):
        return not any(self.canon)

    def add(self, other):
        if other.degree != self.degree:
            raise DegreeMismatch("adding classes of different degrees")
        return CohClass(self.calc, self.degree,
                        tuple(a + b for a, b in zip(self.rep, other.rep)))

    def neg(self):
        return CohClass(self.calc, self.degree, tuple(-a for a in self.rep))

    def __eq__(self, other):
        return (isinstance(other, CohClass) and self.degree == other.degree
                and self.canon == other.canon)

    def __hash__(self):
        return hash((self.degree, self.canon))


class TateCohomology:
    """Calculator for the Tate cohomology of one module over one complex;
    caches cochain groups, differentials and homologies per degree."""

    def __init__(self, complex_, module):
        self.complex = complex_
        self.module = module
        self._groups = {}
        self._diffs = {}
        self._homs = {}

    def cochain_group(self, i):
        if i not in self._groups:
            self._groups[i] = self.complex.cochain_group(self.module, i)
        return self._groups[i]

    def differential(self, i):
        if i not in self._diffs:
            self._diffs[i] = self.complex.blockified(
                self.module, i, dom=self.cochain_group(i),
                cod=self.cochain_group(i + 1))
        return self._diffs[i]

    def homology(self, i):
        if i not in self._homs:
            self.complex._check_degree(i, public=True)
            self._homs[i] = Homology(self.differential(i - 1),
                                     self.differential(i))
        return self._homs[i]

    def group(self, i):
        return self.homology(i).group


def induced_map(calc_dom, calc_cod, f, i):
    """Map on degree-i cohomology induced by an equivariant map f."""
    def push(cls):
        return CohClass(calc_cod, i, _apply_blockwise(
            f.ab.mat, cls.rep, calc_dom.complex.rank(i)))
    return push


def _apply_blockwise(mat, cochain, rank):
    """Apply `mat` to each of the `rank` bar blocks of a cochain."""
    width = mat.cols
    out = []
    for b in range(rank):
        out.extend(mat.apply(cochain[b * width:(b + 1) * width]))
    return out


# -- short exact sequences and connecting homomorphisms ---------------------

class ExtensionData:
    """0 -> A -> B -> C -> 0 of equivariant maps, exactness verified."""

    __slots__ = ("a_to_b", "b_to_c", "a", "b", "c", "_section")

    def __init__(self, a_to_b, b_to_c):
        self.a_to_b = a_to_b
        self.b_to_c = b_to_c
        self.a, self.b, self.c = a_to_b.dom, a_to_b.cod, b_to_c.cod
        if not a_to_b.ab.is_injective():
            raise ValueError("left map is not injective")
        if not b_to_c.ab.is_surjective():
            raise ValueError("right map is not surjective")
        h = Homology(a_to_b.ab, b_to_c.ab)
        if not h.group.is_trivial():
            raise ValueError("sequence is not exact in the middle")
        self._section = None

    def section_matrix(self):
        """A Z-linear section of B ->> C on generators (not equivariant)."""
        if self._section is None:
            self._section = self.b_to_c.ab.lift(
                IntMatrix.identity(self.c.underlying.n),
                lambda j: ValueError(f"generator {j} of C does not lift"))
        return self._section


def connecting_hom(ext, i, calc_c, calc_a, calc_b, section=None):
    """The connecting homomorphism H^i(C) -> H^{i+1}(A) by the zig-zag:
    lift a representative through B, apply the differential, pull back.
    `calc_c`, `calc_a` and `calc_b` are the calculators of C, A and B;
    they must share one complex (ValueError otherwise).

    A custom (Z-linear) `section` matrix may be supplied to re-randomize
    the lift; the class of the result does not depend on it.  Both i and
    i + 1 must lie in the window: an edge degree of the cochain groups
    may be truncated and cannot carry a class.
    """
    complex_ = calc_c.complex
    if calc_a.complex is not complex_ or calc_b.complex is not complex_:
        raise ValueError("calculators of C, A and B are over different "
                         "complexes")
    complex_._check_degree(i, public=True)
    complex_._check_degree(i + 1, public=True)
    sec = section if section is not None else ext.section_matrix()

    def delta(cls):
        if cls.degree != i:
            raise DegreeMismatch(f"class has degree {cls.degree}, need {i}")
        lift = _apply_blockwise(sec, cls.rep, complex_.rank(i))
        return CohClass(calc_a, i + 1, zig_zag(
            ext.a_to_b, calc_b.differential(i), lift, complex_.rank(i + 1)))

    return delta


def zig_zag(a_to_b, d_b, lift, blocks):
    """The cochain step of a connecting map: apply d_b, a differential of
    B or its `coboundary_map`, to `lift`, a cochain of B, and pull the
    `blocks` blocks of the result back through A -> B.  Returns the
    cochain of A, or the values at the generators; raises
    ValueError when the result does not pull back, that is when the
    lifted cochain was not a cocycle modulo A."""
    na_b = a_to_b.cod.underlying.n
    db = d_b.apply(lift)
    pre = a_to_b.ab.lift(IntMatrix._from_sparse_columns(
        [{i: x for i, x in enumerate(db[b * na_b:(b + 1) * na_b]) if x}
         for b in range(blocks)], na_b),
        lambda b: ValueError("differential of lift does not pull back; "
                             "input was not a cocycle"))
    return [v for b in range(blocks) for v in pre.column(b)]


# -- 1-cocycles and extension classes ---------------------------------------

class Cocycle1:
    """Normalized 1-cocycle G -> M: f(gh) = f(g) + g f(h), f(1) = 0.

    The identity is checked for g in a generating set only: the g at which
    it holds for every h are closed under the product, since
    f(g1g2 h) = f(g1) + g1 f(g2) + g1g2 f(h) = f(g1g2) + g1g2 f(h), so
    they make up all of G.
    """

    __slots__ = ("module", "values")

    def __init__(self, module, values, check=True):
        self.module = module
        self.values = tuple(tuple(v) for v in values)
        grp = module.group
        if len(self.values) != grp.order:
            raise ValueError("need one value per group element")
        if check:
            ab = module.underlying
            if not ab.is_zero(self.values[grp.identity]):
                raise ValueError("cocycle not normalized at the identity")
            for g in grp.generating_set():
                for h in range(grp.order):
                    lhs = self.values[grp.mul(g, h)]
                    rhs = ab.add(self.values[g], module.act(g, self.values[h]))
                    if not ab.eq(lhs, rhs):
                        raise ValueError(f"cocycle identity fails at ({g},{h})")

    @classmethod
    def from_generators(cls, module, values):
        """The checked cocycle with f(t) = values[k] at the k-th t of
        `generating_set()`.  The other values follow along a breadth-first
        walk, f(tg) = f(t) + t.f(g), over the whole group, since the
        generators reach every element."""
        grp = module.group
        gens = grp.generating_set()
        if len(values) != len(gens):
            raise ValueError("need one value per generator")
        steps = [(t, module.action[t], tuple(v)) for t, v in zip(gens, values)]
        vals = {grp.identity: module.underlying.zero()}
        reached = [grp.identity]
        for g in reached:
            for t, act, ft in steps:
                tg = grp.mul(t, g)
                if tg not in vals:
                    vals[tg] = tuple(a + b for a, b in
                                     zip(ft, act.apply(vals[g])))
                    reached.append(tg)
        return cls(module, [vals[g] for g in range(grp.order)])

    def as_cochain(self):
        """Flat degree-1 cochain coordinates for the resolution: the
        values at the non-identity elements, in `TateComplex.basis(1)`
        order.  f(1) = 0 has no cell."""
        identity = self.module.group.identity
        out = []
        for g, v in enumerate(self.values):
            if g != identity:
                out.extend(v)
        return tuple(out)

    @classmethod
    def from_cochain(cls, module, rep, check=True):
        """The cocycle of degree-1 cochain coordinates (see `as_cochain`),
        with f(1) = 0."""
        grp, na = module.group, module.underlying.n
        vals = [tuple(rep[k * na:(k + 1) * na]) for k in range(grp.order - 1)]
        vals.insert(grp.identity, module.underlying.zero())
        return cls(module, vals, check=check)

    def add(self, other):
        vals = [self.module.underlying.add(a, b)
                for a, b in zip(self.values, other.values)]
        return Cocycle1(self.module, vals, check=False)

    def neg(self):
        return Cocycle1(self.module,
                        [self.module.underlying.neg(v) for v in self.values],
                        check=False)

    def is_coboundary(self):
        """Whether f(g) = g m - m for some m; returns (flag, witness).
        The values at `generating_set()` are solved for alone: a 1-cocycle
        is fixed by them, and so is g -> g m - m (see
        `GModule.coboundary_map`)."""
        m = self.module.coboundary_map().solve(
            tuple(x for s in self.module.group.generating_set()
                  for x in self.values[s]))
        return (m is not None), m


def cocycle_to_extension(hom, f):
    """Extension 0 -> A -> A+C -> C -> 0 built from a 1-cocycle f valued
    in Hom(C, A): the middle is A (+) C with g(a, c) = (ga + f(g)(gc), gc).
    """
    if not isinstance(f, Cocycle1) or f.module is not hom.module:
        raise ValueError("cocycle must take values in the given Hom module")
    cmod, amod = hom.c, hom.a
    grp = amod.group
    na, nc = amod.underlying.n, cmod.underlying.n
    ab = FgAb.direct_sum([amod.underlying, cmod.underlying])
    acts = []
    for g in range(grp.order):
        # columns of [[rho_A(g), f(g) rho_C(g)], [0, rho_C(g)]]
        fg = hom.to_matrix(f.values[g]).mul(cmod.action[g])
        cols = list(amod.action[g]._columns)
        cols += [{**top, **{na + i: x for i, x in bottom.items()}}
                 for top, bottom in zip(fg._columns, cmod.action[g]._columns)]
        acts.append(IntMatrix._from_sparse_columns(cols, na + nc))
    bmod = GModule(grp, ab, acts)
    proj = IntMatrix._from_sparse_columns(
        [{} for _ in range(na)] + [{j: 1} for j in range(nc)], nc)
    incl = IntMatrix._from_sparse_columns([{j: 1} for j in range(na)],
                                          na + nc)
    return ExtensionData(GMap(amod, bmod, incl), GMap(bmod, cmod, proj))


def extension_to_cocycle(hom, ext, section=None):
    """The 1-cocycle g -> (g.s - s) of a Z-linear section s of B ->> C,
    read inside Hom(C, A).

    Only the generators t in `generating_set()` are lifted through
    A -> B: f(t) solves a.f(t) = rho_B(t).s.rho_C(t^-1) - s, and
    `Cocycle1.from_generators` walks out the other values.
    D(g) = rho_B(g).s.rho_C(g^-1) - s satisfies D(tg) = D(t) + t.D(g) in
    Hom(C, B), and A -> B is injective, so f(t) + t.f(g) is the lift of
    D(tg) modulo the relations of Hom(C, A)."""
    if hom.c is not ext.c or hom.a is not ext.a:
        if (hom.c.underlying.n != ext.c.underlying.n
                or hom.a.underlying.n != ext.a.underlying.n):
            raise ValueError("Hom module does not match the sequence")
    sec = section if section is not None else ext.section_matrix()
    grp = ext.b.group
    gens = grp.generating_set()
    diffs = []
    for t in gens:
        twisted = ext.b.action[t].mul(sec).mul(ext.c.action[grp.inv[t]])
        for col, scol in zip(twisted.sparse_columns(), sec.sparse_columns()):
            _axpy(col, 1, scol)
            diffs.append(col)
    lifted = ext.a_to_b.ab.lift(
        IntMatrix._from_sparse_columns(diffs, sec.rows),
        lambda j: ValueError("section difference does not land in A"))
    na, nc = ext.a.underlying.n, sec.cols
    cols = lifted.sparse_columns()
    return Cocycle1.from_generators(hom.module, [
        hom.from_matrix(IntMatrix._from_sparse_columns(
            cols[k * nc:(k + 1) * nc], na)) for k in range(len(gens))])


# -- Shapiro in degree -2 ----------------------------------------------------

def shapiro_hminus2(complex_, sub):
    """The map H^ab -> H^-2(G, Z[G] (x)_{Z[H]} Z) sending h to the class
    of the chain ([h], trivial coset); returns (map, H^ab, calculator,
    induced module).  H^ab is presented on the generators of H (see
    `abelianization`), so the map is given on them, and the checked
    AbMap proves that it kills the relations.  No generator is the
    identity, so no chain is the degenerate cell [1]."""
    from .gmodules import perm_module
    group = complex_.group
    induced, reps, rho, pos = perm_module(group, sub)
    calc = TateCohomology(complex_, induced)
    h = calc.homology(-2)
    hgrp, elems = subgroup_as_group(sub)
    hab, _ = abelianization(hgrp)
    na = induced.underlying.n
    trivial_coset = pos[group.identity]
    cols = []
    for s in hgrp.generating_set():
        rep = [0] * (complex_.rank(-2) * na)
        b_idx = complex_._basis_index(-2, (elems[s],))
        rep[b_idx * na + trivial_coset] = 1
        cols.append(h.class_of(tuple(rep)))
    iso = AbMap(hab, h.group, IntMatrix._trusted_columns(cols, h.group.n))
    return iso, hab, calc, induced


# -- cup product with a degree-1 class (bidegree (-2, 1) -> -1) --------------

def _aug_sequence(aug_incl, module):
    """0 -> aug (x) M -> Z[G] (x) M -> M -> 0 with the diagonal action,
    from the inclusion of the augmentation ideal into Z[G]."""
    augm, reg = aug_incl.dom, aug_incl.cod
    t_aug = TensorModule(augm, module)
    t_reg = TensorModule(reg, module)
    ident = IntMatrix.identity(module.underlying.n)
    left = GMap(t_aug.module, t_reg.module, aug_incl.ab.mat.kron(ident))
    right = GMap(t_reg.module, module,
                 IntMatrix([[1] * reg.underlying.n]).kron(ident))
    return ExtensionData(left, right), t_aug, t_reg


def cup_with_h1(complex_, xi, z):
    """Cup product H^-2(G, C) x H^1(G, A) -> H^-1(G, C (x) A).

    xi is a degree-1 class or a Cocycle1 valued in A; z a degree -2 class
    with coefficients in C, over a calculator of `complex_`.  Computed
    through the dimension shift by the augmentation sequence: push z to
    H^-1(aug (x) C), pair with the cocycle by v = -sum_g (g.w) (x) xi(g)
    in degree 0, and pull back through the (bijective) connecting map of
    the augmentation sequence of C (x) A.
    """
    if isinstance(xi, CohClass):
        if xi.degree != 1:
            raise DegreeMismatch("xi must have degree 1")
        xi = Cocycle1.from_cochain(xi.module, xi.rep, check=False)
    if z.degree != -2:
        raise DegreeMismatch("z must have degree -2")
    amod = xi.module
    cmod = z.module
    group = complex_.group
    _, aug_incl = aug_ideal(group)
    ext_c, t_aug_c, _ = _aug_sequence(aug_incl, cmod)
    delta1 = connecting_hom(ext_c, -2, z.calc,
                            TateCohomology(complex_, t_aug_c.module),
                            TateCohomology(complex_, ext_c.b))
    w_cls = delta1(z)
    w = w_cls.rep  # element of aug (x) C (degree -1 cochain group)
    ca = TensorModule(cmod, amod)
    t3 = TensorModule(t_aug_c.module, amod)
    v = [0] * t3.module.underlying.n
    for g in range(group.order):
        gw = t_aug_c.module.act(g, w)
        term = t3.pure(gw, xi.values[g])
        v = [x - y for x, y in zip(v, term)]
    ext_ca, t_aug_ca, _ = _aug_sequence(aug_incl, ca.module)
    # aug (x) (C (x) A) and (aug (x) C) (x) A share coordinates
    calc_ca = TateCohomology(complex_, ca.module)
    calc_t3 = TateCohomology(complex_, t3.module)
    delta2 = connecting_hom(ext_ca, -1, calc_ca, calc_t3,
                            TateCohomology(complex_, ext_ca.b))
    h_ca = calc_ca.homology(-1)
    h_t3 = calc_t3.homology(-1 + 1)
    cols = [delta2(CohClass(calc_ca, -1, h_ca.rep_of(e))).canon
            for e in h_ca.group.gens()]
    dmat = AbMap(h_ca.group, h_t3.group,
                 IntMatrix._trusted_columns(cols, h_t3.group.n), check=False)
    sol = dmat.solve(CohClass(calc_t3, 0, v).canon)
    if sol is None:
        raise ValueError("cup value escaped the image of the dimension "
                         "shift; conventions are inconsistent")
    rep = h_ca.rep_of(h_ca.group.canon(sol))
    return CohClass(calc_ca, -1, rep), ca


# -- Ext^1(aug, A) = H^2(G, A) ------------------------------------------------

def build_ext1_data(group, amod):
    """The sequence 0 -> A -> Hom(Z[G], A) -> Hom(aug, A) -> 0 together
    with Hom-module wrappers; returns dict of parts."""
    augm, aug_incl = aug_ideal(group)
    hom_reg = HomModule(aug_incl.cod, amod)
    hom_aug = HomModule(augm, amod)
    # A -> Hom(Z[G], A): a |-> (x |-> eps(x) a); Z[G] is free on G, so its
    # Hom coordinates are the values on the group elements
    left = GMap(amod, hom_reg.module, IntMatrix([[1]] * group.order).kron(
        IntMatrix.identity(amod.underlying.n)))
    # restriction Hom(Z[G], A) -> Hom(aug, A)
    right = GMap(hom_reg.module, hom_aug.module,
                 hom_aug.precompose(hom_reg, aug_incl.ab.mat))
    ext = ExtensionData(left, right)
    return {"ext": ext, "hom_reg": hom_reg, "hom_aug": hom_aug}


def ext1_class_to_h2(complex_, amod, f, data=None):
    """H^2(G, A) class of a 1-cocycle f valued in Hom(aug ideal, A)."""
    data = data or build_ext1_data(complex_.group, amod)
    ext = data["ext"]
    calc_c = TateCohomology(complex_, ext.c)
    calc_a = TateCohomology(complex_, amod)
    delta = connecting_hom(ext, 1, calc_c, calc_a,
                           TateCohomology(complex_, ext.b))
    cls = CohClass(calc_c, 1, f.as_cochain())
    return delta(cls), calc_a

"""Modules over the integral group ring of a finite group.

A GModule is a presented abelian group together with one action matrix
per group element; a GMap is a homomorphism commuting with both actions.
All the standard constructions live here: the regular module, permutation
and induced modules, augmentation ideals and the left ideals they
generate, Hom and tensor with the diagonal action, equivariant kernels,
the norm and the coboundary map.  Their cohomology, including H^0 and
H^-1, is computed in `tatelab.cohomology` only.
"""

from __future__ import annotations

from .abelian import AbMap, FgAb
from .groups import Subgroup, cosets_and_reps
from .lattice import IntMatrix


class NotEquivariant(Exception):
    def __init__(self, witness_elt, witness_g):
        self.witness = (witness_elt, witness_g)
        super().__init__(f"map is not equivariant at generator {witness_elt} "
                         f"under group element {witness_g}")


class NotFree(Exception):
    pass


class LazyActions:
    """Action matrices built on first read: `make(g)` gives the matrix of
    g, which is kept.  It indexes, iterates and has a length, as the
    tuple a GModule otherwise holds does."""

    __slots__ = ("_make", "_built")

    def __init__(self, order, make):
        self._make = make
        self._built = [None] * order

    def __len__(self):
        return len(self._built)

    def __getitem__(self, g):
        m = self._built[g]
        if m is None:
            m = self._built[g] = self._make(g)
        return m

    def __iter__(self):
        return map(self.__getitem__, range(len(self._built)))


class GModule:
    __slots__ = ("group", "underlying", "action", "_coboundary")

    def __init__(self, group, underlying, action, check=True):
        self.group = group
        self.underlying = underlying
        self.action = action if isinstance(action, LazyActions) else tuple(
            m if isinstance(m, IntMatrix) else IntMatrix(m, cols=underlying.n)
            for m in action)
        self._coboundary = None
        if len(self.action) != group.order:
            raise ValueError("one action matrix per group element required")
        if check:
            self.validate()

    def validate(self, full=False):
        """Relation-compatibility of every action matrix, identity acting
        as the identity, and multiplicativity.  Multiplicativity on pairs
        (s, h) with s from a generating set implies it on all pairs; pass
        full=True to check every pair anyway."""
        grp, ab, act = self.group, self.underlying, self.action
        for m in act:
            AbMap(ab, ab, m)  # relation check
        if ab.first_difference(act[grp.identity],
                               IntMatrix.identity(ab.n)) is not None:
            raise ValueError("identity must act as the identity")
        firsts = range(grp.order) if full else grp.generating_set()
        for g in firsts:
            for h in range(grp.order):
                if ab.first_difference(act[g].mul(act[h]),
                                       act[grp.mul(g, h)]) is not None:
                    raise ValueError(f"action is not multiplicative at "
                                     f"({g}, {h})")

    def act(self, g, x):
        return self.action[g].apply(x)

    def coboundary_map(self):
        """The map M -> M^|S|, m -> (s m - m)_s over S = `generating_set()`.
        Its kernel is M^G, and a 1-cocycle f is a coboundary iff its
        values at S lie in its image: g -> g m - m is a 1-cocycle, and two
        that agree on S agree on G, since f(sg) = f(s) + s f(g).  Built
        once per module and kept, with the image lattice it solves on."""
        if self._coboundary is not None:
            return self._coboundary
        n = self.underlying.n
        gens = self.group.generating_set()
        cols = [{} for _ in range(n)]
        for b, s in enumerate(gens):
            for j, (col, out) in enumerate(zip(self.action[s]._columns,
                                               cols)):
                out.update((b * n + i, x) for i, x in col.items() if i != j)
                if col.get(j, 0) != 1:
                    out[b * n + j] = col.get(j, 0) - 1
        big = FgAb.direct_sum([self.underlying] * len(gens))
        self._coboundary = AbMap(self.underlying, big,
                                 IntMatrix._from_sparse_columns(cols, big.n),
                                 check=False)
        return self._coboundary

    def norm_map(self):
        """Multiplication by the sum of all group elements, summed over
        the action's sparse columns."""
        cols = []
        for j in range(self.underlying.n):
            acc = {}
            for m in self.action:
                for i, x in m._columns[j].items():
                    acc[i] = acc.get(i, 0) + x
            cols.append({i: x for i, x in acc.items() if x})
        return AbMap(self.underlying, self.underlying,
                     IntMatrix._from_sparse_columns(cols, self.underlying.n),
                     check=False)

    def __repr__(self):
        return f"GModule({self.underlying!r} over order-{self.group.order} group)"


class GMap:
    __slots__ = ("dom", "cod", "ab")

    def __init__(self, dom, cod, ab_or_mat, check=True):
        if dom.group is not cod.group:
            raise ValueError("equivariant maps need one group on both sides")
        if isinstance(ab_or_mat, AbMap):
            ab = ab_or_mat
        else:
            ab = AbMap(dom.underlying, cod.underlying, ab_or_mat)
        self.dom = dom
        self.cod = cod
        self.ab = ab
        if check:
            self.check_equivariance()

    def check_equivariance(self):
        f = self.ab.mat
        for g in self.dom.group.generating_set():
            j = self.cod.underlying.first_difference(
                f.mul(self.dom.action[g]), self.cod.action[g].mul(f))
            if j is not None:
                raise NotEquivariant(j, g)

    def apply(self, x):
        return self.ab.apply(x)

    def compose(self, other):
        return GMap(other.dom, self.cod, self.ab.compose(other.ab), check=False)

    def kernel(self):
        """(K, inclusion) for the kernel K of this map, a submodule.

        Only the generators s in S = `generating_set()` are lifted:
        A_s = the solution of incl.A_s = rho(s).incl, raising
        NotEquivariant when rho(s) moves K out of itself.  Every other
        element acts by a product along a word in S, A_{sg} = A_s.A_g,
        and K is built unchecked.  incl.A_s = rho(s).incl with incl
        injective, so A_s carries each relation of K (a vector that incl
        sends to a relation of the domain) to one, and incl.A_s.A_g =
        rho(s).rho(g).incl = rho(sg).incl: the products act as rho does,
        whatever the word, and the identity acts as the identity.  If the
        generators keep K stable every element does, so NotEquivariant is
        raised whenever some rho(g) moves K out of itself.
        """
        kgrp, incl = self.ab.kernel()
        grp = self.dom.group
        gens = [(s, incl.lift(self.dom.action[s].mul(incl.mat),
                              lambda i, s=s: NotEquivariant(i, s)))
                for s in grp.generating_set()]
        acts = {grp.identity: IntMatrix.identity(kgrp.n)}
        reached = [grp.identity]
        for g in reached:
            for s, a_s in gens:
                sg = grp.mul(s, g)
                if sg not in acts:
                    acts[sg] = a_s.mul(acts[g])
                    reached.append(sg)
        kmod = GModule(grp, kgrp, [acts[g] for g in range(grp.order)],
                       check=False)
        return kmod, GMap(kmod, self.dom, incl, check=False)

    @classmethod
    def zero(cls, dom, cod):
        return cls(dom, cod, AbMap.zero(dom.underlying, cod.underlying),
                   check=False)

    def __eq__(self, other):
        return isinstance(other, GMap) and self.ab == other.ab

    def __hash__(self):
        raise TypeError("GMap is unhashable")


# -- constructions ----------------------------------------------------------

def trivial_module(group, fgab=None):
    fgab = fgab if fgab is not None else FgAb(1)
    ident = IntMatrix.identity(fgab.n)
    return GModule(group, fgab, [ident] * group.order, check=False)


def regular_module(group):
    """Z[G] with left translation, basis indexed by group elements."""
    n = group.order
    acts = []
    for g in range(n):
        cols = []
        for h in range(n):
            col = [0] * n
            col[group.mul(g, h)] = 1
            cols.append(col)
        acts.append(IntMatrix._trusted_columns(cols, n))
    return GModule(group, FgAb(n), acts, check=False)


def perm_module(group, sub):
    """Permutation module on left cosets G/H; basis = coset reps."""
    reps, rho = cosets_and_reps(group, sub)
    pos = {r: i for i, r in enumerate(reps)}
    k = len(reps)
    acts = []
    for g in range(group.order):
        cols = []
        for r in reps:
            col = [0] * k
            col[pos[rho[group.mul(g, r)]]] = 1
            cols.append(col)
        acts.append(IntMatrix._trusted_columns(cols, k))
    mod = GModule(group, FgAb(k), acts, check=False)
    return mod, reps, rho, pos


class LocalIdeal:
    """The left ideal Z[G] * (augmentation ideal of H), its inclusion
    into the regular module, and its basis: the pairs (t, h) standing for
    t(h - 1), in the order of the module's coordinates."""

    __slots__ = ("module", "incl", "basis")

    def __init__(self, module, incl, basis):
        self.module = module
        self.incl = incl
        self.basis = basis


def local_aug_ideal(group, sub, regular):
    """The left ideal Z[G](h - 1), h in `sub`, inside `regular`, on the
    basis t(h - 1) = th - t, t over the left-coset representatives of
    H = `sub` and h over H - {1}: Z[G] (x)_Z[H] I_H is the sum of the
    t.I_H (Brown, Cohomology of Groups, III.5).  Basis vector (t, h) owns
    the coordinate th.

    The action of g, built on first read (see `LazyActions`), is closed
    form: with gt = t'h0, t' a representative, g.t(h - 1) =
    t'(h0 h - 1) - t'(h0 - 1), and a term whose H-part is 1 is zero.  The
    module is built unchecked and the injective inclusion checked, which
    proves the matrices at the generators; the formula is the same at
    every g.  The free module has no relations to respect."""
    reps, rep_of = cosets_and_reps(group, sub)
    one, inv, mul = group.identity, group.inv, group.mul
    hs = [h for h in sub.elems if h != one]
    basis = [(t, h) for t in reps for h in hs]
    coord = {b: i for i, b in enumerate(basis)}

    def act(g):
        cols = []
        for t, h in basis:
            gt = mul(g, t)
            t2 = rep_of[gt]
            h0 = mul(inv[t2], gt)
            cols.append({coord[t2, x]: c for x, c in ((mul(h0, h), 1),
                                                      (h0, -1)) if x != one})
        return IntMatrix._from_sparse_columns(cols, len(basis))

    mod = GModule(group, FgAb(len(basis)), LazyActions(group.order, act),
                  check=False)
    incl = GMap(mod, regular, IntMatrix._from_sparse_columns(
        [{mul(t, h): 1, t: -1} for t, h in basis], group.order))
    return LocalIdeal(mod, incl, basis)


def aug_ideal(group):
    """(I_G, inclusion into Z[G]): the local ideal of H = G, on the basis
    h - 1 for h != 1."""
    ideal = local_aug_ideal(group, Subgroup(group, range(group.order)),
                            regular_module(group))
    return ideal.module, ideal.incl


def direct_sum(mods):
    """(sum module, injections, projections) of a list of GModules over
    the same group.  The block-diagonal action of g is built when it is
    first read (see `LazyActions`)."""
    group = mods[0].group
    ab = FgAb.direct_sum([m.underlying for m in mods])
    smod = GModule(group, ab, LazyActions(
        group.order,
        lambda g: IntMatrix.block_diagonal([m.action[g] for m in mods])),
        check=False)
    injs, projs, off = [], [], 0
    for m in mods:
        n = m.underlying.n
        inj = IntMatrix._from_sparse_columns(
            [{off + i: 1} for i in range(n)], ab.n)
        # the relations are block-diagonal: unit columns carry them to
        # relations both ways, so neither AbMap re-checks them
        injs.append(GMap(m, smod, AbMap(m.underlying, ab, inj, check=False),
                         check=False))
        projs.append(GMap(smod, m, AbMap(ab, m.underlying, inj.transpose(),
                                         check=False), check=False))
        off += n
    return smod, injs, projs


# -- Hom and tensor ---------------------------------------------------------

class HomModule:
    """Hom_Z(C, A) with the conjugation action, C torsion-free.

    An element is held by the coordinates of E = f.FB, the matrix of f on
    the free basis of C (see `FgAb.free_basis_maps`), stacked column by
    column: coordinate i.n_A + l is E[l][i].  With S(g) = TB.rho_C(g^-1).FB,
    E goes to rho_A(g).E.S(g) under g, so g acts by S(g)^T (x) rho_A(g).

    The module is built unchecked.  TB kills C's relations, and FB.TB is
    the identity modulo them, so S(g)S(h) = S(hg) and S(1) = I exactly.
    Hence S(g)^T (x) rho_A(g) is multiplicative, with the identity acting
    trivially, up to terms (x) a relation of A, and it maps each relation
    e_i (x) r of A^k to S(g)^T e_i (x) rho_A(g) r: all relations of A^k.

    The matrix of g is built when `module.action[g]` is first read (see
    `LazyActions`), so a caller that reads the generators only, as
    `GMap`'s equivariance check, `coboundary_map` and the cocycles of
    `tatelab.cohomology` do, builds |S| of them and not |G|.
    """

    __slots__ = ("module", "c", "a", "k", "tb", "fb")

    def __init__(self, cmod, amod):
        if cmod.group is not amod.group:
            raise ValueError("modules over different groups")
        group = cmod.group
        c, a = cmod.underlying, amod.underlying
        if not c.is_free():
            raise NotFree("module has torsion")
        tb, fb = c.free_basis_maps()
        k = tb.rows
        inv = group.inv

        def act(g):
            return tb.mul(cmod.action[inv[g]]).mul(fb).transpose().kron(
                amod.action[g])
        self.module = GModule(group, FgAb.direct_sum([a] * k),
                              LazyActions(group.order, act), check=False)
        self.c, self.a = cmod, amod
        self.k, self.tb, self.fb = k, tb, fb

    def to_matrix(self, h):
        """Hom element -> matrix of the underlying map C -> A."""
        na = self.a.underlying.n
        e = IntMatrix._trusted_columns(
            [h[i * na:(i + 1) * na] for i in range(self.k)], na)
        return e.mul(self.tb)

    def from_matrix(self, f):
        """Matrix of a map C -> A -> Hom element coordinates."""
        e = f.mul(self.fb)
        return tuple(x for i in range(self.k) for x in e.column(i))

    def precompose(self, dom_hom, phi):
        """The matrix of Hom(C', A) -> Hom(C, A), f -> f.phi, where
        dom_hom = Hom(C', A) and phi is the matrix of a map C -> C'.  The
        map sends E' to E'.M with M = TB_C'.phi.FB_C, and stacking the
        columns of E'.M gives (M^T (x) I_{n_A}) applied to E' stacked.

        >>> from tatelab.groups import named_group
        >>> z = trivial_module(named_group("C2"))
        >>> reg = regular_module(z.group)
        >>> eps = IntMatrix([[1, 1]])  # the augmentation Z[G] -> Z
        >>> HomModule(reg, z).precompose(HomModule(z, z), eps).entries
        ((1,), (1,))
        """
        m = dom_hom.tb.mul(phi).mul(self.fb)
        return m.transpose().kron(IntMatrix.identity(self.a.underlying.n))

    def apply(self, h, x):
        """Evaluate a Hom element at x in C."""
        return self.to_matrix(h).apply(x)


class TensorModule:
    """C tensor A over Z with the diagonal action; c_i (x) a_l has
    coordinate i.n_A + l."""

    __slots__ = ("module", "c", "a")

    def __init__(self, cmod, amod):
        if cmod.group is not amod.group:
            raise ValueError("modules over different groups")
        c, a = cmod.underlying, amod.underlying
        if not (c.is_finite() or a.is_finite() or c.is_free() or a.is_free()):
            raise ValueError("tensor factors must include a finite or a "
                             "Z-free module")
        nc, na = c.n, a.n
        # r (x) a_l for the relations r of C, then c_i (x) r for those of A,
        # grouped by r
        rel_cols = c.rel.kron(IntMatrix.identity(na)).sparse_columns()
        ident_c = IntMatrix.identity(nc)
        for col in a.rel.sparse_columns():
            rel_cols += ident_c.kron(
                IntMatrix._from_sparse_columns([col], na)).sparse_columns()
        ab = FgAb(nc * na, IntMatrix._from_sparse_columns(rel_cols, nc * na))
        acts = [cmod.action[g].kron(amod.action[g])
                for g in range(cmod.group.order)]
        self.module = GModule(cmod.group, ab, acts, check=False)
        self.c, self.a = cmod, amod

    def pure(self, x, y):
        na = self.a.underlying.n
        out = [0] * (self.c.underlying.n * na)
        for i, xi in enumerate(x):
            if xi:
                for l, yl in enumerate(y):
                    if yl:
                        out[i * na + l] += xi * yl
        return tuple(out)


def hom_and_tensor(cmod, amod):
    """{hom, tensor, evaluation} as in the module contract."""
    hom = HomModule(cmod, amod)
    tensor = TensorModule(cmod, hom.module)
    # c_i (x) (coordinate k.n_A + l of Hom) -> TB[k][i] a_l
    tb_row = [{0: col[k]} if k in col else {}
              for col in hom.tb._columns for k in range(hom.k)]
    ev = IntMatrix._from_sparse_columns(tb_row, 1).kron(
        IntMatrix.identity(amod.underlying.n))
    evaluation = GMap(tensor.module, amod, ev)
    return {"hom": hom, "tensor": tensor, "evaluation": evaluation,
            "plain_tensor": TensorModule(cmod, amod)}

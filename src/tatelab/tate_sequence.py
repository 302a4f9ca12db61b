"""The Tate-sequence laboratory.

Builds, for a validated instance, the support module W (local augmentation
ideals plus one group-ring copy per auxiliary place), the relation module
R = ker(W -> aug ideal), the projective module B, the exact sequence
0 -> R -> B -> X -> 0, the quotient module through which the snake map is
computed, the snake map itself with its closed forms, the module nabla as
an explicit pushout, both descriptions of the connecting homomorphism
H^-2(X) -> H^-1(Cl), the distinguished subgroups of the class module and
its minus-one cohomology, the first connecting map of the unit sequence,
and the norm-kernel corollary suite.  Every closed form is checked against
generic homological computation.
"""

from __future__ import annotations

from .abelian import AbMap, FgAb, subgroup_span
from .cft import PlaceIsP0, c_p
from .cohomology import (CohClass, Cocycle1, ExtensionData,
                         extension_to_cocycle, induced_map, zig_zag)
from .gmodules import (GMap, GModule, HomModule, aug_ideal, direct_sum,
                       local_aug_ideal, trivial_module)
from .groups import abelianization, subgroup_as_group
from .lattice import IntMatrix, _axpy, _span_basis


class ImageEscapesCl(Exception):
    pass


class EmbeddingHasKernel(Exception):
    pass


class NotNormKilled(Exception):
    pass


# -- W, R, B -----------------------------------------------------------------

class WRBData:
    """W, R, B, X and their maps.  `w_blocks` lists the summands of W in
    order as (kind, id, data, offset): kind "place" with the local ideal
    as data, or kind "aux" with the auxiliary place."""

    __slots__ = ("w", "r", "b", "x", "w_blocks", "r_incl", "r_to_b",
                 "b_to_x", "xy")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)

    def w_block(self, kind, pid):
        """The data of the W summand of the given place."""
        for k, p, data, _ in self.w_blocks:
            if k == kind and p == pid:
                return data
        raise KeyError((kind, pid))

    def r_coords(self, parts, what):
        """R-coordinates of the element of W with coordinates
        parts[(kind, id)] on that summand and zero elsewhere."""
        vec = [0] * self.w.underlying.n
        for kind, pid, _, off in self.w_blocks:
            coords = parts.get((kind, pid))
            if coords is not None:
                vec[off:off + len(coords)] = coords
        pre = self.r_incl.ab.solve(vec)
        if pre is None:
            raise ValueError(f"{what} escaped R")
        return pre


def build_wrb(inst, xy):
    """W, R, B and the maps tying them to the augmentation ideal and X.

    The inclusions of I_G, the local ideals and B are checked GMaps, and
    the maps derived from them are built unchecked: W -> big is block
    diagonal in checked inclusions and identities; big -> Y sends e_g in a
    place block to rho(g), the representative of gG_p, and rho(h.rho(g))
    = rho(hg); W -> I_G, R -> B and B -> X are lifts h of an equivariant
    f (the sum map after W -> big, W -> big after the inclusion of R,
    big -> Y after that of B) through a checked injective GMap i, and
    i.h.rho(g) = f.rho(g) = rho(g).f = i.rho(g).h, so i cancels."""
    grp = inst.group
    aug_mod, aug_incl = aug_ideal(grp)
    reg = aug_incl.cod

    w_parts, w_blocks, off = [], [], 0
    for pl in inst.places:
        ideal = local_aug_ideal(grp, pl.subgroup, reg)
        w_parts.append(ideal.module)
        w_blocks.append(("place", pl.id, ideal, off))
        off += ideal.module.underlying.n
    for q in inst.aux_places:
        w_parts.append(reg)
        w_blocks.append(("aux", q.id, q, off))
        off += reg.underlying.n
    w, _, _ = direct_sum(w_parts)

    # B inside big, the sum of one regular copy per place of S'
    b_blocks = [(kind, pid) for kind, pid, _, _ in w_blocks]
    b, b_incl, sum_mat = _sum_kernel(reg, b_blocks)
    big, n = b_incl.cod, grp.order

    # W -> big: each ideal into its ring copy, each aux copy identically
    w_to_big = GMap(w, big, IntMatrix.block_diagonal(
        [data.incl.ab.mat if kind == "place" else IntMatrix.identity(n)
         for kind, _, data, _ in w_blocks]), check=False)

    # W -> aug ideal: the ideal parts summed, the split aux parts to zero
    w_to_aug = GMap(w, aug_mod, aug_incl.ab.lift(
        sum_mat.mul(w_to_big.ab.mat),
        lambda j: ValueError("ideal does not sit inside the "
                             "augmentation ideal")), check=False)
    r, r_incl = w_to_aug.kernel()

    # R -> B through the inclusions
    r_to_b = GMap(r, b, b_incl.ab.lift(
        w_to_big.ab.mat.mul(r_incl.ab.mat),
        lambda j: ValueError("R does not land in B")), check=False)

    # B -> X through big -> Y: e_g in a place block to its coset rep
    ycols = [{xy.y_index[(pid, inst.cosets[pid][1][i])]: 1}
             if kind == "place" else {} for kind, pid in b_blocks
             for i in range(n)]
    big_to_y = GMap(big, xy.y, IntMatrix._from_sparse_columns(
        ycols, xy.y.underlying.n), check=False)
    b_to_x = GMap(b, xy.x, xy.x_incl.ab.lift(
        big_to_y.ab.mat.mul(b_incl.ab.mat),
        lambda j: ValueError("B does not map into X")), check=False)

    return WRBData(w=w, r=r, b=b, x=xy.x, w_blocks=w_blocks, r_incl=r_incl,
                   r_to_b=r_to_b, b_to_x=b_to_x, xy=xy)


def _sum_kernel(reg, b_blocks):
    """B, the kernel of the sum of the place blocks big = reg^blocks ->
    Z[G], on the basis e_{p,g} - e_{p1,g} (p a place but the first, p1)
    and e_{q,g} (q auxiliary): one Z[G] per basis block, as G permutes
    the g.  Each column owns its coordinate (p, g) or (q, g), so they are
    independent, and they span the kernel: x - sum_{p != p1} x_p (e_p -
    e_p1) - sum_q x_q e_q is (sum of the x_p) e_p1, 0 on the kernel.
    With no place block, B is all of big.  Returns (B, inclusion, the
    sum's matrix); the inclusion is checked, and sum . inclusion = 0 by
    one product."""
    grp, n = reg.group, reg.underlying.n
    big, _, _ = direct_sum([reg] * len(b_blocks))
    first = next((k for k, (kind, _) in enumerate(b_blocks)
                  if kind == "place"), None)
    cols = [{k * n + g: 1} | ({first * n + g: -1} if kind == "place" else {})
            for k, (kind, _) in enumerate(b_blocks) if k != first
            for g in range(n)]
    b = direct_sum([reg] * (len(cols) // n))[0] if cols else \
        trivial_module(grp, FgAb(0))
    incl = GMap(b, big, IntMatrix._from_sparse_columns(cols, big.underlying.n))
    total = IntMatrix([[int(kind == "place") for kind, _ in b_blocks]]).kron(
        IntMatrix.identity(n))
    if not total.mul(incl.ab.mat).is_zero():
        raise ValueError("B does not lie in the kernel of the sum map")
    return b, incl, total


def wrb_exact(wrb, rbx):
    """The rank bookkeeping of 0 -> R -> B -> X -> 0.  Its exactness is
    proved once, by `rbx`, the checked `ExtensionData` of the sequence:
    that artifact does not exist unless the sequence is exact."""
    rr, rb, rx = (m.underlying.free_rank() for m in (rbx.a, rbx.b, rbx.c))
    if rb != rr + rx:
        return False, f"rank mismatch {rb} != {rr} + {rx}"
    return True, {"rank_w": wrb.w.underlying.free_rank(), "rank_r": rr,
                  "rank_b": rb, "rank_x": rx}


# -- the quotient module carrying the snake map ------------------------------

class ScriptH:
    """I_GS / K.I_GS on the presentation of `build_script_h`: generator j
    is the class of u_j - 1, u_j = elements[j] (N - 1, then T - 1, then
    the rest of GS - 1); phi[x] holds the coordinates of x - 1 and head[x]
    the m of x = m.t.  `module`, `e` and `embeds`, whether e is
    injective, are filled in by build_script_h."""

    __slots__ = ("module", "e", "embeds", "phi", "head", "elements", "inst")

    def __init__(self, inst, phi, head, elements):
        self.inst, self.phi, self.head = inst, phi, head
        self.elements = elements
        self.module = self.e = self.embeds = None

    def left_mul(self, y, x):
        """Coordinates of the class of y(x - 1) = (yx - 1) - (y - 1), as a
        fresh sparse {index: coeff} dict (y(1 - 1) is {})."""
        out = dict(self.phi[self.inst.gs.mul(y, x)])
        _axpy(out, 1, self.phi[y])
        return out


def build_script_h(inst):
    """The augmentation-ideal quotient of the extension group that the
    prime-by-prime map lands in, with the embedding of the class module.

    L = K.I_GS with K = ker(Z[GS] -> Z[G]).  N = ker(pi: GS -> G), T is
    the transversal with T(1) = 1 and T(g) the least preimage of g, and
    x = m.t with t = T(pi(x)), m = x.t^-1 in N.  K is the Z-span of the
    (n - 1)t, and (n - 1)t(z - 1) = (n - 1)(tz - 1) - (n - 1)(t - 1), so
    L is spanned by the (n - 1)(z - 1), n in N, z in GS.  For z = m.t,
    (n - 1)(z - 1) = w_{nm,t} - w_{m,t} + (n - 1)(m - 1) with w_{m,t} =
    (m - 1)(t - 1) = (mt - 1) - (m - 1) - (t - 1) in L, so L =
    span{w_{m,t} : m, t != 1} + span{(a - 1)(b - 1) : a, b in N}.  Each
    w_{m,t} owns the coordinate mt, outside N and T; eliminating them
    gives I_GS / L = (Z^{N-1} + Z^{T-1}) / Q through phi(x - 1) = e_m +
    e_t (e_1 = 0), with Q = I_N^2 spanned by the e_{ab} - e_a - e_b and
    reduced in dimension |N| - 1: rank (|N| - 1) + (|G| - 1), ker phi =
    span{w_{m,t}} inside L, and phi(L) = Q.

    G acts by left multiplication by the lift s(g) of the section over
    p0: generator u goes to phi(s(g)(u - 1)), unchecked.  pi is a checked
    GroupHom, so K is a two-sided ideal and y.L lies in L for every y in
    GS: v -> phi(yv) kills L and acts on I_GS / L.  The builder checks
    pi(s(g)) = g for every g itself, and raises ValueError naming the
    first g that fails.  Two lifts of one element differ by some n in N,
    and (n - 1)x lies in L for x in I_GS; s(1) and s(g)s(h) lift 1 and
    gh, so the identity acts as the identity and the action is
    multiplicative modulo Q.  The embedding c -> phi(kappa(c) - 1) stays
    a checked GMap, and whether it is injective is decided here once."""
    gs, grp = inst.gs, inst.group
    p0_sec = inst.iota[inst.p0.id]
    for g in range(grp.order):
        if inst.pi(p0_sec[g]) != g:
            raise ValueError(f"the section over {inst.p0.id} does not lift "
                             f"{g} ({grp.labels[g]}): it maps to "
                             f"{inst.pi(p0_sec[g])}")
    kernel = [n for n in inst.pi.kernel_elements() if n != gs.identity]
    trans = {grp.identity: gs.identity}
    for x in range(gs.order):
        trans.setdefault(inst.pi(x), x)
    gens = kernel + [trans[g] for g in range(grp.order) if g != grp.identity]
    index = {u: j for j, u in enumerate(gens)}
    tails = [trans[inst.pi(x)] for x in range(gs.order)]
    head = [gs.mul(x, gs.inv[t]) for x, t in enumerate(tails)]
    phi = [{index[u]: 1 for u in mt if u in index} for mt in zip(head, tails)]
    sh = ScriptH(inst, phi, head, gens + [x for x in range(gs.order)
                                          if x != gs.identity
                                          and x not in index])
    rank = len(gens)
    q_gens = []
    for a in kernel:
        for b in kernel:
            v = dict(phi[gs.mul(a, b)])
            _axpy(v, 1, phi[a])
            _axpy(v, 1, phi[b])
            q_gens.append(v)
    hgrp = FgAb(rank, IntMatrix._from_sparse_columns(
        _span_basis(q_gens, len(kernel)), rank))
    acts = [IntMatrix._from_sparse_columns(
        [sh.left_mul(p0_sec[g], u) for u in gens], rank)
        for g in range(grp.order)]
    sh.module = GModule(grp, hgrp, acts, check=False)
    ab = inst.cl.underlying
    sh.e = GMap(inst.cl, sh.module, IntMatrix._from_sparse_columns(
        [dict(phi[inst.kappa[ab.canon(ab.gen(j))]]) for j in range(ab.n)],
        rank))
    sh.embeds = sh.e.ab.is_injective()
    return sh


def script_h_action_lift_independent(inst, sh):
    """The action must not depend on which lift of g multiplies: for every
    g, every class c and every x in GS other than 1, A_g.phi(x - 1) -
    phi(kappa(c)s(g)(x - 1)) must lie in Q, where A_g is the action of g
    and s the section over p0.

    Decided without a membership test per triple.  canon is linear modulo
    the canonical moduli and vanishes exactly on Q; with cls[z] =
    canon(phi(z - 1)), y(x - 1) has class cls[yx] - cls[y].  With c0 the
    first class, n_c = kappa(c) and F_c(z) = cls[n_c z] - cls[n_c0 z]:

    (a) for every g and generator u, the column of u is the class of
        y(u - 1), y = n_c0 s(g).  D(v) = A_g.phi(v) - phi(yv) is Z-linear
        on I_GS and kills L (phi(L) = Q; y.L lies in L, K being a two-sided
        ideal), and L and the u - 1 span I_GS, as x - 1 = (m - 1) + (t - 1)
        + w_{m,t}: so D vanishes at every x - 1 iff it does at the u - 1.
    (b) for every c, F_c is constant on GS, tested as F_c(s(0)x) =
        F_c(s(0)) for every x.  When n_c and n_c0 lie in N the e_t cancel,
        F_c(mt) = F_c(m), and F_c is read off a table of |N| classes.

    Given (a) at g, the condition at (g, c, x) reads F_c(s(g)x) =
    F_c(s(g)); as x runs over GS - {1}, s(g)x runs over GS - {s(g)}, so
    it holds for all x iff F_c is constant: (a) and (b) are the condition,
    with no use of kappa being a homomorphism.  (a) at g = 0 runs first,
    then (b), then (a) at the other g, and x runs over `sh.elements`,
    generators first; a D nonzero somewhere is nonzero at a generator, so
    the witness (g, c, x) is the first failing triple in that order.  (a)
    reads a class only where the column differs from y(u - 1) as a
    vector, so on valid input it does no class arithmetic."""
    gs = inst.gs
    ab = sh.module.underlying
    mods = ab.canonical_moduli()
    p0_sec = inst.iota[inst.p0.id]
    kernel = set(inst.pi.kernel_elements())
    cls = {}

    def minus(a, b):
        return tuple((x - y) % m if m else x - y
                     for x, y, m in zip(a, b, mods))

    def class_at(z):
        if z not in cls:
            cls[z] = ab.canon([sh.phi[z].get(j, 0) for j in range(ab.n)])
        return cls[z]

    cl_ab = inst.cl.underlying
    classes = [cl_ab.canon(c) for c in cl_ab.elements()]
    n0 = inst.kappa[classes[0]]

    def action_fails(g):  # (a) at g
        y = gs.mul(n0, p0_sec[g])
        for col, u in zip(sh.module.action[g].sparse_columns(), sh.elements):
            want = sh.left_mul(y, u)
            if col != want:
                _axpy(col, 1, want)
                if not ab.is_zero([col.get(j, 0) for j in range(ab.n)]):
                    return g, classes[0], u
        return None

    def f_c(n, z):  # F_c(z) for n = kappa(c)
        return minus(class_at(gs.mul(n, z)), class_at(gs.mul(n0, z)))

    def kappa_fails():  # (b)
        z0 = p0_sec[0]
        zs = [gs.mul(z0, x) for x in sh.elements]
        for cc in classes[1:]:
            n = inst.kappa[cc]
            if n in kernel and n0 in kernel:  # F_c(mt) = F_c(m)
                table = {m: f_c(n, m) for m in kernel}
                base = table[sh.head[z0]]
                vals = (table[sh.head[z]] for z in zs)
            else:
                base = f_c(n, z0)
                vals = (f_c(n, z) for z in zs)
            x = next((x for x, v in zip(sh.elements, vals) if v != base),
                     None)
            if x is not None:
                return 0, cc, x
        return None

    wit = (action_fails(0) or kappa_fails()
           or next(filter(None, map(action_fails,
                                    range(1, inst.group.order))), None))
    return wit is None, wit


# -- the snake map ------------------------------------------------------------

def build_snake(inst, wrb, sh):
    """The snake map s: R -> Cl, a GMap: prime-by-prime into the
    quotient module, then pulled back through the embedding of the class
    module.

    W -> Script H sends the basis vector t(h - 1) of a local ideal to
    s(t)(iota_p(h) - 1), s the section over p0, and e_g of an auxiliary
    copy to s(g)(kappa(Frobenius) - 1).  Its equivariance check proves
    the prime-by-prime map, prescribed as s(g)(iota_p(h) - 1) on the
    spanning vectors g(h - 1), well defined.  The actions of W (closed
    forms) and of Script H (see `build_script_h`) are multiplicative, so
    equivariance at the generating set gives it at every g.  1 is the
    first coset representative and s(1) lies in N, acting trivially, so
    h - 1 goes to iota_p(h) - 1 and g(h - 1) to A_g(iota_p(h) - 1) =
    s(g)(iota_p(h) - 1), the prescribed value: the relations among the
    spanning vectors die.  No property of iota_p is used.

    s solves e.s = F, F the map W -> Script H after the inclusion of R,
    column by column modulo the relations of Script H, and raises
    ImageEscapesCl at the first column outside the image of e.  It is
    built unchecked on the injectivity of e, which `build_script_h`
    decided (EmbeddingHasKernel otherwise): F and e are checked GMaps,
    so e(s(r)) = F(r) = 0 for a relation r of R and e(s(gx)) = F(gx) =
    g.F(x) = e(g.s(x)) for g in G, and e injective gives s(r) = 0 and
    s(gx) = g.s(x)."""
    grp = inst.group
    p0_sec = inst.iota[inst.p0.id]
    cols = []
    for (kind, pid, data, _) in wrb.w_blocks:
        if kind == "place":
            sec = inst.iota[pid]
            cols.extend(sh.left_mul(p0_sec[t], sec[h]) for t, h in data.basis)
        else:
            frob = inst.kappa[inst.cl.underlying.canon(data.frobenius)]
            cols.extend(sh.left_mul(p0_sec[g], frob)
                        for g in range(grp.order))
    w_to_h = GMap(wrb.w, sh.module, IntMatrix._from_sparse_columns(
        cols, sh.module.underlying.n))

    lift = sh.e.ab.lift(
        w_to_h.ab.mat.mul(wrb.r_incl.ab.mat),
        lambda j: ImageEscapesCl(f"snake image escapes the class module "
                                 f"at R generator {j}"))
    if not sh.embeds:
        raise EmbeddingHasKernel("the class module does not embed into "
                                 "the quotient module")
    return GMap(wrb.r, inst.cl, AbMap(wrb.r.underlying, inst.cl.underlying,
                                      lift, check=False), check=False)


def aux_unit_in_r(inst, wrb, q_id, coeff=None):
    """R-coordinates of the element with coefficient vector `coeff`
    (default the ring identity) in the given auxiliary copy."""
    grp = inst.group
    if coeff is None:
        coeff = tuple(1 if i == grp.identity else 0
                      for i in range(grp.order))
    return wrb.r_coords({("aux", q_id): coeff}, "auxiliary element")


def snake_of_aux_units(inst, wrb, snake):
    """Check s_q(1) = Frobenius class for every auxiliary place."""
    ab = inst.cl.underlying
    for q in inst.aux_places:
        r = aux_unit_in_r(inst, wrb, q.id)
        if not ab.eq(snake.apply(r), q.frobenius):
            return False, q.id
    return True, None


# -- distinguished elements of R and the closed form of the snake map --------

def _twisted(inst, place_id, sigma, tau):
    """sigma rho(sigma^-1 tau), rho the coset representative map of the
    place."""
    grp = inst.group
    _, rho = inst.cosets[place_id]
    return grp.mul(sigma, rho[grp.mul(grp.inv[sigma], tau)])


def r_element(inst, wrb, place_id, sigma, tau):
    """The element with sigma rho(sigma^-1 tau) - tau in the given place
    component and the negative in the distinguished component."""
    pl = inst.place(place_id)
    if pl.is_p0:
        raise PlaceIsP0(place_id)
    grp = inst.group
    if tau not in inst.cosets[place_id][0]:
        raise ValueError(f"{tau} is not a chosen coset representative")
    moved = _twisted(inst, place_id, sigma, tau)
    vec_p = [0] * grp.order
    vec_p[moved] += 1
    vec_p[tau] -= 1
    parts = {}
    for pid, vec, ideal_name in (
            (place_id, vec_p, "the local ideal"),
            (inst.p0.id, [-x for x in vec_p], "the distinguished ideal")):
        pre = wrb.w_block("place", pid).incl.ab.solve(tuple(vec))
        if pre is None:
            raise ValueError(f"element escapes {ideal_name}")
        parts[("place", pid)] = pre
    return wrb.r_coords(parts, "distinguished element")


def snake_closed_form(inst, place_id, sigma, tau):
    """Element-level closed form of the snake map on the distinguished
    elements: (tau h) . c_p(h) with h = tau^-1 sigma rho(sigma^-1 tau).

    Note the inner twist by h: inside the quotient module the class of
    iota_p(h) - iota_p0(h) is the embedding of iota_p(h) iota_p0(h)^-1
    (the conjugate of the section discrepancy), because for m = s1 s2^-1
    one has s1 - s2 = (m - 1) + (m - 1)(s2 - 1) and the second summand
    lies in the denominator.  The untwisted form tau . c_p(h) holds on
    classes in H^-1 (the two differ by (h - 1) c_p(h)) and whenever the
    decomposition group acts trivially.
    """
    grp = inst.group
    moved = _twisted(inst, place_id, sigma, tau)
    h = grp.mul(grp.inv[tau], moved)
    return inst.cl.act(moved, c_p(inst, place_id, h))


def snake_closed_form_agrees(inst, wrb, snake, calc_cl):
    """Element-level identity s(r_{sigma,tau}) = closed form for all
    data, plus the class-level identity with the untwisted form, read in
    H^-1(Cl) through `calc_cl`, the calculator of Cl."""
    ab = inst.cl.underlying
    grp = inst.group
    h1 = calc_cl.homology(-1)
    for pl in inst.other_places():
        for sigma in range(grp.order):
            for tau in inst.cosets[pl.id][0]:
                lhs = snake.apply(r_element(inst, wrb, pl.id, sigma, tau))
                rhs = snake_closed_form(inst, pl.id, sigma, tau)
                if not ab.eq(lhs, rhs):
                    return False, (pl.id, sigma, tau, "element form")
                h = grp.mul(grp.inv[tau], _twisted(inst, pl.id, sigma, tau))
                untwisted = inst.cl.act(tau, c_p(inst, pl.id, h))
                if h1.class_of(lhs) != h1.class_of(untwisted):
                    return False, (pl.id, sigma, tau, "class form")
    return True, None


# -- nabla ---------------------------------------------------------------------

class NablaData:
    """The pushout sequence `ext`, 0 -> Cl -> nabla -> X -> 0, the middle
    map t: B -> nabla of the ladder, and the snake cocycle in Hom(X, Cl)."""

    __slots__ = ("t", "ext", "g_cocycle", "hom_x_cl")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


def build_nabla(inst, wrb, snake):
    """nabla as the explicit pushout (Cl + B)/(s(r) ~ r), its exact
    sequence, the middle map of the commuting ladder, and the 1-cocycle
    whose class is the extension class.

    The module is built unchecked.  It carries the direct-sum action of
    the valid modules Cl and B, so the identity and multiplicativity
    hold modulo their relations, which are relations of nabla.  g moves
    the glue column (s(r_j), -r_j) to glue.rho_R(g)e_j plus relations of
    Cl and B, as the snake map s and R -> B are checked GMaps.

    The snake cocycle sigma -> (x_{p,tau} -> s(r_{sigma,tau})) is solved
    at the generators only.  With the Z-linear section
    s^(x_{p,tau}) = e_tau(p) - e_tau(p0) of B -> X and
    D(sigma) = sigma.s^.sigma^-1 - s^, one has r_{sigma,tau} =
    D(sigma)(x_{p,tau}), and D(gh) = D(g) + g.D(h); so
    sigma -> s.D(sigma) is a 1-cocycle, fixed by its values on
    `generating_set()`."""
    grp = inst.group
    cl = inst.cl
    total, (cl_inj, b_inj), (_, b_proj) = direct_sum([cl, wrb.b])
    # (s(r), -r) for each generator r of R
    ncl = cl.underlying.n
    glue = IntMatrix._from_sparse_columns(
        [{**sc, **{ncl + i: -x for i, x in rc.items()}}
         for sc, rc in zip(snake.ab.mat._columns,
                           wrb.r_to_b.ab.mat._columns)],
        total.underlying.n)
    ab = FgAb(total.underlying.n, IntMatrix.block_diagonal(
        [cl.underlying.rel, wrb.b.underlying.rel]).hstack(glue))
    nabla = GModule(grp, ab, total.action, check=False)
    t = GMap(wrb.b, nabla, b_inj.ab.mat)
    ext = ExtensionData(GMap(cl, nabla, cl_inj.ab.mat),
                        GMap(nabla, wrb.x,
                             wrb.b_to_x.ab.mat.mul(b_proj.ab.mat)))

    hom = HomModule(wrb.x, cl)
    vals = []
    for sigma in grp.generating_set():
        cols = []
        for (pid, tau) in wrb.xy.x_basis:
            cols.append(snake.apply(r_element(inst, wrb, pid, sigma, tau)))
        fmat = IntMatrix._trusted_columns(cols, cl.underlying.n)
        vals.append(hom.from_matrix(fmat))
    g_cocycle = Cocycle1.from_generators(hom.module, vals)
    return NablaData(t=t, ext=ext, g_cocycle=g_cocycle, hom_x_cl=hom)


def nabla_class_checks(inst, wrb, snake, nabla):
    """The pushout's extension class is the class of the cocycle from the
    snake values, and the image of minus the snake class under the
    connecting map of 0 -> Hom(X, Cl) -> Hom(B, Cl) -> Hom(R, Cl) -> 0
    is the same class.

    Both comparisons are `Cocycle1.is_coboundary` tests in Hom(X, Cl), at
    the generators, with no resolution and no cohomology group built:
    the pushout cocycle f and the snake cocycle g are checked 1-cocycles,
    so [f] = [g] iff f - g is a coboundary.  The connecting image of -[s]
    is the `zig_zag` of a preimage of -s in Hom(B, Cl) through
    `coboundary_map`: its values at S = `generating_set()`, pulled back to
    Hom(X, Cl) (which fails iff -s is not a 0-cocycle), made a checked
    cocycle by `Cocycle1.from_generators`.  The Hom sequence is exact by
    construction and not re-proved: 0 -> R -> B -> X -> 0 is exact
    (the `rbx` artifact) with X Z-free, so it splits over Z, and Hom(-, Cl)
    keeps a split sequence exact.  Every module here is read at the
    generators only, so `HomModule` builds |S| action matrices of Hom(B,
    Cl) and Hom(R, Cl), and Hom(X, Cl) keeps the coboundary map both
    tests solve through.

    The two Hom-sequence maps are built unchecked: precomposition with M
    is M^T (x) I (see `HomModule.precompose`), which sends each relation
    e_i (x) r to relations, and precomposition with an equivariant M
    commutes with the conjugation action, g.(f M) = g f M g^-1 = (g.f) M."""
    hom = nabla.hom_x_cl
    minus_g = nabla.g_cocycle.neg()
    f = extension_to_cocycle(hom, nabla.ext)
    if not f.add(minus_g).is_coboundary()[0]:
        return False, "pushout class differs from the snake cocycle class"
    # torsion bookkeeping: |torsion(nabla)| = |Cl|
    if nabla.ext.b.underlying.torsion_order() != \
            inst.cl.underlying.torsion_order():
        return False, "nabla torsion does not match the class module"
    # ladder commutes: t . (R -> B) = (Cl -> nabla) . s
    lhs = nabla.t.compose(wrb.r_to_b)
    rhs = nabla.ext.a_to_b.compose(snake)
    if lhs != rhs:
        return False, "ladder does not commute"
    # Hom-sequence route: image of -[s] is the class of g
    hom_b = HomModule(wrb.b, inst.cl)
    hom_r = HomModule(wrb.r, inst.cl)
    left = GMap(hom.module, hom_b.module, AbMap(
        hom.module.underlying, hom_b.module.underlying,
        hom_b.precompose(hom, wrb.b_to_x.ab.mat), check=False), check=False)
    right = GMap(hom_b.module, hom_r.module, AbMap(
        hom_b.module.underlying, hom_r.module.underlying,
        hom_r.precompose(hom_b, wrb.r_to_b.ab.mat), check=False), check=False)
    lift = right.ab.solve(hom_r.from_matrix(snake.ab.neg().mat))
    if lift is None:
        raise ValueError("-s does not lift to Hom(B, Cl)")
    blocks = len(inst.group.generating_set())
    pulled = zig_zag(left, hom_b.module.coboundary_map(), lift, blocks)
    n = hom.module.underlying.n
    try:
        image = Cocycle1.from_generators(
            hom.module, [pulled[k * n:(k + 1) * n] for k in range(blocks)])
    except ValueError as exc:
        return False, f"connecting image of -[s] is not a cocycle: {exc}"
    if not image.add(minus_g).is_coboundary()[0]:
        return False, "connecting image of -[s] differs from the cocycle class"
    return True, None


# -- the two descriptions of H^-2(X) -> H^-1(Cl) -------------------------------

def generator_chain(inst, xy, calc_x, place_id, tau):
    """The degree -2 class of [tau] (x) (p - p0), zero for tau = 1 (see
    `TateCohomology.bar_chain`)."""
    return calc_x.bar_chain(tau, xy.x.underlying.gen(
        xy.x_index[(place_id, inst.group.identity)]))


def delta_minus2_agrees(inst, xy, calc_x, calc_cl, delta_nabla):
    """Headline check: `delta_nabla`, the connecting map H^-2(X) ->
    H^-1(Cl) of the nabla sequence, sends [tau (x) (p - p0)] to the class
    of the section discrepancy c_p(tau), on every generator."""
    for pl in inst.other_places():
        for tau in pl.subgroup.elems:
            lhs = delta_nabla(generator_chain(inst, xy, calc_x, pl.id,
                                              tau))
            rhs = CohClass(calc_cl, -1, c_p(inst, pl.id, tau))
            if lhs != rhs:
                return False, (pl.id, tau, lhs.canon, rhs.canon)
            if tau == inst.group.identity and not lhs.is_zero():
                return False, (pl.id, tau, "identity generator must die")
    return True, None


def h_minus1_x_vanishes(calc_x):
    """H^-1(G, X) = 0; the witness is the group found."""
    h = calc_x.group(-1)
    if not h.is_trivial():
        return False, {"h_minus1_x": list(h.invariant_factors())}
    return True, None


def homology_generators_iso(inst, xy, calc_x):
    """The map ker(sum of decomposition abelianizations -> G^ab) ->
    H^-2(G, X), x_p(tau) -> [tau (x) (p - p0)], is an isomorphism.

    Each abelianization is presented on the generators of its subgroup
    (see `abelianization`), so both maps out of the sum are defined on
    those generators; the chain map is a checked AbMap, which proves
    that it kills the relations.  The kernel is a subgroup of the finite
    sum, so once its order is that of H^-2(X), injective is bijective.
    The images of x_p(tau) are then compared with `generator_chain` for
    every tau."""
    grp = inst.group
    h = calc_x.homology(-2)
    gab, gproj = abelianization(grp)
    parts, proj_maps, elems_per = [], [], []
    for pl in inst.places:
        hgrp, elems = subgroup_as_group(pl.subgroup)
        hab, hproj = abelianization(hgrp)
        parts.append((hab, [elems[s] for s in hgrp.generating_set()]))
        proj_maps.append(hproj)
        elems_per.append(elems)
    offs, total = [], 0
    for hab, _ in parts:
        offs.append(total)
        total += hab.n
    sumab = FgAb.direct_sum([hab for hab, _ in parts])
    # map to G^ab
    cols = [gproj[s] for _, gens in parts for s in gens]
    to_gab = AbMap(sumab, gab, IntMatrix._trusted_columns(cols, gab.n))
    kgrp, kincl = to_gab.kernel()
    # the chain-level map on the summands: h in G_p -> [h] (x) (p - p0)
    ccols = []
    for pl, (_, gens) in zip(inst.places, parts):
        for s in gens:
            if pl.is_p0:
                ccols.append(h.group.zero())
            else:
                ccols.append(generator_chain(inst, xy, calc_x, pl.id,
                                             s).canon)
    chain_map = AbMap(sumab, h.group,
                      IntMatrix._trusted_columns(ccols, h.group.n))
    iso = chain_map.compose(kincl)
    if kgrp.order() != h.group.order():
        return False, f"orders differ: {kgrp.order()} vs {h.group.order()}"
    if not iso.is_injective():
        return False, "generator map is not bijective"
    # x_p(tau) images are the stated generators
    k0 = inst.places.index(inst.p0)
    for pl in inst.other_places():
        k = inst.places.index(pl)
        for tau in pl.subgroup.elems:
            vec = [0] * total
            for kk, t in ((k, tau), (k0, grp.inv[tau])):
                w = proj_maps[kk][elems_per[kk].index(t)]
                vec[offs[kk]:offs[kk] + len(w)] = w
            pre = kincl.solve(vec)
            if pre is None:
                return False, f"x_p({tau}) not in the kernel"
            got = h.group.canon(iso.apply(pre))
            want = generator_chain(inst, xy, calc_x, pl.id, tau).canon
            if got != want:
                return False, (pl.id, tau, got, want)
    return True, None


def connecting_functorial(snake, calc_x, calc_r, calc_cl, delta_rbx,
                          delta_nabla):
    """For the morphism of short exact sequences (s, t, id) from the
    R-B-X sequence to the nabla sequence, the connecting squares commute:
    s_* after `delta_rbx` equals `delta_nabla` at degree -2.

    Both sides are homomorphisms out of H^-2(X), so they agree everywhere
    iff they agree on generators: they are compared on the generators of
    H^-2(X), one per canonical coordinate, and the witness is the first
    generator at which they differ."""
    push = induced_map(calc_r, calc_cl, snake, -1)
    h = calc_x.homology(-2)
    for e in h.group.gens():
        z = CohClass(calc_x, -2, h.rep_of(e))
        if push(delta_rbx(z)) != delta_nabla(z):
            return False, e
    return True, None


# -- subgroup bookkeeping ------------------------------------------------------

class CDCData:
    """The distinguished subgroups, each held by its inclusion: `cbar`
    into H^-1(Cl) as read by the calculator of Cl that `subgroups_cdc`
    was given, `c_s` and `d` into Cl."""

    __slots__ = ("cbar", "c_s", "d")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


def subgroups_cdc(inst, calc_cl):
    """The subgroup of H^-1(Cl) generated by section discrepancies, its
    counterpart inside Cl, and D = <(g-1)c>, read through `calc_cl`, the
    calculator of Cl.  D is spanned by (s-1)c_j, s in `generating_set()`,
    c_j the Smith generators: s-1 is additive, (gh-1)c = (g-1)hc + (h-1)c."""
    ab = inst.cl.underlying
    c_values = [c_p(inst, pl.id, tau) for pl in inst.other_places()
                for tau in pl.subgroup.elems if tau != inst.group.identity]
    _, c_s = subgroup_span(ab, c_values)
    _, cbar, _ = calc_cl.homology(-1).class_map(c_s).image()
    d_gens = [ab.sub(inst.cl.act(s, gen), gen)
              for s in inst.group.generating_set() for gen in ab.smith_gens()]
    _, d = subgroup_span(ab, d_gens)
    return CDCData(cbar=cbar, c_s=c_s, d=d)


def _first_outside(incl, mat):
    """The first column of `mat` outside the image of `incl`, or None."""
    lat = incl.image_lattice()
    return next((j for j, col in enumerate(mat.sparse_columns())
                 if lat._walk(col) is None), None)


def cdc_checks(inst, cdc, nm):
    """D is stable, and D <= ker(Nm) <= ker(N on Cl).  Stability is
    checked under `generating_set()`, whose positive words are all of G."""
    for s in inst.group.generating_set():
        j = _first_outside(cdc.d, inst.cl.action[s].mul(cdc.d.mat))
        if j is not None:
            return False, ("D not stable", s, j)
    j = _first_outside(nm.ker, cdc.d.mat)
    if j is not None:
        return False, ("D escapes ker(Nm)", j)
    ab, k = inst.cl.underlying, nm.ker.mat
    j = ab.first_difference(inst.cl.norm_map().mat.mul(k),
                            IntMatrix.zeros(ab.n, k.cols))
    if j is not None:
        return False, ("ker(Nm) escapes ker(N)", j)
    return True, None


# -- the first connecting map of the unit sequence -----------------------------

def build_delta1(snake):
    """The unit sequence 0 -> ker s -> R -> Cl -> 0: `a` is ker(s) and
    `a_to_b` its inclusion into R."""
    _, ker_incl = snake.kernel()
    return ExtensionData(ker_incl, snake)


def delta1(inst, wrb, d1, calc_k, coeffs):
    """Class in H^0(ker s) of the norm-multiplied auxiliary vector, in the
    canonical coordinates of calc_k, the calculator of ker(s); d1 is the
    unit sequence of `build_delta1`.  The input represents sum a_q Frob_q,
    which must be killed by the norm."""
    ab = inst.cl.underlying
    nu = inst.cl.norm_map()
    if not ab.is_zero(nu.apply(inst.frobenius_sum(coeffs))):
        raise NotNormKilled(coeffs)
    n = inst.group.order
    parts = {("aux", q.id): (coeffs[q.id],) * n for q in inst.aux_places
             if coeffs.get(q.id, 0)}
    r_vec = wrb.r_coords(parts, "norm vector")
    k_vec = d1.a_to_b.ab.solve(r_vec)
    if k_vec is None:
        raise ValueError("norm vector escaped ker(s)")
    # the degree-0 cochain group of ker(s) is ker(s) itself
    return calc_k.homology(0).class_of(k_vec)


def delta1_generic_agrees(inst, wrb, d1, calc_cl, calc_k, delta_unit,
                          coeffs):
    """The formula output equals `delta_unit`, the connecting map of
    0 -> ker s -> R -> Cl -> 0 at degree -1, on the class of the sum; the
    calculators are those of Cl and ker(s)."""
    generic = delta_unit(CohClass(calc_cl, -1, inst.frobenius_sum(coeffs)))
    formula = delta1(inst, wrb, d1, calc_k, coeffs)
    return generic.canon == formula, (generic.canon, formula)


# -- norm corollary suite -------------------------------------------------------

def norm_suite(inst, nm, cdc, calc_cl):
    """The five norm-kernel assertions, reading H^-1(Cl) through
    `calc_cl`; returns one record per assertion, with the id "norm." and
    the name of its function.  An assertion that raises fails with the
    exception as its witness, and the others keep their own records."""
    ab = inst.cl.underlying

    # F = ker(Z^aux -> Cl -> N Cl), and its maps to Cl and H^-1(Cl)
    to_cl = inst.frobenius_map
    _, fincl = inst.cl.norm_map().compose(to_cl).kernel()
    f_to_cl = to_cl.compose(fincl)
    hom = calc_cl.homology(-1)
    h1 = hom.group
    f_to_h1 = hom.class_map(f_to_cl)

    def a_surjects():  # F surjects onto H^-1(Cl)
        span, _, _ = f_to_h1.image()
        return span.order() == h1.order(), {"image": span.order(),
                                            "h1": h1.order()}

    def b_ker_nmbar_is_cbar():  # ker(induced Nm on H^-1) = Cbar
        cols = [nm.nm.apply(hom.rep_of(e)) for e in h1.gens()]
        nmbar = AbMap(h1, nm.q, IntMatrix._trusted_columns(cols, nm.q.n))
        _, ker_bar = nmbar.kernel()
        return _same_subgroup(ker_bar, cdc.cbar), {
            "ker": ker_bar.dom.order(), "cbar": cdc.cbar.dom.order()}

    def c_ker_nm_is_d_plus_c():  # ker(Nm) = D + C and Nm surjective
        dc = cdc.d.mat.hstack(cdc.c_s.mat)
        _, dplusc, _ = AbMap(FgAb(dc.cols), ab, dc, check=False).image()
        surj = nm.nm.is_surjective()
        return _same_subgroup(nm.ker, dplusc) and surj, {
            "ker_nm": nm.ker.dom.order(), "d_plus_c": dplusc.dom.order(),
            "nm_surjective": surj}

    def d_same_kernels():  # of F -> H^-1 -> H^-1/Cbar and F -> Q
        _, h1_proj = cdc.cbar.cokernel()
        _, k1 = h1_proj.compose(f_to_h1).kernel()
        _, k2 = nm.nm.compose(f_to_cl).kernel()
        return _same_subgroup(k1, k2), {"k1": k1.dom.order(),
                                        "k2": k2.dom.order()}

    def e_break_up_kernel():  # 0 -> D -> ker(Nm) -> Cbar -> 0
        return _short_exact_dkc(cdc, hom, nm.ker)

    records = []
    for decide in (a_surjects, b_ker_nmbar_is_cbar, c_ker_nm_is_d_plus_c,
                   d_same_kernels, e_break_up_kernel):
        try:
            ok, witness = decide()
        except Exception as exc:
            ok, witness = False, f"{type(exc).__name__}: {exc}"
        records.append({"id": "norm." + decide.__name__, "ok": bool(ok),
                        "witness": witness})
    return records


def _same_subgroup(incl1, incl2):
    """Whether two inclusions into one group have the same image: each
    image holds the other's generators.  Equal orders would not do for
    the infinite kernels of (d), which all have order 0."""
    return _first_outside(incl1, incl2.mat) is None and \
        _first_outside(incl2, incl1.mat) is None


def _short_exact_dkc(cdc, hom, ker_nm):
    """0 -> D -> ker(Nm) -> Cbar -> 0 with the class map in the middle;
    `hom` is H^-1(Cl) and `ker_nm` the inclusion of ker(Nm)."""
    # D sits inside ker(Nm): every generator of D lifts
    try:
        d_in_knm = ker_nm.lift(cdc.d.mat, lambda j: ValueError(j))
    except ValueError:
        return False, "D not inside ker(Nm)"
    # the class map ker(Nm) -> H^-1 has image Cbar and kernel D
    to_h1 = hom.class_map(ker_nm)
    _, img, _ = to_h1.image()
    if not _same_subgroup(img, cdc.cbar):
        return False, {"image": img.dom.order(),
                       "cbar": cdc.cbar.dom.order()}
    _, kerc = to_h1.kernel()
    _, d_in, _ = AbMap(FgAb(d_in_knm.cols), ker_nm.dom, d_in_knm,
                       check=False).image()
    return _same_subgroup(kerc, d_in), {"kernel": kerc.dom.order(),
                                        "d": d_in.dom.order()}

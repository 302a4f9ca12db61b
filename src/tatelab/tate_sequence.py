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

from .abelian import AbMap, FgAb, Homology, ab_quotient, subgroup_span
from .cft import PlaceIsP0, c_p
from .cohomology import (CohClass, Cocycle1, ExtensionData, connecting_hom,
                         extension_to_cocycle, induced_map, zig_zag)
from .gmodules import (GMap, GModule, HomModule, aug_ideal, direct_sum,
                       local_aug_ideal)
from .groups import abelianization, subgroup_as_group
from .lattice import IntMatrix, _axpy, _kernel_columns, _span_basis


class ImageEscapesCl(Exception):
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
    """W, R, B and the maps tying them to the augmentation ideal and X."""
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

    # W -> aug ideal: inclusion on ideal parts, zero on split aux parts
    cols = []
    for part, (kind, pid, ideal, _) in zip(w_parts, w_blocks):
        if kind == "place":
            cols.extend(ideal.incl.ab.mat.sparse_columns())
        else:
            cols.extend({} for _ in range(part.underlying.n))
    w_to_aug = GMap(w, aug_mod, aug_incl.ab.lift(
        IntMatrix._from_sparse_columns(cols, grp.order),
        lambda j: ValueError("ideal does not sit inside the "
                             "augmentation ideal")))

    r, r_incl = w_to_aug.kernel()

    # big = sum of one regular copy per place of S', map to Z[G]
    big_parts = [reg] * (len(inst.places) + len(inst.aux_places))
    big, _, _ = direct_sum(big_parts)
    b_blocks = [("place", pl.id) for pl in inst.places] + \
               [("aux", q.id) for q in inst.aux_places]
    n = grp.order
    on_places = IntMatrix([[int(kind == "place") for kind, _ in b_blocks]])
    sum_map = GMap(big, reg, on_places.kron(IntMatrix.identity(n)))
    b, b_incl = sum_map.kernel()

    # W -> big: each ideal into its ring copy, each aux copy identically
    w_to_big = GMap(w, big, IntMatrix.block_diagonal(
        [data.incl.ab.mat if kind == "place" else IntMatrix.identity(n)
         for kind, _, data, _ in w_blocks]))

    # R -> B through the inclusions
    r_to_b = GMap(r, b, b_incl.ab.lift(
        w_to_big.ab.mat.mul(r_incl.ab.mat),
        lambda j: ValueError("R does not land in B")))

    # B -> X through big -> Y
    ycols = []
    for k, (kind, pid) in enumerate(b_blocks):
        for i in range(n):
            col = [0] * xy.y.underlying.n
            if kind == "place":
                _, rho = inst.cosets[pid]
                col[xy.y_index[(pid, rho[i])]] = 1
            ycols.append(col)
    big_to_y = GMap(big, xy.y, IntMatrix._trusted_columns(ycols,
                                                          xy.y.underlying.n))
    b_to_x = GMap(b, xy.x, xy.x_incl.ab.lift(
        big_to_y.ab.mat.mul(b_incl.ab.mat),
        lambda j: ValueError("B does not map into X")))

    return WRBData(w=w, r=r, b=b, x=xy.x, w_blocks=w_blocks, r_incl=r_incl,
                   r_to_b=r_to_b, b_to_x=b_to_x, xy=xy)


def wrb_exact(wrb):
    """Exactness of 0 -> R -> B -> X -> 0 plus the rank bookkeeping."""
    if not wrb.r_to_b.ab.is_injective():
        return False, "R -> B not injective"
    if not wrb.b_to_x.ab.is_surjective():
        return False, "B -> X not surjective"
    h = Homology(wrb.r_to_b.ab, wrb.b_to_x.ab)
    if not h.group.is_trivial():
        return False, f"middle homology {h.group!r}"
    rb = wrb.b.underlying.free_rank()
    rr = wrb.r.underlying.free_rank()
    rx = wrb.x.underlying.free_rank()
    if rb != rr + rx:
        return False, f"rank mismatch {rb} != {rr} + {rx}"
    return True, {"rank_w": wrb.w.underlying.free_rank(), "rank_r": rr,
                  "rank_b": rb, "rank_x": rx}


# -- the quotient module carrying the snake map ------------------------------

class ScriptH:
    """I_GS / L with L = K.I_GS and K = ker(Z[GS] -> Z[G]), on the basis
    {x - 1 : x != 1} of I_GS; `module` and `e` are filled in by
    build_script_h."""

    __slots__ = ("module", "e", "gs_basis", "gs_index", "inst")

    def __init__(self, inst):
        gs = inst.gs
        self.gs_basis = [x for x in range(gs.order) if x != gs.identity]
        self.gs_index = {x: i for i, x in enumerate(self.gs_basis)}
        self.inst = inst
        self.module = self.e = None

    def left_mul(self, y, x):
        """Coordinates of y(x - 1) = (yx - 1) - (y - 1) as a sparse
        {index: coeff} dict; the identity of GS has no basis vector, so
        its terms are dropped (and y(1 - 1) is {})."""
        gs = self.inst.gs
        if x == gs.identity:
            return {}
        out = {}
        yx = gs.mul(y, x)
        if yx != gs.identity:
            out[self.gs_index[yx]] = 1
        if y != gs.identity:
            out[self.gs_index[y]] = -1
        return out


def build_script_h(inst):
    """The augmentation-ideal quotient of the extension group that the
    prime-by-prime map lands in, with the embedding of the class module.

    L is spanned by (n - 1)t(s - 1) over n != 1 in ker(GS -> G), t in a
    transversal and s in a generating set of GS: the (n - 1)t are a
    Z-basis of the two-sided ideal K, and I_GS = sum_s Z[GS](s - 1), so
    K.I_GS = sum_s K(s - 1).  The transversal is the first preimage of
    each g under the projection, so L does not depend on the sections.

    G acts by left multiplication by the lift s(g) of the section over
    p0, and the module is built unchecked.  pi is a checked GroupHom, so
    K is a two-sided ideal and every y in GS keeps L = K.I_GS: y.L is
    inside L, and each column y(x - 1) is exact in I_GS.  The builder
    checks pi(s(g)) = g for every g itself, and raises ValueError naming
    the first g that fails.  Two lifts of one element differ by some n in
    ker pi, and (n - 1)x lies in L for every x in I_GS; s(1) and
    s(g)s(h) lift 1 and gh, so the identity acts as the identity and the
    action is multiplicative modulo L."""
    gs, grp = inst.gs, inst.group
    p0_sec = inst.iota[inst.p0.id]
    for g in range(grp.order):
        if inst.pi(p0_sec[g]) != g:
            raise ValueError(f"the section over {inst.p0.id} does not lift "
                             f"{g} ({grp.labels[g]}): it maps to "
                             f"{inst.pi(p0_sec[g])}")
    sh = ScriptH(inst)
    nb = len(sh.gs_basis)
    transversal = {}
    for x in range(gs.order):
        transversal.setdefault(inst.pi(x), x)
    s_gens = gs.generating_set()
    gens = []
    for n in inst.pi.kernel_elements():
        if n == gs.identity:
            continue
        for t in transversal.values():
            nt = gs.mul(n, t)
            for s in s_gens:
                v = sh.left_mul(nt, s)
                _axpy(v, 1, sh.left_mul(t, s))
                gens.append(v)
    hgrp = FgAb(nb, IntMatrix._from_sparse_columns(_span_basis(gens, nb), nb))
    acts = [IntMatrix._from_sparse_columns(
        [sh.left_mul(p0_sec[g], x) for x in sh.gs_basis], nb)
        for g in range(grp.order)]
    sh.module = GModule(grp, hgrp, acts, check=False)
    # embedding of the class module: c -> class(kappa(c) - 1)
    ab = inst.cl.underlying
    sh.e = GMap(inst.cl, sh.module, IntMatrix._from_sparse_columns(
        [sh.left_mul(gs.identity, inst.kappa[ab.canon(ab.gen(j))])
         for j in range(ab.n)], nb))
    return sh


def script_h_action_lift_independent(inst, sh):
    """The action must not depend on which lift of g multiplies: for every
    g, every class c and every x in GS other than 1, the action column of
    x minus the class of kappa(c)s(g)(x - 1) must be a relation, where s
    is the section over p0.

    Decided on a class table instead of |G|.|Cl|.(|GS| - 1) membership
    tests.  cls[z] is the canonical class of z - 1 (cls[1] = 0); canon is
    linear modulo the canonical moduli and vanishes exactly on relations,
    so y(x - 1) = (yx - 1) - (y - 1) has class cls[yx] - cls[y] and a
    sparse column v has class sum_j v_j.cls[gs_basis[j]].  With c0 the
    first class of Cl, n_c = kappa(c) and F_c(z) = cls[n_c z] - cls[n_c0 z]
    the check splits in two:

    (a) for every g and x, the column of x has class cls[yx] - cls[y]
        with y = n_c0 s(g): the old condition at c = c0;
    (b) for every c, F_c is constant on GS, tested as F_c(s(0)x) =
        F_c(s(0)) for every x.

    Given (a) at g, the old condition at (g, c, x) reads F_c(s(g)x) =
    F_c(s(g)); as x runs over GS - {1}, s(g)x runs over GS - {s(g)}, so
    it holds for all x iff F_c is constant, whatever g is.  Hence (a) and
    (b) together are the old check, with no use of kappa being a
    homomorphism.  (a) at g = 0 runs first, then (b), then (a) at the
    other g, so the witness (g, c, x) is the old loop's first failing
    triple: (g, c0, x) from (a), (0, c, x) from (b).
    """
    gs = inst.gs
    ab = sh.module.underlying
    mods = ab.canonical_moduli()
    p0_sec = inst.iota[inst.p0.id]

    def reduced(v):
        return tuple(x % m if m else x for x, m in zip(v, mods))

    cls = [(0,) * len(mods)] * gs.order
    for j, z in enumerate(sh.gs_basis):
        e = [0] * ab.n
        e[j] = 1
        cls[z] = ab.canon(e)

    def minus(a, b):
        return reduced([x - y for x, y in zip(a, b)])

    def col_class(col):
        acc = [0] * len(mods)
        for j, v in col.items():
            for k, x in enumerate(cls[sh.gs_basis[j]]):
                acc[k] += v * x
        return reduced(acc)

    cl_ab = inst.cl.underlying
    classes = [cl_ab.canon(c) for c in cl_ab.elements()]
    n0 = inst.kappa[classes[0]]

    def action_fails(g):  # (a) at g
        y = gs.mul(n0, p0_sec[g])
        cols = sh.module.action[g].sparse_columns()
        for col, x in zip(cols, sh.gs_basis):
            if col_class(col) != minus(cls[gs.mul(y, x)], cls[y]):
                return g, classes[0], x
        return None

    def kappa_fails():  # (b)
        z0 = p0_sec[0]
        for cc in classes[1:]:
            n = inst.kappa[cc]
            base = minus(cls[gs.mul(n, z0)], cls[gs.mul(n0, z0)])
            for x in sh.gs_basis:
                z = gs.mul(z0, x)
                if minus(cls[gs.mul(n, z)], cls[gs.mul(n0, z)]) != base:
                    return 0, cc, x
        return None

    wit = (action_fails(0) or kappa_fails()
           or next(filter(None, map(action_fails,
                                    range(1, inst.group.order))), None))
    return wit is None, wit


# -- the snake map ------------------------------------------------------------

class SnakeData:
    __slots__ = ("s", "w_to_h", "wrb", "sh")

    def __init__(self, s, w_to_h, wrb, sh):
        self.s = s
        self.w_to_h = w_to_h
        self.wrb = wrb
        self.sh = sh


def build_snake(inst, wrb, sh):
    """The snake map R -> Cl: prime-by-prime into the quotient module,
    then pulled back through the embedding of the class module."""
    grp = inst.group
    rel_lat = sh.module.underlying.rel_lattice()
    p0_sec = inst.iota[inst.p0.id]

    def combination(coeffs, images):
        acc = {}
        for si, ccf in coeffs.items():
            _axpy(acc, -ccf, images[si])
        return acc

    cols = []
    for (kind, pid, data, _) in wrb.w_blocks:
        if kind == "place":
            ideal = data
            sec = inst.iota[pid]
            # g . [iota_p(h) - 1] for the spanning vectors g(h - 1)
            images = [sh.left_mul(p0_sec[g], sec[h])
                      for (g, h) in ideal.spanning]
            # well-definedness: relations among the spanning vectors die
            rows = [{} for _ in range(grp.order)]
            for si, (g, h) in enumerate(ideal.spanning):
                rows[grp.mul(g, h)][si] = 1
                rows[g][si] = -1
            for k in _kernel_columns(rows, len(images)):
                if not rel_lat.contains(combination(k, images)):
                    raise ValueError(f"prime-by-prime map ill-defined "
                                     f"at place {pid}")
            cols.extend(combination(w, images) for w in ideal.witnesses)
        else:
            frob = inst.kappa[inst.cl.underlying.canon(data.frobenius)]
            cols.extend(sh.left_mul(p0_sec[g], frob)
                        for g in range(grp.order))
    w_to_h = GMap(wrb.w, sh.module,
                  IntMatrix._from_sparse_columns(cols, len(sh.gs_basis)))

    s = GMap(wrb.r, inst.cl, sh.e.ab.lift(
        w_to_h.ab.mat.mul(wrb.r_incl.ab.mat),
        lambda j: ImageEscapesCl(f"snake image escapes the class module "
                                 f"at R generator {j}")))
    return SnakeData(s, w_to_h, wrb, sh)


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
        if not ab.eq(snake.s.apply(r), q.frobenius):
            return False, q.id
    return True, None


# -- distinguished elements of R and the closed form of the snake map --------

def r_element(inst, wrb, place_id, sigma, tau):
    """The element with sigma rho(sigma^-1 tau) - tau in the given place
    component and the negative in the distinguished component."""
    pl = inst.place(place_id)
    if pl.is_p0:
        raise PlaceIsP0(place_id)
    grp = inst.group
    reps, rho = inst.cosets[place_id]
    if tau not in reps:
        raise ValueError(f"{tau} is not a chosen coset representative")
    moved = grp.mul(sigma, rho[grp.mul(grp.inv[sigma], tau)])
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
    _, rho = inst.cosets[place_id]
    h = grp.mul(grp.inv[tau],
                grp.mul(sigma, rho[grp.mul(grp.inv[sigma], tau)]))
    return inst.cl.act(grp.mul(tau, h), c_p(inst, place_id, h))


def snake_closed_form_agrees(inst, wrb, snake, cdc):
    """Element-level identity s(r_{sigma,tau}) = closed form for all
    data, plus the class-level identity with the untwisted form, read in
    H^-1(Cl) through the calculator of `cdc`."""
    ab = inst.cl.underlying
    grp = inst.group
    h1 = cdc.calc_cl.homology(-1)
    for pl in inst.other_places():
        reps, rho = inst.cosets[pl.id]
        for sigma in range(grp.order):
            for tau in reps:
                lhs = snake.s.apply(r_element(inst, wrb, pl.id, sigma, tau))
                rhs = snake_closed_form(inst, pl.id, sigma, tau)
                if not ab.eq(lhs, rhs):
                    return False, (pl.id, sigma, tau, "element form")
                h = grp.mul(grp.inv[tau],
                            grp.mul(sigma, rho[grp.mul(grp.inv[sigma], tau)]))
                untwisted = inst.cl.act(tau, c_p(inst, pl.id, h))
                if h1.class_of(lhs) != h1.class_of(untwisted):
                    return False, (pl.id, sigma, tau, "class form")
    return True, None


# -- nabla ---------------------------------------------------------------------

class NablaData:
    __slots__ = ("module", "cl_to_nabla", "nabla_to_x", "t", "ext",
                 "g_cocycle", "hom_x_cl")

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
    glue = IntMatrix._trusted(
        snake.s.ab.mat.entries
        + tuple(tuple(-x for x in row) for row in wrb.r_to_b.ab.mat.entries),
        wrb.r.underlying.n)
    ab = FgAb(total.underlying.n, IntMatrix.block_diagonal(
        [cl.underlying.rel, wrb.b.underlying.rel]).hstack(glue))
    nabla = GModule(grp, ab, total.action, check=False)
    cl_to_nabla = GMap(cl, nabla, cl_inj.ab.mat)
    t = GMap(wrb.b, nabla, b_inj.ab.mat)
    nabla_to_x = GMap(nabla, wrb.x, wrb.b_to_x.ab.mat.mul(b_proj.ab.mat))
    ext = ExtensionData(cl_to_nabla, nabla_to_x)

    hom = HomModule(wrb.x, cl)
    vals = []
    for sigma in grp.generating_set():
        cols = []
        for (pid, tau) in wrb.xy.x_basis:
            cols.append(snake.s.apply(r_element(inst, wrb, pid, sigma, tau)))
        fmat = IntMatrix._trusted_columns(cols, cl.underlying.n)
        vals.append(hom.from_matrix(fmat))
    g_cocycle = Cocycle1.from_generators(hom.module, vals)
    return NablaData(module=nabla, cl_to_nabla=cl_to_nabla,
                     nabla_to_x=nabla_to_x, t=t, ext=ext,
                     g_cocycle=g_cocycle, hom_x_cl=hom)


def nabla_class_checks(complex_, inst, wrb, snake, nabla):
    """The pushout's extension class is the class of the cocycle from the
    snake values, and the image of minus the snake class under the
    connecting map of 0 -> Hom(X, Cl) -> Hom(B, Cl) -> Hom(R, Cl) -> 0
    is the same class.

    Both comparisons are coboundary tests in Hom(X, Cl), with no
    cohomology group built.  The pushout cocycle f and the snake cocycle
    g are checked 1-cocycles, so [f] = [g] iff f - g lies in the image of
    d^0: m -> (g.m - m)_g, the complex's own differential at degree 0;
    one image lattice serves both tests.  The connecting image of -[s] is
    the zig-zag of `zig_zag`: a preimage of -s in Hom(B, Cl), its d^0,
    pulled back to Hom(X, Cl), which is a 1-cocycle since Hom(X, Cl) ->
    Hom(B, Cl) is injective; the pull-back fails iff -s is not a
    0-cocycle.  The Hom sequence is exact by construction and not
    re-proved: 0 -> R -> B -> X -> 0 is exact (`wrb.exact`) with X
    Z-free, so it splits over Z, and Hom(-, Cl) keeps a split sequence
    exact."""
    hom = nabla.hom_x_cl
    coboundaries = complex_.blockified(hom.module, 0).image_lattice()
    g = nabla.g_cocycle.as_cochain()
    f = extension_to_cocycle(hom, nabla.ext).as_cochain()
    if not coboundaries.contains([a - b for a, b in zip(f, g)]):
        return False, "pushout class differs from the snake cocycle class"
    # torsion bookkeeping: |torsion(nabla)| = |Cl|
    if nabla.module.underlying.torsion_order() != \
            inst.cl.underlying.torsion_order():
        return False, "nabla torsion does not match the class module"
    # ladder commutes: t . (R -> B) = (Cl -> nabla) . s
    lhs = nabla.t.compose(wrb.r_to_b)
    rhs = nabla.cl_to_nabla.compose(snake.s)
    if lhs != rhs:
        return False, "ladder does not commute"
    # Hom-sequence route: image of -[s] is the class of g
    hom_b = HomModule(wrb.b, inst.cl)
    hom_r = HomModule(wrb.r, inst.cl)
    left = GMap(hom.module, hom_b.module,
                hom_b.precompose(hom, wrb.b_to_x.ab.mat))
    right = GMap(hom_b.module, hom_r.module,
                 hom_r.precompose(hom_b, wrb.r_to_b.ab.mat))
    minus_s = hom_r.from_matrix(snake.s.ab.neg().mat)
    lift = right.ab.lift(
        IntMatrix._trusted_columns([minus_s], len(minus_s)),
        lambda j: ValueError("-s does not lift to Hom(B, Cl)")).column(0)
    image = zig_zag(left, complex_.blockified(hom_b.module, 0), lift,
                    complex_.rank(1))
    if not coboundaries.contains([a - b for a, b in zip(image, g)]):
        return False, "connecting image of -[s] differs from the cocycle class"
    return True, None


# -- the two descriptions of H^-2(X) -> H^-1(Cl) -------------------------------

class ConnectingData:
    __slots__ = ("calc_x", "calc_cl", "generic", "gen_classes")

    def __init__(self, calc_x, calc_cl, generic, gen_classes):
        self.calc_x = calc_x
        self.calc_cl = calc_cl
        self.generic = generic
        self.gen_classes = gen_classes


def generator_chain(complex_, inst, xy, calc_x, place_id, tau):
    """The degree -2 class of [tau] (x) (p - p0)."""
    nx = xy.x.underlying.n
    rep = [0] * (complex_.rank(-2) * nx)
    b_idx = complex_._basis_index(-2, (tau,))
    rep[b_idx * nx + xy.x_index[(place_id, inst.group.identity)]] = 1
    return CohClass(calc_x, -2, rep)


def delta_minus2(inst, nabla, xy, calc_x, calc_cl, calc_nabla):
    """Generic and closed-form connecting maps H^-2(X) -> H^-1(Cl); the
    calculators are those of X, Cl and nabla over one complex."""
    complex_ = calc_x.complex
    generic = connecting_hom(complex_, nabla.ext, -2, calc_c=calc_x,
                             calc_b=calc_nabla, calc_a=calc_cl)
    gen_classes = {}
    for pl in inst.other_places():
        for tau in pl.subgroup.elems:
            gen_classes[(pl.id, tau)] = generator_chain(
                complex_, inst, xy, calc_x, pl.id, tau)
    return ConnectingData(calc_x, calc_cl, generic, gen_classes)


def delta_minus2_agrees(inst, nabla, xy, calc_x, calc_cl, calc_nabla):
    """Headline check: the connecting map of the nabla sequence sends
    [tau (x) (p - p0)] to the class of the section discrepancy c_p(tau),
    on every generator."""
    conn = delta_minus2(inst, nabla, xy, calc_x, calc_cl, calc_nabla)
    for (pid, tau), z in conn.gen_classes.items():
        lhs = conn.generic(z)
        rhs = CohClass(conn.calc_cl, -1, c_p(inst, pid, tau))
        if lhs != rhs:
            return False, (pid, tau, lhs.canon, rhs.canon)
        if tau == inst.group.identity and not lhs.is_zero():
            return False, (pid, tau, "identity generator must die")
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
    that it kills the relations.  The images of x_p(tau) are then
    compared with `generator_chain` for every tau."""
    grp = inst.group
    complex_ = calc_x.complex
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
                z = generator_chain(complex_, inst, xy, calc_x, pl.id, s)
                ccols.append(h.group.from_canon(z.canon))
    chain_map = AbMap(sumab, h.group,
                      IntMatrix._trusted_columns(ccols, h.group.n))
    iso = chain_map.compose(kincl)
    if kgrp.order() != h.group.order():
        return False, f"orders differ: {kgrp.order()} vs {h.group.order()}"
    if not iso.is_injective() or not iso.is_surjective():
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
            want = generator_chain(complex_, inst, xy, calc_x, pl.id,
                                   tau).canon
            if got != want:
                return False, (pl.id, tau, got, want)
    return True, None


def connecting_functorial(wrb, snake, nabla, calc_x, calc_r, calc_cl,
                          calc_nabla):
    """For the morphism of short exact sequences (s, t, id) from the
    R-B-X sequence to the nabla sequence, the connecting squares commute:
    s_* after delta_RBX equals delta_nabla at degree -2."""
    complex_ = calc_x.complex
    ext_rbx = ExtensionData(wrb.r_to_b, wrb.b_to_x)
    d_rbx = connecting_hom(complex_, ext_rbx, -2, calc_c=calc_x,
                           calc_a=calc_r)
    d_nab = connecting_hom(complex_, nabla.ext, -2, calc_c=calc_x,
                           calc_b=calc_nabla, calc_a=calc_cl)
    push = induced_map(calc_r, calc_cl, snake.s, -1)
    h = calc_x.homology(-2)
    for e in h.group.elements():
        z = CohClass(calc_x, -2, h.rep_of(h.group.canon(e)))
        if push(d_rbx(z)) != d_nab(z):
            return False, h.group.canon(e)
    return True, None


# -- subgroup bookkeeping ------------------------------------------------------

class CDCData:
    """The distinguished subgroups; `calc_cl` is the calculator of Cl the
    subgroups were read through, and `h1` its H^-1."""

    __slots__ = ("h1", "cbar", "cbar_incl", "c_s", "c_incl", "d", "d_incl",
                 "calc_cl")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


def subgroups_cdc(inst, calc_cl):
    """The subgroup of H^-1(Cl) generated by section discrepancies, its
    counterpart inside Cl, and the subgroup generated by (g-1)c; classes
    are read through `calc_cl`, the calculator of Cl."""
    ab = inst.cl.underlying
    hom = calc_cl.homology(-1)
    c_values = []
    for pl in inst.other_places():
        for tau in pl.subgroup.elems:
            if tau != inst.group.identity:
                c_values.append(((pl.id, tau), c_p(inst, pl.id, tau)))
    cbar_gens = [hom.group.from_canon(hom.class_of(v)) for (_, v) in c_values]
    cbar, cbar_incl = subgroup_span(hom.group, cbar_gens)
    c_s, c_incl = subgroup_span(ab, [v for (_, v) in c_values])
    d_gens = []
    for g in range(inst.group.order):
        for gen in ab.smith_gens():
            d_gens.append(ab.sub(inst.cl.act(g, gen), gen))
    d, d_incl = subgroup_span(ab, d_gens)
    return CDCData(h1=hom.group, cbar=cbar, cbar_incl=cbar_incl, c_s=c_s,
                   c_incl=c_incl, d=d, d_incl=d_incl, calc_cl=calc_cl)


def cdc_checks(inst, cdc, nm):
    """D is stable, and D <= ker(Nm) <= ker(N on Cl)."""
    ab = inst.cl.underlying
    dlat = cdc.d_incl.image_lattice()
    for g in range(inst.group.order):
        for j in range(cdc.d.n):
            moved = inst.cl.act(g, cdc.d_incl.apply(cdc.d.gen(j)))
            if not dlat.contains(moved):
                return False, ("D not stable", g, j)
    nu = inst.cl.norm_map()
    for j in range(cdc.d.n):
        v = cdc.d_incl.apply(cdc.d.gen(j))
        if not nm.q.is_zero(nm.nm.apply(v)):
            return False, ("D escapes ker(Nm)", j)
    ker_nm, ker_nm_incl = nm.nm.kernel()
    for j in range(ker_nm.n):
        v = ker_nm_incl.apply(ker_nm.gen(j))
        if not ab.is_zero(nu.apply(v)):
            return False, ("ker(Nm) escapes ker(N)", j)
    return True, None


# -- the first connecting map of the unit sequence -----------------------------

class Delta1Data:
    """ker(s) and the sequence 0 -> ker s -> R -> Cl -> 0."""

    __slots__ = ("ker_s", "ker_incl", "ext")

    def __init__(self, ker_s, ker_incl, ext):
        self.ker_s = ker_s
        self.ker_incl = ker_incl
        self.ext = ext


def build_delta1(snake):
    ker_s, ker_incl = snake.s.kernel()
    return Delta1Data(ker_s, ker_incl, ExtensionData(ker_incl, snake.s))


def delta1(inst, wrb, d1, calc_k, coeffs):
    """Class in H^0(ker s) of the norm-multiplied auxiliary vector, in the
    canonical coordinates of calc_k, the calculator of ker(s); the input
    represents sum a_q Frob_q, which must be killed by the norm."""
    ab = inst.cl.underlying
    nu = inst.cl.norm_map()
    if not ab.is_zero(nu.apply(inst.frobenius_sum(coeffs))):
        raise NotNormKilled(coeffs)
    n = inst.group.order
    parts = {("aux", q.id): (coeffs[q.id],) * n for q in inst.aux_places
             if coeffs.get(q.id, 0)}
    r_vec = wrb.r_coords(parts, "norm vector")
    k_vec = d1.ker_incl.ab.solve(r_vec)
    if k_vec is None:
        raise ValueError("norm vector escaped ker(s)")
    # the degree-0 cochain group of ker(s) is ker(s) itself
    return calc_k.homology(0).class_of(k_vec)


def delta1_generic_agrees(inst, wrb, d1, calc_cl, calc_r, calc_k, coeffs):
    """The formula output equals the generic connecting map of
    0 -> ker s -> R -> Cl -> 0 at degree -1 on the class of the sum; the
    calculators are those of Cl, R and ker(s) over one complex."""
    delta = connecting_hom(calc_cl.complex, d1.ext, -1, calc_c=calc_cl,
                           calc_b=calc_r, calc_a=calc_k)
    generic = delta(CohClass(calc_cl, -1, inst.frobenius_sum(coeffs)))
    formula = delta1(inst, wrb, d1, calc_k, coeffs)
    return generic.canon == formula, (generic.canon, formula)


# -- norm corollary suite -------------------------------------------------------

def norm_suite(inst, nm, cdc):
    """The five norm-kernel assertions; returns a list of records."""
    ab = inst.cl.underlying
    records = []

    def record(name, ok, witness=None):
        records.append({"id": name, "ok": bool(ok), "witness": witness})

    # F = ker(Z^aux -> Cl -> N Cl)
    to_cl = inst.frobenius_map
    nu = inst.cl.norm_map()
    comp = AbMap(to_cl.dom, ab, nu.mat.mul(to_cl.mat), check=False)
    fgrp, fincl = comp.kernel()

    # (a) F surjects onto H^-1(Cl)
    h1, hom = cdc.h1, cdc.calc_cl.homology(-1)
    img_gens = []
    for j in range(fgrp.n):
        v = to_cl.apply(fincl.apply(fgrp.gen(j)))
        img_gens.append(h1.from_canon(hom.class_of(v)))
    span, _ = subgroup_span(h1, img_gens)
    record("norm.a_surjects", span.order() == h1.order(),
           {"image": span.order(), "h1": h1.order()})

    # (b) ker(induced Nm on H^-1) = Cbar
    cols = []
    for j in range(h1.n):
        rep = hom.rep_of(h1.canon(h1.gen(j)))
        cols.append(nm.nm.apply(rep))
    nmbar = AbMap(h1, nm.q, IntMatrix._trusted_columns(cols, nm.q.n))
    ker_bar, ker_bar_incl = nmbar.kernel()
    ok_b = _same_subgroup(h1, ker_bar, ker_bar_incl, cdc.cbar, cdc.cbar_incl)
    record("norm.b_ker_nmbar_is_cbar", ok_b,
           {"ker": ker_bar.order(), "cbar": cdc.cbar.order()})

    # (c) ker(Nm) = D + C and Nm surjective
    ker_nm, ker_nm_incl = nm.nm.kernel()
    dc_gens = [cdc.d_incl.apply(cdc.d.gen(j)) for j in range(cdc.d.n)] + \
              [cdc.c_incl.apply(cdc.c_s.gen(j)) for j in range(cdc.c_s.n)]
    dplusc, dplusc_incl = subgroup_span(ab, dc_gens)
    ok_c = _same_subgroup(ab, ker_nm, ker_nm_incl, dplusc, dplusc_incl)
    surj = nm.nm.is_surjective()
    record("norm.c_ker_nm_is_d_plus_c", ok_c and surj,
           {"ker_nm": ker_nm.order(), "d_plus_c": dplusc.order(),
            "nm_surjective": surj})

    # (d) same kernels: F -> H^-1 -> H^-1/Cbar and F -> Q
    cbar_in_h1 = [cdc.cbar_incl.apply(cdc.cbar.gen(j))
                  for j in range(cdc.cbar.n)]
    h1_mod, h1_proj = ab_quotient(h1, cbar_in_h1)
    ok_d, wit_d = _same_kernels(fgrp, fincl, to_cl, cdc, h1_mod, h1_proj,
                                nm)
    record("norm.d_same_kernels", ok_d, wit_d)

    # (e) 0 -> D -> ker(Nm) -> Cbar -> 0
    ok_e, wit_e = _short_exact_dkc(ab, cdc, ker_nm, ker_nm_incl)
    record("norm.e_break_up_kernel", ok_e, wit_e)
    return records


def _same_subgroup(ambient, g1, incl1, g2, incl2):
    if g1.order() != g2.order():
        return False
    lat = incl1.image_lattice()
    for j in range(g2.n):
        if not lat.contains(incl2.apply(g2.gen(j))):
            return False
    return True


def _same_kernels(fgrp, fincl, to_cl, cdc, h1_mod, h1_proj, nm):
    """Kernels of F -> H^-1/Cbar and F -> Q coincide."""
    hom = cdc.calc_cl.homology(-1)
    cols1, cols2 = [], []
    for j in range(fgrp.n):
        v = to_cl.apply(fincl.apply(fgrp.gen(j)))
        cols1.append(h1_proj.apply(cdc.h1.from_canon(hom.class_of(v))))
        cols2.append(nm.nm.apply(v))
    m1 = AbMap(fgrp, h1_proj.cod, IntMatrix._trusted_columns(cols1,
                                                             h1_proj.cod.n))
    m2 = AbMap(fgrp, nm.q, IntMatrix._trusted_columns(cols2, nm.q.n))
    k1, k1i = m1.kernel()
    k2, k2i = m2.kernel()
    ok = _same_subgroup(fgrp, k1, k1i, k2, k2i)
    return ok, {"k1": k1.order(), "k2": k2.order()}


def _short_exact_dkc(ab, cdc, ker_nm, ker_nm_incl):
    """0 -> D -> ker(Nm) -> Cbar -> 0 with the class map in the middle."""
    # D sits inside ker(Nm): every generator of D lifts
    try:
        d_in_knm = ker_nm_incl.lift(cdc.d_incl.mat, lambda j: ValueError(j))
    except ValueError:
        return False, "D not inside ker(Nm)"
    # the class map ker(Nm) -> H^-1 has image Cbar and kernel D
    hom = cdc.calc_cl.homology(-1)
    cols = []
    for j in range(ker_nm.n):
        v = ker_nm_incl.apply(ker_nm.gen(j))
        cols.append(cdc.h1.from_canon(hom.class_of(v)))
    to_h1 = AbMap(ker_nm, cdc.h1, IntMatrix._trusted_columns(cols, cdc.h1.n))
    img, img_incl, _ = to_h1.image()
    if not _same_subgroup(cdc.h1, img, img_incl, cdc.cbar, cdc.cbar_incl):
        return False, {"image": img.order(), "cbar": cdc.cbar.order()}
    kerc, kerc_incl = to_h1.kernel()
    d_in, d_in_incl, _ = AbMap(FgAb(d_in_knm.cols), ker_nm, d_in_knm,
                               check=False).image()
    ok = _same_subgroup(ker_nm, kerc, kerc_incl, d_in, d_in_incl)
    return ok, {"kernel": kerc.order(), "d": d_in.order()}

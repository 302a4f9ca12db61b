"""Abstract class-field instances.

An Instance packages the purely group-theoretic shadow of a Galois
extension with places: the Galois group G, a set of places with their
decomposition subgroups (one distinguished place has full decomposition
group), a finite module standing for the S-class-group, the extension
group GS with its projection to G and the identification of its kernel
with the class module, one section of the projection over each
decomposition subgroup, and auxiliary completely split places carrying a
Frobenius class.  Everything downstream (the Tate-sequence constructions
and the norm corollaries) consumes only this data.
"""

from __future__ import annotations

import itertools
import random
import zlib
from functools import cached_property

from .abelian import AbMap, FgAb, ab_quotient, subgroup_span
from .gmodules import GMap, GModule, direct_sum, perm_module, trivial_module
from .groups import (Subgroup, abelianization, cosets_and_reps,
                     extension_from_cocycle, named_group)
from .lattice import IntMatrix


class PlaceIsP0(Exception):
    pass


class UnsatisfiableParams(Exception):
    pass


class PlaceData:
    __slots__ = ("id", "subgroup", "is_p0")

    def __init__(self, place_id, subgroup, is_p0=False):
        self.id = place_id
        self.subgroup = subgroup
        self.is_p0 = is_p0


class AuxPlace:
    __slots__ = ("id", "frobenius")

    def __init__(self, place_id, frobenius):
        self.id = place_id
        self.frobenius = tuple(frobenius)


class Instance:
    """See the module docstring; construction precomputes coset data and
    the inverse of the kernel identification."""

    def __init__(self, group, places, aux_places, cl, gs, pi, kappa, iota):
        self.group = group
        self.places = list(places)
        self.aux_places = list(aux_places)
        self.cl = cl
        self.gs = gs
        self.pi = pi
        self.kappa = dict(kappa)
        self.iota = {pid: dict(m) for pid, m in iota.items()}
        self.kappa_inv = {v: k for k, v in self.kappa.items()}
        self.cosets = {}
        for pl in self.places:
            reps, rho = cosets_and_reps(group, pl.subgroup)
            self.cosets[pl.id] = (reps, rho)

    @property
    def p0(self):
        for pl in self.places:
            if pl.is_p0:
                return pl
        raise ValueError("instance has no distinguished place")

    def place(self, place_id):
        for pl in self.places:
            if pl.id == place_id:
                return pl
        raise KeyError(place_id)

    def other_places(self):
        return [pl for pl in self.places if not pl.is_p0]

    @cached_property
    def frobenius_map(self):
        """Z^aux -> Cl sending the k-th basis vector to the Frobenius
        class of the k-th auxiliary place."""
        ab = self.cl.underlying
        cols = [q.frobenius for q in self.aux_places]
        return AbMap(FgAb(len(cols)), ab,
                     IntMatrix._trusted_columns(cols, ab.n), check=False)

    def frobenius_sum(self, coeffs):
        """sum a_q Frob_q in Cl, for coeffs {auxiliary place id: a_q}."""
        return self.frobenius_map.apply(
            [coeffs.get(q.id, 0) for q in self.aux_places])


class ValidationReport:
    def __init__(self):
        self.violations = []

    def fail(self, check, witness=None):
        self.violations.append({"check": check, "witness": witness})

    @property
    def clean(self):
        return not self.violations

    def __repr__(self):
        return f"ValidationReport(clean={self.clean}, " \
               f"violations={self.violations!r})"


def validate_instance(inst):
    """Check every structural invariant; violations carry witnesses."""
    rep = ValidationReport()
    grp, gs, cl = inst.group, inst.gs, inst.cl
    ab = cl.underlying

    p0s = [pl for pl in inst.places if pl.is_p0]
    if len(p0s) != 1:
        rep.fail("exactly one distinguished place", [pl.id for pl in p0s])
    else:
        if not p0s[0].subgroup.is_full():
            rep.fail("distinguished place must have full decomposition group",
                     p0s[0].id)
    if not ab.is_finite():
        rep.fail("class module must be finite")

    covered = set()
    for pl in inst.places:
        covered |= set(pl.subgroup.elems)
    if covered != set(range(grp.order)):
        rep.fail("decomposition groups must cover the group",
                 sorted(set(range(grp.order)) - covered))

    # projection and kernel identification
    if not inst.pi.is_surjective():
        rep.fail("projection GS -> G must be surjective")
    kappa_vals = list(inst.kappa.values())
    if len(set(kappa_vals)) != len(kappa_vals):
        rep.fail("kernel identification must be injective")
    if set(kappa_vals) != set(inst.pi.kernel_elements()):
        rep.fail("kernel identification must hit exactly ker(projection)")
    elts = [tuple(e) for e in ab.elements()]
    for x in elts:
        for y in elts:
            lhs = gs.mul(inst.kappa[ab.canon(x)], inst.kappa[ab.canon(y)])
            rhs = inst.kappa[ab.canon(ab.add(x, y))]
            if lhs != rhs:
                rep.fail("kernel identification must be a homomorphism",
                         (ab.canon(x), ab.canon(y)))
                break
        else:
            continue
        break

    # sections over decomposition groups
    for pl in inst.places:
        sec = inst.iota.get(pl.id)
        if sec is None:
            rep.fail("missing section", pl.id)
            continue
        if set(sec) != set(pl.subgroup.elems):
            rep.fail("section must be defined on the decomposition group",
                     pl.id)
            continue
        for a in pl.subgroup.elems:
            if inst.pi(sec[a]) != a:
                rep.fail("section must split the projection", (pl.id, a))
            for b in pl.subgroup.elems:
                if gs.mul(sec[a], sec[b]) != sec[grp.mul(a, b)]:
                    rep.fail("section must be multiplicative", (pl.id, a, b))

    # conjugation compatibility (one preimage per group element suffices,
    # since the kernel is abelian)
    pre = {}
    for x in range(gs.order):
        pre.setdefault(inst.pi(x), x)
    for g in range(grp.order):
        ghat = pre[g]
        for x in elts:
            lhs = gs.conj(ghat, inst.kappa[ab.canon(x)])
            rhs = inst.kappa[ab.canon(cl.act(g, x))]
            if lhs != rhs:
                rep.fail("conjugation must realize the module action",
                         (g, ab.canon(x)))

    # auxiliary places generate the class module
    span, _ = subgroup_span(ab, [q.frobenius for q in inst.aux_places])
    if span.order() != ab.order():
        rep.fail("auxiliary Frobenius classes must generate the class module",
                 [q.id for q in inst.aux_places])
    ids = [pl.id for pl in inst.places] + [q.id for q in inst.aux_places]
    if len(set(ids)) != len(ids):
        rep.fail("place identifiers must be unique", ids)
    return rep


def c_p(inst, place_id, tau):
    """The class measuring the failure of the two sections to agree at
    tau: kappa(c) = iota_p0(tau)^-1 iota_p(tau)."""
    pl = inst.place(place_id)
    if pl.is_p0:
        raise PlaceIsP0(place_id)
    if tau not in pl.subgroup:
        raise ValueError(f"{tau} is not in the decomposition group of "
                         f"{place_id}")
    gs = inst.gs
    x = gs.mul(gs.inv[inst.iota[inst.p0.id][tau]], inst.iota[place_id][tau])
    canon = inst.kappa_inv.get(x)
    if canon is None:
        raise ValueError("section discrepancy escaped the kernel")
    return inst.cl.underlying.from_canon(canon)


# -- the norm model ----------------------------------------------------------

class NormModel:
    """Nm: Cl -> Q and `ker`, the inclusion of ker(Nm) into Cl."""

    __slots__ = ("q", "nm", "ker")

    def __init__(self, q, nm):
        self.q = q
        self.nm = nm
        _, self.ker = nm.kernel()


def norm_model(inst):
    """Quotient Q of GS by commutators and all section images, with the
    induced map from the class module.  Q plays the role of the base
    S-class-group and the induced map the role of the ideal norm; the map
    is checked equivariant into Q with the trivial action."""
    gs = inst.gs
    gab, proj = abelianization(gs)
    killed = []
    for pl in inst.places:
        for a in pl.subgroup.elems:
            killed.append(proj[inst.iota[pl.id][a]])
    q, qproj = ab_quotient(gab, killed)

    def gs_to_q(x):
        return qproj.apply(proj[x])

    ab = inst.cl.underlying
    cols = []
    for gen in ab.gens():
        # generators may be torsion; map via kappa on canonical form
        cols.append(gs_to_q(inst.kappa[ab.canon(gen)]))
    nm = AbMap(ab, q, IntMatrix._trusted_columns(cols, q.n))
    GMap(inst.cl, trivial_module(inst.group, q), nm)  # checks equivariance
    return NormModel(q, nm)


# -- the place modules Y and X ------------------------------------------------

class XYData:
    __slots__ = ("y", "x", "x_incl", "y_index", "x_index", "x_basis")

    def __init__(self, y, x, x_incl, y_index, x_index, x_basis):
        self.y = y
        self.x = x
        self.x_incl = x_incl
        self.y_index = y_index      # (place_id, coset rep) -> Y coordinate
        self.x_index = x_index      # (place_id, coset rep) -> X coordinate
        self.x_basis = x_basis      # list of (place_id, coset rep)


def xy_modules(inst):
    """Y = sum of coset modules over the places of S; X = ker(Y -> Z),
    with the basis {tau p - p0 : p != p0, tau in D_p}."""
    grp = inst.group
    mods, labels = [], []
    for pl in inst.places:
        mod, reps, rho, pos = perm_module(grp, pl.subgroup)
        mods.append(mod)
        labels.append([(pl.id, r) for r in reps])
    y, _, _ = direct_sum(mods)
    y_index = {key: i for i, key in enumerate(itertools.chain(*labels))}
    others = [i for i, pl in enumerate(inst.places) if not pl.is_p0]
    x_basis = [key for i in others for key in labels[i]]
    x_index = {key: i for i, key in enumerate(x_basis)}
    x = direct_sum([mods[i] for i in others])[0] if others else \
        trivial_module(grp, FgAb(0))
    p0_coord = y_index[(inst.p0.id, grp.identity)]
    x_incl = GMap(x, y, IntMatrix._from_sparse_columns(
        [{y_index[key]: 1, p0_coord: -1} for key in x_basis], y.underlying.n))
    return XYData(y, x, x_incl, y_index, x_index, x_basis)


# -- synthetic instances -----------------------------------------------------

def _cocycle_space(group, sub, cl):
    """The group of 1-cocycles H -> Cl as a subgroup of the table group,
    returned as (table group, inclusion of the cocycle group)."""
    elems = list(sub.elems)
    pos = {e: i for i, e in enumerate(elems)}
    ab = cl.underlying
    n = ab.n
    tables = FgAb.direct_sum([ab] * len(elems))
    cols = [{} for _ in range(tables.n)]
    for blk, (a, b) in enumerate(itertools.product(elems, repeat=2)):
        # z(a) + a z(b) - z(ab) = 0 on the rows blk.n + r
        prod_off = pos[sub.group.mul(a, b)] * n
        for q, act in enumerate(cl.action[a]._columns):
            for c, part in ((pos[a] * n + q, {q: 1}), (prod_off + q, {q: -1}),
                            (pos[b] * n + q, act)):
                for r, x in part.items():
                    cols[c][blk * n + r] = cols[c].get(blk * n + r, 0) + x
    big = FgAb.direct_sum([ab] * (len(elems) * len(elems)))
    cond_map = AbMap(tables, big, IntMatrix._from_sparse_columns(
        [{i: c[i] for i in sorted(c) if c[i]} for c in cols], big.n),
        check=False)
    zgrp, incl = cond_map.kernel()
    return zgrp, incl, elems, pos


_CL_SHAPES = ("trivial", "perm", "mixed")
_MAX_CL = 16  # largest class module order synthesized


def synth_instance(group_name, seed):
    """Deterministic random instance for the named group and seed.

    Sections are the canonical splitting twisted by sampled 1-cocycles,
    the extension is twisted by a sampled coboundary; auxiliary places
    always generate the class module.
    """
    rng = random.Random(zlib.crc32(group_name.encode()) * 1_000_003 + seed)
    grp = named_group(group_name)
    if grp.order > 16:
        raise UnsatisfiableParams("group too large for instance synthesis")

    cl_shape = rng.choice(_CL_SHAPES)
    cl_modulus = rng.choice([2, 2, 3, 4, 5, 6, 8, 9])
    subs = grp.all_subgroups()
    cl = _sample_cl(grp, cl_shape, cl_modulus, rng, subs)
    ab = cl.underlying

    # extension: coboundary-twisted split extension
    b = {g: tuple(rng.choice(list(map(tuple, ab.elements()))))
         for g in range(grp.order)}
    b[grp.identity] = ab.zero()

    def cocycle(g, h):
        return ab.sub(ab.add(cl.act(g, b[h]), b[g]),
                      b[grp.mul(g, h)])

    gs, kappa, pi, member = extension_from_cocycle(cl, grp, cocycle)

    # places: the distinguished one plus a few with random subgroups
    places = [PlaceData("p0", Subgroup(grp, range(grp.order)), is_p0=True)]
    for k in range(rng.randint(1, 3)):
        sub = rng.choice(subs)
        places.append(PlaceData(f"p{k + 1}", sub))

    iota = {}
    for pl in places:
        zgrp, zincl, elems, pos = _cocycle_space(grp, pl.subgroup, cl)
        table = zincl.apply(zgrp.random_element(rng))
        n = ab.n
        sec = {}
        for a in pl.subgroup.elems:
            za = tuple(table[pos[a] * n:(pos[a] + 1) * n])
            val = ab.sub(za, b[a])
            sec[a] = member[(ab.canon(val), a)]
        iota[pl.id] = sec

    aux = []
    gens = ab.smith_gens()
    for k, gen in enumerate(gens):
        aux.append(AuxPlace(f"q{k}", gen))
    extra_aux = rng.randint(0, 2) if ab.order() > 1 else rng.randint(1, 2)
    for k in range(extra_aux):
        aux.append(AuxPlace(f"q{len(gens) + k}",
                            rng.choice(list(map(tuple, ab.elements())))))
    if not aux:
        aux.append(AuxPlace("q0", ab.zero()))

    inst = Instance(grp, places, aux, cl, gs, pi, kappa, iota)
    report = validate_instance(inst)
    if not report.clean:
        raise UnsatisfiableParams(f"synthesized instance invalid: "
                                  f"{report.violations}")
    return inst


def _sample_cl(grp, shape, modulus, rng, subgroups):
    """A class module of the given shape; `subgroups` is
    `grp.all_subgroups()`."""
    if shape == "trivial":
        return trivial_module(grp, FgAb(1, IntMatrix([[modulus]])))
    if shape == "perm":
        subs = [s for s in subgroups
                if modulus ** (grp.order // len(s)) <= _MAX_CL]
        if not subs:
            return trivial_module(grp, FgAb(1, IntMatrix([[modulus]])))
        sub = rng.choice(subs)
        mod, reps, rho, pos = perm_module(grp, sub)
        k = len(reps)
        ab = FgAb(k, IntMatrix([[modulus if i == j else 0 for j in range(k)]
                                for i in range(k)]))
        return GModule(grp, ab, mod.action)
    # mixed: trivial summand + a permutation summand; the permutation
    # modulus is a multiple of the first so the diagonal is a genuine
    # divisibility chain
    base = rng.choice([2, 3])
    m2 = base * rng.choice([1, 2])
    first = trivial_module(grp, FgAb(1, IntMatrix([[base]])))
    subs = [s for s in subgroups
            if len(s) > 1 and m2 ** (grp.order // len(s)) * base <= _MAX_CL]
    if not subs:
        return first
    sub = rng.choice(subs)
    mod, reps, rho, pos = perm_module(grp, sub)
    k = len(reps)
    ab = FgAb(k, IntMatrix([[m2 if i == j else 0 for j in range(k)]
                            for i in range(k)]))
    second = GModule(grp, ab, mod.action)
    total, _, _ = direct_sum([first, second])
    return total


# -- worked instances ---------------------------------------------------------

def _c2_binary_instance(twisted, extra_split_place=False, aux_ids=("q0",)):
    grp = named_group("C2")
    ab = FgAb(1, IntMatrix([[2]]))
    cl = trivial_module(grp, ab)
    gs, kappa, pi, member = extension_from_cocycle(
        cl, grp, lambda g, h: (0,))
    full = Subgroup(grp, [0, 1])
    places = [PlaceData("p0", full, is_p0=True), PlaceData("p1", full)]
    iota = {
        "p0": {0: member[((0,), 0)], 1: member[((0,), 1)]},
        "p1": {0: member[((0,), 0)],
               1: member[((1 if twisted else 0,), 1)]},
    }
    if extra_split_place:
        places.append(PlaceData("inf", Subgroup(grp, [0])))
        iota["inf"] = {0: member[((0,), 0)]}
    aux = [AuxPlace(a, (1,)) for a in aux_ids]
    return Instance(grp, places, aux, cl, gs, pi, kappa, iota)


def i2_twist():
    """Two full places over C2, class module Z/2, twisted second section;
    the worked instance with a nonzero connecting map."""
    return _c2_binary_instance(twisted=True)


def i2_plain():
    """Same shape as i2_twist but with equal sections; every section
    discrepancy class vanishes."""
    return _c2_binary_instance(twisted=False)


def quadratic_sqrt34():
    """The real-quadratic situation of Q(sqrt(34)): places 2, 17 (full
    decomposition, 2 distinguished) and the split infinite place, class
    module Z/2, sections differing by the nontrivial class at 17, two
    auxiliary split places above 3 and 5."""
    inst = _c2_binary_instance(twisted=True, extra_split_place=True,
                               aux_ids=("q3", "q5"))
    return inst

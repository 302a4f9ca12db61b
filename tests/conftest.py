import functools
import hashlib
from importlib.resources import files

import pytest

from tatelab.abelian import AbMap, FgAb, Homology
from tatelab.cft import synth_instance
from tatelab.cohomology import TateComplex
from tatelab.gmodules import NotEquivariant
from tatelab.groups import (GROUP_CATALOG, GroupHom, NotACocycle, cyclic,
                            direct_product, group_from_table)
from tatelab.instance_io import instance_digest, load_instance
from tatelab.lattice import IntMatrix
from tatelab.tate_sequence import r_element


def direct_low_degrees(module):
    """(H^0, H^-1) of `module` as Homology objects read off the direct
    formulas, with no resolution: H^0 = M^G / N M at the middle of
    M -N-> M -> M^|G|, m -> (gm - m)_g, and H^-1 = ker N / <(g-1)m> at
    the middle of M^|G| -> M -N-> M, (m_g) -> sum_g (g - 1) m_g."""
    nu, cob = module.norm_map(), module.coboundary_map()
    n = module.underlying.n
    moved = IntMatrix([[a - (r == q) for m in module.action
                        for q, a in enumerate(m.entries[r])]
                       for r in range(n)], cols=cob.cod.n)
    return (Homology(nu, cob),
            Homology(AbMap(cob.cod, module.underlying, moved, check=False),
                     nu))


@pytest.fixture
def direct_formula():
    """The direct-formula oracle for H^0 and H^-1 (see direct_low_degrees)."""
    return direct_low_degrees


class BarComplex(TateComplex):
    """The un-normalized bar complex over the same window: every k-tuple
    over G is a cell, |G|^k of them, degenerate or not, and no face is
    dropped.  At a truncated edge the tuples ending in a generator are
    kept, or the one tuple (1, ..., 1) for the trivial group, where there
    is no generator.  Its cochains of degree 1 have a block at the
    identity too (see `bar_cochain`).  The normalized `TateComplex` is
    its quotient by the acyclic degenerate subcomplex, so the two must
    have the same cohomology: this is the reference for that."""

    def __init__(self, group, window=(-4, 3)):
        super().__init__(group, window)
        self._cells = list(range(group.order))
        self._cell_index = {g: g for g in self._cells}

    def _edge_tuples(self, i):
        kept = super()._edge_tuples(i)
        if kept == []:
            return [(self.group.identity,) * self.tuple_length(i)]
        return kept


def bar_cochain(cocycle):
    """The degree-1 cochain of a Cocycle1 over `BarComplex`: its value at
    every group element, the identity included."""
    return tuple(x for v in cocycle.values for x in v)


@pytest.fixture
def bar_complex():
    """The un-normalized reference complex (see BarComplex) and the
    degree-1 cochain of a cocycle over it (see bar_cochain)."""
    return BarComplex, bar_cochain


def precompose_loop(hom, dom_hom, phi):
    """The matrix of Hom(C', A) -> Hom(C, A), f -> f.phi, one generator at
    a time: to_matrix, compose with phi, from_matrix.  The reference that
    `HomModule.precompose` must equal."""
    cols = []
    for j in range(dom_hom.module.underlying.n):
        fmat = dom_hom.to_matrix(dom_hom.module.underlying.gen(j))
        cols.append(hom.from_matrix(fmat.mul(phi)))
    return IntMatrix._trusted_columns(cols, hom.module.underlying.n)


@pytest.fixture
def precompose_by_loop():
    """The per-generator reference for HomModule.precompose (see
    precompose_loop)."""
    return precompose_loop


def kernel_lift_loop(f):
    """(inclusion, action matrices) of the kernel of the GMap f, one lift
    per group element: rho(g).incl solved through the inclusion for every
    g.  The reference that the actions of `GMap.kernel` must agree with
    modulo the kernel's relations."""
    _, incl = f.ab.kernel()
    return incl, [incl.lift(f.dom.action[g].mul(incl.mat),
                            lambda i, g=g: NotEquivariant(i, g))
                  for g in range(f.dom.group.order)]


@pytest.fixture
def kernel_by_lift():
    """The all-elements reference for GMap.kernel (see kernel_lift_loop)."""
    return kernel_lift_loop


def abelianization_by_elements(group):
    """(A, proj) with A = G^ab on one generator per group element and
    proj[g] = e_g: relations e_g + e_s - e_gs over every g and every s in
    the generating set and the identity.  The reference that the
    generator presentation of `groups.abelianization` must match."""
    n = group.order
    cols = []
    for g in range(n):
        for s in group.generating_set() + (group.identity,):
            col = [0] * n
            col[g] += 1
            col[s] += 1
            col[group.mul(g, s)] -= 1
            cols.append(tuple(col))
    a = FgAb(n, IntMatrix._trusted_columns(cols, n))
    return a, [a.gen(g) for g in range(n)]


def extension_cocycle_by_elements(hom, ext, section=None):
    """The values of the cocycle g -> g.s - s of `extension_to_cocycle`,
    one lift through A -> B for every group element g.  The reference
    that the values built from the generators must equal."""
    sec = section if section is not None else ext.section_matrix()
    grp = ext.b.group
    vals = []
    for g in range(grp.order):
        twisted = ext.b.action[g].mul(sec).mul(ext.c.action[grp.inv[g]])
        diff = IntMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(twisted.entries, sec.entries)],
                         cols=sec.cols)
        fmat = ext.a_to_b.ab.lift(
            diff, lambda j: ValueError("section difference escapes A"))
        vals.append(hom.from_matrix(fmat))
    return vals


def snake_cocycle_by_elements(inst, wrb, snake, hom):
    """The values of the snake cocycle of `build_nabla`, one solve of
    r_{sigma,tau} for every group element sigma.  The reference that the
    values walked out from the generators must equal."""
    vals = []
    for sigma in range(inst.group.order):
        cols = [snake.s.apply(r_element(inst, wrb, pid, sigma, tau))
                for (pid, tau) in wrb.xy.x_basis]
        vals.append(hom.from_matrix(
            IntMatrix._trusted_columns(cols, inst.cl.underlying.n)))
    return vals


def extension_by_fgab(cl_mod, group, cocycle):
    """(GS, kappa, pi, member) of `groups.extension_from_cocycle`, built
    by FgAb arithmetic: every cocycle identity and every table entry
    adds coordinate vectors with `FgAb.add`, applies the action matrix
    and looks the sum up by `canon`, calling the cocycle at each use.
    The reference that the integer-coded tables must equal."""
    cl = cl_mod.underlying
    if not cl.is_finite():
        raise ValueError("extension kernel must be finite")
    n = group.order
    e = group.identity

    def cval(g, h):
        v = cocycle(g, h) if callable(cocycle) else cocycle[(g, h)]
        return tuple(v)

    for g in range(n):
        if not cl.is_zero(cval(g, e)) or not cl.is_zero(cval(e, g)):
            raise NotACocycle((g, "identity-normalization"))
    gens = group.generating_set()
    for g in range(n):
        for h in gens:
            for k in range(n):
                lhs = cl.add(cl_mod.act(g, cval(h, k)), cval(g, group.mul(h, k)))
                rhs = cl.add(cval(group.mul(g, h), k), cval(g, h))
                if not cl.eq(lhs, rhs):
                    raise NotACocycle((g, h, k))

    members = [(c, g) for g in range(n) for c in
               (tuple(x) for x in cl.elements())]
    canon_members = [(cl.canon(c), g) for (c, g) in members]
    idx = {m: i for i, m in enumerate(canon_members)}

    def key(c, g):
        return (cl.canon(c), g)

    table = []
    for (c1, g1) in members:
        row = []
        for (c2, g2) in members:
            c = cl.add(cl.add(c1, cl_mod.act(g1, c2)), cval(g1, g2))
            row.append(idx[key(c, group.mul(g1, g2))])
        table.append(row)
    labels = [f"({'+'.join(map(str, cl.canon(c))) or '0'};{group.labels[g]})"
              for (c, g) in members]
    gs = group_from_table(table, labels)
    kappa = {cl.canon(c): idx[key(c, e)] for c in cl.elements()}
    pi = GroupHom(gs, group, [g for (_, g) in members])
    return gs, kappa, pi, idx


CAMPAIGN_GROUPS = ("C2", "C3", "C4", "V4", "S3", "D4", "Q8")
SHIPPED = ("i2_twist", "i2_plain", "sqrt34")
# the benchmark's stress instances: direct products outside the catalog,
# synthesized under these names (the name seeds the synthesis)
STRESS = (("C2xC4", (2, 4), 0), ("C2xC4", (2, 4), 1), ("C2xC6", (2, 6), 0))


def synth_product(name, factors, seed):
    """synth_instance for the direct product of the cyclic groups of
    orders `factors`, registered in the catalog as `name` for the call."""
    a, b = factors
    GROUP_CATALOG[name] = lambda: direct_product(cyclic(a), cyclic(b))
    try:
        return synth_instance(name, seed)
    finally:
        del GROUP_CATALOG[name]


@functools.lru_cache(maxsize=None)
def corpus_instances():
    """(name, instance) pairs: the campaign of `selftest --seeds 2` (the
    seven catalog groups at seeds 0-1 and the three shipped instances)
    and the three stress instances C2xC4/0, C2xC4/1 and C2xC6/0."""
    out = [(f"{g}/{s}", synth_instance(g, s))
           for s in range(2) for g in CAMPAIGN_GROUPS]
    out += [(name, load_instance(str(files("tatelab") / "data" /
                                     f"{name}.json")))
            for name in SHIPPED]
    out += [(f"{name}/{seed}", synth_product(name, factors, seed))
            for name, factors, seed in STRESS]
    return tuple(out)


def synthesized_digest():
    """sha256 over the lines "name/seed instance_digest" of the seven
    catalog groups at seeds 0-14 and the three stress instances, in that
    order: one value that moves if any synthesized instance does."""
    lines = [f"{g}/{s} {instance_digest(synth_instance(g, s))}"
             for g in CAMPAIGN_GROUPS for s in range(15)]
    lines += [f"{name}/{seed} "
              f"{instance_digest(synth_product(name, factors, seed))}"
              for name, factors, seed in STRESS]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture
def synthesis_digest():
    """The digest of every synthesized instance (see
    synthesized_digest)."""
    return synthesized_digest


@pytest.fixture
def extension_reference():
    """The FgAb-arithmetic reference for extension_from_cocycle (see
    extension_by_fgab)."""
    return extension_by_fgab


@pytest.fixture
def corpus():
    """The campaign and stress instances (see corpus_instances)."""
    return corpus_instances()


@pytest.fixture
def abelianization_reference():
    """The per-element reference for groups.abelianization (see
    abelianization_by_elements)."""
    return abelianization_by_elements


@pytest.fixture
def extension_cocycle_reference():
    """The all-elements reference for extension_to_cocycle (see
    extension_cocycle_by_elements)."""
    return extension_cocycle_by_elements


@pytest.fixture
def snake_cocycle_reference():
    """The all-elements reference for the snake cocycle of build_nabla
    (see snake_cocycle_by_elements)."""
    return snake_cocycle_by_elements

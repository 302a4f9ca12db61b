import functools
import hashlib
from bisect import bisect_left
from importlib.resources import files
from types import SimpleNamespace

import pytest

from tatelab import abelian, tate_sequence
from tatelab.abelian import AbMap, FgAb, Homology
from tatelab.analysis import run_analysis
from tatelab.cft import synth_instance
from tatelab.cohomology import CohClass, TateCohomology, TateComplex
from tatelab.gmodules import (GMap, GModule, NotEquivariant, direct_sum,
                              regular_module, trivial_module)
from tatelab.groups import (GROUP_CATALOG, GroupHom, NotACocycle, cyclic,
                            direct_product, group_from_table)
from tatelab.instance_io import instance_digest, load_instance
from tatelab.lattice import (IntMatrix, Lattice, _axpy, _kernel_columns,
                             _snf_data)
from tatelab.tate_sequence import r_element


def direct_low_degrees(module):
    """(H^0, H^-1) of `module` as Homology objects read off the direct
    formulas, with no resolution, over the generating set S: H^0 =
    M^G / N M at the middle of M -N-> M -> M^|S|, m -> (sm - m)_s, and
    H^-1 = ker N / <(s-1)m> at the middle of M^|S| -> M -N-> M,
    (m_s) -> sum_s (s - 1) m_s.  <(s-1)m> is all of <(g-1)m>, since
    (gh - 1)m = (g - 1)hm + (h - 1)m, by induction on word length."""
    nu, cob = module.norm_map(), module.coboundary_map()
    n = module.underlying.n
    gens = module.group.generating_set()
    moved = IntMatrix([[a - (r == q) for s in gens
                        for q, a in enumerate(module.action[s].entries[r])]
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


def hermite_local_aug_ideal(group, sub, regular):
    """(module, inclusion, witnesses) of the left ideal Z[G](h - 1), h in
    `sub`, found by generic integer algebra: every g(h - 1) inserted into
    a Hermite lattice with witnesses, whose basis rows are the inclusion's
    columns and whose coordinates give the action.  The reference that
    the closed-form basis of `gmodules.local_aug_ideal` must span the same
    lattice as."""
    spanning = [(g, h) for g in range(group.order) for h in sub.elems
                if h != group.identity]
    lat = Lattice(group.order, witnesses=True)
    for (g, h) in spanning:
        v = [0] * group.order
        v[group.mul(g, h)] += 1
        v[g] -= 1
        lat.add(v)
    basis = lat.basis()
    k = len(basis)
    acts = [IntMatrix._trusted_columns([lat.coords(regular.act(g, b))
                                        for b in basis], k)
            for g in range(group.order)]
    mod = GModule(group, FgAb(k), acts, check=False)
    incl = GMap(mod, regular, IntMatrix._trusted_columns(basis, group.order))
    return mod, incl, [dict(lat.witnesses[i]) for i in range(k)]


def augmentation_kernel(group):
    """(I_G, inclusion) as the kernel of Z[G] -> Z, sum a_g g -> sum a_g,
    by `GMap.kernel`.  The reference for `gmodules.aug_ideal`."""
    aug = GMap(regular_module(group), trivial_module(group),
               IntMatrix([[1] * group.order]), check=False)
    return aug.kernel()


def sum_map_kernel(inst):
    """(B, inclusion into big) for the kernel of the sum map big =
    Z[G]^S' -> Z[G] of `build_wrb` (place blocks summed, auxiliary blocks
    sent to 0), by `GMap.kernel`, with the block list it is read on.  The
    reference for the closed-form basis of B."""
    reg = regular_module(inst.group)
    blocks = [("place", pl.id) for pl in inst.places] + \
        [("aux", q.id) for q in inst.aux_places]
    big, _, _ = direct_sum([reg] * len(blocks))
    on_places = IntMatrix([[int(kind == "place") for kind, _ in blocks]])
    sum_map = GMap(big, reg, on_places.kron(
        IntMatrix.identity(inst.group.order)))
    b, b_incl = sum_map.kernel()
    return b, b_incl, blocks


@pytest.fixture
def ideal_references():
    """The generic-algebra references for the closed-form bases of the
    support sequence (see hermite_local_aug_ideal, augmentation_kernel
    and sum_map_kernel)."""
    return SimpleNamespace(local=hermite_local_aug_ideal,
                           aug=augmentation_kernel, b=sum_map_kernel)


def hermite_image_lattice(f):
    """The image lattice of the AbMap f on the Hermite witness path:
    generator images inserted first, then the codomain relations, into
    a Lattice with witnesses.  The reference for the private-coordinate
    path of `AbMap.image_lattice`."""
    lat = Lattice(f.cod.n, witnesses=True)
    for col in f.mat.sparse_columns() + f.cod.rel.sparse_columns():
        lat._add(col)
    return lat


@pytest.fixture(scope="session")
def hermite_image():
    """The Hermite witness image lattice (see hermite_image_lattice)."""
    return hermite_image_lattice


def hermite_relation_lattice(grp):
    """The Hermite lattice of the relation columns of the FgAb grp: a
    membership test that does not read the Smith data.  The reference
    for `FgAb._is_relation` and `FgAb.first_difference`."""
    lat = Lattice(grp.n)
    for col in grp.rel.sparse_columns():
        lat._add(col)
    return lat


@pytest.fixture(scope="session")
def hermite_relations():
    """The Hermite relation lattice (see hermite_relation_lattice)."""
    return hermite_relation_lattice


def spanning_set_failure(inst, wrb, sh):
    """The first place at which the prime-by-prime map into Script H is
    ill-defined, or None.  The map is prescribed on the spanning vectors
    g(h - 1) of the place's local ideal, h in H - {1}, as s(g)(iota_p(h)
    - 1) with s the section over p0; it is well defined iff every integer
    relation among the spanning vectors in Z[G] (a kernel column of
    their matrix) sends the prescribed values into Q, tested on the
    Hermite relation lattice.  The reference for the equivariance
    argument of `tate_sequence.build_snake`."""
    grp = inst.group
    lat = hermite_relation_lattice(sh.module.underlying)
    p0_sec = inst.iota[inst.p0.id]
    for kind, pid, _, _ in wrb.w_blocks:
        if kind != "place":
            continue
        sec = inst.iota[pid]
        spanning = [(g, h) for g in range(grp.order)
                    for h in inst.place(pid).subgroup.elems
                    if h != grp.identity]
        images = [sh.left_mul(p0_sec[g], sec[h]) for g, h in spanning]
        rows = [{} for _ in range(grp.order)]
        for si, (g, h) in enumerate(spanning):
            rows[grp.mul(g, h)][si] = 1
            rows[g][si] = -1
        for k in _kernel_columns(rows, len(images)):
            acc = {}
            for si, c in k.items():
                _axpy(acc, -c, images[si])
            if not lat.contains(acc):
                return pid
    return None


@pytest.fixture
def snake_spanning_reference():
    """The spanning-set well-definedness test of the prime-by-prime map
    (see spanning_set_failure)."""
    return spanning_set_failure


def x_by_cosets(inst):
    """(actions, inclusion matrix, basis) of the module X of
    `cft.xy_modules`, written coset by coset: the basis is the pairs (p,
    tau) over the places p other than p0 and the coset representatives
    tau of D_p, g sends (p, tau) to (p, rho_p(g tau)), and (p, tau) is
    included in Y as tau p - p0.  The reference for X as the direct sum
    of the permutation modules."""
    grp = inst.group
    y_basis = [(pl.id, tau) for pl in inst.places
               for tau in inst.cosets[pl.id][0]]
    y_index = {key: i for i, key in enumerate(y_basis)}
    basis = [(pid, tau) for pid, tau in y_basis
             if not inst.place(pid).is_p0]
    index = {key: i for i, key in enumerate(basis)}
    acts = [IntMatrix._from_sparse_columns(
        [{index[pid, inst.cosets[pid][1][grp.mul(g, tau)]]: 1}
         for pid, tau in basis], len(basis)) for g in range(grp.order)]
    p0 = y_index[inst.p0.id, grp.identity]
    incl = IntMatrix._from_sparse_columns(
        [{y_index[key]: 1, p0: -1} for key in basis], len(y_basis))
    return acts, incl, basis


@pytest.fixture
def x_reference():
    """X coset by coset (see x_by_cosets)."""
    return x_by_cosets


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
        cols = [snake.apply(r_element(inst, wrb, pid, sigma, tau))
                for (pid, tau) in wrb.xy.x_basis]
        vals.append(hom.from_matrix(
            IntMatrix._trusted_columns(cols, inst.cl.underlying.n)))
    return vals


def coboundary_over_all_elements(complex_, module):
    """The coboundary test of 1-cocycles valued in `module` that reads
    every group element: a cocycle is a coboundary iff its degree-1
    cochain (`Cocycle1.as_cochain`) lies in the image of the complex's
    d^0, m -> (g.m - m) over every g other than 1.  Returns the test as
    a predicate on cocycles.  The reference that `Cocycle1.is_coboundary`,
    which solves at the generators only, must agree with."""
    d0 = TateCohomology(complex_, module).differential(0)
    lat = d0.image_lattice()
    return lambda f: lat.contains(f.as_cochain())


@pytest.fixture
def coboundary_reference():
    """The all-elements coboundary test (see coboundary_over_all_elements)."""
    return coboundary_over_all_elements


def functorial_over_all_elements(snake, calc_x, calc_r, calc_cl, delta_rbx,
                                 delta_nabla):
    """`connecting_functorial` as it read every element of H^-2(X): push
    after delta_rbx against delta_nabla on each element in the order of
    `FgAb.elements`, the witness being the canonical coordinates of the
    first that fails.  The push is `tate_sequence.induced_map`, looked up
    at the call, so a test that patches it there patches both.  The
    reference that the check at the unit canonical coordinates must
    agree with."""
    push = tate_sequence.induced_map(calc_r, calc_cl, snake, -1)
    h = calc_x.homology(-2)
    for e in h.group.elements():
        z = CohClass(calc_x, -2, h.rep_of(e))
        if push(delta_rbx(z)) != delta_nabla(z):
            return False, e
    return True, None


@pytest.fixture
def functorial_reference():
    """The all-elements conn.functorial (see
    functorial_over_all_elements)."""
    return functorial_over_all_elements


def eager_hom_actions(cmod, amod):
    """The action matrices of Hom(C, A), all built at once as the
    products S(g)^T (x) rho_A(g) with S(g) = TB.rho_C(g^-1).FB.  The
    reference that the matrices `HomModule` builds on first read must
    equal."""
    group = cmod.group
    tb, fb = cmod.underlying.free_basis_maps()
    return [tb.mul(cmod.action[group.inv[g]]).mul(fb).transpose()
            .kron(amod.action[g]) for g in range(group.order)]


@pytest.fixture
def hom_actions_reference():
    """The eager Hom actions (see eager_hom_actions)."""
    return eager_hom_actions


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


def _dense_smallest_pivot(d, t, rows, cols):
    """Position of the nonzero entry of least absolute value in d[t:, t:],
    scanned row by row; the first +-1 ends the scan."""
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


def dense_snf_data(m, track_v=False):
    """(U, D, V, Uinv) of `lattice._snf_data`, eliminated on dense row
    lists: the same pivots, operations, divisibility sweep and sign fix,
    applied to every entry of every row and column.  The reference that
    the sparse elimination must equal matrix for matrix."""
    rows, cols = m.rows, m.cols
    d = [list(r) for r in m.entries]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    uinv = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = ([[int(i == j) for j in range(cols)] for i in range(cols)]
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
            da[j] -= q * db[j]
        ua, ub = u[a], u[b]
        for j in range(rows):
            ua[j] -= q * ub[j]
        for r in uinv:
            r[b] += q * r[a]

    def row_neg(a):
        d[a] = [-x for x in d[a]]
        u[a] = [-x for x in u[a]]
        for r in uinv:
            r[a] = -r[a]

    def col_swap(a, b):
        for r in d + v:
            r[a], r[b] = r[b], r[a]

    def col_sub(a, q, b):
        # col a -= q * col b
        for r in d + v:
            r[a] -= q * r[b]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _dense_smallest_pivot(d, t, rows, cols)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                row_swap(i, t)
            if j != t:
                col_swap(j, t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, rows):
                x = d[i][t]
                if x:
                    row_sub(i, x // p, t)
                    dirty = dirty or bool(d[i][t])
            for j in range(t + 1, cols):
                x = d[t][j]
                if x:
                    col_sub(j, x // p, t)
                    dirty = dirty or bool(d[t][j])
            if dirty:
                pos = _dense_smallest_pivot(d, t, rows, cols)
                continue
            if p in (1, -1):
                break
            offender = next((i for i in range(t + 1, rows)
                             if any(x % p for x in d[i][t + 1:])), None)
            if offender is None:
                break
            row_sub(t, -1, offender)
            pos = (t, t)
        t += 1
    for i in range(limit):
        if d[i][i] < 0:
            row_neg(i)
    return (IntMatrix(u, cols=rows), IntMatrix(d, cols=cols),
            IntMatrix(v, cols=cols) if track_v else None,
            IntMatrix(uinv, cols=rows))


def kernel_columns_loop(row_iter, ncols):
    """`lattice._kernel_columns` as it was written before its row loop was
    inlined: the same pivot order (|value|, nonzeros, id), through
    set_entry/col_sub closures, with each row's values at the basis
    columns summed over every coordinate of the row.  The reference that
    the kernel columns must equal."""
    basis = {j: {j: 1} for j in range(ncols)}
    touch = {j: {j} for j in range(ncols)}

    def set_entry(col_id, coord, val):
        col = basis[col_id]
        if val:
            col[coord] = val
            touch.setdefault(coord, set()).add(col_id)
        elif coord in col:
            del col[coord]
            touch[coord].discard(col_id)

    def col_sub(a, q, b):
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
            s = sum(rv * col.get(coord, 0) for coord, rv in row.items())
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


def lattice_residue(lat, vec):
    """Residue of vec after subtracting the basis rows of the Lattice lat
    pivot-wise: the oracle for `Lattice._walk` and `Lattice.contains`,
    zero iff vec lies in the lattice."""
    v = {i: int(x) for i, x in enumerate(vec) if x}
    out = {}
    while v:
        piv = min(v)
        idx = bisect_left(lat.pivots, piv)
        if idx < len(lat.pivots) and lat.pivots[idx] == piv:
            row = lat.rows[idx]
            q = v[piv] // row[piv]
            if q:
                _axpy(v, q, row)
            if piv in v:
                out[piv] = v.pop(piv)
        else:
            out[piv] = v.pop(piv)
    return tuple(out.get(i, 0) for i in range(lat.dim))


@pytest.fixture(scope="session")
def residue():
    """The pivot-wise residue of a vector modulo a Lattice (see
    lattice_residue)."""
    return lattice_residue


@pytest.fixture(scope="session")
def dense_snf():
    """The dense-row reference for lattice._snf_data (see
    dense_snf_data)."""
    return dense_snf_data


@pytest.fixture(scope="session")
def kernel_by_loop():
    """The closure-loop reference for lattice._kernel_columns (see
    kernel_columns_loop)."""
    return kernel_columns_loop


REPLAYED = ("C3/1", "S3/0", "D4/0", "i2_twist")


@pytest.fixture(scope="session")
def replayed_inputs():
    """(Smith inputs, kernel inputs) that `run_analysis` hands to
    `_snf_data` and `_kernel_columns` on the corpus instances REPLAYED:
    the matrices, and (rows, ncols) with the rows as fresh dicts, in call
    order."""
    snf_in, ker_in = [], []

    def snf(m, track_v=False):
        snf_in.append(m)
        return _snf_data(m, track_v)

    def ker(row_iter, ncols):
        rows = [dict(r) for r in row_iter]
        ker_in.append(([dict(r) for r in rows], ncols))
        return _kernel_columns(rows, ncols)

    saved = (abelian._snf_data, abelian._kernel_columns)
    abelian._snf_data = snf
    abelian._kernel_columns = ker
    try:
        for name, inst in corpus_instances():
            if name in REPLAYED:
                run_analysis(inst, seed=int(name.partition("/")[2] or 0))
    finally:
        abelian._snf_data, abelian._kernel_columns = saved
    return snf_in, ker_in

from importlib.resources import files
from types import SimpleNamespace

import pytest

from tatelab.abelian import AbMap, FgAb, Homology, subgroup_span
from tatelab.cft import (AuxPlace, Instance, NormModel, PlaceData,
                         PlaceIsP0, c_p, i2_plain, i2_twist, norm_model,
                         quadratic_sqrt34, synth_instance, xy_modules)
from tatelab import gmodules, tate_sequence
from tatelab.analysis import (ARTIFACTS, CHECK_READS, AnalysisContext,
                              closure, run_analysis)
from tatelab.cohomology import (CohClass, Cocycle1, ExtensionData,
                                TateCohomology, TateComplex, connecting_hom,
                                extension_to_cocycle)
from tatelab.gmodules import (GModule, HomModule, local_aug_ideal,
                              regular_module, trivial_module)
from tatelab.groups import Subgroup, extension_from_cocycle, named_group
from tatelab.instance_io import load_instance
from tatelab.lattice import (IntMatrix, Lattice, PrivateBasis, _axpy,
                             _kernel_columns)
from tatelab.tate_sequence import (EmbeddingHasKernel, NotNormKilled,
                                   aux_unit_in_r,
                                   build_delta1, build_nabla,
                                   build_script_h, build_snake, build_wrb,
                                   cdc_checks, connecting_functorial,
                                   delta1, delta1_generic_agrees,
                                   delta_minus2_agrees, generator_chain,
                                   h_minus1_x_vanishes,
                                   homology_generators_iso,
                                   nabla_class_checks, norm_suite,
                                   r_element, script_h_action_lift_independent,
                                   snake_closed_form,
                                   snake_closed_form_agrees,
                                   snake_of_aux_units, subgroups_cdc,
                                   wrb_exact)

CATALOG = ["C2", "C3", "C4", "V4", "S3", "D4", "Q8"]


def _invariants(a):
    """(free rank, invariant factors): equal iff the groups are
    isomorphic."""
    return (a.free_rank(), a.invariant_factors())


def trivial_group_instance(cl_order):
    """The trivial group with one place, class module Z/cl_order and one
    auxiliary place; GS is then cyclic of order cl_order."""
    g1 = named_group("1")
    cl = trivial_module(g1, FgAb(1, IntMatrix([[cl_order]])))
    gs, kappa, pi, member = extension_from_cocycle(cl, g1, lambda a, b: (0,))
    return Instance(g1, [PlaceData("p0", Subgroup(g1, [0]), is_p0=True)],
                    [AuxPlace("q0", (1,))], cl, gs, pi, kappa,
                    {"p0": {0: gs.identity}})


def lone_place_instance():
    """C2 with the one place p0, decomposition group C2, a trivial class
    module and no auxiliary place: B = 0 and R = 0."""
    c2 = named_group("C2")
    cl = trivial_module(c2, FgAb(1, IntMatrix([[1]])))
    gs, kappa, pi, _ = extension_from_cocycle(cl, c2, lambda a, b: (0,))
    return Instance(c2, [PlaceData("p0", Subgroup(c2, [0, 1]), is_p0=True)],
                    [], cl, gs, pi, kappa, {"p0": {0: gs.identity, 1: 1}})


def cdc_of(cx, inst):
    """The calculator of Cl over `cx` and the subgroups read through it."""
    calc_cl = TateCohomology(cx, inst.cl)
    return calc_cl, subgroups_cdc(inst, calc_cl)


def lab(inst, window=(-2, 1)):
    cx = TateComplex(inst.group, window)
    xy = xy_modules(inst)
    wrb = build_wrb(inst, xy)
    sh = build_script_h(inst)
    snake = build_snake(inst, wrb, sh)
    return cx, xy, wrb, sh, snake


def test_wrb_ranks_and_exactness():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    ok, info = wrb_exact(wrb, ExtensionData(wrb.r_to_b, wrb.b_to_x))
    assert ok
    assert info == {"rank_w": 4, "rank_r": 3, "rank_b": 4, "rank_x": 1}
    # trivial group with one auxiliary place: R = B = the ring copy, X = 0
    inst = trivial_group_instance(2)
    xy1 = xy_modules(inst)
    wrb1 = build_wrb(inst, xy1)
    assert xy1.x.underlying.n == 0
    assert wrb1.r.underlying.free_rank() == 1
    assert wrb1.b.underlying.free_rank() == 1


def test_lone_place_has_zero_r_and_b():
    """With p0 the only place and no auxiliary place, B has no basis
    block: B = R = X = 0, W = I_G, and every check passes."""
    inst = lone_place_instance()
    wrb = build_wrb(inst, xy_modules(inst))
    assert [m.underlying.n for m in (wrb.w, wrb.r, wrb.b, wrb.x)] == \
        [1, 0, 0, 0]
    assert all(r["ok"] for r in run_analysis(inst))


def test_script_h():
    it = i2_twist()
    sh = build_script_h(it)
    # (|N| - 1) + (|G| - 1) generators, and I_GS / K.I_GS is Z^{|G|-1} + Cl
    n_ker = len(it.pi.kernel_elements())
    assert sh.module.underlying.n == (n_ker - 1) + (it.group.order - 1) == 2
    assert _invariants(sh.module.underlying) == \
        (it.group.order - 1, it.cl.underlying.invariant_factors())
    assert sh.e.ab.is_injective()
    ok, wit = script_h_action_lift_independent(it, sh)
    assert ok, wit
    assert sh.e.ab.apply(it.cl.underlying.zero()) == \
        sh.module.underlying.zero()
    # trivial group: the quotient is the class module itself
    inst = trivial_group_instance(4)
    sh1 = build_script_h(inst)
    assert _invariants(sh1.module.underlying) == \
        _invariants(inst.cl.underlying)
    assert sh1.e.ab.is_injective() and sh1.e.ab.is_surjective()


def shift_action(inst, sh):
    """Shift the action column of the first basis element under the first
    g != 1 by a generator that is not a relation, so every lift of g
    disagrees there; returns g."""
    mod = sh.module
    ab = mod.underlying
    g = next(h for h in range(inst.group.order) if h != inst.group.identity)
    k = next(k for k in range(ab.n) if not ab.is_zero(ab.gen(k)))
    rows = [list(r) for r in mod.action[g].entries]
    rows[k][0] += 1
    action = list(mod.action)
    action[g] = IntMatrix(rows, cols=ab.n)
    sh.module = GModule(mod.group, ab, action, check=False)
    return g


def test_script_h_lift_dependence_is_caught():
    it = i2_twist()
    sh = build_script_h(it)
    g = shift_action(it, sh)
    ok, wit = script_h_action_lift_independent(it, sh)
    assert not ok
    cl_ab = it.cl.underlying
    assert wit == (g, cl_ab.canon(next(cl_ab.elements())), sh.elements[0])


def reference_lift_check(inst, sh, relations):
    """The lift check as one relation-lattice membership test per triple
    (g, c, x), over every x in GS - {1} in the order of `sh.elements`:
    A_g.phi(x - 1) - phi(alt(x - 1)), alt = kappa(c)s(g) with s the
    section over p0, must lie in Q.  Returns (ok, the first failing
    triple).  `relations` builds the Hermite relation lattice of Q."""
    gs = inst.gs
    cl_ab = inst.cl.underlying
    ab = sh.module.underlying
    lat = relations(ab)
    p0_sec = inst.iota[inst.p0.id]
    for g in range(inst.group.order):
        for c in cl_ab.elements():
            cc = cl_ab.canon(c)
            alt = gs.mul(inst.kappa[cc], p0_sec[g])
            for x in sh.elements:
                vec = [sh.phi[x].get(j, 0) for j in range(ab.n)]
                diff = dict(enumerate(sh.module.act(g, vec)))
                _axpy(diff, 1, sh.left_mul(alt, x))
                if not lat.contains(diff):
                    return False, (g, cc, x)
    return True, None


def lift_case(name):
    if name in SHIPPED:
        return load_instance(str(files("tatelab") / "data" / f"{name}.json"))
    group, seed = name.split("/")
    return synth_instance(group, int(seed))


SHIPPED = ("i2_plain", "i2_twist", "sqrt34")
LIFT_CASES = [f"{g}/{s}" for g in CATALOG for s in (0, 1)] + list(SHIPPED)


@pytest.mark.parametrize("name", LIFT_CASES)
def test_lift_check_agrees_with_all_triples(name, hermite_relations):
    """The class-table check against the all-triples loop, on the verdict
    and the witness: as built, with a shifted action column (caught by
    the action half), and with kappa of one nonzero class moved off the
    kernel of GS -> G (caught only by the kappa half)."""
    inst = lift_case(name)
    sh = build_script_h(inst)
    assert script_h_action_lift_independent(inst, sh) == \
        reference_lift_check(inst, sh, hermite_relations) == (True, None)
    cl_ab = inst.cl.underlying
    classes = [cl_ab.canon(c) for c in cl_ab.elements()]
    if len(classes) > 1:
        not_lift = next(z for z in range(inst.gs.order)
                        if inst.pi(z) != inst.group.identity)
        kappa = inst.kappa
        inst.kappa = {**kappa, classes[1]: not_lift}
        got = script_h_action_lift_independent(inst, sh)
        assert got == reference_lift_check(inst, sh, hermite_relations)
        assert not got[0] and got[1][:2] == (0, classes[1])
        inst.kappa = kappa
    g = shift_action(inst, sh)
    got = script_h_action_lift_independent(inst, sh)
    assert got == reference_lift_check(inst, sh, hermite_relations)
    assert got == (False, (g, classes[0], sh.elements[0]))


def test_lift_check_cost():
    """No relation-lattice walk, and one canon per element of GS (the
    class table) and per class of Cl: not one per triple (g, c, x)."""
    inst = synth_instance("D4", 0)
    sh = build_script_h(inst)
    calls = {"walk": 0, "canon": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Lattice, "_walk", counted(Lattice._walk, "walk"))
        mp.setattr(PrivateBasis, "_walk", counted(PrivateBasis._walk, "walk"))
        mp.setattr(FgAb, "canon", counted(FgAb.canon, "canon"))
        assert script_h_action_lift_independent(inst, sh) == (True, None)
    n_cl = inst.cl.underlying.order()
    assert calls["walk"] == 0
    assert 0 < calls["canon"] <= inst.gs.order + n_cl
    assert inst.group.order * n_cl * len(sh.elements) > inst.gs.order + n_cl


@pytest.mark.parametrize("name", LIFT_CASES)
def test_lift_check_reads_a_column_moved_by_l_as_its_class(
        name, hermite_relations):
    """The action half compares each column with y(u - 1) as a vector
    first.  A column moved by a nonzero element of Q, the image of
    L = K.I_GS, here under the last g, differs as a vector but not as a
    class: the check must still pass, as the all-triples loop does."""
    inst = lift_case(name)
    sh = build_script_h(inst)
    mod = sh.module
    ab = mod.underlying
    rel = next(c for c in ab.rel.sparse_columns() if c)
    g = inst.group.order - 1
    cols = mod.action[g].sparse_columns()
    _axpy(cols[0], 1, rel)
    action = list(mod.action)
    action[g] = IntMatrix._from_sparse_columns(cols, ab.n)
    sh.module = GModule(mod.group, ab, action, check=False)
    y = inst.iota[inst.p0.id][g]
    assert sh.module.action[g].sparse_columns()[0] != \
        sh.left_mul(y, sh.elements[0])
    assert script_h_action_lift_independent(inst, sh) == \
        reference_lift_check(inst, sh, hermite_relations) == (True, None)


def reference_script_h(inst):
    """The relation vectors, action matrices and embedding of the quotient
    written out densely on the basis {x - 1 : x != 1}: L is spanned by a
    kernel basis k of aug(GS) -> aug(G) times every y - 1, with
    (x - 1)(y - 1) = (xy - 1) - (x - 1) - (y - 1)."""
    gs, grp = inst.gs, inst.group
    basis = [x for x in range(gs.order) if x != gs.identity]
    index = {x: i for i, x in enumerate(basis)}
    nb = len(basis)

    def minus_one(x):
        v = [0] * nb
        if x != gs.identity:
            v[index[x]] = 1
        return v

    rows = {g: [0] * nb for g in range(grp.order) if g != grp.identity}
    for x in basis:
        if inst.pi(x) in rows:
            rows[inst.pi(x)][index[x]] = 1
    rel = []
    for col in _kernel_columns(list(rows.values()), nb):
        k = [col.get(j, 0) for j in range(nb)]
        for y in basis:
            prod = [0] * nb
            for x, c in zip(basis, k):
                if c:
                    for z, sign in ((gs.mul(x, y), c), (x, -c), (y, -c)):
                        if z != gs.identity:
                            prod[index[z]] += sign
            rel.append(prod)
    p0_sec = inst.iota[inst.p0.id]
    acts = [IntMatrix.from_columns(
        [[a - b for a, b in zip(minus_one(gs.mul(p0_sec[g], x)),
                                minus_one(p0_sec[g]))] for x in basis], nb)
        for g in range(grp.order)]
    ab = inst.cl.underlying
    e = IntMatrix.from_columns(
        [minus_one(inst.kappa[ab.canon(ab.gen(j))]) for j in range(ab.n)], nb)
    return rel, acts, e


def reference_mismatch(inst, sh, reference, relations):
    """The first way the module of `build_script_h` fails to present the
    quotient of `reference_script_h` through phi, or None.  Phi is the
    matrix whose column at x - 1 is sh.phi[x].  Checked: phi maps every
    reference relation into Q; each Q generator is phi of a vector of the
    reference lattice L, namely of itself written over the u - 1;
    phi(u_j - 1) = e_j, and every w_{m,t} = (mt - 1) - (m - 1) - (t - 1)
    lies in L and phi kills it, so ker phi, spanned by the w, lies in L;
    phi.A_ref(g) = A(g).phi modulo Q for every g; and phi.e_ref = e.
    `relations` builds the Hermite relation lattice of Q."""
    rel, acts, e = reference
    gs = inst.gs
    ab = sh.module.underlying
    basis = [x for x in range(gs.order) if x != gs.identity]
    index = {x: i for i, x in enumerate(basis)}
    phi = IntMatrix._from_sparse_columns([dict(sh.phi[x]) for x in basis],
                                         ab.n)
    q_lat = relations(ab)
    if not all(q_lat.contains(phi.apply(v)) for v in rel):
        return "a reference relation maps outside Q"
    ref = Lattice(len(basis))
    for v in rel:
        ref.add(v)
    for q in ab.rel.sparse_columns():
        v = [0] * len(basis)
        for j, c in q.items():
            v[index[sh.elements[j]]] += c
        if phi.apply(v) != tuple(q.get(j, 0) for j in range(ab.n)) \
                or not ref.contains(v):
            return "a Q generator is not phi of a reference relation"
    if any(sh.phi[u] != {j: 1} for j, u in enumerate(sh.elements[:ab.n])):
        return "phi(u_j - 1) is not e_j"
    for x in basis:
        m = sh.head[x]
        w = [0] * len(basis)
        w[index[x]] += 1
        for u in (m, gs.mul(gs.inv[m], x)):
            if u != gs.identity:
                w[index[u]] -= 1
        if any(phi.apply(w)) or not ref.contains(w):
            return f"w at {x} is not a relation killed by phi"
    for g, a in enumerate(acts):
        if ab.first_difference(phi.mul(a),
                               sh.module.action[g].mul(phi)) is not None:
            return f"phi does not carry the action at {g}"
    if phi.mul(e) != sh.e.ab.mat:
        return "phi does not carry the embedding"
    return None


def assert_matches_reference(inst, relations):
    """`reference_mismatch` finds nothing on the built module, and finds
    the dropped Q generator when one is dropped."""
    sh = build_script_h(inst)
    reference = reference_script_h(inst)
    assert reference_mismatch(inst, sh, reference, relations) is None
    mod = sh.module
    q_cols = mod.underlying.rel.sparse_columns()
    if q_cols:
        smaller = FgAb(mod.underlying.n, IntMatrix._from_sparse_columns(
            q_cols[1:], mod.underlying.n))
        sh.module = GModule(mod.group, smaller, mod.action, check=False)
        assert reference_mismatch(inst, sh, reference, relations) == \
            "a reference relation maps outside Q"


@pytest.mark.parametrize("name", [f"{g}/{s}" for g in CATALOG
                                  for s in (0, 1)] + ["i2_twist", "1"])
def test_script_h_matches_the_kernel_times_augmentation_span(
        name, hermite_relations):
    if name == "i2_twist":
        inst = i2_twist()
    elif name == "1":
        inst = trivial_group_instance(4)
    else:
        group, seed = name.split("/")
        inst = synth_instance(group, int(seed))
    assert_matches_reference(inst, hermite_relations)


def test_script_h_matches_the_reference_on_the_corpus(corpus,
                                                      hermite_relations):
    """The reference comparison of the test above on every campaign and
    stress instance."""
    for name, inst in corpus:
        assert_matches_reference(inst, hermite_relations)


def test_snake_values_on_worked_instances():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    ok, wit = snake_of_aux_units(it, wrb, snake)
    assert ok, wit
    # s on ((sigma-1), -(sigma-1), 0): the twisted instance gives the
    # nontrivial class
    r = r_element(it, wrb, "p1", 1, 0)
    assert it.cl.underlying.canon(snake.apply(r)) == (1,)
    # norm annihilation: s(N r) = N s(r) = 0 since the norm kills Cl here
    nu = it.cl.norm_map()
    big = wrb.r.norm_map()
    for j in range(wrb.r.underlying.n):
        gen = wrb.r.underlying.gen(j)
        assert it.cl.underlying.is_zero(nu.apply(snake.apply(gen)))
        assert it.cl.underlying.is_zero(snake.apply(big.apply(gen)))
    ok, wit = snake_closed_form_agrees(it, wrb, snake,
                                       TateCohomology(cx, it.cl))
    assert ok, wit
    ip = i2_plain()
    cxp, xyp, wrbp, shp, snakep = lab(ip)
    ok, wit = snake_closed_form_agrees(ip, wrbp, snakep,
                                       TateCohomology(cxp, ip.cl))
    assert ok, wit
    # plain instance: all distinguished values vanish
    assert ip.cl.underlying.is_zero(snake_closed_form(ip, "p1", 1, 0))


def test_snake_spanning_set_reference_holds_on_the_corpus(
        corpus, snake_spanning_reference):
    """`build_snake` proves the prime-by-prime map well defined by its
    equivariance check alone; the spanning-set test agrees on every
    campaign and stress instance."""
    for name, inst in corpus:
        wrb = build_wrb(inst, xy_modules(inst))
        sh = build_script_h(inst)
        build_snake(inst, wrb, sh)
        assert snake_spanning_reference(inst, wrb, sh) is None, name


def test_unchecked_snake_is_equivariant_on_the_corpus(corpus):
    """`build_snake` builds R -> Cl unchecked on the injectivity of the
    embedding that `build_script_h` records; on every campaign and stress
    instance the embedding is injective and the map respects R's
    relations and commutes with the action at every g, not only at the
    generators."""
    for name, inst in corpus:
        wrb = build_wrb(inst, xy_modules(inst))
        sh = build_script_h(inst)
        assert sh.embeds is sh.e.ab.is_injective() is True, name
        snake = build_snake(inst, wrb, sh)
        mat, ab = snake.ab.mat, inst.cl.underlying
        AbMap(wrb.r.underlying, ab, mat)
        for g in range(inst.group.order):
            assert ab.first_difference(mat.mul(wrb.r.action[g]),
                                       inst.cl.action[g].mul(mat)) is None, \
                (name, g)


def test_script_h_records_an_embedding_with_a_kernel():
    """On S3/0, Cl = Z/6.  With kappa(c) moved to kappa(2c) at each
    generator c, the embedding is doubled and kills 3Cl = Z/2:
    `build_script_h` records that, and scripth.embedding reports it."""
    inst = synth_instance("S3", 0)
    ab = inst.cl.underlying
    assert ab.invariant_factors() == (6,)
    assert build_script_h(inst).embeds is True
    for c in ab.gens():
        inst.kappa[ab.canon(c)] = inst.kappa[ab.canon(ab.add(c, c))]
    sh = build_script_h(inst)
    assert sh.embeds is False
    assert sh.e.ab.kernel()[0].order() == 2
    (rec,) = run_analysis(inst, checks=["scripth.embedding"])
    assert (rec["ok"], rec["witness"]) == (False, "embedding has a kernel")


def test_snake_refuses_an_embedding_with_a_kernel():
    """The snake map is the pullback through the embedding, unique only
    when the embedding is injective: a recorded kernel raises
    EmbeddingHasKernel."""
    inst = i2_twist()
    wrb = build_wrb(inst, xy_modules(inst))
    sh = build_script_h(inst)
    sh.embeds = False
    with pytest.raises(EmbeddingHasKernel, match="does not embed"):
        build_snake(inst, wrb, sh)


def test_moved_local_section_fails_both_proofs(snake_spanning_reference):
    """D4/0 with iota_p(h), for one h at a place p other than p0, moved
    by a nontrivial n in N: the spanning-set reference names p, and
    `build_snake` raises NotEquivariant."""
    inst = synth_instance("D4", 0)
    pl = next(p for p in inst.other_places() if len(p.subgroup.elems) > 1)
    h = next(h for h in pl.subgroup.elems if h != inst.group.identity)
    n = next(n for n in inst.pi.kernel_elements() if n != inst.gs.identity)
    inst.iota[pl.id][h] = inst.gs.mul(n, inst.iota[pl.id][h])
    wrb = build_wrb(inst, xy_modules(inst))
    sh = build_script_h(inst)
    assert snake_spanning_reference(inst, wrb, sh) == pl.id
    with pytest.raises(gmodules.NotEquivariant):
        build_snake(inst, wrb, sh)


def test_r_element_edges():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    # sigma = 1, tau = 1: the zero element
    r = r_element(it, wrb, "p1", 0, 0)
    assert not any(r)
    assert it.cl.underlying.is_zero(snake_closed_form(it, "p1", 0, 0))
    with pytest.raises(PlaceIsP0):
        r_element(it, wrb, "p0", 1, 0)
    with pytest.raises(ValueError):
        r_element(it, wrb, "p1", 1, 1)  # 1 is not a coset representative


def test_nabla_and_cocycle():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    nabla = build_nabla(it, wrb, snake)
    ok, wit = nabla_class_checks(it, wrb, snake, nabla)
    assert ok, wit
    hom = nabla.hom_x_cl
    # g(sigma) sends the basis vector to the nontrivial class
    val = hom.apply(nabla.g_cocycle.values[1], (1,))
    assert it.cl.underlying.canon(val) == (1,)
    calc = TateCohomology(cx, hom.module)
    assert calc.group(1).invariant_factors() == (2,)
    assert not CohClass(calc, 1, nabla.g_cocycle.as_cochain()).is_zero()
    # plain instance: the cocycle class is split
    ip = i2_plain()
    cxp, xyp, wrbp, shp, snakep = lab(ip)
    nablap = build_nabla(ip, wrbp, snakep)
    calcp = TateCohomology(cxp, nablap.hom_x_cl.module)
    assert CohClass(calcp, 1, nablap.g_cocycle.as_cochain()).is_zero()
    ok, wit = nabla_class_checks(ip, wrbp, snakep, nablap)
    assert ok, wit


def test_snake_cocycle_matches_all_elements_reference(
        corpus, snake_cocycle_reference):
    """build_nabla solves the snake cocycle at the generators only.  On
    every campaign and stress instance its values equal those of one
    solve per group element, as elements of Hom(X, Cl) (the coordinates
    may differ by its relations), and the reference values are a
    1-cocycle themselves."""
    for name, inst in corpus:
        _, _, wrb, _, snake = lab(inst)
        nabla = build_nabla(inst, wrb, snake)
        hom = nabla.hom_x_cl
        want = snake_cocycle_reference(inst, wrb, snake, hom)
        Cocycle1(hom.module, want)
        ab = hom.module.underlying
        for sigma, (a, b) in enumerate(zip(nabla.g_cocycle.values, want)):
            assert ab.eq(a, b), (name, sigma)


def test_nabla_class_fails_on_the_zero_cocycle():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    nabla = build_nabla(it, wrb, snake)
    hom = nabla.hom_x_cl
    zero = (0,) * hom.module.underlying.n
    nabla.g_cocycle = Cocycle1(hom.module, [zero] * it.group.order)
    ok, wit = nabla_class_checks(it, wrb, snake, nabla)
    assert not ok
    assert wit == "pushout class differs from the snake cocycle class"


def test_nabla_class_compares_classes_not_cochains():
    """g + d^0(m) has the class of g: the check still passes."""
    inst = quadratic_sqrt34()
    cx, xy, wrb, sh, snake = lab(inst)
    nabla = build_nabla(inst, wrb, snake)
    mod = nabla.hom_x_cl.module
    ab = mod.underlying
    m = ab.gen(1)
    shift = [ab.sub(mod.act(x, m), m) for x in range(inst.group.order)]
    assert not all(ab.is_zero(v) for v in shift)
    nabla.g_cocycle = Cocycle1(mod, [ab.add(v, d) for v, d in
                                     zip(nabla.g_cocycle.values, shift)])
    ok, wit = nabla_class_checks(inst, wrb, snake, nabla)
    assert ok, wit


def test_nabla_class_fails_on_a_shifted_class():
    """g + c with c a cocycle that is not a coboundary (c = g) has another
    class than g."""
    inst = synth_instance("S3", 0)
    cx, xy, wrb, sh, snake = lab(inst)
    nabla = build_nabla(inst, wrb, snake)
    g = nabla.g_cocycle
    assert not g.is_coboundary()[0]
    ab = g.module.underlying
    twice = g.add(g)
    assert not all(ab.is_zero(v) for v in twice.values)
    nabla.g_cocycle = Cocycle1(g.module, twice.values)
    ok, wit = nabla_class_checks(inst, wrb, snake, nabla)
    assert not ok
    assert wit == "pushout class differs from the snake cocycle class"


def test_nabla_class_builds_no_cohomology_group(monkeypatch):
    """The check decides both comparisons by coboundary tests at the
    generators: no Homology, no Tate-cohomology group, no specialized
    resolution and no re-proof of exactness; and the analysis hands it
    no complex."""
    assert "complex" not in CHECK_READS["nabla.class"]
    inst = synth_instance("D4", 0)
    cx, xy, wrb, sh, snake = lab(inst)
    nabla = build_nabla(inst, wrb, snake)
    calls = {}

    def spy(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kw):
            key = f"{cls.__name__}.{name}"
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kw)
        monkeypatch.setattr(cls, name, wrapper)

    spy(Homology, "__init__")
    spy(TateCohomology, "__init__")
    spy(TateCohomology, "homology")
    spy(TateComplex, "blockified")
    spy(TateComplex, "cochain_group")
    spy(ExtensionData, "__init__")
    ok, wit = nabla_class_checks(inst, wrb, snake, nabla)
    assert ok, wit
    assert calls == {}


def test_nabla_class_builds_hom_actions_at_the_generators_only(
        monkeypatch):
    """HomModule builds the action of g when it is first read.  nabla.class
    reads the actions of Hom(B, Cl) at generating_set() only, for its
    coboundary map, so those are the only ones built, each once; it
    builds the maps of the Hom sequence unchecked, so it reads no action
    of Hom(R, Cl)."""
    inst = synth_instance("D4", 0)
    cx, xy, wrb, sh, snake = lab(inst)
    nabla = build_nabla(inst, wrb, snake)
    homs = []

    class Recorded(HomModule):
        def __init__(self, cmod, amod):
            super().__init__(cmod, amod)
            homs.append(self)

    class Reads(gmodules.LazyActions):
        __slots__ = ("reads",)

        def __init__(self, order, make):
            def recorded(g):
                self.reads.append(g)
                return make(g)
            self.reads = []
            super().__init__(order, recorded)

    monkeypatch.setattr(tate_sequence, "HomModule", Recorded)
    monkeypatch.setattr(gmodules, "LazyActions", Reads)
    ok, wit = nabla_class_checks(inst, wrb, snake, nabla)
    assert ok, wit
    gens = inst.group.generating_set()
    assert len(gens) < inst.group.order
    assert [h.c for h in homs] == [wrb.b, wrb.r]
    hom_b, hom_r = homs
    assert sorted(hom_b.module.action.reads) == sorted(gens)
    assert hom_r.module.action.reads == []


def test_nabla_class_builds_one_coboundary_lattice_per_module(monkeypatch):
    """Both coboundary tests of nabla.class solve in Hom(X, Cl): the
    module keeps its coboundary map, so one image lattice serves both.
    Hom(B, Cl)'s coboundary map is applied, never solved through."""
    inst = synth_instance("S3", 0)
    cx, xy, wrb, sh, snake = lab(inst)
    nabla = build_nabla(inst, wrb, snake)
    module_of, lattices = {}, {}
    real_cob, real_lat = GModule.coboundary_map, AbMap.image_lattice

    def coboundary_map(self):
        cob = real_cob(self)
        module_of[id(cob)] = self
        return cob

    def image_lattice(self):
        lat = real_lat(self)
        mod = module_of.get(id(self))
        if mod is not None:
            lattices.setdefault(mod, []).append(lat)
        return lat

    monkeypatch.setattr(GModule, "coboundary_map", coboundary_map)
    monkeypatch.setattr(AbMap, "image_lattice", image_lattice)
    ok, wit = nabla_class_checks(inst, wrb, snake, nabla)
    assert ok, wit
    assert len(module_of) == 2
    got = lattices.pop(nabla.hom_x_cl.module)
    assert len(got) == 2 and got[0] is got[1]
    assert lattices == {}


@pytest.mark.parametrize("make", [lambda: synth_instance("V4", 0),
                                  lambda: synth_instance("C2", 1),
                                  lambda: synth_instance("C4", 1),
                                  lambda: synth_instance("S3", 0),
                                  i2_twist, quadratic_sqrt34],
                         ids=["V4/0", "C2/1", "C4/1", "S3/0", "i2_twist",
                              "sqrt34"])
def test_nabla_class_compares_nonzero_classes(make):
    """Vacuity guard: on these benchmark instances the snake cocycle class
    is not zero, so the coboundary comparisons of nabla.class are not all
    comparisons of coboundaries."""
    inst = make()
    cx, xy, wrb, sh, snake = lab(inst)
    nabla = build_nabla(inst, wrb, snake)
    assert not nabla.g_cocycle.is_coboundary()[0]
    ok, wit = nabla_class_checks(inst, wrb, snake, nabla)
    assert ok, wit


def test_nabla_class_hom_route_can_fail(monkeypatch):
    """Valid input cannot reach a failure of the Hom-sequence route: a
    wrong cocycle fails the pushout comparison first, and a snake map
    other than the one nabla was glued along fails the ladder.  So the
    Hom modules the route builds are replaced by ones whose from_matrix
    returns 0, which hands the connecting map the zero cochain for -[s];
    on i2_twist the cocycle class is not zero."""
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    nabla = build_nabla(it, wrb, snake)

    class ZeroCoordinates(HomModule):
        def from_matrix(self, f):
            return (0,) * self.module.underlying.n

    monkeypatch.setattr(tate_sequence, "HomModule", ZeroCoordinates)
    ok, wit = nabla_class_checks(it, wrb, snake, nabla)
    assert not ok
    assert wit == "connecting image of -[s] differs from the cocycle class"


def test_nabla_class_runs_the_hom_route_on_large_instances():
    # rank(B) * n(Cl) = 216 here, above the old cap of 96
    inst = synth_instance("S3", 12)
    cx, xy, wrb, sh, snake = lab(inst)
    assert wrb.b.underlying.n * inst.cl.underlying.n > 96
    nabla = build_nabla(inst, wrb, snake)
    ok, wit = nabla_class_checks(inst, wrb, snake, nabla)
    assert ok, wit


def _record_zig_zag(monkeypatch, bump=0):
    """Replace tate_sequence.zig_zag by one that adds `bump` to the first
    coordinate of its result, the value at the first generator, and
    records the values it returns."""
    real, out = tate_sequence.zig_zag, []

    def recorded(*args):
        pulled = real(*args)
        pulled[0] += bump
        out.append(pulled)
        return pulled
    monkeypatch.setattr(tate_sequence, "zig_zag", recorded)
    return out


def _cocycle_at_generators(module, pulled):
    """The checked cocycle with the values `pulled` at the generators."""
    n = module.underlying.n
    return Cocycle1.from_generators(module, [
        pulled[k * n:(k + 1) * n]
        for k in range(len(module.group.generating_set()))])


def test_generator_coboundary_test_agrees_with_all_elements_reference(
        corpus, coboundary_reference, monkeypatch):
    """nabla.class decides its two comparisons with
    Cocycle1.is_coboundary, at the generators.  On every campaign and
    stress instance that agrees with the all-elements test (membership
    in the image of the resolution's d^0) on f - g, on the connecting
    image minus g, on f - (g + d^0(m)), which compares f with a
    coboundary shift of g, and on 2g where g is not a coboundary; both
    answers occur."""
    pulled = _record_zig_zag(monkeypatch)
    answers, shifted = set(), False
    for name, inst in corpus:
        cx, xy, wrb, sh, snake = lab(inst)
        nabla = build_nabla(inst, wrb, snake)
        ok, wit = nabla_class_checks(inst, wrb, snake, nabla)
        assert ok, (name, wit)
        hom = nabla.hom_x_cl
        mod, ab = hom.module, hom.module.underlying
        reference = coboundary_reference(cx, mod)
        g = nabla.g_cocycle
        minus_g = g.neg()
        m = tuple(range(ab.n))
        shift = Cocycle1(mod, [ab.sub(mod.act(x, m), m)
                               for x in range(inst.group.order)])
        shifted = shifted or not all(ab.is_zero(v) for v in shift.values)
        f = extension_to_cocycle(hom, nabla.ext)
        cases = [("f - g", f.add(minus_g), True),
                 ("image - g",
                  _cocycle_at_generators(mod, pulled[-1]).add(minus_g), True),
                 ("f - (g + d0(m))", f.add(minus_g).add(shift.neg()), True)]
        if not g.is_coboundary()[0]:
            # 2g is a coboundary when [g] has order 2, as on i2_twist
            cases.append(("2g", g.add(g), None))
        for label, h, want in cases:
            got = h.is_coboundary()[0]
            assert got == reference(h), (name, label)
            assert want is None or got == want, (name, label)
            answers.add(got)
    assert answers == {True, False} and shifted


@pytest.mark.parametrize("make,extends",
                         [(lambda: synth_instance("S3", 0), False),
                          (lambda: synth_instance("D4", 0), False),
                          (i2_twist, True),
                          (lambda: synth_instance("C2", 1), True)],
                         ids=["S3/0", "D4/0", "i2_twist", "C2/1"])
def test_nabla_class_names_a_perturbed_connecting_image(make, extends,
                                                        monkeypatch):
    """One generator value of the connecting image of -[s], moved by 1:
    the check fails with the non-cocycle witness when the values no
    longer extend to a 1-cocycle (S3/0, D4/0), and with the class
    witness when they do (i2_twist, C2/1)."""
    inst = make()
    cx, xy, wrb, sh, snake = lab(inst)
    nabla = build_nabla(inst, wrb, snake)
    pulled = _record_zig_zag(monkeypatch, bump=1)
    ok, wit = nabla_class_checks(inst, wrb, snake, nabla)
    assert not ok
    try:
        _cocycle_at_generators(nabla.hom_x_cl.module, pulled[-1])
    except ValueError as exc:
        assert not extends
        assert wit == f"connecting image of -[s] is not a cocycle: {exc}"
    else:
        assert extends
        assert wit == ("connecting image of -[s] differs from the cocycle "
                       "class")


@pytest.mark.parametrize("make", [i2_twist, quadratic_sqrt34,
                                  lambda: synth_instance("D4", 0)])
def test_hom_sequence_maps_match_the_generator_loop(make, precompose_by_loop):
    """The maps Hom(X, Cl) -> Hom(B, Cl) -> Hom(R, Cl) of the nabla check,
    by precompose and by the per-generator loop, and both commute with
    the Hom actions at every g, as `nabla_class_checks` builds them
    unchecked on."""
    inst = make()
    cx, xy, wrb, sh, snake = lab(inst)
    hom_x = HomModule(wrb.x, inst.cl)
    hom_b = HomModule(wrb.b, inst.cl)
    hom_r = HomModule(wrb.r, inst.cl)
    for hom, dom_hom, phi in ((hom_b, hom_x, wrb.b_to_x.ab.mat),
                              (hom_r, hom_b, wrb.r_to_b.ab.mat)):
        mat = hom.precompose(dom_hom, phi)
        assert mat == precompose_by_loop(hom, dom_hom, phi)
        assert all(hom.module.underlying.first_difference(
            mat.mul(dom_hom.module.action[g]),
            hom.module.action[g].mul(mat)) is None
            for g in range(inst.group.order))


def calcs(cx, *modules):
    return [TateCohomology(cx, m) for m in modules]


def headline_case(inst):
    """(xy, calculators of X and Cl, delta_nabla): the arguments of
    delta_minus2_agrees after the instance, the map built from
    calculators over one complex."""
    cx, xy, wrb, sh, snake = lab(inst)
    nabla = build_nabla(inst, wrb, snake)
    calc_x, calc_cl, calc_nabla = calcs(cx, xy.x, inst.cl, nabla.ext.b)
    return xy, calc_x, calc_cl, connecting_hom(nabla.ext, -2, calc_x,
                                               calc_cl, calc_nabla)


def test_connecting_map_headline():
    it = i2_twist()
    xy, calc_x, calc_cl, delta = headline_case(it)
    ok, wit = delta_minus2_agrees(it, xy, calc_x, calc_cl, delta)
    assert ok, wit
    assert calc_x.group(-2).invariant_factors() == (2,)
    assert calc_cl.group(-1).invariant_factors() == (2,)
    z = generator_chain(it, xy, calc_x, "p1", 1)
    assert not z.is_zero() and not delta(z).is_zero()
    # identity generators die
    z1 = generator_chain(it, xy, calc_x, "p1", 0)
    assert delta(z1).is_zero()
    # plain: both maps vanish
    ip = i2_plain()
    xyp, calc_xp, calc_clp, deltap = headline_case(ip)
    for pl in ip.other_places():
        for tau in pl.subgroup.elems:
            assert deltap(generator_chain(ip, xyp, calc_xp, pl.id,
                                          tau)).is_zero()
    ok, wit = delta_minus2_agrees(ip, xyp, calc_xp, calc_clp, deltap)
    assert ok, wit


def test_x_cohomology_structure():
    for mk in (i2_twist, quadratic_sqrt34):
        inst = mk()
        cx = TateComplex(inst.group, (-2, 1))
        xy = xy_modules(inst)
        calc_x = TateCohomology(cx, xy.x)
        ok, wit = h_minus1_x_vanishes(calc_x)
        assert ok, wit
        ok, wit = homology_generators_iso(inst, xy, calc_x)
        assert ok, wit


def test_h_minus1_x_vanishes_fails_on_the_sign_module():
    # H^-1(C2, Z with the sign action) = ker N / (g-1)Z = Z / 2Z
    c2 = named_group("C2")
    sign = GModule(c2, FgAb(1), [[[1 if g == c2.identity else -1]]
                                 for g in range(c2.order)])
    calc = TateCohomology(TateComplex(c2, (-2, 1)), sign)
    assert h_minus1_x_vanishes(calc) == (False, {"h_minus1_x": [2]})


def test_functoriality_square():
    ok, wit = connecting_functorial(*functorial_case(i2_twist()))
    assert ok, wit


def functorial_case(inst):
    """(snake, calculators of X, R and Cl, delta_rbx, delta_nabla): the
    arguments of connecting_functorial, as the analysis builds them."""
    ctx = AnalysisContext(inst)
    return [ctx.get(name) for name in CHECK_READS["conn.functorial"]]


def move_push_at(mp, calc_x, calc_cl, delta_rbx, j):
    """Patch tate_sequence.induced_map so that the push adds a nonzero
    class of H^-1(Cl) to the class delta_RBX(e_j), e_j the j-th unit
    canonical coordinate of H^-2(X), and to no other.  B is projective,
    so delta_RBX: H^-2(X) -> H^-1(R) is an isomorphism, and the square
    then fails at e_j alone.  Returns e_j."""
    h = calc_x.homology(-2)
    e = h.group.gen(j)
    target = delta_rbx(CohClass(calc_x, -2, h.rep_of(e))).canon
    h1 = calc_cl.homology(-1)
    extra = CohClass(calc_cl, -1, h1.rep_of(h1.group.gen(0)))
    assert not extra.is_zero()
    real = tate_sequence.induced_map

    def moved(calc_dom, calc_cod, f, i):
        push = real(calc_dom, calc_cod, f, i)
        return lambda cls: (push(cls).add(extra) if cls.canon == target
                            else push(cls))

    mp.setattr(tate_sequence, "induced_map", moved)
    return e


@pytest.mark.parametrize("name,j", [("S3/0", 0), ("S3/0", 1), ("V4/0", 3),
                                    ("C2/1", 1)])
def test_functoriality_square_names_the_moved_generator(
        name, j, functorial_reference, monkeypatch):
    """A push moved at one generator of H^-2(X) fails conn.functorial,
    with that generator's canonical coordinates as the witness, as the
    all-elements loop finds too; at j > 0 the generators before it
    pass."""
    group, seed = name.split("/")
    args = functorial_case(synth_instance(group, int(seed)))
    _, calc_x, _, calc_cl, delta_rbx, _ = args
    assert calc_x.group(-2).n > j
    e = move_push_at(monkeypatch, calc_x, calc_cl, delta_rbx, j)
    assert connecting_functorial(*args) == functorial_reference(*args) == \
        (False, e)


def test_functoriality_square_agrees_with_all_elements_reference(
        corpus, functorial_reference):
    """conn.functorial compares the two sides on the unit canonical
    coordinates of H^-2(X) only.  On every campaign and stress instance
    it agrees with the loop over every element, as built and with the
    push moved at the last generator wherever H^-2(X) and H^-1(Cl) are
    both nonzero."""
    moved = 0
    for name, inst in corpus:
        args = functorial_case(inst)
        _, calc_x, _, calc_cl, delta_rbx, _ = args
        assert connecting_functorial(*args) == functorial_reference(*args) \
            == (True, None), name
        k = calc_x.group(-2).n
        if k and not calc_cl.group(-1).is_trivial():
            with pytest.MonkeyPatch.context() as mp:
                e = move_push_at(mp, calc_x, calc_cl, delta_rbx, k - 1)
                assert connecting_functorial(*args) == \
                    functorial_reference(*args) == (False, e), name
            moved += 1
    assert moved >= 5


def test_cdc_checks_name_an_unstable_difference_subgroup():
    """A D that a generator moves out of itself fails cdc.inclusions with
    ("D not stable", s, j), s in generating_set().  On D4/0 the class
    module is (Z/3)^2 and the first generator moves the first Smith
    generator c off <c>."""
    inst = synth_instance("D4", 0)
    ab = inst.cl.underlying
    c = ab.smith_gens()[0]
    s = inst.group.generating_set()[0]
    _, cdc = cdc_of(TateComplex(inst.group, (-2, 1)), inst)
    _, cdc.d = subgroup_span(ab, [c])
    assert not cdc.d.image_lattice().contains(inst.cl.act(s, c))
    ok, wit = cdc_checks(inst, cdc, norm_model(inst))
    assert (ok, wit) == (False, ("D not stable", s, 0))


def test_subgroups_and_norm_suite_values():
    it = i2_twist()
    nm = norm_model(it)
    calc_cl, cdc = cdc_of(TateComplex(it.group, (-2, 1)), it)
    assert cdc.cbar.dom.order() == 2 and cdc.c_s.dom.order() == 2
    assert cdc.d.dom.order() == 1
    assert nm.q.order() == 1
    ok, wit = cdc_checks(it, cdc, nm)
    assert ok, wit
    recs = norm_suite(it, nm, cdc, calc_cl)
    assert all(r["ok"] for r in recs), recs
    by_id = {r["id"]: r for r in recs}
    assert by_id["norm.c_ker_nm_is_d_plus_c"]["witness"]["ker_nm"] == 2
    ip = i2_plain()
    nmp = norm_model(ip)
    calc_clp, cdcp = cdc_of(TateComplex(ip.group, (-2, 1)), ip)
    assert cdcp.cbar.dom.order() == 1 and cdcp.c_s.dom.order() == 1
    assert nmp.q.order() == 2
    recsp = norm_suite(ip, nmp, cdcp, calc_clp)
    assert all(r["ok"] for r in recsp), recsp
    by_id = {r["id"]: r for r in recsp}
    assert by_id["norm.c_ker_nm_is_d_plus_c"]["witness"]["ker_nm"] == 1


def failed_records(recs):
    return {r["id"]: r["witness"] for r in recs if not r["ok"]}


def test_norm_suite_fails_on_a_wrong_cbar():
    """A wrong Cbar = 0 on i2_twist, where Ĥ^-1(Cl) = Z/2, fails (b), (d)
    and the image branch of (e), each with its witness.  Valid input
    cannot reach them: Cbar is built as the class-map image of C, and
    ker(Nm) = D + C with D = I_G Cl the kernel of the class map, so Cbar
    is also the image of ker(Nm), which is (e); (b) and (d) follow from
    it and ker(Nm) <= ker(N).  F is free, so both kernels in (d) are
    infinite and have order 0."""
    it = i2_twist()
    calc_cl, cdc = cdc_of(TateComplex(it.group, (-2, 1)), it)
    h1 = calc_cl.group(-1)
    assert cdc.cbar.dom.order() == h1.order() == 2
    _, cdc.cbar = subgroup_span(h1, [])
    failed = failed_records(norm_suite(it, norm_model(it), cdc, calc_cl))
    assert failed == {"norm.b_ker_nmbar_is_cbar": {"ker": 2, "cbar": 1},
                      "norm.d_same_kernels": {"k1": 0, "k2": 0},
                      "norm.e_break_up_kernel": {"image": 2, "cbar": 1}}


def test_norm_suite_compares_the_infinite_kernels_both_ways():
    """(d) compares two subgroups of the free group F, whose orders are
    both 0, so it must test containment both ways.  On i2_plain, where
    Cbar = 0 and Q = Z/2, a Cbar set to all of Ĥ^-1(Cl) = Z/2 makes
    ker(F -> Ĥ^-1/Cbar) all of F = Z, while ker(F -> Q) is 2Z: the second
    lies in the first, and (d) fails only because the first does not lie
    in the second.  (b) and (e) fail as well."""
    ip = i2_plain()
    calc_cl, cdc = cdc_of(TateComplex(ip.group, (-2, 1)), ip)
    h1 = calc_cl.group(-1)
    assert cdc.cbar.dom.order() == 1 and h1.order() == 2
    _, cdc.cbar = subgroup_span(h1, h1.gens())
    failed = failed_records(norm_suite(ip, norm_model(ip), cdc, calc_cl))
    assert failed == {"norm.b_ker_nmbar_is_cbar": {"ker": 1, "cbar": 2},
                      "norm.d_same_kernels": {"k1": 0, "k2": 0},
                      "norm.e_break_up_kernel": {"image": 1, "cbar": 2}}


def test_norm_checks_name_a_difference_subgroup_outside_ker_nm():
    """A D that Nm does not kill fails cdc.inclusions with ("D escapes
    ker(Nm)", j), (c) with its orders and (e) with "D not inside
    ker(Nm)".  Valid input cannot reach these: D = <(g-1)c>, and Nm is
    checked equivariant into Q with the trivial action, so
    Nm((g-1)c) = (g-1)Nm(c) = 0.  On C3/0, Cl = Z/2 maps isomorphically
    onto Q, and D is set to all of Cl, which is stable."""
    inst = synth_instance("C3", 0)
    ab = inst.cl.underlying
    nm = norm_model(inst)
    calc_cl, cdc = cdc_of(TateComplex(inst.group, (-2, 1)), inst)
    _, cdc.d = subgroup_span(ab, ab.smith_gens())
    assert cdc_checks(inst, cdc, nm) == (False, ("D escapes ker(Nm)", 0))
    assert failed_records(norm_suite(inst, nm, cdc, calc_cl)) == {
        "norm.c_ker_nm_is_d_plus_c": {"ker_nm": 1, "d_plus_c": 2,
                                      "nm_surjective": True},
        "norm.e_break_up_kernel": "D not inside ker(Nm)"}


def test_cdc_checks_name_a_norm_kernel_outside_ker_n():
    """A norm model whose kernel holds an element of nonzero norm fails
    cdc.inclusions with ("ker(Nm) escapes ker(N)", j).  Valid input
    cannot reach it: N on Cl is the transfer GS -> Cl restricted to Cl,
    and the transfer kills each section image iota_p(a) (whose order-m
    power is iota_p(a^m) = 1, m the order of a), so it factors through Q
    and N = transfer . Nm.  On C3/0 the norm is nonzero on Cl = Z/2, and
    the substituted Nm is the zero map, whose kernel is all of Cl."""
    inst = synth_instance("C3", 0)
    ab = inst.cl.underlying
    nm = norm_model(inst)
    _, cdc = cdc_of(TateComplex(inst.group, (-2, 1)), inst)
    zero = NormModel(nm.q, AbMap.zero(ab, nm.q))
    assert cdc_checks(inst, cdc, zero) == \
        (False, ("ker(Nm) escapes ker(N)", 0))


def test_norm_suite_keeps_the_records_of_a_raising_assertion(monkeypatch):
    """An assertion of norm.suite that raises fails alone, with the
    exception as its witness; the other four keep their records.  On C3/0
    a zero Nm makes ker(Nm) all of Cl, which leaves ker(N), so the class
    map of ker(Nm) in (e) raises; (c) fails on its orders, and (a), (b)
    and (d) still pass.  Unpatched, the check's witness is the record
    count."""
    inst = synth_instance("C3", 0)
    (rec,) = run_analysis(inst, checks=["norm.suite"])
    assert (rec["ok"], rec["witness"]) == (True, {"records": 5})
    nm = norm_model(inst)
    zero = NormModel(nm.q, AbMap.zero(inst.cl.underlying, nm.q))
    calc_cl, cdc = cdc_of(TateComplex(inst.group, (-2, 1)), inst)
    recs = norm_suite(inst, zero, cdc, calc_cl)
    assert [r["id"] for r in recs] == [
        "norm.a_surjects", "norm.b_ker_nmbar_is_cbar",
        "norm.c_ker_nm_is_d_plus_c", "norm.d_same_kernels",
        "norm.e_break_up_kernel"]
    failed = failed_records(recs)
    assert failed == {
        "norm.c_ker_nm_is_d_plus_c": {"ker_nm": 2, "d_plus_c": 1,
                                      "nm_surjective": False},
        "norm.e_break_up_kernel": "ValueError: element is not a cycle"}
    # the witness replays: ker(Nm) holds an element of nonzero norm
    ab = inst.cl.underlying
    nu = inst.cl.norm_map()
    assert any(not ab.is_zero(nu.apply(zero.ker.mat.column(j)))
               for j in range(zero.ker.dom.n))
    monkeypatch.setitem(ARTIFACTS, "norm_model",
                        (lambda inst: zero, ("inst",)))
    (rec,) = run_analysis(inst, checks=["norm.suite"])
    assert not rec["ok"]
    assert {r["id"]: r["witness"] for r in rec["witness"]} == failed


def test_norm_suite_names_frobenius_classes_that_miss_h_minus1():
    """Frobenius classes that miss Ĥ^-1(Cl) fail (a) alone, with the two
    orders.  Valid input cannot reach it: the Frobenius classes generate
    Cl (an instance axiom), so F maps onto ker(N), which maps onto
    Ĥ^-1(Cl).  On i2_twist, Ĥ^-1(Cl) = Z/2 and the substituted Frobenius
    map is zero."""
    it = i2_twist()
    calc_cl, cdc = cdc_of(TateComplex(it.group, (-2, 1)), it)
    it.frobenius_map = AbMap.zero(it.frobenius_map.dom, it.cl.underlying)
    assert failed_records(norm_suite(it, norm_model(it), cdc, calc_cl)) == \
        {"norm.a_surjects": {"image": 1, "h1": 2}}


def test_norm_suite_names_a_c_that_misses_ker_nm():
    """A C that is too small fails (c) alone, with ker(Nm) larger than
    D + C.  Valid input cannot reach it: ker(Nm) = D + C is the
    corollary, and `subgroups_cdc` spans C on every section discrepancy.
    On i2_twist, ker(Nm) = C = Z/2 and D = 0; C is set to 0, and no other
    record reads it."""
    it = i2_twist()
    calc_cl, cdc = cdc_of(TateComplex(it.group, (-2, 1)), it)
    _, cdc.c_s = subgroup_span(it.cl.underlying, [])
    assert failed_records(norm_suite(it, norm_model(it), cdc, calc_cl)) == \
        {"norm.c_ker_nm_is_d_plus_c": {"ker_nm": 2, "d_plus_c": 1,
                                       "nm_surjective": True}}


def test_norm_suite_names_a_difference_subgroup_below_the_class_kernel():
    """A D smaller than the kernel of the class map ker(Nm) -> Ĥ^-1(Cl)
    fails the kernel branch of (e) alone.  Valid input cannot reach it:
    D is I_G Cl, which Nm kills, and the class map ker(N) -> Ĥ^-1(Cl) has
    kernel I_G Cl, so the kernel on ker(Nm) <= ker(N) is D.  On D4/0,
    ker(Nm) = C = Z/3 and Ĥ^-1(Cl) = 0; D = Z/3 is set to 0, and (c)
    still holds, as D + C = C."""
    inst = synth_instance("D4", 0)
    nm = norm_model(inst)
    calc_cl, cdc = cdc_of(TateComplex(inst.group, (-2, 1)), inst)
    _, cdc.d = subgroup_span(inst.cl.underlying, [])
    assert cdc_checks(inst, cdc, nm) == (True, None)
    assert failed_records(norm_suite(inst, nm, cdc, calc_cl)) == \
        {"norm.e_break_up_kernel": {"kernel": 3, "d": 1}}


def test_snake_class_form_fails_without_the_boundaries():
    """On D4/0 some twisted and untwisted closed forms differ in Cl by an
    element of (h-1)Cl, so they agree only in H^-1(Cl).  Read through
    ker(N) / 0, which keeps those elements, the class form fails."""
    inst = synth_instance("D4", 0)
    cx, xy, wrb, sh, snake = lab(inst)
    calc_cl = TateCohomology(cx, inst.cl)
    assert snake_closed_form_agrees(inst, wrb, snake, calc_cl) == \
        (True, None)
    ab = inst.cl.underlying
    no_boundaries = Homology(AbMap.zero(ab, ab), inst.cl.norm_map())
    ok, wit = snake_closed_form_agrees(
        inst, wrb, snake, SimpleNamespace(homology=lambda i: no_boundaries))
    assert not ok and wit[-1] == "class form", wit


def test_delta1():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    d1 = build_delta1(snake)
    calc_cl, calc_r, calc_k = calcs(cx, it.cl, wrb.r, d1.a)
    delta_unit = connecting_hom(d1, -1, calc_cl, calc_k, calc_r)
    # zero coefficients give the zero class
    assert not any(delta1(it, wrb, d1, calc_k, {"q0": 0}))
    out = delta1(it, wrb, d1, calc_k, {"q0": 1})
    ok, wit = delta1_generic_agrees(it, wrb, d1, calc_cl, calc_k,
                                    delta_unit, {"q0": 1})
    assert ok, wit
    # equal classes give equal outputs: q0 coefficient 1 vs 3
    out3 = delta1(it, wrb, d1, calc_k, {"q0": 3})
    assert out == out3
    # the nontrivial class of a Z/3 module is not norm-killed for C2
    # twisted shape: NotNormKilled surfaces on a bad vector
    inst = synth_instance("C2", 1)
    cx2 = TateComplex(inst.group, (-2, 1))
    xy2 = xy_modules(inst)
    wrb2 = build_wrb(inst, xy2)
    sh2 = build_script_h(inst)
    snake2 = build_snake(inst, wrb2, sh2)
    d12 = build_delta1(snake2)
    nu = inst.cl.norm_map()
    ab = inst.cl.underlying
    bad = None
    for q in inst.aux_places:
        if not ab.is_zero(nu.apply(q.frobenius)):
            bad = q.id
            break
    if bad is not None:
        with pytest.raises(NotNormKilled):
            delta1(inst, wrb2, d12, TateCohomology(cx2, d12.a),
                   {bad: 1})


def test_aux_unit_in_r():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    r = aux_unit_in_r(it, wrb, "q0")
    assert it.cl.underlying.canon(snake.apply(r)) == (1,)


def test_small_random_campaign():
    for gname in ["C2", "C3", "V4"]:
        for seed in range(2):
            inst = synth_instance(gname, seed)
            cx, xy, wrb, sh, snake = lab(inst)
            ok, _ = wrb_exact(wrb, ExtensionData(wrb.r_to_b, wrb.b_to_x))
            assert ok
            assert sh.e.ab.is_injective()
            calc_cl, cdc = cdc_of(cx, inst)
            ok, wit = snake_closed_form_agrees(inst, wrb, snake, calc_cl)
            assert ok, wit
            ok, wit = delta_minus2_agrees(inst, *headline_case(inst))
            assert ok, wit
            nm = norm_model(inst)
            recs = norm_suite(inst, nm, cdc, calc_cl)
            assert all(r["ok"] for r in recs), (gname, seed, recs)


def _place_ideals(wrb):
    return [data for kind, _, data, _ in wrb.w_blocks if kind == "place"]


def test_unchecked_modules_validate_in_full(corpus):
    """Script H, nabla and the local augmentation ideals are built
    unchecked; on every campaign and stress instance they pass the full
    module check anyway, with multiplicativity on every pair."""
    for name, inst in corpus:
        _, _, wrb, sh, snake = lab(inst)
        nabla = build_nabla(inst, wrb, snake)
        mods = [sh.module, nabla.ext.b] + \
            [i.module for i in _place_ideals(wrb)]
        for mod in mods:
            mod.validate(full=True)


def test_script_h_rejects_a_section_that_is_not_a_lift():
    """A p0 section with pi(s(g)) != g is refused by build_script_h,
    which names g, and run_analysis fails every check that reads the
    script-H module, directly or through another artifact."""
    inst = i2_twist()
    grp, p0 = inst.group, inst.p0.id
    g = next(x for x in range(grp.order) if x != grp.identity)
    iota = {pid: dict(sec) for pid, sec in inst.iota.items()}
    iota[p0][g] = inst.gs.identity
    bad = Instance(grp, inst.places, inst.aux_places, inst.cl, inst.gs,
                   inst.pi, inst.kappa, iota)
    with pytest.raises(ValueError, match=rf"does not lift {g} "
                                         rf"\({grp.labels[g]}\)"):
        build_script_h(bad)
    records = {r["id"]: r for r in run_analysis(bad)}
    reading = [cid for cid in records
               if "script_h" in closure(CHECK_READS[cid])]
    assert {"scripth.embedding", "scripth.lifts", "nabla.class"} <= \
        set(reading)
    for cid in reading:
        assert not records[cid]["ok"], cid
        assert "ValueError" in records[cid]["witness"], cid


def test_b_closed_form_spans_the_sum_kernel(corpus, ideal_references):
    """On every campaign and stress instance, and on two with p0 as the
    only place (the trivial group with an auxiliary place, and C2 with
    none, where B = 0), the closed-form basis of B spans the kernel of
    the sum map that `GMap.kernel` finds, with the same rank, and B passes
    full validation."""
    insts = list(corpus) + [("1/p0", trivial_group_instance(2)),
                            ("C2/p0", lone_place_instance())]
    for name, inst in insts:
        ref_b, ref_incl, blocks = ideal_references.b(inst)
        b, b_incl, _ = tate_sequence._sum_kernel(
            regular_module(inst.group), blocks)
        assert b_incl.cod.underlying.n == ref_incl.cod.underlying.n, name
        assert b.underlying.n == ref_b.underlying.n, name
        for f, g in ((b_incl.ab, ref_incl.ab), (ref_incl.ab, b_incl.ab)):
            lat = g.image_lattice()
            assert all(lat.contains(c) for c in f.mat._columns), name
        b.validate(full=True)


def test_build_wrb_builds_no_lattice_and_one_kernel(corpus, monkeypatch):
    """The local ideals, I_G and B have closed-form bases, and every
    inclusion build_wrb solves through owns private coordinates: one
    build_wrb builds no Lattice and takes one equivariant kernel, R's."""
    counts = {"lattice": 0, "kernel": 0}
    real_init, real_kernel = Lattice.__init__, gmodules.GMap.kernel

    def init(self, *args, **kwargs):
        counts["lattice"] += 1
        real_init(self, *args, **kwargs)

    def kernel(self):
        counts["kernel"] += 1
        return real_kernel(self)

    insts = [(name, inst, xy_modules(inst)) for name, inst in corpus]
    monkeypatch.setattr(Lattice, "__init__", init)
    monkeypatch.setattr(gmodules.GMap, "kernel", kernel)
    Lattice(1)
    assert counts["lattice"] == 1  # the spy sees a construction
    for name, inst, xy in insts:
        counts.update(lattice=0, kernel=0)
        build_wrb(inst, xy)
        assert counts == {"lattice": 0, "kernel": 1}, name


def spy_on_build_wrb(monkeypatch):
    """Patch GMap construction and the builders of I_G and B, so that
    build_wrb records every GMap it makes with whether it was checked.
    Returns (made, names): made lists (map, checked) in build order, and
    names(wrb), after the build, maps a module to "W", "R", "B", "X",
    "Y", "Z[G]", "I_G", "big", the place id of a local ideal, or "?"."""
    made, built = [], {}
    real_init = gmodules.GMap.__init__
    real_aug, real_sum = tate_sequence.aug_ideal, tate_sequence._sum_kernel

    def init(self, dom, cod, ab_or_mat, check=True):
        real_init(self, dom, cod, ab_or_mat, check)
        made.append((self, check))

    def aug(group):
        mod, incl = real_aug(group)
        built.update({"I_G": mod, "Z[G]": incl.cod})
        return mod, incl

    def sum_kernel(reg, blocks):
        out = real_sum(reg, blocks)
        built["big"] = out[1].cod
        return out

    monkeypatch.setattr(gmodules.GMap, "__init__", init)
    monkeypatch.setattr(tate_sequence, "aug_ideal", aug)
    monkeypatch.setattr(tate_sequence, "_sum_kernel", sum_kernel)

    def names(wrb):
        known = {id(m): k for k, m in built.items()}
        known.update({id(m): k for k, m in (("W", wrb.w), ("R", wrb.r),
                                            ("B", wrb.b), ("X", wrb.x),
                                            ("Y", wrb.xy.y))})
        known.update({id(data.module): pid for kind, pid, data, _
                      in wrb.w_blocks if kind == "place"})
        return lambda mod: known.get(id(mod), "?")
    return made, names


def test_build_wrb_checks_only_the_closed_form_inclusions(corpus,
                                                         monkeypatch):
    """build_wrb checks the equivariance of the inclusions of I_G, of each
    local ideal and of B, and of no other map: W -> big, W -> I_G,
    R -> B, big -> Y and B -> X are built unchecked."""
    insts = [(name, inst, xy_modules(inst)) for name, inst in corpus]
    made, names = spy_on_build_wrb(monkeypatch)
    for name, inst, xy in insts:
        made.clear()
        wrb = build_wrb(inst, xy)
        role = names(wrb)
        checked = [(role(f.dom), role(f.cod)) for f, check in made if check]
        assert checked == [("I_G", "Z[G]")] + \
            [(pl.id, "Z[G]") for pl in inst.places] + [("B", "big")], name
        unchecked = {(role(f.dom), role(f.cod)) for f, check in made
                     if not check}
        assert {("W", "big"), ("W", "I_G"), ("R", "B"), ("big", "Y"),
                ("B", "X")} <= unchecked, name


def test_build_wrb_unchecked_maps_are_equivariant_at_every_g(corpus,
                                                            monkeypatch):
    """Every GMap that build_wrb builds unchecked satisfies
    f.rho(g) = rho(g).f at every g, not only at the generators, on every
    campaign and stress instance."""
    insts = [(name, inst, xy_modules(inst)) for name, inst in corpus]
    made, names = spy_on_build_wrb(monkeypatch)
    for name, inst, xy in insts:
        made.clear()
        wrb = build_wrb(inst, xy)
        role = names(wrb)
        unchecked = [f for f, check in made if not check]
        assert len(unchecked) >= 5, name
        for f in unchecked:
            mat = f.ab.mat
            for g in range(inst.group.order):
                assert f.cod.underlying.first_difference(
                    mat.mul(f.dom.action[g]),
                    f.cod.action[g].mul(mat)) is None, \
                    (name, role(f.dom), role(f.cod), g)


def test_unchecked_builders_make_no_validate_calls(corpus, monkeypatch):
    """build_script_h, build_nabla and local_aug_ideal call
    GModule.validate zero times."""
    calls = []
    original = GModule.validate

    def spy(self, full=False):
        calls.append(self)
        return original(self, full)

    monkeypatch.setattr(GModule, "validate", spy)
    grp = named_group("S3")
    GModule(grp, FgAb(1), [IntMatrix.identity(1)] * grp.order)
    assert len(calls) == 1  # the spy sees a checked construction
    picked = [(name, inst) for name, inst in corpus
              if name in ("S3/0", "D4/1", "sqrt34", "C2xC6/0")]
    assert len(picked) == 4
    for name, inst in picked:
        wrb = build_wrb(inst, xy_modules(inst))
        reg = _place_ideals(wrb)[0].incl.cod
        calls.clear()
        for pl in inst.places:
            local_aug_ideal(inst.group, pl.subgroup, reg)
        sh = build_script_h(inst)
        assert not calls, name
        snake = build_snake(inst, wrb, sh)
        calls.clear()
        build_nabla(inst, wrb, snake)
        assert not calls, name

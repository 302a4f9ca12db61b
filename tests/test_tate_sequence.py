from importlib.resources import files
from types import SimpleNamespace

import pytest

from tatelab.abelian import AbMap, FgAb, Homology, subgroup_span
from tatelab.cft import (AuxPlace, Instance, PlaceData, PlaceIsP0, c_p,
                         i2_plain, i2_twist, norm_model, quadratic_sqrt34,
                         synth_instance, xy_modules)
from tatelab import tate_sequence
from tatelab.analysis import CHECK_READS, closure, run_analysis
from tatelab.cohomology import (CohClass, Cocycle1, ExtensionData,
                                TateCohomology, TateComplex)
from tatelab.gmodules import (GModule, HomModule, local_aug_ideal,
                              trivial_module)
from tatelab.groups import Subgroup, extension_from_cocycle, named_group
from tatelab.instance_io import load_instance
from tatelab.lattice import (IntMatrix, Lattice, PrivateBasis, _axpy,
                             kernel_basis)
from tatelab.tate_sequence import (NotNormKilled, aux_unit_in_r,
                                   build_delta1, build_nabla,
                                   build_script_h, build_snake, build_wrb,
                                   cdc_checks, connecting_functorial,
                                   delta1, delta1_generic_agrees,
                                   delta_minus2, delta_minus2_agrees,
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


def cdc_of(cx, inst):
    return subgroups_cdc(inst, TateCohomology(cx, inst.cl))


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
    ok, info = wrb_exact(wrb)
    assert ok
    assert info == {"rank_w": 4, "rank_r": 3, "rank_b": 4, "rank_x": 1}
    # trivial group with one auxiliary place: R = B = the ring copy, X = 0
    inst = trivial_group_instance(2)
    xy1 = xy_modules(inst)
    wrb1 = build_wrb(inst, xy1)
    assert xy1.x.underlying.n == 0
    assert wrb1.r.underlying.free_rank() == 1
    assert wrb1.b.underlying.free_rank() == 1


def test_script_h():
    it = i2_twist()
    sh = build_script_h(it)
    assert sh.module.underlying.n == 3  # |GS| - 1 generators
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
    assert wit == (g, cl_ab.canon(next(cl_ab.elements())), sh.gs_basis[0])


def reference_lift_check(inst, sh):
    """The lift check as one relation-lattice membership test per triple
    (g, c, x): the action column of x minus alt(x - 1), alt = kappa(c)s(g)
    with s the section over p0, must be a relation.  Returns (ok, the
    first failing triple)."""
    gs = inst.gs
    cl_ab = inst.cl.underlying
    lat = sh.module.underlying.rel_lattice()
    p0_sec = inst.iota[inst.p0.id]
    for g in range(inst.group.order):
        base_cols = sh.module.action[g].sparse_columns()
        for c in cl_ab.elements():
            cc = cl_ab.canon(c)
            alt = gs.mul(inst.kappa[cc], p0_sec[g])
            for i, x in enumerate(sh.gs_basis):
                diff = dict(base_cols[i])
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
def test_lift_check_agrees_with_all_triples(name):
    """The class-table check against the all-triples loop, on the verdict
    and the witness: as built, with a shifted action column (caught by
    the action half), and with kappa of one nonzero class moved off the
    kernel of GS -> G (caught only by the kappa half)."""
    inst = lift_case(name)
    sh = build_script_h(inst)
    assert script_h_action_lift_independent(inst, sh) == \
        reference_lift_check(inst, sh) == (True, None)
    cl_ab = inst.cl.underlying
    classes = [cl_ab.canon(c) for c in cl_ab.elements()]
    if len(classes) > 1:
        not_lift = next(z for z in range(inst.gs.order)
                        if inst.pi(z) != inst.group.identity)
        kappa = inst.kappa
        inst.kappa = {**kappa, classes[1]: not_lift}
        got = script_h_action_lift_independent(inst, sh)
        assert got == reference_lift_check(inst, sh)
        assert not got[0] and got[1][:2] == (0, classes[1])
        inst.kappa = kappa
    g = shift_action(inst, sh)
    got = script_h_action_lift_independent(inst, sh)
    assert got == reference_lift_check(inst, sh)
    assert got == (False, (g, classes[0], sh.gs_basis[0]))


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
    assert inst.group.order * n_cl * len(sh.gs_basis) > inst.gs.order + n_cl


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
    for k in kernel_basis(list(rows.values()), nb):
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


@pytest.mark.parametrize("name", [f"{g}/{s}" for g in CATALOG
                                  for s in (0, 1)] + ["i2_twist", "1"])
def test_script_h_matches_the_kernel_times_augmentation_span(name):
    if name == "i2_twist":
        inst = i2_twist()
    elif name == "1":
        inst = trivial_group_instance(4)
    else:
        group, seed = name.split("/")
        inst = synth_instance(group, int(seed))
    sh = build_script_h(inst)
    rel, acts, e = reference_script_h(inst)
    ab = sh.module.underlying
    ref = Lattice(ab.n)
    for v in rel:
        ref.add(v)
    assert all(ref.contains(col) for col in ab.rel.sparse_columns())
    assert all(ab.rel_lattice().contains(v) for v in rel)
    assert list(sh.module.action) == acts
    assert sh.e.ab.mat == e


def test_snake_values_on_worked_instances():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    ok, wit = snake_of_aux_units(it, wrb, snake)
    assert ok, wit
    # s on ((sigma-1), -(sigma-1), 0): the twisted instance gives the
    # nontrivial class
    r = r_element(it, wrb, "p1", 1, 0)
    assert it.cl.underlying.canon(snake.s.apply(r)) == (1,)
    # norm annihilation: s(N r) = N s(r) = 0 since the norm kills Cl here
    nu = it.cl.norm_map()
    big = wrb.r.norm_map()
    for j in range(wrb.r.underlying.n):
        gen = wrb.r.underlying.gen(j)
        assert it.cl.underlying.is_zero(nu.apply(snake.s.apply(gen)))
        assert it.cl.underlying.is_zero(snake.s.apply(big.apply(gen)))
    ok, wit = snake_closed_form_agrees(it, wrb, snake, cdc_of(cx, it))
    assert ok, wit
    ip = i2_plain()
    cxp, xyp, wrbp, shp, snakep = lab(ip)
    ok, wit = snake_closed_form_agrees(ip, wrbp, snakep, cdc_of(cxp, ip))
    assert ok, wit
    # plain instance: all distinguished values vanish
    assert ip.cl.underlying.is_zero(snake_closed_form(ip, "p1", 1, 0))


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
    ok, wit = nabla_class_checks(cx, it, wrb, snake, nabla)
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
    ok, wit = nabla_class_checks(cxp, ip, wrbp, snakep, nablap)
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
    ok, wit = nabla_class_checks(cx, it, wrb, snake, nabla)
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
    ok, wit = nabla_class_checks(cx, inst, wrb, snake, nabla)
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
    ok, wit = nabla_class_checks(cx, inst, wrb, snake, nabla)
    assert not ok
    assert wit == "pushout class differs from the snake cocycle class"


def test_nabla_class_builds_no_cohomology_group(monkeypatch):
    """The check decides both comparisons by coboundary tests: no
    Homology, no Tate-cohomology group and no re-proof of exactness."""
    inst = synth_instance("D4", 0)
    cx, xy, wrb, sh, snake = lab(inst)
    nabla = build_nabla(inst, wrb, snake)
    calls = {}

    def spy(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kw):
            calls[cls.__name__] = calls.get(cls.__name__, 0) + 1
            return real(*args, **kw)
        monkeypatch.setattr(cls, name, wrapper)

    spy(Homology, "__init__")
    spy(TateCohomology, "homology")
    spy(ExtensionData, "__init__")
    ok, wit = nabla_class_checks(cx, inst, wrb, snake, nabla)
    assert ok, wit
    assert calls == {}


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
    ok, wit = nabla_class_checks(cx, inst, wrb, snake, nabla)
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
    ok, wit = nabla_class_checks(cx, it, wrb, snake, nabla)
    assert not ok
    assert wit == "connecting image of -[s] differs from the cocycle class"


def test_nabla_class_runs_the_hom_route_on_large_instances():
    # rank(B) * n(Cl) = 216 here, above the old cap of 96
    inst = synth_instance("S3", 12)
    cx, xy, wrb, sh, snake = lab(inst)
    assert wrb.b.underlying.n * inst.cl.underlying.n > 96
    nabla = build_nabla(inst, wrb, snake)
    ok, wit = nabla_class_checks(cx, inst, wrb, snake, nabla)
    assert ok, wit


@pytest.mark.parametrize("make", [i2_twist, quadratic_sqrt34,
                                  lambda: synth_instance("D4", 0)])
def test_hom_sequence_maps_match_the_generator_loop(make, precompose_by_loop):
    """The maps Hom(X, Cl) -> Hom(B, Cl) -> Hom(R, Cl) of the nabla check,
    by precompose and by the per-generator loop."""
    inst = make()
    cx, xy, wrb, sh, snake = lab(inst)
    hom_x = HomModule(wrb.x, inst.cl)
    hom_b = HomModule(wrb.b, inst.cl)
    hom_r = HomModule(wrb.r, inst.cl)
    for hom, dom_hom, phi in ((hom_b, hom_x, wrb.b_to_x.ab.mat),
                              (hom_r, hom_b, wrb.r_to_b.ab.mat)):
        assert hom.precompose(dom_hom, phi) == \
            precompose_by_loop(hom, dom_hom, phi)


def calcs(cx, *modules):
    return [TateCohomology(cx, m) for m in modules]


def test_connecting_map_headline():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    nabla = build_nabla(it, wrb, snake)
    cs = calcs(cx, xy.x, it.cl, nabla.module)
    ok, wit = delta_minus2_agrees(it, nabla, xy, *cs)
    assert ok, wit
    conn = delta_minus2(it, nabla, xy, *cs)
    assert conn.calc_x.group(-2).invariant_factors() == (2,)
    assert conn.calc_cl.group(-1).invariant_factors() == (2,)
    z = conn.gen_classes[("p1", 1)]
    assert not z.is_zero() and not conn.generic(z).is_zero()
    # identity generators die
    z1 = conn.gen_classes[("p1", 0)]
    assert conn.generic(z1).is_zero()
    # plain: both maps vanish
    ip = i2_plain()
    cxp, xyp, wrbp, shp, snakep = lab(ip)
    nablap = build_nabla(ip, wrbp, snakep)
    csp = calcs(cxp, xyp.x, ip.cl, nablap.module)
    connp = delta_minus2(ip, nablap, xyp, *csp)
    for z in connp.gen_classes.values():
        assert connp.generic(z).is_zero()
    ok, wit = delta_minus2_agrees(ip, nablap, xyp, *csp)
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
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    nabla = build_nabla(it, wrb, snake)
    ok, wit = connecting_functorial(
        wrb, snake, nabla, *calcs(cx, xy.x, wrb.r, it.cl, nabla.module))
    assert ok, wit


def test_subgroups_and_norm_suite_values():
    it = i2_twist()
    nm = norm_model(it)
    cdc = cdc_of(TateComplex(it.group, (-2, 1)), it)
    assert cdc.cbar.order() == 2 and cdc.c_s.order() == 2
    assert cdc.d.order() == 1
    assert nm.q.order() == 1
    ok, wit = cdc_checks(it, cdc, nm)
    assert ok, wit
    recs = norm_suite(it, nm, cdc)
    assert all(r["ok"] for r in recs), recs
    by_id = {r["id"]: r for r in recs}
    assert by_id["norm.c_ker_nm_is_d_plus_c"]["witness"]["ker_nm"] == 2
    ip = i2_plain()
    nmp = norm_model(ip)
    cdcp = cdc_of(TateComplex(ip.group, (-2, 1)), ip)
    assert cdcp.cbar.order() == 1 and cdcp.c_s.order() == 1
    assert nmp.q.order() == 2
    recsp = norm_suite(ip, nmp, cdcp)
    assert all(r["ok"] for r in recsp), recsp
    by_id = {r["id"]: r for r in recsp}
    assert by_id["norm.c_ker_nm_is_d_plus_c"]["witness"]["ker_nm"] == 1


def test_norm_suite_fails_on_a_wrong_cbar():
    it = i2_twist()
    cdc = cdc_of(TateComplex(it.group, (-2, 1)), it)
    assert cdc.cbar.order() == cdc.h1.order() == 2
    cdc.cbar, cdc.cbar_incl = subgroup_span(cdc.h1, [])
    recs = norm_suite(it, norm_model(it), cdc)
    failed = {r["id"]: r["witness"] for r in recs if not r["ok"]}
    assert set(failed) == {"norm.b_ker_nmbar_is_cbar", "norm.d_same_kernels",
                           "norm.e_break_up_kernel"}
    assert failed["norm.b_ker_nmbar_is_cbar"] == {"ker": 2, "cbar": 1}


def test_snake_class_form_fails_without_the_boundaries():
    """On D4/0 some twisted and untwisted closed forms differ in Cl by an
    element of (h-1)Cl, so they agree only in H^-1(Cl).  Read through
    ker(N) / 0, which keeps those elements, the class form fails."""
    inst = synth_instance("D4", 0)
    cx, xy, wrb, sh, snake = lab(inst)
    cdc = cdc_of(cx, inst)
    assert snake_closed_form_agrees(inst, wrb, snake, cdc) == (True, None)
    ab = inst.cl.underlying
    no_boundaries = Homology(AbMap.zero(ab, ab), inst.cl.norm_map())
    cdc.calc_cl = SimpleNamespace(homology=lambda i: no_boundaries)
    ok, wit = snake_closed_form_agrees(inst, wrb, snake, cdc)
    assert not ok and wit[-1] == "class form", wit


def test_delta1():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    d1 = build_delta1(snake)
    cs = calcs(cx, it.cl, wrb.r, d1.ker_s)
    calc_k = cs[2]
    # zero coefficients give the zero class
    assert not any(delta1(it, wrb, d1, calc_k, {"q0": 0}))
    out = delta1(it, wrb, d1, calc_k, {"q0": 1})
    ok, wit = delta1_generic_agrees(it, wrb, d1, *cs, {"q0": 1})
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
            delta1(inst, wrb2, d12, TateCohomology(cx2, d12.ker_s),
                   {bad: 1})


def test_aux_unit_in_r():
    it = i2_twist()
    cx, xy, wrb, sh, snake = lab(it)
    r = aux_unit_in_r(it, wrb, "q0")
    assert it.cl.underlying.canon(snake.s.apply(r)) == (1,)


def test_small_random_campaign():
    for gname in ["C2", "C3", "V4"]:
        for seed in range(2):
            inst = synth_instance(gname, seed)
            cx, xy, wrb, sh, snake = lab(inst)
            ok, _ = wrb_exact(wrb)
            assert ok
            assert sh.e.ab.is_injective()
            cdc = cdc_of(cx, inst)
            ok, wit = snake_closed_form_agrees(inst, wrb, snake, cdc)
            assert ok, wit
            nabla = build_nabla(inst, wrb, snake)
            ok, wit = delta_minus2_agrees(
                inst, nabla, xy, *calcs(cx, xy.x, inst.cl, nabla.module))
            assert ok, wit
            nm = norm_model(inst)
            recs = norm_suite(inst, nm, cdc)
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
        mods = [sh.module, nabla.module] + [i.module for i in _place_ideals(wrb)]
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

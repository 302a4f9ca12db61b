import random

import pytest

from tatelab.abelian import AbMap, FgAb
from tatelab.cft import i2_twist, quadratic_sqrt34, synth_instance, xy_modules
from tatelab.cohomology import TateCohomology, TateComplex
from tatelab.gmodules import (GMap, GModule, HomModule, NotEquivariant,
                              NotFree, TensorModule, aug_ideal, direct_sum,
                              hom_and_tensor,
                              local_aug_ideal, perm_module, regular_module,
                              trivial_module)
from tatelab.groups import (Subgroup, cyclic, direct_product, named_group,
                            symmetric3)
from tatelab.lattice import IntMatrix
from tatelab.tate_sequence import (build_delta1, build_script_h, build_snake,
                                   build_wrb)

CATALOG = ["C2", "C3", "C4", "V4", "S3", "D4", "Q8"]


def z_mod(group, m):
    return trivial_module(group, FgAb(1, IntMatrix([[m]])))


def low_degrees(module):
    """The calculator of `module` over the window -1..0: H^0 = M^G / N M
    and H^-1 = ker N / <(g-1)m>."""
    return TateCohomology(TateComplex(module.group, (-1, 0)), module)


def test_standard_modules_c2():
    c2 = named_group("C2")
    reg = regular_module(c2)
    aug, aug_incl = aug_ideal(c2)
    assert aug_incl.cod.underlying.free_rank() == 2
    assert aug.underlying.free_rank() == 1
    li = local_aug_ideal(c2, Subgroup(c2, [0, 1]), reg)
    assert li.module.underlying.free_rank() == 1
    assert tuple(li.incl.ab.mat.column(0)) in {(-1, 1), (1, -1)}
    assert li.module.action[1].entries[0][0] == -1
    induced, _, _, _ = perm_module(c2, Subgroup(c2, [0]))
    assert induced.underlying.free_rank() == 2
    assert local_aug_ideal(c2, Subgroup(c2, [0]), reg).module.underlying.n == 0


def test_standard_modules_ranks_s3():
    s3 = symmetric3()
    h = Subgroup(s3, s3.closure([3]))
    assert aug_ideal(s3)[0].underlying.free_rank() == 5
    assert perm_module(s3, h)[0].underlying.free_rank() == 3
    li = local_aug_ideal(s3, h, regular_module(s3))
    assert li.module.underlying.free_rank() == 6 - 3
    # local ideal sits inside the augmentation ideal
    for j in range(li.module.underlying.n):
        assert sum(li.incl.ab.mat.column(j)) == 0


IDEAL_GROUPS = [(name, lambda name=name: named_group(name))
                for name in CATALOG] + \
    [(f"C2xC{m}", lambda m=m: direct_product(cyclic(2), cyclic(m)))
     for m in (4, 6)]


def same_span(f, g):
    """Whether the AbMaps f and g into one free group have the same
    image: each image holds the other's generator images."""
    return all(g.image_lattice().contains(c) for c in f.mat._columns) and \
        all(f.image_lattice().contains(c) for c in g.mat._columns)


def closed_form_agrees(mod, incl, ref_incl, index):
    """The closed-form ideal (mod, incl) against the generic reference
    inclusion: the same span in Z[G], rank |G| - index, full validation,
    and incl.A_g = rho(g).incl at every g, not only the generators."""
    group, reg = mod.group, incl.cod
    assert same_span(incl.ab, ref_incl.ab)
    assert mod.underlying.free_rank() == mod.underlying.n == \
        ref_incl.dom.underlying.n == group.order - index
    mod.validate(full=True)
    for g in range(group.order):
        assert incl.ab.mat.mul(mod.action[g]) == \
            reg.action[g].mul(incl.ab.mat), g


@pytest.mark.parametrize("make", [m for _, m in IDEAL_GROUPS],
                         ids=[name for name, _ in IDEAL_GROUPS])
def test_local_ideals_match_the_hermite_reference(make, ideal_references):
    """Over every subgroup H, the closed-form basis t(h - 1) of
    Z[G].I_H spans the lattice the Hermite reference finds, and inclusion
    column j is th - t for the pair (t, h) = basis[j].  H = G gives the
    augmentation ideal, against the kernel of Z[G] -> Z."""
    group = make()
    reg = regular_module(group)
    for sub in group.all_subgroups():
        ideal = local_aug_ideal(group, sub, reg)
        _, ref_incl, _ = ideal_references.local(group, sub, reg)
        closed_form_agrees(ideal.module, ideal.incl, ref_incl,
                           group.order // len(sub))
        for j, (t, h) in enumerate(ideal.basis):
            v = [0] * group.order
            v[group.mul(t, h)] += 1
            v[t] -= 1
            assert tuple(v) == ideal.incl.ab.mat.column(j)
    mod, incl = aug_ideal(group)
    _, ref_incl = ideal_references.aug(group)
    closed_form_agrees(mod, incl, ref_incl, 1)


def test_module_validation():
    c2 = named_group("C2")
    with pytest.raises(ValueError):
        GModule(c2, FgAb(1), [IntMatrix([[1]]), IntMatrix([[2]])])
    GModule(c2, FgAb(1), [IntMatrix([[1]]), IntMatrix([[-1]])])
    reg = regular_module(c2)
    with pytest.raises(NotEquivariant):
        GMap(reg, trivial_module(c2), IntMatrix([[1, 0]]))


def test_checks_compare_modulo_relations():
    """Z/4 with the generator of C2 acting by -1: matrices that differ by a
    nonzero relation agree, one that differs by anything else does not,
    and the witness names the first failing column and generator."""
    c2 = named_group("C2")
    z4 = FgAb(1, IntMatrix([[4]]))
    minus = GModule(c2, z4, [IntMatrix([[1]]), IntMatrix([[-1]])])
    # g acts by 3 = -1 + 4, and 3 * 3 = 1 + 8: validate passes
    three = GModule(c2, z4, [IntMatrix([[5]]), IntMatrix([[3]])])
    ident = IntMatrix([[1]])
    assert ident.mul(minus.action[1]) != three.action[1].mul(ident)
    GMap(minus, three, ident)
    with pytest.raises(ValueError, match="identity must act as the identity"):
        GModule(c2, z4, [IntMatrix([[3]]), IntMatrix([[-1]])])
    with pytest.raises(ValueError, match=r"not multiplicative at \(1, 1\)"):
        GModule(c2, z4, [IntMatrix([[1]]), IntMatrix([[2]])])
    # Z[C2] + Z -> Z/4: e_1 -> 1 and e_g -> 3 are off by relations, but
    # the trivial summand's generator must go to an element g fixes
    dom, _, _ = direct_sum([regular_module(c2), trivial_module(c2)])
    GMap(dom, minus, IntMatrix([[1, 3, 2]]))
    with pytest.raises(NotEquivariant) as err:
        GMap(dom, minus, IntMatrix([[1, 3, 1]]))
    assert err.value.witness == (2, 1)


def test_hom_and_tensor():
    c2 = named_group("C2")
    z2 = z_mod(c2, 2)
    triv = trivial_module(c2)
    ht = hom_and_tensor(triv, z2)
    assert ht["hom"].module.underlying.order() == 2
    reg = regular_module(c2)
    ht2 = hom_and_tensor(reg, z2)
    assert ht2["hom"].module.underlying.order() == 4
    # the fixed points are the degree-0 cycles
    cycles, _ = low_degrees(ht2["hom"].module).differential(0).kernel()
    assert cycles.order() == 2
    assert ht["plain_tensor"].module.underlying.order() == 2
    # evaluation agrees with pointwise application
    ev, hom, tens = ht2["evaluation"], ht2["hom"], ht2["tensor"]
    for h in hom.module.underlying.elements():
        for c in [(1, 0), (0, 1), (2, -1)]:
            assert z2.underlying.eq(ev.apply(tens.pure(c, h)),
                                    hom.apply(h, c))
    with pytest.raises(NotFree):
        HomModule(z2, triv)
    with pytest.raises(ValueError):
        # both factors infinite with torsion on one side
        TensorModule(
            GModule(c2, FgAb(2, IntMatrix([[2, 0], [0, 0]], cols=2)),
                    [IntMatrix.identity(2)] * 2),
            GModule(c2, FgAb(2, IntMatrix([[3, 0], [0, 0]], cols=2)),
                    [IntMatrix.identity(2)] * 2))


def test_hom_with_redundant_free_presentation():
    c2 = named_group("C2")
    # Z presented with a dead generator
    ab = FgAb(2, IntMatrix([[1, 0], [0, 0]], cols=2))
    assert ab.is_free() and ab.free_rank() == 1
    m = GModule(c2, ab, [IntMatrix.identity(2)] * 2)
    hom = HomModule(m, z_mod(c2, 4))
    assert hom.module.underlying.order() == 4


def dense_hom_actions(cmod, amod):
    """Hom(C, A) action matrices by the dense quadruple loop: the entry at
    (j.n_A + m, i.n_A + l) is s_ij.a_ml with S = TB.rho(g^-1).FB."""
    group, na = cmod.group, amod.underlying.n
    tb, fb = cmod.underlying.free_basis_maps()
    k = tb.rows
    acts = []
    for g in range(group.order):
        s = tb.mul(cmod.action[group.inv[g]]).mul(fb)
        ag = amod.action[g].entries
        rows = [[0] * (k * na) for _ in range(k * na)]
        for i in range(k):
            for j in range(k):
                if s.entries[i][j]:
                    for m in range(na):
                        for l in range(na):
                            rows[j * na + m][i * na + l] += \
                                s.entries[i][j] * ag[m][l]
        acts.append(IntMatrix(rows, cols=k * na))
    return acts


def dense_tensor_actions(cmod, amod):
    """C (x) A action matrices by the dense quadruple loop: the entry at
    (i.n_A + l, j.n_A + m) is c_ij.a_lm."""
    nc, na = cmod.underlying.n, amod.underlying.n
    acts = []
    for g in range(cmod.group.order):
        cg, ag = cmod.action[g].entries, amod.action[g].entries
        rows = [[0] * (nc * na) for _ in range(nc * na)]
        for i in range(nc):
            for j in range(nc):
                for l in range(na):
                    for m in range(na):
                        rows[i * na + l][j * na + m] += cg[i][j] * ag[l][m]
        acts.append(IntMatrix(rows, cols=nc * na))
    return acts


def regular_with_relation(group):
    """Z[G] on |G| + 1 generators with the relation x_|G| = x_0: free,
    but its TB and FB are not the identity."""
    n = group.order
    reg = regular_module(group)
    acts = []
    for g in range(n):
        cols = [reg.action[g].column(j) + (0,) for j in range(n)]
        acts.append(IntMatrix.from_columns(cols + [cols[0]], n + 1))
    rel = IntMatrix.from_columns([[-1] + [0] * (n - 1) + [1]], n + 1)
    return GModule(group, FgAb(n + 1, rel), acts)


def z3_squared(group):
    """Z/3 + Z/3, its two generators swapped by the elements outside an
    index-2 subgroup (all fixed when there is none)."""
    half = next((h for h in group.all_subgroups()
                 if 2 * len(h) == group.order), None)
    swap = IntMatrix([[0, 1], [1, 0]])
    acts = [IntMatrix.identity(2) if half is None or g in half else swap
            for g in range(group.order)]
    return GModule(group, FgAb(2, IntMatrix([[3, 0], [0, 3]])), acts)


def hom_test_modules(group):
    """(C factors, A factors): Z, Z[G], the augmentation ideal and Z[G]
    with a redundant generator; Z, Z/6 and Z/3 + Z/3."""
    cs = [trivial_module(group), regular_module(group), aug_ideal(group)[0],
          regular_with_relation(group)]
    return cs, [trivial_module(group), z_mod(group, 6), z3_squared(group)]


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "V4", "S3", "D4", "Q8"])
def test_sparse_kronecker_actions_match_dense_loops(name):
    group = named_group(name)
    with_rel = regular_with_relation(group)
    assert with_rel.underlying.free_basis_maps()[0].shape == \
        (group.order, group.order + 1)
    cs, amods = hom_test_modules(group)
    for cmod in cs:
        for amod in amods:
            assert list(HomModule(cmod, amod).module.action) == \
                dense_hom_actions(cmod, amod)
            assert list(TensorModule(cmod, amod).module.action) == \
                dense_tensor_actions(cmod, amod)


@pytest.mark.parametrize("name", CATALOG)
def test_lazy_hom_actions_match_the_eager_products(name,
                                                   hom_actions_reference):
    """HomModule builds the matrix of g when module.action[g] is first
    read, and keeps it.  Read last element first, each equals the eager
    S(g)^T (x) rho_A(g): on the test modules of the group, with values in
    Z[G] too (where g and g^-1 act differently), and on X, B and R of the
    seed-0 instance with values in Cl."""
    group = named_group(name)
    cs, amods = hom_test_modules(group)
    pairs = [(cmod, amod) for cmod in cs
             for amod in amods + [regular_module(group)]]
    inst = synth_instance(name, 0)
    wrb = build_wrb(inst, xy_modules(inst))
    pairs += [(cmod, inst.cl) for cmod in (wrb.x, wrb.b, wrb.r)]
    for cmod, amod in pairs:
        acts = HomModule(cmod, amod).module.action
        want = hom_actions_reference(cmod, amod)
        assert len(acts) == len(want) == cmod.group.order
        for g in reversed(range(len(want))):
            assert acts[g] == want[g]
            assert acts[g] is acts[g]
        assert list(acts) == want


def test_kernel_image_cokernel():
    c2 = named_group("C2")
    reg = regular_module(c2)
    z2 = z_mod(c2, 2)
    zero = GMap.zero(reg, z2)
    assert zero.kernel()[0].underlying.free_rank() == 2
    assert zero.ab.image()[0].is_trivial()
    assert zero.ab.cokernel()[0].order() == 2
    aug = GMap(reg, trivial_module(c2), IntMatrix([[1, 1]]))
    assert aug.kernel()[0].underlying.free_rank() == 1
    nu = GMap(reg, reg, reg.norm_map(), check=False)
    kmod, kincl = nu.kernel()
    assert kmod.underlying.free_rank() == 1
    assert nu.ab.image()[0].free_rank() == 1
    assert tuple(kincl.ab.mat.column(0)) in {(1, -1), (-1, 1)}


def test_fixed_and_norm_values():
    c2 = named_group("C2")
    calc = low_degrees(trivial_module(c2))
    assert calc.group(0).invariant_factors() == (2,)
    assert calc.group(-1).is_trivial()
    calc = low_degrees(z_mod(c2, 2))
    assert calc.group(-1).invariant_factors() == (2,)
    calc = low_degrees(regular_module(c2))
    assert calc.group(0).is_trivial() and calc.group(-1).is_trivial()


def test_fixed_and_norm_class_functions():
    c2 = named_group("C2")
    z4 = z_mod(c2, 4)
    calc = low_degrees(z4)
    h0, h1 = calc.homology(0), calc.homology(-1)
    # norm is multiplication by 2: h0 = Z/4 / 2Z/4 = Z/2
    assert h0.group.order() == 2
    assert any(h0.class_of((1,)))
    assert not any(h0.class_of((2,)))
    # h1: ker(2)/0 = {0, 2}
    assert h1.group.order() == 2
    assert any(h1.class_of((2,)))
    with pytest.raises(ValueError):
        h1.class_of((1,))


def test_direct_sum_and_perm_module():
    s3 = symmetric3()
    h = Subgroup(s3, s3.closure([3]))
    mod, reps, rho, pos = perm_module(s3, h)
    assert mod.underlying.free_rank() == 3
    total, injs, projs = direct_sum([mod, trivial_module(s3)])
    assert total.underlying.free_rank() == 4
    for j, inj in enumerate(injs):
        comp = projs[j].compose(inj)
        assert comp.ab == comp.ab.identity(inj.dom.underlying)


def test_direct_sum_walks_no_relation_lattice(monkeypatch):
    s3 = symmetric3()
    mod, _, _, _ = perm_module(s3, Subgroup(s3, s3.closure([3])))
    z2_cubed = FgAb(3, IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    parts = [z_mod(s3, 4), GModule(s3, z2_cubed, mod.action),
             trivial_module(s3)]
    walks = {"n": 0}
    real = FgAb._is_relation

    def counted(self, vec):
        walks["n"] += 1
        return real(self, vec)

    monkeypatch.setattr(FgAb, "_is_relation", counted)
    total, injs, projs = direct_sum(parts)
    assert walks["n"] == 0
    # what the unchecked maps skip holds: checked rebuilds accept them
    for inj, proj in zip(injs, projs):
        AbMap(inj.dom.underlying, total.underlying, inj.ab.mat)
        AbMap(total.underlying, proj.cod.underlying, proj.ab.mat)
        inj.check_equivariance()
        proj.check_equivariance()
    assert walks["n"] > 0


def test_action_axioms_random_modules():
    rng = random.Random(3)
    for name in ["C2", "C3", "V4", "S3"]:
        g = named_group(name)
        reg = regular_module(g)
        for _ in range(8):
            m = rng.choice([2, 3, 4])
            k = rng.randint(1, 2)
            # Z[G]^k / (m, random stable vectors)
            big, _, _ = direct_sum([reg] * k)
            n = big.underlying.n
            cols = [[m if i == j else 0 for i in range(n)]
                    for j in range(n)]
            for _ in range(rng.randint(0, 2)):
                v = [rng.randint(-2, 2) for _ in range(n)]
                for gg in range(g.order):
                    cols.append(list(big.act(gg, v)))
            ab = FgAb(n, IntMatrix.from_columns(
                [tuple(c) for c in cols], n))
            mod = GModule(g, ab, big.action)  # validates all axioms
            mod.validate(full=True)


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "V4", "S3", "D4", "Q8"])
def test_hom_modules_pass_full_validation(name):
    """HomModule builds its module unchecked; the action still meets every
    axiom, on all pairs of group elements."""
    cs, amods = hom_test_modules(named_group(name))
    for cmod in cs:
        for amod in amods:
            HomModule(cmod, amod).module.validate(full=True)


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "V4", "S3", "D4", "Q8"])
def test_precompose_matches_the_generator_loop(name, precompose_by_loop):
    group = named_group(name)
    n = group.order
    cs, amods = hom_test_modules(group)
    triv, reg, aug, with_rel = cs
    aug_incl = aug_ideal(group)[1].ab.mat
    # (C, C', phi: C -> C'), with and without relations on either side
    maps = [(aug, reg, aug_incl),
            (reg, triv, IntMatrix([[1] * n])),
            (with_rel, reg, IntMatrix.identity(n).hstack(
                IntMatrix.from_columns([[1] + [0] * (n - 1)], n))),
            (reg, with_rel, IntMatrix.from_columns(
                [tuple(r) + (0,) for r in IntMatrix.identity(n).entries],
                n + 1))]
    for amod in amods:
        for cmod, cprime, phi in maps:
            hom, dom_hom = HomModule(cmod, amod), HomModule(cprime, amod)
            assert hom.precompose(dom_hom, phi) == \
                precompose_by_loop(hom, dom_hom, phi)
            GMap(dom_hom.module, hom.module, hom.precompose(dom_hom, phi))


def kernel_modules(make, monkeypatch):
    """Every (map, kernel module, kernel inclusion) that GMap.kernel builds
    for the instance: R of build_wrb and ker s of build_delta1, its only
    callers (the augmentation ideal and B have closed-form bases)."""
    built = []
    real = GMap.kernel

    def recording(self):
        kmod, kincl = real(self)
        built.append((self, kmod, kincl))
        return kmod, kincl

    monkeypatch.setattr(GMap, "kernel", recording)
    inst = make()
    wrb = build_wrb(inst, xy_modules(inst))
    build_delta1(build_snake(inst, wrb, build_script_h(inst)))
    return built


@pytest.mark.parametrize("make", [lambda g=g: synth_instance(g, 0)
                                  for g in CATALOG]
                         + [i2_twist, quadratic_sqrt34],
                         ids=[f"{g}/0" for g in CATALOG]
                         + ["i2_twist", "sqrt34"])
def test_kernel_actions_match_the_lift_loop(make, kernel_by_lift,
                                            monkeypatch):
    """GMap.kernel lifts the generators only and builds the other actions
    as products; each agrees with the lift of rho(g) modulo the kernel's
    relations, and the module passes full validation."""
    built = kernel_modules(make, monkeypatch)
    # R (build_wrb) and ker s (build_delta1)
    assert len(built) == 2
    for f, kmod, kincl in built:
        incl, ref = kernel_by_lift(f)
        assert kincl.ab.mat == incl.mat
        k = kmod.underlying
        for a, b in zip(kmod.action, ref):
            assert AbMap(k, k, a) == AbMap(k, k, b)
        kmod.validate(full=True)


@pytest.mark.parametrize("name", CATALOG)
def test_kernel_with_relations_matches_the_lift_loop(name, kernel_by_lift):
    """The kernel of the augmentation Z[G]/3 -> Z/3 has relations, so an
    action matrix is determined only modulo them: the products along
    words agree with the lifts there."""
    group = named_group(name)
    n = group.order
    reg = regular_module(group)
    reg3 = GModule(group, FgAb(n, IntMatrix.identity(n).kron(
        IntMatrix([[3]]))), reg.action, check=False)
    f = GMap(reg3, z_mod(group, 3), IntMatrix([[1] * n]))
    kmod, _ = f.kernel()
    k = kmod.underlying
    assert k.order() == 3 ** (n - 1)
    _, ref = kernel_by_lift(f)
    for a, b in zip(kmod.action, ref):
        assert AbMap(k, k, a) == AbMap(k, k, b)
    kmod.validate(full=True)


def test_kernel_of_a_non_equivariant_map_raises():
    """Z[C2] -> Z, e_1 -> 1 and e_g -> 0, built unchecked: its kernel is
    spanned by e_g, which g moves out of it."""
    c2 = named_group("C2")
    f = GMap(regular_module(c2), trivial_module(c2), IntMatrix([[1, 0]]),
             check=False)
    with pytest.raises(NotEquivariant):
        f.kernel()


@pytest.mark.parametrize("name", CATALOG)
def test_kernel_lifts_once_per_generator(name, monkeypatch):
    group = named_group(name)
    calls = {"lift": 0}
    real = AbMap.lift

    def counted(self, cols, error):
        calls["lift"] += 1
        return real(self, cols, error)

    monkeypatch.setattr(AbMap, "lift", counted)
    aug = GMap(regular_module(group), trivial_module(group),
               IntMatrix([[1] * group.order]), check=False)
    aug.kernel()
    assert calls["lift"] == len(group.generating_set())

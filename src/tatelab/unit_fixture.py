"""Validation of externally produced unit fixtures.

A fixture supplies, for a concrete arithmetic realization of an instance,
the S-unit module with its Galois action and, per tested class of the
minus-one cohomology of the class module, the 1-cocycle of unit values
attached to a generator choice, together with the flag recording whether
that generator lies in the product of the units and the base field.  The
checks here validate the cocycle identity, the coboundary biconditional
against both the flag and membership in the section-discrepancy subgroup,
and that the induced assignment is an injective homomorphism onto a
subgroup of H^1 of the units of the right order.
"""

from __future__ import annotations

from .cohomology import CohClass, Cocycle1, TateCohomology


class InconsistentFixture(Exception):
    def __init__(self, class_index, reason):
        self.class_index = class_index
        self.reason = reason
        super().__init__(f"fixture class {class_index}: {reason}")


def fixture_unit_check(inst, fixture, calc_cl, cdc):
    """Run every fixture assertion; returns a list of check records.

    `fixture` is the (unit module, classes, provenance) triple of
    `instance_io.fixture_from_dict`, `calc_cl` the calculator of Cl, and
    `cdc` the distinguished subgroups of `tate_sequence.subgroups_cdc`
    read through it.  The units get a calculator over the complex of
    `calc_cl`.  Raises InconsistentFixture when an assertion fails with a
    class witness.
    """
    unit_module, classes, _ = fixture
    ab = inst.cl.underlying
    records = []

    def record(name, ok, witness=None):
        records.append({"id": name, "ok": bool(ok), "witness": witness})

    nu = inst.cl.norm_map()
    hom = calc_cl.homology(-1)
    cocycles = []
    for k, cls in enumerate(classes):
        try:
            w = Cocycle1(unit_module, cls["cocycle"])
        except ValueError as exc:
            raise InconsistentFixture(k, f"cocycle identity: {exc}") from exc
        total = inst.frobenius_sum(cls["aux_coeffs"])
        if not ab.is_zero(nu.apply(total)):
            raise InconsistentFixture(k, "coefficients do not define a "
                                      "norm-killed class")
        cocycles.append((k, w, hom.class_of(total), cls["a_in_units_times_K"]))
    record("fixture.cocycle_identity", True, {"classes": len(classes)})

    # coboundary <-> unit flag <-> class in the discrepancy subgroup
    cbar_lat = cdc.cbar.image_lattice()
    for k, w, cls_h1, flag in cocycles:
        is_cob, _ = w.is_coboundary()
        in_cbar = cbar_lat.contains(cls_h1)
        if is_cob != flag:
            raise InconsistentFixture(k, f"coboundary={is_cob} but unit "
                                      f"flag={flag}")
        if is_cob != in_cbar:
            raise InconsistentFixture(k, f"coboundary={is_cob} but class "
                                      f"in discrepancy subgroup={in_cbar}")
    record("fixture.biconditional", True, None)

    # the induced map H^-1(Cl)/Cbar -> H^1(U)
    calc_u = TateCohomology(calc_cl.complex, unit_module)
    quot, proj = cdc.cbar.cokernel()
    assign = {}
    for k, w, cls_h1, _ in cocycles:
        key = quot.canon(proj.apply(cls_h1))
        val = CohClass(calc_u, 1, w.as_cochain())
        if key in assign:
            if assign[key] != val:
                raise InconsistentFixture(k, "classes in the same coset "
                                          "have non-cohomologous cocycles")
        else:
            assign[key] = val
    covered = {quot.canon(e) for e in quot.elements()}
    if set(assign) != covered:
        missing = sorted(covered - set(assign))
        raise InconsistentFixture("-", f"fixture does not cover every coset "
                                  f"(missing {missing})")
    # homomorphism and injectivity on the covered quotient
    items = sorted(assign.items())
    for key_x, val_x in items:
        for key_y, val_y in items:
            key_sum = quot.canon(quot.add(quot.from_canon(key_x),
                                          quot.from_canon(key_y)))
            want = val_x.add(val_y)
            if assign[key_sum] != want:
                raise InconsistentFixture("-", f"assignment not additive at "
                                          f"{key_x} + {key_y}")
    vals = [v.canon for _, v in items]
    if len(set(vals)) != len(vals):
        raise InconsistentFixture("-", "assignment is not injective")
    record("fixture.injective_hom", True,
           {"image": len(set(vals)), "quotient": quot.order()})
    record("fixture.order_match", len(set(vals)) == quot.order(),
           {"image": len(set(vals)), "quotient": quot.order()})
    return records

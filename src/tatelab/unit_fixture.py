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

from .cohomology import Cocycle1


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
    read through it.  Classes of H^1 of the units are compared by
    `Cocycle1.is_coboundary`, with no calculator.  Raises
    InconsistentFixture when an assertion fails with a class witness.
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

    # the induced map H^-1(Cl)/Cbar -> H^1(U): H^1 is crossed
    # homomorphisms modulo principal ones (Brown, GTM 87, IV.2), so two
    # cocycles have one class iff their difference is a coboundary
    def same_class(w1, w2):
        return w1.add(w2.neg()).is_coboundary()[0]

    quot, proj = cdc.cbar.cokernel()
    assign = {}
    for k, w, cls_h1, _ in cocycles:
        key = quot.canon(proj.apply(cls_h1))
        if key not in assign:
            assign[key] = w
        elif not same_class(assign[key], w):
            raise InconsistentFixture(k, "classes in the same coset "
                                      "have non-cohomologous cocycles")
    covered = {quot.canon(e) for e in quot.elements()}
    if set(assign) != covered:
        missing = sorted(covered - set(assign))
        raise InconsistentFixture("-", f"fixture does not cover every coset "
                                  f"(missing {missing})")
    # homomorphism on the covered quotient.  It is then injective: its
    # kernel is the cosets whose cocycle is a coboundary, and by the
    # biconditional that is the zero coset alone
    items = sorted(assign.items())
    for key_x, w_x in items:
        for key_y, w_y in items:
            key_sum = quot.canon(quot.add(quot.from_canon(key_x),
                                          quot.from_canon(key_y)))
            if not same_class(assign[key_sum], w_x.add(w_y)):
                raise InconsistentFixture("-", f"assignment not additive at "
                                          f"{key_x} + {key_y}")
    image = {"image": len(assign), "quotient": quot.order()}
    record("fixture.injective_hom", True, image)
    record("fixture.order_match", len(assign) == quot.order(), image)
    return records

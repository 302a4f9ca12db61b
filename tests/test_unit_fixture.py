import copy
import json

import pytest
from importlib.resources import files

from tatelab.abelian import FgAb
from tatelab.cft import (AuxPlace, Instance, PlaceData, i2_plain,
                         quadratic_sqrt34, validate_instance)
from tatelab.cohomology import TateCohomology, TateComplex
from tatelab.gmodules import trivial_module
from tatelab.groups import Subgroup, extension_from_cocycle, named_group
from tatelab.instance_io import (FixtureSchemaError, fixture_from_dict,
                                 load_fixture)
from tatelab.lattice import IntMatrix
from tatelab.tate_sequence import subgroups_cdc
from tatelab.unit_fixture import InconsistentFixture, fixture_unit_check


def fixture_data():
    ref = files("tatelab") / "data" / "sqrt34_units.json"
    return json.loads(ref.read_text())


def fixture_path():
    return str(files("tatelab") / "data" / "sqrt34_units.json")


def check(cx, inst, data):
    """fixture_unit_check on a fixture given as its JSON dict."""
    calc_cl = TateCohomology(cx, inst.cl)
    return fixture_unit_check(inst, fixture_from_dict(data, inst.group),
                              calc_cl, subgroups_cdc(inst, calc_cl))


def test_real_field_fixture_passes():
    inst = quadratic_sqrt34()
    assert validate_instance(inst).clean
    cx = TateComplex(inst.group, (-2, 1))
    fx = load_fixture(fixture_path(), inst.group)
    calc_cl = TateCohomology(cx, inst.cl)
    recs = fixture_unit_check(inst, fx, calc_cl,
                              subgroups_cdc(inst, calc_cl))
    assert recs and all(r["ok"] for r in recs), recs
    ids = {r["id"] for r in recs}
    assert {"fixture.cocycle_identity", "fixture.biconditional",
            "fixture.injective_hom", "fixture.order_match"} <= ids


def test_fixture_unit_module_cohomology():
    # H^1 of the S-unit module vanishes, matching the quotient
    # H^-1(Cl)/Cbar = 0 computed on the instance side
    inst = quadratic_sqrt34()
    cx = TateComplex(inst.group, (-2, 1))
    unit_module, classes, provenance = load_fixture(fixture_path(),
                                                    inst.group)
    assert "sqrt(34)" in provenance
    calc = TateCohomology(cx, unit_module)
    assert calc.group(1).is_trivial()
    calc_cl = TateCohomology(cx, inst.cl)
    cdc = subgroups_cdc(inst, calc_cl)
    assert calc_cl.group(-1).order() == cdc.cbar.dom.order() == 2


def test_schema_errors():
    inst = quadratic_sqrt34()
    with pytest.raises(FixtureSchemaError):
        fixture_from_dict({"schema_version": "0"}, inst.group)
    with pytest.raises(FixtureSchemaError):
        fixture_from_dict({"nope": 1}, inst.group)
    bad = fixture_data()
    bad["classes"][0]["cocycle"] = [[0, 0], [0, 0]]  # wrong width
    with pytest.raises(FixtureSchemaError):
        fixture_from_dict(bad, inst.group)


def test_inconsistent_fixture_paths():
    inst = quadratic_sqrt34()
    cx = TateComplex(inst.group, (-2, 1))
    # a value table violating the cocycle identity
    bad = copy.deepcopy(fixture_data())
    bad["classes"][1]["cocycle"] = [[0, 0, 0, 0], [0, 0, 1, 0]]
    with pytest.raises(InconsistentFixture):
        check(cx, inst, bad)
    # flag contradicting the coboundary status
    bad = copy.deepcopy(fixture_data())
    bad["classes"][1]["a_in_units_times_K"] = False
    with pytest.raises(InconsistentFixture) as exc:
        check(cx, inst, bad)
    assert "unit flag" in str(exc.value)
    # incomplete coverage of the quotient is fine here (quotient trivial),
    # so drop all classes to force the coverage error
    bad = copy.deepcopy(fixture_data())
    bad["classes"] = []
    with pytest.raises(InconsistentFixture) as exc:
        check(cx, inst, bad)
    assert "cover" in str(exc.value)


def test_trivial_cocycle_class_passes():
    # a class flagged as lying in the discrepancy subgroup with the zero
    # table passes the coboundary check
    inst = quadratic_sqrt34()
    cx = TateComplex(inst.group, (-2, 1))
    fx = copy.deepcopy(fixture_data())
    fx["classes"] = [c for c in fx["classes"]
                     if not any(any(v) for v in c["cocycle"])]
    assert fx["classes"]
    recs = check(cx, inst, fx)
    assert all(r["ok"] for r in recs)


def sign_units(classes):
    """A fixture over C2 on U = Z- + Z-, the generator acting by -I, with
    one class per (aux_coeffs, table, flag).  H^1(C2, Z-) = Z/2: a table
    [0, a] is a cocycle for every a, and the coboundaries g m - m = -2m
    are the even ones, so the class of [[0, 0], [a, b]] is (a, b) mod 2."""
    return {"schema_version": "1",
            "unit_module": {"moduli": [0, 0],
                            "action": [[[1, 0], [0, 1]],
                                       [[-1, 0], [0, -1]]]},
            "classes": [{"aux_coeffs": coeffs, "cocycle": table,
                         "a_in_units_times_K": flag}
                        for coeffs, table, flag in classes]}


def z2_squared_plain():
    """i2_plain with class module Z/2 + Z/2, C2 acting trivially, and one
    auxiliary place per summand: every section discrepancy vanishes, so
    Cbar = 0 and H^-1(Cl)/Cbar = Z/2 + Z/2, of order 4."""
    grp = named_group("C2")
    cl = trivial_module(grp, FgAb(2, IntMatrix([[2, 0], [0, 2]])))
    gs, kappa, pi, member = extension_from_cocycle(cl, grp,
                                                   lambda g, h: (0, 0))
    full = Subgroup(grp, [0, 1])
    section = {g: member[((0, 0), g)] for g in (0, 1)}
    return Instance(grp, [PlaceData("p0", full, is_p0=True),
                          PlaceData("p1", full)],
                    [AuxPlace("q0", (1, 0)), AuxPlace("q1", (0, 1))],
                    cl, gs, pi, kappa, {"p0": section, "p1": section})


def test_two_cosets_on_i2_plain():
    """On i2_plain, Cbar = 0 and H^-1(Cl) = Z/2: the zero class and the
    class of Frob_q0 go to the two classes of H^1(U) they name, and a
    third class in the coset of Frob_q0 with the other cocycle class is
    refused."""
    inst = i2_plain()
    cx = TateComplex(inst.group, (-2, 1))
    classes = [({"q0": 0}, [[0, 0], [0, 0]], True),
               ({"q0": 1}, [[0, 0], [1, 0]], False)]
    recs = check(cx, inst, sign_units(classes))
    assert all(r["ok"] for r in recs), recs
    by_id = {r["id"]: r["witness"] for r in recs}
    assert by_id["fixture.injective_hom"] == {"image": 2, "quotient": 2}
    assert by_id["fixture.order_match"] == {"image": 2, "quotient": 2}
    # the same coset, a cocycle differing by a non-coboundary
    classes.append(({"q0": 1}, [[0, 0], [0, 1]], False))
    with pytest.raises(InconsistentFixture, match="classes in the same "
                       "coset have non-cohomologous cocycles") as exc:
        check(cx, inst, sign_units(classes))
    assert exc.value.class_index == 2
    # the same coset, a cocycle differing by a coboundary
    classes[2] = ({"q0": 3}, [[0, 0], [3, 2]], False)
    assert all(r["ok"] for r in check(cx, inst, sign_units(classes)))


def test_additivity_on_an_order_four_quotient():
    """On Z/2 + Z/2 (see z2_squared_plain) the four cosets get the four
    classes of H^1(U) = Z/2 + Z/2 additively; giving the coset of
    Frob_q0 + Frob_q1 the class of Frob_q0 instead keeps every class
    flagged right but breaks additivity.  A non-injective assignment
    sends a nonzero coset to 0, i.e. a class outside Cbar to a
    coboundary, which the biconditional refuses."""
    inst = z2_squared_plain()
    assert validate_instance(inst).clean
    cx = TateComplex(inst.group, (-2, 1))
    classes = [({}, [[0, 0], [0, 0]], True),
               ({"q0": 1}, [[0, 0], [1, 0]], False),
               ({"q1": 1}, [[0, 0], [0, 1]], False),
               ({"q0": 1, "q1": 1}, [[0, 0], [1, 1]], False)]
    recs = check(cx, inst, sign_units(classes))
    assert all(r["ok"] for r in recs), recs
    assert {r["id"]: r["witness"] for r in recs}[
        "fixture.injective_hom"] == {"image": 4, "quotient": 4}
    classes[3] = ({"q0": 1, "q1": 1}, [[0, 0], [1, 0]], False)
    with pytest.raises(InconsistentFixture,
                       match="assignment not additive") as exc:
        check(cx, inst, sign_units(classes))
    assert exc.value.class_index == "-"
    classes[3] = ({"q0": 1, "q1": 1}, [[0, 0], [0, 0]], False)
    with pytest.raises(InconsistentFixture, match="unit flag"):
        check(cx, inst, sign_units(classes))
    classes[3] = ({"q0": 1, "q1": 1}, [[0, 0], [0, 0]], True)
    with pytest.raises(InconsistentFixture,
                       match="class in discrepancy subgroup=False"):
        check(cx, inst, sign_units(classes))

import copy
import json

import pytest
from importlib.resources import files

from tatelab.cft import quadratic_sqrt34, validate_instance
from tatelab.cohomology import TateCohomology, TateComplex
from tatelab.instance_io import (FixtureSchemaError, fixture_from_dict,
                                 load_fixture)
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

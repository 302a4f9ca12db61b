"""JSON serialization of instances and unit fixtures.

The instance schema mirrors the in-memory structure field by field: the
group and extension group as multiplication tables, places with their
decomposition subgroups, auxiliary places with Frobenius classes, the
class module as invariant factors plus action matrices, the projection,
the kernel identification on module generators, and the sections as image
lists over each decomposition subgroup (sorted by element index).  All
indices are 0-based; a schema_version field is mandatory.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from math import prod

from .abelian import FgAb
from .cft import AuxPlace, Instance, PlaceData
from .gmodules import GModule
from .groups import GroupHom, Subgroup, group_from_table
from .lattice import IntMatrix

SCHEMA_VERSION = "1"
FIXTURE_SCHEMA_VERSION = "1"


class InstanceSchemaError(Exception):
    pass


class FixtureSchemaError(Exception):
    pass


def _require_chain(invf, exc):
    for a, b in zip(invf, invf[1:]):
        if b % a:
            raise exc(f"moduli {invf} do not form a divisibility chain")


def _indices(values, order, what):
    """Element indices read from the file, each checked to lie in
    range(order): a negative one would otherwise index from the end."""
    out = [int(x) for x in values]
    for x in out:
        if not 0 <= x < order:
            raise InstanceSchemaError(f"{what}: element index {x} is outside "
                                      f"0..{order - 1}")
    return out


def instance_to_dict(inst):
    ab = inst.cl.underlying
    invf = list(ab.canonical_moduli())
    if not ab.is_diagonal() or 0 in invf:
        raise InstanceSchemaError("class module must carry a finite "
                                  "diagonal presentation")
    _require_chain(invf, InstanceSchemaError)
    kappa_gens = [inst.kappa[ab.canon(ab.gen(i))] for i in range(ab.n)]
    return {
        "schema_version": SCHEMA_VERSION,
        "group": {"table": [list(r) for r in inst.group.table],
                  "labels": list(inst.group.labels)},
        "places": [{"id": pl.id, "subgroup": list(pl.subgroup.elems),
                    "is_p0": pl.is_p0} for pl in inst.places],
        "aux_places": [{"id": q.id, "frobenius_class": list(q.frobenius)}
                       for q in inst.aux_places],
        "cl": {"invariant_factors": invf,
               "action": [[list(r) for r in m.entries]
                          for m in inst.cl.action]},
        "gs": {"table": [list(r) for r in inst.gs.table],
               "labels": list(inst.gs.labels)},
        "pi": list(inst.pi.images),
        "kappa": kappa_gens,
        "iota": {pl.id: [inst.iota[pl.id][a] for a in pl.subgroup.elems]
                 for pl in inst.places},
    }


def instance_from_dict(data):
    try:
        version = data["schema_version"]
    except (TypeError, KeyError):
        raise InstanceSchemaError("missing schema_version") from None
    if version != SCHEMA_VERSION:
        raise InstanceSchemaError(f"unsupported schema version {version!r}")
    try:
        grp = group_from_table(data["group"]["table"],
                               data["group"].get("labels"))
        gs = group_from_table(data["gs"]["table"], data["gs"].get("labels"))
        invf = [int(d) for d in data["cl"]["invariant_factors"]]
        if any(d <= 0 for d in invf):
            raise InstanceSchemaError("invariant factors must be positive")
        _require_chain(invf, InstanceSchemaError)
        n = len(invf)
        ab = FgAb(n, IntMatrix([[invf[i] if i == j else 0 for j in range(n)]
                                for i in range(n)], cols=n))
        action = [IntMatrix(m, cols=n) for m in data["cl"]["action"]]
        cl = GModule(grp, ab, action)
        pi = GroupHom(gs, grp, _indices(data["pi"], grp.order, "pi"))
        kappa_gens = _indices(data["kappa"], gs.order, "kappa")
        if len(kappa_gens) != n:
            raise InstanceSchemaError("kappa must list one image per "
                                      "class-module generator")
        if prod(invf) > gs.order:
            raise InstanceSchemaError(
                f"class module of order {prod(invf)} exceeds the extension "
                f"group of order {gs.order}; kappa cannot be injective")
        # kappa on every element from per-generator power tables
        powers = []
        for d, gen in zip(invf, kappa_gens):
            if d == 1:
                continue  # not a canonical coordinate of the diagonal ab
            row = [gs.identity]
            for _ in range(d - 1):
                row.append(gs.mul(row[-1], gen))
            powers.append(row)
        kappa = {}
        for canon in itertools.product(*(range(len(r)) for r in powers)):
            img = gs.identity
            for row, e in zip(powers, canon):
                img = gs.mul(img, row[e])
            kappa[canon] = img
        places = []
        iota = {}
        for p in data["places"]:
            pid = str(p["id"])
            sub = Subgroup(grp, _indices(p["subgroup"], grp.order,
                                         f"subgroup of {pid}"))
            pl = PlaceData(pid, sub, bool(p.get("is_p0", False)))
            places.append(pl)
            images = _indices(data["iota"][pid], gs.order, f"iota for {pid}")
            if len(images) != len(sub.elems):
                raise InstanceSchemaError(f"iota for {pl.id} has wrong length")
            iota[pl.id] = dict(zip(sub.elems, images))
        aux = [AuxPlace(str(q["id"]), tuple(int(x) for x in
                                            q["frobenius_class"]))
               for q in data["aux_places"]]
        for q in aux:
            if len(q.frobenius) != n:
                raise InstanceSchemaError(f"frobenius class of {q.id} has "
                                          "wrong length")
    except InstanceSchemaError:
        raise
    except Exception as exc:
        raise InstanceSchemaError(f"malformed instance: {exc}") from exc
    return Instance(grp, places, aux, cl, gs, pi, kappa, iota)


def canonical_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def instance_digest(inst):
    return hashlib.sha256(
        canonical_json(instance_to_dict(inst)).encode()).hexdigest()


def load_instance(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceSchemaError(f"cannot read instance file: {exc}") from exc
    return instance_from_dict(data)


# -- fixtures ------------------------------------------------------------------

def fixture_from_dict(data, group):
    """Parse a unit fixture against its schema; returns (U module, classes,
    provenance).  Classes are dicts with aux_coeffs, cocycle values and the
    unit flag."""
    if not isinstance(data, dict) or "schema_version" not in data:
        raise FixtureSchemaError("missing schema_version")
    if data["schema_version"] != FIXTURE_SCHEMA_VERSION:
        raise FixtureSchemaError("unsupported fixture schema version")
    try:
        um = data["unit_module"]
        moduli = [int(x) for x in um["moduli"]]
        n = len(moduli)
        rel_cols = []
        for i, m in enumerate(moduli):
            if m < 0:
                raise FixtureSchemaError("moduli must be nonnegative")
            if m:
                col = [0] * n
                col[i] = m
                rel_cols.append(col)
        ab = FgAb(n, IntMatrix._trusted_columns(rel_cols, n))
        action = [IntMatrix(mrow, cols=n) for mrow in um["action"]]
        unit_module = GModule(group, ab, action)
        classes = []
        for k, cls in enumerate(data["classes"]):
            coeffs = {str(q): int(v) for q, v in cls["aux_coeffs"].items()}
            table = [tuple(int(x) for x in v) for v in cls["cocycle"]]
            if len(table) != group.order or any(len(v) != n for v in table):
                raise FixtureSchemaError(f"class {k}: cocycle table shape")
            classes.append({"aux_coeffs": coeffs, "cocycle": table,
                            "a_in_units_times_K":
                                bool(cls["a_in_units_times_K"])})
    except FixtureSchemaError:
        raise
    except Exception as exc:
        raise FixtureSchemaError(f"malformed fixture: {exc}") from exc
    return unit_module, classes, str(data.get("provenance", ""))


def load_fixture(path, group):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FixtureSchemaError(f"cannot read fixture file: {exc}") from exc
    return fixture_from_dict(data, group)

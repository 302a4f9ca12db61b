"""Per-instance analysis pipeline: named checks over a declared graph of
shared artifacts.

ARTIFACTS maps each artifact to its builder and the artifacts the builder
reads; CHECK_READS lists, next to each registered check, the artifacts the
check function receives.  The inputs (the instance, the unit fixture and
the sampling seed) are artifacts that exist from the start.  Every
analysis resolves the one degree window WINDOW, -2..0, exactly the
degrees its checks and connecting maps read: H^-2(X) at -2; H^-1 of X,
R and Cl at -1; H^0(ker s), the target of the unit map, at 0.  Over it
there is one complex, one calculator per module, each short exact
sequence as one checked `ExtensionData` (`rbx`, `nabla.ext` and
`delta1`), proved exact once, and each connecting map the checks
compare, built once from those calculators.  An artifact is built on first
request, once: a builder that raised is not run again, and everything
that reads it fails with the same exception.  The runner drops an
artifact after the last selected check whose reads reach it.
"""

from __future__ import annotations

import random
import time
from operator import attrgetter

from .cft import norm_model, validate_instance, xy_modules
from .cohomology import (ExtensionData, TateCohomology, TateComplex,
                         connecting_hom)
from .tate_sequence import (build_delta1, build_nabla, build_script_h,
                            build_snake, build_wrb, cdc_checks,
                            connecting_functorial, delta1,
                            delta1_generic_agrees, delta_minus2_agrees,
                            h_minus1_x_vanishes, homology_generators_iso,
                            nabla_class_checks, norm_suite,
                            script_h_action_lift_independent,
                            snake_closed_form_agrees, snake_of_aux_units,
                            subgroups_cdc, wrb_exact)
from .unit_fixture import fixture_unit_check

WINDOW = (-2, 0)

INPUTS = ("inst", "fixture", "seed")


def _tate_complex(inst):
    return TateComplex(inst.group, WINDOW)


def _calculator(module_of):
    """Builder of the Tate-cohomology calculator of one module."""
    return lambda complex_, source: TateCohomology(complex_,
                                                   module_of(source))


def _rbx(wrb):
    """The support sequence 0 -> R -> B -> X -> 0, proved exact by the
    checked constructor: the one proof that `wrb.exact` and `delta_rbx`
    rest on."""
    return ExtensionData(wrb.r_to_b, wrb.b_to_x)


def _connecting(i, ext_of=lambda ext: ext):
    """Builder of the degree-i connecting map of the short exact sequence
    0 -> A -> B -> C -> 0 that `ext_of` reads off its source (by default
    the source is the sequence), from the calculators of C, A and B."""
    return lambda source, calc_c, calc_a, calc_b: connecting_hom(
        ext_of(source), i, calc_c, calc_a, calc_b)


# artifact -> (builder, artifacts passed to the builder in order)
ARTIFACTS = {
    "complex": (_tate_complex, ("inst",)),
    "xy": (xy_modules, ("inst",)),
    "wrb": (build_wrb, ("inst", "xy")),
    "rbx": (_rbx, ("wrb",)),
    "script_h": (build_script_h, ("inst",)),
    "snake": (build_snake, ("inst", "wrb", "script_h")),
    "nabla": (build_nabla, ("inst", "wrb", "snake")),
    "norm_model": (norm_model, ("inst",)),
    "cdc": (subgroups_cdc, ("inst", "calc_cl")),
    "delta1": (build_delta1, ("snake",)),  # 0 -> ker s -> R -> Cl -> 0
    "calc_x": (_calculator(attrgetter("x")), ("complex", "xy")),
    "calc_cl": (_calculator(attrgetter("cl")), ("complex", "inst")),
    "calc_r": (_calculator(attrgetter("r")), ("complex", "wrb")),
    "calc_b": (_calculator(attrgetter("b")), ("complex", "wrb")),
    "calc_nabla": (_calculator(attrgetter("ext.b")), ("complex", "nabla")),
    "calc_ker_s": (_calculator(attrgetter("a")), ("complex", "delta1")),
    # the connecting maps: H^-2(X) -> H^-1(R) and H^-2(X) -> H^-1(Cl),
    # and H^-1(Cl) -> H^0(ker s) of the unit sequence
    "delta_rbx": (_connecting(-2), ("rbx", "calc_x", "calc_r", "calc_b")),
    "delta_nabla": (_connecting(-2, attrgetter("ext")),
                    ("nabla", "calc_x", "calc_cl", "calc_nabla")),
    "delta_unit": (_connecting(-1),
                   ("delta1", "calc_cl", "calc_ker_s", "calc_r")),
}


def closure(names):
    """The given artifacts and everything their builders read."""
    out, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in out:
            out.add(name)
            if name in ARTIFACTS:
                todo.extend(ARTIFACTS[name][1])
    return out


class AnalysisContext:
    """The artifacts of one instance, built on first request."""

    def __init__(self, inst, fixture=None, seed=0):
        self._cache = dict(zip(INPUTS, (inst, fixture, seed)))
        self._failed = {}

    def get(self, name):
        if name in self._cache:
            return self._cache[name]
        if name in self._failed:
            raise self._failed[name]
        builder, reads = ARTIFACTS[name]
        try:
            value = builder(*[self.get(r) for r in reads])
        except Exception as exc:
            self._failed[name] = exc
            raise
        self._cache[name] = value
        return value

    def keep_only(self, names):
        """Drop every built or failed artifact not in `names`."""
        for store in (self._cache, self._failed):
            for name in [n for n in store if n not in names]:
                del store[name]


def _check_instance_valid(inst):
    rep = validate_instance(inst)
    return rep.clean, rep.violations or None


def _check_scripth_embedding(sh):
    return sh.embeds, None if sh.embeds else "embedding has a kernel"


def _check_delta1(inst, seed, wrb, d1, calc_cl, calc_k, delta_unit):
    """Representative-independence and the agreement of `delta_unit` with
    the formula on a deterministic sample of norm-killed coefficient
    vectors."""
    ab = inst.cl.underlying
    rng = random.Random(seed * 7919 + 13)
    nu = inst.cl.norm_map()
    aux_ids = [q.id for q in inst.aux_places]
    tried = 0
    for attempt in range(40):
        coeffs = {qid: rng.randrange(-3, 4) for qid in aux_ids}
        if not ab.is_zero(nu.apply(inst.frobenius_sum(coeffs))):
            continue
        ok, wit = delta1_generic_agrees(inst, wrb, d1, calc_cl, calc_k,
                                        delta_unit, coeffs)
        if not ok:
            return False, {"coeffs": coeffs, "witness": wit}
        # second representative of the same class: shift by a kernel
        # vector of the coefficient map and by a boundary preimage
        coeffs2 = dict(coeffs)
        if ab.order() > 1:
            g = rng.randrange(inst.group.order)
            c = ab.random_element(rng)
            bdry = ab.sub(inst.cl.act(g, c), c)
            pre = inst.frobenius_map.solve(bdry)
            if pre is not None:
                for qid, v in zip(aux_ids, pre):
                    coeffs2[qid] = coeffs2.get(qid, 0) + v
                out1 = wit[1]  # the formula value at coeffs
                out2 = delta1(inst, wrb, d1, calc_k, coeffs2)
                if out1 != out2:
                    return False, {"coeffs": coeffs, "coeffs2": coeffs2,
                                   "outputs": (out1, out2)}
        tried += 1
        if tried >= 4:
            break
    if tried == 0:
        return False, "no norm-killed coefficient vector found"
    return True, {"samples": tried}


def _all_ok(records):
    bad = [r for r in records if not r["ok"]]
    return not bad, bad or {"records": len(records)}


def _check_norm_suite(inst, nm, cdc, calc_cl):
    return _all_ok(norm_suite(inst, nm, cdc, calc_cl))


def _check_fixture(inst, fixture, calc_cl, cdc):
    if fixture is None:
        return False, "no fixture supplied"
    return _all_ok(fixture_unit_check(inst, fixture, calc_cl, cdc))


# check id -> (anchor, function, artifacts passed to it in order)
_REGISTRY = {
    "instance.valid": ("instance axioms", _check_instance_valid, ("inst",)),
    "wrb.exact": ("support sequence 0 -> R -> B -> X -> 0 exact",
                  wrb_exact, ("wrb", "rbx")),
    "scripth.embedding": ("class module embeds into the augmentation "
                          "quotient", _check_scripth_embedding,
                          ("script_h",)),
    "scripth.lifts": ("quotient action independent of lift choice",
                      script_h_action_lift_independent,
                      ("inst", "script_h")),
    "snake.aux_units": ("snake of an auxiliary unit is its Frobenius class",
                        snake_of_aux_units, ("inst", "wrb", "snake")),
    "snake.closed_form": ("snake closed form on distinguished elements",
                          snake_closed_form_agrees,
                          ("inst", "wrb", "snake", "calc_cl")),
    "nabla.class": ("pushout extension class equals the snake cocycle "
                    "class", nabla_class_checks,
                    ("inst", "wrb", "snake", "nabla")),
    "delta2.agree": ("connecting map H^-2(X) -> H^-1(Cl) matches the "
                     "section discrepancies", delta_minus2_agrees,
                     ("inst", "xy", "calc_x", "calc_cl", "delta_nabla")),
    "x.h_minus1_zero": ("H^-1(G, X) vanishes", h_minus1_x_vanishes,
                        ("calc_x",)),
    "x.generator_iso": ("decomposition abelianizations present H^-2(X)",
                        homology_generators_iso, ("inst", "xy", "calc_x")),
    "conn.functorial": ("connecting maps commute with the sequence "
                        "morphism", connecting_functorial,
                        ("snake", "calc_x", "calc_r", "calc_cl",
                         "delta_rbx", "delta_nabla")),
    "cdc.inclusions": ("difference subgroup is stable and the kernel "
                       "inclusions hold", cdc_checks,
                       ("inst", "cdc", "norm_model")),
    "delta1.factors": ("first unit connecting map factors through "
                       "H^-1(Cl)", _check_delta1,
                       ("inst", "seed", "wrb", "delta1", "calc_cl",
                        "calc_ker_s", "delta_unit")),
    "norm.suite": ("norm kernel decompositions", _check_norm_suite,
                   ("inst", "norm_model", "cdc", "calc_cl")),
    "fixture.units": ("unit-cocycle fixture assertions", _check_fixture,
                      ("inst", "fixture", "calc_cl", "cdc")),
}

CHECKS = {cid: (anchor, fn) for cid, (anchor, fn, _) in _REGISTRY.items()}
CHECK_READS = {cid: reads for cid, (_, _, reads) in _REGISTRY.items()}

DEFAULT_CHECKS = [k for k in CHECKS if k != "fixture.units"]

CHECK_GROUP_ALIASES = {
    "norm": ["norm.suite", "cdc.inclusions"],
    "snake": ["snake.aux_units", "snake.closed_form"],
    "delta": ["delta2.agree", "conn.functorial"],
    "fixture": ["fixture.units"],
}


def resolve_check_ids(names):
    out = []
    for name in names:
        if name in CHECKS:
            out.append(name)
        elif name in CHECK_GROUP_ALIASES:
            out.extend(CHECK_GROUP_ALIASES[name])
        else:
            raise KeyError(f"unknown check {name!r}; known: "
                           f"{sorted(CHECKS) + sorted(CHECK_GROUP_ALIASES)}")
    seen, uniq = set(), []
    for k in out:
        if k not in seen:
            seen.add(k)
            uniq.append(k)
    return uniq


def select_checks(checks=None, fixture=None):
    """The check ids run_analysis runs, in order."""
    selected = resolve_check_ids(checks) if checks else list(DEFAULT_CHECKS)
    if fixture is not None and "fixture.units" not in selected:
        selected.append("fixture.units")
    return selected


def run_analysis(inst, checks=None, fixture=None, seed=0):
    """Run the selected checks; returns records sorted by check id."""
    selected = select_checks(checks, fixture)
    # still_read[k]: the artifacts that the checks after the k-th reach
    still_read, later = [], set()
    for cid in reversed(selected):
        still_read.append(later)
        later = later | closure(CHECK_READS[cid])
    still_read.reverse()
    ctx = AnalysisContext(inst, fixture=fixture, seed=seed)
    records = []
    for cid, keep in zip(selected, still_read):
        anchor, fn = CHECKS[cid]
        # the clock starts after the fetch: an artifact's build is charged
        # to no check, and a check whose artifact failed to build ran 0 ms
        t0 = None
        try:
            args = [ctx.get(a) for a in CHECK_READS[cid]]
            t0 = time.monotonic()
            ok, witness = fn(*args)
        except Exception as exc:  # surfaced as a failed check with witness
            ok, witness = False, f"{type(exc).__name__}: {exc}"
        wall_ms = 0 if t0 is None else int((time.monotonic() - t0) * 1000)
        ctx.keep_only(keep)
        records.append({
            "id": cid,
            "anchor": anchor,
            "ok": bool(ok),
            "witness": witness,
            "wall_ms": wall_ms,
        })
    records.sort(key=lambda r: r["id"])
    return records

import inspect
import sys
from importlib.resources import files
from types import SimpleNamespace

import pytest

from tatelab import analysis
from tatelab.analysis import (ARTIFACTS, CHECK_READS, CHECKS, DEFAULT_CHECKS,
                              AnalysisContext, closure, run_analysis)
from tatelab.abelian import AbMap, Homology
from tatelab.cft import i2_twist, synth_instance
from tatelab.cohomology import ExtensionData, TateCohomology, TateComplex
from tatelab.instance_io import load_fixture, load_instance
from tatelab.tate_sequence import ImageEscapesCl


def record_requests(monkeypatch):
    """Wrap AnalysisContext.get; returns the list of (ctx, name, value)
    of every request that succeeded."""
    seen = []
    orig = AnalysisContext.get

    def get(ctx, name):
        value = orig(ctx, name)
        seen.append((ctx, name, value))
        return value

    monkeypatch.setattr(AnalysisContext, "get", get)
    return seen


@pytest.mark.parametrize("cid", sorted(CHECKS))
def test_checks_request_only_what_they_declare(cid, monkeypatch):
    seen = record_requests(monkeypatch)
    records = run_analysis(i2_twist(), checks=[cid])
    assert [r["id"] for r in records] == [cid]
    requested = {name for _, name, _ in seen}
    assert set(CHECK_READS[cid]) <= requested
    assert requested <= closure(CHECK_READS[cid])


def test_every_read_is_an_input_or_an_artifact():
    known = set(analysis.INPUTS) | set(ARTIFACTS)
    for _, reads in ARTIFACTS.values():
        assert set(reads) <= known
    assert set(CHECK_READS) == set(CHECKS)
    for reads in CHECK_READS.values():
        assert set(reads) <= known


def test_builders_and_checks_take_what_they_declare():
    """Each builder and check function has one parameter per declared
    read, so nothing reaches it except through the graph."""
    for name, (builder, reads) in ARTIFACTS.items():
        assert len(inspect.signature(builder).parameters) == len(reads), \
            name
    for cid, (_, fn) in CHECKS.items():
        assert len(inspect.signature(fn).parameters) == \
            len(CHECK_READS[cid]), cid


def test_failing_builder_runs_once(monkeypatch):
    calls = []

    def broken_snake(inst, wrb, sh):
        calls.append(1)
        raise ImageEscapesCl("boom")

    monkeypatch.setitem(ARTIFACTS, "snake",
                        (broken_snake, ARTIFACTS["snake"][1]))
    records = run_analysis(i2_twist())
    assert len(calls) == 1
    # the checks that read the snake map, directly or through nabla and
    # ker(s), each fail with the builder's exception as witness
    dependents = {"snake.aux_units", "snake.closed_form", "nabla.class",
                  "delta2.agree", "conn.functorial", "delta1.factors"}
    for r in records:
        if r["id"] in dependents:
            assert (r["ok"], r["witness"]) == (False, "ImageEscapesCl: boom")
        else:
            assert r["ok"], r
    assert {r["id"] for r in records} == set(DEFAULT_CHECKS)


def test_one_calculator_per_shared_module(monkeypatch):
    seen = record_requests(monkeypatch)
    built, complexes = [], []
    orig_init, orig_complex = TateCohomology.__init__, TateComplex.__init__

    def init(calc, complex_, module):
        built.append((complex_, module))
        orig_init(calc, complex_, module)

    def init_complex(cx, group, window):
        complexes.append(cx)
        orig_complex(cx, group, window)

    monkeypatch.setattr(TateCohomology, "__init__", init)
    monkeypatch.setattr(TateComplex, "__init__", init_complex)
    inst = load_instance(str(files("tatelab") / "data" / "sqrt34.json"))
    fixture = load_fixture(str(files("tatelab") / "data" /
                               "sqrt34_units.json"), inst.group)
    records = run_analysis(inst, fixture=fixture)
    assert all(r["ok"] for r in records), records
    art = {name: value for _, name, value in seen}
    shared = {"X": art["xy"].x, "Cl": inst.cl, "R": art["wrb"].r,
              "B": art["wrb"].b, "nabla": art["nabla"].ext.b,
              "ker(s)": art["delta1"].a}
    assert complexes == [art["complex"]]
    assert art["complex"].window == analysis.WINDOW == (-2, 1)
    for label, module in shared.items():
        assert [c for c, m in built if m is module] == [art["complex"]], \
            label


@pytest.mark.parametrize("make", [i2_twist, lambda: synth_instance("S3", 0)],
                         ids=["i2_twist", "S3/0"])
def test_every_homology_is_a_calculator_or_an_exactness_check(make,
                                                              monkeypatch):
    """Every Homology an analysis builds is a Tate cohomology group built
    by TateCohomology.homology, or the middle of a sequence whose
    exactness is checked (ExtensionData); and no complex, by group and
    window, gets two calculators of one module."""
    homes = {TateCohomology.homology.__code__,
             ExtensionData.__init__.__code__}
    strays, built = [], []
    orig_homology, orig_calc = Homology.__init__, TateCohomology.__init__

    def homology_init(h, d_in, d_out):
        code = sys._getframe(1).f_code
        if code not in homes:
            strays.append(getattr(code, "co_qualname", code.co_name))
        orig_homology(h, d_in, d_out)

    def calc_init(calc, complex_, module):
        built.append((complex_.group, complex_.window, module))
        orig_calc(calc, complex_, module)

    monkeypatch.setattr(Homology, "__init__", homology_init)
    monkeypatch.setattr(TateCohomology, "__init__", calc_init)
    records = run_analysis(make())
    assert all(r["ok"] for r in records), records
    assert not strays, strays
    for k, (group, window, module) in enumerate(built):
        for g, w, m in built[:k]:
            assert not (g is group and w == window and m is module), \
                (window, module)


@pytest.mark.parametrize("make", [i2_twist, lambda: synth_instance("S3", 0)],
                         ids=["i2_twist", "S3/0"])
def test_each_sequence_is_proved_exact_once(make, monkeypatch):
    """Outside TateCohomology.homology, one analysis builds exactly three
    Homology groups, all in ExtensionData.__init__: the middle of each of
    its short exact sequences (the support sequence `rbx`, the pushout
    `nabla.ext` and the unit sequence `delta1`), once each."""
    seen = record_requests(monkeypatch)
    proofs = []
    orig_homology = Homology.__init__

    def homology_init(h, d_in, d_out):
        frame = sys._getframe(1)
        if frame.f_code is not TateCohomology.homology.__code__:
            proofs.append((frame.f_code, frame.f_locals.get("self")))
        orig_homology(h, d_in, d_out)

    monkeypatch.setattr(Homology, "__init__", homology_init)
    records = run_analysis(make())
    assert all(r["ok"] for r in records), records
    art = {name: value for _, name, value in seen}
    assert [code for code, _ in proofs] == \
        [ExtensionData.__init__.__code__] * 3
    assert [ext for _, ext in proofs] == \
        [art["rbx"], art["nabla"].ext, art["delta1"]]


@pytest.mark.parametrize("name", ["sqrt34", "D4/0"])
def test_checks_construct_no_calculator(name, monkeypatch):
    """Every calculator a check reads comes from the graph: while a check
    function runs, the only TateCohomology built is that of the unit
    module in fixture.units, which no artifact carries."""
    if name == "sqrt34":
        inst = load_instance(str(files("tatelab") / "data" / "sqrt34.json"))
        fixture = load_fixture(str(files("tatelab") / "data" /
                                   "sqrt34_units.json"), inst.group)
    else:
        inst, fixture = synth_instance("D4", 0), None
    running, built = [None], []
    orig_init = TateCohomology.__init__

    def init(calc, complex_, module):
        if running[0] is not None:
            built.append((running[0], module))
        orig_init(calc, complex_, module)

    monkeypatch.setattr(TateCohomology, "__init__", init)
    for cid, (anchor, fn) in list(CHECKS.items()):
        def spied(*args, _cid=cid, _fn=fn):
            running[0] = _cid
            try:
                return _fn(*args)
            finally:
                running[0] = None
        monkeypatch.setitem(CHECKS, cid, (anchor, spied))
    records = run_analysis(inst, fixture=fixture)
    assert all(r["ok"] for r in records), records
    assert built == ([("fixture.units", fixture[0])] if fixture else [])


def test_calculators_dropped_after_last_reader(monkeypatch):
    seen = record_requests(monkeypatch)
    snapshots = {}
    for cid, (anchor, fn) in list(CHECKS.items()):
        def snap(*args, _cid=cid, _fn=fn):
            snapshots[_cid] = set(seen[0][0]._cache)
            return _fn(*args)
        monkeypatch.setitem(CHECKS, cid, (anchor, snap))
    records = run_analysis(i2_twist())
    assert all(r["ok"] for r in records), records
    ctx = seen[0][0]
    order = list(DEFAULT_CHECKS)
    calcs = [name for name in ARTIFACTS if name.startswith("calc_")]
    for name in calcs:
        readers = [k for k, cid in enumerate(order)
                   if name in closure(CHECK_READS[cid])]
        assert readers, name
        assert name in snapshots[order[readers[-1]]]
        for cid in order[readers[-1] + 1:]:
            assert name not in snapshots[cid], (name, cid)
    assert not ctx._cache and not ctx._failed


def test_artifact_builds_are_charged_to_no_check(monkeypatch):
    # a clock that only the slow builders and the one slow check advance
    now = [0.0]
    monkeypatch.setattr(analysis, "time",
                        SimpleNamespace(monotonic=lambda: now[0]))

    def slow(builder):
        def build(*args):
            now[0] += 5.0
            return builder(*args)
        return build

    for name in ("norm_model", "cdc"):
        builder, reads = ARTIFACTS[name]
        monkeypatch.setitem(ARTIFACTS, name, (slow(builder), reads))
    anchor, suite = CHECKS["norm.suite"]

    def slow_suite(*args):
        now[0] += 0.25
        return suite(*args)

    monkeypatch.setitem(CHECKS, "norm.suite", (anchor, slow_suite))
    records = run_analysis(i2_twist(), checks=["cdc.inclusions",
                                               "norm.suite"])
    assert now[0] == 10.25  # both builds ran, once each
    assert [(r["id"], r["ok"], r["wall_ms"]) for r in records] == \
        [("cdc.inclusions", True, 0), ("norm.suite", True, 250)]


def test_one_analysis_takes_the_kernel_of_nm_once(monkeypatch):
    """A default analysis of D4/0 computes ker(Nm) once, for the norm
    model: the checks that compare subgroups with it share that one
    kernel."""
    build, reads = ARTIFACTS["norm_model"]
    models, kernels = [], []

    def spy_build(inst):
        models.append(build(inst))
        return models[-1]

    kernel = AbMap.kernel

    def spy_kernel(f):
        kernels.append(f)
        return kernel(f)

    monkeypatch.setitem(ARTIFACTS, "norm_model", (spy_build, reads))
    monkeypatch.setattr(AbMap, "kernel", spy_kernel)
    records = run_analysis(synth_instance("D4", 0))
    assert all(r["ok"] for r in records), records
    (nm,) = models
    assert sum(f is nm.nm for f in kernels) == 1

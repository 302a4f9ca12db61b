import hashlib
import json
import subprocess
import sys
import time
from importlib.resources import files

import pytest

from tatelab.cli import main
from tatelab.reporting import Report


def data(name):
    return str(files("tatelab") / "data" / name)


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "tatelab.cli", *args],
                          capture_output=True, text=True)


def test_validate_exit_codes(tmp_path):
    assert main(["validate", data("i2_twist.json")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["validate", str(bad)]) == 2
    # structurally broken table -> exit 1 with a witness
    d = json.loads((files("tatelab") / "data" / "i2_twist.json").read_text())
    d["group"]["table"] = [[0, 1], [0, 1]]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(d))
    assert main(["validate", str(broken)]) == 2  # table fails to parse
    # an instance violating a model axiom parses but fails validation
    d = json.loads((files("tatelab") / "data" / "i2_twist.json").read_text())
    d["aux_places"] = [{"id": "q0", "frobenius_class": [0]}]
    weak = tmp_path / "weak.json"
    weak.write_text(json.dumps(d))
    assert main(["validate", str(weak)]) == 1


def test_analyze_pass_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", data("i2_twist.json"), "--checks",
                 "wrb.exact,snake", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = Report.from_dict(json.loads(out.read_text()))
    assert rep.verdict == "pass"
    ids = [r["id"] for r in rep.records]
    assert ids == sorted(ids)
    assert "snake.closed_form" in ids and "wrb.exact" in ids
    assert all(r["wall_ms"] == 0 for r in rep.records)


def test_analyze_with_fixture(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", data("sqrt34.json"), "--checks", "fixture",
                 "--fixture", data("sqrt34_units.json"),
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = Report.from_dict(json.loads(out.read_text()))
    assert [r["id"] for r in rep.records] == ["fixture.units"]


def test_analyze_errors(capsys):
    assert main(["analyze", "missing.json"]) == 2
    assert main(["analyze", data("i2_twist.json"), "--checks",
                 "norm", "--fixture", "missing-file"]) == 2
    assert main(["analyze", data("i2_twist.json"), "--checks",
                 "not.a.check"]) == 2
    capsys.readouterr()


def test_analyze_has_no_window_option(capsys):
    # the analysis window is fixed at -2..1; the option is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["analyze", data("i2_twist.json"), "--window=-2..1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--window" in captured.err and captured.out == ""


def test_selftest_empty_and_unknown(capsys):
    # a campaign that would check nothing is an operational error, not a pass
    for seeds in ("0", "-3"):
        assert main(["selftest", "--groups", "C2", "--seeds", seeds]) == 2
        assert "--seeds" in capsys.readouterr().err
    assert main(["selftest", "--groups", "NoSuch", "--seeds", "1"]) == 2
    capsys.readouterr()


def test_selftest_without_groups_is_an_error(capsys):
    # a group list that names no group would run no check: never a pass
    for groups in (",", ""):
        assert main(["selftest", "--groups", groups, "--seeds", "1"]) == 2
        captured = capsys.readouterr()
        assert "names no group" in captured.err and captured.out == ""


@pytest.mark.parametrize("value", ["abc", "0", "-1", ""])
def test_selftest_rejects_bad_workers(value, monkeypatch, capsys):
    monkeypatch.setenv("TATELAB_WORKERS", value)
    assert main(["selftest", "--groups", "C2", "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert "TATELAB_WORKERS" in captured.err
    assert captured.out == ""


def test_selftest_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run_cli(["selftest", "--groups", "C2", "--seeds", "2",
                  "--out", str(out1)])
    r2 = run_cli(["selftest", "--groups", "C2", "--seeds", "2",
                  "--out", str(out2)])
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = Report.from_dict(json.loads(out1.read_text()))
    assert rep.meta["totals"]
    for counts in rep.meta["totals"].values():
        assert counts["fail"] == 0


# sha256 of the `selftest --seeds N` report; a change that keeps the
# analysis the same keeps these bytes; `--seeds 2` adds the seed-1
# instances of every catalog group
SELFTEST_SHA256 = {
    "1": ("411e4550523aa8e385428c9631d65c6a"
          "a741f31f49bcb49639ed166158ad2869"),
    "2": ("0a0c9802b14a77d675f94268799fe2e5"
          "ddddfe32982704d7b4e7f89eb33b4a9a"),
    # 7 catalog groups x 15 seeds: norm.suite and cdc.inclusions on every
    # catalog group
    "15": ("24bb93a6a0a887d88b308c47a1b3ed21"
           "c69f500b594fae9fb62c24365976f86b"),
}


@pytest.mark.parametrize("seeds", sorted(SELFTEST_SHA256))
def test_selftest_report_bytes_are_pinned(seeds, tmp_path, monkeypatch,
                                          capsys):
    monkeypatch.delenv("TATELAB_WORKERS", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["selftest", "--seeds", seeds, "--out", "report.json"]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes())
    assert digest.hexdigest() == SELFTEST_SHA256[seeds]


# sha256 of `analyze sqrt34.json --fixture sqrt34_units.json`; the fixture
# check decides coboundaries through AbMap.solve
SQRT34_FIXTURE_SHA256 = ("e219e50c13704010499cb1e1e4ca9e20"
                         "bfd3c0391f312cbb2d917d866ee988d8")


def test_fixture_report_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", data("sqrt34.json"), "--fixture",
                 data("sqrt34_units.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        SQRT34_FIXTURE_SHA256


# sha256 of `analyze` on the two worked instances; W/R/B, the snake map
# and nabla all feed these reports
WORKED_INSTANCE_SHA256 = {
    "i2_twist.json": ("262da1fd83fdba49458ca3b50d12cc9f"
                      "9a5364efef08a55433dad1c90f2de79a"),
    "i2_plain.json": ("a7446ac52a510d2c48826f593ce35e53"
                      "603abf337cf6976ddc684d97c905200c"),
}


@pytest.mark.parametrize("name", sorted(WORKED_INSTANCE_SHA256))
def test_worked_instance_report_bytes_are_pinned(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", data(name), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        WORKED_INSTANCE_SHA256[name]


# sha256 of the `validate` reports of the shipped instances and of one
# instance that parses but breaks an axiom (exit 1): its auxiliary
# Frobenius classes do not generate the class module
VALIDATE_SHA256 = {
    "i2_twist.json": (0, "4dec427cb23cce58072314e7ac766840"
                         "8f385af5419d21b04199b8cd05b0e4dc"),
    "i2_plain.json": (0, "36d1eb2294689bb1d38ea7647ea1369a"
                         "a51881aab27dee941b37bb91254e33fc"),
    "sqrt34.json": (0, "23cd867bfa435876dfbd0c8ce8da5e16"
                       "7b1166109f88e8da19dfb0b424f7b3f9"),
    "weak.json": (1, "98d369dba15eb6ab8f77db14373b9489"
                     "0b7b09a2cf36bd4bbf68422f489288e3"),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_SHA256))
def test_validate_report_bytes_are_pinned(name, tmp_path, capsys):
    path = data(name)
    if name == "weak.json":
        d = json.loads((files("tatelab") / "data" /
                        "i2_twist.json").read_text())
        d["aux_places"] = [{"id": "q0", "frobenius_class": [0]}]
        path = tmp_path / name
        path.write_text(json.dumps(d))
    out = tmp_path / "report.json"
    code = main(["validate", str(path), "--out", str(out)])
    capsys.readouterr()
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == \
        VALIDATE_SHA256[name]


def test_validate_rejects_negative_kappa(tmp_path, capsys):
    d = json.loads((files("tatelab") / "data" / "i2_twist.json").read_text())
    d["kappa"] = [-3]
    bad = tmp_path / "neg.json"
    bad.write_text(json.dumps(d))
    assert main(["validate", str(bad)]) == 2
    assert "kappa: element index -3 is outside 0..3" in capsys.readouterr().err


def test_oversized_class_module_is_rejected_quickly(tmp_path, capsys):
    d = json.loads((files("tatelab") / "data" / "i2_twist.json").read_text())
    d["cl"]["invariant_factors"] = [10 ** 6]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(d))
    start = time.perf_counter()
    assert main(["validate", str(big)]) == 2
    assert main(["analyze", str(big)]) == 2
    assert time.perf_counter() - start < 5
    assert "kappa cannot be injective" in capsys.readouterr().err


def test_report_round_trip_and_text(tmp_path):
    code = main(["analyze", data("i2_plain.json"), "--checks", "wrb.exact",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    text = (tmp_path / "r.json").read_text()
    rep = Report.from_dict(json.loads(text))
    assert rep.to_json() == text
    rendered = rep.to_text()
    assert "wrb.exact" in rendered and "pass" in rendered


def test_text_format(capsys):
    code = main(["analyze", data("i2_twist.json"), "--checks", "wrb.exact",
                 "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("analyze report")


def test_every_check_id_has_one_anchor():
    from tatelab.analysis import CHECKS
    anchors = [anchor for anchor, _ in CHECKS.values()]
    assert all(isinstance(a, str) and a for a in anchors)
    assert len(set(CHECKS)) == len(CHECKS)
    # report records carry exactly the registered anchor
    code = main(["analyze", data("i2_plain.json"), "--checks", "wrb.exact"])
    assert code == 0


def test_parallel_selftest_matches_sequential(tmp_path):
    out1, out2 = tmp_path / "seq.json", tmp_path / "par.json"
    r1 = run_cli(["selftest", "--groups", "C2,C3", "--seeds", "1",
                  "--out", str(out1)])
    assert r1.returncode == 0
    import os
    env = dict(**os.environ, TATELAB_WORKERS="2")
    r2 = subprocess.run([sys.executable, "-m", "tatelab.cli", "selftest",
                         "--groups", "C2,C3", "--seeds", "1",
                         "--out", str(out2)],
                        capture_output=True, text=True, env=env)
    assert r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()

"""Command-line behavior: subcommands, exit codes, determinism."""

import gc
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
import warnings

import pytest

import fmlab
from fmlab.cli import main
from fmlab.formats import MAX_FORMULA_DEPTH, MAX_UNIVERSE

P3 = """signature: R/2
universe: 3
relation R: (0,1) (1,0) (1,2) (2,1)
set A: (1) (2)
seq I: (0) (1) (2)
"""

EMPTY5 = """signature: R/2
universe: 5
relation R:
set A: (0)
seq I: (1) (2) (3)
submodel M0: 0 1
submodel M1: 0 1 2
submodel M2: 0 1 3
"""

EDGE_FML = "phi(x0; y0) := R(x0,y0)"


@pytest.fixture
def p3_files(tmp_path):
    s = tmp_path / "p3.fm"
    s.write_text(P3)
    f = tmp_path / "edge.fml"
    f.write_text(EDGE_FML)
    return str(s), str(f)


@pytest.fixture
def empty5_files(tmp_path):
    s = tmp_path / "empty5.fm"
    s.write_text(EMPTY5)
    f = tmp_path / "edge.fml"
    f.write_text(EDGE_FML)
    return str(s), str(f)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_detect_independence(p3_files, capsys):
    s, f = p3_files
    code, out = run(capsys, ["detect", "--structure", s, "--formula", f,
                             "--property", "independence", "--k", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["fmlab_report"] == 1
    assert report["config"]["k"] == 2
    assert report["outcome"] in ("witness", "none")


def test_detect_unknown_flag_is_usage_error(p3_files, capsys):
    s, f = p3_files
    code, _ = run(capsys, ["detect", "--structure", s, "--badflag"])
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code, _ = run(capsys, ["detect", "--structure", "/nonexistent.fm",
                           "--formula", "/nonexistent.fml",
                           "--property", "order"])
    assert code == 2


def test_unreadable_input_is_one_error_line(p3_files, tmp_path, capsys):
    # a directory and bytes that are not UTF-8 once ended in a traceback
    s, f = p3_files
    undecodable = tmp_path / "undecodable.fm"
    undecodable.write_bytes(P3.encode() + b"# \xff\n")
    for structure, reason in ((tmp_path, "Is a directory"),
                              (undecodable, "can't decode byte 0xff")):
        assert main(["detect", "--structure", str(structure), "--formula", f,
                     "--property", "independence", "--k", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and reason in err
        assert err.startswith(f"error: cannot read --structure file {structure}: ")
    main(["detect", "--structure", str(tmp_path / "absent.fm"), "--formula", f,
          "--property", "independence", "--k", "1"])
    assert capsys.readouterr().err == f"missing file: {tmp_path / 'absent.fm'}\n"


def test_line_ends_are_read_as_in_text_mode(tmp_path, capsys):
    # \r\n and a lone \r end a line, so positions do not move
    s = tmp_path / "p3.fm"
    s.write_text(P3)
    errors = []
    for end in ("\n", "\r\n", "\r"):
        f = tmp_path / "bad.fml"
        f.write_bytes(("phi(x0; y0) :=" + end + "  R(x0,$)" + end).encode())
        assert main(["detect", "--structure", str(s), "--formula", str(f),
                     "--property", "order", "--n", "2"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["parse error: 2:8: unexpected character '$'\n"] * 3


def test_parse_error_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.fm"
    bad.write_text("universe: 2\n")
    f = tmp_path / "edge.fml"
    f.write_text(EDGE_FML)
    code, _ = run(capsys, ["detect", "--structure", str(bad), "--formula",
                           str(f), "--property", "order"])
    assert code == 2


def test_experiment_coupon(capsys):
    code, out = run(capsys, ["experiment", "coupon", "--n", "2", "--m", "2"])
    assert code == 0
    assert '"q":"1/2"' in out


def test_experiment_trend_csv(capsys):
    code, out = run(capsys, ["experiment", "thmg1", "--k-list", "2",
                             "--trials", "50", "--seed", "3",
                             "--format", "csv"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("k,n,trials,estimate")
    assert row.startswith("2,5,50,")


def test_types_verify_bound_exit_codes(p3_files, capsys):
    s, f = p3_files
    code, _ = run(capsys, ["types", "verify-independence-bound",
                           "--structure", s, "--formula", f, "--set", "A",
                           "--k", "2"])
    assert code == 0
    # k = 1 on a structure with 1-independence: hypothesis fails, exit 1
    code, _ = run(capsys, ["types", "verify-independence-bound",
                           "--structure", s, "--formula", f, "--set", "A",
                           "--k", "1"])
    assert code == 1


def test_types_shatter(capsys):
    code, out = run(capsys, ["types", "shatter", "--member", "0,1",
                             "--member", "0", "--member", "1", "--member", "",
                             "--k", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["found"] is True and report["verified"] is True


def test_types_shatter_reports_a_spent_budget(capsys, monkeypatch):
    monkeypatch.setenv("FMLAB_BUDGET", "0")
    family = ["--member", "0,1", "--member", "0", "--member", "1", "--member", ""]
    code, out = run(capsys, ["types", "shatter", *family, "--k", "2"])
    report = json.loads(out)
    assert code == 0 and report["found"] == "budget" and "witness" not in report
    # no k-subset exists, so no node is spent and the search is exhausted
    code, out = run(capsys, ["types", "shatter", *family, "--k", str(10 ** 12)])
    assert code == 0 and json.loads(out)["found"] is False


def test_negative_budget_is_a_usage_error(p3_files, capsys, monkeypatch):
    s, f = p3_files
    monkeypatch.setenv("FMLAB_BUDGET", "-5")
    code = main(["detect", "--structure", s, "--formula", f,
                 "--property", "independence", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: FMLAB_BUDGET is negative: '-5'\n"


def test_indisc_check_and_extract(p3_files, capsys):
    s, f = p3_files
    code, out = run(capsys, ["indisc", "check", "--structure", s,
                             "--formula", f, "--seq", "I", "--m", "1",
                             "--set", "A"])
    assert code in (0, 1)
    code, out = run(capsys, ["indisc", "bounds", "--fn", "beth", "--i", "2",
                             "--x", "2"])
    assert json.loads(out)["value"] == 16


def test_extract_end_refuses_a_negative_length(p3_files, capsys):
    s, f = p3_files
    argv = ["indisc", "extract-end", "--structure", s, "--formula", f,
            "--seq", "I", "--set", "A", "--m", "1", "--k"]
    code = main(argv + ["-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    code, out = run(capsys, argv + ["0"])
    assert code == 0
    assert json.loads(out)["sequence"] == []


def _spy(monkeypatch, module, name):
    # wrap a checker as the module calls it, recording each call's arguments
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **kw: calls.append((a, kw)) or real(*a, **kw))
    return calls


G6 = """signature: R/2
universe: 6
relation R: (0,1) (1,0) (1,2) (2,1) (3,4) (4,3)
set A: (5)
seq I: (0) (1) (2) (3) (4) (5)
"""


def test_indisc_extract_reports_its_check(tmp_path, monkeypatch, capsys):
    s, f = tmp_path / "g6.fm", tmp_path / "pair.fml"
    s.write_text(G6)
    f.write_text("phi(x0,x1; y0) := R(x0,x1)")
    calls = _spy(monkeypatch, fmlab.indisc, "check_indiscernible")
    code, out = run(capsys, ["indisc", "extract", "--structure", str(s),
                             "--formula", str(f), "--seq", "I", "--set", "A",
                             "--m", "2", "--k", "3"])
    report = json.loads(out)
    assert code == 0 and report["verified"] is True
    assert report["sequence"] == [[0], [2], [4]]
    assert len(calls) == 1 and calls[-1][1] == {"mode": "sequence"}
    assert [list(t) for t in calls[-1][0][0]] == report["sequence"]


def test_indisc_extract_end_reports_its_check(p3_files, monkeypatch, capsys):
    s, f = p3_files
    calls = _spy(monkeypatch, fmlab.indisc, "check_indiscernible")
    argv = ["indisc", "extract-end", "--structure", s, "--formula", f,
            "--seq", "I", "--set", "A", "--m", "1"]
    code, out = run(capsys, argv)
    report = json.loads(out)
    assert code == 0 and report["verified"] is True
    assert report["sequence"] == [[0], [2]]
    assert len(calls) == 1 and calls[-1][1] == {"mode": "end"}
    assert [list(t) for t in calls[-1][0][0]] == report["sequence"]
    # an empty extraction has no selection to check: vacuously verified
    calls.clear()
    code, out = run(capsys, argv + ["--k", "0"])
    assert code == 0 and json.loads(out)["verified"] is True and calls == []


def test_ramsey_arrow_exit_codes(capsys):
    code, _ = run(capsys, ["ramsey", "arrow", "--x", "6", "--y", "3",
                           "--a", "2", "--b", "2"])
    assert code == 0
    code, _ = run(capsys, ["ramsey", "arrow", "--x", "5", "--y", "3",
                           "--a", "2", "--b", "2"])
    assert code == 1


def test_ramsey_arrow_without_y_subsets_is_refuted(capsys):
    code, out = run(capsys, ["ramsey", "arrow", "--x", "2", "--y", "3",
                             "--a", "5", "--b", "2"])
    assert code == 1
    assert json.loads(out)["holds"] is False


@pytest.mark.parametrize("argv", [
    ["detect", "--property", "splitting", "--object", "0,1"],
    ["detect", "--property", "splitting", "--object", "0,x"],
    ["types", "shatter", "--member", "0,x", "--k", "1"],
    ["experiment", "thmg1", "--k-list", "2,x", "--trials", "10"],
])
def test_malformed_tuple_flags_are_usage_errors(p3_files, capsys, argv):
    if argv[0] == "detect":
        s, f = p3_files
        argv = argv[:1] + ["--structure", s, "--formula", f] + argv[1:]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_classify_good_and_symmetry(empty5_files, capsys):
    s, f = empty5_files
    code, out = run(capsys, ["classify", "good", "--structure", s,
                             "--formula", f, "--n", "1", "--d", "2"])
    assert code == 0
    assert json.loads(out)["result"]["good"] is True
    code, out = run(capsys, ["classify", "symmetry", "--structure", s,
                             "--formula", f, "--set", "A", "--n", "1",
                             "--d", "2", "--k", "1"])
    assert code == 0
    assert json.loads(out)["symmetric"] is True


def test_ramsey_homogeneous_cli(tmp_path, capsys):
    # an empty 3-uniform relation: any triple comes back tagged empty
    s = tmp_path / "h.fm"
    s.write_text("signature: R/3\nuniverse: 8\nrelation R:\n")
    code, out = run(capsys, ["ramsey", "homogeneous", "--structure", str(s),
                             "--n", "2", "--k", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["tag"] == "empty" and len(report["vertices"]) == 3


def test_ramsey_homogeneous_on_a_unary_relation(tmp_path, capsys):
    # R/1 once raised "need r >= 1 and n >= 0" building a 0-graph and
    # exited 2; three marked vertices of seven: the four unmarked win
    s = tmp_path / "unary.fm"
    s.write_text("signature: R/1\nuniverse: 7\nrelation R: (1) (4) (5)\n")
    code, out = run(capsys, ["ramsey", "homogeneous", "--structure", str(s),
                             "--k", "3"])
    report = json.loads(out)
    assert code == 0 and report["verified"] is True
    assert (report["vertices"], report["tag"]) == ([0, 2, 3], "empty")


def test_ramsey_homogeneous_reports_its_check(tmp_path, monkeypatch, capsys):
    # a complete 3-uniform relation on 6 vertices: a complete 4-set
    s = tmp_path / "k6.fm"
    triples = " ".join(f"({a},{b},{c})" for a in range(6) for b in range(6)
                       for c in range(6) if len({a, b, c}) == 3)
    s.write_text(f"signature: R/3\nuniverse: 6\nrelation R: {triples}\n")
    calls = _spy(monkeypatch, fmlab.cli, "verify_homogeneous")
    code, out = run(capsys, ["ramsey", "homogeneous", "--structure", str(s),
                             "--n", "2", "--k", "4"])
    report = json.loads(out)
    assert code == 0 and report["verified"] is True
    assert report["tag"] == "complete" and len(report["vertices"]) == 4
    assert len(calls) == 1
    _, vertices, tag = calls[0][0]
    assert sorted(vertices) == report["vertices"] and tag == "complete"


def test_detect_splitting_reports_its_check(p3_files, monkeypatch, capsys):
    # the type of 0 over A = {1, 2} in P3 holds R at 1 and not at 2: a split
    # over the empty base, where 1 and 2 have equal types, but none over A
    s, f = p3_files
    calls = _spy(monkeypatch, fmlab.cli, "verify_split")
    argv = ["detect", "--structure", s, "--formula", f, "--property",
            "splitting", "--object", "0"]
    code, out = run(capsys, argv)
    report = json.loads(out)
    assert code == 0 and report["splits"] is True and report["verified"] is True
    assert report["witness"]["b"] == [1] and report["witness"]["c"] == [2]
    _, _, B, delta0, delta1, _ = calls[0][0]
    assert len(calls) == 1 and B == [] and delta0 == delta1
    code, out = run(capsys, argv + ["--base-set", "A"])
    report = json.loads(out)
    assert code == 0 and report["splits"] is False
    assert "verified" not in report and len(calls) == 1


def test_classify_kappa(empty5_files, capsys):
    s, f = empty5_files
    code, out = run(capsys, ["classify", "kappa", "--structure", s,
                             "--formula", f, "--n", "1", "--max-len", "3"])
    assert code == 0
    assert json.loads(out)["result"]["kappa"] == 1


def test_classify_kappa_reports_a_spent_budget(tmp_path, capsys, monkeypatch):
    s = tmp_path / "empty_r3.fm"
    s.write_text("signature: R/3\nuniverse: 4\nrelation R:\n")
    f = tmp_path / "r3.fml"
    f.write_text("phi(x0; y0,y1) := R(x0,y0,y1)")
    monkeypatch.setenv("FMLAB_BUDGET", "1000")
    code, out = run(capsys, ["classify", "kappa", "--structure", str(s),
                             "--formula", str(f), "--n", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "budget"
    assert report["result"] == {"nodes": 1001}


@pytest.mark.parametrize("command,options", [
    (["types", "count"], ["--set", "B"]),
    (["detect"], ["--property", "splitting", "--params-set", "B"]),
    (["detect"], ["--property", "splitting", "--base-set", "B"]),
    (["indisc", "check"], ["--seq", "J"]),
    (["classify", "prec"], ["--submodels", "M9"]),
])
def test_unknown_section_name_is_usage_error(empty5_files, capsys, command,
                                             options):
    s, f = empty5_files
    code = main(command + ["--structure", s, "--formula", f] + options)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: no ") and "named" in err


@pytest.mark.parametrize("action", ["amalgam", "symmetry"])
def test_amalgamation_with_two_submodels_is_usage_error(empty5_files, capsys,
                                                        action):
    s, f = empty5_files
    code = main(["classify", action, "--structure", s, "--formula", f,
                 "--submodels", "M0,M1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: classify " + action)


def test_bound_without_target_length_is_usage_error(capsys):
    code = main(["indisc", "bounds", "--fn", "fstar", "--j", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: --fn fstar needs --k\n"


def test_estimates_without_target_length_is_usage_error(capsys):
    # this once died with a TypeError traceback inside the estimate
    code = main(["indisc", "bounds", "--fn", "estimates", "--case", "2",
                 "--p-or-n", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --fn estimates needs --k\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trend_with_fewer_than_one_trial_is_usage_error(capsys, trials):
    code = main(["experiment", "thmg1", "--k-list", "2", "--trials", trials])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: trials must be >= 1\n"


@pytest.mark.parametrize("command", [
    ["classify", "kappa"], ["classify", "good"], ["classify", "average"],
    ["classify", "prec"], ["classify", "amalgam"], ["classify", "symmetry"],
    ["indisc", "check"], ["indisc", "extract-end"], ["indisc", "extract"],
    ["ramsey", "homogeneous"],
])
def test_missing_structure_is_usage_error(p3_files, capsys, command):
    _, f = p3_files
    formula = [] if command[0] == "ramsey" else ["--formula", f]
    code = main(command + formula)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --structure is required")


def test_missing_formula_is_usage_error(p3_files, capsys):
    s, _ = p3_files
    code = main(["indisc", "check", "--structure", s])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --formula is required")


@pytest.mark.parametrize("argv", [
    ["--fn", "fstar", "--growth", "worst", "--growth-m", "3", "--r", "5",
     "--alpha", "10", "--k", "100", "--j", "98"],
    ["--fn", "g", "--growth", "worst", "--growth-m", "3", "--alpha", "5000",
     "--k", "10", "--i", "1", "--x", "5"],
])
def test_oversized_bound_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code = main(["indisc", "bounds"] + argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "exceeds the size guard" in capsys.readouterr().err


def test_constant_growth_bound_is_refused_at_once(capsys):
    # a million doubling steps, summed in closed form; the value is past
    # what the report can print
    start = time.perf_counter()
    code = main(["indisc", "bounds", "--fn", "g", "--growth", "const",
                 "--growth-c", "2", "--k", "10", "--i", "1", "--x", "1000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "digits" in capsys.readouterr().err


def test_delta_star_closes_the_formula_file(p3_files, capsys):
    _, f = p3_files
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["classify", "delta-star", "--formula", f, "--n", "1"])
        gc.collect()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_byte_identical_reports(p3_files, capsys):
    s, f = p3_files
    argvs = [
        ["detect", "--structure", s, "--formula", f, "--property",
         "independence", "--k", "2"],
        ["experiment", "independence-mc", "--n", "6", "--k", "2",
         "--trials", "40", "--seed", "11"],
        ["experiment", "thmg1", "--k-list", "2,3", "--trials", "30",
         "--seed", "5"],
        ["classify", "delta-star", "--formula", f, "--n", "1"],
    ]
    for argv in argvs:
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second
        _, threaded = run(capsys, argv + ["--threads", "4"])
        # the threads flag shows up in the echoed config but nowhere else
        assert json.loads(threaded)["config"]["threads"] == 4
        a = json.loads(first)
        b = json.loads(threaded)
        a["config"].pop("threads")
        b["config"].pop("threads")
        assert a == b


def _fill(argv, s, f):
    return [{"S": s, "F": f}.get(a, a) for a in argv]


@pytest.mark.parametrize("argv", [
    ["indisc", "extract", "--structure", "S", "--formula", "F", "--m", "1",
     "--mode", "set"],
    ["classify", "kappa", "--structure", "S", "--formula", "F", "--d", "3"],
    ["ramsey", "arrow", "--x", "6", "--y", "3", "--k", "3"],
    ["experiment", "coupon", "--n", "2", "--m", "2", "--trials", "5"],
    ["types", "count", "--structure", "S", "--formula", "F", "--k", "2"],
    ["types", "--format", "text", "shatter", "--member", "0", "--k", "1"],
    # a flag the action does not read is no abbreviation of one it does
    ["experiment", "thmg1", "--k", "3"],
    ["ramsey", "homogeneous", "--structure", "S", "--r", "3"],
])
def test_flag_the_action_does_not_read_is_usage_error(p3_files, capsys, argv):
    code = main(_fill(argv, *p3_files))
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,flags", [
    (["types", "shatter", "--member", "0", "--k", "1"], {"member", "k"}),
    (["indisc", "bounds", "--fn", "beth", "--i", "1", "--x", "2"],
     {"fn", "growth", "growth_m", "growth_p", "growth_c", "alpha", "r", "m",
      "k", "j", "i", "x", "case", "p_or_n", "s", "t"}),
    (["ramsey", "arrow", "--x", "6", "--y", "3"], {"x", "y", "a", "b"}),
    (["experiment", "coupon", "--n", "2", "--m", "2"], {"n", "m"}),
    (["classify", "good", "--structure", "S", "--formula", "F"],
     {"structure", "formula", "n", "d"}),
])
def test_config_echoes_exactly_the_action_flags(empty5_files, capsys, argv,
                                                flags):
    code, out = run(capsys, _fill(argv, *empty5_files))
    assert code == 0
    assert set(json.loads(out)["config"]) == flags | {
        "command", "action", "format", "seed", "threads"}


def test_each_action_registers_only_its_own_options():
    import argparse
    from fmlab.cli import build_parser

    def options(parser):
        own = [s for a in parser._actions for s in a.option_strings
               if s not in ("-h", "--help")]
        subs = [sp for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)
                for sp in a.choices.values()]
        return own + [s for sp in subs for s in options(sp)]

    root = build_parser()
    assert len(options(root)) == 186
    groups = next(a for a in root._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
    assert [s for a in groups["types"]._actions
            for s in a.option_strings] == ["-h", "--help"]


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("argv", [
    ["types", "verify-independence-bound", "--structure", "S", "--formula",
     "F", "--set", "A", "--k", "10000"],
    ["experiment", "coupon", "--n", "20000", "--m", "3"],
    ["indisc", "bounds", "--fn", "beth", "--i", "1", "--x", "20000"],
])
def test_report_value_too_long_to_print_is_usage_error(tmp_path, capsys, argv):
    # 4^9999 has 6,020 digits, 2^20000 has 6,021: past Python's default 4,300
    s = tmp_path / "s4.fm"
    s.write_text("signature: R/2\nuniverse: 4\nrelation R: (0,1) (1,0)\n"
                 "set A: (0) (1) (2) (3)\n")
    f = tmp_path / "edge.fml"
    f.write_text(EDGE_FML)
    code = main(_fill(argv, str(s), str(f)))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "digits" in captured.err


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="the cases sit around Python's default 4,300-digit limit")
def test_independence_bound_refuses_exactly_the_rhs_that_cannot_print(tmp_path, capsys):
    # on an 8-element A, rhs = 8^(k-1): 3,612 digits at k = 4000 prints,
    # 4,334 at k = 4800 is built and refused, and k = 300000 is refused
    # before it is built; 4 bits per factor would refuse k = 4000 too
    s = tmp_path / "s8.fm"
    s.write_text("signature: R/2\nuniverse: 8\nrelation R: (0,1) (1,0)\nset A: "
                 + " ".join(f"({i})" for i in range(8)) + "\n")
    f = tmp_path / "edge.fml"
    f.write_text(EDGE_FML)
    argv = ["types", "verify-independence-bound", "--structure", str(s),
            "--formula", str(f), "--set", "A", "--k"]
    code, out = run(capsys, argv + ["4000"])
    assert code == 0 and json.loads(out)["report"]["rhs"] == 8 ** 3999
    for k in ("4800", "300000"):
        assert main(argv + [k]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "digits" in captured.err


def test_deep_formula_is_a_usage_error_and_the_limit_runs(tmp_path, capsys):
    s = tmp_path / "p3.fm"
    s.write_text(P3)
    f = tmp_path / "deep.fml"
    f.write_text("phi(x0; y0) := " + "(" * 600 + "R(x0,y0)" + ")" * 600)
    argv = ["detect", "--structure", str(s), "--formula", str(f),
            "--property", "independence", "--k", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("parse error: 1:216: parentheses nested deeper than "
                            f"{MAX_FORMULA_DEPTH} levels\n")
    # a chain at the limit nests its syntax tree that deep, and every walker
    # the search runs (compiler, evaluator, hashing) stays inside the stack
    f.write_text("phi(x0; y0) := " + " & ".join(["R(x0,y0)"] * (MAX_FORMULA_DEPTH + 1)))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "witness"


def test_universe_past_the_ceiling_is_a_usage_error(tmp_path, capsys):
    s = tmp_path / "huge.fm"
    s.write_text("signature: R/2\nuniverse: 10000000000\n")
    f = tmp_path / "edge.fml"
    f.write_text(EDGE_FML)
    code = main(["detect", "--structure", str(s), "--formula", str(f),
                 "--property", "independence", "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"parse error: 2:10: universe must be at most {MAX_UNIVERSE}\n"


def test_k_past_every_combination_is_none_at_once(tmp_path, capsys):
    # no k-combination of 3 objects or 2 members exists, and the search must
    # say so without building a number of 2^k bits
    s = tmp_path / "p3.fm"
    s.write_text(P3)
    f = tmp_path / "edge.fml"
    f.write_text(EDGE_FML)
    k = str(10 ** 12)
    assert main(["detect", "--structure", str(s), "--formula", str(f),
                 "--property", "independence", "--k", k]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "none"
    assert main(["types", "shatter", "--member", "0,1", "--member", "1", "--k", k]) == 0
    assert json.loads(capsys.readouterr().out)["found"] is False


def test_runaway_inputs_end_in_one_error_line_under_a_memory_cap(p3_files, tmp_path):
    # each command once ended in a MemoryError, OverflowError or
    # RecursionError traceback, or ran for minutes; a subprocess under a 1 GB
    # address-space cap and a 10 s timeout lets a regression fail safely
    s, f = p3_files
    many = tmp_path / "many.fm"
    many.write_text("signature: R/2 " + " ".join(f"R{i}/2" for i in range(1, 2000))
                    + f"\nuniverse: {MAX_UNIVERSE}\n")
    one = tmp_path / "one.fm"
    one.write_text(f"signature: R/2\nuniverse: {MAX_UNIVERSE}\nrelation R: (0,1) (1,0)\n")
    twelve = tmp_path / "twelve.fm"
    twelve.write_text("signature: R/2\nuniverse: 12\nrelation R: (0,1) (1,0)\nset A: "
                      + " ".join(f"({i})" for i in range(12)) + "\n")
    undecodable = tmp_path / "undecodable.fm"
    undecodable.write_bytes(b"signature: R/2\nuniverse: 2\nrelation R: (0,1) \xff\n")
    refused = [
        # an input that is a directory, or not UTF-8, once ended in a traceback
        ["detect", "--structure", str(tmp_path), "--formula", f,
         "--property", "independence", "--k", "1"],
        ["detect", "--structure", str(undecodable), "--formula", f,
         "--property", "independence", "--k", "1"],
        # once answered with "rhs": null, while --k 5000 was refused
        ["types", "verify-independence-bound", "--structure", str(twelve),
         "--formula", f, "--set", "A", "--k", "300000"],
        ["types", "verify-order-bound", "--structure", s, "--formula", f,
         "--set", "A", "--n", "100000"],
        ["indisc", "bounds", "--fn", "estimates", "--case", "4", "--m", "1",
         "--k", "1", "--p-or-n", "10", "--s", "10", "--t", "1000000000"],
        ["indisc", "bounds", "--fn", "g", "--i", "5000", "--x", "5000", "--k", "10"],
        ["indisc", "bounds", "--fn", "g", "--growth", "poly", "--growth-p", "1",
         "--i", "3", "--x", "3", "--k", "10"],
        ["indisc", "bounds", "--fn", "fstar", "--growth", "poly", "--growth-p", "1",
         "--k", "1000000", "--j", "999990"],
        ["indisc", "bounds", "--fn", "g", "--growth", "poly", "--growth-p", "1",
         "--alpha", "3", "--r", "0", "--i", "1", "--x", "1500000", "--k", "10"],
        ["indisc", "bounds", "--fn", "g", "--growth", "poly", "--growth-p", "-1",
         "--k", "8", "--i", "1", "--x", "4"],
        ["indisc", "bounds", "--fn", "fstar", "--growth", "worst", "--growth-m", "-1",
         "--k", "8", "--j", "5"],
        ["indisc", "bounds", "--fn", "fstar", "--growth", "const", "--growth-c", "-3",
         "--k", "8", "--j", "5"],
        ["ramsey", "compare-bounds", "--r", "3", "--n", "1", "--k", "10000000000"],
        ["experiment", "independence-mc", "--n", "200", "--k", "150", "--trials", "1"],
        ["experiment", "thmg1", "--k-list", "2000", "--trials", "1"],
        ["experiment", "coupon", "--n", "1000000000000", "--m", "2"],
        ["experiment", "coupon", "--n", "3000000", "--m", "2"],
        ["detect", "--structure", str(many), "--formula", f,
         "--property", "independence", "--k", "1"],
        ["classify", "delta-star", "--formula", f, "--n", "30"],
    ]
    answered = [
        ["experiment", "coupon", "--n", "1000000000000", "--m", "1"],
        ["detect", "--structure", str(one), "--formula", f,
         "--property", "independence", "--k", "1"],
    ]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fmlab.__file__).parents[1]))

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def fmlab_cli(argv):
        return subprocess.run([sys.executable, "-m", "fmlab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=10,
                              preexec_fn=capped)

    for argv in refused:
        got = fmlab_cli(argv)
        assert got.returncode == 2 and got.stdout == "", (argv, got.stderr[-300:])
        assert got.stderr.count("\n") == 1 and "error: " in got.stderr, argv
    got = [fmlab_cli(argv) for argv in answered]
    assert [g.returncode for g in got] == [0, 0], [g.stderr[-300:] for g in got]
    assert json.loads(got[0].stdout)["q"] == "1/1"
    assert json.loads(got[1].stdout)["outcome"] == "witness"

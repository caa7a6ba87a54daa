"""Command-line behavior: subcommands, exit codes, determinism."""

import gc
import json
import sys
import time
import warnings

import pytest

from fmlab.cli import main

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
    assert json.loads(out)["found"] is True


def test_indisc_check_and_extract(p3_files, capsys):
    s, f = p3_files
    code, out = run(capsys, ["indisc", "check", "--structure", s,
                             "--formula", f, "--seq", "I", "--m", "1",
                             "--set", "A"])
    assert code in (0, 1)
    code, out = run(capsys, ["indisc", "bounds", "--fn", "beth", "--i", "2",
                             "--x", "2"])
    assert json.loads(out)["value"] == 16


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

import json
import re

import pytest

from qhflag.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qprod_example(capsys):
    code, out, err = run(capsys, "qprod", "--system", "A2",
                         "--u", "1", "--v", "1,2,1")
    assert code == 0
    assert out.strip() == "q1*q2 + q1*s[1,2]"


def test_qprod_unit(capsys):
    code, out, _ = run(capsys, "qprod", "--system", "A2", "--u", "", "--v", "1")
    assert code == 0
    assert out.strip() == "s[1]"


def test_qprod_q_only(capsys):
    code, out, _ = run(capsys, "qprod", "--system", "A2",
                       "--u", "1,2", "--v", "2,1")
    assert code == 0
    assert out.strip() == "q1*q2"


def test_qprod_reduces_nonreduced_words_with_warning(capsys):
    code, out, err = run(capsys, "qprod", "--system", "A2",
                         "--u", "1,1,1", "--v", "2")
    assert code == 0
    assert "not reduced" in err
    assert out.strip() == "s[1,2] + s[2,1]"


def test_qprod_json(capsys):
    code, out, _ = run(capsys, "qprod", "--system", "A2",
                       "--u", "1", "--v", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"word": [], "q": [1, 0], "coeff": "1"},
                             {"word": [2, 1], "q": [0, 0], "coeff": "1"}]


def test_invalid_word_is_usage_error(capsys):
    code, out, err = run(capsys, "qprod", "--system", "A2",
                         "--u", "1,x", "--v", "2")
    assert code == 2
    assert "error" in err


def test_invalid_system_is_usage_error(capsys):
    code, _, err = run(capsys, "qprod", "--system", "Z9", "--u", "", "--v", "")
    assert code == 2


def test_grading_table_matches_table1_box(capsys):
    code, out, _ = run(capsys, "grading-table", "--system", "A2",
                       "--parabolic", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| i\\j |")
    row4 = lines[2]
    assert row4.split("|")[2].strip() == "q1^2"
    rowm2 = lines[-1]
    cells = [c.strip() for c in rowm2.split("|")[2:-1]]
    assert cells == ["0"] * 6 + ["q2^2"]


def test_grading_table_json_cross_checks_unique_elements(capsys):
    code, out, _ = run(capsys, "grading-table", "--system", "A3",
                       "--parabolic", "1,2", "--imin", "0", "--imax", "3",
                       "--jmin", "0", "--jmax", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    from qhflag.grading import canonical_order
    from qhflag.rootsys import build_root_system
    from qhflag.weyl import word_to_element
    rs = build_root_system("A", 3)
    op = canonical_order(rs, (1, 2))
    for cell in data["cells"]:
        assert len(cell["elements"]) == 1
        w, lam = op.unique_basis_element((cell["i"], cell["j"]))
        got = cell["elements"][0]
        assert tuple(got["word"]) == w.word()
        assert tuple(got["q"]) == lam


def test_grading_table_box_cap(capsys):
    code, _, err = run(capsys, "grading-table", "--system", "A2",
                       "--parabolic", "1", "--imax", "200", "--jmax", "200")
    assert code == 2
    assert "cap" in err


def test_empty_grading_table(capsys):
    code, out, _ = run(capsys, "grading-table", "--system", "A2",
                       "--parabolic", "1", "--imin", "2", "--imax", "1")
    assert code == 0


def test_mult_table_a2_row_count(capsys):
    code, out, _ = run(capsys, "mult-table", "--system", "A2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 37  # header + 36 product rows
    assert lines[0] == "u;v;product"


def test_mult_table_negative_max_len_is_usage_error(capsys):
    code, out, err = run(capsys, "mult-table", "--system", "A2",
                         "--max-len", "-3", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == "error: max length must be nonnegative, got -3\n"


def test_pw_cli(capsys):
    code, out, _ = run(capsys, "pw", "--system", "A2", "--parabolic", "1",
                       "--lambda", "2:1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda_B"] == [0, 1]
    assert data["delta_P_prime"] == []
    assert data["omega_factor_word"] == [1]


def test_pw_zero_class(capsys):
    code, out, _ = run(capsys, "pw", "--system", "B3", "--parabolic", "1,2",
                       "--lambda", "", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda_B"] == [0, 0, 0]
    assert data["omega_factor_word"] == []


@pytest.mark.parametrize("lam", ['{"a":1}', '{"2":"x"}', '{"2":1.5}',
                                 '{"2":true}', '{"2":null}'])
def test_pw_bad_json_lambda_is_usage_error(capsys, lam):
    code, out, err = run(capsys, "pw", "--system", "A2", "--parabolic", "1",
                         "--lambda", lam)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("lam", ["2:-1", "2:0,2:-3", '{"2":-1}'])
def test_pw_negative_lambda_is_usage_error(capsys, lam):
    code, out, err = run(capsys, "pw", "--system", "A2", "--parabolic", "1",
                         "--lambda", lam)
    assert code == 2
    assert out == ""
    assert err == "error: curve class exponents must be nonnegative\n"


def test_pw_json_lambda(capsys):
    code, out, _ = run(capsys, "pw", "--system", "A2", "--parabolic", "1",
                       "--lambda", '{"2": 1}', "--format", "json")
    assert code == 0
    assert json.loads(out)["lambda_B"] == [0, 1]


def test_qhp_cli(capsys):
    code, out, _ = run(capsys, "qhp", "--system", "A3", "--parabolic", "1,2",
                       "--u", "3", "--v", "2,3")
    assert code == 0
    assert out.strip() == "s[1,2,3]"
    code, out, _ = run(capsys, "qhp", "--system", "A3", "--parabolic", "1,2",
                       "--u", "3", "--v", "1,2,3")
    assert code == 0
    assert out.strip() == "q3"


def test_verify_cli_pass_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--system", "A2", "--parabolic", "1",
                       "--suites", "filtration,key-lemma",
                       "--out", str(report))
    assert code == 0
    assert "PASS filtration" in out
    data = json.loads(report.read_text())
    assert data["all_theorems_pass"] is True
    assert [r["suite"] for r in data["reports"]] == ["filtration", "key-lemma"]
    for r in data["reports"]:
        assert r["passes"] == r["total"]
        assert r["failures"] == []


def test_verify_positional_system_and_out_json(tmp_path, capsys):
    report = tmp_path / "r.json"
    code, out, _ = run(capsys, "verify", "A2", "--parabolic", "1",
                       "--suites", "filtration", "--out", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["all_theorems_pass"] is True
    assert data["reports"][0]["suite"] == "filtration"


def test_verify_unknown_suite_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--system", "A2", "--parabolic", "1",
                       "--suites", "no-such-suite")
    assert code == 2
    assert "unknown suite" in err


def test_verify_negative_max_q_is_usage_error(tmp_path, capsys):
    argv = ["verify", "A2", "--parabolic", "1", "--suites", "psi-grading"]
    code, out, err = run(capsys, *argv, "--max-q", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max-q must be nonnegative, got -1\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-q=-2\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "error: max-q must be nonnegative, got -2\n"


@pytest.mark.parametrize("suite", ["psi-grading", "graded-iso"])
def test_verify_q_box_above_the_cap_is_usage_error(tmp_path, capsys, suite):
    # Exit 1 is kept for a failed theorem suite: a max-q whose q-box is too
    # big to enumerate is a usage error, not an OverflowError traceback.
    argv = ["verify", "A2", "--parabolic", "1", "--suites", suite]
    big = "99999999999999999999"
    want = (f"error: max-q {big} gives a q-box of (max-q + 1)^1 points; "
            "the cap is 16384\n")
    assert run(capsys, *argv, "--max-q", big) == (2, "", want)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"max-q={big}\n")
    assert run(capsys, *argv, "--config", str(cfg)) == (2, "", want)


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "--system", "A2", "--parabolic", "1",
                       "--suites", "all", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_theorems_pass"] is True
    assert len(data["reports"]) == 7


def test_verify_all_omits_psi_grading_off_a_chain(capsys):
    code, out, err = run(capsys, "verify", "B3", "--parabolic", "2,3",
                         "--format", "json")
    assert code == 1  # the known lemma41 failures of graded-iso
    suites = [r["suite"] for r in json.loads(out)["reports"]]
    assert len(suites) == 6 and "psi-grading" not in suites
    assert [s for s in suites if s != "graded-iso"] == [
        "filtration", "key-lemma", "ideal-quotient", "basics",
        "referee-conjecture"]


def test_verify_names_the_parsed_system(capsys):
    outs = []
    for system in ("b3", "B3"):
        code, out, _ = run(capsys, "verify", system, "--parabolic", "1,2",
                           "--suites", "key-lemma,referee-conjecture",
                           "--format", "json")
        assert code == 0
        outs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out))
    assert outs[0] == outs[1]
    assert [r["system"] for r in json.loads(outs[0])["reports"]] == ["B3"] * 2


def test_verify_checks_every_suite_before_running_any(capsys):
    code, out, err = run(capsys, "verify", "B3", "--parabolic", "2,3",
                         "--suites", "filtration,psi-grading")
    assert (code, out) == (2, "")
    assert err == "error: psi-grading requires the parabolic subset to be a chain\n"


def test_usage_error_missing_subcommand(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("argv,err", [
    (["verify", "A2", "--parabolic", "1", "--max-q", "x"],
     "error: argument --max-q: invalid int value: 'x'\n"),
    (["qprod", "A2", "--format", "xml"],
     "error: argument --format: invalid choice: 'xml' "
     "(choose from 'markdown', 'json', 'csv')\n"),
    (["qprod", "A2", "--no-such-flag"],
     "error: unrecognized arguments: --no-such-flag\n"),
    ([], "error: the following arguments are required: command\n"),
], ids=["bad-int", "bad-choice", "unknown-flag", "no-subcommand"])
def test_bad_command_line_is_one_usage_line(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "qhp", "--help")
    assert code == 0
    assert out.startswith("usage: qhflag qhp")


def test_qhp_respects_the_raised_weyl_cap(capsys):
    code, out, err = run(capsys, "qhp", "B5", "--parabolic", "1,2,3,4",
                         "--u", "5", "--v", "5", "--max-weyl", "4000")
    assert (code, out, err) == (0, "s[4,5]\n", "")


def test_verify_failure_exit_1(capsys, monkeypatch):
    from qhflag import verify as vmod

    def failing_suite(ctx, rep, only_case):
        rep.record("u=[1];v=[1]", False, lhs="gr=(9,9)", rhs="bound=(0,0)")

    monkeypatch.setitem(vmod.SUITES, "filtration", failing_suite)
    code, out, _ = run(capsys, "verify", "--system", "A2", "--parabolic", "1",
                       "--suites", "filtration")
    assert code == 1
    assert "FAIL filtration" in out
    assert "THEOREM SUITE FAILURES PRESENT" in out


def test_internal_consistency_exit_3(capsys, monkeypatch):
    from qhflag import cli
    from qhflag.errors import InternalConsistencyError

    def boom(args):
        raise InternalConsistencyError("forced for the exit-code contract")

    monkeypatch.setitem(cli._HANDLERS, "qprod", boom)
    code, _, err = run(capsys, "qprod", "--system", "A2", "--u", "", "--v", "")
    assert code == 3
    assert "internal consistency" in err


def test_degenerate_parabolic_rejected_before_suite(capsys):
    code, _, err = run(capsys, "verify", "--system", "A2",
                       "--parabolic", "1,2", "--suites", "filtration")
    assert code == 2
    assert "proper" in err
    # A disconnected subset gets one message, with or without an order.
    for argv in (["verify", "--system", "A3", "--parabolic", "1,3"],
                 ["verify", "--system", "A3", "--parabolic", "1,3",
                  "--order", "1,3"],
                 ["grading-table", "--system", "A3", "--parabolic", "1,3"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: parabolic subset (1, 3) is disconnected\n"


def test_missing_system_is_usage_error(capsys):
    code, _, err = run(capsys, "qprod", "--u", "1", "--v", "1")
    assert code == 2
    assert "--system" in err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=A2\nparabolic=1\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg),
                       "--suites", "key-lemma")
    assert code == 0
    assert "PASS key-lemma" in out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=A2\nparabolic=1\nu=1\nv=1\n")
    code, out, _ = run(capsys, "qprod", "--config", str(cfg), "--v", "2")
    assert code == 0
    assert out.strip() == "s[1,2] + s[2,1]"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "qprod", "--system", "A2", "--u", "1",
                       "--v", "1", "--out", str(target))
    assert code == 0
    assert target.read_text().strip() == "q1 + s[2,1]"


_CONFIG_INT_ERRORS = {
    "max-q=abc": "argument --max-q: invalid int value: 'abc'",
    "max-weyl=1.5": "argument --max-weyl: invalid int value: '1.5'",
    "seed=": "argument --seed: invalid int value: ''",
    "seed=x": "argument --seed: invalid int value: 'x'",
}


@pytest.mark.parametrize("line", list(_CONFIG_INT_ERRORS))
def test_config_non_integer_value_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"system=A2\nparabolic=1\n{line}\n")
    assert run(capsys, "verify", "--config", str(cfg), "--suites",
               "key-lemma") == (
        2, "", f"error: config line 3: {_CONFIG_INT_ERRORS[line]}\n")


def test_config_unknown_format_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=A2\nparabolic=1\nformat=xml\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg),
                         "--suites", "key-lemma")
    assert code == 2
    assert out == ""
    assert err == ("error: config line 3: argument --format: invalid choice: "
                   "'xml' (choose from 'markdown', 'json')\n")


def test_config_key_without_a_flag_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=A2\nparabolic=1\nimin=0\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg),
                         "--suites", "key-lemma")
    assert code == 2
    assert out == ""
    assert err == "error: config line 3: unknown key 'imin'\n"


# Every subcommand, with a valid command line to spoil one input at a time.
_SWEEP_BASE = {
    "qprod": ["A2", "--u", "1", "--v", "2"],
    "grading-table": ["A2", "--parabolic", "1"],
    "mult-table": ["A2", "--max-len", "1"],
    "pw": ["A2", "--parabolic", "1", "--lambda", "2:1"],
    "qhp": ["A3", "--parabolic", "1,2", "--u", "3", "--v", "2,3"],
    "verify": ["A2", "--parabolic", "1", "--suites", "key-lemma"],
}
_READS_WORDS = ("qprod", "qhp")


def _sweep_cases():
    for cmd, base in _SWEEP_BASE.items():
        yield cmd, "system", base + ["--system", "Z9"], None
        # A bad index where --parabolic is read, an unknown flag elsewhere.
        yield cmd, "parabolic", base + ["--parabolic", "1,9"], None
        if cmd in _READS_WORDS:
            yield cmd, "word", base + ["--u", "1,x"], None
        if cmd == "pw":  # pw reads no integer flag: it never enumerates W
            yield cmd, "lambda", base + ["--lambda", "2:x"], None
            yield cmd, "config-format", base, "format=xml"
        else:
            yield cmd, "config-int", base, "max-weyl=abc"
        yield cmd, "config-line", base, "nonsense"


@pytest.mark.parametrize("cmd,case,argv,cfg_line", list(_sweep_cases()),
                         ids=[f"{c}-{k}" for c, k, _, _ in _sweep_cases()])
def test_malformed_input_is_one_usage_line(tmp_path, capsys, cmd, case, argv,
                                           cfg_line):
    if cfg_line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_line + "\n")
        argv = argv + ["--config", str(cfg)]
    code, out, err = run(capsys, cmd, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,product", [
    (["qprod", "A2"], "q2 + s[1,2]"),
    (["qprod"], "q2 + s[1,2] + 2*s[3,2]"),
    (["qprod", "B3", "--system", "A2"], "q2 + s[1,2]"),
    (["qprod", "--system", "A2"], "q2 + s[1,2]"),
], ids=["positional", "config", "flag-over-positional", "flag"])
def test_system_precedence_over_config(tmp_path, capsys, argv, product):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=B3\n")
    code, out, err = run(capsys, *argv, "--u", "2", "--v", "2",
                         "--config", str(cfg))
    assert (code, out, err) == (0, product + "\n", "")


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nsystem=A2\njust some text\n")
    assert run(capsys, "qprod", "--config", str(cfg)) == (
        2, "", "error: config line 4: expected key=value, got 'just some text'\n")


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"system=A2\n\xff\xfe=1\n")
    assert run(capsys, "qprod", "--config", str(cfg), "--u", "1",
               "--v", "1") == (
        2, "", f"error: config file {cfg} is not UTF-8 text (byte 10)\n")


@pytest.mark.parametrize("text", ["suites=key-lemma\nlambda=2:1\n",
                                  'suites=key-lemma, basics\nlambda={"2": 1}\n',
                                  "parabolic=1,9\norder=2\nmax-q=x\nseed=x\n"])
def test_config_skips_keys_of_other_subcommands(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u=1\nv=1\n" + text)
    assert run(capsys, "qprod", "A2", "--config", str(cfg)) == (
        0, "q1 + s[2,1]\n", "")


def test_pw_takes_no_weyl_cap(tmp_path, capsys):
    assert run(capsys, "pw", "A2", "--parabolic", "1", "--lambda", "2:1",
               "--max-weyl", "0") == (
        2, "", "error: unrecognized arguments: --max-weyl 0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-weyl=0\n")
    code, out, err = run(capsys, "pw", "A2", "--parabolic", "1", "--lambda",
                         "2:1", "--config", str(cfg))
    assert (code, out.splitlines()[0], err) == (0, "lambda_B = [0, 1]", "")


@pytest.mark.parametrize("cmd", ["verify", "pw", "qhp"])
def test_unwritten_format_is_usage_error(capsys, cmd):
    assert run(capsys, cmd, "A2", "--parabolic", "1", "--format", "csv") == (
        2, "", "error: argument --format: invalid choice: 'csv' "
               "(choose from 'markdown', 'json')\n")


def test_config_unwritten_format_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system=A2\nparabolic=1\nformat=csv\n")
    assert run(capsys, "pw", "--config", str(cfg), "--lambda", "2:1") == (
        2, "", "error: config line 3: argument --format: invalid choice: "
               "'csv' (choose from 'markdown', 'json')\n")


def test_report_out_is_gone(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "A2", "--parabolic", "1",
                         "--report-out", str(tmp_path / "r.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: unrecognized arguments: --report-out")


def test_order_must_permute_the_parabolic(capsys):
    for cmd in ("grading-table", "verify"):
        assert run(capsys, cmd, "A3", "--parabolic", "1,2", "--order",
                   "2,3") == (2, "", "error: order (2, 3) must permute the "
                                     "parabolic (1, 2)\n")

import errno
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from koszul.campaign import (ARITY_MAX, HALF_DIM_MAX, SUITES, VOLUME_ARITY_MAX, VOLUME_DIM_MAX, CampaignConfig,
                             CampaignReport, Check, run_campaign)
from koszul.cli import main
from koszul.poly import EXP_MAX
from koszul.symplectic import SymplecticSpace


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a malformed or conflicting option itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(capsys, argv, expected=""):
    """The usage-error contract: exit 2, nothing on stdout, one stderr line naming the refusal; argparse
    prints its usage lines before the one line of its own refusals."""
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "Traceback" not in err
    *usage, last = err.splitlines() or [""]
    if last.startswith("koszul "):  # argparse's "koszul COMMAND: error: ..."
        assert usage and usage[0].startswith("usage: koszul ") and "error:" not in "".join(usage), err
        assert ": error: " in last
    else:
        assert usage == [] and last.startswith(("error:", "parse error:")), err
    assert expected in err
    return err


HUGE = "9" * 5000  # past Python's 4,300-digit limit on int(str)

REFUSALS = {
    "eval-negative-half-dim": (["eval", "--symplectic", "-3", "v1"], "error: dimension must be in 0..64, got -6"),
    "eval-unknown-coordinate": (["eval", "--dim", "3", "v4"], "unknown coordinate v4"),
    "eval-unknown-basis": (["eval", "--dim", "3", "v1 dx4"], "unknown basis form dx4"),
    "eval-mixed-degrees": (["eval", "--dim", "2", "v1 dx1 + dx1^dx2"], "sum mixes degrees [1, 2]"),
    "eval-zero-denominator": (["eval", "--dim", "2", "1/0"], "parse error: zero denominator"),
    "eval-empty": (["eval", "--dim", "2", ""], "parse error: empty expression"),
    "eval-bad-character": (["eval", "--dim", "2", "v1 ? v2"], "unexpected character '?'"),
    "eval-unicode-digit": (["eval", "v\u0663 dx1"], "parse error: unexpected character 'v' (at position 0)"),
    "eval-rational-exponent": (["eval", "--dim", "2", "v1^1/2"], "exponent must be an integer"),
    "eval-L-after-d": (["eval", "--dim", "2", "--apply", "d", "--apply", "L", "v1"], "operator L needs --symplectic"),
    # a symplectic space fixes its own dimension: --dim beside it was ignored
    "eval-symplectic-and-dim": (["eval", "--symplectic", "1", "--dim", "9", "v1"],
                                "error: argument --dim: not allowed with argument --symplectic"),
    "bracket-symplectic-and-volume": (["bracket", "--symplectic", "1", "--volume", "3", "--arity", "1", "v1"],
                                      "error: argument --volume: not allowed with argument --symplectic"),
    "bracket-half-dim-0": (["bracket", "--symplectic", "0", "--arity", "2", "v1", "v2"], "half-dimension must be >= 1"),
    "bracket-parse": (["bracket", "--volume", "3", "--arity", "2", "v1 dx", "v2 dx1"], "parse error: unexpected"),
    "bracket-volume-unary": (["bracket", "--volume", "3", "--arity", "1", "dx1^dx2"], "volume(m=3) complex [0, 1]"),
    "bracket-volume-ground": (["bracket", "--volume", "4", "--arity", "2", "dx1", "dx2"], "takes degree-2 forms"),
    "verify-k-max-1": (["verify", "--k-max", "1"], "k-max must be in 2..200"),
    "verify-trials-0": (["verify", "--trials", "0"], "trials must be >= 1"),
    # the identities cost about A^3 in the arity: a large arity-max would hang, not fail
    "verify-arity-max-above-ceiling": (["verify", "--suite", "linfty-symplectic", "--arity-max", "41"],
                                       "error: arity-max must be in 1..40"),
    "verify-density-0": (["verify", "--density", "0"], "density must be in (0, 1]"),
    "verify-density-nan": (["verify", "--density", "nan"], "density must be in (0, 1]"),
    "verify-volume-dim-2": (["verify", "--volume-dim", "2"], "volume dimensions must be >= 3"),
    # linfty-volume costs 2-2.6 times more per two dimensions: --volume-dim 40 would run for minutes
    "verify-volume-dim-above-ceiling": (["verify", "--suite", "linfty-volume", "--volume-dim", "3,40", "--trials", "1"],
                                        "error: volume dimensions must be <= 16 for suite linfty-volume"),
    # operators and chain cost 4-7 times more per half-dimension: refused above the ceiling before any campaign starts
    "verify-half-dim-above-ceiling": (["verify", "--half-dim", "7"],
                                      "error: half-dimensions must be <= 6 for suite all"),
    "verify-operators-half-dim-7": (["verify", "--suite", "operators", "--half-dim", "7"],
                                    "error: half-dimensions must be <= 6 for suite operators"),
    "verify-half-dim-30": (["verify", "--suite", "chain", "--half-dim", "1,30"],
                           "error: half-dimensions must be <= 6 for suite chain"),
    # the other symplectic suites grow as n^2 and faster: linfty-symplectic runs out of memory at 160
    "verify-linfty-symplectic-half-dim-41": (["verify", "--suite", "linfty-symplectic", "--half-dim", "41"],
                                             "error: half-dimensions must be <= 40 for suite linfty-symplectic"),
    "verify-poisson-half-dim-41": (["verify", "--suite", "poisson", "--half-dim", "41"],
                                   "error: half-dimensions must be <= 40 for suite poisson"),
    "verify-alt-relation-half-dim-20000": (["verify", "--suite", "alt-relation", "--half-dim", "20000", "--trials", "1"],
                                           "error: half-dimensions must be <= 40 for suite alt-relation"),
    # numbers too long for int(): one line naming the token's position, not a traceback
    "huge-index": (["eval", "--dim", "3", "v" + HUGE], "number of 5000 characters is too long (at position 0)"),
    "huge-coefficient": (["eval", "--dim", "3", HUGE + " v1"], "too long (at position 0)"),
    "huge-exponent": (["eval", "--dim", "3", "v1^" + HUGE], "too long (at position 3)"),
    "huge-denominator": (["eval", "--dim", "3", "1/" + HUGE], "too long (at position 0)"),
    "huge-basis": (["eval", "--dim", "3", "dx" + HUGE], "too long (at position 0)"),
    "huge-inferred-dim": (["eval", "v" + HUGE], "error: dimension must be in 0..64, got an index of more than 100"),
    "huge-bracket": (["bracket", "--symplectic", "1", "--arity", "1", "v" + HUGE], "parse error: number of 5000"),
    # exponents above 32767 do not fit a packed monomial key: refused in the input, or where a product makes one
    "eval-exponent-bound": (["eval", "--dim", "2", "v1^20000 v1^20000"], "exponent of v1 exceeds 32767 (at position 9)"),
    "bracket-exponent-overflow": (["bracket", "--symplectic", "1", "--arity", "2", "v1^20000 dx2", "v1^20000 v2 dx2"],
                                  "error: an exponent exceeds 32767"),
    "verify-degree-above-bound": (["verify", "--degree", "32768"], "error: degree must be >= 1 and <= 32767"),
    # linear inputs break no R2 chain mutant (nor R4's a(5,*)): a run would report false failures
    "verify-chain-degree-1": (["verify", "--suite", "chain", "--degree", "1"],
                              "error: degree must be >= 2 for suite chain: linear inputs leave some chain mutation"),
    "verify-all-degree-1": (["verify", "--degree", "1"], "error: degree must be >= 2 for suite all"),
    "verify-exponent-overflow": (["verify", "--suite", "chain", "--half-dim", "1", "--degree", "32767", "--trials", "1"],
                                 "error: an exponent exceeds 32767"),
}


@pytest.mark.parametrize("argv, expected", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_is_one_line_and_exit_2(capsys, argv, expected):
    assert_refused(capsys, argv, expected)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "coefficients"],
        ["eval", "--symplectic", "1", "--apply", "delta", "v1 dx2"],
        ["bracket", "--symplectic", "1", "--arity", "1", "v1 dx1^dx2"],
    ],
    ids=["verify", "eval", "bracket"],
)
def test_program_faults_are_not_usage_errors(monkeypatch, argv):
    # only the refusals raised at the CLI's own checks exit 2; a ValueError from deeper down propagates
    import koszul.cli as cli
    from koszul.symplectic import SymplecticSpace

    def fault(*args):
        raise ValueError("planted fault")

    monkeypatch.setattr(cli, "run_campaign", fault)
    monkeypatch.setattr(SymplecticSpace, "delta", fault)
    with pytest.raises(ValueError, match="planted fault"):
        main(argv)


# -- eval ---------------------------------------------------------------------


def test_eval_delta_example(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--symplectic", "1", "--apply", "delta", "v1 dx2"])
    assert code == 0 and out.strip() == "1"


def test_eval_lambda_example(capsys):
    code, out, _ = run_cli(
        capsys, ["eval", "--symplectic", "2", "--apply", "Lambda", "dx1^dx2 + dx3^dx4"]
    )
    assert code == 0 and out.strip() == "2"


def test_eval_dd_is_zero(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--apply", "d", "--apply", "d", "v1^3 v2 + 2 v2"])
    assert code == 0 and out.strip() == "0"


def test_eval_operators_compose_left_to_right(capsys):
    code, out, _ = run_cli(
        capsys, ["eval", "--symplectic", "1", "--apply", "d", "--apply", "Lambda", "v1 dx2"]
    )
    assert code == 0 and out.strip() == "1"


def test_eval_parse_error_exit_2(capsys):
    assert_refused(capsys, ["eval", "--symplectic", "1", "--apply", "delta", "v1 dx"], "parse error")


def test_eval_needs_space_for_symplectic_operators(capsys):
    assert_refused(capsys, ["eval", "--dim", "3", "--apply", "delta", "v1 dx2"], "needs --symplectic")


def test_eval_negative_dimension_exit_2(capsys):
    assert_refused(capsys, ["eval", "--dim", "-1", "1"], "error:")


def test_eval_dimension_zero_is_valid(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--dim", "0", "--apply", "d", "3"])
    assert code == 0 and out.strip() == "0"


# -- bracket -------------------------------------------------------------------


def test_bracket_symplectic_example(capsys):
    code, out, _ = run_cli(
        capsys,
        ["bracket", "--symplectic", "1", "--arity", "2", "v1 dx2", "1/2 v1^2 dx2"],
    )
    assert code == 0 and out.strip() == "1/2 dx1"


def test_bracket_repeated_argument_zero(capsys):
    code, out, _ = run_cli(
        capsys, ["bracket", "--symplectic", "2", "--arity", "2", "v1 dx2", "v1 dx2"]
    )
    assert code == 0 and out.strip() == "0"


def test_bracket_volume_example(capsys):
    code, out, _ = run_cli(
        capsys, ["bracket", "--volume", "3", "--arity", "2", "v3 dx1", "v1 dx2"]
    )
    assert code == 0 and out.strip() == "dx1"


def test_bracket_degree_mismatch_exit_2(capsys):
    assert_refused(capsys, ["bracket", "--symplectic", "1", "--arity", "2", "v1 dx1^dx2", "v1 dx2"], "degree")


def test_bracket_unary_checks_the_complex_through_the_family(capsys):
    err = assert_refused(capsys, ["bracket", "--symplectic", "1", "--arity", "1", "v1"], "error:")
    assert "symplectic(n=1) complex [1, 2]" in err
    # a zero argument lies in every degree, as it does for the higher brackets
    code, out, _ = run_cli(capsys, ["bracket", "--symplectic", "1", "--arity", "1", "0"])
    assert code == 0 and out.strip() == "0"


def test_bracket_arity_count_mismatch(capsys):
    assert_refused(capsys, ["bracket", "--symplectic", "1", "--arity", "3", "v1 dx2"], "arity 3 needs exactly 3 forms")


def test_bracket_arity_below_one_exit_2(capsys):
    err = assert_refused(capsys, ["bracket", "--symplectic", "1", "--arity", "-1", "v1"])
    assert err == "error: arity must be >= 1\n"


def test_eval_bad_half_dimension_exit_2(capsys):
    assert_refused(capsys, ["eval", "--symplectic", "0", "v1"], "error:")


def test_bracket_bad_volume_dimension_exit_2(capsys):
    assert_refused(capsys, ["bracket", "--volume", "2", "--arity", "2", "v1", "v2"], "error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "v99999999999999999999"],
        ["eval", "--dim", "100000000000", "v1"],
        ["eval", "--dim", "65", "1"],
        ["eval", "--symplectic", "99999999", "v1"],
        ["bracket", "--symplectic", "33", "--arity", "2", "v1", "v2"],
        ["bracket", "--volume", "100000000000", "--arity", "2", "v1", "v2"],
    ],
    ids=["inferred", "dim", "dim-65", "symplectic", "bracket-symplectic", "bracket-volume"],
)
def test_dimension_above_the_bound_refused_before_anything_is_built(capsys, monkeypatch, argv):
    import koszul.cli as cli

    def must_not_run(*args):
        raise AssertionError("a space above DIM_MAX was parsed or built")

    for name in ("SymplecticSpace", "VolumeSpace", "parse_form"):
        monkeypatch.setattr(cli, name, must_not_run)
    assert_refused(capsys, argv, f"error: dimension must be in 0..{cli.DIM_MAX}")


def test_eval_dimension_at_the_bound_is_valid(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--dim", "64", "--apply", "d", "v64^2"])
    assert code == 0 and out.strip() == "2 v64 dx64"


# -- verify --------------------------------------------------------------------


def test_verify_small_campaign_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--suite", "coefficients", "--k-max", "9"],
    )
    assert code == 0
    assert "0 failed" in out


def test_verify_invalid_suite_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_invalid_dimension_exit_2(capsys):
    assert_refused(capsys, ["verify", "--suite", "operators", "--half-dim", "0"], "half-dimensions")


def test_verify_json_deterministic(tmp_path, capsys):
    args = [
        "verify", "--suite", "operators", "--half-dim", "1", "--trials", "4",
        "--seed", "11", "--format", "json",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["schema"] == 1
    assert payload["failed"] == 0
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_exit_1_on_failure(capsys, monkeypatch):
    # graft a failing row into a suite to confirm the exit-code contract
    import koszul.campaign as campaign
    from koszul.grammar import parse_form

    def broken_row(s, cfg):
        return Check([(parse_form("dx1", s.dim),)], {"planted failure": lambda a: a})

    monkeypatch.setattr(campaign, "operator_row", broken_row)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "operators"])
    assert code == 1
    assert "FAIL" in out and "planted failure" in out


def test_counterexamples_are_replayable(capsys, monkeypatch):
    # whatever lands in a report must re-parse through the grammar
    from koszul.grammar import parse_form

    import koszul.campaign as campaign

    def broken_row(s, cfg):
        inputs = [(parse_form("v1 dx1^dx2", s.dim), parse_form("3 dx2", s.dim))]
        return Check(inputs, {"planted failure": lambda a, b: parse_form("1/2 dx1", s.dim)})

    monkeypatch.setattr(campaign, "operator_row", broken_row)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "operators", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert [f["inputs"] for c in payload["checks"] for f in c["failures"]] == [["v1 dx1^dx2", "3 dx2"]] * 2
    for check in payload["checks"]:
        for failure in check["failures"]:
            for rendered in failure["inputs"] + [failure["residual"]]:
                parse_form(rendered, 4)  # must not raise


def test_verify_wrong_coefficient_exit_1(capsys, monkeypatch):
    # a(7,2) off by one breaks the recursions that read it; the record is [label, lhs, rhs] and lhs - rhs
    import koszul.brackets as brackets

    series = brackets.series_coefficient
    monkeypatch.setattr(brackets, "series_coefficient", lambda k, j: series(k, j) + ((k, j) == (7, 2)))
    code, out, _ = run_cli(capsys, ["verify", "--suite", "coefficients", "--format", "json"])
    assert code == 1
    (check,) = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert check["name"] == "recursions and inductive formulas, k <= 9"
    assert check["trials"] == 88 and check["failures"]
    for failure in check["failures"]:
        label, lhs, rhs = failure["inputs"]
        assert "k=6" in label or "k=7" in label
        assert Fraction(lhs) != Fraction(rhs)
        assert failure["residual"] == str(Fraction(lhs) - Fraction(rhs))


def test_report_text_includes_duration(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "coefficients"])
    assert code == 0
    assert "passed" in out and "s" in out.splitlines()[-1]


def test_config_validation_direct():
    cfg = CampaignConfig(suite="all", trials=0)
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = CampaignConfig(suite="all", density=0.0)
    with pytest.raises(ValueError):
        cfg.validate()


def test_run_campaign_api_roundtrip():
    cfg = CampaignConfig(suite="coefficients")
    report = run_campaign(cfg)
    assert isinstance(report, CampaignReport)
    assert report.failed == 0
    assert report.passed == len(report.checks)
    # json excludes the wall clock, text shows it
    assert "duration" not in report.to_json()
    assert f"{report.duration_s:.2f}" in report.to_text()


def test_text_report_counts_the_failures_it_does_not_show(monkeypatch):
    # a negated L fails two operator relations on more trials than the text report lists
    L = SymplecticSpace.L
    monkeypatch.setattr(SymplecticSpace, "L", lambda self, a: -L(self, a))
    report = run_campaign(CampaignConfig(suite="operators", half_dims=(1,), trials=5))
    failing = [c for c in report.checks if not c.ok]
    assert failing and all(len(c.failures) > 3 for c in failing)
    text = report.to_text()
    assert text.count("inputs:") == 3 * len(failing)
    for c in failing:
        assert f"{c.name}  ({c.trials} trials)" in text
        assert f"... {len(c.failures) - 3} more failures" in text


def test_verify_empty_half_dims_exit_2(capsys):
    assert_refused(capsys, ["verify", "--half-dim", ",", "--suite", "chain"], "half-dimension")


def test_verify_empty_volume_dims_exit_2(capsys):
    assert_refused(capsys, ["verify", "--volume-dim", ",", "--suite", "linfty-volume"], "volume dimension")


def test_verify_arity_max_zero_exit_2(capsys):
    assert_refused(capsys, ["verify", "--arity-max", "0", "--suite", "linfty-symplectic"], "arity-max")


def test_verify_arity_max_caps_the_volume_identities(capsys):
    args = ["verify", "--suite", "linfty-volume", "--volume-dim", "3", "--arity-max", "2", "--trials", "8"]
    code, out, _ = run_cli(capsys, args)
    identities = [line.split("identity ")[1].split(" ")[0] for line in out.splitlines() if "identity n=" in line]
    assert code == 0 and identities == ["n=1", "n=2"]


def test_verify_k_max_above_the_cost_bound_exit_2(capsys):
    # the recursion check costs about k^3: a huge k-max would run for hours
    assert_refused(capsys, ["verify", "--suite", "coefficients", "--k-max", "100000"], "200")


def test_verify_unwritable_out_exit_2(tmp_path, capsys):
    # exit 1 means an identity failed; a report that cannot be written is a usage error
    target = tmp_path / "missing" / "report.json"
    assert_refused(capsys, ["verify", "--suite", "coefficients", "--format", "json", "--out", str(target)], "error:")
    assert not target.exists()


def test_verify_refuses_unwritable_out_before_the_campaign(tmp_path, capsys, monkeypatch):
    import koszul.cli as cli

    def campaign_must_not_run(cfg):
        raise AssertionError("the campaign ran before --out was checked")

    monkeypatch.setattr(cli, "run_campaign", campaign_must_not_run)
    target = tmp_path / "missing" / "report.json"
    assert_refused(capsys, ["verify", "--suite", "chain", "--out", str(target)], "error: cannot write report")


def test_verify_refused_run_keeps_the_old_report(tmp_path, capsys):
    # the exponents of a degree-30000 chain run pass EXP_MAX mid-campaign: the run is refused,
    # and the report file, opened only after the campaign returns, keeps its old content
    target = tmp_path / "report.json"
    target.write_text("old\n")
    assert_refused(capsys, ["verify", "--suite", "chain", "--half-dim", "1", "--degree", "30000", "--trials", "1",
                            "--out", str(target)], "an exponent exceeds")
    assert target.read_text() == "old\n"


def test_verify_refused_run_leaves_no_new_report(tmp_path, capsys):
    # the writability probe creates a path that did not exist; a refused run removes it again
    target = tmp_path / "fresh.json"
    assert_refused(capsys, ["verify", "--suite", "chain", "--half-dim", "1", "--degree", "30000", "--trials", "1",
                            "--out", str(target)], "an exponent exceeds")
    assert not target.exists()


def test_verify_unwritten_report_leaves_no_new_file(tmp_path, capsys, monkeypatch):
    # the probe creates the path; the report write then fails, and the run removes what it created
    import koszul.cli as cli

    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", lambda path, mode, **kw: open(path, mode, **kw) if mode == "a" else Full(),
                        raising=False)
    target = tmp_path / "fresh.json"
    assert_refused(capsys, ["verify", "--suite", "coefficients", "--out", str(target)],
                   f"error: cannot write report to {target}: {os.strerror(errno.ENOSPC)}")
    assert not target.exists()


UNWRITABLE = {
    "verify-out": (["verify", "--suite", "coefficients", "--out", "/dev/full"], "report to /dev/full"),
    "verify-stdout": (["verify", "--suite", "coefficients"], "output to stdout"),
    "verify-json-stdout": (["verify", "--suite", "coefficients", "--format", "json"], "output to stdout"),
    "eval-stdout": (["eval", "--dim", "2", "v1"], "output to stdout"),
    "bracket-stdout": (["bracket", "--symplectic", "1", "--arity", "1", "v1 dx1"], "output to stdout"),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, target", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_unwritable_output_is_one_line_and_exit_2(argv, target):
    # a subprocess with buffered stdout: what a failed write leaves in the buffer must not fail again
    # in the interpreter's exit flush, which would print a second error and exit 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "koszul.cli", *argv], env=env, stderr=subprocess.PIPE,
                              stdout=subprocess.PIPE if "--out" in argv else full, text=True)
    assert (proc.returncode, proc.stdout) == (2, "" if "--out" in argv else None)
    assert proc.stderr.splitlines() == [f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}"]


FULL_STDERR = {
    "verify-refused": (["verify", "--trials", "0"], 2),
    "eval-parse-error": (["eval", "v1 +"], 2),
    "bracket-refused": (["bracket", "--symplectic", "1", "--arity", "3", "v1 dx2"], 2),
    "verify-json-out": (["verify", "--suite", "coefficients", "--format", "json", "--out"], 0),
    # argparse's own refusals: it drops its message, and main's exit flush sends the buffer to the null device
    "verify-unknown-option": (["verify", "--bogus"], 2),
    "verify-unknown-suite": (["verify", "--suite", "nope"], 2),
    "unknown-option": (["--bogus"], 2),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, code", FULL_STDERR.values(), ids=FULL_STDERR.keys())
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, argv, code):
    # a line that stderr cannot take is dropped: a refusal still exits 2 and a written report 0, where the
    # OSError of the print escaped as a traceback (exit 1), or the exit flush of stderr's buffer failed (120)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = [str(tmp_path / "full.json")] if argv[-1] == "--out" else []
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "koszul.cli", *argv, *out], env=env, stdout=subprocess.PIPE,
                              stderr=full, text=True)
    assert (proc.returncode, proc.stdout) == (code, "")
    if out:
        proc = subprocess.run([sys.executable, "-m", "koszul.cli", *argv, str(tmp_path / "open.json")], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr.startswith("completed in ")
        assert (tmp_path / "full.json").read_bytes() == (tmp_path / "open.json").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["help", "verify-help"])
def test_help_on_unwritable_stdout_exits_0(argv):
    # argparse drops the help it cannot print and exits 0; the buffer it leaves must not fail the exit flush (120)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "koszul.cli", *argv], env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("flag, dims", [("--half-dim", "1,1"), ("--volume-dim", "3,4,3")])
def test_verify_repeated_dimensions_exit_2(capsys, flag, dims):
    # a repeated dimension would run, and report, every check of that space twice
    assert_refused(capsys, ["verify", flag, dims, "--trials", "1"], "repeat")


def test_verify_degree_zero_exit_2(capsys):
    # constant inputs make every identity structurally zero: a vacuous run
    assert_refused(capsys, ["verify", "--suite", "chain", "--half-dim", "1", "--trials", "1", "--degree", "0"],
                   "degree must be >= 1")


@pytest.mark.parametrize("suite", ["operators", "alt-relation", "linfty-symplectic", "linfty-volume", "poisson",
                                   "coefficients"])
def test_degree_1_is_accepted_by_suites_without_chain_mutants(suite):
    CampaignConfig(suite=suite, max_degree=1).validate()


def test_empty_dims_allowed_where_unused():
    CampaignConfig(suite="chain", volume_dims=()).validate()
    CampaignConfig(suite="linfty-volume", half_dims=()).validate()


@pytest.mark.parametrize("suite", ["alt-relation", "linfty-symplectic", "poisson"])
def test_half_dim_ceiling_spares_suites_that_stay_cheap(suite):
    # these three take under 2 s at --half-dim 40, so the operators and chain ceiling does not apply
    CampaignConfig(suite=suite, half_dims=(1, 40)).validate()


@pytest.mark.parametrize("suite", HALF_DIM_MAX)
def test_half_dim_ceiling_is_inclusive_and_refused_before_any_space_is_built(capsys, monkeypatch, suite):
    from koszul.symplectic import SymplecticSpace

    cap = HALF_DIM_MAX[suite]
    CampaignConfig(suite=suite, half_dims=(1, cap)).validate()

    def unbuilt(self, n):
        raise AssertionError(f"a space of half-dimension {n} was built")

    monkeypatch.setattr(SymplecticSpace, "__init__", unbuilt)
    assert_refused(capsys, ["verify", "--suite", suite, "--half-dim", str(cap + 1)], f"must be <= {cap} for suite {suite}")


def test_volume_dim_ceiling_is_inclusive_and_only_where_used():
    CampaignConfig(suite="linfty-volume", volume_dims=(3, VOLUME_DIM_MAX)).validate()
    CampaignConfig(suite="operators", volume_dims=(VOLUME_DIM_MAX + 1,)).validate()  # no volume suite runs
    with pytest.raises(ValueError, match=f"<= {VOLUME_DIM_MAX} for suite all"):
        CampaignConfig(volume_dims=(VOLUME_DIM_MAX + 1,)).validate()


def refused(cfg: CampaignConfig) -> bool:
    try:
        cfg.validate()
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("half_dims", [(1, 6), (1, 7), (1, 40), (1, 41)])
@pytest.mark.parametrize("max_degree", [1, 2])
@pytest.mark.parametrize("volume_dims", [(), (3,), (17,)])
def test_all_is_refused_exactly_when_a_member_suite_is(half_dims, max_degree, volume_dims):
    fields = {"half_dims": half_dims, "max_degree": max_degree, "volume_dims": volume_dims}
    members = [suite for suite in SUITES if suite != "all"]
    assert refused(CampaignConfig(suite="all", **fields)) == any(
        refused(CampaignConfig(suite=suite, **fields)) for suite in members)


def test_verify_help_states_each_suite_limit(capsys, monkeypatch):
    # the help reads the limits that validate applies: each capped suite beside its cap, the suites that
    # refuse degree 1, and the arity at which the linfty-volume identity rows stop
    monkeypatch.setenv("COLUMNS", "100")
    code, out, _ = run_cli(capsys, ["verify", "--help"])
    assert code == 0
    text = " ".join(out.split())
    groups = text.split("(default 1,2; ", 1)[1].split(")", 1)[0].split("; ")
    stated = {suite: int(cap) for group in groups for names, cap in [group.split(": <= ")]
              for suite in names.split(", ")}
    assert stated == HALF_DIM_MAX
    for group in groups:  # each cap's suites in table order
        names = group.split(": <= ")[0].split(", ")
        assert names == [suite for suite in HALF_DIM_MAX if suite in names]
    quadratic = [suite for suite in SUITES if refused(CampaignConfig(suite=suite, max_degree=1))]
    assert quadratic == ["chain", "all"]
    assert f"1..{EXP_MAX}; {', '.join(quadratic)}: 2..{EXP_MAX} (" in text
    report = run_campaign(CampaignConfig(suite="linfty-volume", volume_dims=(3,), trials=1, arity_max=ARITY_MAX))
    stop = max(int(c.name.split("identity n=")[1].split()[0]) for c in report.checks if "identity n=" in c.name)
    assert stop == VOLUME_ARITY_MAX
    assert f"the linfty-volume identities stop at arity {stop}" in text


@pytest.mark.parametrize("half_dim, seed, check", [(2, 158000007, "a(5,0)"), (3, 92, "a(7,1)")])
def test_chain_mutation_checks_draw_past_an_unlucky_start(half_dim, seed, check):
    # the first 5 inputs of this check miss; later draws must still break the identity
    report = run_campaign(CampaignConfig(suite="chain", half_dims=(half_dim,), seed=seed))
    assert report.failed == 0
    (mutation,) = [c for c in report.checks if f"mutation {check}" in c.name]
    assert mutation.trials > 5


# -- the exit-code contract on drawn arguments ---------------------------------

# each option's values, valid and refused.  --suite, --trials and --format are always given, so no
# draw runs more than one trial per check; each other option is left at its default half the time,
# or nearly every draw would be refused
DRAWN_OPTIONS = {
    "--suite": SUITES,
    "--half-dim": ("", "0", "-1", "1", "1,1", "x", "7", "41"),
    "--volume-dim": ("", "2", "3", "17", "3,3"),
    "--degree": ("-3", "0", "1", "2", "32768"),
    "--density": ("0", "0.5", "1", "nan", "inf"),
    "--trials": ("-1", "0", "1"),
    "--arity-max": ("0", "1", "3", "41"),
    "--k-max": ("1", "2", "201"),
    "--format": ("text", "json"),
}


def drawn_verify_argvs(count: int, seed: int = 13):
    rnd = random.Random(seed)
    for _ in range(count):
        argv = ["verify"]
        for option, values in DRAWN_OPTIONS.items():
            if option in ("--suite", "--trials", "--format") or rnd.random() < 0.5:
                argv += [option, rnd.choice(values)]
        yield argv


def drawn_exit_codes(capsys, argvs, allowed) -> list[int]:
    """Each argv's exit code through ``main``: one of ``allowed`` and never a traceback; a refusal is one
    error line (after argparse's usage lines, for its own refusals) with nothing on stdout; a JSON report
    always parses."""
    codes = []
    for argv in argvs:
        code, out, err = run_cli(capsys, argv)
        codes.append(code)
        assert code in allowed and "Traceback" not in err, argv
        errors = [line for line in err.splitlines() if "error:" in line]
        if code == 2:
            assert out == "" and len(errors) == 1 and errors[0] == err.splitlines()[-1], (argv, err)
        else:
            assert errors == [], (argv, err)
            if "json" in argv:
                json.loads(out)
    return codes


def test_verify_exit_codes_on_drawn_arguments(capsys):
    codes = drawn_exit_codes(capsys, drawn_verify_argvs(200), (0, 1, 2))
    assert codes.count(0) >= 10 and codes.count(2) >= 100, codes


# each value pool is (valid, refused), drawn from valid four times in five, or nearly every draw would be
# refused.  The refused expressions: malformed ones, an index of more than 100 digits, and an exponent past
# 32767 in the input; the last valid one takes l_2 of two equal arguments past 32767 in an intermediate product
EXPRESSIONS = (("v1 dx2", "1/2 v1^2 dx2", "v3 dx1", "v1 dx1^dx2", "dx1^dx2 + dx3^dx4", "0", "3", "v1^20000 dx2"),
               ("v1 dx", "1/0", "", "v1 ? v2", "dx1 ^ v1", "v" + "9" * 101, "v1^32767 v1"))
APPLY = (("d", "delta", "L", "Lambda", "H"), ("grad",))
EVAL_OPTIONS = {"--symplectic": (("1", "2"), ("-1", "0", "33", "x")), "--dim": (("0", "2", "4", "9"), ("-1", "65"))}
BRACKET_OPTIONS = {"--symplectic": (("1", "2"), ("0", "33")), "--volume": (("3", "4"), ("2", "65")),
                   "--arity": (("1", "2", "3"), ("-1", "0", "x"))}


def _pick(rnd, pool):
    valid, refused = pool
    return rnd.choice(valid if rnd.random() < 0.8 else refused)


def drawn_eval_argvs(count: int, seed: int = 17):
    rnd = random.Random(seed)
    for _ in range(count):
        argv = ["eval"]
        for option, pool in EVAL_OPTIONS.items():  # both together one draw in six
            if rnd.random() < 0.4:
                argv += [option, _pick(rnd, pool)]
        for _ in range(rnd.randrange(3)):
            argv += ["--apply", _pick(rnd, APPLY)]
        yield argv + [_pick(rnd, EXPRESSIONS)]


def drawn_bracket_argvs(count: int, seed: int = 19):
    rnd = random.Random(seed)
    for _ in range(count):
        argv = ["bracket"]
        spaces = rnd.choice((("--symplectic",),) * 4 + (("--volume",),) * 4 + ((), ("--symplectic", "--volume")))
        for option in spaces + ("--arity",):
            argv += [option, _pick(rnd, BRACKET_OPTIONS[option])]
        arity = argv[-1]
        n = int(arity) if arity.isdigit() and int(arity) and rnd.random() < 0.9 else rnd.randrange(1, 4)
        if rnd.random() < 0.3:  # equal arguments
            yield argv + [_pick(rnd, EXPRESSIONS)] * n
        else:
            yield argv + [_pick(rnd, EXPRESSIONS) for _ in range(n)]


def test_eval_and_bracket_exit_codes_on_drawn_arguments(capsys):
    evals, brackets = list(drawn_eval_argvs(100)), list(drawn_bracket_argvs(100))
    # l_2 of two equal arguments is 0, but its intermediate products pass 32767: exit 0 or 2, never a traceback
    equal = ["bracket", "--symplectic", "1", "--arity", "2"] + ["v1^20000 dx2"] * 2
    codes = drawn_exit_codes(capsys, evals + brackets + [equal], (0, 2))
    assert codes[:100].count(0) >= 20 and codes[100:200].count(0) >= 20 and codes.count(2) >= 100, codes
    # a symplectic space fixes the dimension: --dim beside it is always refused
    both = [code for argv, code in zip(evals, codes) if "--symplectic" in argv and "--dim" in argv]
    assert both and set(both) == {2}

import json
from fractions import Fraction

import pytest

from koszul.campaign import VOLUME_DIM_MAX, CampaignConfig, CampaignReport, Check, run_campaign
from koszul.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(capsys, argv, expected=""):
    """The usage-error contract: exit 2, nothing on stdout, one stderr line naming the refusal."""
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(("error:", "parse error:")), err
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
        return Check("operators", [(parse_form("dx1", s.dim),)], {"planted failure": lambda a: a})

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
        return Check("operators", inputs, {"planted failure": lambda a, b: parse_form("1/2 dx1", s.dim)})

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


def test_volume_dim_ceiling_is_inclusive_and_only_where_used():
    CampaignConfig(suite="linfty-volume", volume_dims=(3, VOLUME_DIM_MAX)).validate()
    CampaignConfig(suite="operators", volume_dims=(VOLUME_DIM_MAX + 1,)).validate()  # no volume suite runs
    with pytest.raises(ValueError, match=f"<= {VOLUME_DIM_MAX} for suite all"):
        CampaignConfig(volume_dims=(VOLUME_DIM_MAX + 1,)).validate()


@pytest.mark.parametrize("half_dim, seed, check", [(2, 158000007, "a(5,0)"), (3, 92, "a(7,1)")])
def test_chain_mutation_checks_draw_past_an_unlucky_start(half_dim, seed, check):
    # the first 5 inputs of this check miss; later draws must still break the identity
    report = run_campaign(CampaignConfig(suite="chain", half_dims=(half_dim,), seed=seed))
    assert report.failed == 0
    (mutation,) = [c for c in report.checks if f"mutation {check}" in c.name]
    assert mutation.trials > 5

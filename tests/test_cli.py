import json
import time

import pytest

from siegelsums import acceptance, cli, petersson


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def fake_battery(monkeypatch, failing=(), raising=()):
    """Replace the criteria with instant stand-ins; returns the call log."""
    calls = []

    def make(number):
        def criterion():
            calls.append(number)
            if number in raising:
                raise ArithmeticError("boom")
            return {"criterion": number, "name": f"stand-in {number}",
                    "pass": number not in failing}
        return criterion

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [make(n) for n in range(1, 10)])
    return calls


class TestSubcommands:
    def test_kloosterman_pinned(self, capsys):
        rec = run_json(capsys, "kloosterman", "--q", "1,0,1", "--t", "1,0,1",
                       "--c", "3,0;0,3")
        assert abs(rec["value"]["re"] - 15.0) < 1e-9
        assert abs(rec["value"]["im"]) < 1e-9
        assert rec["terms"] == 18 and rec["method"] == "brute"
        assert rec["params"] == {"q": [1, 0, 1], "t": [1, 0, 1],
                                 "c": [3, 0, 0, 3]}

    def test_twisted(self, capsys):
        rec = run_json(capsys, "twisted", "--c", "1,1;-1,1",
                       "--q1", "1", "--q2", "1")
        assert abs(rec["value"]["re"] - 4.0) < 1e-9

    def test_salie(self, capsys):
        rec = run_json(capsys, "salie", "--p", "1,0,1", "--s", "1,0,2",
                       "--c", "3")
        assert rec["value"] == {"re": 0.0, "im": 0.0} and rec["terms"] == 0

    def test_gauss(self, capsys):
        rec = run_json(capsys, "gauss", "--a", "1", "--b", "0", "--c", "3")
        assert abs(rec["value"]["im"] - 3 ** 0.5) < 1e-12

    def test_count(self, capsys):
        rec = run_json(capsys, "count", "--n", "3", "--c1", "1", "--c2", "0",
                       "--c4", "1", "--h1", "0", "--h2", "0")
        assert rec["value"]["re"] == 8.0  # N^2 - 1 for N = 3

    def test_weight_and_kernel(self, capsys):
        rec = run_json(capsys, "weight", "--x", "100", "--k", "10")
        assert abs(rec["value"]["re"]) < 1e-6
        rec = run_json(capsys, "besselkernel", "--ell", "8.5",
                       "--eig1", "1", "--eig2", "1")
        assert rec["method"] == "quadrature"

    def test_rcoeff_lvalue(self, capsys):
        rec = run_json(capsys, "rcoeff", "--q", "1", "--n", "5")
        assert abs(rec["value"]["re"] - 2 / 5 ** 0.5) < 1e-12
        rec = run_json(capsys, "lvalue", "--s", "1", "--q", "-4")
        assert abs(rec["value"]["re"] - 0.7853981633974483) < 1e-12

    def test_mainterm_and_fit(self, capsys):
        rec = run_json(capsys, "mainterm", "--q1", "5", "--q2", "13",
                       "--bign", "1000", "--k", "10")
        assert rec["method"] == "taylor"
        assert rec["terms"] == 3 * 64
        rec = run_json(capsys, "fit", "--q1", "1", "--q2", "1", "--k", "10")
        assert abs(rec["value"]["re"] - 0.8224670334) < 1e-6
        assert len(rec["coefficients"]) == 4

    def test_fit_csv_sweep(self, capsys):
        # the residue sweep: one CSV row per level, each main_term_residue
        levels = [100, 316, 1000, 3162, 10000, 31623, 100000]
        code, out = run_cli(capsys, "--format", "csv", "fit", "--q1", "5",
                            "--q2", "13", "--k", "12",
                            "--ns", ",".join(map(str, levels)))
        assert code == 0
        assert out.splitlines() == ["N,residue"] + [
            f"{float(n)},{petersson.main_term_residue(5, 13, n, 12).residue!r}"
            for n in levels]

    def test_fit_csv(self, capsys):
        code, out = run_cli(capsys, "--format", "csv", "fit", "--q1", "5",
                            "--q2", "13", "--k", "10", "--ns", "100,1000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,residue" and len(lines) == 3

    def test_hqt(self, capsys):
        rec = run_json(capsys, "hqt", "--q", "1,0,1", "--t", "1,0,1",
                       "--n", "3", "--k", "10")
        assert abs(rec["value"]["re"] - 8.0) < 1.0
        assert "tail_bound" in rec and rec["tail_bound"] >= 0

    def test_verify_ok(self, capsys):
        # the real battery, all nine criteria
        assert cli.main(["verify"]) == 0
        captured = capsys.readouterr()
        rec = json.loads(captured.out)
        assert rec["terms"] == 9 and rec["failures"] == []
        assert rec["value"] == {"re": 9.0, "im": 0.0}
        lines = captured.err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"PASS criterion {n}" for n in range(1, 10)]


RECORD = ["op", "params", "value", "terms", "method"]

# one invocation per subcommand: argv, the record's keys, its params and
# its method
PINNED = [
    (["kloosterman", "--q", "1,0,1", "--t", "1,0,1", "--c", "3,0;0,3"],
     RECORD, [("q", [1, 0, 1]), ("t", [1, 0, 1]), ("c", [3, 0, 0, 3])],
     "brute"),
    (["salie", "--p", "1,0,1", "--s", "1,0,2", "--c", "3"],
     RECORD, [("p", [1, 0, 1]), ("s", [1, 0, 2]), ("c", 3)],
     "salie"),
    (["gauss", "--a", "1", "--b", "0", "--c", "3"],
     RECORD, [("a", 1), ("b", 0), ("c", 3)],
     "brute"),
    (["count", "--n", "3", "--c1", "1", "--c2", "0", "--c4", "1",
      "--h1", "0", "--h2", "0"],
     RECORD, [("n", 3), ("c1", 1), ("c2", 0), ("c4", 1), ("h1", 0),
              ("h2", 0), ("a", 1), ("b", 1)],
     "brute"),
    (["twisted", "--c", "1,1;-1,1", "--q1", "1", "--q2", "1"],
     RECORD, [("c", [1, 1, -1, 1]), ("q1", 1), ("q2", 1)],
     "brute"),
    (["besselkernel", "--ell", "8.5", "--eig1", "1", "--eig2", "2"],
     RECORD, [("ell", 8.5), ("eig1", 1.0), ("eig2", 2.0)],
     "quadrature"),
    (["weight", "--x", "100", "--k", "10"],
     RECORD, [("x", 100.0), ("k", 10), ("poly", "1-s^2")],
     "contour"),
    (["rcoeff", "--q", "1", "--n", "5"],
     RECORD, [("q", 1), ("n", 5)],
     "divisor-sum"),
    (["lvalue", "--s", "2,1", "--q", "5"],
     RECORD, [("s", [2.0, 1.0]), ("q", 5)],
     "euler-maclaurin"),
    (["hqt", "--q", "1,0,1", "--t", "1,0,1", "--n", "3", "--k", "10"],
     RECORD + ["tail_bound", "diagonal", "rank1", "rank2"],
     [("q", [1, 0, 1]), ("t", [1, 0, 1]), ("n", 3), ("k", 10),
      ("cmax", None)],
     "assembled"),
    (["gram", "--form", "1,0,1", "--n", "3", "--k", "10"],
     RECORD + ["matrix", "hermitian_defect", "min_eigenvalue", "tail_budget"],
     [("forms", [[1, 0, 1]]), ("n", 3), ("k", 10)],
     "assembled"),
    (["tail", "--n", "3", "--k", "10"],
     RECORD + ["beta", "m_bound", "predicted_exponent", "predicted_envelope"],
     [("n", 3), ("k", 10), ("m1", 1), ("m2", 1), ("beta", None),
      ("shell_width", 1)],
     "shell"),
    (["mainterm", "--q1", "5", "--q2", "13", "--bign", "1000", "--k", "10"],
     RECORD + ["imag_defect"],
     [("q1", 5), ("q2", 13), ("bign", 1000.0), ("k", 10),
      ("poly", "(1-s)^2")],
     "taylor"),
    (["fit", "--q1", "5", "--q2", "13", "--k", "10", "--ns", "100,1000"],
     RECORD + ["coefficients", "residual"],
     [("q1", 5), ("q2", 13), ("k", 10), ("ns", "100,1000"), ("degree", 0)],
     "polyfit"),
    (["verify"], RECORD + ["failures"], [], "suite"),
]


@pytest.mark.parametrize("argv, keys, params, method", PINNED,
                         ids=[row[0][0] for row in PINNED])
def test_params_pinned(capsys, monkeypatch, argv, keys, params, method):
    # verify runs stand-ins here; test_verify_ok runs the real battery
    fake_battery(monkeypatch)
    rec = run_json(capsys, *argv)
    assert list(rec) == keys
    assert list(rec["params"].items()) == params
    assert rec["method"] == method


def test_pinned_covers_every_subcommand():
    assert sorted(row[0][0] for row in PINNED) == sorted(cli.COMMANDS)


class TestErrors:
    def test_malformed_matrix_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kloosterman", "--q", "1,0,1", "--t", "1,0,1",
                      "--c", "garbage"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_runtime_error_exits_1(self, capsys):
        code = cli.main(["twisted", "--c", "1,2;3,4", "--q1", "1", "--q2", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_zero_modulus_lvalue_exits_1(self, capsys):
        code = cli.main(["lvalue", "--q", "0", "--s", "2"])
        assert code == 1
        assert "error: q must be nonzero" in capsys.readouterr().err

    def test_zero_modulus_rcoeff_exits_1(self, capsys):
        code = cli.main(["rcoeff", "--q", "0", "--n", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: q must be nonzero" in captured.err

    @pytest.mark.parametrize("s", ["0.5,1e12", "0.5,1e6"])
    def test_lvalue_beyond_range_exits_1(self, capsys, s):
        code = cli.main(["lvalue", "--s", s, "--q", "5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: Euler-Maclaurin needs more than" in captured.err
        assert "|Im u|" in captured.err

    def test_oversized_pI_grid_exits_1(self, capsys):
        # refused before any array is built
        code = cli.main(["kloosterman", "--q", "1,0,1", "--t", "1,0,1",
                         "--c", "10000,0;0,10000"])
        assert code == 1
        assert "exceeds the cap" in capsys.readouterr().err

    def test_lvalue_left_of_range_exits_1(self, capsys):
        code = cli.main(["lvalue", "--s", "-7", "--q", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: Re u = -7" in captured.err

    def test_lvalue_critical_line(self, capsys):
        rec = run_json(capsys, "lvalue", "--s", "0.5,100", "--q", "5")
        got = complex(rec["value"]["re"], rec["value"]["im"])
        assert abs(got - (0.21059417943142233 + 0.544811244593602j)) < 1e-12

    @pytest.mark.parametrize("argv, error", [
        (["salie", "--p", "1,0,1", "--s", "1,0,1", "--c", "100003"],
         "the Salie sum of c = 100003 exceeds the cap 16384"),
        (["gauss", "--a", "1", "--b", "0", "--c", "67108865"],
         "the Gauss sum of c = 67108865 exceeds the cap 67108864"),
        (["hqt", "--q", "1,0,1", "--t", "1,0,1", "--n", "3", "--k", "10",
          "--cmax", "100003"],
         "the rank-1 cut c = 100003 exceeds the Salie cap 16384"),
        (["twisted", "--c", "20,0;0,20", "--q1", "1", "--q2", "1"],
         "the twisted average of 3200 cosets x 400 x 400 exceeds the cap "
         "134217728"),
    ], ids=["salie", "gauss", "hqt-cmax", "twisted"])
    def test_capped_modulus_exits_1(self, capsys, argv, error):
        # refused before any grid is built
        t0 = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {error}")

    @pytest.mark.parametrize("cmax", ["0", "-3"])
    def test_nonpositive_cmax_exits_1(self, capsys, cmax):
        code = cli.main(["hqt", "--q", "1,0,1", "--t", "1,0,1", "--n", "3",
                         "--k", "10", "--cmax", cmax])
        assert code == 1
        assert ("error: rank1_cutoff must be at least 1"
                in capsys.readouterr().err)

    def test_unconverged_radius_mainterm_exits_1(self, capsys, monkeypatch):
        # on a Taylor circle of radius 0.9 the q1-factor's series decays
        # like 0.9^m, far above rounding in its top quarter
        acceptance.clear_all_caches()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(petersson, "_TAYLOR_RADIUS", 0.9)
                code = cli.main(["mainterm", "--q1", "1", "--q2", "1",
                                 "--bign", "1000", "--k", "10"])
        finally:
            acceptance.clear_all_caches()
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: the Taylor coefficients of the "
                                   "chi_1, chi_-4 factor on |u| = 0.9")

    def test_fit_repeated_levels_exits_1(self, capsys):
        # four levels but one distinct value cannot determine the cubic
        code = cli.main(["fit", "--q1", "1", "--q2", "1", "--k", "10",
                         "--ns", "100,100,100,100"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs 4 distinct sample levels, got 1" in captured.err

    def test_fit_negative_degree_exits_1(self, capsys):
        code = cli.main(["fit", "--q1", "5", "--q2", "13", "--k", "10",
                         "--ns", "100,1000", "--degree", "-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: degree must be non-negative, got -1" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--ns", "1"],
        ["--q1", "5", "--q2", "13", "--ns", "1"],
        ["--ns", "100,1000"],
        ["--ns", "100,100,100,100"],
        ["--q1", "5", "--q2", "5"],
        ["--q1", "9"],
        ["--k", "9"],
    ], ids=["level-one", "level-one-degree-0", "too-few-levels",
            "repeated-levels", "not-coprime", "not-fundamental", "weight"])
    def test_fit_bad_input_exits_1(self, capsys, argv):
        # argv comes last, so its flags override q1 = q2 = 1 and k = 10
        code = cli.main(["fit", "--q1", "1", "--q2", "1", "--k", "10", *argv])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("ns", ["100,nan", "100,1e3,x"],
                             ids=["level-nan", "level-literal"])
    def test_fit_malformed_level_exits_2(self, capsys, ns):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--q1", "5", "--q2", "13", "--k", "10",
                      "--ns", ns])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["mainterm", "--q1", "5", "--q2", "13", "--bign", "1000", "--k", "9"],
        ["fit", "--q1", "5", "--q2", "13", "--k", "9", "--ns", "100,1000"],
        ["gram", "--n", "3", "--k", "9"],
    ], ids=["mainterm", "fit", "gram"])
    def test_bad_weight_exits_1(self, capsys, argv):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: weight must be an even integer >= 10" in captured.err

    @pytest.mark.parametrize("argv", [
        ["mainterm", "--q1", "1", "--q2", "1", "--bign", "nan", "--k", "10"],
        ["mainterm", "--q1", "1", "--q2", "1", "--bign", "inf", "--k", "10"],
        ["weight", "--x", "nan", "--k", "10"],
        ["besselkernel", "--ell", "8.5", "--eig1", "inf", "--eig2", "1"],
        ["lvalue", "--s", "nan", "--q", "5"],
        ["lvalue", "--s", "2,inf", "--q", "5"],
        ["fit", "--q1", "5", "--q2", "13", "--k", "10", "--ns", "100,nan"],
    ], ids=["bign-nan", "bign-inf", "weight", "besselkernel",
            "lvalue-re", "lvalue-im", "fit-ns"])
    def test_non_finite_number_exits_2(self, capsys, argv):
        # nan and inf would print as NaN / Infinity, which is not JSON
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not finite" in captured.err

    @pytest.mark.parametrize("ell", ["8.0", "0", "-0.5"])
    def test_besselkernel_order_outside_half_integers_exits_2(self, capsys,
                                                              ell):
        with pytest.raises(SystemExit) as exc:
            cli.main(["besselkernel", "--ell", ell, "--eig1", "1",
                      "--eig2", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --ell: order must lie in 1/2 + Z>=0" in captured.err

    def test_hqt_checks_level_before_progress(self, capsys):
        code = cli.main(["hqt", "--q", "1,0,1", "--t", "1,0,1", "--n", "4",
                         "--k", "10"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: level must be prime" in err
        assert "# assembling" not in err

    def test_empty_gram_checks_level(self, capsys):
        assert cli.main(["gram", "--n", "4", "--k", "10"]) == 1
        assert "error: level must be prime" in capsys.readouterr().err
        rec = run_json(capsys, "gram", "--n", "3", "--k", "10")
        assert rec["matrix"] == [] and rec["terms"] == 0
        assert rec["tail_budget"] == []


    @pytest.mark.parametrize("argv", [
        ["--beta", "0"], ["--beta", "inf"], ["--beta", "1e300"],
        ["--beta", "50"], ["--n", "4"], ["--k", "9"],
        ["--n", "11", "--beta", "7.2"], ["--shell-width", "200"],
        ["--shell-width", "-1"],
    ], ids=["beta", "beta-inf", "beta-overflow", "beta-huge", "level",
            "weight", "enumeration-cap", "shell-width-huge",
            "shell-width-negative"])
    def test_tail_bad_input_exits_1(self, capsys, argv):
        # argv comes last, so its flags override n = 3 and k = 10
        code = cli.main(["tail", "--n", "3", "--k", "10", *argv])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_tail_malformed_beta_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tail", "--n", "3", "--k", "10", "--beta", "abc"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "Traceback" not in captured.err


class TestNegativeLiterals:
    @pytest.mark.parametrize("argv", [
        ["salie", "--p", "-1,0,2", "--s", "-1,1,2", "--c", "3"],
        ["salie", "--p", "1,0,1", "--s", "1,-1,2", "--c", "3"],
        ["kloosterman", "--q", "1,0,1", "--t", "1,0,1", "--c", "-3,0;0,-3"],
        ["twisted", "--c", "-1,1;-1,-1", "--q1", "1", "--q2", "-4"],
    ], ids=["forms", "form-inner-minus", "matrix", "matrix-and-number"])
    def test_literal_after_its_flag_may_begin_with_minus(self, capsys, argv):
        # '--flag -1,0,2' as one word '--flag=-1,0,2'
        joined = [argv[0]] + [f"{flag}={value}" for flag, value
                              in zip(argv[1::2], argv[2::2])]
        assert run_json(capsys, *argv) == run_json(capsys, *joined)


class TestDeterminism:
    def test_repeat_run_stable(self, capsys):
        args = ("mainterm", "--q1", "1", "--q2", "1", "--bign", "1000",
                "--k", "10")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2


class TestVerify:
    def test_all_runs_each_selected_criterion_once(self, capsys, monkeypatch):
        calls = fake_battery(monkeypatch)
        code, out = run_cli(capsys, "verify")
        assert code == 0 and calls == list(range(1, 10))
        rec = json.loads(out)
        assert rec["value"] == {"re": 9.0, "im": 0.0} and rec["terms"] == 9

    def test_failures_name_the_criterion(self, capsys, monkeypatch):
        calls = fake_battery(monkeypatch, failing=(3,), raising=(8,))
        assert cli.main(["verify"]) == 1
        captured = capsys.readouterr()
        assert calls == list(range(1, 10))
        rec = json.loads(captured.out)
        assert rec["failures"] == ["criterion 3: stand-in 3",
                                   "criterion 8: ArithmeticError('boom')"]
        assert rec["value"] == {"re": 7.0, "im": 2.0} and rec["terms"] == 9
        lines = captured.err.splitlines()
        assert len(lines) == 9 and "Traceback" not in captured.err
        assert lines[2].startswith("FAIL criterion 3: stand-in 3 (")
        assert lines[7].startswith(
            "FAIL criterion 8: ArithmeticError('boom') (")
        assert lines[8].startswith("PASS criterion 9: stand-in 9 (")

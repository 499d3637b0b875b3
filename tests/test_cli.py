import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import mpref
from cflimits import cli, svgfig
from cflimits import limitset as L
from cflimits.errors import ConfigError
from cflimits.limitset import UnitModulusNumber as U
from cflimits.sphere import chordal_distance


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


WORKED_CONFIG = {
    "kind": "elliptic-cf",
    "alpha": {"angle": "sqrt(11)"},
    "beta": {"angle": "sqrt(13)"},
    "p": {"type": "geometric", "coefficient": 1.0, "ratio": 0.3},
    "q": {"type": "geometric", "coefficient": 1.0, "ratio": 0.2},
}


MP_CONFIG = {
    "kind": "matrix-product",
    "m": [[0.0, -1.0], [1.0, 0.0]],
    "perturbation": {"matrix": [[0.1, 0.0], [0.0, 0.1]]},
}

RS_CONFIG = {
    "kind": "rs-cf",
    "theta_limit": [[0.0, 1.0], [-1.0, 4.0 / 3.0]],
    "perturbation": {"matrix": [[0.0, 0.0], [0.2, 0.1]], "ratio": 0.4},
}


class TestAngleGrammar:
    def test_sqrt_term(self):
        u = cli.parse_angle_expression("sqrt(11)")
        assert u.residual == math.sqrt(11.0)
        assert u.turns == 0

    def test_exact_offset(self):
        u = cli.parse_angle_expression("sqrt(11)+2*pi*(1/17)")
        assert u.turns == Fraction(1, 17)
        assert u.residual == math.sqrt(11.0)

    def test_decimal_and_difference(self):
        u = cli.parse_angle_expression("1.5-2*pi*(1/4)")
        assert u.turns == Fraction(3, 4)
        assert u.residual == 1.5

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            cli.parse_angle_expression("sqrt(eleven)")

    @pytest.mark.parametrize(
        "text, residual",
        [("1e-3", 1e-3), ("2.5E+1", 25.0), ("sqrt(2)+1e-3", math.sqrt(2.0) + 1e-3)],
    )
    def test_decimal_exponent(self, text, residual):
        u = cli.parse_angle_expression(text)
        assert u.turns == 0
        assert u.residual == residual

    def test_negative_exponent_then_rational(self):
        u = cli.parse_angle_expression("-1e-3-2*pi*(1/4)")
        assert u.turns == Fraction(3, 4)
        assert u.residual == -1e-3

    def test_pi_and_whole_turn_terms(self):
        u = cli.parse_angle_expression("-pi+2*pi*3+2*pi*(1/8)")
        assert u.turns == Fraction(1, 8)
        assert u.residual == -math.pi

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty angle expression"), ("   ", "empty angle expression"),
         ("2*pi*(1/0)", "bad rational in angle term '2*pi*(1/0)'"),
         ("sqrt(-4)", "sqrt of negative integer in 'sqrt(-4)'"),
         ("1+tau", "cannot parse angle term 'tau'")],
        ids=["empty", "blank", "zero-denominator", "negative-sqrt", "unknown-term"],
    )
    def test_rejected_term_is_named(self, text, message):
        with pytest.raises(ConfigError) as info:
            cli.parse_angle_expression(text)
        assert str(info.value) == message


class TestConfigValidation:
    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = dict(WORKED_CONFIG)
        cfg["surprise"] = 1
        path = write_config(tmp_path, "bad.json", cfg)
        code = cli.main(["limit-set", "--config", path])
        assert code == cli.EXIT_CONFIG
        assert "surprise" in capsys.readouterr().err

    def test_bad_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["limit-set", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_missing_file_is_io_error(self, tmp_path):
        assert (
            cli.main(["limit-set", "--config", str(tmp_path / "absent.json")])
            == cli.EXIT_IO
        )

    def test_exhausted_budget_is_numeric_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "tight.json", WORKED_CONFIG)
        code = cli.main(["limit-set", "--config", path, "--tol", "1e-10", "--max-n", "5"])
        assert code == cli.EXIT_NUMERIC
        assert "budget" in capsys.readouterr().err

    def test_non_positive_tol_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "g.json", WORKED_CONFIG)
        assert cli.main(["limit-set", "--config", path, "--tol", "0"]) == cli.EXIT_CONFIG
        assert "tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", ["0", "-5"])
    def test_non_positive_max_n_is_config_error(self, tmp_path, capsys, max_n):
        limit = write_config(tmp_path, "g.json", WORKED_CONFIG)
        figure = write_config(tmp_path, "f3.json", {"kind": "figure", "which": "fig3"})
        out = tmp_path / "out"
        for argv in (
            ["limit-set", "--config", limit, "--max-n", max_n],
            ["figure", "--config", figure, "--out", str(out), "--max-n", max_n],
        ):
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert "max_n must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("max_n", [0, -5])
    def test_non_positive_max_n_in_config_is_config_error(self, tmp_path, capsys, max_n):
        path = write_config(tmp_path, "g.json", dict(WORKED_CONFIG, max_n=max_n))
        assert cli.main(["limit-set", "--config", path]) == cli.EXIT_CONFIG
        assert "max_n must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, field",
        [
            ("matrix-product", {k: v for k, v in MP_CONFIG.items() if k != "m"}, "missing field 'm'"),
            ("matrix-product", dict(MP_CONFIG, perturbation={"ratio": 0.5}), "missing field 'matrix'"),
            ("rs-cf", {"kind": "rs-cf", "perturbation": {"matrix": [[0.1]]}}, "missing field 'theta_limit'"),
            ("recurrence", {"kind": "recurrence", "initial": [1.0]}, "missing field 'limits'"),
            ("limit-set", dict(WORKED_CONFIG, q={"type": "geometric"}), "missing field 'ratio'"),
            ("limit-set", dict(WORKED_CONFIG, q={"type": "poly-qn", "coefficients": [0, 1]}), "missing field 'q'"),
            ("recurrence", {"kind": "recurrence", "limits": [1.0, 2.0], "initial": [1.0, 0.5],
                            "perturbations": [5, 6]}, "perturbations"),
            ("limit-set", dict(WORKED_CONFIG, q={"type": "poly-qn", "q": 0.2, "coefficients": 5}),
             "coefficients"),
            ("verify", {"kind": "q-identity", "checks": [5]}, "checks"),
            ("limit-set", [WORKED_CONFIG], "bad.json: top-level value must be an object"),
            ("limit-set", dict(WORKED_CONFIG, kind="figure"), 'limit-set needs config kind "elliptic-cf"'),
            ("limit-set", dict(WORKED_CONFIG, alpha="sqrt(11)"),
             'config.alpha: expected {"root": [num, den]} or {"angle": "..."}'),
            ("limit-set", dict(WORKED_CONFIG, p=5), "config.p: expected a sequence descriptor object"),
            ("limit-set", dict(WORKED_CONFIG, q={"type": "banana"}),
             "config.q.type must be zero | geometric | poly-qn, got 'banana'"),
            ("limit-set", dict(WORKED_CONFIG, alpha={"angle": ""}), "empty angle expression"),
            ("figure", {"kind": "figure", "which": "fig9"}, "unknown figure 'fig9'"),
            ("verify", {"kind": "q-identity", "checks": [{"name": "nope"}]}, "unknown check 'nope'"),
            ("verify", {"kind": "q-identity", "checks": []}, "no checks selected"),
            ("matrix-product", dict(MP_CONFIG, mode="sideways"), "unknown mode 'sideways'"),
            ("recurrence", {"kind": "recurrence", "limits": [-1.0, 0.0], "initial": [1.0, 0.5],
                            "perturbations": [{"coefficient": 0.5, "ratio": 0.3}]},
             "one perturbation per coefficient required"),
            ("recurrence", {"kind": "recurrence", "limits": [-1.0, 0.0], "initial": [1.0]}, "need 2 initial values"),
        ],
        ids=["mp-no-m", "mp-no-matrix", "rs-no-theta", "rec-no-limits", "geometric-no-ratio",
             "poly-no-q", "perturbations-not-objects", "coefficients-not-list", "checks-not-objects",
             "top-level-list", "wrong-kind", "unit-point-string", "sequence-number", "sequence-type",
             "empty-angle", "unknown-figure", "unknown-check", "no-checks", "unknown-mode",
             "perturbation-count", "initial-count"],
    )
    def test_malformed_field_is_config_error(self, tmp_path, capsys, command, config, field):
        path = write_config(tmp_path, "bad.json", config)
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert field in err

    @pytest.mark.parametrize(
        "command, config, field",
        [
            ("rs-cf", dict(RS_CONFIG, r=None), "config.r"),
            ("limit-set", dict(WORKED_CONFIG, tol=[1]), "config.tol"),
            ("limit-set", dict(WORKED_CONFIG, q={"type": "geometric", "ratio": None}), "config.q.ratio"),
            ("limit-set", dict(WORKED_CONFIG, alpha={"root": [1, 0]}), "config.alpha.root"),
            ("limit-set", dict(WORKED_CONFIG, alpha={"root": [1, None]}), "config.alpha.root"),
            ("matrix-product", dict(MP_CONFIG, perturbation={"matrix": [[0.1]]}), "config.perturbation.matrix"),
            ("rs-cf", dict(RS_CONFIG, perturbation={"matrix": [[0.1]]}), "config.perturbation.matrix"),
            ("matrix-product", dict(MP_CONFIG, tol="nan"), "tol must be positive"),
            ("matrix-product", dict(MP_CONFIG, mode="residue", order=4, tol="inf"), "tol must be positive"),
            ("limit-set", dict(WORKED_CONFIG, p={"type": "geometric", "coefficient": [None, 0], "ratio": 0.3}),
             "config.p.coefficient.re: expected float, got None"),
            ("matrix-product", dict(MP_CONFIG, m=[[0.0, [1.0, None]], [1.0, 0.0]]), "config.m.im"),
            ("matrix-product", dict(MP_CONFIG, m=[[math.inf, -1.0], [1.0, 0.0]]), "config.m: expected finite"),
            ("matrix-product", dict(MP_CONFIG, m=[[["inf", 0], -1.0], [1.0, 0.0]]), "config.m: expected finite"),
            ("matrix-product", dict(MP_CONFIG, perturbation={"matrix": [[0.1, 0.0], [0.0, [0, "nan"]]]}),
             "config.perturbation.matrix: expected finite"),
            ("limit-set", dict(WORKED_CONFIG, p={"type": "geometric", "coefficient": ["inf", 0], "ratio": 0.3}),
             "config.p.coefficient: expected finite"),
            ("limit-set", dict(WORKED_CONFIG, q={"type": "poly-qn", "q": 0.2, "coefficients": [0, -math.inf]}),
             "config.q.coefficients: expected finite"),
            ("recurrence", {"kind": "recurrence", "limits": [1.0, math.nan]}, "config.limits: expected finite"),
            ("matrix-product", dict(MP_CONFIG, mode="residue", order=2.5), "config.order: expected int, got 2.5"),
            ("matrix-product", dict(MP_CONFIG, mode="residue", order=True), "config.order: expected int, got True"),
            ("limit-set", dict(WORKED_CONFIG, alpha={"root": [1.5, 4]}), "config.alpha.root: expected int, got 1.5"),
            ("limit-set", dict(WORKED_CONFIG, max_n=math.inf), "config.max_n: expected int, got inf"),
            ("limit-set", dict(WORKED_CONFIG, tol=True), "config.tol: expected float, got True"),
            ("rs-cf", dict(RS_CONFIG, k_max=60.5), "config.k_max: expected int, got 60.5"),
            ("limit-set", dict(WORKED_CONFIG, p={"type": "geometric", "coefficient": True, "ratio": 0.3}),
             "config.p.coefficient: expected number or [re, im], got True"),
            ("matrix-product", dict(MP_CONFIG, m=[[0.0, [1.0, False]], [1.0, 0.0]]),
             "config.m.im: expected float, got False"),
            ("matrix-product", dict(MP_CONFIG, m=[[0.0, -1.0], [1.0]]), "config.m: expected a square matrix"),
            ("rs-cf", dict(RS_CONFIG, theta_limit=[[0.0, 1.0, 2.0], [-1.0, 4.0 / 3.0]]),
             "config.theta_limit: expected a square matrix"),
            ("matrix-product", dict(MP_CONFIG, m=[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]), "config.m: expected a square matrix"),
            ("matrix-product", dict(MP_CONFIG, m=[[1.0, 1.0], [0.0, 1.0]]), "not (numerically) diagonalizable"),
            ("limit-set", dict(WORKED_CONFIG, p={"type": "geometric", "coefficient": 1.0, "ratio": 1.0}),
             "config.p: ratio must lie in [0, 1), got 1.0"),
            ("limit-set", dict(WORKED_CONFIG, q={"type": "poly-qn", "q": [0.0, -1.0], "coefficients": [0, 1.0]}),
             "config.q: |q| must be < 1, got 1.0"),
            ("limit-set", dict(WORKED_CONFIG, p={"type": "poly-qn", "q": 0.3, "coefficients": [0.5, 1.0]}),
             "config.p: the constant term must be zero, got (0.5+0j)"),
        ],
        ids=["rs-r-null", "tol-list", "ratio-null", "root-zero-order", "root-null", "mp-shape", "rs-shape",
             "mp-tol-nan", "mp-residue-tol-inf", "coefficient-re-null", "matrix-entry-im-null",
             "mp-entry-inf", "mp-entry-str-inf", "mp-pert-nan", "coefficient-inf", "poly-coefficient-inf",
             "rec-limit-nan", "order-fraction", "order-bool", "root-fraction", "max-n-inf", "tol-bool",
             "k-max-fraction", "coefficient-bool", "entry-im-bool", "mp-ragged", "rs-ragged",
             "mp-not-square", "mp-jordan", "geometric-ratio", "poly-q-on-circle", "poly-constant-term"],
    )
    def test_bad_scalar_or_shape_is_config_error(self, tmp_path, capsys, command, config, field):
        path = write_config(tmp_path, "bad.json", config)
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert field in err

    def test_integral_float_reads_as_int(self, tmp_path, capsys):
        config = dict(MP_CONFIG, mode="residue", order=4, m=[[0.0, -1.0], [1.0, 0.0]])
        outputs = []
        for order in (4, 4.0):
            path = write_config(tmp_path, "mp.json", dict(config, order=order))
            assert cli.main(["matrix-product", "--config", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_flag_is_config_error(self, tmp_path, capsys, tol):
        path = write_config(tmp_path, "g.json", WORKED_CONFIG)
        assert cli.main(["limit-set", "--config", path, "--tol", tol, "--max-n", "20000"]) == cli.EXIT_CONFIG
        assert "tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_rejected_figure_tol_leaves_no_out_directory(self, tmp_path, capsys, tol):
        figure = write_config(tmp_path, "f3.json", {"kind": "figure", "which": "fig3"})
        out = tmp_path / "o"
        assert cli.main(["figure", "--config", figure, "--out", str(out), "--tol", tol]) == cli.EXIT_CONFIG
        assert "tol must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("trim", -1), ("trim", 0), ("trim", "nan"), ("trim", "inf"), ("count", -5)],
    )
    def test_bad_figure_trim_or_count_is_config_error(self, tmp_path, capsys, field, value):
        figure = write_config(tmp_path, "f6.json", {"kind": "figure", "which": "fig6", field: value})
        out = tmp_path / "o"
        assert cli.main(["figure", "--config", figure, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"config error: config.{field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_figure_cf_rejects_run_fields(self, tmp_path, capsys):
        cf = {k: v for k, v in WORKED_CONFIG.items() if k != "kind"}
        for extra in ({"kind": "banana"}, {"tol": 1e-3}, {"max_n": 5}):
            config = {"kind": "figure", "which": "custom", "cf": dict(cf, **extra)}
            path = write_config(tmp_path, "fc.json", config)
            assert cli.main(["figure", "--config", path, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "config.cf" in err and next(iter(extra)) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [["--tol", "1e-2"], ["--max-n", "3"]])
    @pytest.mark.parametrize("command", ["verify", "matrix-product", "recurrence", "rs-cf"])
    def test_tol_and_max_n_rejected_where_unused(self, tmp_path, capsys, command, flag):
        # Only limit-set and figure read these flags; elsewhere argparse must
        # refuse them rather than let them pass silently.
        path = write_config(tmp_path, "any.json", {"kind": command})
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", path, *flag])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("matrix-product", dict(MP_CONFIG, perturbation={"matrix": [[0.1, 0.0], [0.0, 0.1]], "ratio": 1.0}),
             "config.perturbation: ratio must lie in [0, 1), got 1.0"),
            ("matrix-product", dict(MP_CONFIG, perturbation={"matrix": [[0.1, 0.0], [0.0, 0.1]], "ratio": math.nan}),
             "config.perturbation: ratio must lie in [0, 1), got nan"),
            ("rs-cf", dict(RS_CONFIG, perturbation={"matrix": [[0.0, 0.0], [0.2, 0.1]], "ratio": 1.5}),
             "config.perturbation: ratio must lie in [0, 1), got 1.5"),
            ("recurrence", {"kind": "recurrence", "limits": [-1.0, 0.0], "initial": [1.0, 0.5],
                            "perturbations": [{"coefficient": 0.5, "ratio": 0.3},
                                              {"coefficient": 0.5, "ratio": -0.1}]},
             "config.perturbations[]: ratio must lie in [0, 1), got -0.1"),
        ],
        ids=["mp-ratio-one", "mp-ratio-nan", "rs-ratio-above-one", "rec-ratio-negative"],
    )
    def test_ratio_out_of_range_names_the_field(self, tmp_path, capsys, command, config, message):
        path = write_config(tmp_path, "bad.json", config)
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_other_package_error_exits_3(self, tmp_path, capsys):
        # diag(1, -1) has order 2, so M^3 != I: not a config, budget or i/o failure.
        config = dict(MP_CONFIG, mode="residue", order=3, m=[[1.0, 0.0], [0.0, -1.0]])
        path = write_config(tmp_path, "mp.json", config)
        assert cli.main(["matrix-product", "--config", path]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == "error: M^3 differs from the identity\n"


class TestLimitSetCommand:
    def test_worked_example_report(self, tmp_path, capsys):
        path = write_config(tmp_path, "g.json", WORKED_CONFIG)
        code = cli.main(["limit-set", "--config", path])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] is None
        high = complex(*doc["concentration"]["highest"])
        assert abs(high - (1.16911 + 0.374194j)) < 1e-4
        assert doc["geometry"]["type"] == "circle"

    def test_line_case_report(self, tmp_path, capsys):
        config = {
            "kind": "elliptic-cf",
            "alpha": {"angle": "0.8410686705679302"},  # atan2(sqrt5/3, 2/3)
            "beta": {"angle": "-0.8410686705679302"},
            "p": {"type": "zero"},
            "q": {"type": "zero"},
        }
        path = write_config(tmp_path, "line.json", config)
        assert cli.main(["limit-set", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["geometry"]["type"] == "line"
        high = complex(*doc["concentration"]["highest"])
        assert abs(high - (-2.0 / 3.0)) < 1e-9

    def test_seventeen_limits_report(self, tmp_path, capsys):
        config = dict(WORKED_CONFIG)
        config["beta"] = {"angle": "sqrt(11)+2*pi*(1/17)"}
        path = write_config(tmp_path, "r17.json", config)
        assert cli.main(["limit-set", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 17
        assert doc["rank"] == 17
        assert len(doc["limit_points"]) == 17

    def test_exact_roots_with_polynomial_sequences(self, tmp_path, capsys):
        # K(-1/3 + q^n)/(1 + q^n) in normalized form: twelfth roots of
        # unity with polynomial-in-q^n perturbations; rank six.
        d = 1.0 / math.sqrt(3.0)
        config = {
            "kind": "elliptic-cf",
            "alpha": {"root": [1, 12]},
            "beta": {"root": [11, 12]},
            "p": {"type": "poly-qn", "q": 0.3, "coefficients": [0, 1.0 / d]},
            "q": {"type": "poly-qn", "q": 0.3, "coefficients": [0, 1.0 / d**2]},
        }
        path = write_config(tmp_path, "q6.json", config)
        assert cli.main(["limit-set", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 6  # order of the quotient
        assert doc["rank"] == 6
        assert doc["residue"]["m"] == 12
        assert doc["residue"]["det_identity_residual"] < 1e-9

    def test_max_n_bounds_the_residue_run(self, tmp_path, capsys):
        # On exact roots the report's one h run also yields the residues, at
        # their finer tol; --max-n is its budget, and n_terms its need.
        path = write_config(tmp_path, "q6.json", RECORDED_CASES["ls-polyqn"][2])
        assert cli.main(["limit-set", "--config", path]) == 0
        need = json.loads(capsys.readouterr().out)["n_terms"]
        assert cli.main(["limit-set", "--config", path, "--max-n", str(need)]) == 0
        capsys.readouterr()
        assert cli.main(["limit-set", "--config", path, "--max-n", str(need - 1)]) == cli.EXIT_NUMERIC
        assert "budget" in capsys.readouterr().err


class TestFigureCommands:
    def test_fig3_points_hug_circle(self, tmp_path, capsys):
        path = write_config(tmp_path, "f3.json", {"kind": "figure", "which": "fig3"})
        out = tmp_path / "out"
        assert cli.main(["figure", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        csv_lines = (out / "fig3.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "n,re,im"
        assert len(csv_lines) == 3001

        spec = cli._builtin_fig_spec("fig3")
        report = L.limit_set_report(spec, 1e-10)
        # sample the predicted circle finely and measure chordal distance
        import cmath

        circle_pts = np.array([
            report.h_raw.apply(cmath.rect(1.0, 2 * math.pi * t / 2048)).z
            for t in range(2048)
        ])
        circle_hypot = np.hypot(1.0, np.abs(circle_pts))
        close = total = 0
        for line in csv_lines[1:]:
            n_s, re_s, im_s = line.split(",")
            if int(n_s) <= 100:
                continue
            total += 1
            z = complex(float(re_s), float(im_s))
            chordal = 2.0 * np.abs(z - circle_pts) / (math.hypot(1.0, abs(z)) * circle_hypot)
            if chordal.min() < 0.05:
                close += 1
        assert close / total >= 0.99

    def test_fig4_clusters_match_limit_points(self, tmp_path, capsys):
        path = write_config(tmp_path, "f4.json", {"kind": "figure", "which": "fig4"})
        out = tmp_path / "out4"
        assert cli.main(["figure", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        spec = cli._builtin_fig_spec("fig4")
        report = L.limit_set_report(spec, 1e-10)
        points = report.limit_points
        assert len(points) == 17
        clusters = {j: [] for j in range(17)}
        for line in (out / "fig4.csv").read_text().strip().splitlines()[1:]:
            n_s, re_s, im_s = line.split(",")
            if int(n_s) <= 100:
                continue
            z = complex(float(re_s), float(im_s))
            dists = [chordal_distance(z, p) for p in points]
            clusters[dists.index(min(dists))].append(z)
        for j, members in clusters.items():
            assert members, f"cluster {j} empty"
            centroid = sum(members) / len(members)
            assert abs(centroid - points[j].z) < 1e-3

    def test_fig5_emits_seventeen_points(self, tmp_path, capsys):
        path = write_config(tmp_path, "f5.json", {"kind": "figure", "which": "fig5"})
        out = tmp_path / "out5"
        assert cli.main(["figure", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "fig5.csv").read_text().strip().splitlines()
        assert len(lines) == 18  # header + 17 points

    def test_fig6_histogram_peak_contains_minus_two_thirds(self, tmp_path, capsys):
        path = write_config(tmp_path, "f6.json", {"kind": "figure", "which": "fig6"})
        out = tmp_path / "out6"
        assert cli.main(["figure", "--config", path, "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        lo, hi = doc["peak_bin"]
        assert lo <= -2.0 / 3.0 <= hi
        assert doc["dropped"] < 200  # "about 100 extreme values" scale

    def test_custom_figure(self, tmp_path, capsys):
        config = {
            "kind": "figure",
            "which": "custom",
            "count": 400,
            "basename": "mine",
            "cf": {k: v for k, v in WORKED_CONFIG.items() if k != "kind"},
        }
        path = write_config(tmp_path, "fc.json", config)
        out = tmp_path / "outc"
        assert cli.main(["figure", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "mine.svg").exists()
        lines = (out / "mine.csv").read_text().strip().splitlines()
        assert len(lines) == 401

    def test_custom_line_figure_draws_its_points(self, tmp_path, capsys):
        # |c| = |d|: the limit set is a line, whose overlay has no extent of
        # its own, so the window must still be fitted to the approximants.
        config = {
            "kind": "figure", "which": "custom", "count": 200,
            "cf": {k: v for k, v in RECORDED_CASES["ls-line"][2].items() if k != "kind"},
        }
        path = write_config(tmp_path, "line.json", config)
        docs, svgs = [], []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["figure", "--config", path, "--out", str(out)]) == 0
            docs.append(json.loads(capsys.readouterr().out))
            svgs.append((out / "figure.svg").read_bytes())
        assert docs[0]["points"] == 200
        assert docs[0]["drawn"] > 0
        assert docs[0]["drawn"] == docs[1]["drawn"]
        assert svgs[0] == svgs[1]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_window_ignores_non_finite_points(self, tmp_path, bad):
        points = [(0.0, 0.0), (1.0, 1.0), (bad, 0.5), (0.5, bad)]
        assert svgfig.scatter_svg(str(tmp_path / "s.svg"), points) == 2


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_failing_tolerance_exits_5(self, tmp_path, capsys):
        config = {
            "kind": "q-identity",
            "checks": [{"name": "rbm", "q": 0.3, "alpha": {"angle": "sqrt(2)"},
                        "beta": {"angle": "1.0"}, "tolerance": 1e-30}],
        }
        path = write_config(tmp_path, "v.json", config)
        assert cli.main(["verify", "--config", path]) == cli.EXIT_VERIFY


class TestOtherCommands:
    def test_matrix_product_residue(self, tmp_path, capsys):
        config = {
            "kind": "matrix-product",
            "mode": "residue",
            "order": 2,
            "m": [[1.0, 0.0], [0.0, -1.0]],
            "perturbation": {"matrix": [[0.25, 0.0], [0.0, 0.0]], "ratio": 1.0 / 3.0},
        }
        path = write_config(tmp_path, "mp.json", config)
        assert cli.main(["matrix-product", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["residue_limits"]) == 2

    def test_matrix_product_residue_with_a_tail_too_large_for_expm1(self, tmp_path, capsys):
        # The tail after period 1 is 4374, where expm1 overflowed: exit 1 with a traceback.
        config = {
            "kind": "matrix-product",
            "mode": "residue",
            "order": 2,
            "m": [[0.0, 1.0], [1.0, 0.0]],
            "perturbation": {"matrix": [[300.0, 0.0], [0.0, 300.0]], "ratio": 0.9},
        }
        path = write_config(tmp_path, "mp.json", config)
        assert cli.main(["matrix-product", "--config", path]) == 0
        f = np.array([[complex(*v) for v in row] for row in json.loads(capsys.readouterr().out)["f"]])
        m_mp, e_mp = mpref.to_mp(config["m"]), mpref.to_mp(300.0 * np.eye(2))
        want = mpref.period_limit(lambda n: m_mp + mpref.mp.mpf(0.9) ** n * e_mp, 2, 2, 0.9, "left")
        assert abs(f).max() == pytest.approx(1.9085e72, rel=1e-4)
        assert mpref.max_abs_error(f, want) < 1e-13 * abs(f).max()

    @pytest.mark.parametrize("mode", ["residue", "cocycle"])
    def test_matrix_product_bad_side_is_config_error(self, tmp_path, capsys, mode):
        config = {
            "kind": "matrix-product",
            "mode": mode,
            "order": 2,
            "side": "sideways",
            "m": [[1.0, 0.0], [0.0, -1.0]],
            "perturbation": {"matrix": [[0.25, 0.0], [0.0, 0.0]], "ratio": 1.0 / 3.0},
        }
        path = write_config(tmp_path, "mp.json", config)
        assert cli.main(["matrix-product", "--config", path]) == cli.EXIT_CONFIG
        assert "side" in capsys.readouterr().err

    def test_recurrence_command(self, tmp_path, capsys):
        config = {
            "kind": "recurrence",
            "limits": [-1.0, 4.0 / 3.0],
            "perturbations": [
                {"coefficient": 1.0, "ratio": 0.3},
                {"coefficient": 0.0, "ratio": 0.0},
            ],
            "initial": [1.0, 0.5],
        }
        path = write_config(tmp_path, "rec.json", config)
        assert cli.main(["recurrence", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residual"] < 1e-8
        assert len(doc["c"]) == 2

    def test_recurrence_with_unequal_ratios_matches_40_digit_reference(self, tmp_path, capsys):
        # x_{n+2} = (-1 + 0.5 * 0.3^n) x_n + 0.5 * 0.6^n x_{n+1}: roots +-i, so four class limits.
        config = {
            "kind": "recurrence",
            "limits": [-1.0, 0.0],
            "perturbations": [{"coefficient": 0.5, "ratio": 0.3}, {"coefficient": 0.5, "ratio": 0.6}],
            "initial": [1.0, 0.5],
        }
        path = write_config(tmp_path, "rec.json", config)
        assert cli.main(["recurrence", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        roots, c = ([complex(*v) for v in doc[key]] for key in ("roots", "c"))
        l = [sum(ci * root**j for ci, root in zip(c, roots)) for j in range(4)]
        mp, half = mpref.mp, mpref.mp.mpf(0.5)
        want = mpref.recurrence_residues(
            lambda n: (-1 + half * mp.mpf(0.3) ** n, half * mp.mpf(0.6) ** n), (1.0, 0.5), 4, 0.6)
        assert mpref.max_abs_diff(l, want) <= 1e-10
        # The stop that the sum of the two row tails gives.
        assert doc["n_terms"] == 49

    def test_recurrence_without_perturbation_matches_40_digit_reference(self, tmp_path, capsys):
        # Every factor equals M, so the zero tail bound is exact and stops the cocycle at n = 1.
        path = write_config(tmp_path, "rec.json", RECORDED_CASES["rec-nopert"][2])
        assert cli.main(["recurrence", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        roots, c = ([complex(*v) for v in doc[key]] for key in ("roots", "c"))
        mp = mpref.mp
        with mp.workdps(mpref.DPS):
            exact = [mp.mpc(mp.mpf(2) / 3, sign * mp.sqrt(5) / 3) for sign in (1, -1)]
            a1, a2 = (min(exact, key=lambda e: abs(e - r)) for r in roots)  # x_n = c1 a1^n + c2 a2^n
            want = [(mp.mpf(0.5) - a2) / (a1 - a2), (mp.mpf(0.5) - a1) / (a2 - a1)]
        assert a1 != a2
        assert mpref.max_abs_diff(c, want) <= 1e-9
        assert doc["n_terms"] == 1

    def test_rs_cf_command(self, tmp_path, capsys):
        config = {
            "kind": "rs-cf",
            "r": 1,
            "s": 1,
            "theta_limit": [[0.0, 1.0], [-1.0, 4.0 / 3.0]],
            "perturbation": {"matrix": [[0.0, 0.0], [0.2, 0.1]], "ratio": 0.4},
            "k_max": 80,
        }
        path = write_config(tmp_path, "rs.json", config)
        assert cli.main(["rs-cf", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        errors = [s["error"] for s in doc["samples"] if s["error"] is not None]
        assert errors and max(errors) < 1e-8


class TestDeterminism:
    def test_figure_outputs_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, "f.json", {"kind": "figure", "which": "fig6"})
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["figure", "--config", path, "--out", str(out)]) == 0
            capsys.readouterr()
            outs.append(out)
        for name in ("fig6.svg", "fig6.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_verify_output_byte_identical(self, tmp_path, capsys):
        texts = []
        for sub in ("va", "vb"):
            out = tmp_path / sub
            assert cli.main(["verify", "--out", str(out)]) == 0
            capsys.readouterr()
            texts.append((out / "verify.txt").read_bytes())
        assert texts[0] == texts[1]


_D = 1.0 / math.sqrt(3.0)

#: Small configs for every subcommand: (subcommand, extra flags, config).
RECORDED_CASES = {
    "ls-irrational": ("limit-set", [], WORKED_CONFIG),
    "ls-order17": ("limit-set", [], dict(WORKED_CONFIG, beta={"angle": "sqrt(11)+2*pi*(1/17)"})),
    "ls-line": ("limit-set", [], {
        "kind": "elliptic-cf", "alpha": {"angle": "0.8410686705679302"},
        "beta": {"angle": "-0.8410686705679302"}, "p": {"type": "zero"}, "q": {"type": "zero"},
    }),
    "ls-polyqn": ("limit-set", [], {
        "kind": "elliptic-cf", "alpha": {"root": [1, 12]}, "beta": {"root": [11, 12]},
        "p": {"type": "poly-qn", "q": 0.3, "coefficients": [0, 1.0 / _D]},
        "q": {"type": "poly-qn", "q": 0.3, "coefficients": [0, 1.0 / _D**2]},
    }),
    "ls-flags": ("limit-set", ["--tol", "1e-8", "--max-n", "50000"], dict(WORKED_CONFIG, tol=1e-6, max_n=1000)),
    "fig-custom": ("figure", [], {
        "kind": "figure", "which": "custom", "count": 400, "basename": "mine",
        "cf": {k: v for k, v in WORKED_CONFIG.items() if k != "kind"},
    }),
    "fig5": ("figure", ["--max-n", "100000"], {"kind": "figure", "which": "fig5", "basename": "five"}),
    "fig6-trim": ("figure", [], {"kind": "figure", "which": "fig6", "trim": 4.0, "count": 500}),
    "mp-residue": ("matrix-product", [], {
        "kind": "matrix-product", "mode": "residue", "order": 2, "m": [[1.0, 0.0], [0.0, -1.0]],
        "perturbation": {"matrix": [[0.25, 0.0], [0.0, 0.0]], "ratio": 1.0 / 3.0},
    }),
    "mp-cocycle-right": ("matrix-product", [], {
        "kind": "matrix-product", "mode": "cocycle", "side": "right", "m": [[0.0, -1.0], [1.0, 0.0]],
        "perturbation": {"matrix": [[0.1, 0.2], [0.0, 0.3]], "ratio": 0.5},
    }),
    "mp-cocycle-left": ("matrix-product", [], {
        "kind": "matrix-product", "m": [[0.0, -1.0], [1.0, 0.0]], "tol": 1e-9,
        "perturbation": {"matrix": [[0.1, [0.2, 0.1]], [0.0, 0.3]]},
    }),
    "rec-pert": ("recurrence", [], {
        "kind": "recurrence", "limits": [-1.0, 4.0 / 3.0], "initial": [1.0, 0.5],
        "perturbations": [{"coefficient": 1.0, "ratio": 0.3}, {"coefficient": 0.0, "ratio": 0.0}],
    }),
    "rec-nopert": ("recurrence", [], {
        "kind": "recurrence", "limits": [-1.0, 4.0 / 3.0], "initial": [1.0, 0.5], "tol": 1e-9,
    }),
    "rs-cf": ("rs-cf", [], {
        "kind": "rs-cf", "r": 1, "s": 1, "theta_limit": [[0.0, 1.0], [-1.0, 4.0 / 3.0]],
        "perturbation": {"matrix": [[0.0, 0.0], [0.2, 0.1]], "ratio": 0.4}, "k_max": 80,
    }),
    "verify-default": ("verify", [], None),
    "verify-pass": ("verify", [], {"kind": "q-identity", "checks": [
        {"name": "stern-stolz", "ratio": 0.25}, {"name": "ramanujan-3lim", "q": 0.2},
    ]}),
    "verify-fail": ("verify", [], {"kind": "q-identity", "checks": [
        {"name": "rbm", "q": 0.3, "alpha": {"angle": "sqrt(2)"}, "beta": {"angle": "1.0"}, "tolerance": 1e-30},
    ]}),
}

#: sha256 of exit code, stdout and every emitted file per case.  Floats are
#: printed in a fixed format, so a mismatch means a number or the layout of
#: an output changed; refactors of the CLI must leave these as they are.
RECORDED = {
    "fig-custom": "6c606ffbbd1e68b2bc0f51f9de5c580e61ed4047124e7bd310ecd7f0524d3b2e",
    "fig5": "c4f907dd30d4954623b89f6ffb7df7f693fae9536a270440d6a1ee174dc2c74c",
    "fig6-trim": "663fb723876335e3a62c6423b8e4b4e71dd8428479b3fd0321ec0d12ded9879d",
    "ls-flags": "f93643b3079a41f9ceb16bdd6a344f107568f1626e820cccd98421b278e8bd3c",
    "ls-irrational": "5d32371e85965f43afe581ae4c15d888c1d4cf370ace0107656399ad24cc9b28",
    "ls-line": "16b9d0d04821b315ed3946de8fe720e1867e9e8a02ee6449da029cd517b2474c",
    "ls-order17": "73e6390b25dda162ccf2aa4d02d4f2027d95a488f5af9463d7acd1ecfac00759",
    "ls-polyqn": "4afc10d354a0763f68d2d16f5c66da05d3acc099872add7f8545a86b833e00c0",
    "mp-cocycle-left": "cd6f7131fb42f80663610f00a450230a34f90ec6c324e77355d18bb2a0e877be",
    "mp-cocycle-right": "9e7b078517793b4728b06b76b2222db4c5fd291c7bb43f5be8abb30e7ed6970a",
    "mp-residue": "b38a0f8c87bfa386aef2eebc7212333a483c993ecf2eb754fd118a9af8486271",
    "rec-nopert": "a1c785a74ffab3204baf31b92b3d89b321471ff2eb1c596d73ba6fc4194798b8",
    "rec-pert": "e59e80dcf3ec8dbfa5bf25f6749e66006ced61505cc9ec5ac580046fcb92c7e3",
    "rs-cf": "26531b37c0dd3ca7b11c493f80bb545d20461ba3d46ae28e8f1ec1a741abcd4d",
    "verify-default": "9d11971d821856508a0768011afe7c9d9f9548bdb4390b9bb948dcfdbaff28e8",
    "verify-fail": "bcdf3bad10dda956b45bf75f4f4c389a15c9af0c7ccaaa365a6b590b729e7077",
    "verify-pass": "99d85a58c3dff99063f8d56578191c79b69e1ef35357286a36236f5249f9b6dd",
}


def recorded_digest(name: str) -> str:
    """Run one case from the current directory with --out out/<name>; hash what it emits."""
    command, flags, config = RECORDED_CASES[name]
    out = os.path.join("out", name)
    argv = [command, "--out", out, *flags]
    if config is not None:
        with open(name + ".json", "w", encoding="ascii") as fh:
            json.dump(config, fh)
        argv += ["--config", name + ".json"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    digest = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode())
    for file in sorted(os.listdir(out)):
        with open(os.path.join(out, file), "rb") as fh:
            digest.update(file.encode() + b"\0" + fh.read())
    return digest.hexdigest()


class TestRecordedOutputs:
    @pytest.mark.parametrize("name", sorted(RECORDED_CASES))
    def test_bytes_match_recording(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert recorded_digest(name) == RECORDED[name]


def _bits(value) -> str:
    """Every float of a result as its hex form; the point at infinity as "inf"."""
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_bits(v) for v in value) + "]"
    if isinstance(value, L.ExtendedComplex):
        return "inf" if value.is_infinity else _bits(value.z)
    if isinstance(value, complex):
        return value.real.hex() + "," + value.imag.hex()
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def _residue_bits(res) -> list:
    return [res.m, res.rank, res.A, res.B, res.values, res.periodicity_residual,
            res.det_identity_residual, res.n_terms]


def _residue_case(a: int, b: int, den: int):
    return lambda: _residue_bits(L.residue_limits(L.geometric_spec(
        U.root_of_unity(a, den), U.root_of_unity(b, den), 0.3 + 0.1j, 0.5, -0.2j, 0.4)))


def _order17_report():
    report = L.limit_set_report(
        L.geometric_spec(U(Fraction(0), math.sqrt(11)), U(Fraction(1, 17), math.sqrt(11)), 1.0, 0.3, 1.0, 0.2))
    return [report.m, report.limit_points, report.n_terms]


def _exact_root_report():
    report = L.limit_set_report(
        L.geometric_spec(U.root_of_unity(1, 12), U.root_of_unity(11, 12), 0.5, 0.3, 0.25j, 0.2))
    return [report.m, report.limit_points, report.n_terms, _residue_bits(report.residue)]


#: The numbers the root-of-unity paths report, each read off h in closed
#: form: (case, sha256 of ``_bits`` of every reported float).  The cases
#: cover m = 6, 90 and 960 with rank m and rank 3, one ``q_cf_rank`` spec,
#: and the limit points of ``limit_set_report`` at order 17 (numeric angles
#: with an exact-root quotient) and on exact roots of order 12.
RECORDED_BITS = {
    "m6-rank6": (_residue_case(2, 1, 6),
        "ac9d4f71cae199f126de3c591b1fbc7f31fed4c5a88cbf72d4a56c8dc86214e6"),
    "m6-rank3": (_residue_case(1, 3, 6),
        "c9916d0cde0bcc1e8177c2e77dc220db99c868fb2885e130b93206aaae60ea65"),
    "m90-rank90": (_residue_case(6, 89, 90),
        "45b4d69a2a4e6203ba532131abddc6a4c3ec120786e5994922924e4de20b15e6"),
    "m90-rank3": (_residue_case(1, 31, 90),
        "72ec5d8b1b546aca3472d4ae919c5af34e455b9b59a959f4a7c7d06be4462aea"),
    "m960-rank960": (_residue_case(6, 959, 960),
        "691419e2f509ff76063cb35240dd04b7ae15f8cc92e733f534acd1c243e886fc"),
    "m960-rank3": (_residue_case(1, 321, 960),
        "af69ea9e99187bb0fca20dfa00aac1043942656fc8b3a7df3056f4a111c35eee"),
    "q-cf-rank": (lambda: _residue_bits(L.q_cf_rank(
        [0, 1 / _D, 0.1j], [0, 1 / _D**2], U.root_of_unity(1, 12), U.root_of_unity(7, 12), 0.3 + 0.2j)),
        "407643b7c3dda685ea1e1bc31e278a1c7321d5eb927163421a1231bc3f01e6c0"),
    "report-order17": (_order17_report,
        "b8669d6515e5bf1664a6ab4af0901531e34213871d5dc4d5284d3d76d9ee01bb"),
    "report-exact-roots": (_exact_root_report,
        "bd13a2ee1d7c91d640f653273a0649d019784843ce77f0bbf35577630f606430"),
}


class TestRecordedBits:
    @pytest.mark.parametrize("name", sorted(RECORDED_BITS))
    def test_reported_floats_match_recording(self, name):
        case, digest = RECORDED_BITS[name]
        assert hashlib.sha256(_bits(case()).encode()).hexdigest() == digest


class TestModuleEntryPoint:
    """``python -m cflimits.cli`` as a fresh interpreter."""

    @staticmethod
    def python(*args, cwd):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )

    def run(self, *argv, cwd):
        return self.python("-m", "cflimits.cli", *argv, cwd=cwd)

    def test_verify_exits_zero(self, tmp_path):
        proc = self.run("verify", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout and "FAIL" not in proc.stdout

    def test_import_loads_no_cli_modules(self, tmp_path):
        # A fresh ``import cflimits`` is the benchmark's setup time; the CLI,
        # its SVG writer and their standard-library parsers must stay out of
        # it, and numpy must wait for first use there and in ``import
        # cflimits.cli``.  numpy itself is always in sys.modules (as a lazy
        # module until first touched), so the probe is numpy.linalg.
        probe = (
            "import sys, cflimits; print(sorted(set(sys.argv[1:]) & set(sys.modules)))\n"
            "import cflimits.cli; print('numpy.linalg' in sys.modules)"
        )
        proc = self.python(
            "-c", probe, "cflimits.cli", "cflimits.svgfig", "argparse", "json", "numpy.linalg", cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "False"]

    @pytest.mark.parametrize(
        "command, config",
        [
            ("limit-set", WORKED_CONFIG),
            ("limit-set", RECORDED_CASES["ls-polyqn"][2]),
            ("figure", {"kind": "figure", "which": "fig3"}),
            ("verify", None),
        ],
        ids=["limit-set", "limit-set-exact-roots", "fig3", "verify"],
    )
    def test_numpy_free_command_leaves_numpy_unloaded(self, tmp_path, command, config):
        probe = (
            "import contextlib, io, sys\n"
            "from cflimits import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(code, 'numpy.linalg' in sys.modules)"
        )
        argv = [command, "--out", str(tmp_path / "o")]
        if config is not None:
            argv += ["--config", write_config(tmp_path, "config.json", config)]
        proc = self.python("-c", probe, *argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_missing_field_exits_2_without_traceback(self, tmp_path):
        path = write_config(tmp_path, "mp.json", {k: v for k, v in MP_CONFIG.items() if k != "m"})
        proc = self.run("matrix-product", "--config", path, cwd=tmp_path)
        assert proc.returncode == cli.EXIT_CONFIG
        assert proc.stderr.startswith("config error: ")
        assert "Traceback" not in proc.stderr

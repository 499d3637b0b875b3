import json
import math
import os
from fractions import Fraction

import pytest

from cflimits import cli
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

        circle_pts = [
            report.h_raw.apply(cmath.rect(1.0, 2 * math.pi * t / 2048))
            for t in range(2048)
        ]
        close = total = 0
        for line in csv_lines[1:]:
            n_s, re_s, im_s = line.split(",")
            if int(n_s) <= 100:
                continue
            total += 1
            z = complex(float(re_s), float(im_s))
            if min(chordal_distance(z, w) for w in circle_pts) < 0.05:
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

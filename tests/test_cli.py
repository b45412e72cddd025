import os

import numpy as np
import pytest

from haraux import bounds, cli, functions
from haraux.core import DualPair
from haraux.oracle import DEFAULT_SEED


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestBoundCommand:
    def test_burg_legendre_self(self, capsys):
        code, out, _ = _run(capsys, [
            "bound", "--phi", "burg", "--point", "1;-0.5",
            "--method", "legendre_self",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == cli.BOUND_HEADER
        row = dict(zip(cli.BOUND_HEADER, lines[1].split(",")))
        assert float(row["bound"]) == pytest.approx(1.0 / 12.0, abs=1e-14)
        assert float(row["exact"]) >= float(row["bound"])
        assert row["method"] == "legendre_self"

    def test_values_round_trip_through_csv(self, capsys):
        code, out, _ = _run(capsys, [
            "bound", "--phi", "boltzmann_shannon", "--point", "0.7;1.3",
            "--method", "carlier_fy",
        ])
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        # 17 significant digits must round-trip exactly.
        v = float(row[4])
        assert f"{v:.17g}" == row[4]

    def test_gamma_grid(self, capsys):
        code, out, _ = _run(capsys, [
            "sweep", "--phi", "burg", "--point", "1;-0.5",
            "--gamma", "0.1,1,10",
        ])
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_vector_point(self, capsys):
        code, out, _ = _run(capsys, [
            "bound", "--phi", "quadratic", "--point", "1,2;0,0",
            "--method", "carlier_fy",
        ])
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "1;2"

    def test_operator_route(self, capsys):
        args = ["bound", "--op-a", "subdiff:burg", "--point", "1;-0.5"]
        code, out, _ = _run(capsys, args + ["--method", "carlier_haraux"])
        assert code == 0
        row = dict(zip(cli.BOUND_HEADER, out.strip().splitlines()[1].split(",")))
        assert float(row["bound"]) == pytest.approx(0.0788353903933773, abs=1e-12)
        assert row["exact"] == ""  # no closed form without phi
        # Without --method the operator route computes pairing.
        code, out, _ = _run(capsys, args)
        assert code == 0
        row = dict(zip(cli.BOUND_HEADER, out.strip().splitlines()[1].split(",")))
        assert row["method"] == "pairing"
        # The self-pair and prox bounds need --phi: no silent relabelling.
        for method in ("legendre_self", "carlier_fy"):
            code, out, err = _run(capsys, args + ["--method", method])
            assert code == cli.EXIT_CONFIG and out == ""
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        # bregman takes its kernel from --f, and the error says so.
        code, out, err = _run(capsys, ["bound", "--op-a", "grad:burg", "--point",
                                       "0.5;-0.5", "--method", "bregman"])
        assert code == cli.EXIT_CONFIG and out == ""
        assert err.startswith("error:") and "--f" in err
        assert len(err.strip().splitlines()) == 1

    def test_joca16_on_a_half_line_psi(self, capsys):
        # psi = t ln t - t has psi'' = 1/t, so its derivative is not
        # 25-Lipschitz on (0, inf) and the operator is not monotone: a
        # config error.
        code, out, err = _run(capsys, ["bound", "--op-a", "joca16:25,boltzmann_shannon",
                                       "--point", "1,2;29,38"])
        assert code == cli.EXIT_CONFIG and out == ""
        assert err.startswith("error:") and "Lipschitz" in err
        assert len(err.strip().splitlines()) == 1

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "b.csv"
        code, out, _ = _run(capsys, [
            "bound", "--phi", "burg", "--point", "1;-0.5",
            "--out", str(out_file),
        ])
        assert code == 0 and out == ""
        header, rows = _read_csv(out_file)
        assert header == cli.BOUND_HEADER and len(rows) == 1

    def test_deterministic_output(self, capsys, tmp_path):
        args = ["bound", "--phi", "fermi_dirac", "--point", "0.3;0.7",
                "--method", "bregman"]
        texts = []
        for name in ("a.csv", "b.csv"):
            f = tmp_path / name
            assert cli.main(args + ["--out", str(f)]) == 0
            texts.append(f.read_text())
        assert texts[0] == texts[1]


class TestErrorPaths:
    def test_bad_point_is_config_error(self, capsys):
        code, _, err = _run(capsys, ["bound", "--phi", "burg", "--point", "1"])
        assert code == cli.EXIT_CONFIG
        assert "error:" in err

    def test_unknown_function(self, capsys):
        code, _, err = _run(capsys, [
            "bound", "--phi", "nope", "--point", "1;-0.5",
        ])
        assert code == cli.EXIT_CONFIG

    def test_missing_point(self, capsys):
        code, _, _ = _run(capsys, ["bound", "--phi", "burg"])
        assert code == cli.EXIT_CONFIG

    def test_negative_gamma(self, capsys):
        code, _, _ = _run(capsys, [
            "bound", "--phi", "burg", "--point", "1;-0.5", "--gamma", "-1",
        ])
        assert code == cli.EXIT_CONFIG

    def test_overflow_is_domain_error_without_traceback(self, capsys):
        # grad phi*(u) = exp(u - 1) overflows a float at u* = 2000.
        code, out, err = _run(capsys, [
            "bound", "--phi", "boltzmann_shannon", "--point", "1;2000",
        ])
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [bounds.InternalConsistencyError])
    def test_bound_errors_are_solver_failures(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc("bound not usable")

        monkeypatch.setattr(bounds, "fy_bound_dispatch", fail)
        code, _, err = _run(capsys, [
            "bound", "--phi", "burg", "--point", "1;-0.5", "--method", "bregman",
        ])
        assert code == cli.EXIT_SOLVER
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_point_outside_domain(self, capsys):
        code, _, _ = _run(capsys, [
            "bound", "--phi", "burg", "--point=-1;-0.5",
            "--method", "legendre_self",
        ])
        assert code == cli.EXIT_CONFIG


_CATALOG = ["quadratic", "burg", "boltzmann_shannon", "fermi_dirac"]
_CATALOG += ["quad_plus:" + name for name in _CATALOG]
_CATALOG_CALLS = (
    [["--phi", name, "--method", m] for name in _CATALOG for m in cli.BOUND_METHODS]
    + [["--op-a", f"{kind}:{name}", "--method", m]
       + (["--f", name] if m == "bregman" else [])
       for kind in ("grad", "subdiff") for name in _CATALOG
       for m in ("pairing", "strong", "bregman", "carlier_haraux")]
)


@pytest.mark.parametrize("flags", _CATALOG_CALLS,
                         ids=lambda f: f"{f[0][2:]}={f[1]},{f[3]}")
def test_catalog_input_never_ends_in_a_traceback(capsys, flags):
    # Either a row, or one error line with a documented exit code.
    code, out, err = _run(capsys, ["bound", "--point", "0.5;-0.5"] + flags)
    if code == cli.EXIT_OK:
        assert len(out.strip().splitlines()) == 2 and err == ""
    else:
        assert code in (cli.EXIT_CONFIG, cli.EXIT_SOLVER) and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    if flags[0] == "--phi" and flags[3] == "carlier_haraux":
        assert code == cli.EXIT_CONFIG and "--op-a" in err


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys, tmp_path):
        report = tmp_path / "report.csv"
        code, _, err = _run(capsys, ["verify", "--out", str(report)])
        assert code == 0, err
        header, rows = _read_csv(report)
        assert header == cli.VERIFY_HEADER
        assert rows and all(r[2] == "pass" for r in rows)

    def test_report_gives_the_resolved_seed_and_suite_times(self, capsys, tmp_path, monkeypatch):
        # The first five columns are the old report; seed and suite_s follow.
        assert cli.VERIFY_HEADER == ["module", "check", "status", "measured", "threshold",
                                     "seed", "suite_s"]
        for flags, env, seed in (([], None, DEFAULT_SEED), ([], "12345", 12345),
                                 (["--seed", "7"], "12345", 7)):
            if env is None:
                monkeypatch.delenv("HARAUX_SEED", raising=False)
            else:
                monkeypatch.setenv("HARAUX_SEED", env)
            report = tmp_path / "r.csv"
            code, _, err = _run(capsys, ["verify", "--out", str(report), *flags])
            assert code == 0, err
            _, rows = _read_csv(report)
            assert {r[5] for r in rows} == {str(seed)}
            assert all(float(r[6]) > 0.0 for r in rows)

    def test_self_test_corrupt_fails(self, capsys, tmp_path):
        report = tmp_path / "report.csv"
        code, _, err = _run(capsys, [
            "verify", "--self-test-corrupt", "--out", str(report),
        ])
        assert code == cli.EXIT_CHECK_FAILED
        assert "FAILED" in err


class TestFigureCommand:
    def test_panels_written(self, figure1_dir):
        names = ["burg_gamma0.1", "burg_gamma1", "burg_gamma10",
                 "boltzmann_shannon_gamma1"]
        for name in names:
            csv = figure1_dir / f"{name}.csv"
            svg = figure1_dir / f"{name}.svg"
            assert csv.exists() and svg.exists()
            header, rows = _read_csv(csv)
            assert header == cli.FIGURE_HEADER
            assert len(rows) >= 200
            text = svg.read_text()
            assert text.startswith("<svg") and "polyline" in text

    def test_csv_bytes_equal_the_reference(self, figure1_dir):
        # The committed reference of the benchmark gate, read, never written.
        ref_dir = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                               "reference", "figure1")
        for name in ("burg_gamma0.1", "burg_gamma1", "burg_gamma10",
                     "boltzmann_shannon_gamma1"):
            with open(os.path.join(ref_dir, f"{name}.csv"), "rb") as fh:
                assert (figure1_dir / f"{name}.csv").read_bytes() == fh.read(), name

    def test_csv_only_format(self, capsys, tmp_path):
        out = tmp_path / "fig"
        code, _, _ = _run(capsys, [
            "figure1", "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        assert not list(out.glob("*.svg"))
        assert len(list(out.glob("*.csv"))) == 4


class TestGaugeCommand:
    def _instance_file(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text(
            "type=kt_linear_quadratic\n"
            "L=1 0.5;0 1\n"
            "x_bar=1,-2\n"
            "y_bar=0.5,1.5\n"
            "gamma=1\n"
        )
        return path

    def test_zero_at_solution(self, capsys, tmp_path):
        inst = self._instance_file(tmp_path)
        code, out, _ = _run(capsys, [
            "gauge", "--instance", str(inst), "--point", "1,-2;0.5,1.5",
        ])
        assert code == 0
        row = dict(zip(cli.GAUGE_HEADER, out.strip().splitlines()[1].split(",")))
        assert float(row["gauge_value"]) <= 1e-12

    def test_positive_off_solution(self, capsys, tmp_path):
        inst = self._instance_file(tmp_path)
        code, out, _ = _run(capsys, [
            "gauge", "--instance", str(inst), "--point", "1.1,-1.9;0.6,1.6",
        ])
        assert code == 0
        row = dict(zip(cli.GAUGE_HEADER, out.strip().splitlines()[1].split(",")))
        assert float(row["gauge_value"]) >= 1e-4

    def test_missing_instance_file(self, capsys, tmp_path):
        code, _, _ = _run(capsys, [
            "gauge", "--instance", str(tmp_path / "nope.txt"),
            "--point", "1;-1",
        ])
        assert code == cli.EXIT_CONFIG

    def test_dimension_mismatch(self, capsys, tmp_path):
        inst = self._instance_file(tmp_path)
        code, _, _ = _run(capsys, [
            "gauge", "--instance", str(inst), "--point", "1;-1",
        ])
        assert code == cli.EXIT_CONFIG


class TestConfigAndSeed:
    def test_config_file_fills_missing_flags(self, capsys, tmp_path):
        p = DualPair([1.0], [-0.5])
        cases = [
            ("method=legendre_self\n", "1", "legendre_self", 1.0 / 12.0),
            ("gamma=0.5\nmethod=carlier_fy\n", "0.5", "carlier_fy",
             bounds.bound_carlier_fy(functions.burg(), p, 0.5).value),
        ]
        cfg = tmp_path / "cfg.txt"
        for keys, gamma, method, value in cases:
            cfg.write_text("phi=burg\npoint=1;-0.5\n" + keys)
            code, out, _ = _run(capsys, ["--config", str(cfg), "bound"])
            assert code == 0
            row = dict(zip(cli.BOUND_HEADER, out.strip().splitlines()[1].split(",")))
            assert (row["gamma"], row["method"]) == (gamma, method)
            assert float(row["bound"]) == pytest.approx(value, abs=1e-14)

    def test_config_method_is_validated(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("phi=burg\npoint=1;-0.5\nmethod=nope\n")
        code, _, err = _run(capsys, ["--config", str(cfg), "bound"])
        assert code == cli.EXIT_CONFIG and "nope" in err

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("phi=burg\npoint=1;-0.5\nmethod=legendre_self\n")
        code, out, _ = _run(capsys, [
            "--config", str(cfg), "bound", "--phi", "quadratic",
        ])
        assert code == 0
        # quadratic legendre_self at (1, -0.5), gamma 1: ||x-u||^2/4.
        row = out.strip().splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(1.5**2 / 4.0, abs=1e-12)

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("nonsense=1\n")
        code, _, _ = _run(capsys, ["--config", str(cfg), "verify"])
        assert code == cli.EXIT_CONFIG
        # Only verify samples, so only verify takes a seed.
        cfg.write_text("phi=burg\npoint=1;-0.5\nseed=3\n")
        code, _, err = _run(capsys, ["--config", str(cfg), "bound"])
        assert code == cli.EXIT_CONFIG and "seed" in err

    def test_seed_env_variable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HARAUX_SEED", "12345")
        report = tmp_path / "r.csv"
        code, _, _ = _run(capsys, ["verify", "--out", str(report)])
        assert code == 0  # checks hold under a different seed too

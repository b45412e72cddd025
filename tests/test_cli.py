import os
import warnings

import numpy as np
import pytest

from haraux import bounds, cli, functions
from haraux.core import DualPair
from haraux.oracle import DEFAULT_SEED


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _assert_unwritable(capsys, argv, path):
    """A path the command cannot write: exit 2, one error line naming it, no stdout."""
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_CONFIG and out == ""
    assert err.startswith("error:") and str(path) in err
    assert len(err.strip().splitlines()) == 1


def _assert_config_error(capsys, argv, *words):
    """Exit 2, one error line naming each of ``words``, no stdout."""
    code, out, err = _run(capsys, argv)
    assert code == cli.EXIT_CONFIG and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert all(w in err for w in words), err


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

    def test_a_bregman_bound_whose_crosscheck_cannot_be_set_up(self, capsys):
        # grad f(x) + u* overflows, so the generic cross-check has no
        # right-hand side; the closed form stands, with residual inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["bound", "--phi", "burg", "--method", "bregman",
                                           "--point", "1e-308;-1e308"])
        assert code == 0 and err == ""
        header, *rows = out.strip().splitlines()
        (row,) = [dict(zip(cli.BOUND_HEADER, r.split(","))) for r in rows]
        assert row["method"] == "burg_closed" and row["residual"] == "inf"
        assert float(row["bound"]) == bounds.burg_self_bound_closed([1e-308], [-1e308], 1.0)[0]

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

    @pytest.mark.parametrize("method", ["pairing", "strong", "carlier_haraux"])
    def test_skew_solves_as_its_affine_matrix(self, capsys, tmp_path, method):
        # skew:L is the linear map (x, y*) -> (L^T y*, -L x), so it bounds
        # exactly as affine: of M = [[0, L^T], [-L, 0]].
        L = np.array([[1.0, 2.0], [0.5, -1.0]])
        M = np.block([[np.zeros((2, 2)), L.T], [-L, np.zeros((2, 2))]])
        np.savetxt(tmp_path / "L.txt", L)
        np.savetxt(tmp_path / "M.txt", M)
        rows = {}
        for spec in ("skew:" + str(tmp_path / "L.txt"), "affine:" + str(tmp_path / "M.txt")):
            code, out, err = _run(capsys, ["sweep", "--op-a", spec, "--method", method,
                                           "--gamma", "0.1,1,10", "--point", "1,2,0,1;0,0,1,1",
                                           "--point=-1,0.5,2,3;1,-2,0,4"])
            assert code == cli.EXIT_OK and err == ""
            rows[spec[:4]] = [dict(zip(cli.BOUND_HEADER, line.split(",")))
                              for line in out.strip().splitlines()[1:]]
        assert len(rows["skew"]) == 6
        for skew, affine in zip(rows["skew"], rows["affi"]):
            assert (skew["bound"], skew["z"]) == (affine["bound"], affine["z"])
            assert skew["method"] == method

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

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    def test_out_under_a_missing_directory(self, capsys, tmp_path, command):
        out = tmp_path / "missing" / "b.csv"
        _assert_unwritable(capsys, [command, "--phi", "burg", "--gamma", "0.5,1",
                                    "--point", "1;-0.5", "--out", str(out)], out)

    def test_exact_is_computed_once_per_point(self, capsys, monkeypatch):
        calls = []
        exact = bounds.exact_fenchel_young
        monkeypatch.setattr(bounds, "exact_fenchel_young",
                            lambda phi, p: calls.append(p) or exact(phi, p))
        code, out, _ = _run(capsys, ["sweep", "--phi", "burg", "--gamma", "0.5,1,2",
                                     "--point", "1;-0.5", "--point", "2;-1"])
        assert code == 0 and len(calls) == 2
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len({r[5] for r in rows[:3]}) == 1 and rows[0][5] != rows[3][5]


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

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "0"])
    def test_gamma_must_be_positive_and_finite(self, capsys, gamma):
        code, out, err = _run(capsys, [
            "bound", "--phi", "burg", "--point", "1;-0.5", f"--gamma={gamma}",
            "--method", "carlier_fy",
        ])
        assert code == cli.EXIT_CONFIG and out == ""
        assert err.startswith("error:") and "gamma" in err
        assert len(err.strip().splitlines()) == 1

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

    def test_neither_phi_nor_op_a(self, capsys):
        _assert_config_error(capsys, ["bound", "--point", "1;2"], "--phi or --op-a")

    @pytest.mark.parametrize("spec, point", [
        ("affine:{}", "1,2;0,0"), ("skew:{}", "1,2,3;0,0,0"),
        ("joca16:inf,quadratic", "1,2;0,0"), ("joca16:nan,quadratic", "1,2;0,0"),
    ])
    def test_operator_data_must_be_finite(self, capsys, tmp_path, spec, point):
        # Bad input, not a nan row or a stalled solve.
        matrix = tmp_path / "m.txt"
        matrix.write_text("inf 0\n0 1\n" if spec.startswith("affine") else "inf 1\n")
        _assert_config_error(capsys, ["bound", "--op-a", spec.format(matrix), "--point", point],
                             "finite")

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


_UNREAD_FLAGS = [
    ("--f", ["--phi", "burg", "--f", "fermi_dirac", "--method", "legendre_self"]),
    ("--f", ["--phi", "burg", "--f", "quadratic", "--method", "strong"]),
    ("--op-a", ["--phi", "burg", "--op-a", "grad:quadratic", "--method", "pairing"]),
    ("--op-w", ["--phi", "burg", "--op-w", "grad:quadratic", "--method", "pairing"]),
    ("--op-w", ["--op-a", "grad:burg", "--op-w", "grad:quadratic", "--f", "burg",
                "--method", "bregman"]),
    ("--op-w", ["--op-a", "grad:burg", "--op-w", "grad:quadratic", "--method", "carlier_haraux"]),
    # No operator spec declares a modulus, so strong takes the identity kernel.
    ("--op-w", ["--op-a", "grad:burg", "--op-w", "grad:quadratic", "--method", "strong"]),
    ("--f", ["--op-a", "grad:burg", "--f", "quadratic", "--method", "pairing"]),
]


@pytest.mark.parametrize("flag, flags", _UNREAD_FLAGS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_a_flag_the_route_does_not_read_is_a_config_error(capsys, tmp_path, flag, flags):
    code, out, err = _run(capsys, ["bound", "--point", "0.5;-0.5"] + flags)
    assert code == cli.EXIT_CONFIG and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert f"does not read {flag}" in err
    # A --config file is held to the same rule.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{flag[2:]}={flags[flags.index(flag) + 1]}\n")
    rest = flags[:flags.index(flag)] + flags[flags.index(flag) + 2:]
    code, out, err = _run(capsys, ["--config", str(cfg), "bound", "--point", "0.5;-0.5"] + rest)
    assert code == cli.EXIT_CONFIG and out == "" and f"does not read {flag}" in err


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys, tmp_path):
        report = tmp_path / "report.csv"
        code, _, err = _run(capsys, ["verify", "--out", str(report)])
        assert code == 0, err
        header, rows = _read_csv(report)
        assert header == cli.VERIFY_HEADER
        assert rows and all(r[2] == "pass" for r in rows)

    def test_report_gives_the_resolved_seed_and_suite_times(self, capsys, tmp_path):
        # The first five columns are the old report; seed and suite_s follow.
        assert cli.VERIFY_HEADER == ["module", "check", "status", "measured", "threshold",
                                     "seed", "suite_s"]
        for flags, seed in (([], DEFAULT_SEED), (["--seed", "7"], 7)):
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

    def test_out_under_a_missing_directory(self, capsys, tmp_path):
        # Exit 2, not verify's 1 of a failed check.
        out = tmp_path / "missing" / "v.csv"
        _assert_unwritable(capsys, ["verify", "--out", str(out)], out)


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

    def test_out_over_a_regular_file(self, capsys, tmp_path):
        out = tmp_path / "fig"
        out.write_text("")
        _assert_unwritable(capsys, ["figure1", "--out", str(out)], out)

    @pytest.mark.parametrize("name", ["burg_gamma0.1.csv", "burg_gamma0.1.svg"])
    def test_a_panel_file_that_cannot_be_written(self, capsys, tmp_path, name):
        (tmp_path / name).mkdir()
        _assert_unwritable(capsys, ["figure1", "--out", str(tmp_path)], tmp_path / name)


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

    def test_a_config_instance_key(self, capsys, tmp_path):
        inst = self._instance_file(tmp_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"instance={inst}\n")
        code, out, err = _run(capsys, ["--config", str(cfg), "gauge", "--point", "1,-2;0.5,1.5"])
        assert code == 0, err
        assert float(out.strip().splitlines()[1].split(",")[2]) <= 1e-12
        # The flag wins over the key.
        cfg.write_text(f"instance={tmp_path / 'nope.txt'}\n")
        code, _, err = _run(capsys, ["--config", str(cfg), "gauge", "--instance", str(inst),
                                     "--point", "1,-2;0.5,1.5"])
        assert code == 0, err

    def test_no_instance(self, capsys):
        _assert_config_error(capsys, ["gauge", "--point", "1,-2;0.5,1.5"], "--instance",
                             "instance=")

    def test_out_under_a_missing_directory(self, capsys, tmp_path):
        inst = self._instance_file(tmp_path)
        out = tmp_path / "missing" / "g.csv"
        _assert_unwritable(capsys, ["gauge", "--instance", str(inst), "--point", "1,-2;0.5,1.5",
                                    "--out", str(out)], out)


class TestKeyValueFiles:
    """Config and instance files go through one reader, and each config
    value through the argparse action of its flag."""

    @pytest.mark.parametrize("key", ["command=verify", "config=x", "help=true"])
    def test_a_key_with_no_flag_of_the_command(self, capsys, tmp_path, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"phi=burg\npoint=1;-0.5\n{key}\n")
        _assert_config_error(capsys, ["--config", str(cfg), "bound"], repr(key.split("=")[0]))

    def test_a_key_whose_flag_has_a_default(self, capsys, tmp_path):
        out = tmp_path / "D"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"format=csv\nout={out}\n")
        code, _, err = _run(capsys, ["--config", str(cfg), "figure1"])
        assert code == 0, err
        assert len(list(out.glob("*.csv"))) == 4 and not list(out.glob("*.svg"))

    @pytest.mark.parametrize("value, code", [("true", cli.EXIT_CHECK_FAILED),
                                             ("false", cli.EXIT_OK)])
    def test_a_boolean_key(self, capsys, tmp_path, value, code):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"self_test_corrupt={value}\nout={tmp_path / 'v.csv'}\n")
        assert _run(capsys, ["--config", str(cfg), "verify"])[0] == code

    def test_a_boolean_key_takes_true_or_false_alone(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("self_test_corrupt=yes\n")
        _assert_config_error(capsys, ["--config", str(cfg), "verify"], "self_test_corrupt", "yes")

    @pytest.mark.parametrize("key, command", [("seed=abc", "verify"),
                                              ("method=nope", "bound")])
    def test_a_value_its_flag_refuses(self, capsys, tmp_path, key, command):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"phi=burg\npoint=1;-0.5\n{key}\n" if command == "bound" else key)
        _assert_config_error(capsys, ["--config", str(cfg), command], key.split("=")[1])

    def test_a_config_seed_is_an_integer_and_the_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        report = tmp_path / "r.csv"
        cfg.write_text(f"seed=7\nout={report}\n")
        for flags, seed in (([], "7"), (["--seed", "8"], "8")):
            assert _run(capsys, ["--config", str(cfg), "verify", *flags])[0] == 0
            assert {r[5] for r in _read_csv(report)[1]} == {seed}

    @pytest.mark.parametrize("lines, key", [
        ("gama=3\n", "gama"), ("x_bar=1,-2\n", "x_bar"), ("type=a\ntype=a\n", "type"),
    ])
    def test_an_instance_key_unknown_or_repeated(self, capsys, tmp_path, lines, key):
        inst = tmp_path / "inst.txt"
        inst.write_text("L=1 0.5;0 1\nx_bar=1,-2\ny_bar=0.5,1.5\n" + lines)
        _assert_config_error(capsys, ["gauge", "--instance", str(inst), "--point",
                                      "1,-2;0.5,1.5"], repr(key))

    def test_a_config_line_without_an_equals_sign(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("phi=burg\npoint=1;-0.5\n\nout\n")
        _assert_config_error(capsys, ["--config", str(cfg), "bound"], "config", "line 4",
                             "'out'")

    def test_an_instance_line_without_an_equals_sign(self, capsys, tmp_path):
        inst = tmp_path / "inst.txt"
        inst.write_text("L=1 0.5;0 1\n# a comment\nx_bar=1,-2\ny_bar=0.5,1.5\ngamma\n")
        _assert_config_error(capsys, ["gauge", "--instance", str(inst), "--point",
                                      "1,-2;0.5,1.5"], "instance", "line 5", "'gamma'")

    def test_the_readme_instance_file_runs_verbatim(self, capsys, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        section = text[text.index("### Gauge instance files"):]
        block = section.split("```")[1]
        inst = tmp_path / "inst.txt"
        inst.write_text(block)
        code, out, err = _run(capsys, ["gauge", "--instance", str(inst), "--point",
                                       "1,-2;0.5,1.5"])
        assert code == 0, err
        assert float(out.strip().splitlines()[1].split(",")[2]) <= 1e-12


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

    def test_repeated_point_lines_add_points(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("phi=burg\npoint=1;-0.5\npoint=2;-0.25\n")
        code, out, _ = _run(capsys, ["--config", str(cfg), "bound"])
        assert code == 0
        rows = [line.split(",")[:2] for line in out.strip().splitlines()[1:]]
        assert rows == [["1", "-0.5"], ["2", "-0.25"]]
        # --point flags replace the file's points, as every flag beats the file.
        code, out, _ = _run(capsys, ["--config", str(cfg), "bound", "--point", "3;-0.125"])
        assert code == 0
        assert [line.split(",")[:2] for line in out.strip().splitlines()[1:]] == [["3", "-0.125"]]

    def test_any_other_repeated_key_is_a_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("phi=burg\npoint=1;-0.5\ngamma=1\ngamma=2\n")
        code, out, err = _run(capsys, ["--config", str(cfg), "bound"])
        assert code == cli.EXIT_CONFIG and out == ""
        assert "'gamma'" in err and len(err.strip().splitlines()) == 1
        # Also when a flag overrides the key.
        code, _, err = _run(capsys, ["--config", str(cfg), "bound", "--gamma", "3"])
        assert code == cli.EXIT_CONFIG and "'gamma'" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("nonsense=1\n")
        code, _, _ = _run(capsys, ["--config", str(cfg), "verify"])
        assert code == cli.EXIT_CONFIG
        # Only verify samples, so only verify takes a seed.
        cfg.write_text("phi=burg\npoint=1;-0.5\nseed=3\n")
        code, _, err = _run(capsys, ["--config", str(cfg), "bound"])
        assert code == cli.EXIT_CONFIG and "seed" in err


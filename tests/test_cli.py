"""Command line contract: exit codes, JSON output, file writing."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import allpass.cli
import allpass.mirror
from allpass import (
    AllPassError,
    PolyMatrix,
    b2_polynomial,
    det_roots,
    jsonio,
    mirror_once,
)
from allpass.cli import EXIT_CODES, main
from conftest import origin_matrix, origin_scalar, poison_laurent


@pytest.fixture
def poly_file(tmp_path, worked_pair):
    path = tmp_path / "p.json"
    path.write_text(jsonio.dumps(jsonio.poly_to_json(worked_pair)))
    return str(path)


@pytest.fixture
def factor_file(tmp_path):
    V = b2_polynomial(0.5 + 0.5j, np.array([1.0, 1.0j]) / np.sqrt(2))
    path = tmp_path / "v.json"
    path.write_text(jsonio.dumps(jsonio.allpass_to_json(V)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_stdout(capsys, poly_file):
    code, out, _ = run(capsys, "roots", poly_file)
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["kind"] == "complex_pair"
    assert records[0]["location"] == "inside"


def test_roots_out_file(capsys, tmp_path, poly_file):
    dest = tmp_path / "records.json"
    code, out, _ = run(capsys, "roots", poly_file, "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())[0]["multiplicity"] == 1


def test_roots_real_record_shape(capsys, tmp_path):
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = np.eye(2)
    coeffs[1, 0, 0] = -0.5
    path = tmp_path / "diag.json"
    path.write_text(jsonio.dumps(jsonio.poly_to_json(PolyMatrix(coeffs))))
    code, out, _ = run(capsys, "roots", str(path))
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["alpha"] == [2.0, 0.0]
    assert rec["kind"] == "real"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "roots", "/nonexistent/p.json")
    assert code == 2
    assert "cannot read" in err


def test_malformed_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "roots", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_wrong_schema_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": 2}))
    code, _, err = run(capsys, "roots", str(path))
    assert code == 2
    assert "not a polynomial matrix" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_coefficient_is_usage_error(capsys, tmp_path, literal):
    # python's json parser accepts these literals, the loader must not
    path = tmp_path / "nonfinite.json"
    path.write_text('{"dim": 1, "degree": 1, "coeffs": [[[%s]], [[1.0]]]}' % literal)
    code, out, err = run(capsys, "roots", str(path))
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_verify_non_finite_factor_is_usage_error(capsys, tmp_path, factor_file):
    doc = json.loads(Path(factor_file).read_text())
    doc["den"]["coeffs"][0] = float("nan")
    bad = tmp_path / "nan_factor.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_verify_complex_factor_is_usage_error(capsys, tmp_path, factor_file):
    # a complex numerator was verified and its residue reported as max_imag;
    # the factor's coefficients must be real, so it is refused like a NaN
    doc = json.loads(Path(factor_file).read_text())
    doc["num"]["coeffs"][1][0][1] = [doc["num"]["coeffs"][1][0][1], 4.5e-3]
    bad = tmp_path / "complex_factor.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "4.500e-03" in err


@pytest.mark.parametrize("command", ["roots", "mirror"])
def test_complex_coefficients_are_usage_error(capsys, tmp_path, command):
    rng = np.random.default_rng(1)
    c = rng.standard_normal((3, 2, 2)) + 0.3j * rng.standard_normal((3, 2, 2))
    path = tmp_path / "complex.json"
    doc = {"dim": 2, "degree": 2, "coeffs": np.stack([c.real, c.imag], -1).tolist()}
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"{np.max(np.abs(c.imag)):.3e}" in err


def test_singular_matrix_exit_code(capsys, tmp_path):
    coeffs = np.zeros((2, 2, 2))
    coeffs[0] = [[1.0, 0.0], [2.0, 0.0]]
    coeffs[1] = [[0.0, 1.0], [0.0, 2.0]]
    path = tmp_path / "singular.json"
    path.write_text(jsonio.dumps(jsonio.poly_to_json(PolyMatrix(coeffs))))
    code, _, err = run(capsys, "roots", str(path))
    assert code == 3


def test_circle_root_exit_code(capsys, tmp_path):
    p = PolyMatrix(np.array([1.0, -2 * np.cos(0.7), 1.0]).reshape(3, 1, 1))
    path = tmp_path / "circle.json"
    path.write_text(jsonio.dumps(jsonio.poly_to_json(p)))
    code, _, err = run(capsys, "mirror", str(path))
    assert code == 4


@pytest.mark.parametrize("command", ["roots", "mirror"])
def test_zero_dimension_input_is_usage_error(capsys, tmp_path, command):
    # a 0x0 stack reached the root finder, which died with an IndexError
    path = tmp_path / "dim0.json"
    path.write_text(json.dumps({"dim": 0, "degree": 1, "coeffs": [[], []]}))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "n >= 1" in err


@pytest.mark.parametrize("command", ["roots", "mirror"])
def test_declared_dim_beyond_the_rows_is_usage_error(capsys, tmp_path, command):
    # the reader allocated the declared (1, 1e8, 1e8) stack before checking
    # a single row and died with a MemoryError
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 10**8, "degree": 0, "coeffs": [[]]}))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "has 0 rows, expected 100000000" in err


@pytest.mark.parametrize("den", [[-1.0, 1.0], [0.0]])
def test_verify_pole_on_circle_exit_code(capsys, tmp_path, factor_file, den):
    # z - 1 has its root on the circle, so reading the factor refuses it
    # (exit 4); 0 vanishes identically (exit 3).  verify_allpass raised
    # ZeroDivisionError for both (exit 1 with a traceback)
    code_expected, message = {2: (4, "|alpha| = 1 lies on the unit circle"),
                              1: (3, "vanishes identically")}[len(den)]
    doc = json.loads(Path(factor_file).read_text())
    doc["den"] = {"degree": len(den) - 1, "coeffs": den}
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == code_expected
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("samples", ["64", "100"])
def test_verify_off_grid_pole_exit_code(capsys, tmp_path, factor_file, samples):
    # poles at e^{+-0.05i}, between the points of either grid: the factor's
    # residual on the grid (5.7e4 at 64 points) exited 5 as a breach
    doc = json.loads(Path(factor_file).read_text())
    doc["den"] = {"degree": 2, "coeffs": [1.0, -2.0 * np.cos(0.05), 1.0]}
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "--samples", samples)
    assert code == 4
    assert out == ""
    assert err.startswith("error: |alpha| = 1 lies on the unit circle")
    assert err.count("\n") == 1


def test_mirror_domain_error_exit_code(capsys, tmp_path):
    # z I - A with the pair 1e-3 exp(+-i theta); the state-space factor for
    # this kernel is off the identity on the circle by 4.9e-3, and the step's
    # output is 3.3e-3 off the input spectrum: the certificate refuses it,
    # and the refused chain is written
    rng = np.random.default_rng(0)
    lam = 1e-3 * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
    S = rng.standard_normal((2, 2))
    A = S @ np.array([[lam.real, lam.imag], [-lam.imag, lam.real]]) @ np.linalg.inv(S)
    path = tmp_path / "small_pair.json"
    path.write_text(jsonio.dumps(jsonio.poly_to_json(PolyMatrix(np.stack([-A, np.eye(2)])))))
    code, out, err = run(capsys, "mirror", str(path), "--method", "statespace")
    assert code == 5
    assert err.startswith("error: mirror step 1 of 1: spectral_dev 3.2")
    assert err.count("\n") == 1
    (report,) = json.loads(out)["reports"]
    assert report["spectral_dev"] == pytest.approx(3.26e-3, rel=0.01)


@pytest.mark.parametrize("make", [origin_scalar, origin_matrix])
def test_mirror_root_at_origin_exit_code(capsys, tmp_path, make):
    # z (z - 0.5) raised ZeroDivisionError (exit 1 with a traceback), and
    # grading Q diag(z, 2) Q' by its output degree reported 0.447 (exit 5)
    path = tmp_path / "origin.json"
    path.write_text(jsonio.dumps(jsonio.poly_to_json(make())))
    code, out, _ = run(capsys, "mirror", str(path))
    assert code == 0
    assert json.loads(out)["reports"][0]["new_root_residual"] <= 1e-12


@pytest.mark.parametrize("seed", [1, 8, 9])
def test_mirror_far_outside_pair_exit_code(capsys, tmp_path, seed):
    # a pair at |alpha| > 1e4: the consecutive factor's coefficients reach
    # 1e8 and its imaginary residue 2e-8, above the absolute --tol, so an
    # absolute breach test exited 5 for a factor that builds and verifies
    coeffs = np.random.default_rng(seed).standard_normal((5, 2, 2))
    coeffs[4] *= 1e-4
    path = tmp_path / "far.json"
    path.write_text(jsonio.dumps(jsonio.poly_to_json(PolyMatrix(coeffs))))
    code, out, err = run(
        capsys, "mirror", str(path), "--select", "4", "--method", "consecutive"
    )
    assert code == 0, err
    (report,) = json.loads(out)["reports"]
    assert abs(complex(*report["mirrored_roots"][0])) > 1e4
    assert report["max_imag"] <= 1e-15
    assert report["spectral_dev"] <= 1e-12


def test_mirror_stdout_payload(capsys, poly_file):
    code, out, _ = run(capsys, "mirror", poly_file, "--method", "consecutive")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"p_tilde", "reports"}
    assert payload["reports"][0]["method"] == "consecutive"
    q = jsonio.poly_from_json(payload["p_tilde"])
    assert isinstance(q, PolyMatrix)


def test_mirror_deterministic_output(capsys, poly_file):
    _, out1, _ = run(capsys, "mirror", poly_file)
    _, out2, _ = run(capsys, "mirror", poly_file)
    assert out1 == out2


def test_mirror_out_files(capsys, tmp_path, poly_file):
    dest = tmp_path / "mirrored.json"
    code, out, _ = run(capsys, "mirror", poly_file, "--out", str(dest))
    assert code == 0
    assert out == ""
    assert dest.exists()
    report_path = tmp_path / "mirrored.report.json"
    assert report_path.exists()
    reports = json.loads(report_path.read_text())
    assert reports[0]["new_root_residual"] < 1e-8


def test_mirror_methods_agree_through_cli(capsys, poly_file):
    outs = {}
    for method in ["polynomial", "statespace"]:
        code, out, _ = run(capsys, "mirror", poly_file, "--method", method)
        assert code == 0
        outs[method] = json.loads(out)
    for payload in outs.values():
        assert payload["reports"][0]["spectral_dev"] < 1e-8
    # the mirrored roots agree even though the factors differ by a rotation
    a = outs["polynomial"]["reports"][0]["mirrored_roots"]
    b = outs["statespace"]["reports"][0]["mirrored_roots"]
    np.testing.assert_allclose(a, b, atol=1e-7)


def test_mirror_output_reparse_is_bit_stable(capsys, tmp_path, poly_file):
    # read the written polynomial back, re-serialize, compare bytes
    dest = tmp_path / "mirrored.json"
    run(capsys, "mirror", poly_file, "--out", str(dest))
    text = dest.read_text()
    q = jsonio.poly_from_json(json.loads(text))
    assert jsonio.dumps(jsonio.poly_to_json(q)) == text.rstrip("\n")
    # and mirroring the reparsed polynomial must reproduce the residuals
    again = tmp_path / "q.json"
    again.write_text(text)
    code, out, _ = run(capsys, "roots", str(again))
    assert code == 0
    assert all(r["location"] == "outside" for r in json.loads(out))


def test_mirror_select_indices(capsys, poly_file):
    code, out, _ = run(capsys, "mirror", poly_file, "--select", "0")
    assert code == 0
    assert len(json.loads(out)["reports"]) == 1


def test_mirror_select_out_of_range(capsys, poly_file):
    code, _, err = run(capsys, "mirror", poly_file, "--select", "7")
    assert code == 2
    assert "out of range" in err


def test_mirror_select_garbage(capsys, poly_file):
    code, _, err = run(capsys, "mirror", poly_file, "--select", "a,b")
    assert code == 2


def test_mirror_tiny_tol_breaches_but_writes(capsys, tmp_path, poly_file):
    dest = tmp_path / "m.json"
    code, _, err = run(
        capsys, "mirror", poly_file, "--tol", "1e-300", "--out", str(dest)
    )
    assert code == 5
    assert dest.exists()
    assert (tmp_path / "m.report.json").exists()


def test_refused_step_exits_5_writing_the_chain_before_it(capsys, monkeypatch, tmp_path):
    # a division remainder as large as the dividend at step 2 refuses that
    # step, and the certified chain before it, step 1, is written; a step
    # refusal used to write nothing
    p = PolyMatrix(np.random.default_rng(3).standard_normal((4, 3, 3)))
    path = tmp_path / "p.json"
    path.write_text(jsonio.dumps(jsonio.poly_to_json(p)))
    first = next(r for r in det_roots(p) if r.location == "inside")
    q, report = mirror_once(p, first)
    divisions = []
    original = allpass.mirror._divide_coeffs

    def divide(num, den):
        quot, residual = original(num, den)
        divisions.append(den)
        return quot, float(np.abs(num).max()) if len(divisions) == 2 else residual

    monkeypatch.setattr(allpass.mirror, "_divide_coeffs", divide)
    dest = tmp_path / "m.json"
    code, out, err = run(capsys, "mirror", str(path), "--out", str(dest))
    assert (code, out) == (5, "")
    assert err.startswith("error: mirror step 2 of ")
    assert err.endswith(": residual_deconv 1.000e+00 exceeds 1.000e-08\n")
    written = jsonio.poly_from_json(json.loads(dest.read_text()))
    np.testing.assert_array_equal(written.coeffs, q.coeffs)
    assert json.loads((tmp_path / "m.report.json").read_text()) == [
        json.loads(jsonio.dumps(jsonio.report_to_json(report)))
    ]


@pytest.mark.parametrize("command", ["roots", "mirror"])
def test_subnormal_input_exits_0(capsys, tmp_path, command):
    # 2^-1025 times a Gaussian 3x3 of degree 4: the largest coefficient is
    # subnormal, and both commands exited 1 with a LinAlgError traceback
    c = np.ldexp(np.random.default_rng(5).standard_normal((5, 3, 3)), -1025)
    path = tmp_path / "tiny.json"
    path.write_text(jsonio.dumps(jsonio.poly_to_json(PolyMatrix(c))))
    code, out, err = run(capsys, command, str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)


def test_output_beyond_the_float_range_exits_5(capsys, tmp_path):
    # 2^1023 times the seed-5 3x3 of degree 4: its output overflows, and the
    # command exited 1 with a ValueError traceback
    c = np.ldexp(np.random.default_rng(5).standard_normal((5, 3, 3)), 1023)
    path = tmp_path / "huge.json"
    path.write_text(jsonio.dumps(jsonio.poly_to_json(PolyMatrix(c))))
    code, out, err = run(capsys, "mirror", str(path))
    assert (code, out) == (5, "")
    assert err.startswith("error: mirror output") and err.count("\n") == 1


def test_nan_report_exits_5_and_writes(capsys, monkeypatch, tmp_path, poly_file):
    # "spectral_dev > tol" is false for NaN, so a NaN report exited 0
    poison_laurent(monkeypatch, 1)
    dest = tmp_path / "m.json"
    code, out, err = run(capsys, "mirror", poly_file, "--out", str(dest))
    assert (code, out) == (5, "")
    assert err == "error: mirror step 1 of 1: spectral_dev nan exceeds 1.000e-08\n"
    assert jsonio.poly_from_json(json.loads(dest.read_text())).dim == 2
    (report,) = json.loads((tmp_path / "m.report.json").read_text())
    assert np.isnan(report["spectral_dev"])


def test_verify_ok(capsys, factor_file):
    code, out, _ = run(capsys, "verify", factor_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["n_samples"] == 64
    assert rep["max_residual"] < 1e-9
    # a stored factor is real, so there is no imaginary residue to report
    assert "max_imag" not in rep


def test_verify_sample_count_flag(capsys, factor_file):
    code, out, _ = run(capsys, "verify", factor_file, "--samples", "8")
    assert code == 0
    assert json.loads(out)["n_samples"] == 8


def test_verify_rejects_too_few_samples(capsys, factor_file):
    code, _, _ = run(capsys, "verify", factor_file, "--samples", "4")
    assert code == 2


def test_verify_corrupted_factor_breach(capsys, tmp_path, factor_file):
    obj = json.loads(Path(factor_file).read_text())
    obj["num"]["coeffs"][0][0][0] += 0.01
    bad = tmp_path / "bad_factor.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 5
    # the report is still written
    rep = json.loads(out)
    assert rep["ok"] is False
    assert "exceeds" in err


def test_verify_tol_flag_beats_env(capsys, monkeypatch, tmp_path, factor_file):
    obj = json.loads(Path(factor_file).read_text())
    obj["num"]["coeffs"][0][0][0] += 0.01
    bad = tmp_path / "bad_factor.json"
    bad.write_text(json.dumps(obj))
    # a huge env tolerance lets the corrupted factor pass
    monkeypatch.setenv("BLASCHKE_TOL", "10.0")
    code, _, _ = run(capsys, "verify", str(bad))
    assert code == 0
    # the explicit flag wins over the env var
    code, _, _ = run(capsys, "verify", str(bad), "--tol", "1e-9")
    assert code == 5


def test_env_tol_garbage_is_usage_error(capsys, monkeypatch, factor_file):
    monkeypatch.setenv("BLASCHKE_TOL", "not-a-number")
    code, _, err = run(capsys, "verify", factor_file)
    assert code == 2
    assert "BLASCHKE_TOL" in err


def test_tol_must_be_positive(capsys, factor_file):
    # "--tol -1e-9" reads as a missing argument, so the value is attached
    for flag in (["--tol=-1e-9"], ["--tol", "0"]):
        code, _, err = run(capsys, "verify", factor_file, *flag)
        assert code == 2
        assert "must be positive" in err


@pytest.mark.parametrize("command", ["verify", "mirror"])
def test_infinite_tol_is_usage_error(capsys, command, factor_file, poly_file):
    # an infinite threshold passed every residual, so verify said ok for
    # any factor and mirror never breached
    path = factor_file if command == "verify" else poly_file
    code, out, err = run(capsys, command, path, "--tol", "inf")
    assert code == 2
    assert out == ""
    assert "error: argument --tol: must be finite: 'inf'" in err


def test_env_tol_must_be_finite(capsys, monkeypatch, factor_file):
    monkeypatch.setenv("BLASCHKE_TOL", "inf")
    code, out, err = run(capsys, "verify", factor_file)
    assert code == 2
    assert out == ""
    assert err == "error: BLASCHKE_TOL must be finite: 'inf'\n"


def test_samples_must_be_an_integer(capsys, factor_file):
    code, _, err = run(capsys, "verify", factor_file, "--samples", "abc")
    assert code == 2
    assert "not an integer: 'abc'" in err


def test_env_tol_must_be_positive(capsys, monkeypatch, factor_file):
    monkeypatch.setenv("BLASCHKE_TOL", "-1")
    code, out, err = run(capsys, "verify", factor_file)
    assert code == 2
    assert out == ""
    assert err == "error: BLASCHKE_TOL must be positive: '-1'\n"


def test_mirror_select_empty(capsys, poly_file):
    code, out, err = run(capsys, "mirror", poly_file, "--select", ",")
    assert code == 2
    assert out == ""
    assert err == "error: --select: empty selection\n"


@pytest.mark.parametrize(
    "cls, code", EXIT_CODES, ids=[cls.__name__ for cls, _ in EXIT_CODES]
)
def test_exit_code_table(capsys, monkeypatch, poly_file, cls, code):
    def refuse(args):
        raise cls("synthetic")

    monkeypatch.setattr(allpass.cli, "cmd_mirror", refuse)
    assert run(capsys, "mirror", poly_file) == (code, "", "error: synthetic\n")


def test_exit_code_table_order():
    # a row never shadows a later one, and the last catches every domain error
    classes = [cls for cls, _ in EXIT_CODES]
    for i, cls in enumerate(classes):
        assert not any(issubclass(cls, earlier) for earlier in classes[:i])
    assert classes[-1] is AllPassError


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 2


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "allpass.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0

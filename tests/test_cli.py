import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from opsum import serialize
from opsum.cli import EXIT_OBSTRUCTION, EXIT_OK, EXIT_USAGE, main
from opsum.randmat import random_psd, random_real_trace, scalar_product_pairs

ROOT = Path(__file__).resolve().parent.parent


def _run_module(*argv):
    """Run ``python -m opsum.cli`` on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "opsum.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def workdir(tmp_path):
    serialize.save_matrix(tmp_path / "id2.json", np.eye(2))
    serialize.save_matrix(tmp_path / "neg.json", -np.eye(2))
    serialize.save_pairs(tmp_path / "idpair.json", [(np.eye(2), np.eye(2))])
    (tmp_path / "trunc.json").write_text('{"rows": 2, "cols": 2, "entr')
    (tmp_path / "badfield.json").write_text(
        '{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0]]}')
    return tmp_path


def test_decompose_identity(workdir, capsys):
    out = workdir / "out.json"
    code = main(["decompose", "--input", str(workdir / "id2.json"),
                 "--output", str(out), "--summands", "4"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["reconstruction_residual"] <= 1e-7
    assert len(doc["summands"]) == 4
    assert all(c["kind"] in ("positive-semidefinite", "similar-to-positive")
               for c in doc["certificates"])


def test_decompose_obstruction_exit_2(workdir):
    out = workdir / "cert.json"
    code = main(["decompose", "--input", str(workdir / "neg.json"),
                 "--output", str(out), "--summands", "4"])
    assert code == EXIT_OBSTRUCTION
    doc = json.loads(out.read_text())
    assert doc["obstruction"]["reason"] == "nonpositive-real-trace"


def test_decompose_malformed_input_exit_1(workdir, capsys):
    code = main(["decompose", "--input", str(workdir / "trunc.json"),
                 "--output", str(workdir / "x.json")])
    assert code == EXIT_USAGE
    code = main(["decompose", "--input", str(workdir / "badfield.json"),
                 "--output", str(workdir / "x.json")])
    assert code == EXIT_USAGE
    assert "entries" in capsys.readouterr().err


def test_decompose_missing_file(workdir):
    code = main(["decompose", "--input", str(workdir / "nope.json"),
                 "--output", str(workdir / "x.json")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("m", [2, 3])
def test_decompose_other_summand_counts(workdir, m):
    out = workdir / f"out{m}.json"
    code = main(["decompose", "--input", str(workdir / "id2.json"),
                 "--output", str(out), "--summands", str(m)])
    assert code == EXIT_OK
    assert len(json.loads(out.read_text())["summands"]) == m


@pytest.mark.parametrize("m", [2, 3])
def test_decompose_declined_target_exit_1(workdir, m):
    # cond(S) 1.4e9 in the triangular split: the reason, and no traceback or output
    path = workdir / "declined.json"
    serialize.save_matrix(path, random_real_trace(np.random.default_rng([6, 100, 0]), 6, 0.6))
    out = workdir / "x.json"
    proc = _run_module("decompose", "--input", str(path), "--output", str(out),
                       "--summands", str(m))
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == (f"error: constructive {m}-summand path declined "
                           "(cond(S) 1.4e+09 above 1e+08)\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--seed", "--tol", "--restarts", "--iterations"])
def test_decompose_search_flags_removed(workdir, flag):
    out = workdir / "x.json"
    proc = _run_module("decompose", "--input", str(workdir / "id2.json"),
                       "--output", str(out), "--summands", "3", flag, "1")
    assert proc.returncode == EXIT_USAGE
    assert f"unrecognized arguments: {flag} 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_spectrum_identity(workdir):
    out = workdir / "spec.json"
    code = main(["spectrum", "--input", str(workdir / "idpair.json"),
                 "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["is_real_nonnegative"] is True
    assert doc["is_luders"] is True
    assert doc["eigenvalues"] == [[1.0, 0.0]] * 4


def test_spectrum_luders_contained(workdir, rng):
    pairs = [(P, P) for P in (random_psd(rng, 3), random_psd(rng, 3))]
    serialize.save_pairs(workdir / "lud.json", pairs)
    out = workdir / "spec2.json"
    assert main(["spectrum", "--input", str(workdir / "lud.json"),
                 "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["is_real_nonnegative"] is True


def test_spectrum_non_psd_reports_distance(workdir):
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])   # eigenvalues +-i
    serialize.save_pairs(workdir / "rot.json", [(rot, np.eye(2))])
    out = workdir / "spec3.json"
    assert main(["spectrum", "--input", str(workdir / "rot.json"),
                 "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["is_real_nonnegative"] is False
    assert doc["max_dist_to_rplus"] == pytest.approx(1.0)


def test_spectrum_shape_mismatch_exit_1(workdir):
    (workdir / "mismatch.json").write_text(json.dumps({"pairs": [{
        "A": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
        "B": {"rows": 1, "cols": 1, "entries": [[1, 0]]},
    }]}))
    assert main(["spectrum", "--input", str(workdir / "mismatch.json"),
                 "--output", str(workdir / "x.json")]) == EXIT_USAGE


def test_luders_demo_positive(workdir):
    out = workdir / "demo.json"
    code = main(["luders-demo", "--lambda", "2", "--output", str(out), "--k", "2"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["eigen_residual"] <= 1e-10
    assert doc["lambda"] == [2.0, 0.0]


def test_luders_demo_nan_lambda_exit_1(workdir):
    serialize.save_pairs(workdir / "pairs.json", scalar_product_pairs(1.0, 2, 3))
    out = workdir / "d.json"
    proc = _run_module("luders-demo", "--lambda", "nan",
                       "--input", str(workdir / "pairs.json"), "--output", str(out))
    assert proc.returncode == EXIT_USAGE
    assert "error: lambda must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("lam", ["inf", "=-inf", "infj", "nan"])
def test_luders_demo_non_finite_lambda_exit_1(workdir, capsys, lam):
    out = workdir / "d.json"
    flag = "--lambda" + lam if lam.startswith("=") else "--lambda=" + lam
    assert main(["luders-demo", flag, "--output", str(out)]) == EXIT_USAGE
    assert "lambda must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam, value", [
    ("i", "0+1j"), ("-i", "0-1j"), ("2i", "0+2j"), ("-1+1i", "-1+1j")])
def test_luders_demo_imaginary_unit_i(workdir, capsys, lam, value):
    # every such lambda is off [0, inf): the parsed value shows in the rejection
    code = main(["luders-demo", "--lambda=" + lam, "--output", str(workdir / "d.json")])
    assert code == EXIT_OBSTRUCTION
    assert f"lambda = {value} is not attainable" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "optimize"])
@pytest.mark.parametrize("tol", ["-1", "inf", "nan", "x"])
def test_bad_tol_exit_1(workdir, capsys, command, tol):
    source = "idpair.json" if command == "spectrum" else "id2.json"
    out = workdir / "out"
    code = main([command, "--input", str(workdir / source), "--output", str(out),
                 "--tol=" + tol])
    assert code == EXIT_USAGE
    assert "usage error: --tol" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_tol_written(workdir):
    out = workdir / "spec.json"
    code = main(["spectrum", "--input", str(workdir / "idpair.json"),
                 "--output", str(out), "--tol", "1e-6"])
    assert code == EXIT_OK
    assert '"tolerance": 1e-06' in out.read_text()


def test_optimize_tol_stops_at_target(workdir):
    out = workdir / "opt.csv"
    code = main(["optimize", "--input", str(workdir / "id2.json"),
                 "--output", str(out), "--tol", "1e-3"])
    assert code == EXIT_OK
    summary = json.loads((workdir / "opt.csv.json").read_text())
    assert summary["stop_reason"] == "target"
    assert summary["best_residual"] <= 1e-3


@pytest.mark.parametrize("lam, code, message", [
    ("2", EXIT_OK, "planted eigenvalue 2"),
    ("1", EXIT_USAGE, "misses lam * I")])
def test_luders_demo_input_pairs(workdir, capsys, lam, code, message):
    pairs = scalar_product_pairs(2.0, 2, 3, rng=np.random.default_rng(0))
    serialize.save_pairs(workdir / "pairs.json", pairs)
    out = workdir / "d.json"
    assert main(["luders-demo", "--lambda", lam, "--input", str(workdir / "pairs.json"),
                 "--output", str(out)]) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == EXIT_OK else captured.err)
    assert out.exists() == (code == EXIT_OK)


@pytest.mark.parametrize("flag", ["--k", "--m"])
@pytest.mark.parametrize("value", ["0", "-2", "1.5", "x"])
@pytest.mark.parametrize("lam", ["1", "-1"])
def test_luders_demo_nonpositive_size_exit_1(workdir, capsys, flag, value, lam):
    # the size flags are checked before lambda, so an off-axis lambda exits 1 too
    out = workdir / "d.json"
    code = main(["luders-demo", "--lambda=" + lam, "--output", str(out), flag, value])
    assert code == EXIT_USAGE
    assert f"usage error: argument {flag}: expects a positive integer" in \
        capsys.readouterr().err
    assert not out.exists()


def test_luders_demo_rejection_carries_bound(workdir, capsys):
    code = main(["luders-demo", "--lambda=-1", "--output", str(workdir / "d.json")])
    assert code == EXIT_OBSTRUCTION
    err = capsys.readouterr().err
    assert "lower bound 1" in err


def test_optimize_writes_trace(workdir):
    out = workdir / "opt.csv"
    code = main(["optimize", "--input", str(workdir / "id2.json"),
                 "--output", str(out), "--m", "1",
                 "--restarts", "2", "--iterations", "60"])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,residual"
    residuals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))
    summary = json.loads((workdir / "opt.csv.json").read_text())
    assert summary["best_residual"] <= 1e-8
    assert summary["stop_reason"] == "target"


def test_optimize_prints_frobenius_floor(workdir, capsys):
    # -I (2x2): the operator-norm bound is 1, the Frobenius floor sqrt(2)
    code = main(["optimize", "--input", str(workdir / "neg.json"),
                 "--output", str(workdir / "neg.csv"), "--m", "2"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == \
        "best residual 1.414214e+00 (Frobenius floor 1.414214e+00)"
    summary = json.loads((workdir / "neg.csv.json").read_text())
    assert summary["bound_floor"] == 1.0


def test_study_deterministic(workdir):
    a, b = workdir / "s1.csv", workdir / "s2.csv"
    args = ["study", "--sizes", "2", "--margins", "1,0.1", "--trials", "2",
            "--seed", "5"]
    assert main(args + ["--output", str(a)]) == EXIT_OK
    assert main(args + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "n,trace_margin,trial,max_cond_S,residual,success"


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_study_rejects_nonpositive_trials(workdir, capsys, trials):
    out = workdir / "s.csv"
    assert main(["study", "--sizes", "2", "--trials", trials,
                 "--output", str(out)]) == EXIT_USAGE
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_pseudospectrum_csv(workdir):
    out = workdir / "ps.csv"
    code = main(["pseudospectrum", "--input", str(workdir / "idpair.json"),
                 "--output", str(out), "--grid=-1,2,-1,1,4"])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re,im,sigma_min"
    assert len(lines) == 1 + 16


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_pseudospectrum_nonpositive_grid_steps_say_why(workdir, capsys, steps):
    out = workdir / "ps.csv"
    assert main(["pseudospectrum", "--input", str(workdir / "idpair.json"),
                 "--output", str(out), f"--grid=-1,2,-1,1,{steps}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"usage error: --grid '-1,2,-1,1,{steps}': grid must have at least one step\n"
    assert not out.exists()


def test_usage_errors_exit_1(workdir):
    assert main(["decompose"]) == EXIT_USAGE                    # missing flags
    assert main(["nosuchcommand"]) == EXIT_USAGE
    assert main(["pseudospectrum", "--input", str(workdir / "idpair.json"),
                 "--output", str(workdir / "x.csv"), "--grid", "1,2,3"]) == EXIT_USAGE
    assert main(["luders-demo", "--lambda", "frog",
                 "--output", str(workdir / "x.json")]) == EXIT_USAGE


def test_decompose_overflowing_integer_entry_exit_1(workdir):
    # a JSON integer beyond the double range is a schema error, not a crash
    path = workdir / "huge.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[%d, 0]]}' % 10**400)
    proc = _run_module("decompose", "--input", str(path), "--output", str(workdir / "x.json"))
    assert proc.returncode == EXIT_USAGE
    assert "error:" in proc.stderr and "entries[0]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_decompose_three_summands_emits_no_warning(workdir, rng):
    serialize.save_matrix(workdir / "t.json", rng.standard_normal((3, 3)) + 2 * np.eye(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["decompose", "--input", str(workdir / "t.json"),
                     "--output", str(workdir / "out3.json"), "--summands", "3"])
    assert code == EXIT_OK


def test_module_entry_point(workdir):
    out = workdir / "ps.csv"
    proc = _run_module("pseudospectrum", "--input", str(workdir / "idpair.json"),
                       "--output", str(out), "--grid=-1,2,-1,1,3")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(out.read_text().strip().splitlines()) == 1 + 9
    proc = _run_module("nosuchcommand")
    assert proc.returncode == EXIT_USAGE

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import venndec
from venndec import cli

# the directory this process imports venndec from, so that a child process
# runs the same package whether or not it is installed
_PACKAGE_ROOT = str(Path(venndec.__file__).resolve().parents[1])


def run_cli(*args):
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "venndec.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_full_pipeline_roundtrip(tmp_path):
    base = tmp_path / "base.json"
    perturbed = tmp_path / "perturbed.json"
    tensor = tmp_path / "tensor.json"
    recovered = tmp_path / "recovered.json"

    r = run_cli("gen", "--n", "30", "--m", "6", "--diagram-kind", "adversarial", "--out", str(base))
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "perturb", "--input", str(base),
        "--config", '{"model": "bitflip", "q": 0.2}',
        "--seed", "3", "--out", str(perturbed),
    )
    assert r.returncode == 0, r.stderr
    r = run_cli("tensorize", "--input", str(perturbed), "--ell", "3", "--out", str(tensor))
    assert r.returncode == 0, r.stderr
    r = run_cli("reconstruct", "--input", str(tensor), "--m-max", "6", "--out", str(recovered))
    assert r.returncode == 0, r.stderr

    # recovered diagram matches the perturbed one exactly
    r = run_cli("diff", str(perturbed), str(recovered))
    assert r.returncode == 0, r.stdout + r.stderr
    assert json.loads(r.stdout)["exact_match"] is True

    # but differs from the all-ones base
    r = run_cli("diff", str(base), str(recovered))
    assert r.returncode == 2
    assert json.loads(r.stdout)["exact_match"] is False


def test_readme_pipeline(tmp_path):
    # the end-to-end commands of README.md, run as written there
    def cli(*args):
        r = run_cli(*args)
        assert r.returncode == 0, r.stdout + r.stderr
        return r

    def path(name):
        return str(tmp_path / name)

    cli("gen", "--n", "30", "--m", "6", "--diagram-kind", "random", "--out", path("base.json"))
    cli(
        "perturb", "--input", path("base.json"),
        "--config", '{"model": "bitflip", "q": 0.2}',
        "--seed", "3", "--out", path("perturbed.json"),
    )
    cli("tensorize", "--input", path("perturbed.json"), "--ell", "3", "--out", path("tensor.json"))
    cli("reconstruct", "--input", path("tensor.json"), "--m-max", "6", "--out", path("recovered.json"))
    assert json.loads(cli("diff", path("perturbed.json"), path("recovered.json")).stdout)["exact_match"]
    assert len(json.loads((tmp_path / "recovered.json").read_text())["regions"]) == 6
    assert json.loads(cli("decompose", "--input", path("tensor.json"), "--m", "6").stdout)["rank"] == 6


def test_decompose_emits_terms(tmp_path):
    diagram = tmp_path / "d.json"
    tensor = tmp_path / "t.json"
    run_cli("gen", "--n", "12", "--m", "3", "--seed", "5", "--out", str(diagram))
    run_cli("tensorize", "--input", str(diagram), "--ell", "3", "--out", str(tensor))
    m = len(json.loads(diagram.read_text())["regions"])
    r = run_cli("decompose", "--input", str(tensor), "--m", str(m))
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["rank"] == m
    assert len(obj["terms"]) == m
    assert set(obj["terms"][0]) == {"a", "b", "c", "residual"}
    assert obj["recon_residual"] <= 1e-6


def test_condition_inline_json():
    r = run_cli("condition", "--input", '{"matrix": [[1, 0], [0, 1]]}')
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["sigma_min"] == pytest.approx(1.0)
    assert obj["tau"] is None

    r = run_cli(
        "condition",
        "--input",
        '{"columns": [[1, 0], [0, 1]], "c_columns": [[1, 0], [0, 1]]}',
    )
    obj = json.loads(r.stdout)
    assert obj["tau"] == pytest.approx(2.0 ** 0.5)


def test_condition_wide_matrix():
    # three columns in the plane: sigma_min is 0 and kappa is infinite
    r = run_cli("condition", "--input", '{"matrix": [[1, 0, 1], [0, 1, 1]]}')
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["sigma_min"] == 0.0
    assert obj["kappa"] is None
    assert obj["leave_one_out"] == pytest.approx(0.0, abs=1e-12)


def test_echelon_build_and_verify(tmp_path):
    tree_path = tmp_path / "tree.json"
    cfg = {
        "dims": [2, 2],
        "alphas": [0.5, 0.5],
        "v_vectors": [[1.0, 0.0, 0.0, 0.0]],
    }
    r = run_cli("echelon", "build", "--config", json.dumps(cfg), "--out", str(tree_path))
    assert r.returncode == 0, r.stderr
    assert "verified=True" in r.stderr

    r = run_cli("echelon", "verify", "--input", str(tree_path))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["ok"] is True

    # tamper with a stored leaf tensor entry
    obj = json.loads(tree_path.read_text())

    def first_leaf(nodes):
        for node in nodes:
            if "tensor" in node:
                return node
            found = first_leaf(node.get("children", ()))
            if found is not None:
                return found
        return None

    leaf = first_leaf(obj["tree"])
    i, j = (k - 1 for k in leaf["index"])  # indices are 1-based on disk
    leaf["tensor"]["entries"][i * 2 + j] = 0.0  # kill the leaf's own pivot
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj))
    r = run_cli("echelon", "verify", "--input", str(tampered))
    assert r.returncode == 2
    assert json.loads(r.stdout)["ok"] is False


def test_experiment_outputs_reproduce(tmp_path):
    cfg = {
        "kind": "sigma_min", "trials": 3, "seed": 2,
        "n": 8, "ell": 2, "m": 4, "c": 0.5,
        "model": {"model": "bitflip", "q": 0.5},
    }
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    r = run_cli("experiment", "--config", json.dumps(cfg), "--out", str(out1))
    assert r.returncode == 0, r.stderr
    # re-running from the emitted report must reproduce it byte for byte
    r = run_cli("experiment", "--config", str(out1), "--out", str(out2))
    assert r.returncode == 0, r.stderr
    assert out1.read_bytes() == out2.read_bytes()

    r = run_cli("experiment", "--config", json.dumps(cfg), "--format", "csv")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "trial,seed,statistic,threshold,failure"


def test_memory_error_is_an_error_line(tmp_path, monkeypatch, capsys):
    def too_large(v, ell):
        raise MemoryError("Unable to allocate 21.7 GiB for an array")

    monkeypatch.setattr(cli, "intersection_tensor", too_large)
    diagram = '{"n": 2, "regions": [{"chi": [1, 1], "w": 1.0}]}'
    out = tmp_path / "t.json"
    assert cli.main(["tensorize", "--input", diagram, "--ell", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 21.7 GiB for an array\n"
    assert not out.exists()


def test_error_exit_codes(tmp_path):
    r = run_cli("reconstruct", "--input", str(tmp_path / "missing.json"))
    assert r.returncode == 1
    assert "error:" in r.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("diff", str(bad), str(bad))
    assert r.returncode == 1
    assert "malformed JSON" in r.stderr

    r = run_cli("echelon", "build")  # missing --config
    assert r.returncode == 1

    # malformed input is a contract error, never a traceback
    for args, field in (
        (("reconstruct", "--input", '{"dims": [2, 2, 2]}'), "entries"),
        (("diff", '{"n": 2}', '{"n": 2, "regions": []}'), "regions"),
        (("echelon", "build", "--config", '{"alphas": [0.5]}'), "dims"),
    ):
        r = run_cli(*args)
        assert r.returncode == 1, args
        assert r.stderr == f"error: missing field '{field}'\n", r.stderr
    r = run_cli("reconstruct", "--input", '{"dims": 2, "entries": [0, 0]}')  # wrong type
    assert r.returncode == 1
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr

    # with no --m-max the default cap is 0 at n=5, ell=3; the error names it
    tensor = tmp_path / "t5.json"
    diagram = '{"n": 5, "regions": [{"chi": [1, 1, 1, 1, 1], "w": 1.0}]}'
    r = run_cli("tensorize", "--input", diagram, "--ell", "3", "--out", str(tensor))
    assert r.returncode == 0, r.stderr
    r = run_cli("reconstruct", "--input", str(tensor))
    assert r.returncode == 1
    assert r.stderr == "error: default m_max is 0 at n=5, ell=3; pass m_max (--m-max)\n"


@pytest.mark.parametrize("entry", ["0.7", "Infinity"])
def test_diff_rejects_a_non_binary_membership(entry, capsys):
    # 0.7 used to truncate to 0 and match; Infinity died with OverflowError
    bad = '{"n": 2, "regions": [{"chi": [%s, 1], "w": 1.0}]}' % entry
    good = '{"n": 2, "regions": [{"chi": [0, 1], "w": 1.0}]}'
    assert cli.main(["diff", bad, good]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: membership pattern must be 0/1"), err


@pytest.mark.parametrize("tol", ["-1", "nan", "0.5"])
def test_reconstruct_rejects_a_bad_tol(tmp_path, tol, capsys):
    tensor = tmp_path / "t.json"
    diagram = '{"n": 6, "regions": [{"chi": [1, 0, 1, 0, 1, 1], "w": 2.0}]}'
    assert cli.main(["tensorize", "--input", diagram, "--ell", "3", "--out", str(tensor)]) == 0
    out = tmp_path / "r.json"
    assert cli.main(["reconstruct", "--input", str(tensor), "--m-max", "1", "--tol", tol, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: rounding tolerance must lie in [0, 0.5)")
    assert not out.exists()

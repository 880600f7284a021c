import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import venndec
from venndec import cli
from venndec.decomp import recover_rank_one_terms
from venndec.venn import MeasurementTensor

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


@pytest.mark.parametrize("n, ell", [(12, 3), (6, 6)], ids=["ell3", "ell6"])
def test_decompose_emits_terms(tmp_path, n, ell):
    diagram = tmp_path / "d.json"
    tensor = tmp_path / "t.json"
    assert cli.main(["gen", "--n", str(n), "--m", "3", "--seed", "5", "--out", str(diagram)]) == 0
    assert cli.main(["tensorize", "--input", str(diagram), "--ell", str(ell), "--out", str(tensor)]) == 0
    m = len(json.loads(diagram.read_text())["regions"])
    r = run_cli("decompose", "--input", str(tensor), "--m", str(m))
    assert r.returncode == 0, r.stderr
    obj = json.loads(r.stdout)
    assert obj["rank"] == m
    assert len(obj["terms"]) == m
    assert obj["recon_residual"] <= 1e-6
    # every emitted number is the matching entry of the factor matrices
    want = recover_rank_one_terms(MeasurementTensor.from_json_dict(json.loads(tensor.read_text())).tensor, m)
    F, scales = want.factors, want.scales
    assert obj["max_residual"] == want.max_residual
    assert obj["recon_residual"] == want.recon_residual
    for j, term in enumerate(obj["terms"]):
        assert term["residual"] == want.residuals[j]
        if ell == 3:
            assert set(term) == {"a", "b", "c", "residual"}
            assert term["a"] == F[0][:, j].tolist()
            assert term["b"] == F[1][:, j].tolist()
            assert term["c"] == (scales[j] * F[2][:, j]).tolist()
            continue
        assert set(term) == {"factors", "scale", "residual"}
        assert term["factors"] == [M[:, j].tolist() for M in F]
        assert term["scale"] == scales[j]
        assert len(term["factors"]) == ell
        assert all(np.linalg.norm(f) == pytest.approx(1.0) for f in term["factors"])
        assert term["scale"] > 0  # a region weight times its pattern's norm^ell
        assert term["residual"] <= 1e-6


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


def _tree_leaf(index, dims):
    n = int(np.prod(dims))
    return {"index": index, "tensor": {"dims": dims, "entries": [1.0] + [0.0] * (n - 1)}}


@pytest.mark.parametrize(
    "dims, tree, message",
    [
        ([2], [_tree_leaf([0], [2])], "label (0,) out of range for dims (2,)"),
        ([2], [_tree_leaf([3], [2])], "label (3,) out of range for dims (2,)"),
        (
            [2, 2],
            [{"index": [1], "children": [_tree_leaf([2, 1], [2, 2])]}],
            "label (2, 1) does not extend parent (1,)",
        ),
    ],
    ids=["label-zero", "label-high", "bad-parent"],
)
def test_echelon_verify_names_labels_as_the_file_writes_them(tmp_path, capsys, dims, tree, message):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"dims": dims, "tree": tree}))
    assert cli.main(["echelon", "verify", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


_LEAF_2_5 = {"index": [1], "tensor": {"dims": [2.5], "entries": [1.0, 0.0]}}
_MEMBERS = '{"n": 2, "regions": [{"chi": [0, 1], "w": 1.0}]}'
_BITFLIP_0 = '{"model": "bitflip", "q": 0.0}'


@pytest.mark.parametrize(
    "args, message",
    [
        (("echelon", "verify", "--input", json.dumps({"dims": [2], "tree": [_tree_leaf([1.7], [2])]})),
         "label entry must be an integer, got 1.7"),
        (("echelon", "verify", "--input", json.dumps({"dims": [2], "tree": [_tree_leaf([True], [2])]})),
         "label entry must be an integer, got True"),
        (("echelon", "verify", "--input", json.dumps({"dims": [2.9], "tree": [_tree_leaf([True], [2])]})),
         "dims entry must be an integer, got 2.9"),
        (("echelon", "verify", "--input", json.dumps({"dims": [2], "tree": [_LEAF_2_5]})),
         "dims entry must be an integer, got 2.5"),
        (("echelon", "build", "--config",
          '{"dims": [2.9, 2], "alphas": [0.5, 0.5], "v_vectors": [[1, 0, 0, 0]]}'),
         "dims entry must be an integer, got 2.9"),
        (("diff", _MEMBERS.replace('"n": 2', '"n": 2.9'), _MEMBERS), "n must be an integer, got 2.9"),
        (("perturb", "--input", '{"n": 2.5, "columns": [[1, 0]]}', "--config", _BITFLIP_0),
         "n must be an integer, got 2.5"),
        (("perturb", "--input", '{"n": 2, "m": 1.0, "columns": [[1, 0]]}', "--config", _BITFLIP_0),
         "m must be an integer, got 1.0"),
    ],
    ids=["label-float", "label-bool", "tree-dims-float", "leaf-dims-float", "build-dims-float",
         "diagram-n-float", "members-n-float", "members-m-float"],
)
def test_integer_fields_reject_non_integers(args, message, capsys):
    # int() used to truncate each of these, and the command exited 0
    assert cli.main(list(args)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


_BASE_CONFIGS = {
    "sigma_min": {"kind": "sigma_min", "trials": 2, "seed": 1, "n": 8, "ell": 2, "m": 4, "c": 0.5,
                  "model": {"model": "bitflip", "q": 0.5}},
    "echelon": {"kind": "echelon", "trials": 2, "seed": 1, "n": 4, "ell": 2, "c": 0.5,
                "model": {"model": "bitflip", "q": 0.5}},
    "roundtrip": {"kind": "roundtrip", "trials": 2, "seed": 1, "n": 18, "ell": 3, "m": 2,
                  "model": {"model": "bitflip", "q": 0.5}},
    "soft_model": {"kind": "soft_model", "trials": 2, "seed": 1, "graph": "cycle:4",
                   "K": 500, "a": 40, "b": 10, "N": 10**5},
}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("trials", 2.7, "trials must be an integer >= 1, got 2.7"),
        ("trials", True, "trials must be an integer >= 1, got True"),
        ("seed", -3, "seed must be an integer >= 0, got -3"),
        # "kind.field" sets a field of that kind's base config
        ("sigma_min.ell", True, "ell must be an integer, got True"),
        ("sigma_min.c", "0.5", "c must be a number, got '0.5'"),
        ("echelon.n", 4.0, "n must be an integer, got 4.0"),
        ("echelon.delta", True, "delta must be a number, got True"),
        ("roundtrip.n", 18.5, "n must be an integer, got 18.5"),
        ("roundtrip.m_max", 2.5, "m_max must be an integer, got 2.5"),
        ("roundtrip.eps", True, "eps must be a number, got True"),
        ("soft_model.K", 500.9, "K must be an integer, got 500.9"),
        ("soft_model.N", 1e5, "N must be an integer, got 100000.0"),
        ("soft_model.graph", 5, "graph must be a string, got 5"),
        ("soft_model.margin", [0.4], "margin must be a number, got [0.4]"),
    ],
)
def test_experiment_config_errors_exit_1(field, value, message, capsys):
    kind, _, name = field.rpartition(".")
    cfg = dict(_BASE_CONFIGS[kind or "sigma_min"], **{name: value})
    assert cli.main(["experiment", "--config", json.dumps(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    "args",
    [
        ("gen", "--m", "3"),  # missing --n
        ("gen", "--n", "3", "--m", "3", "--bogus"),
        ("nosuch",),
        # each subcommand takes only the flags it reads
        ("gen", "--n", "3", "--m", "3", "--format", "csv"),
        ("condition", "--input", '{"matrix": [[1]]}', "--seed", "1"),
        ("diff", "--seed", "1", "a.json", "b.json"),
        ("echelon", "verify", "--input", "tree.json", "--seed", "1"),
        # no prefix matching: with a valid config this would otherwise run
        # with --seed-override 7
        (
            "experiment",
            "--config",
            '{"kind": "sigma_min", "trials": 1, "seed": 2, "n": 8, "ell": 2, "m": 4, '
            '"c": 0.5, "model": {"model": "bitflip", "q": 0.5}}',
            "--seed",
            "7",
        ),
        ("gen", "--n", "3", "--m", "3", "--se", "1"),
        ("echelon", "build", "--config", '{"dims": [2], "alphas": [0.5], "w_vectors": [[1, 0]]}',
         "--input", "tree.json", "--tolerance", "0.1"),
        ("echelon", "verify", "--input", json.dumps({"dims": [2], "tree": [_tree_leaf([1], [2])]}),
         "--config", "{}"),
    ],
)
def test_bad_arguments_are_contract_errors(args, capsys):
    # argparse's own exit code, 2, would read as a failed verification
    assert cli.main(list(args)) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_arguments_exit_1_and_help_exits_0():
    r = run_cli("diff", "--weight-tolerance", "1e-3", "a.json", "b.json")
    assert r.returncode == 1
    assert "unrecognized arguments" in r.stderr
    r = run_cli("diff", "--help")
    assert r.returncode == 0
    assert r.stdout.startswith("usage: venndec diff")


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


@pytest.mark.parametrize("eps", ["-0.5", "nan", "inf"])
def test_tensorize_rejects_a_bad_epsilon(tmp_path, eps, capsys):
    # NaN and -0.5 used to write a noiseless tensor; inf died with OverflowError
    out = tmp_path / "t.json"
    diagram = '{"n": 4, "regions": [{"chi": [1, 0, 1, 1], "w": 1.0}]}'
    assert cli.main(["tensorize", "--input", diagram, "--ell", "3", "--epsilon", eps, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: noise level must be finite and nonnegative")
    assert not out.exists()


@pytest.mark.parametrize("bound, message", [("0", "closing check failed"), ("NaN", "noise bound must be finite")])
def test_reconstruct_refuses_a_tampered_tensor_whatever_its_bound(tmp_path, bound, message, capsys):
    # a NaN bound used to switch off every check, and reconstruct returned
    # pattern (1,0,0,0,0,0) with weight 6, which is not in the diagram
    diagram = {"n": 6, "regions": [{"chi": [1, 0, 1, 0, 1, 0], "w": 1.0},
                                   {"chi": [0, 1, 1, 0, 0, 1], "w": 2.0},
                                   {"chi": [1, 1, 0, 1, 0, 0], "w": 3.0}]}
    tensor = tmp_path / "t.json"
    assert cli.main(["tensorize", "--input", json.dumps(diagram), "--ell", "3", "--out", str(tensor)]) == 0
    obj = json.loads(tensor.read_text())
    obj["entries"][0] += 5.0
    tensor.write_text(json.dumps(obj).replace('"epsilon_inf": 0.0', f'"epsilon_inf": {bound}'))
    out = tmp_path / "r.json"
    assert cli.main(["reconstruct", "--input", str(tensor), "--m-max", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()

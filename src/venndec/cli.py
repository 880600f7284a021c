"""Command-line front end: dataset generation, pipeline steps, experiments.

Exit codes: 0 on success, 1 on a contract error (bad arguments, infeasible
parameters, malformed files), 2 when a verification subcommand finds the
checked property violated (diff mismatch, echelon verification failure).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .decomp import condition_report, recover_rank_one_terms
from .echelon import (
    BranchingSpec,
    EchelonTree,
    SubspaceBasis,
    build_echelon_tree,
    largeness,
    orthogonal_complement,
    verify_echelon,
)
from .perturb import MembershipMatrix, model_from_json_dict, perturb_memberships
from .rng import generator
from .tensor import Tensor, json_int
from .venn import (
    MeasurementTensor,
    VennDiagram,
    add_measurement_noise,
    diagram_diff,
    intersection_tensor,
    reconstruct,
)
from .experiments import (
    ExperimentConfig,
    report_csv_text,
    report_json_text,
    run_experiment,
)

_EXIT_OK = 0
_EXIT_CONTRACT = 1
_EXIT_VERIFY = 2


def _load_json(path_or_inline: str):
    """Read a JSON file; a leading '{' means the argument is inline JSON."""
    text = path_or_inline
    if not path_or_inline.lstrip().startswith("{"):
        with open(path_or_inline, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path_or_inline!r}: {exc}") from exc


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, out: str | None):
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _cmd_gen(args) -> int:
    rng = generator(args.seed, "gen")
    if args.diagram_kind == "adversarial":
        x = np.ones((args.n, args.m))
    else:
        x = (rng.random((args.n, args.m)) < 0.5).astype(float)
    diagram = VennDiagram.from_columns(x, merge_duplicates=True)
    _emit_json(diagram.to_json_dict(), args.out)
    return _EXIT_OK


def _cmd_perturb(args) -> int:
    model = model_from_json_dict(_load_json(args.config))
    obj = _load_json(args.input)
    if "regions" in obj:
        diagram = VennDiagram.from_json_dict(obj)
        base = MembershipMatrix(diagram.columns(), diagram.n)
        out = perturb_memberships(base, model, args.seed)
        perturbed = VennDiagram.from_columns(out.X, weights=diagram.weights(), merge_duplicates=True)
        _emit_json(perturbed.to_json_dict(), args.out)
    elif "columns" in obj:
        base = MembershipMatrix.from_json_dict(obj)
        out = perturb_memberships(base, model, args.seed)
        _emit_json(out.to_json_dict(), args.out)
    else:
        raise ValueError("input must be a diagram ('regions') or a membership matrix ('columns')")
    return _EXIT_OK


def _cmd_tensorize(args) -> int:
    diagram = VennDiagram.from_json_dict(_load_json(args.input))
    t = intersection_tensor(diagram, args.ell)
    t = add_measurement_noise(t, args.epsilon, seed=args.seed)
    _emit_json(t.to_json_dict(), args.out)
    return _EXIT_OK


def _cmd_decompose(args) -> int:
    obj = _load_json(args.input)
    if "epsilon_inf" in obj:
        t = MeasurementTensor.from_json_dict(obj).tensor
    else:
        t = Tensor.from_json_dict(obj)
    result = recover_rank_one_terms(t, args.m, seed=args.seed)
    # row j of each transposed factor matrix is term j's factor in that mode
    F, residuals = result.factors, result.residuals.tolist()
    if len(F) == 3:
        a, b, c = (M.T.tolist() for M in (F[0], F[1], F[2] * result.scales))
        terms = [{"a": a[j], "b": b[j], "c": c[j], "residual": r} for j, r in enumerate(residuals)]
    else:
        rows = [M.T.tolist() for M in F]
        terms = [
            {"factors": [mode[j] for mode in rows], "scale": s, "residual": r}
            for j, (s, r) in enumerate(zip(result.scales.tolist(), residuals))
        ]
    _emit_json(
        {
            "rank": result.rank,
            "terms": terms,
            "max_residual": result.max_residual,
            "recon_residual": result.recon_residual,
        },
        args.out,
    )
    return _EXIT_OK


def _cmd_condition(args) -> int:
    obj = _load_json(args.input)
    if "matrix" in obj:
        a = np.asarray(obj["matrix"], dtype=float)
    elif "columns" in obj:
        a = np.asarray(obj["columns"], dtype=float).T
    else:
        raise ValueError("input needs 'matrix' (rows) or 'columns'")
    c = np.asarray(obj["c_columns"], dtype=float).T if "c_columns" in obj else None
    _emit_json(condition_report(a, c).to_json_dict(), args.out)
    return _EXIT_OK


def _cmd_reconstruct(args) -> int:
    t = MeasurementTensor.from_json_dict(_load_json(args.input))
    diagram = reconstruct(t, m_max=args.m_max, seed=args.seed, tol=args.tol)
    _emit_json(diagram.to_json_dict(), args.out)
    return _EXIT_OK


def _cmd_diff(args) -> int:
    v1 = VennDiagram.from_json_dict(_load_json(args.first))
    v2 = VennDiagram.from_json_dict(_load_json(args.second))
    diff = diagram_diff(v1, v2, weight_tol=args.weight_tol)
    _emit_json(diff.to_json_dict(), args.out)
    return _EXIT_OK if diff.exact_match else _EXIT_VERIFY


def _cmd_echelon_build(args) -> int:
    cfg = _load_json(args.config)
    dims = [json_int(d, "dims entry") for d in cfg["dims"]]
    if "w_vectors" in cfg:
        w = SubspaceBasis.from_span(np.asarray(cfg["w_vectors"], dtype=float).T, dims)
    elif "v_vectors" in cfg:
        v = SubspaceBasis.from_span(np.asarray(cfg["v_vectors"], dtype=float).T, dims)
        w = orthogonal_complement(v)
    else:
        raise ValueError("config needs 'w_vectors' (basis of W) or 'v_vectors' (basis of V)")
    tree, trace = build_echelon_tree(w, BranchingSpec(tuple(cfg["alphas"])))
    _emit_json(tree.to_json_dict(), args.out)
    report = verify_echelon(tree)
    sys.stderr.write(
        f"built tree over dims {tuple(dims)}: {len(tree.leaf_tensors)} leaves, "
        f"largeness {largeness(tree):.6g}, verified={report.ok}, "
        f"{len(trace.records)} recursion steps\n"
    )
    return _EXIT_OK


def _cmd_echelon_verify(args) -> int:
    tree = EchelonTree.from_json_dict(_load_json(args.input))
    report = verify_echelon(tree, tolerance=args.tolerance)
    _emit_json(
        {
            "ok": report.ok,
            "violations": [str(v) for v in report.violations],
        },
        args.out,
    )
    return _EXIT_OK if report.ok else _EXIT_VERIFY


def _cmd_experiment(args) -> int:
    obj = _load_json(args.config)
    if "config" in obj and "records" in obj:
        obj = obj["config"]  # accept a previous report and re-run its config
    if args.seed_override is not None:
        obj = dict(obj, seed=args.seed_override)
    cfg = ExperimentConfig.from_json_dict(obj)
    report = run_experiment(cfg)
    text = report_csv_text(report) if args.format == "csv" else report_json_text(report)
    _emit(text, args.out)
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="venndec",
        description="Set-family reconstruction from intersection tensors, "
        "echelon-tree certificates, and assembly association graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags it reads, spelled out in full: with
    # prefix matching, "experiment --seed 7" would set --seed-override
    add = functools.partial(sub.add_parser, allow_abbrev=False)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default: stdout)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0, help="base RNG seed")

    p = add("gen", parents=[seeded], help="generate a membership diagram")
    p.add_argument("--n", type=int, required=True, help="number of sets")
    p.add_argument("--m", type=int, required=True, help="number of regions before merging")
    p.add_argument(
        "--diagram-kind",
        choices=("random", "adversarial"),
        default="random",
        help="random 0/1 columns, or the all-ones worst case "
        "(its m columns merge into one region of weight m)",
    )
    p.set_defaults(func=_cmd_gen)

    p = add("perturb", parents=[seeded], help="apply a perturbation model to a diagram or matrix")
    p.add_argument("--input", required=True, help="diagram or membership-matrix JSON")
    p.add_argument("--config", required=True, help="model JSON, e.g. {\"model\":\"bitflip\",\"q\":0.2}")
    p.set_defaults(func=_cmd_perturb)

    p = add("tensorize", parents=[seeded], help="build the intersection tensor of a diagram")
    p.add_argument("--input", required=True, help="diagram JSON")
    p.add_argument("--ell", type=int, required=True, help="tensor order")
    p.add_argument("--epsilon", type=float, default=0.0, help="entrywise measurement noise")
    p.set_defaults(func=_cmd_tensorize)

    p = add("decompose", parents=[seeded], help="recover rank-one terms of a tensor")
    p.add_argument("--input", required=True, help="tensor JSON")
    p.add_argument("--m", type=int, required=True, help="number of terms")
    p.set_defaults(func=_cmd_decompose)

    p = add("condition", parents=[out], help="conditioning report for a factor matrix")
    p.add_argument("--input", required=True, help="JSON with 'matrix' rows or 'columns'")
    p.set_defaults(func=_cmd_condition)

    p = add("reconstruct", parents=[seeded], help="recover a diagram from an intersection tensor")
    p.add_argument("--input", required=True, help="measurement tensor JSON")
    p.add_argument("--m-max", type=int, default=None, help="region count cap")
    p.add_argument("--tol", type=float, default=1e-3, help="rounding ambiguity tolerance")
    p.set_defaults(func=_cmd_reconstruct)

    p = add("diff", parents=[out], help="compare two diagrams; exit 2 when they differ")
    p.add_argument("first", help="diagram JSON")
    p.add_argument("second", help="diagram JSON")
    p.add_argument("--weight-tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_diff)

    p = add("echelon", help="build or verify echelon trees")
    action = functools.partial(p.add_subparsers(dest="action", required=True).add_parser,
                               parents=[out], allow_abbrev=False)
    p = action("build", help="build a tree and emit its JSON")
    p.add_argument("--config", required=True, help="build config: dims, alphas, v_vectors|w_vectors")
    p.set_defaults(func=_cmd_echelon_build)
    p = action("verify", help="verify a tree; exit 2 on violation")
    p.add_argument("--input", required=True, help="tree JSON")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=_cmd_echelon_verify)

    p = add("experiment", parents=[out], help="run a seeded Monte Carlo experiment")
    p.add_argument("--config", required=True, help="experiment config JSON (or a previous report)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--seed-override",
        type=int,
        default=None,
        help="replace the config seed (omit to reproduce a report exactly)",
    )
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a bad argument, which would read as a failed
        # verification; after --help it exits 0
        return _EXIT_CONTRACT if exc.code else _EXIT_OK
    try:
        return args.func(args)
    except KeyError as exc:  # a JSON input without a field its reader needs
        sys.stderr.write(f"error: missing field {exc.args[0]!r}\n")
        return _EXIT_CONTRACT
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())

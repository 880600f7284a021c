import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import null_space

from venndec import cli
from venndec.echelon import (
    BranchingSpec,
    EchelonTree,
    SubspaceBasis,
    build_echelon_tree,
    certify_distance,
    collapse,
    largeness,
    orthogonal_complement,
    verify_echelon,
    _constrain_coords,
    _eliminate,
)
from venndec.rng import generator


def random_subspace(dims, dim, seed):
    rng = generator(seed, "w")
    mat = rng.standard_normal((math.prod(dims), dim))
    return SubspaceBasis.from_span(mat, dims)


# --- bases ------------------------------------------------------------------


def test_subspace_basis_requires_orthonormal_columns():
    with pytest.raises(ValueError):
        SubspaceBasis((2, 2), np.ones((4, 2)))


def test_from_span_rejects_rank_deficiency():
    mat = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="rank"):
        SubspaceBasis.from_span(mat, (2, 2))


def test_from_span_accepts_redundant_free_spans():
    w = SubspaceBasis.from_span(np.array([[2.0, 1.0], [0.0, 1.0]]), (2,))
    assert w.dim == 2


def test_orthogonal_complement_splits_ambient():
    v = random_subspace((2, 3), 2, seed=1)
    w = orthogonal_complement(v)
    assert w.dim == 4
    assert np.allclose(v.vectors.T @ w.vectors, 0.0, atol=1e-12)


def test_orthogonal_complement_of_trivial_space():
    v = SubspaceBasis((2, 2), np.zeros((4, 0)))
    assert orthogonal_complement(v).dim == 4


# --- height-1 elimination ---------------------------------------------------


def test_eliminate_full_plane():
    w = SubspaceBasis.from_span(np.array([[2.0, 1.0], [0.0, 1.0]]), (2,))
    pivots, rows = _eliminate(w.vectors, needed=2)
    assert pivots.tolist() == [0, 1]
    np.testing.assert_allclose(rows, np.eye(2), atol=1e-12)


def test_eliminate_respects_forbidden_pivots():
    B = _constrain_coords(np.eye(3), [0])
    pivots, rows = _eliminate(B, needed=B.shape[1])
    assert set(pivots.tolist()) == {1, 2}
    assert np.max(np.abs(rows[:, 0])) <= 1e-12


def test_eliminate_pivot_entry_is_one():
    w = random_subspace((6,), 4, seed=3)
    pivots, rows = _eliminate(w.vectors, needed=4)
    assert rows.shape == (4, 6)
    for p, v in zip(pivots, rows):
        assert v[p] == 1.0
        assert np.max(np.abs(v)) == 1.0
    # successive vectors vanish at all earlier pivots
    for k, v in enumerate(rows):
        for earlier in pivots[:k]:
            assert abs(v[earlier]) <= 1e-10


def test_eliminate_errors_on_empty_subspace():
    B = _constrain_coords(np.eye(2), [0, 1])
    assert B.shape == (2, 0)
    with pytest.raises(ValueError, match="exhausted"):
        _eliminate(B, needed=1)
    with pytest.raises(ValueError):
        build_echelon_tree(SubspaceBasis((2,), B), BranchingSpec((0.5,)))


# Reference elimination: greedy pivoting with one Householder reflection per
# pivot in coefficient space, and slice constraints through a full SVD.


def _reference_constrain(B, coords, rcond=1e-10):
    R = B[np.asarray(coords, dtype=int), :]
    if np.max(np.abs(R)) <= 1e-12:
        return B
    return B @ null_space(R, rcond=rcond)


def _reference_drop_pivot(B, coord):
    d = B.shape[1]
    r = B[coord, :].copy()
    nr = np.linalg.norm(r)
    if nr <= 1e-14:
        return B
    w = r / nr
    w[d - 1] += 1.0 if w[d - 1] >= 0 else -1.0
    w /= np.linalg.norm(w)
    BH = B - 2.0 * np.outer(B @ w, w)
    return np.ascontiguousarray(BH[:, : d - 1])


def _reference_eliminate(B, needed, tol=1e-10):
    out = []
    while B.shape[1] > 0 and (needed is None or len(out) < needed):
        row_norms = np.linalg.norm(B, axis=1)
        p_star = int(np.argmax(row_norms))
        if row_norms[p_star] <= tol:
            break
        v = B @ (B[p_star, :] / row_norms[p_star])
        pivot = int(np.argmax(np.abs(v)))
        out.append((pivot, v / v[pivot]))
        B = _reference_drop_pivot(B, pivot)
    return out


def _assert_same_elimination(got, want):
    pivots, rows = got
    assert pivots.tolist() == [p for p, _ in want]
    assert len(rows) == len(want)
    for v, (_, ref) in zip(rows, want):
        np.testing.assert_allclose(v, ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_eliminate_matches_reference_loop(seed):
    rng = generator(seed, "eliminate")
    n = int(rng.integers(6, 30))
    dim = int(rng.integers(2, n))
    w = random_subspace((n,), dim, seed=200 + seed)
    forbidden = sorted(rng.choice(n, size=int(rng.integers(0, dim)), replace=False).tolist())
    B = _constrain_coords(w.vectors, forbidden) if forbidden else w.vectors
    ref_B = _reference_constrain(w.vectors, forbidden) if forbidden else w.vectors
    assert B.shape == ref_B.shape
    np.testing.assert_allclose(B @ B.T, ref_B @ ref_B.T, rtol=0.0, atol=1e-12)
    _assert_same_elimination(_eliminate(B, needed=B.shape[1]), _reference_eliminate(ref_B, None))
    needed = B.shape[1] // 2 + 1
    _assert_same_elimination(_eliminate(B, needed=needed), _reference_eliminate(ref_B, needed))


def test_constrain_rank_deficient_coordinates_matches_reference():
    # every vector of W has x[0] == x[1] and x[2] == -2 x[3], so each pair of
    # forbidden coordinates removes one dimension, not two; the last set has
    # more coordinates than W has dimensions and still leaves one
    rng = generator(17, "deficient")
    span = rng.standard_normal((10, 6))
    span[1] = span[0]
    span[2] = -2.0 * span[3]
    w = SubspaceBasis.from_span(span, (10,))
    for coords in ([0, 1], [0, 1, 2, 3], [1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5, 6]):
        B = _constrain_coords(w.vectors, coords)
        ref_B = _reference_constrain(w.vectors, coords)
        assert B.shape == ref_B.shape
        np.testing.assert_allclose(B.T @ B, np.eye(B.shape[1]), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(B @ B.T, ref_B @ ref_B.T, rtol=0.0, atol=1e-12)
        _assert_same_elimination(_eliminate(B, needed=B.shape[1]), _reference_eliminate(ref_B, None))
    B = _constrain_coords(w.vectors, [0, 1, 2, 3])
    _, rows = _eliminate(B, needed=B.shape[1])
    assert len(rows) == 4
    assert np.max(np.abs(rows[:, :4])) <= 1e-12


def test_eliminate_errors_keep_their_messages():
    w = SubspaceBasis((3,), np.eye(3)[:, :2])
    with pytest.raises(ValueError, match="subspace exhausted after 2 pivots, needed 3"):
        _eliminate(w.vectors, needed=3)
    with pytest.raises(ValueError, match="pivot collapse"):
        _eliminate(np.vstack([np.eye(2), np.zeros((1, 2))]) * 1e-11, needed=1)


def test_exact_tie_follows_geqp3_column_order():
    # rows 0, 1, 3, 4 tie after pivot 2; geqp3 swapped column 0 to where
    # column 2 was, so column 1 now comes first among the tied candidates
    b = np.zeros((5, 3))
    b[2, 0] = 1.0
    b[[0, 3], 1] = 2**-0.5
    b[[1, 4], 2] = 2**-0.5
    w = SubspaceBasis((5,), b)
    assert _eliminate(w.vectors, needed=3)[0].tolist() == [2, 1, 0]
    tree, _ = build_echelon_tree(w, BranchingSpec((0.6,)))
    assert verify_echelon(tree).ok
    assert tree.labels.tolist() == [[2], [1], [0]]


# --- construction -----------------------------------------------------------


def test_full_space_tree_is_standard_basis():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, trace = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    assert set(tree.leaf_tensors) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for idx, t in tree.leaf_tensors.items():
        expected = np.zeros((2, 2))
        expected[idx] = 1.0
        np.testing.assert_allclose(t.data, expected, atol=1e-12)
    assert verify_echelon(tree).ok
    assert largeness(tree) == 1.0
    assert trace.dim_w == 4


def test_branching_spec_feasibility():
    spec = BranchingSpec((0.5, 0.5))
    assert spec.feasible_for(3, (2, 2))  # equality case
    assert not spec.feasible_for(2, (2, 2))
    with pytest.raises(ValueError):
        BranchingSpec((0.5, 1.2))


def test_build_rejects_infeasible_spec():
    w = random_subspace((2, 2), 2, seed=4)
    with pytest.raises(ValueError, match="infeasible"):
        build_echelon_tree(w, BranchingSpec((0.5, 0.5)))


def test_build_rejects_mismatched_levels():
    w = random_subspace((2, 2), 3, seed=4)
    with pytest.raises(ValueError):
        build_echelon_tree(w, BranchingSpec((0.5, 0.5, 0.5)))


def test_build_meets_branching_quota():
    dims = (4, 4, 4)
    alphas = (0.5, 0.5, 0.5)
    w = random_subspace(dims, 56, seed=5)  # (1 - 1/8) * 64
    tree, _ = build_echelon_tree(w, BranchingSpec(alphas))
    assert verify_echelon(tree, tolerance=1e-9).ok
    # every node at level k - 1 (the root is level 0) has its quota of children
    def check(children, k):
        assert len(children) >= math.ceil(alphas[k - 1] * dims[k - 1])
        for node in children:
            if "children" in node:
                check(node["children"], k + 1)

    check(tree.to_json_dict()["tree"], 1)
    # leaf tensors live in W
    p = w.vectors @ w.vectors.T
    for t in tree.leaf_tensors.values():
        flat = t.data.ravel()
        np.testing.assert_allclose(p @ flat, flat, atol=1e-9)


def test_build_pivots_and_norms_exact():
    w = random_subspace((3, 3), 7, seed=6)
    tree, _ = build_echelon_tree(w, BranchingSpec((0.5, 0.5)))
    for idx, t in tree.leaf_tensors.items():
        assert t.data[idx] == 1.0
        assert np.max(np.abs(t.data)) == 1.0


def test_build_handles_feasibility_boundary():
    # thin subspaces at exact feasibility equality must still build
    for d in (1, 2, 3, 5):
        w = random_subspace((4, 4), d, seed=100 + d)
        alpha = 1.0 - math.sqrt(1.0 - d / 16.0)
        tree, _ = build_echelon_tree(w, BranchingSpec((alpha, alpha)))
        assert verify_echelon(tree).ok


def test_build_trace_demand_within_capacity():
    w = random_subspace((4, 4, 4), 56, seed=7)
    _, trace = build_echelon_tree(w, BranchingSpec((0.5, 0.5, 0.5)))
    assert trace.records
    for rec in trace.records:
        assert rec.demand <= rec.capacity + 1e-9
        assert 0.0 <= rec.gamma < 1.0
        assert rec.beta >= trace.alphas[rec.depth + 1] - 1e-12
        assert rec.subspace_dim >= 1


def test_build_leaf_count_dimension_bound():
    alphas = (0.5, 0.5)
    for d, seed in ((12, 8), (14, 9), (15, 10)):
        w = random_subspace((4, 4), d, seed=seed)
        tree, _ = build_echelon_tree(w, BranchingSpec(alphas))
        n_leaves = len(tree.leaf_tensors)
        assert n_leaves >= math.prod(alphas) * 16
        assert n_leaves <= d
        flat = np.stack([t.data.ravel() for t in tree.leaf_tensors.values()], axis=1)
        assert np.linalg.svd(flat, compute_uv=False)[-1] > 1e-8


def test_leaves_are_their_own_block():
    w = random_subspace((4, 4, 4), 56, seed=5)
    tree, _ = build_echelon_tree(w, BranchingSpec((0.5, 0.5, 0.5)))
    k = len(tree.labels)
    assert tree.leaves.shape == (k, 64)
    root = tree.leaves
    while root.base is not None:
        root = root.base
    assert root.nbytes == tree.leaves.nbytes  # no larger block kept alive
    assert not tree.leaves.flags.writeable and not tree.labels.flags.writeable
    # leaf_tensors views the rows: one cached mapping, no copies, read-only
    assert tree.leaf_tensors is tree.leaf_tensors
    for t in tree.leaf_tensors.values():
        assert np.shares_memory(t.data, tree.leaves)
    with pytest.raises(TypeError):
        tree.leaf_tensors[(0, 0, 0)] = None


def test_build_is_deterministic():
    w = random_subspace((3, 3, 3), 20, seed=11)
    t1, _ = build_echelon_tree(w, BranchingSpec((1 / 3, 1 / 3, 1 / 3)))
    t2, _ = build_echelon_tree(w, BranchingSpec((1 / 3, 1 / 3, 1 / 3)))
    assert json.dumps(t1.to_json_dict()) == json.dumps(t2.to_json_dict())


# --- verifier ---------------------------------------------------------------


def _with_leaves(tree, leaves):
    return EchelonTree(tree.dims, tree.labels, leaves)


def test_verify_catches_echelon_violation():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    leaves = tree.leaves.copy()
    p = tree.labels.tolist().index([1, 1])
    leaves[p, 0] = 0.5  # nonzero at an earlier leaf's index
    report = verify_echelon(_with_leaves(tree, leaves))
    assert not report.ok
    assert any("before pivot" in v.kind for v in report.violations)


def test_verify_catches_dead_pivot():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    leaves = tree.leaves.copy()
    p = tree.labels.tolist().index([0, 0])
    leaves[p, 0] = 0.0
    report = verify_echelon(_with_leaves(tree, leaves))
    assert not report.ok
    assert any("pivot below" in v.kind for v in report.violations)


@pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, math.inf])
def test_verify_needs_a_finite_nonnegative_tolerance(tmp_path, tolerance, capsys):
    # a negative tolerance used to pass a dead pivot
    obj = {"dims": [2], "tree": [{"index": [1], "tensor": {"dims": [2], "entries": [0.0, 0.0]}}]}
    tree = EchelonTree.from_json_dict(obj)
    assert not verify_echelon(tree).ok
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        verify_echelon(tree, tolerance=tolerance)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["echelon", "verify", "--input", str(path), f"--tolerance={tolerance}"]) == 1
    assert capsys.readouterr().err.startswith("error: tolerance must be finite and >= 0")


def _reference_verify(t, tolerance=1e-9):
    """Slice by slice over the nodes of the nested JSON form, in post-order."""
    order, tensors = [], {}

    def walk(node):
        for child in node.get("children", ()):
            walk(child)
        index = tuple(i - 1 for i in node["index"])
        order.append(index)
        if "tensor" in node:
            tensors[index] = np.reshape(node["tensor"]["entries"], t.dims)

    for node in t.to_json_dict()["tree"]:
        walk(node)
    violations = []
    for pos, index in enumerate(order):
        if index not in tensors:
            continue
        data = tensors[index]
        pivot_val = abs(float(data[index]))
        if not pivot_val > tolerance:
            violations.append(("pivot below tolerance", index, None, pivot_val))
        for j_index in order[:pos]:
            worst = float(np.max(np.abs(data[j_index])))
            if worst > tolerance:
                violations.append(("nonzero before pivot", index, j_index, worst))
    return violations


def test_verify_matches_slice_by_slice_reference():
    for dims, alpha, dim_w in (((3, 3, 3), 1 / 3, 20), ((2, 3, 2), 0.5, 11), ((12,), 0.75, 10)):
        w = random_subspace(dims, dim_w, seed=11)
        tree, _ = build_echelon_tree(w, BranchingSpec((alpha,) * len(dims)))
        rng = generator(18, "tamper")
        leaves = tree.leaves.copy()
        hit = rng.random(leaves.shape) < 0.1
        leaves[hit] += rng.uniform(-1e-6, 1e-6, size=int(hit.sum()))
        own = np.ravel_multi_index(tuple(tree.labels.T), dims)
        leaves[np.arange(len(leaves)), own] *= rng.choice([1.0, 0.0], p=[0.8, 0.2], size=len(leaves))
        # each leaf nonzero at the previous leaf's index, which is also in the
        # slice of every node that ends there: a node and its last leaf both
        # precede the next leaf, and their order is checked
        leaves[np.arange(1, len(leaves)), own[:-1]] += 1e-6
        tampered = _with_leaves(tree, leaves)
        report = verify_echelon(tampered)
        got = [(v.kind, v.node, v.against, v.value) for v in report.violations]
        want = _reference_verify(tampered)
        assert want and not report.ok, dims
        assert got == want, dims


def test_tree_json_uses_one_based_indices():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    obj = tree.to_json_dict()
    assert obj["tree"][0]["index"] == [1]
    back = EchelonTree.from_json_dict(obj)
    np.testing.assert_array_equal(back.labels, tree.labels)
    np.testing.assert_array_equal(back.leaves, tree.leaves)


def test_leafless_tree_verifies_and_round_trips():
    tree = EchelonTree((2, 3), np.zeros((0, 2), dtype=int), np.zeros((0, 6)))
    assert verify_echelon(tree).ok
    obj = tree.to_json_dict()
    assert obj == {"dims": [2, 3], "tree": []}
    back = EchelonTree.from_json_dict(obj)
    assert back.dims == (2, 3) and back.labels.shape == (0, 2) and back.leaves.shape == (0, 6)
    assert not back.leaf_tensors


def _leaf(index, entries=(1.0, 0.0, 0.0, 0.0), dims=(2, 2)):
    return {"index": list(index), "tensor": {"dims": list(dims), "entries": list(entries)}}


# (constructor arguments or a JSON tree over dims (2, 2), expected message)
_MALFORMED = [
    pytest.param(((2, 2), [[0, 0, 0]], np.eye(4)[:1]), "labels must be a k x 2 matrix", id="labels-shape"),
    pytest.param(((2, 2), [0, 1], np.eye(4)[:1]), "labels must be a k x 2 matrix", id="labels-1d"),
    pytest.param(((2, 2), [[0, 0]], np.eye(4)[:2]), "leaves must be a 1 x 4 matrix", id="leaves-rows"),
    pytest.param(((2, 2), [[0, 0]], np.ones((1, 3))), "leaves must be a 1 x 4 matrix", id="leaves-cols"),
    pytest.param(((2, 2), [[0, 0]], [[np.nan, 0, 0, 0]]), "leaf entries must be finite", id="leaves-nan"),
    pytest.param(((2, 2), [[0, 2]], np.eye(4)[:1]), r"label \(0, 2\) out of range", id="label-high"),
    pytest.param(((2, 2), [[-1, 0]], np.eye(4)[:1]), r"label \(-1, 0\) out of range", id="label-negative"),
    pytest.param(((2, 2), [[0, 0], [1, 0], [0, 1]], np.eye(4)[:3]), "split a level-1 node", id="split-prefix"),
    pytest.param(((2, 2), [[0, 1], [0, 1]], np.eye(4)[:2]), "leaf labels repeat", id="repeated-leaf"),
    pytest.param(((), np.zeros((0, 0)), np.zeros((0, 1))), "dims must be positive", id="no-dims"),
    pytest.param(
        {"tree": [{"index": [1], "children": [_leaf([2, 1])]}]}, r"label \(2, 1\) does not extend parent \(1,\)",
        id="json-not-extending",
    ),
    pytest.param({"tree": [_leaf([1])]}, r"leaf \(1,\) with dims \(2, 2\) is not a level-2 leaf", id="json-leaf-level"),
    pytest.param(
        {"tree": [{"index": [1], "children": [_leaf([1, 1], (1.0, 0.0), (2,))]}]},
        r"leaf \(1, 1\) with dims \(2,\) is not a level-2 leaf", id="json-leaf-dims",
    ),
    pytest.param({"tree": [{"index": [1]}]}, r"node \(1,\) has neither children nor a tensor", id="json-bare-node"),
    pytest.param(
        {"tree": [{"index": [1], "children": []}]}, r"node \(1,\) has neither children nor a tensor",
        id="json-no-children",
    ),
    pytest.param(
        {"tree": [{"index": [1], "children": [{"index": [1, 1], "children": [_leaf([1, 1, 1])]}]}]},
        r"node \(1, 1\) has children below level 2", id="json-too-deep",
    ),
    pytest.param(
        {"tree": [{"index": [3], "children": [_leaf([3, 1])]}]}, r"label \(3,\) out of range", id="json-label-high"
    ),
    pytest.param(
        {"tree": [{"index": [0], "children": [_leaf([0, 1])]}]}, r"label \(0,\) out of range", id="json-label-zero"
    ),
    pytest.param(
        {"tree": [{"index": [1], "children": [_leaf([1, 1])]}, {"index": [2], "children": [_leaf([2, 1])]},
                  {"index": [1], "children": [_leaf([1, 2])]}]},
        r"duplicate label \(1,\)", id="json-split-prefix",
    ),
    pytest.param(
        {"tree": [{"index": [1], "children": [_leaf([1, 1]), _leaf([1, 1])]}]}, r"duplicate label \(1, 1\)",
        id="json-repeated-leaf",
    ),
    pytest.param(
        {"tree": [{"index": [1], "children": [_leaf([1, 1], (math.nan, 0.0, 0.0, 0.0))]}]}, "must be finite",
        id="json-nan",
    ),
]


@pytest.mark.parametrize("tree, match", _MALFORMED)
def test_malformed_trees_are_rejected(tree, match, tmp_path, capsys):
    if not isinstance(tree, dict):
        with pytest.raises(ValueError, match=match):
            EchelonTree(*tree)
        return
    obj = {"dims": [2, 2], **tree}
    with pytest.raises(ValueError, match=match):
        EchelonTree.from_json_dict(obj)
    # the CLI turns each into one error line and exit 1, never a traceback
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["echelon", "verify", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# --- collapse ---------------------------------------------------------------


def test_collapse_relabels_and_reshapes():
    w = random_subspace((2, 3, 2), 10, seed=12)
    tree, _ = build_echelon_tree(w, BranchingSpec((0.5, 1 / 3, 0.5)))
    c0 = collapse(tree, 0)
    assert c0.dims == (6, 2)
    for idx, t in tree.leaf_tensors.items():
        fused = (idx[0] * 3 + idx[1], idx[2])
        np.testing.assert_array_equal(c0.leaf_tensors[fused].data, t.data.reshape(6, 2))


def test_collapse_preserves_echelon_property():
    w = random_subspace((3, 3, 3), 19, seed=13)
    tree, _ = build_echelon_tree(w, BranchingSpec((1 / 3, 1 / 3, 1 / 3)))
    assert verify_echelon(tree).ok
    for mode in (0, 1):
        assert verify_echelon(collapse(tree, mode)).ok
    flat = collapse(collapse(tree, 0), 0)
    assert flat.height == 1
    assert verify_echelon(flat).ok


def test_collapse_mode_out_of_range():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    with pytest.raises(ValueError):
        collapse(tree, 1)


# --- certificates -----------------------------------------------------------


def test_certify_hand_example():
    # V spanned by e1 (x) e1; the tree covers its orthogonal complement
    v = np.zeros((4, 1))
    v[0, 0] = 1.0
    w = orthogonal_complement(SubspaceBasis((2, 2), v))
    tree, _ = build_echelon_tree(w, BranchingSpec((0.5, 0.5)))
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert certify_distance(tree, [e2, e2]) == pytest.approx(1.0, abs=1e-12)
    assert certify_distance(tree, [e1, e1]) == 0.0  # membership case


def test_certify_requires_matching_arity():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    with pytest.raises(ValueError):
        certify_distance(tree, [np.array([1.0, 0.0])])


def test_certify_soundness_sample():
    rng = generator(16, "sound")
    for _ in range(60):
        dv = int(rng.integers(1, 16))
        vb = np.linalg.qr(rng.standard_normal((16, dv)))[0]
        w = orthogonal_complement(SubspaceBasis((4, 4), vb))
        alpha = 1.0 - math.sqrt(dv / 16.0)
        tree, _ = build_echelon_tree(w, BranchingSpec((alpha, alpha)))
        chis = [rng.standard_normal(4), rng.standard_normal(4)]
        x = np.outer(chis[0], chis[1]).ravel()
        exact = float(np.linalg.norm(x - vb @ (vb.T @ x)))
        assert certify_distance(tree, chis) <= exact + 1e-9


def chain_certificate(tree, chis):
    """Reference: the greedy chain the certificate used to follow.

    Contract the last mode with its direction; under every bottom parent keep
    the child whose contraction is largest in magnitude at the parent's own
    index (the first child wins ties); repeat up to level 1, then evaluate
    each surviving chain against chi_1 and normalize by its origin leaf.
    """
    cur = {idx: (t.data, idx) for idx, t in tree.leaf_tensors.items()}
    for k in range(tree.height - 1, 0, -1):
        best = {}
        for idx, (data, origin) in cur.items():
            contracted = np.tensordot(data, chis[k], axes=([k], [0]))
            parent = idx[:-1]
            val = abs(float(contracted[parent]))
            if parent not in best or val > best[parent][0]:
                best[parent] = (val, contracted, origin)
        cur = {p: (c, o) for p, (_, c, o) in best.items()}
    out = 0.0
    for data, origin in cur.values():
        nf = float(np.linalg.norm(tree.leaf_tensors[origin].data))
        if nf > 0.0:
            out = max(out, abs(float(data @ chis[0])) / nf)
    return out


def brute_force_certificate(tree, chis):
    letters = "abc"[: tree.height]
    subscript = letters + "," + ",".join(letters) + "->"
    vals = [
        abs(float(np.einsum(subscript, t.data, *chis))) / float(np.linalg.norm(t.data))
        for t in tree.leaf_tensors.values()
    ]
    return max(vals, default=0.0)


@st.composite
def certified_points(draw):
    """A tree for W = V^perp of a random V in R^(4x4) or R^(3x3x3), a
    direction per mode (Gaussian or 0/1), and an orthonormal basis of V."""
    dims = draw(st.sampled_from([(4, 4), (3, 3, 3)]))
    seed = draw(st.integers(0, 10_000))
    ambient = math.prod(dims)
    rng = generator(seed, "certify", len(dims))
    if dims == (4, 4):  # criterion 03's construction
        dim_v = int(rng.integers(1, 16))
        alpha = 1.0 - math.sqrt(dim_v / 16.0)
    else:  # (2/3)^3 = 8/27, so one-third branching fits dim(V) <= 8
        dim_v = int(rng.integers(1, 9))
        alpha = 1.0 / 3.0
    vb = np.linalg.qr(rng.standard_normal((ambient, dim_v)))[0]
    w = orthogonal_complement(SubspaceBasis(dims, vb))
    tree, _ = build_echelon_tree(w, BranchingSpec((alpha,) * len(dims)))
    if draw(st.booleans()):
        chis = [rng.standard_normal(n) for n in dims]
    else:
        chis = [rng.integers(0, 2, size=n).astype(float) for n in dims]
    return tree, chis, vb


@given(certified_points())
def test_certify_is_the_maximum_over_all_leaves(case):
    tree, chis, _ = case
    got = certify_distance(tree, chis)
    assert got == pytest.approx(brute_force_certificate(tree, chis), rel=1e-12, abs=1e-15)
    assert got >= chain_certificate(tree, chis) * (1.0 - 1e-12)


@given(certified_points())
def test_certify_is_sound_and_ignores_leaf_order(case):
    tree, chis, vb = case
    got = certify_distance(tree, chis)
    x = np.multiply.outer(chis[0], chis[1])
    for chi in chis[2:]:
        x = np.multiply.outer(x, chi)
    x = x.ravel()
    assert got <= float(np.linalg.norm(x - vb @ (vb.T @ x))) + 1e-9
    # reorder whole level-1 subtrees, so the result is still a tree
    subtrees = np.split(np.arange(len(tree.labels)), np.flatnonzero(np.diff(tree.labels[:, 0])) + 1)
    order = generator(len(subtrees), "shuffle").permutation(len(subtrees))
    rows = np.concatenate([subtrees[i] for i in order])
    shuffled = EchelonTree(tree.dims, tree.labels[rows], tree.leaves[rows])
    assert certify_distance(shuffled, chis) == pytest.approx(got, rel=1e-12, abs=1e-15)


@given(certified_points())
def test_collapse_at_every_mode_relabels_leaf_tensors(case):
    tree, _, _ = case
    for mode in range(tree.height - 1):
        flat = collapse(tree, mode)
        d2 = tree.dims[mode + 1]
        want = {
            idx[:mode] + (idx[mode] * d2 + idx[mode + 1],) + idx[mode + 2 :]: t.data.reshape(flat.dims)
            for idx, t in tree.leaf_tensors.items()
        }
        assert list(flat.leaf_tensors) == list(want)
        for idx, t in flat.leaf_tensors.items():
            np.testing.assert_array_equal(t.data, want[idx])
        assert verify_echelon(flat).ok


def test_certify_empty_tree_is_zero():
    tree = EchelonTree((2, 2), np.zeros((0, 2), dtype=int), np.zeros((0, 4)))
    assert certify_distance(tree, [np.ones(2), np.ones(2)]) == 0.0


@pytest.mark.parametrize(
    "chis, match",
    [
        ([np.array([np.nan, 0.0]), np.ones(2)], "direction 0 has non-finite"),
        ([np.ones(2), np.array([1.0, np.nan])], "direction 1 has non-finite"),
        ([np.ones(2), np.array([np.inf, 1.0])], "direction 1 has non-finite"),
        ([np.ones(3), np.ones(2)], "direction 0 has length 3, expected 2"),
    ],
)
def test_certify_rejects_bad_directions(chis, match):
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    with pytest.raises(ValueError, match=match):
        certify_distance(tree, chis)


def test_subspace_basis_owns_its_vectors():
    flat = np.eye(4)[:, :2].ravel()
    basis = SubspaceBasis((2, 2), flat.reshape(4, 2))
    flat[0] = 7.0
    assert basis.vectors[0, 0] == 1.0
    assert flat.flags.writeable and not basis.vectors.flags.writeable

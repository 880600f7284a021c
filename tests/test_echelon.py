import json
import math

import numpy as np
import pytest
from scipy.linalg import null_space

from venndec.echelon import (
    BranchingSpec,
    EchelonTree,
    SubspaceBasis,
    build_echelon_tree,
    certify_distance,
    collapse,
    largeness,
    orthogonal_complement,
    reduce_tree,
    verify_echelon,
    _constrain_coords,
    _eliminate,
)
from venndec.rng import generator
from venndec.tensor import Tensor


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
    pairs = _eliminate(w.vectors, needed=2)
    assert [p for p, _ in pairs] == [0, 1]
    np.testing.assert_allclose(pairs[0][1], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pairs[1][1], [0.0, 1.0], atol=1e-12)


def test_eliminate_respects_forbidden_pivots():
    B = _constrain_coords(np.eye(3), [0])
    pairs = _eliminate(B, needed=B.shape[1])
    assert {p for p, _ in pairs} == {1, 2}
    for _, v in pairs:
        assert abs(v[0]) <= 1e-12


def test_eliminate_pivot_entry_is_one():
    w = random_subspace((6,), 4, seed=3)
    pairs = _eliminate(w.vectors, needed=4)
    assert len(pairs) == 4
    for p, v in pairs:
        assert v[p] == 1.0
        assert np.max(np.abs(v)) == 1.0
    # successive vectors vanish at all earlier pivots
    for k, (_, v) in enumerate(pairs):
        for earlier, _ in pairs[:k]:
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
    assert [p for p, _ in got] == [p for p, _ in want]
    for (_, v), (_, ref) in zip(got, want):
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
    pairs = _eliminate(B, needed=B.shape[1])
    assert len(pairs) == 4
    for _, v in pairs:
        assert np.max(np.abs(v[:4])) <= 1e-12


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
    assert [p for p, _ in _eliminate(w.vectors, needed=3)] == [2, 1, 0]
    tree, _ = build_echelon_tree(w, BranchingSpec((0.6,)))
    assert verify_echelon(tree).ok
    assert [n.index for n in tree.tree.nodes_postorder()] == [(2,), (1,), (0,)]


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
    parents = [tree.tree.children] + [n.children for n in tree.tree.nodes_postorder() if n.children]
    for children in parents:
        k = children[0].level
        assert len(children) >= math.ceil(alphas[k - 1] * dims[k - 1])
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


def test_leaf_tensors_own_their_buffers():
    w = random_subspace((4, 4, 4), 56, seed=5)
    tree, _ = build_echelon_tree(w, BranchingSpec((0.5, 0.5, 0.5)))
    leaves = [t.data for t in tree.leaf_tensors.values()]
    for i, a in enumerate(leaves):
        root = a
        while root.base is not None:
            root = root.base
        assert root.nbytes == a.nbytes  # no larger block kept alive
        for b in leaves[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_build_is_deterministic():
    w = random_subspace((3, 3, 3), 20, seed=11)
    t1, _ = build_echelon_tree(w, BranchingSpec((1 / 3, 1 / 3, 1 / 3)))
    t2, _ = build_echelon_tree(w, BranchingSpec((1 / 3, 1 / 3, 1 / 3)))
    assert json.dumps(t1.to_json_dict()) == json.dumps(t2.to_json_dict())


# --- verifier ---------------------------------------------------------------


def test_verify_catches_echelon_violation():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    bad = dict(tree.leaf_tensors)
    data = bad[(1, 1)].data.copy()
    data[0, 0] = 0.5  # nonzero at an earlier leaf's index
    bad[(1, 1)] = Tensor(data)
    report = verify_echelon(EchelonTree(tree.tree, bad))
    assert not report.ok
    assert any("before pivot" in v.kind for v in report.violations)


def test_verify_catches_dead_pivot():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    bad = dict(tree.leaf_tensors)
    data = bad[(0, 0)].data.copy()
    data[0, 0] = 0.0
    bad[(0, 0)] = Tensor(data)
    report = verify_echelon(EchelonTree(tree.tree, bad))
    assert not report.ok
    assert any("pivot below" in v.kind for v in report.violations)


def _reference_verify(t, tolerance=1e-9):
    order = list(t.tree.nodes_postorder())
    violations = []
    for pos, node in enumerate(order):
        if not node.is_leaf():
            continue
        data = t.leaf_tensors[node.index].data
        pivot_val = abs(float(data[node.index]))
        if not pivot_val > tolerance:
            violations.append(("pivot below tolerance", node.index, None, pivot_val))
        for j_node in order[:pos]:
            worst = float(np.max(np.abs(data[j_node.index])))
            if worst > tolerance:
                violations.append(("nonzero before pivot", node.index, j_node.index, worst))
    return violations


def test_verify_matches_slice_by_slice_reference():
    w = random_subspace((3, 3, 3), 20, seed=11)
    tree, _ = build_echelon_tree(w, BranchingSpec((1 / 3, 1 / 3, 1 / 3)))
    rng = generator(18, "tamper")
    bad = {}
    for idx, t in tree.leaf_tensors.items():
        data = t.data.copy()
        hit = rng.random(data.shape) < 0.1
        data[hit] += rng.uniform(-1e-6, 1e-6, size=int(hit.sum()))
        data[idx] *= rng.choice([1.0, 0.0], p=[0.8, 0.2])
        bad[idx] = Tensor(data)
    tampered = EchelonTree(tree.tree, bad)
    report = verify_echelon(tampered)
    got = [(v.kind, v.node, v.against, v.value) for v in report.violations]
    want = _reference_verify(tampered)
    assert want and not report.ok
    assert got == want


def test_tree_json_uses_one_based_indices():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    obj = tree.to_json_dict()
    assert obj["tree"][0]["index"] == [1]
    back = EchelonTree.from_json_dict(obj)
    assert set(back.leaf_tensors) == set(tree.leaf_tensors)
    for k in tree.leaf_tensors:
        np.testing.assert_array_equal(back.leaf_tensors[k].data, tree.leaf_tensors[k].data)


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


# --- reduction and certificates ---------------------------------------------


def test_reduce_full_tree_hand_example():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    red = reduce_tree(tree, np.array([1.0, 0.0]))
    assert red.height == 1
    np.testing.assert_allclose(red.leaf_tensors[(0,)].data, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(red.leaf_tensors[(1,)].data, [0.0, 1.0], atol=1e-12)
    assert largeness(red) == 1.0


def test_reduce_zero_direction_gives_zero_largeness():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    red = reduce_tree(tree, np.zeros(2))
    assert largeness(red) == 0.0


def test_reduce_rejects_height_one():
    w = SubspaceBasis((2, 2), np.eye(4))
    tree, _ = build_echelon_tree(w, BranchingSpec((1.0, 1.0)))
    flat = collapse(tree, 0)
    with pytest.raises(ValueError):
        reduce_tree(flat, np.zeros(4))


def test_successive_reduce_matches_multilinear_eval():
    w = random_subspace((3, 3, 3), 20, seed=14)
    tree, _ = build_echelon_tree(w, BranchingSpec((1 / 3, 1 / 3, 1 / 3)))
    rng = generator(15, "chi")
    chis = [rng.standard_normal(3) for _ in range(3)]
    red = reduce_tree(reduce_tree(tree, chis[2]), chis[1])
    for idx, t in red.leaf_tensors.items():
        origin = red.origin_of(idx)
        val = float(t.data @ chis[0])
        direct = float(np.einsum("ijk,i,j,k->", tree.leaf_tensors[origin].data, *chis))
        assert val == pytest.approx(direct, abs=1e-12)


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

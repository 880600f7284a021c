import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import svdvals
from scipy.optimize import nnls

from venndec.perturb import BitFlip, MembershipMatrix, perturb_memberships
from venndec.rng import generator
from venndec.tensor import Tensor, outer
from venndec.venn import (
    MeasurementTensor,
    Region,
    VennDiagram,
    add_measurement_noise,
    diagram_diff,
    intersection_tensor,
    _refit_weights,
    _symmetrize,
    rank_detect,
    reconstruct,
)


def random_diagram(n, m, seed):
    """m distinct nonzero patterns with weights in [0.5, 2]."""
    rng = generator(seed, "diagram")
    seen = set()
    while len(seen) < m:
        p = tuple(int(b) for b in rng.integers(0, 2, size=n))
        if any(p):
            seen.add(p)
    ws = rng.uniform(0.5, 2.0, size=m)
    return VennDiagram(n, tuple(Region(p, w) for p, w in zip(sorted(seen), ws)))


# --- diagram model ------------------------------------------------------------


def test_region_validation():
    # entries are checked before int(), which would truncate 0.7 to 0
    for bad in ((1, 2), (0.7, 1), (1, float("inf")), (float("nan"), 0), (-1, 0), ("1", 0)):
        with pytest.raises(ValueError, match="0/1"):
            Region(bad, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        Region((1, 0), -0.5)
    with pytest.raises(ValueError):
        Region((1,), float("nan"))
    for ok in ((1.0, 0.0), (True, False), (np.float64(1.0), np.int64(0))):
        r = Region(ok, 1.0)
        assert r.pattern == (1, 0)
        assert all(type(b) is int for b in r.pattern)


def test_diagram_validation():
    with pytest.raises(ValueError, match="duplicate"):
        VennDiagram(2, (Region((1, 0), 1.0), Region((1, 0), 2.0)))
    with pytest.raises(ValueError, match="length"):
        VennDiagram(3, (Region((1, 0), 1.0),))
    with pytest.raises(ValueError):
        VennDiagram(0, ())


def test_from_columns_merges_duplicates():
    # columns are (1,1,0), (0,0,1), (1,1,0): first and last collide
    x = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 0]]).T
    with pytest.raises(ValueError, match="duplicate"):
        VennDiagram.from_columns(x, weights=[1.0, 2.0, 3.0])
    v = VennDiagram.from_columns(x, weights=[1.0, 2.0, 3.0], merge_duplicates=True)
    assert v.m == 2
    got = {r.pattern: r.weight for r in v.regions}
    assert got[(1, 1, 0)] == pytest.approx(4.0)
    assert got[(0, 0, 1)] == pytest.approx(2.0)


def test_from_columns_default_unit_weights():
    v = VennDiagram.from_columns(np.array([[1.0], [0.0]]))
    assert v.regions[0].weight == 1.0
    with pytest.raises(ValueError, match="0/1"):
        VennDiagram.from_columns(np.array([[0.5], [0.0]]))


def test_diagram_json_roundtrip():
    v = random_diagram(6, 4, seed=0)
    back = VennDiagram.from_json_dict(v.to_json_dict())
    assert diagram_diff(v, back).exact_match


# --- intersection tensors -------------------------------------------------------


def test_intersection_tensor_hand_example():
    v = VennDiagram(2, (Region((1, 0), 2.0), Region((1, 1), 3.0)))
    t = intersection_tensor(v, 2)
    np.testing.assert_allclose(t.tensor.data, [[5.0, 3.0], [3.0, 3.0]])


def test_intersection_tensor_entry_formula():
    v = random_diagram(5, 4, seed=1)
    t = intersection_tensor(v, 3)
    X, w = v.columns(), v.weights()
    for idx in ((0, 1, 2), (4, 4, 0), (3, 3, 3)):
        expected = float(np.sum(w * X[idx[0]] * X[idx[1]] * X[idx[2]]))
        assert t.tensor.data[idx] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("ell", [1, 13])
def test_intersection_tensor_any_order_matches_outer_products(ell):
    v = VennDiagram(2, (Region((1, 0), 2.0), Region((1, 1), 3.0), Region((0, 1), 0.5)))
    want = np.zeros((2,) * ell)
    for r in v.regions:
        want += r.weight * outer([np.array(r.pattern, dtype=float)] * ell).data
    np.testing.assert_allclose(intersection_tensor(v, ell).tensor.data, want, rtol=1e-15)


def test_intersection_tensor_empty_diagram():
    t = intersection_tensor(VennDiagram(4, ()), 3)
    np.testing.assert_array_equal(t.tensor.data, np.zeros((4, 4, 4)))


def test_measurement_tensor_validation():
    with pytest.raises(ValueError, match="cubic"):
        MeasurementTensor(Tensor(np.zeros((2, 3))))
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        MeasurementTensor(Tensor(asym))
    MeasurementTensor(Tensor(asym), epsilon_inf=0.5)  # within the noise allowance
    with pytest.raises(ValueError, match="nonnegative"):
        MeasurementTensor(Tensor(np.zeros((2, 2))), epsilon_inf=-0.1)


def test_add_measurement_noise():
    v = random_diagram(5, 3, seed=2)
    t = intersection_tensor(v, 3)
    assert add_measurement_noise(t, 0.0) is t
    noisy = add_measurement_noise(t, 1e-3, seed=4)
    delta = noisy.tensor.data - t.tensor.data
    assert np.max(np.abs(delta)) <= 1e-3
    assert np.max(np.abs(delta)) > 0.0
    assert noisy.epsilon_inf == pytest.approx(1e-3)
    np.testing.assert_allclose(delta, np.swapaxes(delta, 0, 2), atol=1e-15)
    again = add_measurement_noise(t, 1e-3, seed=4)
    np.testing.assert_array_equal(noisy.tensor.data, again.tensor.data)
    with pytest.raises(ValueError):
        add_measurement_noise(t, -1.0)


def permutation_average(x):
    """Reference: the mean of all ell! axis transposes of x."""
    out = np.zeros_like(x)
    for perm in itertools.permutations(range(x.ndim)):
        out += np.transpose(x, perm)
    return out / math.factorial(x.ndim)


@pytest.mark.parametrize("n, ell", [(7, 3), (6, 4), (5, 5), (4, 6)])
def test_symmetrize_matches_permutation_average(n, ell):
    x = generator(ell, "symmetrize").uniform(-1.0, 1.0, size=(n,) * ell)
    before = x.copy()
    got = _symmetrize(x)
    np.testing.assert_array_equal(x, before)
    # the same average summed in another order: a few ulps of unit noise apart
    np.testing.assert_allclose(got, permutation_average(x), rtol=0, atol=64 * np.finfo(float).eps)
    MeasurementTensor(Tensor(got))  # symmetric within the check's 1e-9 * max|T|


def test_rank_detect():
    assert rank_detect(Tensor(np.zeros((3, 3, 3))), 5) == 0
    v = random_diagram(8, 4, seed=3)
    t = intersection_tensor(v, 3).tensor
    assert rank_detect(t, 8) == 4
    assert rank_detect(t, 2) == 2  # cap applies
    with pytest.raises(ValueError):
        rank_detect(t, 0)


@pytest.mark.parametrize("seed", range(6))
def test_rank_detect_matches_svd_count(seed):
    # the count of singular values of the mode-1 unfolding above 1e-6 of the
    # largest, on spectra with no singular value within 100x of that cutoff
    n, ell = 6 + seed, 3 + seed % 2
    m = int(generator(seed, "rank-detect").integers(1, n + 1))
    t = intersection_tensor(random_diagram(n, m, seed=seed), ell)
    t = add_measurement_noise(t, 1e-10 if seed % 2 else 0.0, seed=seed).tensor
    s = svdvals(t.data.reshape(n, -1))
    assert np.all((s > 1e-4 * s[0]) | (s < 1e-8 * s[0])), s / s[0]
    assert rank_detect(t, n) == int(np.sum(s > 1e-6 * s[0]))


# --- reconstruction -------------------------------------------------------------


def test_reconstruct_single_region():
    v = VennDiagram(12, (Region((1, 0) * 6, 5.0),))
    got = reconstruct(intersection_tensor(v, 3))
    assert diagram_diff(v, got).exact_match


def test_reconstruct_empty_diagram():
    got = reconstruct(intersection_tensor(VennDiagram(12, ()), 3))
    assert got.m == 0


def test_reconstruct_few_regions_roundtrip():
    # 4 regions over 18 sets: well below the n-row rank cap
    v = random_diagram(18, 4, seed=5)
    got = reconstruct(intersection_tensor(v, 3), m_max=6)
    d = diagram_diff(v, got)
    assert d.exact_match, d.to_json_dict()


def test_reconstruct_more_regions_roundtrip():
    # 8 regions over 18 sets: each set holds parts of several regions
    v = random_diagram(18, 8, seed=6)
    got = reconstruct(intersection_tensor(v, 3), m_max=8)
    d = diagram_diff(v, got)
    assert d.exact_match, d.to_json_dict()


def test_reconstruct_order4_cyclic_blocks_roundtrip():
    # n=12, ell=4: region r holds coordinate (r + k) mod 3 of each block k of
    # three coordinates; the fourth region fills two of every three
    patterns = [tuple(int(i % 3 == (r + i // 3) % 3) for i in range(12)) for r in range(3)]
    patterns.append((1, 1, 0) * 4)
    for m in (3, 4):
        v = VennDiagram(12, tuple(Region(p, 1.0 + r) for r, p in enumerate(patterns[:m])))
        got = reconstruct(intersection_tensor(v, 4), m_max=m)
        d = diagram_diff(v, got)
        assert d.exact_match, d.to_json_dict()


@pytest.mark.parametrize(
    "ell, patterns, weights",
    [
        # the first pattern is zero on the coordinates {0, 1}
        (3, ((0, 0, 0, 1, 0), (0, 1, 0, 1, 1)), (1.0, 2.0)),
        # the diagram of CLI `gen --n 12 --m 4 --seed 5`; the first pattern is
        # zero on the coordinates {3, 4, 5}
        (
            5,
            (
                (0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1),
                (0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0),
                (1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0),
                (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1),
            ),
            (1.0, 1.0, 1.0, 1.0),
        ),
    ],
)
def test_reconstruct_patterns_zero_on_a_coordinate_block(ell, patterns, weights):
    # restricted to ell disjoint coordinate blocks, a pattern that is zero on
    # one block loses its term; the whole tensor keeps every region
    v = VennDiagram(len(patterns[0]), tuple(Region(p, w) for p, w in zip(patterns, weights)))
    got = reconstruct(intersection_tensor(v, ell), m_max=len(patterns))
    d = diagram_diff(v, got)
    assert d.exact_match, d.to_json_dict()


def test_reconstruct_rejects_rounding_ambiguity():
    chi = np.array([1.0, 0.5, 1.0, 1.0])
    data = 2.0 * np.einsum("i,j,k->ijk", chi, chi, chi)
    with pytest.raises(ValueError, match="ambiguity"):
        reconstruct(MeasurementTensor(Tensor(data)), m_max=1)


@pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), 0.5, 1.0])
def test_reconstruct_rejects_tol_outside_zero_to_half(tol):
    v = random_diagram(18, 4, seed=5)
    with pytest.raises(ValueError, match="rounding tolerance"):
        reconstruct(intersection_tensor(v, 3), m_max=6, tol=tol)


def test_reconstruct_accepts_zero_tol():
    v = random_diagram(18, 4, seed=5)
    assert diagram_diff(v, reconstruct(intersection_tensor(v, 3), m_max=6, tol=0.0)).exact_match


def test_reconstruct_rejects_low_order_and_bad_m_max():
    v = random_diagram(4, 2, seed=7)
    with pytest.raises(ValueError, match="order"):
        reconstruct(intersection_tensor(v, 2))
    with pytest.raises(ValueError, match="m_max"):
        reconstruct(intersection_tensor(random_diagram(6, 2, seed=8), 3), m_max=0)
    with pytest.raises(ValueError, match="default m_max is 0 at n=5, ell=3; pass m_max"):
        reconstruct(intersection_tensor(random_diagram(5, 2, seed=8), 3))


def test_reconstruct_noisy_weights_close():
    v = random_diagram(18, 3, seed=9)
    noisy = add_measurement_noise(intersection_tensor(v, 3), 1e-8, seed=10)
    got = reconstruct(noisy, m_max=3)
    d = diagram_diff(v, got)
    assert not d.only_in_first and not d.only_in_second
    assert d.weight_l1 <= 1e-4


@pytest.mark.parametrize("n, ell, m", [(8, 6, 6), (6, 7, 4)])
def test_reconstruct_roundtrip_at_order_six_and_seven(n, ell, m):
    # the halves grouping splits a three-mode block at ell >= 6
    for seed in range(3):
        v = random_diagram(n, m, seed=100 + seed)
        assert np.linalg.matrix_rank(v.columns()) == m
        got = reconstruct(intersection_tensor(v, ell), m_max=m)
        d = diagram_diff(v, got)
        assert d.exact_match, (seed, d.to_json_dict())


def test_reconstruct_refuses_a_rank_deficient_roundtrip_draw():
    # the first draw of a roundtrip trial at criterion 07's shape (n=30,
    # ell=3, m=20, bit-flip q=0.2) that perfbench's roundtrip-l3 makes at
    # seed 0, op 906: its 20 patterns span only 19 dimensions, so the tensor
    # has rank 19 and no 19-term decomposition holds all 20 regions
    n, ell, m = 30, 3, 20
    x = perturb_memberships(MembershipMatrix(np.ones((n, m)), n), BitFlip(0.2), 8176829476780468043)
    truth = VennDiagram.from_columns(x.X, merge_duplicates=True)
    assert truth.m == m
    assert np.linalg.matrix_rank(truth.columns()) == m - 1
    t = intersection_tensor(truth, ell)
    assert rank_detect(t.tensor, m) == m - 1
    with pytest.raises(ValueError, match="closing check failed"):
        reconstruct(t, m_max=m)


@pytest.mark.parametrize("eps", [1e-2, 1e-1])
def test_reconstruct_under_noise_is_right_or_raises(eps):
    # criterion 07's shape at noise levels where the decomposition often lands
    # on wrong patterns: every trial must return the true patterns or raise
    n, ell, m = 30, 3, 20
    for trial in range(10):
        seed = 17000 + trial
        x = perturb_memberships(MembershipMatrix(np.ones((n, m)), n), BitFlip(0.2), seed)
        truth = VennDiagram.from_columns(x.X, merge_duplicates=True)
        noisy = add_measurement_noise(intersection_tensor(truth, ell), eps, seed=seed)
        try:
            got = reconstruct(noisy, m_max=m, seed=seed)
        except ValueError:
            continue
        d = diagram_diff(truth, got)
        assert not d.only_in_first and not d.only_in_second, (trial, d.to_json_dict())


def dense_refit(data, X):
    """NNLS on the n^ell x m design of chi_r^(x ell) columns: the reference
    for the Gram-form refit."""
    cols = []
    for chi in X.T:
        col = chi
        for _ in range(data.ndim - 1):
            col = np.multiply.outer(col, chi)
        cols.append(col.ravel())
    M = np.column_stack(cols)
    return M, nnls(M, data.ravel())[0]


def signed_tensor(X, w, ell, rng):
    """sum_r w_r chi_r^(x ell) plus dense noise; negative w_r make the
    nonnegativity constraint bind."""
    letters = "abcd"[:ell]
    data = np.einsum(",".join(f"{c}r" for c in letters) + ",r->" + letters, *([X] * ell), w)
    return data + 1e-3 * rng.standard_normal(data.shape)


@given(st.integers(0, 10_000))
def test_refit_weights_match_dense_nnls(seed):
    rng = generator(seed, "refit")
    n, ell = int(rng.integers(3, 8)), int(rng.integers(3, 5))
    m = int(rng.integers(1, min(8, 2**n - 1) + 1))
    X = random_diagram(n, m, seed).columns()
    data = signed_tensor(X, rng.uniform(-1.0, 2.0, size=m), ell, rng)
    M, want = dense_refit(data, X)
    assert np.linalg.matrix_rank(M) == m  # singular Grams: see the next test
    got = _refit_weights(data, X)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [4, 5])
def test_refit_weights_singular_gram_reaches_dense_objective(n):
    # all nonzero patterns on n sets: their cubes span only the
    # C(n,1) + C(n,2) + C(n,3) dimensions of degree <= 3 monomials (14 of 15
    # at n=4, 25 of 31 at n=5), so the minimizer is not unique and only the
    # objective is compared
    X = np.array(list(itertools.product((0.0, 1.0), repeat=n))[1:]).T
    m = X.shape[1]
    M, _ = dense_refit(np.zeros((n, n, n)), X)
    assert np.linalg.matrix_rank(M) == sum(math.comb(n, k) for k in (1, 2, 3)) < m
    for seed in range(5):
        rng = generator(seed, "refit-singular")
        data = signed_tensor(X, rng.uniform(-1.0, 2.0, size=m), 3, rng)
        _, want = dense_refit(data, X)
        got = _refit_weights(data, X)
        assert np.all(got >= 0.0)
        t = data.ravel()
        assert np.linalg.norm(M @ got - t) == pytest.approx(np.linalg.norm(M @ want - t), rel=1e-9, abs=1e-12)


# --- diffs ----------------------------------------------------------------------


def test_diagram_diff_cases():
    a = VennDiagram(2, (Region((1, 0), 1.0), Region((0, 1), 2.0)))
    b = VennDiagram(2, (Region((1, 0), 1.0), Region((1, 1), 3.0)))
    d = diagram_diff(a, b)
    assert not d.exact_match
    assert d.only_in_first == ((0, 1),)
    assert d.only_in_second == ((1, 1),)
    assert d.weight_l1 == pytest.approx(5.0)

    c = VennDiagram(2, (Region((1, 0), 1.0 + 1e-9), Region((0, 1), 2.0)))
    assert diagram_diff(a, c).exact_match  # weights within tolerance
    assert not diagram_diff(a, c, weight_tol=1e-12).exact_match

    with pytest.raises(ValueError, match="set count"):
        diagram_diff(a, VennDiagram(3, ()))


def test_diagram_diff_json():
    a = VennDiagram(1, (Region((1,), 1.0),))
    obj = diagram_diff(a, VennDiagram(1, ())).to_json_dict()
    assert obj == {
        "exact_match": False,
        "weight_l1": 1.0,
        "only_in_first": [[1]],
        "only_in_second": [],
    }

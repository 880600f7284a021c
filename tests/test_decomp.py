import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import pinv, subspace_angles, svdvals

from venndec import decomp
from venndec.decomp import (
    _als_refit,
    _group_for_jennrich,
    _leading_subspace,
    condition_report,
    factor_rank_one,
    jennrich,
    leave_one_out_distances,
    recover_rank_one_terms,
)
from venndec.perturb import BitFlip, MembershipMatrix, perturb_memberships
from venndec.rng import generator
from venndec.tensor import Tensor, outer
from venndec.venn import VennDiagram, add_measurement_noise, intersection_tensor


def random_terms(rng, dims, m):
    """Ground-truth unit factors and scales, reasonably separated."""
    factors = [rng.standard_normal((n, m)) for n in dims]
    for f in factors:
        f /= np.linalg.norm(f, axis=0)
    scales = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
    data = np.zeros(dims)
    for j in range(m):
        data += scales[j] * outer([f[:, j] for f in factors]).data
    return factors, scales, Tensor(data)


def match_terms(result, true_factors, true_scales):
    """Greedy pairing of recovered terms to ground truth by first factor."""
    m = len(true_scales)
    used = set()
    pairs = []
    for j in range(m):
        best, best_dot = None, -1.0
        for i, term in enumerate(result.terms):
            if i in used:
                continue
            d = abs(float(term.factors[0] @ true_factors[0][:, j]))
            if d > best_dot:
                best, best_dot = i, d
        used.add(best)
        pairs.append((j, result.terms[best]))
    return pairs


def test_jennrich_diagonal_example():
    data = np.zeros((3, 3, 3))
    data[0, 0, 0] = 1.0
    data[1, 1, 1] = 2.0
    result = jennrich(Tensor(data), 2, seed=0)
    assert result.rank == 2
    # sorted by descending |scale|
    assert result.terms[0].scale == pytest.approx(2.0, abs=1e-9)
    assert result.terms[1].scale == pytest.approx(1.0, abs=1e-9)
    for f in result.terms[0].factors:
        np.testing.assert_allclose(f, [0.0, 1.0, 0.0], atol=1e-9)
    for f in result.terms[1].factors:
        np.testing.assert_allclose(f, [1.0, 0.0, 0.0], atol=1e-9)
    assert result.recon_residual <= 1e-9


def test_jennrich_rank_one_roundtrip():
    rng = generator(1, "rank1")
    factors, scales, t = random_terms(rng, (4, 5, 6), 1)
    result = jennrich(t, 1, seed=3)
    term = result.terms[0]
    np.testing.assert_allclose(term.tensor().data, t.data, atol=1e-8)
    assert abs(abs(term.scale) - abs(scales[0])) <= 1e-8
    assert result.recon_residual <= 1e-8


def test_jennrich_random_instances_match_truth():
    n, m = 8, 6
    for trial in range(10):
        rng = generator(trial, "matched")
        factors, scales, t = random_terms(rng, (n, n, n), m)
        result = jennrich(t, m, seed=trial)
        assert result.rank == m
        for j, term in match_terms(result, factors, scales):
            truth = scales[j] * outer([f[:, j] for f in factors]).data
            rel = np.linalg.norm(term.tensor().data - truth) / np.linalg.norm(truth)
            assert rel <= 1e-6, f"trial {trial} term {j}: rel err {rel:.2e}"
        assert result.recon_residual <= 1e-6 * np.linalg.norm(t.data)


def test_jennrich_residual_tracks_noise():
    rng = generator(2, "noise")
    _, _, t = random_terms(rng, (6, 6, 6), 2)
    noise = rng.standard_normal(t.dims)
    noise /= np.linalg.norm(noise)
    res = []
    for eps in (0.0, 1e-8, 1e-4):
        noisy = Tensor(t.data + eps * noise)
        res.append(jennrich(noisy, 2, seed=5).recon_residual)
    assert res[0] <= 1e-10
    assert res[1] <= res[2]
    assert res[2] <= 10.0 * 1e-4


def test_jennrich_residual_is_zero_on_an_exact_real_tensor():
    rng = generator(6, "real-pencil")
    _, _, t = random_terms(rng, (7, 6, 5), 4)
    result = jennrich(t, 4, seed=1)
    assert result.max_residual == 0.0
    assert all(term.residual == 0.0 for term in result.terms)


def test_jennrich_residual_flags_a_tensor_without_a_real_rank_two_fit():
    # slices I and a 90-degree rotation: the pencil's eigenvalues are +-i, so
    # no real a_j, b_j diagonalize it
    data = np.zeros((2, 2, 2))
    data[:, :, 0] = np.eye(2)
    data[:, :, 1] = [[0.0, -1.0], [1.0, 0.0]]
    result = jennrich(Tensor(data), 2, seed=0)
    assert result.max_residual > 0.1
    assert all(term.residual > 0.1 for term in result.terms)


def test_jennrich_scale_invariance():
    rng = generator(3, "scaleinv")
    _, _, t = random_terms(rng, (5, 5, 5), 3)
    base = jennrich(t, 3, seed=7)
    scaled = jennrich(Tensor(3.0 * t.data), 3, seed=7)
    for a, b in zip(base.terms, scaled.terms):
        assert b.scale / a.scale == pytest.approx(3.0, rel=1e-8)
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_allclose(fa, fb, atol=1e-8)


def test_jennrich_detects_eigenvalue_collision():
    rng = generator(4, "collide")
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal((5, 2))
    c = rng.standard_normal(5)
    data = np.einsum("i,j,k->ijk", a[:, 0], b[:, 0], c)
    data += np.einsum("i,j,k->ijk", a[:, 1], b[:, 1], c)
    with pytest.raises(ValueError, match="colliding"):
        jennrich(Tensor(data), 2, seed=0)


def test_jennrich_rank_bounds():
    t = Tensor(np.ones((3, 4, 5)))
    with pytest.raises(ValueError, match="rank"):
        jennrich(t, 4)
    with pytest.raises(ValueError):
        jennrich(t, 0)
    with pytest.raises(ValueError, match="order"):
        jennrich(Tensor(np.ones((3, 3))), 1)


def test_jennrich_recovers_terms_across_four_decades_of_scale():
    # the Gram compression squares the singular values of each unfolding:
    # scales down to 1e-4 put their Gram eigenvalues at 1e-8, far above eps
    n, m = 8, 6
    for trial in range(20):
        rng = generator(trial, "decades")
        factors, signs, _ = random_terms(rng, (n, n, n), m)
        scales = np.logspace(0, -4, m) * np.sign(signs)
        data = sum(scales[j] * outer([f[:, j] for f in factors]).data for j in range(m))
        result = jennrich(Tensor(data), m, seed=trial)
        for j, term in match_terms(result, factors, scales):
            truth = scales[j] * outer([f[:, j] for f in factors]).data
            rel = np.linalg.norm(term.tensor().data - truth) / np.linalg.norm(truth)
            assert rel <= 1e-6, f"trial {trial} term {j} (scale {scales[j]:.0e}): rel err {rel:.2e}"


def test_gram_compression_spans_the_svd_subspace_on_a_roundtrip_tensor():
    # criterion 07's trial shape: n=30, ell=3, m=20 columns, bit-flip q=0.2
    n = 30
    x = perturb_memberships(MembershipMatrix(np.ones((n, 20)), n), BitFlip(0.2), 7)
    truth = VennDiagram.from_columns(x.X, merge_duplicates=True)
    data = add_measurement_noise(intersection_tensor(truth, 3), 1e-8, seed=7).tensor.data
    m = len(truth.regions)
    for unf in (data.reshape(n, -1), np.moveaxis(data, 1, 0).reshape(n, -1)):
        gram_basis = _leading_subspace(unf @ unf.T, m)
        svd_basis = np.linalg.svd(unf, full_matrices=False)[0][:, :m]
        np.testing.assert_allclose(gram_basis.T @ gram_basis, np.eye(m), atol=1e-12)
        assert float(np.max(subspace_angles(gram_basis, svd_basis))) <= 1e-9


def test_als_polish_stops_within_a_few_rounds_from_a_jennrich_start():
    # well short of the 40-round cap: most stop after 4-5 rounds, the
    # slowest of these 12 after 8
    rounds = []
    for seed in range(12):
        rng = generator(seed, "polish-stop")
        _, _, t = random_terms(rng, (30, 30, 30), 20)
        noisy = Tensor(t.data + 1e-6 * rng.standard_normal(t.dims))
        result = jennrich(noisy, 20, seed=seed)
        assert result.recon_residual <= 1e-3
        rounds.append(result.polish_rounds)
    assert max(rounds) <= 10, rounds
    assert np.median(rounds) <= 6, rounds


@pytest.mark.parametrize("dims, decompose", [((7, 8, 9), jennrich), ((5, 6, 5, 6), recover_rank_one_terms)])
def test_recon_residual_matches_dense_sum_of_terms(dims, decompose):
    rng = generator(4, "recon")
    _, _, t = random_terms(rng, dims, 4)
    noisy = Tensor(t.data + 1e-4 * rng.standard_normal(dims))
    result = decompose(noisy, 4, seed=2)
    dense = float(np.linalg.norm(noisy.data - sum(term.tensor().data for term in result.terms)))
    assert dense > 1e-3  # the noise leaves a misfit
    assert result.recon_residual == pytest.approx(dense, rel=1e-9)


def test_als_polish_keeps_going_from_a_poor_start():
    # starts 0.3 off the true factors: each round still cuts the residual by
    # far more than the stall fraction, so the polish runs on to the noise
    # floor (about 3e-7 here) instead of stopping after a few rounds.  Seed 0
    # stalls for one round at 0.64 (a 4 % cut) and stops there; seeds 9 and
    # 16 creep and reach the 40-round cap above 1e-6
    converged = 0
    for seed in range(20):
        rng = generator(seed, "poor")
        factors, _, t = random_terms(rng, (10, 10, 10), 4)
        data = t.data + 1e-8 * rng.standard_normal(t.dims)
        A, B = (f + 0.3 * rng.standard_normal(f.shape) for f in factors[:2])
        *fitted, rounds = _als_refit(data, A, B)
        converged += rounds > 10 and fit_residual(data, *fitted) <= 1e-6
    assert converged >= 17


def als_refit_lstsq(data, A, B, max_rounds=40):
    """The ALS polish with each update as a tall least-squares solve, kept
    as the reference for the Gram-form updates; it reads the same stall
    fraction as the polish."""
    n1, n2, n3 = data.shape

    def normalized(M):
        norms = np.linalg.norm(M, axis=0)
        return M / np.where(norms > 0, norms, 1.0)

    X3 = data.reshape(n1 * n2, n3)
    kr_ab = np.einsum("ir,jr->ijr", A, B).reshape(n1 * n2, -1)
    C = np.linalg.lstsq(kr_ab, X3, rcond=1e-12)[0]
    prev = float(np.linalg.norm(X3 - kr_ab @ C))
    for _ in range(max_rounds):
        kr_bc = np.einsum("jr,kr->jkr", B, C.T).reshape(n2 * n3, -1)
        A = normalized(np.linalg.lstsq(kr_bc, data.reshape(n1, -1).T, rcond=1e-12)[0].T)
        kr_ac = np.einsum("ir,kr->ikr", A, C.T).reshape(n1 * n3, -1)
        unf2 = np.moveaxis(data, 1, 0).reshape(n2, -1)
        B = normalized(np.linalg.lstsq(kr_ac, unf2.T, rcond=1e-12)[0].T)
        kr_ab = np.einsum("ir,jr->ijr", A, B).reshape(n1 * n2, -1)
        C = np.linalg.lstsq(kr_ab, X3, rcond=1e-12)[0]
        res = float(np.linalg.norm(X3 - kr_ab @ C))
        if res >= prev * (1.0 - decomp._ALS_STALL):
            break
        prev = res
    return A, B, C


def fit_residual(data, A, B, C):
    kr_ab = np.einsum("ir,jr->ijr", A, B).reshape(A.shape[0] * B.shape[0], -1)
    return float(np.linalg.norm(data.reshape(kr_ab.shape[0], -1) - kr_ab @ C))


def test_als_refit_rank_deficient_khatri_rao_matches_lstsq():
    # starting factors with one (a, b) column pair duplicated: the Khatri-Rao
    # matrix, and so every Hadamard-product Gram, is singular in every round
    rng = generator(11, "als-dup")
    factors, _, t = random_terms(rng, (6, 7, 8), 3)
    data = t.data + 1e-6 * rng.standard_normal(t.dims)
    start = [f + 1e-3 * rng.standard_normal(f.shape) for f in factors[:2]]
    A, B = (f[:, [0, 1, 1]] for f in start)
    assert np.linalg.matrix_rank(np.einsum("ir,jr->ijr", A, B).reshape(42, 3)) == 2

    *got, _ = _als_refit(data, A, B)
    want = als_refit_lstsq(data, A, B)
    assert all(np.all(np.isfinite(x)) for x in got)
    assert fit_residual(data, *got) == pytest.approx(fit_residual(data, *want), rel=1e-6)


# --- grouping ---------------------------------------------------------------


def test_group_halves_order3_is_identity():
    t = Tensor(np.arange(24.0).reshape(2, 3, 4))
    gt, sizes = _group_for_jennrich(t)
    assert gt.dims == (2, 3, 4)
    assert sizes == (1, 1, 1)
    np.testing.assert_array_equal(gt.data, t.data)


def test_group_halves_order5():
    t = Tensor(np.zeros((2, 3, 4, 5, 6)))
    gt, sizes = _group_for_jennrich(t)
    assert sizes == (2, 2, 1)
    assert gt.dims == (6, 20, 6)


def test_group_rejects_low_order_and_bad_scheme():
    with pytest.raises(ValueError, match="order"):
        _group_for_jennrich(Tensor(np.zeros((2, 2))))
    # halves is the only grouping: no scheme can be asked for
    with pytest.raises(TypeError, match="scheme"):
        recover_rank_one_terms(Tensor(np.zeros((2, 2, 2, 2))), 1, scheme="thirds")


def test_recover_rejects_more_terms_than_the_grouped_blocks_hold():
    # halves grouping: (3,)*4 -> 9 x 3 x 3 holds 3 terms, (6,)*5 -> 36 x 36 x 6 holds 36
    with pytest.raises(ValueError, match=r"\[1, 3\]"):
        recover_rank_one_terms(Tensor(np.zeros((3,) * 4)), 4)
    with pytest.raises(ValueError, match=r"\[1, 36\]"):
        recover_rank_one_terms(Tensor(np.zeros((6,) * 5)), 37)


def test_recover_order4_roundtrip():
    rng = generator(5, "order4")
    factors, scales, t = random_terms(rng, (4, 4, 4, 4), 3)
    result = recover_rank_one_terms(t, 3, seed=2)
    assert result.rank == 3
    assert all(term.order == 4 for term in result.terms)
    assert result.recon_residual <= 1e-6 * np.linalg.norm(t.data)
    assert result.max_residual <= 1e-6
    assert result.polish_rounds == jennrich(_group_for_jennrich(t)[0], 3, seed=2).polish_rounds
    for j, term in match_terms(result, factors, scales):
        truth = scales[j] * outer([f[:, j] for f in factors]).data
        rel = np.linalg.norm(term.tensor().data - truth) / np.linalg.norm(truth)
        assert rel <= 1e-6


# --- rank-one factorization --------------------------------------------------


def test_factor_rank_one_identity_matrix():
    factors, scale, residual = factor_rank_one(np.eye(2))
    assert scale == pytest.approx(1.0, abs=1e-12)
    assert residual == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert all(np.linalg.norm(f) == pytest.approx(1.0) for f in factors)


def test_factor_rank_one_exact_roundtrip():
    rng = generator(6, "exact")
    vs = [rng.standard_normal(n) for n in (3, 4, 5)]
    R = -2.5 * outer(vs).data
    factors, scale, residual = factor_rank_one(R)
    assert residual <= 1e-10
    np.testing.assert_allclose(scale * outer(factors).data, R, atol=1e-10)


def test_factor_rank_one_rejects_zero():
    with pytest.raises(ValueError, match="zero"):
        factor_rank_one(np.zeros((3, 3)))


# --- conditioning -------------------------------------------------------------


def test_condition_identity():
    rep = condition_report(np.eye(4))
    assert rep.sigma_min == pytest.approx(1.0)
    assert rep.sigma_max == pytest.approx(1.0)
    assert rep.kappa == pytest.approx(1.0)
    assert rep.min_leave_one_out == pytest.approx(1.0)
    assert rep.max_column_norm == pytest.approx(1.0)
    np.testing.assert_allclose(rep.leave_one_out, np.ones(4))


def test_leave_one_out_near_parallel_columns():
    eps = 1e-6
    a = np.array([[1.0, 0.0], [1.0, eps]])
    loo = leave_one_out_distances(a)
    assert float(np.min(loo)) == pytest.approx(eps / math.sqrt(2.0), rel=1e-9)


def test_leave_one_out_sandwiches_sigma_min():
    rng = generator(7, "sandwich")
    for rows, m in ((10, 4), (30, 8), (50, 12)):
        a = rng.standard_normal((rows, m))
        rep = condition_report(a)
        assert rep.sigma_min <= rep.min_leave_one_out + 1e-9
        assert rep.min_leave_one_out <= math.sqrt(m) * rep.sigma_min + 1e-9


def test_condition_c_separation():
    a = np.eye(3)
    c = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    rep = condition_report(a, c=c)
    assert rep.c_separation == pytest.approx(math.sqrt(2.0))
    assert condition_report(a).c_separation is None
    with pytest.raises(ValueError, match="nonzero"):
        condition_report(a, c=np.zeros((3, 2)))


def test_condition_json_fields():
    obj = condition_report(np.eye(2), c=np.eye(2)).to_json_dict()
    assert set(obj) == {"sigma_min", "sigma_max", "kappa", "leave_one_out", "tau", "C"}
    assert obj["tau"] == pytest.approx(math.sqrt(2.0))


def test_leave_one_out_rank_deficient():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # parallel columns
    loo = leave_one_out_distances(a)
    np.testing.assert_allclose(loo, [0.0, 0.0], atol=1e-12)


# --- conditioning from one QR ---------------------------------------------------


def pinv_leave_one_out(a):
    """Reference for full column rank: dist_j = 1 / ||row_j of pinv(A)||."""
    return 1.0 / np.linalg.norm(pinv(a), axis=1)


def scaled_columns(rng, rows, m):
    """Gaussian columns scaled by factors between 1 and 1e4."""
    return rng.standard_normal((rows, m)) * 10.0 ** rng.uniform(0.0, 4.0, size=m)


@given(st.integers(0, 10_000))
def test_qr_conditioning_matches_pinv_and_svdvals(seed):
    rng = generator(seed, "qr-conditioning")
    m = int(rng.integers(1, 13))
    a = scaled_columns(rng, 2 * m + int(rng.integers(0, 25)), m)  # tall, full rank
    rep = condition_report(a)
    want = pinv_leave_one_out(a)
    np.testing.assert_allclose(rep.leave_one_out, want, rtol=1e-9)
    np.testing.assert_allclose(leave_one_out_distances(a), want, rtol=1e-9)
    s = svdvals(a)
    assert rep.sigma_max == pytest.approx(s[0], rel=1e-12)
    assert rep.sigma_min == pytest.approx(s[-1], rel=1e-12)


@given(st.integers(0, 10_000), st.sampled_from(["tall", "square", "wide", "rank-deficient"]))
def test_sandwich_holds_on_every_shape(seed, shape):
    rng = generator(seed, "sandwich-shapes")
    m = int(rng.integers(2, 10))
    if shape == "tall":
        a = scaled_columns(rng, m + int(rng.integers(1, 20)), m)
    elif shape == "square":
        a = scaled_columns(rng, m, m)
    elif shape == "wide":
        a = scaled_columns(rng, int(rng.integers(1, m)), m)
    else:
        r = int(rng.integers(1, m))
        a = rng.standard_normal((m + 5, r)) @ rng.standard_normal((r, m))
    rep = condition_report(a)
    slack = 1e-9 * rep.sigma_max
    assert rep.sigma_min <= rep.min_leave_one_out + slack
    assert rep.min_leave_one_out <= math.sqrt(m) * rep.sigma_min + slack


def test_condition_wide_matrix_has_zero_sigma_min():
    # three columns in the plane: the third singular value is 0, not the
    # second one of the 2 x 3 matrix
    rep = condition_report(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    assert rep.sigma_min == 0.0
    assert rep.sigma_max == pytest.approx(math.sqrt(3.0))
    assert rep.kappa == math.inf
    assert rep.to_json_dict()["kappa"] is None
    np.testing.assert_allclose(rep.leave_one_out, np.zeros(3), atol=1e-12)


def test_conditioning_never_calls_pinv(monkeypatch):
    def no_pinv(*args, **kwargs):
        raise AssertionError("pinv called")

    monkeypatch.setattr(decomp, "pinv", no_pinv)
    a = generator(3, "no-pinv").standard_normal((20, 6))
    want = pinv_leave_one_out(a)
    np.testing.assert_allclose(condition_report(a).leave_one_out, want, rtol=1e-12)
    np.testing.assert_allclose(leave_one_out_distances(a), want, rtol=1e-12)

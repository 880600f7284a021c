import math

import numpy as np
import pytest

from venndec.perturb import (
    BitFlip,
    Gaussian,
    MembershipMatrix,
    NondetParams,
    model_from_json_dict,
    nondet_params,
    perturb_memberships,
)
from venndec.rng import spawn_seed

ERF_HALF = 0.5204998778130465  # erf(0.5), frozen


def test_bitflip_params():
    assert nondet_params(BitFlip(0.2), 8) == NondetParams(0.5, 0.8)
    assert nondet_params(BitFlip(0.5), 8) == NondetParams(0.5, 0.5)


def test_bitflip_params_symmetric_in_q():
    for q in (0.0, 0.1, 0.35):
        assert nondet_params(BitFlip(q), 5) == nondet_params(BitFlip(1.0 - q), 5)


def test_bitflip_validation():
    with pytest.raises(ValueError):
        BitFlip(-0.1)
    with pytest.raises(ValueError):
        BitFlip(1.5)


def test_gaussian_params_erf_oracle():
    params = nondet_params(Gaussian(1.0), 4, delta_request=0.25)
    assert params.delta == 0.25
    assert params.p == pytest.approx(ERF_HALF, abs=1e-15)


def test_gaussian_validation():
    with pytest.raises(ValueError):
        Gaussian(0.0)


def test_perturb_bitflip_statistics():
    n, m, q = 16, 60, 0.3
    base = MembershipMatrix(np.ones((n, m)), n)
    out = perturb_memberships(base, BitFlip(q), seed=5)
    assert out.X.shape == (n, m)
    assert set(np.unique(out.X)) <= {0.0, 1.0}
    flips = np.mean(out.X != base.X)
    sigma = np.sqrt(q * (1 - q) / (n * m))
    assert abs(flips - q) < 5 * sigma
    again = perturb_memberships(base, BitFlip(q), seed=5)
    np.testing.assert_array_equal(out.X, again.X)
    other = perturb_memberships(base, BitFlip(q), seed=6)
    assert not np.array_equal(out.X, other.X)


def test_perturb_gaussian_noise_scale():
    # total variance rho^2 split evenly over the n coordinates of each block
    n, m, rho = 25, 200, 0.8
    base = MembershipMatrix(np.zeros((n, m)), n)
    out = perturb_memberships(base, Gaussian(rho), seed=1)
    sample_std = np.std(out.X)
    assert sample_std == pytest.approx(rho / np.sqrt(n), rel=0.05)


def test_membership_matrix_shape_contract():
    with pytest.raises(ValueError):
        MembershipMatrix(np.ones((7, 3)), 4)  # rows not a multiple of n
    x = MembershipMatrix(np.ones((8, 3)), 4)
    assert x.m == 3


def test_membership_json_roundtrip():
    x = MembershipMatrix(np.eye(4)[:, :2], 4)
    back = MembershipMatrix.from_json_dict(x.to_json_dict())
    assert back.n == 4
    np.testing.assert_array_equal(back.X, x.X)


def test_model_json_roundtrip():
    assert model_from_json_dict({"model": "bitflip", "q": 0.25}) == BitFlip(0.25)
    assert model_from_json_dict({"model": "gaussian", "rho": 2.0}) == Gaussian(2.0)
    with pytest.raises(ValueError):
        model_from_json_dict({"model": "cauchy"})


def bitflip_interval_check(model, x0, delta, trials, seed, p):
    """Monte Carlo check of a bit-flip interval bound: (worst hit rate, passed).

    x0 is perturbed ``trials`` times, and each coordinate's rate of landing in
    (t - delta, t + delta) is counted for centers t = 0, 1 and its mean.  The
    model flips entries independently, so that marginal rate is the
    conditional one the bound is about.  Passes when no rate exceeds p by
    more than three binomial sigmas.
    """
    x = x0.X.ravel()
    centers = np.stack([np.zeros_like(x), np.ones_like(x), x * (1.0 - model.q) + (1.0 - x) * model.q])
    hits = np.zeros(centers.shape, dtype=np.int64)
    for t in range(trials):
        vals = perturb_memberships(x0, model, seed=spawn_seed(seed, "nondet-check", t)).X.ravel()
        hits += np.abs(vals - centers) < delta
    max_rate = float(np.max(hits)) / trials
    slack = 3.0 * math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)
    return max_rate, max_rate <= p + slack


def test_empirical_check_accepts_bitflip():
    base = MembershipMatrix(np.ones((6, 4)), 6)
    p = nondet_params(BitFlip(0.5), base.n, delta_request=0.5).p
    _, passed = bitflip_interval_check(BitFlip(0.5), base, delta=0.5, trials=2000, seed=9, p=p)
    assert passed


def test_empirical_check_flags_deterministic_model():
    # a never-flipping model concentrates all mass at the center
    base = MembershipMatrix(np.ones((6, 4)), 6)
    max_rate, passed = bitflip_interval_check(BitFlip(0.0), base, delta=0.5, trials=1000, seed=9, p=0.6)
    assert not passed
    assert max_rate == 1.0


def test_membership_matrix_owns_its_columns():
    X = np.ones((4, 2))
    mm = MembershipMatrix(X, 4)
    X[0, 0] = 5.0
    assert mm.X[0, 0] == 1.0
    assert X.flags.writeable and not mm.X.flags.writeable

"""Set families as weighted membership patterns, and their reconstruction.

A family of n sets over a universe of items induces a partition of the items
into regions: all items sharing the same membership pattern chi in {0,1}^n.
A ``VennDiagram`` stores the distinct patterns with nonnegative weights, and
the order-ell intersection tensor

    T[i_1, ..., i_ell] = sum_u w(u) chi(u)[i_1] * ... * chi(u)[i_ell]

records the total weight common to every choice of ell sets.  ``reconstruct``
inverts this map: detect the number of regions, recover the rank-one terms by
simultaneous diagonalization, round the factor coordinates to {0,1}, and
re-fit the weights by nonnegative least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .decomp import recover_rank_one_terms
from .rng import generator
from .tensor import Tensor, khatri_rao

__all__ = [
    "Region",
    "VennDiagram",
    "MeasurementTensor",
    "DiagramDiff",
    "intersection_tensor",
    "add_measurement_noise",
    "rank_detect",
    "reconstruct",
    "diagram_diff",
]

_WEIGHT_DROP = 1e-10
# eigenvalues of the mode-1 Gram above this fraction of the largest count as
# regions: singular values of the unfolding above 1e-6 of the largest, squared
_RANK_RTOL = 1e-12
# eigenvalues of the pattern Gram below this fraction of the largest are
# treated as zero; the Gram of 0/1 patterns is an exact integer matrix, so
# its null directions show up at roundoff level, far below this cutoff
_GRAM_RTOL = 1e-12


@dataclass(frozen=True)
class Region:
    """One membership pattern across the n sets, with its total weight."""

    pattern: tuple[int, ...]
    weight: float

    def __post_init__(self):
        # check before int(): int(0.7) would pass as 0, int(inf) would overflow
        pattern = tuple(self.pattern)
        if any(b not in (0, 1) for b in pattern):
            raise ValueError(f"membership pattern must be 0/1, got {pattern}")
        object.__setattr__(self, "pattern", tuple(int(b) for b in pattern))
        w = float(self.weight)
        if not math.isfinite(w) or w < 0.0:
            raise ValueError(f"region weight must be finite and nonnegative, got {w}")
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True, eq=False)
class VennDiagram:
    """Distinct membership patterns over n sets with nonnegative weights."""

    n: int
    regions: tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError(f"need at least one set, got n={self.n}")
        regions = tuple(sorted(self.regions, key=lambda r: r.pattern))
        for r in regions:
            if len(r.pattern) != self.n:
                raise ValueError(
                    f"pattern length {len(r.pattern)} does not match n={self.n}"
                )
        patterns = [r.pattern for r in regions]
        if len(set(patterns)) != len(patterns):
            raise ValueError("duplicate membership patterns; merge them first")
        object.__setattr__(self, "regions", regions)

    @property
    def m(self) -> int:
        return len(self.regions)

    def columns(self) -> np.ndarray:
        """Membership matrix with one column per region, shape (n, m)."""
        if not self.regions:
            return np.zeros((self.n, 0))
        return np.array([r.pattern for r in self.regions], dtype=float).T

    def weights(self) -> np.ndarray:
        return np.array([r.weight for r in self.regions], dtype=float)

    @classmethod
    def from_columns(
        cls,
        x: np.ndarray,
        weights=None,
        merge_duplicates: bool = False,
    ) -> "VennDiagram":
        """Build a diagram from a 0/1 matrix with one column per region."""
        X = np.asarray(x, dtype=float)
        if X.ndim != 2:
            raise ValueError("membership columns must form a 2-D matrix")
        n, m = X.shape
        if X.size and np.max(np.abs(X - np.round(X))) > 1e-9:
            raise ValueError("membership entries must be 0/1")
        if weights is None:
            w = np.ones(m)
        else:
            w = np.asarray(weights, dtype=float).ravel()
            if w.size != m:
                raise ValueError(f"got {w.size} weights for {m} columns")
        acc: dict[tuple[int, ...], float] = {}
        for j in range(m):
            pattern = tuple(int(round(b)) for b in X[:, j])
            if pattern in acc and not merge_duplicates:
                raise ValueError(f"duplicate column pattern {pattern}; pass merge_duplicates=True")
            acc[pattern] = acc.get(pattern, 0.0) + float(w[j])
        return cls(n, tuple(Region(p, wt) for p, wt in acc.items()))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "regions": [{"chi": list(r.pattern), "w": r.weight} for r in self.regions],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "VennDiagram":
        regions = tuple(Region(tuple(r["chi"]), float(r["w"])) for r in obj["regions"])
        return cls(int(obj["n"]), regions)


@dataclass(frozen=True, eq=False)
class MeasurementTensor:
    """Symmetric order-ell intersection measurements, possibly noisy.

    ``epsilon_inf`` bounds the entrywise measurement error; construction
    checks symmetry under adjacent mode swaps within 2*epsilon_inf plus a
    small relative slack.
    """

    tensor: Tensor
    epsilon_inf: float = 0.0

    def __post_init__(self):
        eps = float(self.epsilon_inf)
        if eps < 0.0:
            raise ValueError(f"noise bound must be nonnegative, got {eps}")
        object.__setattr__(self, "epsilon_inf", eps)
        dims = self.tensor.dims
        if len(set(dims)) != 1:
            raise ValueError(f"intersection tensor must be cubic, got dims {dims}")
        data = self.tensor.data
        atol = 2.0 * eps + 1e-9 * float(np.max(np.abs(data)) if data.size else 0.0)
        for k in range(self.tensor.order - 1):
            gap = float(np.max(np.abs(data - np.swapaxes(data, k, k + 1))))
            if gap > atol:
                raise ValueError(
                    f"tensor is not symmetric: modes {k},{k + 1} differ by {gap:.3e} > {atol:.3e}"
                )

    @property
    def n(self) -> int:
        return self.tensor.dims[0]

    @property
    def order(self) -> int:
        return self.tensor.order

    def to_json_dict(self) -> dict:
        obj = self.tensor.to_json_dict()
        obj["epsilon_inf"] = self.epsilon_inf
        return obj

    @classmethod
    def from_json_dict(cls, obj) -> "MeasurementTensor":
        return cls(Tensor.from_json_dict(obj), float(obj.get("epsilon_inf", 0.0)))


def intersection_tensor(v: VennDiagram, ell: int) -> MeasurementTensor:
    """T = sum_u w(u) chi(u)^(x ell); entry = weight inside the chosen sets.

    For any ell >= 1, the Khatri-Rao product of the weight row w and ell-1
    copies of the pattern matrix X, times X^T, is the n^(ell-1) x n unfolding."""
    if ell < 1:
        raise ValueError(f"order must be >= 1, got {ell}")
    X = v.columns()
    kr = khatri_rao([v.weights()[None, :]] + [X] * (ell - 1))
    return MeasurementTensor(Tensor((kr @ X.T).reshape((v.n,) * ell)))


def _symmetrize(x: np.ndarray) -> np.ndarray:
    """Average of x over all permutations of its axes, in ell(ell-1)/2 swap
    passes instead of ell! transposes: once x is symmetric in axes 0..k-1,
    averaging it with its k swaps (j, k), j < k, makes it symmetric in 0..k."""
    for k in range(1, x.ndim):
        acc = x.copy()
        for j in range(k):
            acc += np.swapaxes(x, j, k)
        x = acc / (k + 1)
    return x


def add_measurement_noise(t: MeasurementTensor, eps: float, seed: int = 0) -> MeasurementTensor:
    """Add iid uniform [-eps, eps] noise, re-symmetrized by permutation averaging."""
    if eps < 0.0:
        raise ValueError(f"noise level must be nonnegative, got {eps}")
    if eps == 0.0:
        return t
    rng = generator(seed, "measure-noise")
    sym = _symmetrize(rng.uniform(-eps, eps, size=t.tensor.dims))
    return MeasurementTensor(Tensor(t.tensor.data + sym), epsilon_inf=t.epsilon_inf + eps)


def rank_detect(t: Tensor, m_max: int) -> int:
    """Count the eigenvalues of the n x n mode-1 Gram U U^T above 1e-12 * lambda_max,
    at most m_max: U's singular values above 1e-6 * sigma_max, without U's wide SVD."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    unf = t.data.reshape(t.dims[0], -1)
    lam = np.linalg.eigvalsh(unf @ unf.T)
    if lam[-1] <= 0.0:
        return 0
    return min(int(np.sum(lam > _RANK_RTOL * lam[-1])), m_max)


def _normalize_estimate(v: np.ndarray) -> np.ndarray:
    """Scale a factor so its largest-magnitude coordinate becomes exactly 1."""
    k = int(np.argmax(np.abs(v)))
    s = v[k]
    if abs(s) <= 1e-12:
        raise ValueError("degenerate factor: recovered direction is numerically zero")
    return v / s


def _default_m_max(n: int, ell: int) -> int:
    return math.floor((n / ell) ** ((ell - 1) // 2) / 2)


def _refit_weights(data: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Nonnegative weights w minimizing ||M w - t|| for the order-ell tensor t.

    M has one column chi_r^(x ell) per pattern column of X, but is never
    built: its Gram is G = (X^T X)^ell entrywise, and M^T t is the vector
    b_r = T(chi_r, ..., chi_r).  With G = V diag(lam) V^T, dropping the
    eigenvalues below _GRAM_RTOL * lam_max, R = diag(sqrt(lam)) V^T and
    d = diag(1/sqrt(lam)) V^T b satisfy ||R w - d||^2 = ||M w - t||^2 - const
    because b lies in the range of G, so NNLS on the small pair (R, d) has
    the same minimizer as on (M, t).
    """
    ell = data.ndim
    n, m = X.shape
    b = data.reshape(-1, n) @ X
    for _ in range(ell - 1):
        b = np.einsum("pir,ir->pr", b.reshape(-1, n, m), X)
    lam, V = np.linalg.eigh((X.T @ X) ** ell)
    keep = lam > _GRAM_RTOL * lam[-1]
    root = np.sqrt(lam[keep])
    Vk = V[:, keep]
    w, _ = nnls(root[:, None] * Vk.T, (Vk.T @ b.ravel()) / root)
    return w


def reconstruct(
    t_obs: MeasurementTensor,
    m_max: int | None = None,
    seed: int = 0,
    tol: float = 1e-3,
) -> VennDiagram:
    """Recover a diagram from its (possibly noisy) intersection tensor.

    Pipeline: detect the region count m from the mode-1 Gram, recover m
    rank-one terms of the full tensor (``recover_rank_one_terms``), rescale
    each of a term's ell factors so its largest entry is 1 and average them
    into one estimate per coordinate, round at threshold 0.5, then refit
    weights by nonnegative least squares against the observed tensor and
    merge duplicate patterns.

    The region count is the rank of the n-row mode-1 unfolding, so it is at
    most n: a diagram with more than n regions is not recovered yet.

    Without ``m_max`` the cap defaults to floor((n/ell)^((ell-1)//2) / 2);
    a default of 0 (small n) is refused.

    Raises on rounding ambiguity: any averaged coordinate within tol of the
    0.5 threshold is refused rather than silently rounded.  tol must lie in
    [0, 0.5): a negative or NaN tol would switch the refusal off, and
    tol >= 0.5 would refuse every input.

    A closing check compares the recovered diagram's intersection tensor with
    the observed one and raises ValueError when they differ anywhere by more
    than 2 * epsilon_inf + 1e-9 * max|T_obs|: the true diagram fits within
    epsilon_inf, so a diagram that does not fit within twice that is wrong.
    """
    if not 0.0 <= tol < 0.5:
        raise ValueError(f"rounding tolerance must lie in [0, 0.5), got {tol}")
    ell = t_obs.order
    if ell < 3:
        raise ValueError(f"reconstruction needs order >= 3 measurements, got {ell}")
    n = t_obs.n
    if m_max is None:
        m_max = _default_m_max(n, ell)
        if m_max < 1:
            raise ValueError(f"default m_max is {m_max} at n={n}, ell={ell}; pass m_max (--m-max)")

    t = t_obs.tensor
    m = rank_detect(t, m_max)
    if m == 0:
        return VennDiagram(n, ())  # rank_detect found an all-zero tensor

    result = recover_rank_one_terms(t, m, seed=seed)
    patterns: list[tuple[int, ...]] = []
    for term in result.terms:
        est = sum(_normalize_estimate(f) for f in term.factors) / ell
        off = np.abs(est - 0.5)
        if np.any(off <= tol):
            bad = np.nonzero(off <= tol)[0]
            raise ValueError(
                f"rounding ambiguity: coordinates {bad.tolist()} land within {tol} of 0.5"
            )
        patterns.append(tuple(int(b) for b in (est > 0.5)))

    unique = sorted(set(p for p in patterns if any(p)))
    regions: tuple[Region, ...] = ()
    if unique:
        w = _refit_weights(t.data, np.array(unique, dtype=float).T)
        regions = tuple(
            Region(p, float(wi)) for p, wi in zip(unique, w) if wi > _WEIGHT_DROP
        )
    out = VennDiagram(n, regions)

    # closing check: the true diagram fits within epsilon_inf, and twice that
    # leaves room for the least-squares weights
    gap = float(np.max(np.abs(t.data - intersection_tensor(out, ell).tensor.data)))
    atol = 2.0 * t_obs.epsilon_inf + 1e-9 * float(np.max(np.abs(t.data)))
    if gap > atol:
        raise ValueError(
            f"closing check failed: the recovered diagram's tensor differs from the "
            f"observed one by {gap:.3e} > {atol:.3e}"
        )
    return out


@dataclass(frozen=True)
class DiagramDiff:
    exact_match: bool
    weight_l1: float
    only_in_first: tuple[tuple[int, ...], ...]
    only_in_second: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "exact_match": self.exact_match,
            "weight_l1": self.weight_l1,
            "only_in_first": [list(p) for p in self.only_in_first],
            "only_in_second": [list(p) for p in self.only_in_second],
        }


def diagram_diff(v1: VennDiagram, v2: VennDiagram, weight_tol: float = 1e-8) -> DiagramDiff:
    """Compare two diagrams region by region.

    exact_match requires identical pattern sets and weights agreeing within
    weight_tol; weight_l1 sums |w1 - w2| over the union of patterns with a
    missing pattern contributing weight 0.
    """
    if v1.n != v2.n:
        raise ValueError(f"diagrams disagree on set count: {v1.n} vs {v2.n}")
    w1 = {r.pattern: r.weight for r in v1.regions}
    w2 = {r.pattern: r.weight for r in v2.regions}
    every = set(w1) | set(w2)
    l1 = sum(abs(w1.get(p, 0.0) - w2.get(p, 0.0)) for p in every)
    only1 = tuple(sorted(p for p in w1 if p not in w2))
    only2 = tuple(sorted(p for p in w2 if p not in w1))
    exact = not only1 and not only2 and all(
        abs(w1[p] - w2[p]) <= weight_tol for p in w1
    )
    return DiagramDiff(exact, float(l1), only1, only2)

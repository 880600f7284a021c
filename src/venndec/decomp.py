"""Tensor rank decomposition by simultaneous diagonalization, and conditioning.

``jennrich`` recovers the terms of a third-order tensor
T = sum_j w_j a_j (x) b_j (x) c_j from two random contractions along the third
mode: M_x = sum_j w_j (c_j . x) a_j b_j^T and likewise M_y.  When the a_j and
b_j are linearly independent and the ratios (c_j . x)/(c_j . y) are distinct,
the eigenvectors of M_x pinv(M_y) are the a_j.  With A holding those
eigenvectors, M_x = A D_x B^T gives pinv(A) M_x = D_x B^T, whose rows are
the b_j in the same order; the c_j then come out of a linear solve.

An order-ell tensor with ell > 3 is first grouped into three blocks by one
rule, "halves": the first floor(ell/2) modes, the next ell-1-floor(ell/2)
modes, and the last mode alone.  Each recovered grouped factor is then split
back into its modes by rank-one factorization (``recover_rank_one_terms``).

``condition_report`` summarizes how well-posed such a decomposition is for a
given factor matrix: its extreme singular values, the leave-one-out distances
from each column to the span of the others, and the separation of the
c-factors that the eigenvalue step relies on.  Both the singular values and
the distances come from one Householder QR of the factor matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, pinv, qr, svdvals

from .rng import generator
from .tensor import Tensor, group, khatri_rao, outer

__all__ = [
    "RankOneTerm",
    "DecompositionResult",
    "ConditionReport",
    "jennrich",
    "recover_rank_one_terms",
    "factor_rank_one",
    "condition_report",
    "leave_one_out_distances",
]

_EIG_GAP_TOL = 1e-8
_MAX_PROBE_RETRIES = 5
_RCOND = 1e-12
# the ALS polish stops at the first round that cuts its residual by less than
# this fraction: from a Jennrich start that is usually round 4 or 5, after
# which the fit moves no estimate far enough to change a rounded 0/1 pattern
_ALS_STALL = 0.1
_ALS_MAX_ROUNDS = 40


@dataclass(frozen=True, eq=False)
class RankOneTerm:
    """One recovered term scale * factors[0] (x) ... (x) factors[ell-1].

    Factors are unit 2-norm with a sign convention (first coordinate of
    magnitude above 1e-8 of the max is positive); the scale absorbs the rest.
    ``residual`` is a per-term diagnostic, see the producing routine.
    """

    factors: tuple[np.ndarray, ...]
    scale: float
    residual: float

    def __post_init__(self):
        fixed = []
        for f in self.factors:
            arr = np.ascontiguousarray(np.asarray(f, dtype=float).ravel())
            arr.flags.writeable = False
            fixed.append(arr)
        object.__setattr__(self, "factors", tuple(fixed))

    @property
    def order(self) -> int:
        return len(self.factors)

    def tensor(self) -> Tensor:
        return Tensor(self.scale * outer(self.factors).data)


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Recovered terms plus residual diagnostics.

    ``max_residual`` is the worst per-term diagnostic; ``recon_residual`` is
    the global misfit ||T - sum of terms||_F against the decomposed tensor;
    ``polish_rounds`` is how many ALS rounds the polish ran.
    """

    terms: tuple[RankOneTerm, ...]
    max_residual: float
    recon_residual: float
    polish_rounds: int

    @property
    def rank(self) -> int:
        return len(self.terms)


def _fix_sign(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Flip so the first coordinate of non-negligible magnitude is positive."""
    thresh = 1e-8 * np.max(np.abs(v)) if v.size else 0.0
    for x in v:
        if abs(x) > thresh:
            return (v, 1.0) if x > 0 else (-v, -1.0)
    return v, 1.0


def _unit_columns(M: np.ndarray) -> np.ndarray:
    """M with each nonzero column scaled to unit 2-norm."""
    norms = np.linalg.norm(M, axis=0)
    return M / np.where(norms > 0, norms, 1.0)


def _als_refit(data: np.ndarray, A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Polish factor estimates by alternating least squares.

    Keeps A and B unit-column, returns (A, B, C_scaled, rounds) where
    C_scaled has one scaled third-mode factor per row and rounds is the
    number of ALS rounds run.  Strips the eigenvector perturbation left by
    the diagonalization step.  Stops at the first round that cuts the
    residual by less than 10 % (``_ALS_STALL``), or after 40 rounds: a
    good start stalls within a few rounds, a poor one keeps going while each
    round still cuts the residual by more (though one flat round in an ALS
    swamp stops it there too).

    Each update solves the normal equations of its least-squares problem:
    the unfolding times the Khatri-Rao product of the two fixed factors
    (an MTTKRP), against the Hadamard product of their m x m Grams
    (Kolda & Bader 2009), so no tall system is ever factored.
    """
    n1, n2, n3 = data.shape
    X1 = data.reshape(n1, n2 * n3)
    X2 = np.moveaxis(data, 1, 0).reshape(n2, n1 * n3)
    X3 = data.reshape(n1 * n2, n3)

    def solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # the Gram is singular when the Khatri-Rao columns are dependent;
        # lstsq then picks the minimum-norm solution as a tall lstsq would
        return np.linalg.lstsq(gram, rhs, rcond=_RCOND)[0]

    kr_ab = khatri_rao([A, B])
    C = solve((A.T @ A) * (B.T @ B), kr_ab.T @ X3)
    # the stall residual is taken directly: expanding it through the Grams
    # cancels catastrophically at the noise floor
    prev = float(np.linalg.norm(X3 - kr_ab @ C))
    rounds = 0
    while rounds < _ALS_MAX_ROUNDS:
        rounds += 1
        A = _unit_columns(solve((B.T @ B) * (C @ C.T), (X1 @ khatri_rao([B, C.T])).T).T)
        B = _unit_columns(solve((A.T @ A) * (C @ C.T), (X2 @ khatri_rao([A, C.T])).T).T)
        kr_ab = khatri_rao([A, B])
        C = solve((A.T @ A) * (B.T @ B), kr_ab.T @ X3)
        res = float(np.linalg.norm(X3 - kr_ab @ C))
        if res >= prev * (1.0 - _ALS_STALL):
            break
        prev = res
    return A, B, C, rounds


def _leading_subspace(gram: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal basis of the top-m eigenspace of a symmetric PSD Gram.

    For gram = X X^T this is the top-m left singular subspace of X, found
    without forming X's right singular vectors.
    """
    return np.linalg.eigh(gram)[1][:, : -m - 1 : -1]


def jennrich(t: Tensor, m: int, seed: int = 0) -> DecompositionResult:
    """Decompose a third-order tensor into m rank-one terms.

    Compresses the first two modes to rank m, onto the top-m eigenvectors of
    the Gram U U^T of each mode's unfolding U, draws Gaussian probe vectors for
    the third mode, and diagonalizes M_x pinv(M_y); if eigenvalues collide
    (relative gap below 1e-8) the probes are redrawn, up to 5 times, before
    giving up with a ValueError.  The real parts of the eigenvectors are the
    a_j, and the b_j are the rows of pinv(A) M_x = D_x B^T, so each b_j comes
    paired with its a_j and one eigenproblem serves both sides.  The per-term
    residual is |Im lambda_j| / |lambda_j|: zero in exact arithmetic, and
    nonzero when the real pencil has complex eigenvalues, so that no real
    rank-m decomposition fits the probes.  The factors are then polished by
    alternating least squares (``_als_refit``).
    """
    if t.order != 3:
        raise ValueError(f"simultaneous diagonalization needs an order-3 tensor, got order {t.order}")
    n1, n2, n3 = t.dims
    if not 1 <= m <= min(n1, n2):
        raise ValueError(f"rank m={m} must lie in [1, min(n1, n2)] = [1, {min(n1, n2)}]")

    rng = generator(seed, "jennrich")
    # compress modes 1 and 2 onto their top-m singular subspaces so that the
    # pencil below is m x m; without this, noise directions of a full-rank
    # slice blow up through the pseudoinverse.  The subspaces come from the
    # n_i x n_i Grams: a thin SVD would also form the wide right singular
    # vectors, which nothing here uses
    unf1 = t.data.reshape(n1, n2 * n3)
    unf2 = np.moveaxis(t.data, 1, 0).reshape(n2, n1 * n3)
    u1 = _leading_subspace(unf1 @ unf1.T, m)
    u2 = _leading_subspace(unf2 @ unf2.T, m)
    core = np.einsum("ia,jb,ijk->abk", u1, u2, t.data, optimize=True)

    last_gap = math.inf
    for _ in range(_MAX_PROBE_RETRIES):
        x = rng.standard_normal(n3)
        y = rng.standard_normal(n3)
        mx = np.tensordot(core, x, axes=([2], [0]))
        my = np.tensordot(core, y, axes=([2], [0]))

        la, ua = np.linalg.eig(mx @ pinv(my, rtol=_RCOND))
        ua = np.real(ua)
        # mx = A' D_x B'^T with A' proportional to ua, so pinv(ua) mx has
        # rows proportional to the b'_j in the eigenvalue order
        A = _unit_columns(u1 @ ua)
        B = _unit_columns(u2 @ (pinv(ua, rtol=_RCOND) @ mx).T)

        scale = max(np.max(np.abs(la)), 1e-300)
        gaps = [abs(la[i] - la[j]) / scale for i in range(m) for j in range(i + 1, m)]
        last_gap = min(gaps) if gaps else math.inf
        if last_gap < _EIG_GAP_TOL:
            continue  # eigenvalue collision, retry with fresh probes

        # a real decomposition has the real eigenvalues (c_j.x)/(c_j.y)
        residuals = (np.abs(la.imag) / np.maximum(np.abs(la), 1e-300)).tolist()
        A, B, c_scaled, rounds = _als_refit(t.data, A, B)

        terms = []
        for i in range(m):
            ai, sa = _fix_sign(A[:, i])
            bi, sb = _fix_sign(B[:, i])
            ci = c_scaled[i, :] * (sa * sb)
            w = float(np.linalg.norm(ci))
            if w > 0:
                ci = ci / w
            ci, csign = _fix_sign(ci)
            terms.append(RankOneTerm((ai, bi, ci), scale=w * csign, residual=residuals[i]))
        terms.sort(key=lambda term: -abs(term.scale))
        return DecompositionResult(
            tuple(terms),
            max_residual=max(residuals, default=0.0),
            # the polished factors fit the mode-3 unfolding; the sign flips cancel
            recon_residual=float(np.linalg.norm(t.data.reshape(n1 * n2, n3) - khatri_rao([A, B]) @ c_scaled)),
            polish_rounds=rounds,
        )

    raise ValueError(
        f"eigenvalues kept colliding across {_MAX_PROBE_RETRIES} probe draws "
        f"(last relative gap {last_gap:.3e}); the tensor likely has rank above {m} "
        "or nearly parallel factors"
    )


def _halves(ell: int) -> tuple[int, int, int]:
    """Mode counts of the three blocks an order-ell tensor is grouped into."""
    if ell < 3:
        raise ValueError(f"need an order >= 3 tensor, got order {ell}")
    g1 = ell // 2
    return g1, ell - 1 - g1, 1


def _group_for_jennrich(t: Tensor) -> tuple[Tensor, tuple[int, int, int]]:
    """The order-3 tensor of the halves grouping, and its block sizes."""
    sizes = _halves(t.order)
    return group(t, sizes), sizes


def factor_rank_one(matrix_or_tensor: np.ndarray) -> tuple[list[np.ndarray], float, float]:
    """Best-effort rank-one factorization R ~ scale * v_1 (x) ... (x) v_k.

    Initializes each factor from the dominant left singular vector of the
    corresponding unfolding, then runs alternating contractions to a fixed
    point.  Returns (unit factors, scale, relative residual in Frobenius
    norm); the residual is the distance from R to the returned rank-one
    tensor divided by ||R||_F.
    """
    R = np.asarray(matrix_or_tensor, dtype=float)
    k = R.ndim
    nf = float(np.linalg.norm(R))
    if nf == 0.0:
        raise ValueError("cannot factor the zero tensor")

    factors = []
    for mode in range(k):
        unf = np.moveaxis(R, mode, 0).reshape(R.shape[mode], -1)
        u, _, _ = np.linalg.svd(unf, full_matrices=False)
        factors.append(u[:, 0])

    scale = 0.0
    for _ in range(50):
        prev = scale
        for mode in range(k):
            contraction = R
            for other in range(k - 1, -1, -1):
                if other == mode:
                    continue
                contraction = np.tensordot(contraction, factors[other], axes=([other], [0]))
            nv = float(np.linalg.norm(contraction))
            if nv == 0.0:
                break
            factors[mode] = contraction / nv
            scale = nv
        if abs(scale - prev) <= 1e-13 * max(scale, 1.0):
            break

    for mode in range(k):
        factors[mode], sgn = _fix_sign(factors[mode])
        scale *= sgn
    approx = scale * outer([np.asarray(f) for f in factors]).data
    residual = float(np.linalg.norm(R - approx) / nf)
    return factors, float(scale), residual


def recover_rank_one_terms(t: Tensor, m: int, seed: int = 0) -> DecompositionResult:
    """Recover m rank-one terms of an order >= 3 tensor.

    Groups modes into three blocks by the halves rule, runs the
    simultaneous-diagonalization step, then un-groups each grouped factor back
    into its constituent modes by rank-one factorization.  Each term's
    residual is the worst relative rank-one defect over its grouped factors;
    with noisy input this is the first diagnostic to look at.
    """
    if t.order == 3:
        return jennrich(t, m, seed=seed)
    gt, sizes = _group_for_jennrich(t)
    base = jennrich(gt, m, seed=seed)

    terms: list[RankOneTerm] = []
    for term in base.terms:
        split_factors: list[np.ndarray] = []
        worst = term.residual
        scale = term.scale
        start = 0
        for gi, size in enumerate(sizes):
            shape = t.dims[start : start + size]
            start += size
            if size == 1:
                split_factors.append(term.factors[gi])
                continue
            fs, s, res = factor_rank_one(term.factors[gi].reshape(shape))
            split_factors.extend(np.asarray(f) for f in fs)
            scale *= s
            worst = max(worst, res)
        terms.append(RankOneTerm(tuple(split_factors), scale=scale, residual=worst))
    F = [np.column_stack(fs) for fs in zip(*(term.factors for term in terms))]
    approx = khatri_rao(F[:-1]) @ (F[-1] * [term.scale for term in terms]).T
    return DecompositionResult(
        tuple(terms),
        max_residual=max((t_.residual for t_ in terms), default=0.0),
        recon_residual=float(np.linalg.norm(t.data.reshape(approx.shape) - approx)),
        polish_rounds=base.polish_rounds,
    )


def leave_one_out_distances(a: np.ndarray) -> np.ndarray:
    """Distance from each column to the span of the remaining columns."""
    return _conditioning(_column_matrix(a))[1]


def _column_matrix(a: np.ndarray) -> np.ndarray:
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[1] == 0:
        raise ValueError("need a nonempty 2-D column matrix")
    return A


def _conditioning(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The m singular values of the rows x m matrix A (zero-padded when
    m > rows) and its leave-one-out distances, from one QR of A."""
    rows, m = A.shape
    # A = QR with orthonormal Q, so A and R share their singular values
    R = qr(A, mode="r")[0][: min(rows, m)]
    s = np.concatenate([svdvals(R), np.zeros(m - R.shape[0])])
    if s[-1] > max(rows, m) * np.finfo(float).eps * s[0]:
        # full column rank: dist_j = 1 / ||row_j of pinv(A)||, and
        # pinv(A) = R^-1 Q^T has the row norms of R^-1; an exact zero on R's
        # diagonal (info > 0) falls through to the projections below
        r_inv, info = lapack.dtrtri(R)
        if info == 0:
            return s, 1.0 / np.linalg.norm(r_inv, axis=1)
    # rank-deficient or overcomplete: project each column directly
    out = np.empty(m)
    for j in range(m):
        rest = np.delete(A, j, axis=1)
        q, _ = np.linalg.qr(rest, mode="reduced")
        col = A[:, j]
        out[j] = float(np.linalg.norm(col - q @ (q.T @ col)))
    return s, out


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Well-posedness summary; ``leave_one_out`` keeps the per-column values,
    ``min_leave_one_out`` is the distance the sandwich bounds refer to."""

    sigma_min: float
    sigma_max: float
    kappa: float
    leave_one_out: np.ndarray
    min_leave_one_out: float
    c_separation: float | None
    max_column_norm: float

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.leave_one_out, dtype=float))
        arr.flags.writeable = False
        object.__setattr__(self, "leave_one_out", arr)

    def to_json_dict(self) -> dict:
        def finite_or_none(x):
            return None if x is None or math.isinf(x) else x

        return {
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
            "kappa": finite_or_none(self.kappa),
            "leave_one_out": self.min_leave_one_out,
            "tau": finite_or_none(self.c_separation),
            "C": self.max_column_norm,
        }


def condition_report(a: np.ndarray, c: np.ndarray | None = None) -> ConditionReport:
    """Conditioning summary for a factor matrix.

    ``a`` has one column per term.  The leave-one-out distances sandwich the
    smallest singular value: sigma_min <= min_j dist_j <= sqrt(m) sigma_min.
    Both come from one QR, A = QR: the singular values are those of R, and
    for full column rank dist_j = 1 / ||row j of R^-1||.  With more columns
    than rows, sigma_min is the m-th singular value, 0, and kappa is inf.
    ``c`` (optional) holds the third-mode factors; their separation
    min_{i<j} ||c_i/||c_i|| - c_j/||c_j|||| governs the eigenvalue gaps.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 2:
        raise ValueError("factor matrix must be 2-D")
    s, loo = _conditioning(_column_matrix(A))
    sep: float | None = None
    if c is not None:
        C = np.asarray(c, dtype=float)
        if C.ndim != 2:
            raise ValueError("c factors must form a 2-D column matrix")
        norms = np.linalg.norm(C, axis=0)
        if np.any(norms == 0):
            raise ValueError("c factors must be nonzero to measure separation")
        U = C / norms
        m = U.shape[1]
        sep = math.inf if m < 2 else min(
            float(np.linalg.norm(U[:, i] - U[:, j])) for i in range(m) for j in range(i + 1, m)
        )
    sigma_min = float(s[-1])
    sigma_max = float(s[0])
    return ConditionReport(
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        kappa=sigma_max / sigma_min if sigma_min > 0 else math.inf,
        leave_one_out=loo,
        min_leave_one_out=float(np.min(loo)),
        c_separation=sep,
        max_column_norm=float(np.max(np.linalg.norm(A, axis=0))),
    )

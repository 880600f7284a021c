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
back into its modes by SVD peeling (``factor_rank_one``): the top singular
triple of its first-mode unfolding gives the first factor, and sigma_1 times
the top right singular vector is peeled the same way over the modes left.

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
from scipy.linalg import lapack, orth, pinv, qr, svdvals

from .rng import generator
from .tensor import Tensor, frozen_array, group, khatri_rao, outer

__all__ = [
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
class DecompositionResult:
    """m rank-one terms scales[j] * factors[0][:, j] (x) ... (x) factors[ell-1][:, j].

    ``factors`` holds one n_k x m matrix per mode with unit columns, each
    signed so its first entry above 1e-8 of its largest magnitude is
    positive; the m ``scales`` absorb the rest.  Terms come in order of
    decreasing |scale|, each with a diagnostic ``residuals`` entry (see the
    producing routine).  ``recon_residual`` is ||T - sum of terms||_F against
    the decomposed tensor; ``polish_rounds`` counts ALS rounds.
    """

    factors: tuple[np.ndarray, ...]
    scales: np.ndarray
    residuals: np.ndarray
    recon_residual: float
    polish_rounds: int

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(frozen_array(F) for F in self.factors))
        object.__setattr__(self, "scales", frozen_array(self.scales))
        object.__setattr__(self, "residuals", frozen_array(self.residuals))

    @property
    def rank(self) -> int:
        return len(self.scales)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals, initial=0.0))


def _fix_signs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip each column of M so its first entry above 1e-8 of the column's
    largest magnitude is positive; returns the flipped M and the signs."""
    big = np.abs(M) > 1e-8 * np.max(np.abs(M), axis=0)
    lead = M[np.argmax(big, axis=0), np.arange(M.shape[1])]
    signs = np.where(big.any(axis=0) & (lead < 0), -1.0, 1.0)
    return M * signs, signs


def _unit_columns(M: np.ndarray) -> np.ndarray:
    """M with each nonzero column scaled to unit 2-norm."""
    norms = np.linalg.norm(M, axis=0)
    return M / np.where(norms > 0, norms, 1.0)


def _als_refit(
    data: np.ndarray, A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Polish factor estimates by alternating least squares.

    Keeps A and B unit-column, returns (A, B, C_scaled, residual, rounds)
    where C_scaled has one scaled third-mode factor per row, residual is
    ||X3 - khatri_rao([A, B]) @ C_scaled||_F on the mode-3 unfolding X3 of
    data, and rounds is the number of ALS rounds run.  Strips the
    eigenvector perturbation left by the diagonalization step.  Stops at the
    first round that cuts the residual by less than 10 % (``_ALS_STALL``),
    or after 40 rounds: a good start stalls within a few rounds, a poor one
    keeps going while each round still cuts the residual by more (though one
    flat round in an ALS swamp stops it there too).

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
    return A, B, C, res, rounds


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
        residuals = np.abs(la.imag) / np.maximum(np.abs(la), 1e-300)
        # the sign flips below cancel in the polish's residual
        A, B, c_scaled, recon, rounds = _als_refit(t.data, A, B)
        A, sa = _fix_signs(A)
        B, sb = _fix_signs(B)
        c_rows = c_scaled * (sa * sb)[:, None]
        # a stack of 1 x n3 by n3 x 1 products takes each row's own dot
        # product, as a vector norm does; a norm along an axis sums in
        # another order
        w = np.sqrt((c_rows[:, None] @ c_rows[..., None]).ravel())
        C, csign = _fix_signs((c_rows / np.where(w > 0, w, 1.0)[:, None]).T)
        order = np.argsort(-w, kind="stable")
        factors = (A[:, order], B[:, order], C[:, order])
        return DecompositionResult(factors, (w * csign)[order], residuals[order], recon, rounds)

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


def factor_rank_one(matrix_or_tensor: np.ndarray) -> tuple[list[np.ndarray], float, float]:
    """Rank-one factorization R ~ scale * v_1 (x) ... (x) v_k by SVD peeling.

    v_1 is the top left singular vector of the n_1 x (n_2...n_k) unfolding;
    sigma_1 times the top right singular vector is reshaped over the remaining
    modes and peeled the same way.  After k-1 thin SVDs the normalised
    remainder is v_k and its norm is the scale.  The result is exact on any
    rank-one R, and on a matrix it is the best rank-one approximation.
    Returns (unit factors, scale, relative residual in Frobenius norm); the
    residual is the distance from R to the returned rank-one tensor divided by
    ||R||_F.
    """
    R = np.asarray(matrix_or_tensor, dtype=float)
    nf = float(np.linalg.norm(R))
    if nf == 0.0:
        raise ValueError("cannot factor the zero tensor")

    factors = []
    rest = R.ravel()
    for dim in R.shape[:-1]:
        u, s, vt = np.linalg.svd(rest.reshape(dim, -1), full_matrices=False)
        factors.append(u[:, 0])
        rest = s[0] * vt[0]
    scale = float(np.linalg.norm(rest))
    factors.append(rest / scale)

    for mode in range(R.ndim):
        col, sgn = _fix_signs(factors[mode][:, None])
        factors[mode], scale = col[:, 0], scale * float(sgn[0])
    approx = scale * outer(factors).data
    residual = float(np.linalg.norm(R - approx) / nf)
    return factors, scale, residual


def recover_rank_one_terms(t: Tensor, m: int, seed: int = 0) -> DecompositionResult:
    """Recover m rank-one terms of an order >= 3 tensor.

    Groups modes into three blocks by the halves rule, runs the
    simultaneous-diagonalization step, then un-groups each grouped factor of
    two or more modes by SVD peeling (``factor_rank_one``), one call per term
    and block: k-1 thin SVDs for a k-mode block, one for a matrix.  Each
    term's residual is the worst relative rank-one defect over its grouped
    factors; with noisy input this is the first diagnostic to look at.
    """
    if t.order == 3:
        return jennrich(t, m, seed=seed)
    sizes = _halves(t.order)
    base = jennrich(group(t, sizes), m, seed=seed)

    F: list[np.ndarray] = []
    scales, residuals = base.scales, base.residuals
    for block, size, end in zip(base.factors, sizes, np.cumsum(sizes)):
        if size == 1:
            F.append(block)
            continue
        fs, s, res = zip(*(factor_rank_one(col.reshape(t.dims[end - size : end])) for col in block.T))
        F.extend(np.column_stack(mode) for mode in zip(*fs))
        scales, residuals = scales * s, np.maximum(residuals, res)
    approx = khatri_rao(F[:-1]) @ (F[-1] * scales).T
    recon = float(np.linalg.norm(t.data.reshape(approx.shape) - approx))
    return DecompositionResult(tuple(F), scales, residuals, recon, base.polish_rounds)


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
    # rank-deficient or overcomplete: project each column onto an orthonormal
    # basis of the others' span; the basis must reveal rank, because the Q of
    # a QR of rank-deficient columns also spans directions outside that span
    out = np.empty(m)
    for j in range(m):
        q = orth(np.delete(A, j, axis=1))
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
        object.__setattr__(self, "leave_one_out", frozen_array(self.leave_one_out))

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

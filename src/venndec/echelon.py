"""Echelon trees: structured bases of tensor subspaces with distance certificates.

An index tree of height ell over dims (n_1, ..., n_ell) has nodes labeled by
partial indices: level-k nodes carry k-tuples, children extend their parent by
one coordinate, and all leaves sit at level ell.  Nodes are ordered by
post-order traversal (written J < I below): descendants come before ancestors,
and sibling subtrees follow the child order.

An echelon tree attaches a tensor T_I to every leaf I such that T_I is nonzero
at its own index while T_I(e_J, . , ..., .) vanishes for every node J that
precedes I in post-order.  Height-1 trees are exactly echelon forms produced
by Gaussian elimination with pivoting.  The leaf tensors of any echelon tree
are linearly independent, and collapsing two adjacent levels (fusing the two
index coordinates row-major) preserves the property.

Such a tree is determined by its leaves in post-order, so an ``EchelonTree``
is stored as two arrays: the leaf labels, one row per leaf, and the leaf
tensors flattened into the rows of one matrix.  Every node's leaves are
consecutive rows, a node J precedes leaf p exactly when J's last leaf comes
before p, and verification, collapsing, largeness and certificates all work
on the two arrays.  The nested JSON form exists only on disk.

``build_echelon_tree`` constructs such a tree for a subspace W with fractional
branching (alpha_1, ..., alpha_ell), meaning level-k nodes have at least
ceil(alpha_k * n_k) children, whenever

    (1 - alpha_1) * ... * (1 - alpha_ell)  >=  1 - dim(W) / (n_1 * ... * n_ell).

The construction recurses on the tensor order: fuse the first two modes, build
a flatter tree with the largest feasible second-level branching beta, keep the
level-1 nodes sharing the most common leading coordinate (at least beta * n_2
of them exist by pigeonhole), zero out that whole slice of W, and repeat.

``certify_distance`` turns a tree for W into a certified lower bound on the
Euclidean distance from a rank-one tensor x = x_1 (x) ... (x) x_ell to any
subspace orthogonal to W: every leaf T_I lies in W, so for v orthogonal to W,
|<T_I, x>| = |<T_I, x - v>| <= ||T_I||_F ||x - v||.  The certificate is the
largest of these bounds over all leaves, read off one matrix-vector product
of the leaf matrix with x.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import lapack, null_space, qr, svdvals

from .tensor import Tensor, frozen_array, json_int, khatri_rao

__all__ = [
    "SubspaceBasis",
    "EchelonTree",
    "BranchingSpec",
    "TraceRecord",
    "BuildTrace",
    "Violation",
    "VerifyReport",
    "orthogonal_complement",
    "build_echelon_tree",
    "collapse",
    "verify_echelon",
    "largeness",
    "certify_distance",
]

_RCOND = 1e-10  # rank tolerance for subspace re-projection
_PIVOT_TOL = 1e-10


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis (columns) of a subspace of a tensor space."""

    dims: tuple[int, ...]
    vectors: np.ndarray  # (prod(dims), dim) with orthonormal columns

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        arr = frozen_array(self.vectors)
        if arr.ndim != 2:
            raise ValueError(f"basis must be a 2-D column matrix, got shape {arr.shape}")
        ambient = math.prod(dims)
        if arr.shape[0] != ambient:
            raise ValueError(
                f"basis rows {arr.shape[0]} do not match ambient size {ambient} of dims {dims}"
            )
        if arr.shape[1] > 0:
            gram = arr.T @ arr
            if not np.allclose(gram, np.eye(arr.shape[1]), atol=1e-8):
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "vectors", arr)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def ambient(self) -> int:
        return math.prod(self.dims)

    @classmethod
    def from_span(cls, matrix: np.ndarray, dims: Sequence[int]) -> "SubspaceBasis":
        """Orthonormalize a spanning set given as columns.

        Rejects numerically rank-deficient input so a caller never silently
        works with a smaller subspace than intended.
        """
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2:
            raise ValueError("spanning set must be a 2-D column matrix")
        if A.shape[1] == 0:
            return cls(tuple(dims), A.reshape(A.shape[0], 0))
        u, s, _ = np.linalg.svd(A, full_matrices=False)
        rank = int(np.sum(s > _RCOND * s[0])) if s.size and s[0] > 0 else 0
        if rank < A.shape[1]:
            raise ValueError(
                f"spanning set is rank-deficient: effective rank {rank} < {A.shape[1]} columns"
            )
        return cls(tuple(dims), u[:, :rank])


def orthogonal_complement(v: SubspaceBasis) -> SubspaceBasis:
    """Orthonormal basis of the orthogonal complement within the same ambient."""
    if v.dim == 0:
        return SubspaceBasis(v.dims, np.eye(v.ambient))
    comp = null_space(v.vectors.T, rcond=_RCOND)
    return SubspaceBasis(v.dims, comp)


def _constrain_coords(B: np.ndarray, coords: Sequence[int]) -> np.ndarray:
    """Basis of {x in span(B) : x[c] = 0 for all c in coords}.

    The coefficients y with (B y)[coords] = 0 form the null space of
    R = B[coords, :], whose rank follows ``null_space``'s rule: singular
    values above _RCOND * sigma_max.  A pivoted Householder QR R^T P = Q T
    puts range(R^T) in the first ``rank`` columns of Q, so B Q[:, rank:] is
    the constrained basis.  It is read off as rows rank: of Q^T B^T, with the
    reflectors applied by ``dormqr`` and Q never formed.
    """
    if B.shape[1] == 0:
        return B
    R = B[np.asarray(coords, dtype=int), :]
    if np.max(np.abs(R)) <= 1e-12:
        return B  # constraints already hold
    s = svdvals(R)
    rank = int(np.sum(s > _RCOND * s[0]))
    (h, tau), _, _ = qr(R.T, mode="raw", pivoting=True)
    h = h[:, : tau.size]
    _, work, _ = lapack.dormqr("L", "T", h, tau, B.T, -1)
    qtbt, _, info = lapack.dormqr("L", "T", h, tau, B.T, int(work[0]))
    if info != 0:
        raise RuntimeError(f"dormqr failed with info={info}")
    return qtbt[rank:].T


# ---------------------------------------------------------------------------
# trees


def _prefix_keys(labels: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Column j holds the row-major flat index of each label's first j + 1
    coordinates in dims[: j + 1], which is the row of that level-(j+1) node's
    slice in a leaf reshaped to (n_1 * ... * n_(j+1), -1)."""
    keys = np.empty_like(labels)
    flat = np.zeros(len(labels), dtype=np.int64)
    for j, n in enumerate(dims):
        flat = flat * n + labels[:, j]
        keys[:, j] = flat
    return keys


@dataclass(frozen=True, eq=False)
class EchelonTree:
    """An index tree over ``dims`` with a tensor per leaf, given by its leaves
    in post-order.

    ``labels`` is the k x ell int64 matrix of 0-based leaf labels and
    ``leaves`` the k x (n_1 * ... * n_ell) matrix whose row p is leaf p's
    tensor flattened row-major.  Each node's leaves are consecutive rows and
    the internal nodes are the distinct proper prefixes of the labels, so the
    two arrays are the whole tree.  Both are frozen on construction, which
    rejects bad shapes, non-finite entries, labels out of range, and labels
    that split a node or repeat.  ``leaf_tensors`` views the rows as a
    read-only label -> ``Tensor`` mapping in post-order.
    """

    dims: tuple[int, ...]
    labels: np.ndarray
    leaves: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or min(dims) < 1:
            raise ValueError(f"tree dims must be positive and nonempty, got {dims}")
        labels = np.array(self.labels, dtype=np.int64)
        labels.flags.writeable = False
        leaves = frozen_array(self.leaves)
        if labels.ndim != 2 or labels.shape[1] != len(dims):
            raise ValueError(f"labels must be a k x {len(dims)} matrix, got shape {labels.shape}")
        if leaves.shape != (len(labels), math.prod(dims)):
            raise ValueError(
                f"leaves must be a {len(labels)} x {math.prod(dims)} matrix, got shape {leaves.shape}"
            )
        if not np.all(np.isfinite(leaves)):
            raise ValueError("leaf entries must be finite")
        out = np.flatnonzero(np.any((labels < 0) | (labels >= np.array(dims)), axis=1))
        if out.size:
            raise ValueError(f"label {tuple(labels[out[0]].tolist())} out of range for dims {dims}")
        keys = _prefix_keys(labels, dims)
        for j in range(len(dims) - 1):  # each internal node's leaves are one run of rows
            runs = np.count_nonzero(np.diff(keys[:, j], append=-1))
            if np.unique(keys[:, j]).size < runs:
                raise ValueError(f"leaf labels split a level-{j + 1} node")
        if np.unique(keys[:, -1]).size < len(labels):
            raise ValueError("leaf labels repeat")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "leaves", leaves)

    @property
    def height(self) -> int:
        return len(self.dims)

    @cached_property
    def leaf_tensors(self) -> Mapping[tuple[int, ...], Tensor]:
        return MappingProxyType(
            {tuple(label): Tensor(row.reshape(self.dims)) for label, row in zip(self.labels.tolist(), self.leaves)}
        )

    def to_json_dict(self) -> dict:
        labels = self.labels.tolist()
        tensors = list(self.leaf_tensors.values())

        def encode(rows: list[int], level: int) -> list[dict]:
            nodes = []
            for _, run in itertools.groupby(rows, key=lambda p: labels[p][level]):
                run = list(run)
                obj: dict = {"index": [i + 1 for i in labels[run[0]][: level + 1]]}  # 1-based on disk
                if level + 1 == self.height:
                    obj["tensor"] = tensors[run[0]].to_json_dict()
                else:
                    obj["children"] = encode(run, level + 1)
                nodes.append(obj)
            return nodes

        return {"dims": list(self.dims), "tree": encode(list(range(len(labels))), 0)}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "EchelonTree":
        """Decode the nested on-disk tree; raises ValueError on a label that
        does not extend its parent, is out of range or repeats, a leaf off
        level ell or with the wrong dims, a node with neither children nor a
        tensor, and children below level ell.  Errors name labels 1-based,
        as the file writes them."""
        dims = tuple(json_int(d, "dims entry") for d in obj["dims"])
        labels: list[tuple[int, ...]] = []
        leaves: list[np.ndarray] = []
        seen: set[tuple[int, ...]] = set()

        def decode(node_obj: Mapping, parent: tuple[int, ...]):
            index = tuple(json_int(i, "label entry") for i in node_obj["index"])
            if len(index) != len(parent) + 1 or index[:-1] != parent:
                raise ValueError(f"label {index} does not extend parent {parent}")
            if len(index) <= len(dims) and not 1 <= index[-1] <= dims[len(index) - 1]:
                raise ValueError(f"label {index} out of range for dims {dims}")
            if index in seen:
                raise ValueError(f"duplicate label {index}")
            seen.add(index)
            if "tensor" in node_obj:
                tensor = Tensor.from_json_dict(node_obj["tensor"])
                if len(index) != len(dims) or tensor.dims != dims:
                    raise ValueError(
                        f"leaf {index} with dims {tensor.dims} is not a level-{len(dims)} leaf over {dims}"
                    )
                labels.append(index)
                leaves.append(tensor.data.ravel())
            elif not node_obj.get("children"):
                raise ValueError(f"node {index} has neither children nor a tensor")
            elif len(index) >= len(dims):
                raise ValueError(f"node {index} has children below level {len(dims)}")
            else:
                for child in node_obj["children"]:
                    decode(child, index)

        for node_obj in obj["tree"]:
            decode(node_obj, ())
        matrix = np.array(leaves, dtype=float).reshape(len(leaves), math.prod(dims))
        matrix.flags.writeable = False  # our own copy: EchelonTree keeps it uncopied
        return cls(dims, np.array(labels, dtype=np.int64).reshape(len(labels), len(dims)) - 1, matrix)


@dataclass(frozen=True)
class BranchingSpec:
    """Target branching fractions, one per tree level."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if not alphas:
            raise ValueError("branching spec needs at least one level")
        if any(not 0.0 <= a <= 1.0 for a in alphas):
            raise ValueError(f"branching fractions must lie in [0, 1], got {alphas}")

    def feasible_for(self, dim: int, dims: Sequence[int]) -> bool:
        ambient = math.prod(dims)
        lhs = math.prod(1.0 - a for a in self.alphas)
        return lhs >= 1.0 - dim / ambient - 1e-12


@dataclass(frozen=True)
class TraceRecord:
    """One growth step: at recursion ``depth``, extracting node ``step``.

    ``gamma`` is the fraction of first-mode slots already consumed, ``beta``
    the second-level branching chosen (b2/n2).  ``demand`` is the number of
    fused nodes requested from the inner build, (b2-1)*free1 + 1 by the
    pigeonhole argument; ``capacity`` is the largest demand the current
    subspace dimension supports, so demand <= capacity at every step.
    """

    depth: int
    step: int
    gamma: float
    beta: float
    subspace_dim: int
    ambient: int
    demand: int
    capacity: float


@dataclass(frozen=True)
class BuildTrace:
    dims: tuple[int, ...]
    alphas: tuple[float, ...]
    dim_w: int
    records: tuple[TraceRecord, ...]


# ---------------------------------------------------------------------------
# elimination and construction


def _eliminate(B: np.ndarray, needed: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy pivoted elimination of span(B) as one pivoted QR of B^T.

    Step j pivots at the coordinate whose projection onto the part of span(B)
    vanishing at the earlier pivots is longest; that projection, scaled to 1
    at its pivot, is vector j.  Column-pivoted QR B^T P = Q R makes the same
    choices, and B Q = P R^T says vector j is row j of R put back at the
    pivot coordinates, over R[j, j]: zero at earlier pivots, exactly 1 at its
    own, and no larger elsewhere.  Returns the ``needed`` pivots and the
    vectors as the rows of one matrix; raises when some |R[j, j]| before them
    is <= _PIVOT_TOL or fewer than ``needed`` exist.
    """
    d = B.shape[1]
    R, piv = qr(B.T, mode="r", pivoting=True)
    count = min(d, needed)
    collapsed = np.flatnonzero(np.abs(np.diagonal(R)[:count]) <= _PIVOT_TOL)
    if collapsed.size:
        raise ValueError(
            f"pivot collapse: all candidate magnitudes <= {_PIVOT_TOL} "
            f"with {d - int(collapsed[0])} dims left"
        )
    if count < needed:
        raise ValueError(f"subspace exhausted after {count} pivots, needed {needed}")
    rows = np.empty((count, B.shape[0]))
    rows[:, piv] = R[:count] / np.diagonal(R)[:count, None]
    rows[np.arange(count), piv[:count]] = 1.0
    return piv[:count].astype(np.int64), rows


def build_echelon_tree(w: SubspaceBasis, spec: BranchingSpec) -> tuple[EchelonTree, BuildTrace]:
    """Construct an echelon tree for W with the given fractional branching.

    Raises ValueError when the spec is infeasible for dim(W) or when pivots
    collapse numerically (a pivot magnitude at or below 1e-10).  Leaf tensors
    come out with max-norm 1 and entry exactly 1 at their own index.
    Deterministic: the pigeonhole step breaks ties toward the smallest index.
    A pivot tie goes to the candidate that comes first in LAPACK ``geqp3``'s
    working column order, which swaps each chosen column into place, so it is
    not always the smallest index (after pivot 2 of 5, columns 0 and 2 trade
    places and column 1 leads).
    """
    dims = w.dims
    if len(spec.alphas) != len(dims):
        raise ValueError(
            f"spec has {len(spec.alphas)} levels, tensor space has {len(dims)} modes"
        )
    if not spec.feasible_for(w.dim, dims):
        lhs = math.prod(1.0 - a for a in spec.alphas)
        raise ValueError(
            f"infeasible branching spec: prod(1-alpha) = {lhs:.6g} < "
            f"1 - dim(W)/ambient = {1.0 - w.dim / w.ambient:.6g}"
        )
    records: list[TraceRecord] = []
    needed = math.ceil(spec.alphas[0] * dims[0] - 1e-9)
    labels, leaves = _build(w.vectors, dims, dims[0], needed, spec.alphas[1:], records=records, depth=0)
    leaves.flags.writeable = False  # built here: EchelonTree keeps it uncopied
    trace = BuildTrace(dims=dims, alphas=spec.alphas, dim_w=w.dim, records=tuple(records))
    return EchelonTree(dims, labels, leaves), trace


def _build(
    B: np.ndarray,
    dims: tuple[int, ...],
    n1_free: int,
    needed: int,
    rest_alphas: tuple[float, ...],
    *,
    records: list[TraceRecord],
    depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and leaves, in post-order, of ``needed`` level-1 subtrees over dims."""
    if needed <= 0:
        return np.empty((0, len(dims)), dtype=np.int64), np.empty((0, B.shape[0]))
    if len(dims) == 1:
        pivots, rows = _eliminate(B, needed=needed)
        return pivots[:, None], rows

    n1, n2 = dims[0], dims[1]
    rest = dims[2:]
    rest_stride = math.prod(rest)
    rest_prod = math.prod(1.0 - a for a in rest_alphas[1:])
    min_b2 = math.ceil(rest_alphas[0] * n2 - 1e-9)

    labels: list[np.ndarray] = []
    leaves: list[np.ndarray] = []
    for step in range(needed):
        free1 = n1_free - step
        d = B.shape[1]
        ambient_eff = free1 * n2 * rest_stride
        if free1 <= 0 or d == 0:
            raise ValueError(
                f"ran out of subspace at depth {depth}: {step}/{needed} nodes built"
            )
        # capacity: the inner build can supply at most cap_frac * free1 * n2
        # fused nodes, where (1 - cap_frac) * rest_prod = 1 - d/ambient
        if rest_prod <= 0.0:
            cap_frac = 1.0
        else:
            cap_frac = 1.0 - (1.0 - d / ambient_eff) / rest_prod
        capacity = cap_frac * free1 * n2
        x_max = math.floor(capacity + 1e-9)
        # largest b2 whose pigeonhole demand (b2-1)*free1 + 1 fits the capacity
        if x_max < 1:
            b2 = 0
        else:
            b2 = min(n2, (x_max - 1) // free1 + 1)
        if b2 < max(min_b2, 1):
            raise ValueError(
                f"branching infeasible at depth {depth} step {step}: "
                f"best second-level fraction {b2}/{n2} below required {min_b2}/{n2}"
            )
        demand = (b2 - 1) * free1 + 1
        records.append(
            TraceRecord(
                depth=depth,
                step=step,
                gamma=step / n1,
                beta=b2 / n2,
                subspace_dim=d,
                ambient=ambient_eff,
                demand=demand,
                capacity=capacity,
            )
        )

        inner_labels, inner_leaves = _build(
            B,
            (n1 * n2, *rest),
            free1 * n2,
            demand,
            rest_alphas[1:],
            records=records,
            depth=depth + 1,
        )
        # pigeonhole: some leading coordinate owns >= b2 of the fused nodes
        firsts = inner_labels[:, 0] // n2
        qualified = np.flatnonzero(np.bincount(np.unique(inner_labels[:, 0]) // n2) >= b2)
        if not qualified.size:
            raise ValueError(f"pigeonhole failed at depth {depth}: no coordinate with {b2} nodes")
        i1 = int(qualified[0])
        batch = firsts == i1
        kept = inner_labels[batch]
        labels.append(np.column_stack([np.full(len(kept), i1), kept[:, 0] % n2, kept[:, 1:]]))
        leaves.append(inner_leaves[batch])
        if step + 1 < needed:
            stride = n2 * rest_stride
            B = _constrain_coords(B, range(i1 * stride, (i1 + 1) * stride))
    return np.concatenate(labels), np.concatenate(leaves)


# ---------------------------------------------------------------------------
# verification and certificates


@dataclass(frozen=True)
class Violation:
    kind: str
    node: tuple[int, ...]
    against: tuple[int, ...] | None
    value: float

    def __str__(self) -> str:
        if self.against is None:
            return f"{self.kind} at {self.node}: {self.value:.3e}"
        return f"{self.kind} at {self.node} vs {self.against}: {self.value:.3e}"


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violations: tuple[Violation, ...]


def verify_echelon(t: EchelonTree, tolerance: float = 1e-9) -> VerifyReport:
    """Check the echelon property leaf by leaf.

    A leaf I must satisfy |T_I(e_I)| > tolerance, and for every node J that
    precedes it in post-order the whole slice T_I[J, ...] must vanish within
    tolerance.  Violations come leaf by leaf, each leaf's pivot first, then
    its nodes J in post-order.  Raises ValueError unless tolerance is finite
    and >= 0.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    k, ell = t.labels.shape
    keys = _prefix_keys(t.labels, t.dims)
    magnitude = np.abs(t.leaves)
    # Nodes level by level: a level-j node is a run of equal keys[:, j - 1],
    # named by the run's last leaf; its slice of leaf p is row key of leaf p
    # reshaped to (n_1 * ... * n_j, -1), so its maxima come from one reshape.
    last, level, worst = [], [], []
    for j in range(1, ell + 1):
        ends = np.flatnonzero(np.diff(keys[:, j - 1], append=-1))
        rows = math.prod(t.dims[:j])
        maxima = magnitude.reshape(k, rows, magnitude.shape[1] // rows).max(axis=2)
        last.append(ends)
        level.append(np.full(ends.size, j))
        worst.append(maxima[:, keys[ends, j - 1]])
    last, level, worst = np.concatenate(last), np.concatenate(level), np.hstack(worst)
    # post-order: J precedes leaf p exactly when J's last leaf comes before p,
    # and among nodes sharing a last leaf the deepest comes first
    order = np.lexsort((-level, last))
    last, level, worst = last[order], level[order], worst[:, order]
    pivots = magnitude[np.arange(k), keys[:, -1]]
    bad = np.column_stack([~(pivots > tolerance), (last < np.arange(k)[:, None]) & (worst > tolerance)])
    labels = t.labels.tolist()
    violations = tuple(
        Violation("pivot below tolerance", tuple(labels[p]), None, float(pivots[p]))
        if c == 0
        else Violation(
            "nonzero before pivot",
            tuple(labels[p]),
            tuple(labels[last[c - 1]][: level[c - 1]]),
            float(worst[p, c - 1]),
        )
        for p, c in zip(*np.nonzero(bad))
    )
    return VerifyReport(ok=not violations, violations=violations)


def largeness(t: EchelonTree) -> float:
    """Smallest own-pivot magnitude min_I |T_I(e_I)| over the leaves."""
    if not len(t.labels):
        raise ValueError("largeness of an empty tree is undefined")
    own = _prefix_keys(t.labels, t.dims)[:, -1]
    return float(np.min(np.abs(t.leaves[np.arange(len(own)), own])))


def collapse(t: EchelonTree, mode: int) -> EchelonTree:
    """Fuse tree levels mode+1 and mode+2 (0-based mode pairs with mode+1).

    Level-(mode+1) nodes disappear; their children reattach to the grandparent
    in child-major order, with index coordinates mode and mode+1 fused
    row-major.  The leaves and their order are unchanged.
    """
    ell = t.height
    if ell < 2:
        raise ValueError("cannot collapse a height-1 tree")
    if not 0 <= mode <= ell - 2:
        raise ValueError(f"mode must lie in [0, {ell - 2}], got {mode}")
    d2 = t.dims[mode + 1]
    new_dims = t.dims[:mode] + (t.dims[mode] * d2,) + t.dims[mode + 2 :]
    fused = t.labels[:, mode] * d2 + t.labels[:, mode + 1]
    labels = np.column_stack([t.labels[:, :mode], fused, t.labels[:, mode + 2 :]])
    return EchelonTree(new_dims, labels, t.leaves)


def certify_distance(t: EchelonTree, chis: Sequence[np.ndarray]) -> float:
    """Certified lower bound on dist(chi_1 (x) ... (x) chi_ell, span(W)^perp).

    For a tree whose leaf tensors lie in W, returns the maximum over all
    leaves I of |<T_I, chi_1 (x) ... (x) chi_ell>| / ||T_I||_F, each of which
    lower-bounds the Euclidean distance from the rank-one tensor to any
    subspace orthogonal to W.  Always sound, possibly loose.  Zero-norm
    leaves are skipped, and a tree without leaves certifies 0.0.

    Raises ValueError unless there is one direction per mode, each of the
    mode's length and with finite entries.
    """
    if len(chis) != t.height:
        raise ValueError(f"need {t.height} direction vectors, got {len(chis)}")
    vecs = [np.asarray(chi, dtype=float).ravel() for chi in chis]
    for k, (chi, n_k) in enumerate(zip(vecs, t.dims)):
        if chi.size != n_k:
            raise ValueError(f"direction {k} has length {chi.size}, expected {n_k}")
        if not np.all(np.isfinite(chi)):
            raise ValueError(f"direction {k} has non-finite entries")
    norms = np.linalg.norm(t.leaves, axis=1)
    keep = norms > 0.0
    x = khatri_rao([v[:, None] for v in vecs]).ravel()
    return float(np.max(np.abs(t.leaves[keep] @ x) / norms[keep], initial=0.0))

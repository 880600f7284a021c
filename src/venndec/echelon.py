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
of the stacked leaves with x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.linalg import lapack, null_space, qr, svdvals

from .tensor import Tensor, frozen_array, khatri_rao

__all__ = [
    "SubspaceBasis",
    "TreeNode",
    "IndexTree",
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
    def from_span(cls, matrix: np.ndarray, dims: Sequence[int], rcond: float = _RCOND) -> "SubspaceBasis":
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
        rank = int(np.sum(s > rcond * s[0])) if s.size and s[0] > 0 else 0
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


def _constrain_coords(B: np.ndarray, coords: Sequence[int], rcond: float = _RCOND) -> np.ndarray:
    """Basis of {x in span(B) : x[c] = 0 for all c in coords}.

    The coefficients y with (B y)[coords] = 0 form the null space of
    R = B[coords, :], whose rank follows ``null_space``'s rule: singular
    values above rcond * sigma_max.  A pivoted Householder QR R^T P = Q T
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
    rank = int(np.sum(s > rcond * s[0]))
    (h, tau), _, _ = qr(R.T, mode="raw", pivoting=True)
    h = h[:, : tau.size]
    _, work, _ = lapack.dormqr("L", "T", h, tau, B.T, -1)
    qtbt, _, info = lapack.dormqr("L", "T", h, tau, B.T, int(work[0]))
    if info != 0:
        raise RuntimeError(f"dormqr failed with info={info}")
    return qtbt[rank:].T


# ---------------------------------------------------------------------------
# trees


@dataclass(frozen=True)
class TreeNode:
    index: tuple[int, ...]
    children: tuple["TreeNode", ...] = ()

    @property
    def level(self) -> int:
        return len(self.index)

    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class IndexTree:
    """Height-ell label tree over dims; the root carries the empty label."""

    dims: tuple[int, ...]
    children: tuple[TreeNode, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def height(self) -> int:
        return len(self.dims)

    def nodes_postorder(self) -> Iterator[TreeNode]:
        def walk(node: TreeNode) -> Iterator[TreeNode]:
            for c in node.children:
                yield from walk(c)
            yield node

        for c in self.children:
            yield from walk(c)

    def structural_problems(self) -> list[str]:
        problems: list[str] = []
        seen: set[tuple[int, ...]] = set()

        def walk(node: TreeNode, parent_index: tuple[int, ...]):
            if node.index[:-1] != parent_index or len(node.index) != len(parent_index) + 1:
                problems.append(f"label {node.index} does not extend parent {parent_index}")
            k = len(node.index) - 1
            if k >= len(self.dims) or not 0 <= node.index[-1] < self.dims[k]:
                problems.append(f"label {node.index} out of range for dims {self.dims}")
            if node.index in seen:
                problems.append(f"duplicate label {node.index}")
            seen.add(node.index)
            if node.is_leaf() and len(node.index) != self.height:
                problems.append(f"leaf {node.index} not at level {self.height}")
            for c in node.children:
                walk(c, node.index)

        for c in self.children:
            walk(c, ())
        return problems


@dataclass(frozen=True, eq=False)
class EchelonTree:
    """Index tree plus a tensor per leaf."""

    tree: IndexTree
    leaf_tensors: Mapping[tuple[int, ...], Tensor]

    def __post_init__(self):
        object.__setattr__(self, "leaf_tensors", dict(self.leaf_tensors))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.tree.dims

    @property
    def height(self) -> int:
        return self.tree.height

    def to_json_dict(self) -> dict:
        def encode(node: TreeNode) -> dict:
            obj: dict = {"index": [i + 1 for i in node.index]}  # 1-based on disk
            if node.is_leaf():
                obj["tensor"] = self.leaf_tensors[node.index].to_json_dict()
            else:
                obj["children"] = [encode(c) for c in node.children]
            return obj

        return {
            "dims": list(self.dims),
            "tree": [encode(c) for c in self.tree.children],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "EchelonTree":
        dims = tuple(int(d) for d in obj["dims"])
        leaf_tensors: dict[tuple[int, ...], Tensor] = {}

        def decode(node_obj: Mapping) -> TreeNode:
            index = tuple(int(i) - 1 for i in node_obj["index"])
            if "tensor" in node_obj:
                leaf_tensors[index] = Tensor.from_json_dict(node_obj["tensor"])
                return TreeNode(index)
            return TreeNode(index, tuple(decode(c) for c in node_obj.get("children", ())))

        children = tuple(decode(c) for c in obj["tree"])
        return cls(IndexTree(dims, children), leaf_tensors)


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


def _eliminate(B: np.ndarray, needed: int) -> list[tuple[int, np.ndarray]]:
    """Greedy pivoted elimination of span(B) as one pivoted QR of B^T.

    Step j pivots at the coordinate whose projection onto the part of span(B)
    vanishing at the earlier pivots is longest; that projection, scaled to 1
    at its pivot, is vector j.  Column-pivoted QR B^T P = Q R makes the same
    choices, and B Q = P R^T says vector j is row j of R put back at the
    pivot coordinates, over R[j, j]: zero at earlier pivots, exactly 1 at its
    own, and no larger elsewhere.  Returns ``needed`` vectors; raises when
    some |R[j, j]| before them is <= _PIVOT_TOL or fewer than ``needed`` exist.
    """
    ambient, d = B.shape
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
    out: list[tuple[int, np.ndarray]] = []
    for j in range(count):
        v = np.empty(ambient)  # its own buffer, so a kept leaf holds no block
        v[piv] = R[j] / R[j, j]
        v[piv[j]] = 1.0
        out.append((int(piv[j]), v))
    return out


@dataclass
class _Draft:
    first: int
    children: list["_Draft"]
    vector: np.ndarray | None = None


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
    drafts = _build(w.vectors, dims, dims[0], needed, spec.alphas[1:], records=records, depth=0)

    leaf_tensors: dict[tuple[int, ...], Tensor] = {}

    def to_node(draft: _Draft, prefix: tuple[int, ...]) -> TreeNode:
        index = prefix + (draft.first,)
        if draft.vector is not None:
            leaf_tensors[index] = Tensor(draft.vector.reshape(dims))
            return TreeNode(index)
        return TreeNode(index, tuple(to_node(c, index) for c in draft.children))

    children = tuple(to_node(d, ()) for d in drafts)
    tree = EchelonTree(IndexTree(dims, children), leaf_tensors)
    trace = BuildTrace(dims=dims, alphas=spec.alphas, dim_w=w.dim, records=tuple(records))
    return tree, trace


def _build(
    B: np.ndarray,
    dims: tuple[int, ...],
    n1_free: int,
    needed: int,
    rest_alphas: tuple[float, ...],
    *,
    records: list[TraceRecord],
    depth: int,
) -> list[_Draft]:
    if needed <= 0:
        return []
    if len(dims) == 1:
        pairs = _eliminate(B, needed=needed)
        return [_Draft(first=p, children=[], vector=v) for p, v in pairs]

    n1, n2 = dims[0], dims[1]
    rest = dims[2:]
    rest_stride = math.prod(rest)
    rest_prod = math.prod(1.0 - a for a in rest_alphas[1:])
    min_b2 = math.ceil(rest_alphas[0] * n2 - 1e-9)

    drafts: list[_Draft] = []
    eliminated = 0
    while len(drafts) < needed:
        free1 = n1_free - eliminated
        d = B.shape[1]
        ambient_eff = free1 * n2 * rest_stride
        if free1 <= 0 or d == 0:
            raise ValueError(
                f"ran out of subspace at depth {depth}: {len(drafts)}/{needed} nodes built"
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
                f"branching infeasible at depth {depth} step {len(drafts)}: "
                f"best second-level fraction {b2}/{n2} below required {min_b2}/{n2}"
            )
        demand = (b2 - 1) * free1 + 1
        records.append(
            TraceRecord(
                depth=depth,
                step=len(drafts),
                gamma=len(drafts) / n1,
                beta=b2 / n2,
                subspace_dim=d,
                ambient=ambient_eff,
                demand=demand,
                capacity=capacity,
            )
        )

        inner = _build(
            B,
            (n1 * n2, *rest),
            free1 * n2,
            demand,
            rest_alphas[1:],
            records=records,
            depth=depth + 1,
        )
        # pigeonhole: some leading coordinate owns >= b2 of the fused nodes
        buckets: dict[int, list[_Draft]] = {}
        for node in inner:
            buckets.setdefault(node.first // n2, []).append(node)
        qualified = sorted(i1 for i1, lst in buckets.items() if len(lst) >= b2)
        if not qualified:
            raise ValueError(f"pigeonhole failed at depth {depth}: no coordinate with {b2} nodes")
        i1 = qualified[0]
        batch = buckets[i1]
        drafts.append(
            _Draft(
                first=i1,
                children=[_Draft(first=d_.first % n2, children=d_.children, vector=d_.vector) for d_ in batch],
            )
        )
        if len(drafts) < needed:
            stride = n2 * rest_stride
            B = _constrain_coords(B, range(i1 * stride, (i1 + 1) * stride))
        eliminated += 1
    return drafts


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
    tolerance.  Structural label defects are reported as violations too.
    """
    violations: list[Violation] = []
    for msg in t.tree.structural_problems():
        violations.append(Violation(f"structure: {msg}", (), None, 0.0))

    order = list(t.tree.nodes_postorder())
    leaf_set = {n.index for n in order if n.is_leaf()}
    if leaf_set != set(t.leaf_tensors):
        violations.append(
            Violation(
                f"leaf tensors keyed {sorted(t.leaf_tensors)} but tree has leaves {sorted(leaf_set)}",
                (),
                None,
                0.0,
            )
        )
        return VerifyReport(ok=False, violations=tuple(violations))

    for tensor in t.leaf_tensors.values():
        if tensor.dims != t.dims:
            violations.append(Violation("leaf tensor shape mismatch", (), None, 0.0))
            return VerifyReport(ok=False, violations=tuple(violations))

    # Slice T_I[J, ...] of a level-k node J is row ``flat(J)`` of T_I reshaped
    # to (n_1 * ... * n_k, -1); the per-level row maxima, stacked level after
    # level, are gathered at ``keys`` (one per node, in post-order).
    grids = [np.arange(math.prod(t.dims[:k])).reshape(t.dims[:k]) for k in range(1, t.height + 1)]
    offsets = np.cumsum([0] + [g.size for g in grids[:-1]])
    keys = np.array([offsets[n.level - 1] + grids[n.level - 1][n.index] for n in order], dtype=int)
    for pos, node in enumerate(order):
        if not node.is_leaf():
            continue
        data = t.leaf_tensors[node.index].data
        pivot_val = abs(float(data[node.index]))
        if not pivot_val > tolerance:
            violations.append(Violation("pivot below tolerance", node.index, None, pivot_val))
        magnitude = np.abs(data)
        maxima = np.concatenate([magnitude.reshape(g.size, -1).max(axis=1) for g in grids])
        worst = maxima[keys[:pos]]
        for j in np.flatnonzero(worst > tolerance):
            violations.append(Violation("nonzero before pivot", node.index, order[j].index, float(worst[j])))
    return VerifyReport(ok=not violations, violations=tuple(violations))


def largeness(t: EchelonTree) -> float:
    """Smallest own-pivot magnitude min_I |T_I(e_I)| over the leaves."""
    if not t.leaf_tensors:
        raise ValueError("largeness of an empty tree is undefined")
    return min(abs(float(tensor.data[idx])) for idx, tensor in t.leaf_tensors.items())


def collapse(t: EchelonTree, mode: int) -> EchelonTree:
    """Fuse tree levels mode+1 and mode+2 (0-based mode pairs with mode+1).

    Level-(mode+1) nodes disappear; their children reattach to the grandparent
    in child-major order, with index coordinates mode and mode+1 fused
    row-major.  Leaf tensors are reshaped, never permuted.
    """
    ell = t.height
    if ell < 2:
        raise ValueError("cannot collapse a height-1 tree")
    if not 0 <= mode <= ell - 2:
        raise ValueError(f"mode must lie in [0, {ell - 2}], got {mode}")
    d2 = t.dims[mode + 1]
    new_dims = t.dims[:mode] + (t.dims[mode] * d2,) + t.dims[mode + 2 :]

    def fuse(index: tuple[int, ...]) -> tuple[int, ...]:
        return index[:mode] + (index[mode] * d2 + index[mode + 1],) + index[mode + 2 :]

    def relabel(node: TreeNode) -> TreeNode:
        return TreeNode(fuse(node.index), tuple(relabel(c) for c in node.children))

    def rebuild(node: TreeNode) -> TreeNode:
        if node.level == mode:
            grandkids = [g for c in node.children for g in c.children]
            return TreeNode(node.index, tuple(relabel(g) for g in grandkids))
        return TreeNode(node.index, tuple(rebuild(c) for c in node.children))

    if mode == 0:
        children = tuple(relabel(g) for c in t.tree.children for g in c.children)
    else:
        children = tuple(rebuild(c) for c in t.tree.children)

    leaf_tensors = {
        fuse(idx): Tensor(tensor.data.reshape(new_dims)) for idx, tensor in t.leaf_tensors.items()
    }
    return EchelonTree(IndexTree(new_dims, children), leaf_tensors)


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
    if not t.leaf_tensors:
        return 0.0
    leaves = np.stack([tensor.data.ravel() for tensor in t.leaf_tensors.values()])
    norms = np.linalg.norm(leaves, axis=1)
    keep = norms > 0.0
    x = khatri_rao([v[:, None] for v in vecs]).ravel()
    return float(np.max(np.abs(leaves[keep] @ x) / norms[keep], initial=0.0))

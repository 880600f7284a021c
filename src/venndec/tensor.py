"""Dense tensor arithmetic.

A :class:`Tensor` wraps an immutable, C-ordered float64 array.  Row-major
(last index fastest) layout is load-bearing: fusing adjacent modes is a pure
reshape, so flattened data is identical before and after grouping.  All mode
and coordinate indices in this API are 0-based; JSON files written by the CLI
use 1-based labels where labels appear, and entries are stored flattened in
the same row-major order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "outer",
    "group",
    "extract_subtensor",
]


def frozen_array(x) -> np.ndarray:
    """x as a read-only C-ordered float64 array.

    An array that is writable, or views one that is, is copied, so that later
    writes through it do not reach the result.  An array that is read-only
    down to its base is trusted as owned and kept, so that reshaping a frozen
    array costs no copy; a writable view taken before that base was frozen
    still writes through to it.  Freshly converted input (a list, another
    dtype) is owned already and only frozen.
    """
    arr = np.ascontiguousarray(x, dtype=float)
    if arr is x or arr.base is not None:
        base = arr
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is not None:
            arr = arr.copy()
    arr.flags.writeable = False
    return arr


def json_int(val, name: str) -> int:
    """A JSON integer field as an int; ValueError for a bool, a float or
    anything else that int() would truncate or coerce."""
    if isinstance(val, bool) or not isinstance(val, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {val!r}")
    return int(val)


@dataclass(frozen=True, eq=False)
class Tensor:
    """Dense real tensor of order >= 1 with finite entries."""

    data: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.data)
        if arr.ndim == 0:
            raise ValueError("tensor order must be >= 1")
        if any(s < 1 for s in arr.shape):
            raise ValueError(f"tensor dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.data.shape)

    @property
    def order(self) -> int:
        return self.data.ndim

    def to_json_dict(self) -> dict:
        return {"dims": list(self.dims), "entries": self.data.ravel().tolist()}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "Tensor":
        dims = [json_int(d, "dims entry") for d in obj["dims"]]
        entries = np.array(obj["entries"], dtype=float)
        entries.flags.writeable = False  # our own copy: Tensor keeps it uncopied
        if entries.size != math.prod(dims):
            raise ValueError(
                f"entry count {entries.size} does not match dims {dims}"
            )
        return cls(entries.reshape(dims))

    def __repr__(self) -> str:
        return f"Tensor(dims={self.dims})"


def outer(vectors: Sequence[np.ndarray]) -> Tensor:
    """Rank-one tensor v1 (x) v2 (x) ... (x) vk."""
    if len(vectors) == 0:
        raise ValueError("outer product needs at least one vector")
    arrs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if any(a.size == 0 for a in arrs):
        raise ValueError("outer product factors must be nonempty")
    out = arrs[0]
    for a in arrs[1:]:
        out = np.multiply.outer(out, a)
    return Tensor(np.atleast_1d(out))


def khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product: column r is the row-major flattening of
    mats[0][:, r] (x) mats[1][:, r] (x) ..., so khatri_rao([A, B]) @ C.T is
    the mode-3 unfolding of sum_r a_r (x) b_r (x) c_r."""
    if len(mats) == 0:
        raise ValueError("Khatri-Rao product needs at least one matrix")
    out = mats[0]
    for b in mats[1:]:
        # an explicit row count, as reshape(-1, 0) is ambiguous when m = 0
        out = (out[:, None, :] * b[None, :, :]).reshape(out.shape[0] * b.shape[0], b.shape[1])
    return out


def group(t: Tensor, sizes: Sequence[int]) -> Tensor:
    """Fuse consecutive runs of modes, ``sizes[k]`` modes into block k.

    Row-major index fusion: a fused index is i*n2 + j for original pair
    (i, j), matching the flat layout bit for bit.
    """
    if any(s < 1 for s in sizes) or sum(sizes) != t.order:
        raise ValueError(f"block sizes {tuple(sizes)} do not split the {t.order} modes")
    ends = np.cumsum(sizes)
    return Tensor(t.data.reshape([math.prod(t.dims[e - s : e]) for s, e in zip(sizes, ends)]))


def extract_subtensor(t: Tensor, index_sets: Sequence[Sequence[int]]) -> Tensor:
    """Restrict each mode to the given coordinate subset (0-based)."""
    if len(index_sets) != t.order:
        raise ValueError(f"need {t.order} index sets, got {len(index_sets)}")
    sets = []
    for k, s in enumerate(index_sets):
        idx = [int(i) for i in s]
        if not idx:
            raise ValueError(f"empty index set for mode {k}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate index in set for mode {k}")
        if min(idx) < 0 or max(idx) >= t.dims[k]:
            raise ValueError(f"index out of range for mode {k}: {idx}")
        sets.append(idx)
    return Tensor(t.data[np.ix_(*sets)])


"""Random perturbation models for membership vectors.

Two built-in models. Bit flip: each {0,1} entry is flipped independently
with probability q. Gaussian: i.i.d. normal noise with per-coordinate
variance rho^2/n is added to each length-n column block, so a block carries
total variance rho^2.

Both are interval-bounded: conditioned on all other coordinates, a single
coordinate lands in any open interval (t - delta, t + delta) with probability
at most p.  ``nondet_params`` returns a valid (delta, p) pair per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .rng import generator
from .tensor import frozen_array, json_int

__all__ = [
    "BitFlip",
    "Gaussian",
    "PerturbationModel",
    "NondetParams",
    "MembershipMatrix",
    "model_from_json_dict",
    "nondet_params",
    "perturb_memberships",
]


@dataclass(frozen=True)
class BitFlip:
    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"flip probability must lie in [0, 1], got {self.q}")


@dataclass(frozen=True)
class Gaussian:
    rho: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError(f"total standard deviation must be positive, got {self.rho}")


PerturbationModel = Union[BitFlip, Gaussian]


def model_from_json_dict(obj: Mapping) -> PerturbationModel:
    kind = obj.get("model")
    if kind == "bitflip":
        return BitFlip(q=float(obj["q"]))
    if kind == "gaussian":
        return Gaussian(rho=float(obj["rho"]))
    raise ValueError(f"unknown perturbation model {kind!r}")


@dataclass(frozen=True)
class NondetParams:
    """Interval half-width delta and conditional hit bound p."""

    delta: float
    p: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class MembershipMatrix:
    """Columns are membership vectors, possibly several stacked blocks.

    ``X`` has shape (k*n, m) for k stacked length-n blocks; ``n`` is the
    block length and controls the Gaussian per-coordinate variance rho^2/n.
    The JSON form is {"n": block length, "m": columns, "columns": [...]}.
    """

    X: np.ndarray
    n: int

    def __post_init__(self):
        arr = frozen_array(self.X)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"membership matrix must be 2-D and nonempty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("membership entries must be finite")
        if self.n < 1 or arr.shape[0] % self.n != 0:
            raise ValueError(
                f"row count {arr.shape[0]} is not a multiple of block length {self.n}"
            )
        object.__setattr__(self, "X", arr)

    @property
    def m(self) -> int:
        return int(self.X.shape[1])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "columns": self.X.T.tolist()}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "MembershipMatrix":
        cols = np.asarray(obj["columns"], dtype=float)
        if cols.ndim != 2:
            raise ValueError("columns must be a list of equal-length vectors")
        X = cols.T
        n = json_int(obj.get("n", X.shape[0]), "n")
        if "m" in obj and json_int(obj["m"], "m") != X.shape[1]:
            raise ValueError(f"m={obj['m']} does not match {X.shape[1]} columns")
        return cls(X=X, n=n)


def nondet_params(model: PerturbationModel, n: int, delta_request: float | None = None) -> NondetParams:
    """Valid (delta, p) for one coordinate of a length-n block.

    Bit flip: delta = 1/2 and p = max(q, 1-q); an open unit-width interval
    contains at most one of {0, 1}.  Gaussian: p = erf(sqrt(n)*delta/rho) at
    the requested delta (delta_request is required).
    """
    if n < 1:
        raise ValueError(f"block length must be positive, got {n}")
    if isinstance(model, BitFlip):
        if delta_request is not None and not 0.0 < delta_request <= 0.5:
            raise ValueError(
                f"bit-flip interval bound holds for delta <= 1/2, requested {delta_request}"
            )
        delta = 0.5 if delta_request is None else float(delta_request)
        return NondetParams(delta=delta, p=max(model.q, 1.0 - model.q))
    if isinstance(model, Gaussian):
        if delta_request is None:
            raise ValueError("gaussian model needs an explicit delta_request")
        delta = float(delta_request)
        if delta <= 0.0:
            raise ValueError(f"delta_request must be positive, got {delta}")
        return NondetParams(delta=delta, p=min(1.0, math.erf(math.sqrt(n) * delta / model.rho)))
    raise TypeError(f"unknown perturbation model {type(model).__name__}")


def perturb_memberships(x0: MembershipMatrix, model: PerturbationModel, seed: int) -> MembershipMatrix:
    """Apply the model independently to every entry of the base matrix."""
    rng = generator(seed, "perturb")
    X = x0.X
    if isinstance(model, BitFlip):
        if not np.all(np.isin(X, (0.0, 1.0))):
            raise ValueError("bit-flip model requires a 0/1 base matrix")
        flips = rng.random(X.shape) < model.q
        out = np.where(flips, 1.0 - X, X)
    elif isinstance(model, Gaussian):
        sigma = model.rho / math.sqrt(x0.n)
        out = X + rng.normal(0.0, sigma, size=X.shape)
    else:
        raise TypeError(f"unknown perturbation model {type(model).__name__}")
    return MembershipMatrix(X=out, n=x0.n)

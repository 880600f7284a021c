"""Association graphs realized by families of overlapping subsets.

A graph is representable with parameters (N, K, a, b) when every vertex can
be assigned a K-subset of [N] such that adjacent vertices share at least a
elements while non-adjacent ones share at most b.  ``represent_graph`` gives
an exact deterministic construction (private block per edge plus private
filler), valid whenever max_degree * a <= K.  ``soft_realize`` builds the
family instead through a restricted instruction set (union, intersection,
difference, and independent element sampling) and succeeds with high
probability rather than surely; its transcript replays bit-identically
through ``soft_build``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import generator

__all__ = [
    "AssociationGraph",
    "AssemblyParams",
    "AssemblyFamily",
    "Instruction",
    "RepresentationViolation",
    "RepresentationReport",
    "represent_graph",
    "verify_representation",
    "soft_build",
    "soft_realize",
]

# soft_realize's default slack on each edge pool's rate, a*(1+margin)/N
SOFT_MARGIN = 0.4


@dataclass(frozen=True, eq=False)
class AssociationGraph:
    """Simple undirected graph; vertices 0..n_vertices-1, edges as (u, v) with u < v."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = int(self.n_vertices)
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got {n}")
        object.__setattr__(self, "n_vertices", n)
        fixed = set()
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            fixed.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(fixed))

    @classmethod
    def from_edges(cls, n_vertices: int, edges) -> "AssociationGraph":
        return cls(n_vertices, frozenset(tuple(e) for e in edges))

    @classmethod
    def cycle(cls, k: int) -> "AssociationGraph":
        if k < 3:
            raise ValueError(f"cycle needs at least 3 vertices, got {k}")
        return cls.from_edges(k, [(i, (i + 1) % k) for i in range(k)])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def max_degree(self) -> int:
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg) if deg else 0

    def to_edge_list_text(self) -> str:
        """One '1-based u v' line per edge, preceded by a vertex-count header."""
        lines = [f"# vertices {self.n_vertices}"]
        lines += [f"{u + 1} {v + 1}" for u, v in self.sorted_edges()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list_text(cls, text: str) -> "AssociationGraph":
        """Parse ``to_edge_list_text``'s format; without a '# vertices' header
        the largest label sets the vertex count."""
        n_vertices = None
        edges = []
        seen_max = 0
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "vertices":
                    n_vertices = int(parts[1])
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"expected 'u v' per line, got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u < 1 or v < 1:
                raise ValueError(f"vertex labels are 1-based, got {line!r}")
            seen_max = max(seen_max, u, v)
            edges.append((u - 1, v - 1))
        if n_vertices is None:
            n_vertices = seen_max
        return cls.from_edges(n_vertices, edges)


@dataclass(frozen=True)
class AssemblyParams:
    """Universe size N, assembly size K, edge threshold a, non-edge threshold b."""

    N: int
    K: int
    a: int
    b: int

    def __post_init__(self):
        N, K, a, b = (int(self.N), int(self.K), int(self.a), int(self.b))
        for name, val in (("N", N), ("K", K), ("a", a), ("b", b)):
            object.__setattr__(self, name, val)
        if not (0 <= b < a <= K <= N):
            raise ValueError(
                f"need 0 <= b < a <= K <= N, got N={N}, K={K}, a={a}, b={b}"
            )


@dataclass(frozen=True, eq=False)
class AssemblyFamily:
    """One subset of [N] per vertex; elements are 0-based."""

    N: int
    sets: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "N", int(self.N))
        fixed = []
        for i, s in enumerate(self.sets):
            arr = np.unique(np.asarray(s, dtype=np.int64))
            if arr.size != np.asarray(s).size:
                raise ValueError(f"set {i} contains duplicate elements")
            if arr.size and (arr[0] < 0 or arr[-1] >= self.N):
                raise ValueError(f"set {i} has elements outside [0, {self.N})")
            arr.flags.writeable = False
            fixed.append(arr)
        object.__setattr__(self, "sets", tuple(fixed))

    def sizes(self) -> list[int]:
        return [int(s.size) for s in self.sets]


def represent_graph(g: AssociationGraph, p: AssemblyParams) -> AssemblyFamily:
    """Exact construction: a private a-block per edge plus private filler.

    Every edge gets a fresh block of a universe elements shared by exactly its
    two endpoints; each vertex is padded with fresh private elements to size
    exactly K.  Non-adjacent sets are disjoint by construction.  Requires
    max_degree * a <= K and N >= |E|*a + |V|*K.
    """
    delta = g.max_degree()
    if delta * p.a > p.K:
        raise ValueError(
            f"max degree {delta} times a={p.a} exceeds K={p.K}; graph not representable "
            "by the private-block construction"
        )
    need = len(g.edges) * p.a + g.n_vertices * p.K
    if need > p.N:
        raise ValueError(f"universe exhausted: construction needs {need} elements, N={p.N}")

    members: list[list[int]] = [[] for _ in range(g.n_vertices)]
    cursor = 0
    for u, v in g.sorted_edges():
        block = range(cursor, cursor + p.a)
        cursor += p.a
        members[u].extend(block)
        members[v].extend(block)
    for v in range(g.n_vertices):
        fill = p.K - len(members[v])
        members[v].extend(range(cursor, cursor + fill))
        cursor += fill
    return AssemblyFamily(p.N, tuple(np.array(m, dtype=np.int64) for m in members))


@dataclass(frozen=True)
class RepresentationViolation:
    kind: str  # "edge" | "non_edge" | "size"
    where: tuple[int, ...]
    value: int

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.value}"


@dataclass(frozen=True, eq=False)
class RepresentationReport:
    """``overlaps`` is the read-only V x V int64 matrix of |S_u & S_v| with
    |S_v| on its diagonal: every count the verdict was read from."""

    ok: bool
    violations: tuple[RepresentationViolation, ...]
    overlaps: np.ndarray


def verify_representation(
    g: AssociationGraph,
    family: AssemblyFamily,
    p: AssemblyParams,
    size_mode: str = "exact",
) -> RepresentationReport:
    """Count every size and pairwise overlap once; check them against the thresholds.

    ``size_mode="exact"`` (the default, for ``represent_graph``) requires
    |S_v| = K; ``"expected"`` (for ``soft_realize``, whose sizes are K only
    on average) tolerates |S_v| within K plus or minus 3*sqrt(K).  Size
    violations come first, by vertex, then pair violations, by (u, v).
    """
    if len(family.sets) != g.n_vertices:
        raise ValueError(
            f"family has {len(family.sets)} sets for {g.n_vertices} vertices"
        )
    if size_mode not in ("exact", "expected"):
        raise ValueError(f"size_mode must be 'exact' or 'expected', got {size_mode!r}")

    sets, n = family.sets, g.n_vertices
    overlaps = np.diag(np.array(family.sizes(), dtype=np.int64))
    for u, v in zip(*np.triu_indices(n, 1)):
        overlaps[u, v] = overlaps[v, u] = np.intersect1d(sets[u], sets[v], assume_unique=True).size
    overlaps.flags.writeable = False

    sizes = overlaps.diagonal()
    bad_size = sizes != p.K if size_mode == "exact" else np.abs(sizes - p.K) > 3.0 * math.sqrt(p.K)
    adjacent = np.zeros((n, n), dtype=bool)
    for e in g.edges:
        adjacent[e] = True
    bad_pair = np.triu(np.where(adjacent, overlaps < p.a, overlaps > p.b), 1)
    violations = [RepresentationViolation("size", (v,), int(sizes[v]))
                  for v in np.flatnonzero(bad_size).tolist()]
    violations += [
        RepresentationViolation("edge" if adjacent[u, v] else "non_edge", (u, v), int(overlaps[u, v]))
        for u, v in np.argwhere(bad_pair).tolist()
    ]
    return RepresentationReport(not violations, tuple(violations), overlaps)


@dataclass(frozen=True)
class Instruction:
    """One step of a soft-model program.

    Ops: union/intersection/difference take two set names; sample takes a set
    name and an inclusion probability.  ``out`` names the result.  The base
    universe is addressed as "universe".
    """

    op: str
    args: tuple
    out: str

    def __post_init__(self):
        if self.op not in ("union", "intersection", "difference", "sample"):
            raise ValueError(f"unknown op {self.op!r}")
        args = tuple(self.args)
        if self.op == "sample":
            if len(args) != 2:
                raise ValueError("sample takes (set name, probability)")
            prob = float(args[1])
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"sampling probability must lie in [0, 1], got {prob}")
            args = (str(args[0]), prob)
        else:
            if len(args) != 2:
                raise ValueError(f"{self.op} takes two set names")
            args = (str(args[0]), str(args[1]))
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "out", str(self.out))


def _sample_universe(rng: np.random.Generator, n_total: int, prob: float) -> np.ndarray:
    """Independent Bernoulli(prob) inclusion over [0, n_total), without
    materializing it: a Binomial(n_total, prob) count k, then k distinct
    elements drawn uniformly without replacement, as a sorted int64 array."""
    k = int(rng.binomial(n_total, prob))
    return np.sort(rng.choice(n_total, size=k, replace=False, shuffle=False))


def soft_build(
    program: Sequence[Instruction],
    n_universe: int,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Execute a soft program and return every named set.

    Set ops are exact; each sample instruction draws from its own child
    generator keyed by instruction position, so replaying an identical
    program with the same seed reproduces identical sets.
    """
    if n_universe < 1:
        raise ValueError(f"universe size must be positive, got {n_universe}")
    env: dict[str, np.ndarray] = {}

    def resolve(name: str) -> np.ndarray | None:
        if name == "universe":
            return None  # handled specially to avoid materializing [N]
        if name not in env:
            raise ValueError(f"undefined set {name!r}")
        return env[name]

    for idx, ins in enumerate(program):
        if ins.op == "sample":
            src, prob = ins.args
            rng = generator(seed, "soft", idx)
            base = resolve(src)
            if base is None:
                env[ins.out] = _sample_universe(rng, n_universe, prob)
            else:
                mask = rng.random(base.size) < prob
                env[ins.out] = base[mask]
            continue
        lhs, rhs = (resolve(name) for name in ins.args)
        if lhs is None or rhs is None:
            raise ValueError("set operations on the raw universe are not supported; sample from it")
        if ins.op == "union":
            env[ins.out] = np.union1d(lhs, rhs)
        elif ins.op == "intersection":
            env[ins.out] = np.intersect1d(lhs, rhs, assume_unique=True)
        else:
            env[ins.out] = np.setdiff1d(lhs, rhs, assume_unique=True)
    return env


def soft_realize(
    g: AssociationGraph,
    p: AssemblyParams,
    seed: int = 0,
    margin: float = SOFT_MARGIN,
) -> tuple[AssemblyFamily, tuple[Instruction, ...]]:
    """Realize a graph in the soft model; returns the family and its transcript.

    Per edge: a shared pool sampled from the universe at rate a*(1+margin)/N,
    so the expected overlap between its endpoints clears a with binomial
    slack.  Per vertex: the union of its edge pools plus a private filler
    sampled to bring the expected size to K.  Requires max degree
    <= (1/e)*K/a and a margin small enough that filler rates stay
    nonnegative.  Replaying the transcript via soft_build with the same seed
    rebuilds the identical family.
    """
    if margin < 0.0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    delta = g.max_degree()
    if delta > (p.K / p.a) / math.e:
        raise ValueError(
            f"max degree {delta} exceeds (1/e)*K/a = {(p.K / p.a) / math.e:.3f}"
        )
    pool_rate = p.a * (1.0 + margin) / p.N
    if pool_rate > 1.0:
        raise ValueError(f"infeasible margin: pool sampling rate {pool_rate:.3f} > 1")

    program: list[Instruction] = []
    incident: list[list[str]] = [[] for _ in range(g.n_vertices)]
    for u, v in g.sorted_edges():
        name = f"pool_{u + 1}_{v + 1}"
        incident[u].append(name)
        incident[v].append(name)
        program.append(Instruction("sample", ("universe", pool_rate), name))

    for v, pools in enumerate(incident):
        fill_rate = (p.K - len(pools) * p.a * (1.0 + margin)) / p.N
        if fill_rate < 0.0:
            raise ValueError(
                f"infeasible margin: vertex {v} pools already exceed K on average"
            )
        out = f"set_{v + 1}"
        if not pools:
            program.append(Instruction("sample", ("universe", fill_rate), out))
            continue
        fill = f"fill_{v + 1}"
        program.append(Instruction("sample", ("universe", fill_rate), fill))
        acc = fill
        for j, pool in enumerate(pools):
            target = out if j == len(pools) - 1 else f"tmp_{v + 1}_{j}"
            program.append(Instruction("union", (acc, pool), target))
            acc = target

    env = soft_build(program, p.N, seed)
    sets = tuple(env[f"set_{v + 1}"] for v in range(g.n_vertices))
    family = AssemblyFamily(p.N, sets)
    return family, tuple(program)

"""In-memory spans around calls into venndec, and the per-layer arithmetic on them.

The traced run rebinds module and class attributes of the package so that each
call into a listed function opens a span; ``instrument`` returns the undo list
and ``restore`` puts every original attribute back.  Nothing here runs inside
the package itself: spans inside ``src/venndec`` are a separate concern.

A span is a list ``[name, start, end, parent, op, nbytes]``; its id is its
position in ``Recorder.spans``.  ``parent`` is the id of the enclosing span
(``None`` for an op's root span) and ``op`` the index of the operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

# Layer -> functions, named after the module that defines them.  Functions
# defined in venndec are rebound in every venndec module that holds them, so
# callers and the package namespace both see the wrapper; the scipy routines
# (nnls, pinv, svdvals, null_space) only in the module named here, which is
# the one that calls them.  A class name wraps its constructor.
LAYERS = {
    "perturb": ("perturb_memberships",),
    "tensor": ("extract_subtensor", "group"),
    "venn": (
        "intersection_tensor",
        "add_measurement_noise",
        "MeasurementTensor",
        "rank_detect",
        "reconstruct",
        "nnls",
        "diagram_diff",
    ),
    "decomp": (
        "recover_rank_one_terms",
        "jennrich",
        "factor_rank_one",
        "pinv",
        "condition_report",
        "leave_one_out_distances",
        "svdvals",
    ),
    "echelon": (
        "SubspaceBasis.from_span",
        "orthogonal_complement",
        "build_echelon_tree",
        "null_space",
        "verify_echelon",
        "certify_distance",
    ),
    "assemblies": ("represent_graph", "soft_realize", "soft_build", "verify_representation"),
    "experiments": ("run_experiment",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
OP = "op"


def _tensor_bytes(args, kwargs) -> int:
    # MeasurementTensor.__init__(self, tensor, epsilon_inf=0.0)
    tensor = kwargs["tensor"] if "tensor" in kwargs else args[1]
    return int(tensor.data.nbytes)


def _nnls_bytes(args, kwargs) -> int:
    # nnls(A, b, ...): the design matrix and the observed right-hand side
    return int(args[0].nbytes + args[1].nbytes)


# Array bytes each span carries, computed from argument sizes (not measured).
BYTES = {"venn.MeasurementTensor": _tensor_bytes, "venn.nnls": _nnls_bytes}


class Recorder:
    """Spans of one run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def open(self, name: str, nbytes: int = 0) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, nbytes])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was innermost")

    @contextmanager
    def op_span(self, op: int):
        """Root span of one operation; wrapped calls record only inside one."""
        self.op = op
        sid = self.open(OP)
        try:
            yield
        finally:
            self.close(sid)
            self.op = None


def _wrap(rec: Recorder, name: str, fn):
    nbytes = BYTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        sid = rec.open(name, nbytes(args, kwargs) if nbytes else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)

    return traced


def instrument(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every function in LAYERS; returns (owner, attribute, original) to undo."""
    saved: list[tuple[object, str, object]] = []

    def rebind(owner, attr, new):
        saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    try:
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"venndec.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                head, _, method = fn.partition(".")
                target = getattr(module, head)
                if method:
                    # a classmethod on a class defined in the layer
                    raw = inspect.getattr_static(target, method)
                    rebind(target, method, classmethod(_wrap(rec, name, raw.__func__)))
                elif inspect.isclass(target):
                    rebind(target, "__init__", _wrap(rec, name, target.__init__))
                elif getattr(target, "__module__", "").startswith("venndec"):
                    for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "venndec"]:
                        if getattr(mod, fn, None) is target:
                            rebind(mod, fn, _wrap(rec, name, target))
                else:
                    rebind(module, fn, _wrap(rec, name, target))
    except BaseException:
        restore(saved)
        raise
    return saved


def restore(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
    saved.clear()


@contextmanager
def traced(rec: Recorder):
    saved = instrument(rec)
    try:
        yield
    finally:
        restore(saved)


# ---------------------------------------------------------------------------
# arithmetic on finished spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _op, _b in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (name, start, end, _p, _op, _b) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, []) if e > start and s < end]
        out.append((end - start) - _covered(clipped))
    return out


def _has_ancestor(spans: list[list], sid: int, name: str) -> bool:
    parent = spans[sid][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-function calls and self time per op, plus the derived span ratios."""
    selfs = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    nbytes = dict.fromkeys(BYTES, 0)
    for sid, span in enumerate(spans):
        name = span[0]
        if name in calls:
            calls[name] += 1
            self_s[name] += selfs[sid]
        if name in nbytes:
            nbytes[name] += span[5]
    ops = max(n_ops, 1)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls_per_op"] = calls[name] / ops
        out[f"{name}.self_ms_per_op"] = 1e3 * self_s[name] / ops
    out["venn.measurement.bytes_per_op"] = nbytes["venn.MeasurementTensor"] / ops
    out["venn.nnls.design_bytes_per_op"] = nbytes["venn.nnls"] / ops

    split = sum(
        1 for sid, s in enumerate(spans)
        if s[0] == "tensor.extract_subtensor" and _has_ancestor(spans, sid, "venn.reconstruct")
    )
    n_rec = calls["venn.reconstruct"]
    out["venn.reconstruct.split_route_frac"] = split / n_rec if n_rec else 0.0
    pinvs = sum(
        1 for sid, s in enumerate(spans)
        if s[0] == "decomp.pinv" and _has_ancestor(spans, sid, "decomp.jennrich")
    )
    n_jen = calls["decomp.jennrich"]
    # each probe attempt makes two pinv calls (a-side and b-side pencils)
    out["decomp.jennrich.probe_attempts_per_call"] = pinvs / 2 / n_jen if n_jen else 0.0
    return out


def inclusive_ms_per_op(spans: list[list], n_ops: int) -> dict[str, float]:
    """Whole duration per op of each span name, children included; nested
    calls of the same name count once."""
    total: dict[str, float] = {}
    for sid, (name, start, end, _p, _op, _b) in enumerate(spans):
        if not _has_ancestor(spans, sid, name):
            total[name] = total.get(name, 0.0) + (end - start)
    return {name: 1e3 * t / max(n_ops, 1) for name, t in sorted(total.items())}

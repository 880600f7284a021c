"""venndec benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload roundtrip-l3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, each in its own process

A run sets the workload up (for ``--trace 0`` five times, in its own process
and in four fresh ones, for ``setup_s``), then calls the operation back to
back, one at a time with no worker pool and BLAS at the thread count the
environment gives, until ``--seconds`` have passed.  Op ``i`` draws its inputs from ``--seed`` and ``i`` alone.  Each
output is checked against ground truth outside the timed span; a failed
check is counted, never fatal.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and traced, and reports the per-layer metrics from the
spans, the tracing overhead and whether both runs hashed to the same output
digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print the same metrics by name with units, the environment record and the
digest; ``perfbench/results/`` keeps the full record, spans included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUPS = 5  # set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # samples a tail percentile must have above it

# BENCHMARK.json lists all but roundtrip-l4, whose ops fail at the seed
# commit (see BASELINE.md); it stays runnable here.
ALL_WORKLOADS = ("roundtrip-l3", "roundtrip-l4", "echelon", "conditioning", "assemblies")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
FAILED_FRAC_UNIT = "frac"  # printed, not declared: it reads 0 on the declared workloads


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with at
    least TAIL_BEYOND samples above it; the maximum when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND  # 1-based rank of the value
    return xs[k - 1], 100.0 * k / n, n - k


def setup(name: str):
    """Import the package and run one warm-up op; returns (workload, seconds).

    The warm-up input is the same for every seed, so set-up time does not
    vary with the inputs a run draws."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]
    wl.op(workloads.op_seed(0, 2**32))  # never a measured op's seed
    return wl, time.perf_counter() - t0


def fresh_setup_s(name: str) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", "0", "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(wl, seed: int, index: int, rec: spans.Recorder | None = None) -> dict:
    """Op ``index``: timed call, then its check and digest outside the timing."""
    import workloads

    out = error = None
    t0 = time.perf_counter()
    try:
        if rec is None:
            out = wl.op(workloads.op_seed(seed, index))
        else:
            with rec.op_span(index):
                out = wl.op(workloads.op_seed(seed, index))
    except Exception as exc:  # count it and keep going
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return {
        "op": index,
        "phase": "untraced" if rec is None else "traced",
        "seconds": elapsed,
        "failure": error if error is not None else wl.check(out),
        "digest": wl.digest(out) if error is None and index < wl.digest_ops else None,
        "soft_ok": getattr(out, "soft_ok", None),  # assemblies only
    }


def measure(wl, seed: int, seconds: float) -> list[dict]:
    """Ops 0, 1, ... until ``seconds`` have passed (at least one op)."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(run_op(wl, seed, len(results)))
    return results


def measure_paired(wl, seed: int, seconds: float, rec: spans.Recorder) -> tuple[list[dict], list[dict]]:
    """Each op twice, untraced and traced, alternating which runs first so
    that drift in machine speed does not land on one side; the wrappers are
    installed only around the traced call."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        index = len(untraced)
        for with_trace in (index % 2 == 1, index % 2 == 0):
            if with_trace:
                with spans.traced(rec):
                    traced.append(run_op(wl, seed, index, rec))
            else:
                untraced.append(run_op(wl, seed, index))
    return untraced, traced


def digest(wl, results: list[dict]) -> dict:
    head = results[: wl.digest_ops]
    text = json.dumps([r["digest"] for r in head], separators=(",", ":"))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "ops": len(head)}


def soft_ok_frac(results: list[dict]) -> float:
    """Share of completed assemblies ops whose soft-model family verified."""
    done = [r["soft_ok"] for r in results if r["soft_ok"] is not None]
    return sum(done) / max(len(done), 1)


def run_checks(name: str, results: list[dict]) -> list[str]:
    """Checks over a whole run, beyond each op's own."""
    import workloads

    problems = []
    if name == "assemblies":
        # each op counts once, however often it ran; a short run is flagged
        # only when its rate is 3 sigma below the required one
        once = [r for r in results if r["phase"] == "untraced" and r["soft_ok"] is not None]
        rate, n = soft_ok_frac(once), max(len(once), 1)
        if rate + 3.0 * math.sqrt(rate * (1.0 - rate) / n) < workloads.SOFT_MIN_OK_FRAC:
            problems.append(f"soft model verified in {rate:.3f} of {n} ops, below {workloads.SOFT_MIN_OK_FRAC}")
    return problems


def environment(seed: int) -> dict:
    import numpy
    import scipy

    nproc = os.cpu_count()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = nproc, "nproc"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            threads, source = int(os.environ[var]), var
            break
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_from": source,
        "seed": seed,
        "caller": "one closed-loop caller, no worker pool",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(results: list[dict], setups: list[float]) -> tuple[dict, dict]:
    times = [r["seconds"] for r in results]
    value, pct, beyond = tail(times)
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "ops": len(times),
        "op_s.tail_percentile": pct,
        "op_s.tail_samples_beyond": beyond,
        "setup_s_samples": setups,
    }
    return metrics, notes


def declared(kind: str) -> list[str]:
    """Names of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json;
    the JSON result carries exactly these, the printed lines everything."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench[kind]]


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls_per_op"] = "calls/op"
        units[f"{name}.self_ms_per_op"] = "ms/op"
    units.update({
        "venn.measurement.bytes_per_op": "computed_B/op",
        "venn.nnls.design_bytes_per_op": "computed_B/op",
        "venn.reconstruct.split_route_frac": "frac",
        "decomp.jennrich.probe_attempts_per_call": "attempts/call",
        "assemblies.soft_realize.ok_frac": "frac",
        "trace.overhead_frac": "frac",
    })
    return units


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl, first = setup(name)
    env = environment(seed)
    record: dict = {"workload": name, "trace": int(trace), "seconds": seconds, "env": env}

    if not trace:
        setups = [first] + [fresh_setup_s(name) for _ in range(SETUPS - 1)]
        results = measure(wl, seed, seconds)
        metrics, notes = end_to_end(results, setups)
        units = END_TO_END_UNITS
        record["digest"] = digest(wl, results)
    else:
        rec = spans.Recorder()
        untraced, traced_ = measure_paired(wl, seed, seconds, rec)
        results = untraced + traced_
        t_plain = sum(r["seconds"] for r in untraced)
        t_traced = sum(r["seconds"] for r in traced_)
        metrics = spans.layer_metrics(rec.spans, len(traced_))
        metrics["assemblies.soft_realize.ok_frac"] = soft_ok_frac(traced_) if name == "assemblies" else 0.0
        # untraced ops/s over traced ops/s on the same ops, minus one
        metrics["trace.overhead_frac"] = t_traced / t_plain - 1.0
        units = per_layer_units()
        notes = {"ops": len(traced_), "runs_per_op": 2}
        record.update(
            digest=digest(wl, traced_),
            untraced_digest=digest(wl, untraced),
            inclusive_ms_per_op=spans.inclusive_ms_per_op(rec.spans, len(traced_)),
            spans=rec.spans,
        )

    reported = declared("per_layer" if trace else "end_to_end")
    problems = run_checks(name, results)
    if trace and record["digest"] != record["untraced_digest"]:
        problems.append(f"traced digest {record['digest']} differs from untraced {record['untraced_digest']}")
    if name == "assemblies":
        notes["soft_ok_frac"] = soft_ok_frac(results)
    failures = [f"{r['phase']} op {r['op']}: {r['failure']}" for r in results if r["failure"]]
    record.update(notes=notes, metrics=metrics, failures=failures, problems=problems)
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for key, value in notes.items():
        print(f"note {key} {value}")
    print(f"digest {record['digest']['sha256']} over {record['digest']['ops']} ops")
    for key, value in record.get("inclusive_ms_per_op", {}).items():
        print(f"inclusive {key} {value:.3f} ms/op")
    for key, value in metrics.items():
        print(f"{name} {key} {value:.6g} {units[key]}")
    if not trace:
        print(f"{name} failed_frac {len(failures) / len(results):.6g} {FAILED_FRAC_UNIT}")
    for problem in problems + failures[:5]:
        print(f"problem {problem}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in reported},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in ALL_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ALL_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.setup_only:
        print(repr(setup(args.workload)[1]))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

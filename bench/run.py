"""Benchmark of the dipolepair package: three closed-loop workloads from a seed.

Run from the repository root:

    python3 bench/run.py --workload point_stream --seed 1 --seconds 20 --trace 0

Workloads (one caller, one process, no threads beyond numpy's BLAS):

* ``fig2_grid``: ``dipolepair fig2`` through ``cli.main`` in-process, a
  fixed 6x6 grid per request, range endpoints seeded inside the paper's
  Fig. 2 envelope. Runs the CLI grid loop and the CSV formatting.
* ``point_stream``: the scalar API once per seeded point (config,
  geometry, steady state, concurrence), reaching down to k0r = 0.003.
* ``onset_propagate``: trajectories from |gg> with ``propagate``, halving
  dt from 0.01 on error.

With ``--trace 0`` the run replays whole passes over the workload's
requests until ``--seconds`` have passed and reports the end-to-end
metrics. Request times are scaled to an undisturbed core (see
``timing.py``); a request's latency is its median over the passes, and
``setup_s`` is the median wall time, scaled by the start-up of an
interpreter that only imports numpy, of fresh interpreters that each
import the package and return the result of one of the workload's first
``SETUP_BATCH`` requests. With ``--trace 1`` it replays the gate's
requests alternately with and without spans around every call into the
package's layers and reports the per-layer metrics, per operation (see
``tracing.py``). Both modes check their outputs against the independent
reference (see ``gate.py``) outside the timed region.

The last line of standard output is the result object; the line before
it records the environment, input sizes and hash, sample counts, raw
(unscaled) timings and the gate's counts. Spans of the traced run are
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import timing
import tracing

# ``workloads`` imports the package, so it is imported once the sources
# are found; ``gate`` imports mpmath and scipy, so it is imported after the
# timed region and stays out of peak_rss_mb.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# fresh interpreters timed before the first pass and after every pass, so
# that set-up is sampled across the run rather than in one moment of it;
# each batch runs the same requests, so the inputs depend only on the seed
SETUP_BATCH = 3
NUMPY_START = "import numpy"
# a median over three passes or more rejects a pass hit by a slow spell
MIN_PASSES = 3
HARD_STOP_S = 120.0
# requests in one pass; a run replays whole passes, so every run of a seed
# times the same mix of cheap and expensive inputs. Each is at least 100,
# so that p90 over the requests has ten samples beyond it.
PASS_REQUESTS = {"fig2_grid": 100, "point_stream": 2048, "onset_propagate": 256}
# leading requests that the gate checks and the traced run replays
GATE_REQUESTS = {"fig2_grid": 4, "point_stream": 512, "onset_propagate": 16}

SETUP_CODE = """\
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
print(workloads.first_result({name!r}, {seed!r}, {index!r}, {out!r}))
"""


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, inputs) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
        "inputs": {"columns": list(inputs.columns), "requests": len(inputs.rows),
                   "ops_per_request": inputs.ops_per_request,
                   "sha256": inputs.digest()},
    }


def request_fns(name: str, out_path: str):
    """(timed request, settle) for a workload; settle turns the request's
    return value into (failed ops, output) outside the timed region."""
    import workloads

    if name == "fig2_grid":
        return (lambda req: workloads.fig2_request(req, out_path),
                lambda rc: workloads.read_fig2(rc, out_path))
    timed = workloads.stream_request if name == "point_stream" else workloads.onset_request
    return timed, (lambda out: out)


def gate(name: str, inputs, outputs, seed: int):
    import gate as g

    requests = [inputs.request(i) for i in range(len(outputs))]
    if name == "fig2_grid":
        return g.check_fig2(outputs, seed)
    if name == "point_stream":
        return g.check_stream(requests, outputs, seed)
    return g.check_onset(requests, outputs, seed)


def propagate_counts(outputs) -> tuple[float, float]:
    """(propagate calls per solved trajectory, steps returned by the
    successful calls over steps of all calls) of onset_propagate outputs.

    Steps are counted from the calls' results and dt, not from inside
    ``propagate``, so the ratio means the same for any integrator.
    """
    steps = [out[0] for _, out in outputs if out is not None]
    solved = [out[0][-1] for failed, out in outputs if not failed]
    if not solved:
        return 0.0, 0.0
    return (sum(map(len, steps)) / len(solved),
            sum(solved) / sum(map(sum, steps)))


def _wall(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return time.perf_counter() - t0


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """(scaled, raw) wall times of fresh interpreters that import the package
    and return the result of one of the workload's first SETUP_BATCH
    requests, one interpreter per request. Each is scaled by the start-up
    time of an interpreter that only imports numpy, timed just before and
    after it (see ``timing.py``).
    """
    scaled, raw = [], []
    before = _wall(NUMPY_START)
    for index in range(SETUP_BATCH):
        wall = _wall(SETUP_CODE.format(bench=str(HERE), src=str(SRC), name=name,
                                       seed=seed, index=index, out=str(OUT)))
        after = _wall(NUMPY_START)
        scaled.append(wall * timing.NOMINAL_NUMPY_START_S / (0.5 * (before + after)))
        raw.append(wall)
        before = after
    return scaled, raw


def untraced(name: str, inputs, seed: int, seconds: float, out_path: str):
    keep = GATE_REQUESTS[name]
    n = len(inputs.rows)
    setup, setup_raw = measure_setup(name, seed)
    timed, settle = request_fns(name, out_path)
    settle(timed(inputs.request(0)))  # warm-up, untimed
    clock = timing.ScaledClock(timing.SpeedProbe())
    outputs, failed, done = [], 0, 0
    start = time.perf_counter()
    while True:
        for i in range(n):
            f, out = settle(clock.time(timed, inputs.request(i)))
            failed += f
            done += 1
            if done <= keep:
                outputs.append((f, out))
            if time.perf_counter() - start >= HARD_STOP_S:
                break
        passes = done // n
        clock.flush()
        more, more_raw = measure_setup(name, seed)
        setup += more
        setup_raw += more_raw
        if time.perf_counter() - start >= HARD_STOP_S or (
                time.perf_counter() - start >= seconds and passes >= MIN_PASSES):
            break
    attempted = done * inputs.ops_per_request
    lat = clock.scaled()
    raw = np.asarray(clock.raw)
    # a request's latency is its median over the complete passes, so that a
    # slow spell of the shared core that hits one pass of a request stays
    # out of the tail; a hard stop inside the first pass leaves one partial
    # pass
    shape = (passes, n) if passes else (1, done)
    per_req = np.median(lat[: shape[0] * shape[1]].reshape(shape), axis=0)
    per_req_raw = np.median(raw[: shape[0] * shape[1]].reshape(shape), axis=0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done_ops = attempted - failed
    metrics = {
        "ops_per_s": (done_ops / lat.sum(), "1/s"),
        "latency_p50_ms": (1e3 * np.quantile(per_req, 0.5), "ms"),
        "latency_p90_ms": (1e3 * np.quantile(per_req, 0.9), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    info = {
        "passes": done / n, "requests_per_pass": n, "ops_attempted": attempted,
        "ops_failed": failed, "latency_samples": len(per_req),
        "raw": {"ops_per_s": done_ops / raw.sum(),
                "latency_p50_ms": 1e3 * np.quantile(per_req_raw, 0.5),
                "latency_p90_ms": 1e3 * np.quantile(per_req_raw, 0.9)},
        "speed_scale_median": float(np.median(clock.scale)),
        "setup_s_all": setup,
        "setup_s_raw": setup_raw,
    }
    if len(per_req) >= 1000:
        info["latency_p99_ms"] = 1e3 * np.quantile(per_req, 0.99)
    if name == "onset_propagate":
        info["propagate_attempts_per_solution"] = propagate_counts(outputs)[0]
    res = gate(name, inputs, outputs, seed)
    info["gate"] = res.summary()
    return res.correct, attempted, failed, metrics, info


def traced(name: str, inputs, seed: int, seconds: float, out_path: str):
    n_req = GATE_REQUESTS[name]
    ops = n_req * inputs.ops_per_request
    timed, settle = request_fns(name, out_path)
    settle(timed(inputs.request(0)))  # warm-up, untimed
    probe = timing.SpeedProbe()
    tracer = tracing.Tracer()
    plain_s, traced_s, self_s, accounted = [], [], [], []
    first_spans, outputs, counts, out_bytes = None, None, None, 0
    start = time.perf_counter()
    while True:
        clock = timing.ScaledClock(probe)
        outs = [settle(clock.time(timed, inputs.request(i))) for i in range(n_req)]
        plain_s.append(float(clock.scaled().sum()))
        if outputs is None:
            outputs = outs

        clock = timing.ScaledClock(probe)
        tracer.install()
        try:
            for i in range(n_req):
                tracer.request = i
                settle(clock.time(timed, inputs.request(i)))
                if first_spans is None and name == "fig2_grid":
                    out_bytes += os.path.getsize(out_path)
        finally:
            tracer.remove()
        spans = tracer.take()
        wall = float(clock.scaled().sum())
        traced_s.append(wall)
        scale = np.asarray(clock.scale)
        selfs = tracing.self_times(spans) * scale[[s[tracing.REQUEST] for s in spans]]
        per_name = np.zeros(len(tracer.names))
        np.add.at(per_name, [s[tracing.NAME] for s in spans], selfs)
        self_s.append(per_name)
        accounted.append(float(selfs.sum()) / wall)
        if first_spans is None:
            first_spans = spans
            counts = np.bincount([s[tracing.NAME] for s in spans],
                                 minlength=len(tracer.names))
        now = time.perf_counter() - start
        if (now >= seconds and len(traced_s) >= 2) or now >= HARD_STOP_S:
            break

    names = tracer.names
    self_med = np.median(np.array(self_s), axis=0)
    metrics = {}
    for span in tracing.SPAN_NAMES:
        k = names.index(span) if span in names else None
        metrics[f"{span}.calls"] = (0 if k is None else int(counts[k]) / ops, "count")
        metrics[f"{span}.self_ms"] = (0.0 if k is None else 1e3 * self_med[k] / ops, "ms")

    def calls(span):
        return int(counts[names.index(span)]) if span in names else 0

    solves = calls("dynamics.solve_steady_state")
    metrics["dynamics.fallback_ratio"] = (
        calls("dynamics.triplet_steady_state") / solves if solves else 0.0, "ratio")
    attempts, useful = propagate_counts(outputs) if name == "onset_propagate" else (0.0, 0.0)
    metrics["dynamics.propagate.attempts_per_solution"] = (attempts, "count")
    metrics["dynamics.propagate.useful_step_ratio"] = (useful, "ratio")
    metrics["cli.output_bytes"] = (out_bytes / ops, "B")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain_s), "ratio")
    metrics["trace.accounted_ratio"] = (statistics.median(accounted), "ratio")
    res = gate(name, inputs, outputs, seed)
    metrics["gate.fail_frac"] = (res.fail_frac, "ratio")
    metrics["gate.wrong_frac"] = (res.wrong_frac, "ratio")

    np.savez(OUT / f"spans_{name}_seed{seed}.npz", names=np.array(names),
             spans=np.array(first_spans, dtype=float))
    info = {
        "replayed_requests": n_req, "ops_per_pass": ops,
        "passes": {"untraced": len(plain_s), "traced": len(traced_s)},
        "untraced_ms_per_op": 1e3 * statistics.median(plain_s) / ops,
        "traced_ms_per_op": 1e3 * statistics.median(traced_s) / ops,
        "self_ms_sum_per_op": 1e3 * float(np.median(np.sum(self_s, axis=1))) / ops,
        "spans_written": len(first_spans),
        "absent": [s for s in tracing.SPAN_NAMES if s not in names],
        "unlisted": [s for s in names if s not in tracing.SPAN_NAMES],
        "gate": res.summary(),
    }
    return res.correct, n_req * inputs.ops_per_request, res.failed, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dipolepair" / "__init__.py").is_file():
        print(f"error: no dipolepair sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed,
                                   PASS_REQUESTS[args.workload])
    run = traced if args.trace else untraced
    out_path = OUT / f"{args.workload}_{os.getpid()}.csv"
    try:
        correct, attempted, failed, metrics, info = run(
            args.workload, inputs, args.seed, args.seconds, str(out_path))
    finally:
        out_path.unlink(missing_ok=True)
    info = {"workload": args.workload, "trace": args.trace,
            "seconds": args.seconds,
            "env": environment(args.seed, inputs), **info}
    print(json.dumps(info))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

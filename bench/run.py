"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload plan_umaze24 --seed 1 --seconds 40 --trace 0

Run from the repository root. The layers are imported from ``src/``. Every
run sets up SETUP_REPEATS times (the median is ``setup_s``) and runs an
untraced timed phase. With ``--trace 0`` it reports the end-to-end metrics
of that phase. With ``--trace 1`` it then runs a traced phase from a fresh
set-up and reports the per-layer metrics of the traced phase and the
tracing overhead. Results, the run manifest and (traced) the spans go to
``bench/results/``. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
when any operation failed or a check did not hold.
"""

import os

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
sys.path.insert(0, str(SRC))

SPAN_NAMES = (
    "envs.reset",
    "envs.step",
    "nets.actor_forward",
    "nets.target_forward",
    "nets.forward_cache",
    "nets.grad_params",
    "nets.input_grad_scalar",
    "nets.double_backprop",
    "nets.adam_step",
    "nets.polyak_update",
    "replay.store_episode",
    "replay.sample_batch",
    "replay.sample_pool",
    "replay.recent_states",
    "graphplan.fps",
    "graphplan.select_novel",
    "graphplan.novelty_train",
    "graphplan.landmark_set",
    "graphplan.build_graph",
    "graphplan.plan_subgoal",
    "graphplan.pseudo_landmark",
)
STAGES = ("decision", "refresh", "update")
# The end-to-end metrics BENCHMARK.json gates. Each stage's p90 is printed
# and saved beside its p50 when it has MIN_P90_SAMPLES samples, but is not
# gated: on a shared 2-vCPU host, probes put its run-to-run spread above
# any bound the gate allows.
END_TO_END = ("env_steps_per_s", "decision_ms_p50", "refresh_ms_p50", "update_ms_p50",
              "peak_rss_mb", "setup_s")

# glibc mallopt parameters. By default glibc moves its mmap threshold as
# blocks are freed and hands freed heap top back to the kernel, so the
# loop's multi-megabyte numpy temporaries page-fault afresh at a rate that
# depends on allocation history; in probes that was ~15% of run time and
# the largest source of run-to-run spread. Fixed thresholds keep freed
# blocks in the process.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MALLOC_SETTINGS = {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30}


def pin_malloc():
    """Apply MALLOC_SETTINGS; returns them, or None where glibc is absent."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    ok = (mallopt(M_MMAP_THRESHOLD, MALLOC_SETTINGS["mmap_threshold"]) == 1
          and mallopt(M_TRIM_THRESHOLD, MALLOC_SETTINGS["trim_threshold"]) == 1)
    return dict(MALLOC_SETTINGS) if ok else None


def git_sha(root):
    """HEAD's commit from the .git directory, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workload, seed, trace):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    shared = {k: v for k, v in vars(workloads).items()
              if k.isupper() and k not in ("WORKLOADS", "LAYER_METRIC_MAP")}
    return {
        "seed": seed,
        "trace": trace,
        "workload": asdict(workload),
        "shared_params": shared,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "layer_metric_map": workloads.LAYER_METRIC_MAP,
    }


def sliced_rate(step_clock, slices):
    """Median env steps per busy second over ``slices`` equal runs of steps."""
    n = len(step_clock) // slices
    if n == 0:
        return len(step_clock) / step_clock[-1]
    ends = np.asarray(step_clock)[n - 1 :: n][:slices]
    return float(np.median(n / np.diff(ends, prepend=0.0)))


def end_to_end(pipe, setup_times):
    """Metric name -> (value, unit, sample count) for the untraced phase."""
    out = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "env_steps_per_s": (sliced_rate(pipe.step_clock, workloads.RATE_SLICES), "1/s",
                            pipe.steps),
    }
    for stage in STAGES:
        ms = 1e3 * np.asarray(pipe.latency[stage])
        if ms.size:
            out[f"{stage}_ms_p50"] = (float(np.percentile(ms, 50)), "ms", ms.size)
        if ms.size >= workloads.MIN_P90_SAMPLES:
            out[f"{stage}_ms_p90"] = (float(np.percentile(ms, 90)), "ms", ms.size)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    return out


def per_layer(pipe, tracer, busy_s, untraced_rate):
    """Metric name -> (value, unit) for the traced phase."""
    out = {}
    summary = tracer.summary(busy_s)
    for name in SPAN_NAMES:
        calls, self_ms, p50, share = summary.get(name, (0, 0.0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_ms"] = (self_ms, "ms")
        out[f"{name}.p50_ms"] = (p50, "ms")
        out[f"{name}.share"] = (share, "frac")
    c = pipe.counts
    decisions = max(c["decisions"], 1)
    traced_rate = sliced_rate(pipe.step_clock, workloads.RATE_SLICES)
    out.update({
        "graphplan.edges_scored": (c["edges_scored"], "count"),
        "graphplan.edges_kept_frac": (c["edges_kept"] / max(c["edges_scored"], 1), "frac"),
        "graphplan.fallback_frac": (c["fallbacks"] / decisions, "frac"),
        "graphplan.landmarks_mean": (c["landmarks_total"] / decisions, "count"),
        "graphplan.degenerate_pseudo": (c["degenerate_pseudo"], "count"),
        "replay.transitions": (len(pipe.a.buffer), "count"),
        "replay.trajectories": (pipe.a.buffer.n_trajectories, "count"),
        "replay.evicted_episodes": (c["evicted_episodes"], "count"),
        "replay.hr_entropy_ratio": (statistics.fmean(pipe.entropy_ratios), "frac"),
        "nets.penalty_active_frac": (c["penalty_active"] / max(c["penalty_samples"], 1), "frac"),
        "nets.nonfinite_grad_skips": (c["nonfinite_grad_skips"], "count"),
        "envs.clamp_warnings": (c["clamp_warnings"], "count"),
        "trace.untraced_env_steps_per_s": (untraced_rate, "1/s"),
        "trace.traced_env_steps_per_s": (traced_rate, "1/s"),
        "trace.overhead_frac": (1.0 - traced_rate / untraced_rate, "frac"),
    })
    return out


def timed_phase(workload, seed, seconds, tracer, repeats=1):
    """Set up ``repeats`` times (keeping the last agent), then run the loop."""
    from pipeline import Pipeline, set_up

    setup_times = []
    for _ in range(repeats):
        agent = None  # let the previous agent go before building the next
        t0 = perf_counter()
        agent = set_up(workload, seed)
        setup_times.append(perf_counter() - t0)
    pipe = Pipeline(agent, tracer)
    busy = pipe.run(seconds)
    return pipe, busy, setup_times


def measure(workload, seed, seconds, trace):
    """Run the timed phases; returns (result record, tracer or None)."""
    # Both modes set up SETUP_REPEATS times first, so the untraced phase
    # starts from the same process history either way.
    pipe, _, setup_times = timed_phase(workload, seed, seconds, NullTracer(),
                                       repeats=workloads.SETUP_REPEATS)
    phases = [pipe]
    e2e = end_to_end(pipe, setup_times)
    layers = tracer = None
    if trace:
        tracer = Tracer()
        traced, traced_busy, _ = timed_phase(workload, seed, seconds, tracer)
        phases.append(traced)
        layers = per_layer(traced, tracer, traced_busy, e2e["env_steps_per_s"][0])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    notes = [n for p in phases for n in p.failure_notes]
    if trace:
        attempted += 1
        if (traced.digest, traced.digest_counts) != (pipe.digest, pipe.digest_counts):
            failed += 1
            notes.append("untraced and traced phases disagree on the counts or digest")
    record = {
        "manifest": manifest(workload, seed, trace),
        "end_to_end": e2e,
        "per_layer": layers,
        "counts": pipe.digest_counts,
        "digest": pipe.digest,
        "attempted": attempted,
        "failed": failed,
        "failures": notes,
    }
    return record, tracer


def print_table(title, rows):
    print(title)
    for name, (value, unit, *rest) in rows.items():
        n = f"  (n={rest[0]})" if rest else ""
        print(f"  {name:36s} {value:14.6g} {unit}{n}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mazehrl").is_dir():
        print(f"error: {SRC / 'mazehrl'} not found; run from a full checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    malloc = pin_malloc()
    record, tracer = measure(workload, args.seed, args.seconds, args.trace)
    info = record["manifest"]
    info["malloc"] = malloc
    print(f"seed {args.seed}  git {info['git_sha']}  python {info['python']}  numpy "
          f"{info['numpy']}  blas {info['blas']}  threads {BLAS_THREADS}  nproc {info['nproc']}  "
          f"malloc {malloc}")
    print_table("end-to-end (untraced)", record["end_to_end"])
    if args.trace:
        print_table("per-layer (traced)", record["per_layer"])
    attempted, failed = record["attempted"], record["failed"]
    print(f"counts at step {workload.digest_steps}: {json.dumps(record['counts'])}")
    print(f"digest {record['digest']}")
    print(f"correctness: {attempted - failed}/{attempted} ops passed"
          + "".join(f"\n  FAILED {n}" for n in record["failures"]))
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json")
    with open(RESULTS / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    e2e = record["end_to_end"]
    chosen = record["per_layer"] if args.trace else {k: e2e[k] for k in END_TO_END if k in e2e}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in chosen.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for cspnet: training protocols and single-trial decode.

Usage, from the root of a source checkout:

    python3 cspbench/run.py --workload within-subject --seed 1 \
        --seconds 35 --trace 0

Workloads: within-subject, cross-subject, decode, or `all` for the three
in turn in one process. The package is imported from `src/` of the
checkout. Every metric is printed by name with its unit; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With --trace 0 the metrics are the end-to-end ones,
measured untraced; with --trace 1 untraced and traced rounds alternate and
the metrics are per-layer self times and counts per traced round, plus
the tracing overhead. See README.md in this directory.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "cspbench_out"
WORKLOAD_NAMES = ("within-subject", "cross-subject", "decode")
# One BLAS thread, so that a run's timings do not depend on how many cores
# the host has or on what else runs on them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Consecutive decode requests per p99 window; a round's requests fill four.
LATENCY_WINDOW = 250

# per-layer metrics read from span self times, per traced round
SPAN_METRICS = {
    "data.load_s": "data.load",
    "data.bandpass_s": "data.bandpass",
    "csp.design_s": "csp.design",
    "csp.covariance_s": "csp.covariance",
    "csp.lr_train_s": "csp.lr_train",
    "csp.lr_predict_s": "csp.lr_predict",
    "models.build_s": "models.build",
    "cspnets.build_s": "cspnets.build",
    "nn.graph.backward_s": "nn.graph.backward",
    "nn.graph.forward_eval_s": "nn.graph.forward_eval",
    "nn.optim.adam_s": "nn.optim.adam",
    "harness.train_model_self_s": "harness.train_model",
    "harness.protocol_self_s": "harness.protocol",
    "harness.report_s": "harness.report",
    "trace.unattributed_s": "bench.round",
}
COUNT_METRICS = (
    "data.trials_loaded",
    "csp.design_calls",
    "csp.trial_covariance_calls",
    "csp.lr_predict_calls",
    "nn.graph.backward_calls",
    "nn.graph.forward_eval_trials",
    "nn.optim.adam_steps",
    "harness.runs",
)
SETUP_GROUPS = ("data", "csp", "models", "cspnets", "nn", "harness")


def process_start() -> float:
    """The perf_counter() reading at which this process started, from its
    start time in /proc/self/stat (10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    age = (time.clock_gettime(time.CLOCK_BOOTTIME)
           - ticks / os.sysconf("SC_CLK_TCK"))
    return time.perf_counter() - age


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the rounds of one workload may run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end_metrics(setup_s: float, rounds: list) -> dict:
    latencies = [t for r in rounds for t in r.latencies]
    # p99 of each window of consecutive requests, median over the windows:
    # a burst of host load moves the windows it falls in, not the figure
    windows = [r.latencies[i : i + LATENCY_WINDOW] for r in rounds
               for i in range(0, len(r.latencies) - LATENCY_WINDOW + 1,
                              LATENCY_WINDOW)]
    p99 = statistics.median(
        statistics.quantiles(w, n=100, method="inclusive")[98]
        for w in windows)
    return {
        "setup_s": (setup_s, "s"),
        "protocol_s": (statistics.median(r.seconds for r in rounds), "s"),
        "test_accuracy": (rounds[0].accuracy, "fraction"),
        "decode_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "decode_p99_ms": (1e3 * p99, "ms"),
        "decode_batch_trials_per_s": (
            statistics.median(r.batch_trials / r.batch_seconds
                              for r in rounds), "trials/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(tracer, plain: list, traced: list) -> dict:
    from spans import LAYER_KINDS

    n = len(traced)
    per_round = lambda total: total / n
    metrics = {}
    for metric, span in SPAN_METRICS.items():
        metrics[metric] = (per_round(tracer.self_s[("round", span)]), "s")
    for kind in (*LAYER_KINDS, "other"):
        for suffix in ("fwd", "bwd"):
            metrics[f"nn.layers.{kind}.{suffix}_s"] = (
                per_round(tracer.self_s[("round",
                                         f"nn.layers.{kind}.{suffix}")]), "s")
        metrics[f"nn.layers.{kind}.calls"] = (
            per_round(tracer.counts[("round", f"nn.layers.{kind}.calls")]),
            "count")
    for name in COUNT_METRICS:
        metrics[name] = (per_round(tracer.counts[("round", name)]), "count")
    for group in SETUP_GROUPS:
        metrics[f"setup.{group}_s"] = (
            sum(v for (phase, name), v in tracer.self_s.items()
                if phase == "setup" and name.startswith(group + ".")), "s")
    traced_s = statistics.median(r.seconds for r in traced)
    plain_s = statistics.median(r.seconds for r in plain)
    metrics["trace.protocol_s"] = (traced_s, "s")
    metrics["trace.untraced_protocol_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.self_sum_s"] = (
        per_round(sum(v for (phase, _), v in tracer.self_s.items()
                      if phase == "round")), "s")
    metrics["trace.rounds"] = (n, "count")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 started: float):
    """Set up, measure and verify one workload; returns (correct,
    attempted, failed, metrics)."""
    import workloads
    from checks import CheckError
    from spans import Tracer

    workdir = OUT_DIR / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    tracer = Tracer() if trace else None
    try:
        if tracer:
            tracer.install()
        try:
            workload.setup()
        finally:
            if tracer:
                tracer.uninstall()
        setup_s = time.perf_counter() - started
        plain, traced = [], []
        measure_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if tracer and len(plain) > len(traced):
                tracer.phase = "round"
                tracer.install()
                try:
                    with tracer.span("bench.round"):
                        result = workload.round()
                finally:
                    tracer.uninstall()
                traced.append(result)
            else:
                plain.append(result := workload.round())
            workload.serve(result)  # untraced, outside protocol_s
            done = len(plain) + len(traced)
            now = time.perf_counter()
            if (done >= workload.min_rounds
                    and now - measure_start + now - round_start > seconds):
                break
        rounds = plain + traced
        correct = True
        try:
            workload.verify(plain[:1] + traced + plain[1:])
        except CheckError as exc:
            correct = False
            print(f"CHECK FAILED [{name}]: {exc}", file=sys.stderr)
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        if tracer:
            metrics = per_layer_metrics(tracer, plain, traced)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{name}-s{seed}.jsonl")
        else:
            metrics = end_to_end_metrics(setup_s, plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"[{name}] seed {seed}: {len(plain)} untraced and {len(traced)} "
          f"traced rounds, {attempted} operations attempted, {failed} failed, "
          f"{sum(len(r.latencies) for r in plain)} timed decode calls, "
          f"outputs {'correct' if correct else 'WRONG'}")
    for metric, (value, unit) in metrics.items():
        print(f"[{name}]   {metric:<32} {value:>14.6g} {unit}")
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    started = process_start()  # cold set-up is timed from here
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cspnet
    except ImportError as exc:
        print(f"cannot import cspnet from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(cspnet.__file__).resolve().parents:
        print(f"cspnet was imported from {cspnet.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, found = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), started)
        started = time.perf_counter()
        correct &= ok
        attempted += att
        failed += fail
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in found.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and exit nonzero without a result line
        traceback.print_exc()
        sys.exit(1)

#!/usr/bin/env python3
"""polyweight benchmark: one workload per invocation, or all four in turn.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs whole rounds of the workload's seeded job list until the rounds
have taken ``--seconds``, checks the first round's answers against the
reference computations and every later round's answers against the
first, and prints a report followed, as the last line, by one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, the
self time of each layer and the tracing overhead, and writes the
spans to ``perfbench/out/``.  ``--workload all`` runs the four
workloads one after another and ends with one JSON object over all of
them.  The exit code is 1 when an answer disagrees with the reference
or an operation raises, and 2 when the checkout holds no polyweight sources.
"""

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import tracing
import workloads
from workloads import FAILED, WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
# Set-up samples per run, taken between rounds and spread over the run's
# length.  ``setup_s`` is their median: a few samples of a run read a
# quarter or a third below the rest, so the best of them spreads more
# from run to run than the median does.
SETUP_SAMPLES = 21

# Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "groups.build_s": "s", "groups.build_calls": "count",
    "groups.validate_s": "s", "groups.weyl_s": "s",
    "groups.weyl_elements": "count", "groups.self_s": "s",
    "classify.context_s": "s", "classify.scalar_s": "s",
    "classify.scalar_calls": "count", "classify.enumerate_s": "s",
    "classify.enumerated": "count", "classify.self_s": "s",
    "phi.check_assumption_s": "s", "phi.check_assumption_self_s": "s",
    "kernels.pair_witness_sweep_s": "s", "kernels.pairs_evaluated": "count",
    "kernels.pair_ns": "ns",
    "kernels.poly_consistency_sweep_s": "s", "kernels.poly_points": "count",
    "kernels.decompose_unique_sweep_s": "s", "kernels.decompose_points": "count",
    "kernels.predicate_flags_box_s": "s", "kernels.flag_points": "count",
    "kernels.self_s": "s",
    "affine.orbit_in_box_s": "s", "affine.orbit_box_points": "count",
    "affine.orbit_elements": "count", "affine.shift_bijection_s": "s",
    "affine.shift_checks": "count", "affine.self_s": "s",
    "cli.start_ms": "ms", "cli.import_ms": "ms",
    "cli.classify_ms": "ms", "cli.decompose_ms": "ms",
    "cli.enumerate-pr_ms": "ms", "cli.validate_ms": "ms",
    "cli.assumption-check_ms": "ms", "cli.counterexample_ms": "ms",
    "cli.orbit-shift_ms": "ms", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%", "trace.spans": "count",
}


class Session:
    """Runs and times the library calls of one run, one after another."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops = []  # (name, seconds) of the current round
        self.attempted = 0
        self.failed = 0
        self.failures = []  # one line per failed operation

    def call(self, name, fn, *args, expect=(), **kwargs):
        """Time one operation; a documented ``expect`` exception is its answer."""
        begin = time.perf_counter()
        try:
            result = self.tracer.call(name, fn, *args, **kwargs)
        except expect as exc:
            result = exc
        except Exception as exc:  # counted, reported and makes the run incorrect
            self.failed += 1
            self.failures.append(
                f"operation {name} raised {type(exc).__name__}: {exc}"
            )
            print(f"operation {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            result = FAILED
        self.ops.append((name, time.perf_counter() - begin))
        self.attempted += 1
        return result


def best_round(rounds):
    """Each operation's best time over the rounds, and their sum.

    Every round runs the same operations in the same order, so position
    k of each round is the same call.  The work is deterministic and
    CPU-bound, so a slower sample of a call is time the machine gave to
    something else; the best of a call's samples is its own cost (the
    reasoning of ``timeit``), and summing them gives the job list's
    time with the machine's slow spells left out.  Returns (seconds,
    seconds per operation name).
    """
    names = [name for name, _ in rounds[0]]
    by_name = defaultdict(float)
    if any([name for name, _ in ops] != names for ops in rounds):
        # An operation failed and its round skipped the ones depending on
        # it: fall back to the fastest round.
        for name, t in min(rounds, key=lambda ops: sum(t for _, t in ops)):
            by_name[name] += t
        return sum(by_name.values()), by_name
    for name, *samples in zip(names, *([t for _, t in ops] for ops in rounds)):
        by_name[name] += min(samples)
    return sum(by_name.values()), by_name


def digest(outputs):
    """SHA-256 of a round's answers, so a run need not keep them.

    The pickler's memo is off, so the bytes depend on the values alone,
    not on which objects the program happened to share.
    """
    sha = hashlib.sha256()

    class Sink:
        write = sha.update

    pickler = pickle.Pickler(Sink(), protocol=5)
    pickler.fast = True
    pickler.dump(outputs)
    return sha.hexdigest()


def environment(pw, seed):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "kernel_backend": pw.kernel_backend_name,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def setup_probe_child(name, seed):
    """One set-up sample: ``setup_probe.py`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run(args):
    workload = WORKLOADS[args.workload]
    pw = workloads.import_polyweight()
    inputs = workload.inputs(args.seed)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = tracing.Tracer(run_id)
    session = Session(tracer)

    problems = []
    first = None
    rounds = []  # (operations, traced)
    probes = defaultdict(list)
    setups = []
    timed = 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        session.ops = []
        if traced:
            with tracer.recording(pw):
                outputs, state, elapsed = tracer.call(
                    "bench.round", traced_round, workload, pw, inputs, session,
                    probes,
                )
        else:
            state = workload.build(pw, inputs)
            begin = time.perf_counter()
            outputs = workload.run_round(pw, inputs, state, session)
            elapsed = time.perf_counter() - begin
        rounds.append((session.ops, traced))
        if first is None:
            first = digest(outputs)
            problems += workload.check(inputs, state, outputs)
        elif digest(outputs) != first:
            problems.append(f"round {len(rounds)} answered differently from round 1")
        # Keep no round's data or answers past its checks, so the peak RSS
        # is one round's, whatever the number of rounds.
        state = outputs = None
        timed += elapsed
        if not args.trace:
            due = (SETUP_SAMPLES if timed >= args.seconds
                   else math.ceil(SETUP_SAMPLES * timed / args.seconds))
            while len(setups) < due:
                setups.append(setup_probe_child(args.workload, args.seed))
        if timed >= args.seconds and (not args.trace or len(rounds) >= 2):
            break

    # No operation fails on any workload today, so one that raises is a
    # wrong answer, not a slower or faster right one.
    problems += session.failures
    untraced = [ops for ops, traced in rounds if not traced]
    env = environment(pw, args.seed)
    report = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "rounds": len(rounds), "problems": problems,
    }
    OUT.mkdir(exist_ok=True)
    if args.trace:
        traced_ops = [ops for ops, traced in rounds if traced]
        metrics = layer_metrics(tracer, probes, traced_ops, untraced)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        if args.workload == "cli":
            # The largest child: an invocation that loads numpy, larger
            # than the set-up probes, which are children too.
            peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall, by_name = best_round(untraced)
        latencies = [t for ops in untraced for _, t in ops]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
        report["setup_samples_s"] = setups
        report["round_s"] = [sum(t for _, t in ops) for ops in untraced]
        report["workload_metrics"] = workload_metrics(
            workload, inputs, wall, by_name, latencies
        )
    report["metrics"] = metrics
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{suffix}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{session.attempted} operations, {session.failed} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, metric in report.get("workload_metrics", {}).items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in problems[:20]:
        print("WRONG " + problem)
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": session.attempted,
        "failed": session.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def workload_metrics(workload, inputs, wall, by_name, latencies):
    """Timings reported with no bound: ``wall_s``, the workload's own rates
    on the best-time round, and the CLI's invocation latencies."""
    units = {"pairs_per_s": "pairs/s", "sweep_classes_per_s": "classes/s",
             "scalar_weights_per_s": "weights/s"}
    out = {"wall_s": {"value": wall, "unit": "s"}}
    for key, value in workload.round_metrics(inputs, by_name).items():
        out[key] = {"value": value, "unit": units[key]}
    if workload.name == "cli":
        out["invocation_p50_ms"] = {
            "value": statistics.median(latencies) * 1000, "unit": "ms"
        }
        if len(latencies) >= 100:
            out["invocation_p90_ms"] = {
                "value": percentile(latencies, 90) * 1000, "unit": "ms"
            }
    return out


def traced_round(workload, pw, inputs, session, probes):
    """One round with its set-up and, for ``cli``, the in-process probes.

    Only the operations are timed; the spans cover all three parts.
    """
    tracer = session.tracer
    state = tracer.call("bench.setup", workload.build, pw, inputs, tracer.call)
    begin = time.perf_counter()
    outputs = tracer.call(
        "bench.ops", workload.run_round, pw, inputs, state, session
    )
    elapsed = time.perf_counter() - begin
    if hasattr(workload, "probe"):
        samples = tracer.call(
            "bench.probe", workload.probe, pw, inputs, state, tracer
        )
        for key, values in samples.items():
            probes[key] += values
    return outputs, state, elapsed


def layer_metrics(tracer, probes, traced, untraced):
    """Per-layer medians over traced rounds, and the tracing overhead."""
    rows = tracing.aggregate(tracer.spans, "bench.round")
    values = {}
    for key in LAYER_METRICS:
        if key in probes:
            values[key] = statistics.median(probes[key])
        elif key.startswith("cli.") and key.endswith("_ms"):
            # Milliseconds per in-process call of one subcommand.
            name = key[:-3]
            values[key] = statistics.median(
                row.get(name + "_s", 0) / row[name + "_calls"] * 1000
                if row.get(name + "_calls") else 0
                for row in rows
            )
        else:
            values[key] = tracing.median_of(rows, key)
    values["phi.check_assumption_self_s"] = tracing.median_of(rows, "phi.self_s")
    values["kernels.pair_ns"] = statistics.median(
        row["kernels.pair_witness_sweep_s"] / row["kernels.pairs_evaluated"] * 1e9
        if row.get("kernels.pairs_evaluated") else 0
        for row in rows
    ) if rows else 0
    traced_wall = best_round(traced)[0]
    untraced_wall = best_round(untraced)[0]
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_pct"] = (traced_wall / untraced_wall - 1) * 100
    values["trace.spans"] = len(tracer.spans)
    return {
        key: {"value": values[key], "unit": unit}
        for key, unit in LAYER_METRICS.items()
    }


def run_all(args):
    """Every workload to its end, one after another, each in its own process.

    A process per workload keeps each peak RSS and each import its own.
    Prints each workload's report, then one JSON object over all four;
    returns 1 when any answer was wrong.
    """
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run(args)
    except workloads.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

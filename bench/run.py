"""Benchmark of the metric-grouper CLI on four seeded workloads.

One workload, the form BENCHMARK.json's command takes (it gates the
workloads in ``workloads.GATED``):

    python3 bench/run.py --workload catalog --seed 1 --seconds 55 --trace 0

Every workload, end-to-end and traced, with the full report:

    python3 bench/run.py --all --seed 1 --seconds 55

Run from the root of a source checkout. The inputs are generated from
the seed before any timing; then the workload's command runs in fresh
processes, one at a time (a closed loop of one caller), until the time
budget is spent. ``--trace 0`` reports the end-to-end metrics, with a
``validate`` run (for ``setup_s``) before each command run, inside the
budget; ``--trace 1`` splits the budget between untraced runs and traced
runs (see tracing.py) and reports the per-layer metrics. Every run is checked
for correctness; a failed check counts against ``error_rate`` and does
not stop the set. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# At least this many validate runs give setup_s, one before each command
# run and the rest after the last.
SETUP_RUNS = 5
# Every child is killed at this point after start, so that an invocation
# ends well inside 180 seconds even when a run hangs.
DEADLINE_S = 165.0

# (name, unit, better). Gated end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# End-to-end but not gated: quality is deterministic, entropy and the
# error rate are 0 at a healthy commit. Printed with the ones above.
REPORTED = (
    ("purity", "ratio", "higher"),
    ("entropy", "bits", "lower"),
    ("error_rate", "ratio", "lower"),
)
PER_LAYER = (
    ("startup.s", "s", "lower"),
    ("corpus.load_word_vectors.s", "s", "lower"),
    ("corpus.load_word_vectors.calls", "count", "lower"),
    ("corpus.vector_rows_per_s", "1/s", "higher"),
    ("corpus.load_corpus.s", "s", "lower"),
    ("corpus.load_corpus.calls", "count", "lower"),
    ("lexicon.incompatible.s", "s", "lower"),
    ("lexicon.incompatible.calls", "count", "lower"),
    ("pairs.generate_pairs.self_s", "s", "lower"),
    ("pairs.positive_candidates", "count", "lower"),
    ("pairs.positives_kept", "count", "higher"),
    ("pairs.keep_ratio", "ratio", "higher"),
    ("pairs.io_s", "s", "lower"),
    ("composition.compose_test_phrase.s", "s", "lower"),
    ("composition.compose_test_phrase.calls", "count", "lower"),
    ("composition.context_tokens", "count", "lower"),
    ("composition.distinct_ratio", "ratio", "higher"),
    ("network.train.s", "s", "lower"),
    ("network.steps", "count", "lower"),
    ("network.us_per_step", "us", "lower"),
    ("network.pair_gradients.s", "s", "lower"),
    ("network.compose_backward.s", "s", "lower"),
    ("network.params_finite.s", "s", "lower"),
    ("network.objective.s", "s", "lower"),
    ("network.train.self_s", "s", "lower"),
    ("clustering.kmeans.s", "s", "lower"),
    ("clustering.kmeans.calls", "count", "lower"),
    ("clustering.restarts", "count", "lower"),
    ("clustering.ms_per_restart", "ms", "lower"),
    ("clustering.lloyd_iters", "count", "lower"),
    ("clustering.phrase_points.self_s", "s", "lower"),
    ("evaluation.evaluate_run.self_s", "s", "lower"),
    ("evaluation.contingency.calls", "count", "lower"),
    ("ablation.run_ablation.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("purity", "ratio", "higher"),
    ("entropy", "bits", "lower"),
)
UNITS = {name: (unit, better) for name, unit, better in END_TO_END + REPORTED + PER_LAYER}


class Run:
    """One finished child process and the verdict on its outputs."""

    def __init__(self, kind, wall_s, rusage, code):
        self.kind = kind
        self.wall_s = wall_s
        self.peak_rss_mb = rusage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.code = code
        self.problem = None if code == 0 else f"exit code {code}"
        self.purity = self.entropy = None
        self.layers = None          # traced runs only
        self.unwrapped = []
        self.span_self_sum = None

    def record(self):
        return {k: v for k, v in vars(self).items() if k != "layers"}


class Invocation:
    """Runs of one workload's command on one generated input set."""

    def __init__(self, workload, inputs, work_dir, deadline):
        self.workload = workloads.WORKLOADS[workload]
        self.inputs = inputs
        self.work_dir = work_dir
        self.deadline = deadline
        self.runs = []
        self.reference = None  # manifest output checksums of the first good run
        self.env = dict(os.environ, PYTHONPATH=SRC)
        # Ablation combos run serially, so traced spans nest in one thread.
        self.env.pop("METRIC_GROUPER_THREADS", None)

    def _spawn(self, argv, kind):
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("benchmark deadline reached before the run started")
        log = open(os.path.join(self.work_dir, f"{len(self.runs)}-{kind}.log"), "wb")
        with log:
            t0 = time.perf_counter()
            # A traced child is told its spawn time, where its root span starts.
            argv = [a.replace("{t0}", repr(t0)) for a in argv]
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=log)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _pid, status, rusage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        run = Run(kind, wall, rusage, proc.returncode)
        self.runs.append(run)
        return run

    def validate(self):
        argv = [sys.executable, "-m", "metric_grouper", "validate", *self.inputs.cli_args()]
        return self._spawn(argv, "validate")

    def command(self, traced=False):
        out_dir = os.path.join(self.work_dir, f"out-{len(self.runs)}")
        cli_args = [self.workload.command, *self.inputs.cli_args(),
                    *self.workload.flags, "--out-dir", out_dir]
        if traced:
            spans = os.path.join(self.work_dir, f"spans-{len(self.runs)}.json")
            argv = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"),
                    "--spans", spans, "--t0", "{t0}", "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "metric_grouper", *cli_args]
        run = self._spawn(argv, "traced" if traced else "command")
        if run.code == 0:
            self._check(run, out_dir)
        if traced and run.code == 0:
            with open(spans, encoding="utf-8") as fh:
                doc = json.load(fh)
            run.layers = tracing.layer_metrics(doc)
            run.unwrapped = doc["unwrapped"]
            run.span_self_sum = sum(tracing.self_times(tracing.load_spans(doc)))
        if self.inputs.sizes.get("pairs_kept") is None:
            self.inputs.sizes["pairs_kept"] = _pairs_kept(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return run

    def _check(self, run, out_dir):
        """Quality row, perfect-score anchor and rerun-identical artifacts."""
        wl = self.workload
        try:
            with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh)
            outputs = {cmd: entry["outputs"] for cmd, entry in manifest["commands"].items()}
            if wl.command == "ablate":
                with open(os.path.join(out_dir, "ablation.json"), encoding="utf-8") as fh:
                    row = json.load(fh)["combos"][wl.row]
            else:
                with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
                    row = json.load(fh)["methods"][wl.row]
            run.purity, run.entropy = row["purity_mean"], row["entropy_mean"]
        except (OSError, ValueError, KeyError) as exc:
            run.problem = f"unreadable outputs: {exc!r}"
            return
        if wl.expect_perfect and (run.purity != 1.0 or run.entropy != 0.0):
            run.problem = (f"{wl.row} scored purity {run.purity} / entropy {run.entropy}, "
                           f"expected 1.0 / 0.0")
        elif self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            run.problem = "artifact checksums differ from the first run of this invocation"

    def measure(self, budget, traced=False, setup=None):
        """Closed loop of runs while the next is expected to end within ``budget`` s.

        Given a ``setup`` list, a ``validate`` run goes before each command
        run and is appended to it, so that set-up is sampled across the
        whole budget, not only at its start.
        """
        start = time.perf_counter()
        runs, rounds = [], []
        while True:
            began = time.perf_counter()
            if setup is not None:
                setup.append(self.validate())
            runs.append(self.command(traced))
            now = time.perf_counter()
            rounds.append(now - began)
            expected = statistics.median(rounds)
            if now - start + expected > budget or now + expected > self.deadline:
                return runs


def _generate(name, out_dir, seed):
    """Inputs of one workload, written by a separate process (see workloads.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "workloads.py"), name, out_dir, str(seed)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True)
    return workloads.Inputs(**json.loads(proc.stdout))


def _pairs_kept(out_dir):
    """Pair count from a run's pairs.jsonl header, if the command wrote one."""
    try:
        with open(os.path.join(out_dir, "pairs.jsonl"), encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        return header["positives"] + header["negatives"]
    except (OSError, ValueError, KeyError):
        return None


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile_note(values):
    """Highest of p99/p90/p75 with at least ten samples beyond it, if any."""
    n = len(values)
    for pct in (99, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            return f"p{pct} {q:.6g}"
    return ""


def _git_commit():
    """HEAD of the checkout from .git files, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _metric(name, value):
    return {"value": value, "unit": UNITS[name][0]}


def run_workload(name, seed, seconds, trace):
    """Generate, run and check one workload; returns the full result."""
    deadline = time.perf_counter() + DEADLINE_S
    work_dir = os.path.join(WORK, f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    inputs = _generate(name, os.path.join(work_dir, "inputs"), seed)
    inv = Invocation(name, inputs, work_dir, deadline)

    # The budget covers every timed run, the validate runs included.
    start = time.perf_counter()
    setup = []
    if trace:
        untraced = inv.measure(seconds / 2)
        traced = inv.measure(seconds - (time.perf_counter() - start), traced=True)
    else:
        untraced, traced = inv.measure(seconds, setup=setup), []
        while len(setup) < SETUP_RUNS and time.perf_counter() < deadline:
            setup.append(inv.validate())

    good = [r for r in untraced if r.problem is None] or untraced
    failed = sum(1 for r in inv.runs if r.problem is not None)
    scored = [r for r in untraced + traced if r.purity is not None]
    reported = {
        "purity": scored[0].purity if scored else 0.0,
        "entropy": scored[0].entropy if scored else 0.0,
        "error_rate": failed / len(inv.runs),
    }
    if trace:
        layered = [r for r in traced if r.layers is not None]
        metrics = {}
        for metric, _unit, _better in PER_LAYER:
            values = [r.layers[metric] for r in layered if metric in r.layers]
            metrics[metric] = _metric(metric, _median(values))
        metrics["cli.cpu_s"] = _metric("cli.cpu_s", _median([r.cpu_s for r in good]))
        metrics["trace.overhead_s"] = _metric(
            "trace.overhead_s",
            _median([r.wall_s for r in traced]) - _median([r.wall_s for r in good]))
        metrics["purity"] = _metric("purity", reported["purity"])
        metrics["entropy"] = _metric("entropy", reported["entropy"])
    else:
        metrics = {
            "wall_s": _metric("wall_s", _median([r.wall_s for r in good])),
            "setup_s": _metric("setup_s", _median([r.wall_s for r in setup])),
            "peak_rss_mb": _metric("peak_rss_mb", _median([r.peak_rss_mb for r in good])),
        }
    shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "workload": name,
        "command": inv.workload.command,
        "why": inv.workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "sizes": inputs.sizes,
        "correct": failed == 0,
        "attempted": len(inv.runs),
        "failed": failed,
        "metrics": metrics,
        "reported": reported,
        "samples": {
            "wall_s": [r.wall_s for r in good],
            "setup_s": [r.wall_s for r in setup],
            "peak_rss_mb": [r.peak_rss_mb for r in good],
            "traced_wall_s": [r.wall_s for r in traced],
            "traced_span_self_sum_s": [r.span_self_sum for r in traced],
        },
        "unwrapped": sorted({u for r in traced for u in r.unwrapped}),
        "runs": [r.record() for r in inv.runs],
    }


def report(result, out=sys.stdout):
    """Human-readable lines: environment, sizes, every metric with its unit."""
    def line(text=""):
        print(text, file=out)

    line(f"== workload {result['workload']} ({result['command']}), seed {result['seed']}, "
         f"trace {result['trace']}, {result['seconds']} s budget")
    line(f"   why: {result['why']}")
    line("   environment: " + json.dumps(result["environment"], sort_keys=True))
    line("   sizes: " + json.dumps(result["sizes"], sort_keys=True))
    samples = result["samples"]
    rows = []
    if result["trace"]:
        rows.append((f"per-layer, median of {len(samples['traced_wall_s'])} traced runs", None))
        rows += [(m, None) for m in result["metrics"]]
    else:
        rows.append(("end-to-end", None))
        rows += [(m, samples[m]) for m in ("wall_s", "setup_s", "peak_rss_mb")]
    for name, values in rows:
        if name not in UNITS:
            line(f"   {name}:")
            continue
        unit, better = UNITS[name]
        value = result["metrics"][name]["value"]
        extra = f"median of n={len(values)} {_percentile_note(values)}" if values else ""
        line(f"     {name:<40} {value:>16.6f} {unit:<6} {better:<6} is better  {extra}")
    line("   end-to-end, reported, not gated:")
    for name, value in result["reported"].items():
        unit, better = UNITS[name]
        line(f"     {name:<40} {value:>16.6f} {unit:<6} {better:<6} is better")
    line(f"   runs: {result['attempted']} attempted, {result['failed']} failed")
    for run in result["runs"]:
        if run["problem"]:
            line(f"   FAILED {run['kind']} run: {run['problem']}")
    if result["unwrapped"]:
        line(f"   not traced (absent from the program): {', '.join(result['unwrapped'])}")


def _save(result, label):
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="one of: fixture, catalog, long-context, "
                                          "fixture-ablate")
    which.add_argument("--all", action="store_true",
                       help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "metric_grouper", "cli.py")):
        print(f"error: no program source at {SRC}; run from the root of a "
              f"metric-grouper checkout", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # Byte-compile once up front: no timed run pays for it.
    compileall.compile_dir(os.path.join(SRC, "metric_grouper"), quiet=1)

    if not args.all:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        report(result)
        print(f"   results: {_save(result, f'{args.workload}-seed{args.seed}-trace{args.trace}')}")
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    # Each invocation in its own process, so that none inherits the
    # resident set another one left in this process (see workloads.py).
    summary = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            entry = summary.setdefault(name, {"correct": True, "attempted": 0, "failed": 0,
                                              "metrics": {}})
            entry["correct"] &= result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
            entry["error_rate"] = entry["failed"] / entry["attempted"]
    print(f"   results: {_save(summary, f'all-seed{args.seed}')}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

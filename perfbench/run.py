"""mkpolys benchmark: time fixed workloads end to end, or trace their layers.

    python3 perfbench/run.py --workload compute-rank2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Load model: a closed loop with one client.  A repetition runs the
workload's jobs one after another in a fresh single-threaded interpreter
(jobs.py), so every repetition pays interpreter start, `import mkpolys`
and the fill of mkengine's process-global operator cache, as a
`mkpolys compute` user does.  A run first starts PROBES interpreters that
only import mkpolys, then repeats the workload while another repetition
still fits in --seconds (at least once), and reports medians.

End-to-end times are in reference seconds (pace.py): each measured time
is scaled by the host speed a fixed kernel saw while it ran, so that the
speed drift of a shared host does not read as a change of mkpolys.  The
measured seconds are printed too, marked "(measured)".

With --trace 1 a run makes one repetition with the layer wrappers of
spans.py installed and one without, and reports per-layer metrics plus the
tracing overhead (traced minus untraced measured wall time).  Spans are
written to perfbench/out/.

Every job's result is checked (see jobs.py); the last line of standard
output is a JSON object with keys correct, attempted, failed and metrics.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
JOBS = os.path.join(HERE, "jobs.py")

from jobs import WORKLOADS
from pace import Pacer, scale
from spans import layer_metrics, load

DEFAULT_SEED = 1
PROBES = 20             # import-only interpreters per run, for setup_s
PROBE_SAMPLES = 10      # kernel samples before and after each probe
CHILD_TIMEOUT_S = 150   # a repetition this long is hung: stop the run

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("job_max_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def spawn(workload, seed, trace_file="-"):
    """One repetition in a fresh interpreter; returns its measurements.

    Times named *_raw_s are measured seconds.  In an untraced repetition
    the child paces every job (pace.py), and wall_s, job_max_s and cpu_s
    are the same times in reference seconds."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, JOBS, SRC, workload, str(seed), trace_file],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s repetition exceeded %d s" % (workload, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("%s repetition exited with code %d" % (workload, proc.returncode))
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux: one clock for both processes
    rep["setup_raw_s"] = rep["ready"] - start
    rep["peak_rss_mb"] = rep["maxrss_kb"] / 1024.0
    jobs = rep["jobs"]
    if jobs and trace_file != "-":
        rep["wall_raw_s"] = jobs[-1]["end"] - jobs[0]["start"]
    elif jobs:
        # the kernel's own time inside a job is not the job's
        raw = [j["end"] - j["start"] - j["kernel_s"] for j in jobs]
        ref = [t * scale(j["kernel_inv_sum"], j["kernel_count"]) for t, j in zip(raw, jobs)]
        rep["wall_raw_s"], rep["wall_s"] = sum(raw), sum(ref)
        rep["job_max_raw_s"], rep["job_max_s"] = max(raw), max(ref)
        rep["cpu_raw_s"] = rep["cpu_s"]
        rep["cpu_s"] *= scale(sum(j["kernel_inv_sum"] for j in jobs),
                              sum(j["kernel_count"] for j in jobs))
    return rep


def probe(seed, pacer):
    """setup_s of one import-only interpreter, raw and in reference
    seconds, paced by kernel samples taken just before and after it."""
    mark = pacer.mark()
    for _ in range(PROBE_SAMPLES):
        pacer.sample()
    raw = spawn("probe", seed)["setup_raw_s"]
    for _ in range(PROBE_SAMPLES):
        pacer.sample()
    return raw, raw * scale(pacer.inv_sum - mark[0], pacer.count - mark[1])


def timed_run(workload, seed, seconds):
    """End-to-end metrics: medians over the repetitions of one run."""
    pacer = Pacer()
    setups = [probe(seed, pacer) for _ in range(PROBES)]
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(spawn(workload, seed))
        longest = max(rep["wall_raw_s"] + rep["setup_raw_s"] for rep in reps)
        if time.perf_counter() - t0 + longest > seconds:
            break
    metrics = {name: (statistics.median(rep[name] for rep in reps), unit)
               for name, unit in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = (statistics.median(ref for _, ref in setups), "s")
    raw = {name: statistics.median(rep[name] for rep in reps)
           for name in ("wall_raw_s", "job_max_raw_s", "cpu_raw_s")}
    raw["setup_raw_s"] = statistics.median(r for r, _ in setups)
    return reps, metrics, raw


def traced_run(workload, seed):
    """Per-layer metrics from one traced repetition, plus the overhead
    against one untraced repetition."""
    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, "trace-%s-seed%d.jsonl" % (workload, seed))
    traced = spawn(workload, seed, trace_file)
    plain = spawn(workload, seed)
    metrics = layer_metrics(load(trace_file))
    metrics["trace.wall_s"] = (traced["wall_raw_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_raw_s"] - plain["wall_raw_s"], "s")
    return [traced, plain], metrics, {}


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
    }


def run_one(workload, seed, seconds, trace):
    print("context %s" % json.dumps(context(workload, seed, seconds, trace)), flush=True)
    if trace:
        reps, metrics, raw = traced_run(workload, seed)
    else:
        reps, metrics, raw = timed_run(workload, seed, seconds)
    attempted = sum(len(rep["jobs"]) for rep in reps)
    failed = [job for rep in reps for job in rep["jobs"] if not job["ok"]]
    for job in failed:
        print("FAILED %s: %s" % (job["name"], job["error"] or "check returned False"))
    # error_rate is printed but not in the JSON result: it is carried by
    # attempted and failed
    print("%s: %d repetitions, %d jobs, error_rate %.4f ratio"
          % (workload, len(reps), attempted, len(failed) / attempted))
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6f %s" % (name, value, unit))
    for name, value in raw.items():
        print("  %-40s %14.6f s (measured)" % (name, value))
    result = {
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "mkpolys", "__init__.py")):
        print("error: no mkpolys sources under %s" % SRC, file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            run_one(workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

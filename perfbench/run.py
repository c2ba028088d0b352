"""Benchmark of the photonsim command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: photonsim is imported from
``src/``.  One client calls ``photonsim.cli.main(argv)`` in this process
as a closed loop, each op starting when the previous one returns.  The
last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run environment.

``--trace 0`` runs ops until ``--seconds`` have passed and reports the
end-to-end metrics.  Op and set-up times are CPU seconds of this process
and its children: on a shared virtual machine they leave out the time
the host gives to other guests, which moves wall times of whole runs by
tens of percent (see README.md).  Wall times go on the environment
line.  ``--trace 1`` runs a fixed number of ops, scaled from
``--seconds``, once untraced and once traced, reports per-layer metrics
and writes the spans to ``.perfbench/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
# Typical op time at the commit that introduced this benchmark, on a
# 2-core x86 host; it only sizes the traced run, which must repeat its
# counts exactly and so runs a fixed number of ops.
NOMINAL_OP_S = {"lorentzian-sweep": 5.0, "tabulated-pulse": 1.0, "spectral-maps": 0.45}

END_TO_END = {
    "setup_s": "s",
    "op_cpu_p50_s": "s",
    "ops_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def steal_seconds():
    """Time the host gave to other guests, summed over this machine's
    CPUs (the steal column of /proc/stat), or None where there is none."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup(workload: str, seed: int, workdir: Path):
    """Import photonsim and build the op pool; returns (ops, CPU seconds)."""
    start = cpu_seconds()
    sys.path.insert(0, str(SRC))
    import photonsim.cli  # noqa: F401

    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(workload, seed, workdir)
    return ops, cpu_seconds() - start


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median set-up CPU time over fresh interpreters, so that the import
    is timed cold each time."""
    samples = []
    for r in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup-{r}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe", str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(samples)


def run_op(op, out_path: Path):
    """One CLI call; returns (exit code, (wall, CPU) seconds, output bytes,
    stdout, stderr)."""
    import photonsim.cli

    out_path.unlink(missing_ok=True)
    argv = [*op.argv, "--output", str(out_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    cpu, start = cpu_seconds(), time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = photonsim.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the flags
            rc = exc.code if isinstance(exc.code, int) else 2
    seconds = (time.perf_counter() - start, cpu_seconds() - cpu)
    output = out_path.read_bytes() if out_path.exists() else b""
    return rc, seconds, output, stdout.getvalue(), stderr.getvalue()


@dataclass
class Stats:
    times: list = field(default_factory=list)  # wall seconds per op
    cpu_times: list = field(default_factory=list)
    failed: int = 0
    output_bytes: int = 0
    norm_dev_max: float = 0.0
    amp_err_max: float = 0.0
    reasons: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)


def execute(ops, workdir: Path, *, count=None, seconds=None, tracer=None) -> Stats:
    """Run ops in order, ``count`` of them or for ``seconds`` (at least two,
    so that op 1 always repeats op 0), checking each one's output."""
    import checks

    stats = Stats()
    first = None
    start = time.perf_counter()
    i = 0
    while i < count if count is not None else (i < 2 or time.perf_counter() - start < seconds):
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        rc, (dt, cpu), output, out, err = run_op(op, workdir / f"out{op.suffix}")
        outcome = checks.check(op, rc, output, out)
        if i == 0:
            first = (output, out)
        elif i == 1 and (output, out) != first:
            outcome = checks.Outcome(False, "output of the repeated op 0 differs")
        stats.times.append(dt)
        stats.cpu_times.append(cpu)
        stats.output_bytes += len(output) + len(out.encode())
        stats.norm_dev_max = max(stats.norm_dev_max, outcome.norm_dev or 0.0)
        stats.amp_err_max = max(stats.amp_err_max, outcome.amp_err or 0.0)
        if not outcome.ok:
            stats.failed += 1
            stats.reasons.append(f"op {i} {' '.join(op.argv)}: {outcome.reason} {err.strip()}")
        i += 1
    return stats


def timed_metrics(stats: Stats, setup_s: float) -> dict:
    t = stats.cpu_times
    return {
        "setup_s": setup_s,
        "op_cpu_p50_s": statistics.median(t),
        "ops_per_cpu_s": len(t) / sum(t),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (stats.attempted - stats.failed) / stats.attempted,
    }


def wall_times(stats: Stats, steal_s) -> dict:
    """Wall-time figures for the environment line: the median, the rate,
    and p90 with the count beyond it (only spectral-maps completes enough
    ops in a run to leave ten beyond p90; see README.md), beside the
    host's steal time over the timed loop."""
    t = stats.times
    p90 = statistics.quantiles(t, n=10, method="inclusive")[-1]
    return {"op_wall_p50_s": statistics.median(t), "ops_per_wall_s": len(t) / sum(t),
            "op_p90_s": p90, "beyond_p90": sum(x > p90 for x in t), "steal_s": steal_s}


def trace_op_count(workload: str, seconds: float) -> int:
    return max(2, int(seconds / (2.0 * NOMINAL_OP_S[workload])))


# Per-layer metrics the harness measures itself, beside tracing.LAYER_METRICS.
HARNESS_LAYER_METRICS = [
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("observables.norm_dev_max", "frac"),
    ("amplitudes.amp_err_max", "frac"),
]


def per_layer_units() -> dict:
    import tracing

    return dict(tracing.LAYER_METRICS + HARNESS_LAYER_METRICS)


def traced_run(ops, workdir: Path, count: int):
    """Untraced then traced pass over the same ops; returns (per-layer
    metrics, spans, both passes' stats)."""
    import tracing

    plain = execute(ops, workdir, count=count)
    with tracing.Tracer() as tracer:
        traced = execute(ops, workdir, count=count, tracer=tracer)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    metrics.update({
        "cli.output_bytes": float(traced.output_bytes),
        "trace.overhead_s": sum(traced.times) - sum(plain.times),
        "observables.norm_dev_max": traced.norm_dev_max,
        "amplitudes.amp_err_max": traced.amp_err_max,
    })
    return metrics, tracer.spans, (plain, traced)


def _environment(args, stats_list, extra) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "default_threads": os.cpu_count(),
        "photonsim_threads_env": os.environ.get("PHOTONSIM_THREADS"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "commit": commit, "src_sha256": digest.hexdigest(),
        "ops": [s.attempted for s in stats_list], **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "photonsim" / "__init__.py").is_file():
        print(f"perfbench: no photonsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup(args.workload, args.seed, Path(args.setup_probe))[1])
        return 0

    workdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            ops, _ = setup(args.workload, args.seed, workdir)
            count = trace_op_count(args.workload, args.seconds)
            metrics, spans, passes = traced_run(ops, workdir, count)
            spans_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
            spans_path.write_text(json.dumps({
                "fields": ["id", "name", "start", "end", "parent", "op", "thread"],
                "spans": [[s.id, s.name, s.start, s.end, s.parent, s.op, s.thread] for s in spans],
            }))
            extra = {"trace_ops": count, "spans": len(spans)}
            units = per_layer_units()
        else:
            setup_s = setup_seconds(args.workload, args.seed, workdir)
            ops, _ = setup(args.workload, args.seed, workdir)
            steal = steal_seconds()
            passes = (execute(ops, workdir, seconds=args.seconds),)
            if steal is not None:
                steal = steal_seconds() - steal
            metrics = timed_metrics(passes[0], setup_s)
            extra = wall_times(passes[0], steal)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for stats in passes:
        for reason in stats.reasons:
            print(f"perfbench: failed {reason}", file=sys.stderr)
    attempted = sum(s.attempted for s in passes)
    failed = sum(s.failed for s in passes)
    print("# env " + json.dumps(_environment(args, passes, extra), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

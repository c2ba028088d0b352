"""Fast smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs a few ops of every workload on tiny grids and checks that every
metric named in BENCHMARK.json is emitted with its unit, that the
traced counters repeat exactly, and that the correctness checks reject
deliberately wrong outputs and a deliberately wrong reference.  Exits
non-zero on the first failed assertion.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_GRID = {"probabilities": "-8:8:17", "amplitudes": "-3:3:13", "schmidt": "-3:3:13"}
TAB_TINY_GRID = "-12:12:25"
OPS_PER_WORKLOAD = 3


def tiny(op):
    """The op on a small grid; `single` keeps its automatic window, which
    must hold the pulse."""
    if op.argv[0] == "single":
        return op
    grid = TAB_TINY_GRID if "--pulse-csv-l" in op.argv else TINY_GRID[op.argv[0]]
    return dataclasses.replace(op, argv=(*op.argv, f"--grid={grid}"))


def expect_metrics(metrics, specs, units):
    names = [m["name"] for m in specs]
    assert sorted(metrics) == sorted(names), (sorted(metrics), sorted(names))
    for m in specs:
        assert units[m["name"]] == m["unit"], m
        assert isinstance(metrics[m["name"]], float) and math.isfinite(metrics[m["name"]]), m


def smoke_workload(workload, workdir):
    ops, _ = run.setup(workload, 1, workdir)
    ops = [tiny(op) for op in ops[:OPS_PER_WORKLOAD]]
    stats = run.execute(ops, workdir, count=len(ops))
    assert stats.failed == 0, stats.reasons
    expect_metrics(run.timed_metrics(stats, 0.1), BENCH["end_to_end"], run.END_TO_END)

    first, _, passes = run.traced_run(ops, workdir, len(ops))
    again, _, _ = run.traced_run(ops, workdir, len(ops))
    assert all(p.failed == 0 for p in passes)
    expect_metrics(first, BENCH["per_layer"], run.per_layer_units())
    for name in ("quadrature.rungs", "quadrature.rung_evals", "observables.tail_evals"):
        assert first[name] == again[name], (name, first[name], again[name])
    assert first["quadrature.rungs"] > 0
    tails = first["observables.tail_calls"]
    assert (tails > 0) if workload == "lorentzian-sweep" else (tails == 0), tails
    print(f"ok   {workload}: {stats.attempted} ops, rungs {first['quadrature.rungs']:.0f}")


def smoke_checks(workdir):
    import checks

    maps, _ = run.setup("spectral-maps", 1, workdir)
    lr = next(tiny(op) for op in maps if op.kind == "amp_csv" and op.info["channel"] == "lr")
    rc, _, output, out, _ = run.run_op(lr, workdir / "lr.csv")
    assert checks.check(lr, rc, output, out).ok

    def wrong(w1, w2, info):
        return checks.lr_reference(w1, w2, info) * (1.0 + 1e-4)

    assert not checks.check(lr, rc, output, out, reference=wrong).ok
    assert not checks.check(lr, 3, output, out).ok

    sweep, _ = run.setup("lorentzian-sweep", 1, workdir)
    tab, _ = run.setup("tabulated-pulse", 1, workdir)
    payload = {"p_ll": 0.2, "p_lr": 0.7, "p_rr": 0.05, "total": 0.95, "est_error": 1e-5}
    off = json.dumps(payload).encode()
    assert not checks.check(sweep[0], 0, off, "").ok
    assert checks.check(tab[0], 0, off, "").ok  # the tabulated-pulse norm is reported, not gated
    nan = json.dumps({**payload, "total": float("nan")}).encode()
    assert not checks.check(tab[0], 0, nan, "").ok

    mismatch = run.execute([tiny(sweep[0]), tiny(sweep[2])], workdir, count=2)
    assert mismatch.failed == 1 and "differs" in mismatch.reasons[0], mismatch.reasons
    print("ok   checks reject a wrong reference, a failed exit, a broken norm, NaN and a repeat mismatch")


def smoke_command(workdir):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "spectral-maps",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, result
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCH["end_to_end"])

    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral-maps", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=bare,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok   command prints the result line, and fails without the sources")


def main() -> int:
    workdir = run.OUT / "smoke"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for workload in BENCH["workloads"]:
            smoke_workload(workload["name"], workdir / workload["name"])
        smoke_checks(workdir / "checks")
        smoke_command(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 lockbench/run.py --workload sarlock-split --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``
from untraced rounds; ``--trace 1`` reports its ``per_layer`` metrics,
alternating untraced and traced rounds so ``trace_overhead`` compares
rounds measured under the same host conditions.  Every round's outputs
are checked outside the timed region; a failed check lowers
``ok_frac``, sets ``"correct": false`` and makes the exit code 1.

The line before the result is the run record: provenance (source hash,
git commit when available, Python/numpy versions, host, ``nproc``,
seed, solver backend), the attacked circuits, sample counts, the
workload's own named metrics and any failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _fail(message: str) -> int:
    print(f"lockbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="lockbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro sources under {ROOT / 'src'}")
    if not BENCHMARK.is_file():
        return _fail(f"missing {BENCHMARK.name}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from lockbench import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    work_dir = ROOT / ".lockbench_tmp" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    ctx = workloads.Context(seed=args.seed, nproc=_nproc(), work_dir=work_dir)
    workload = workloads.WORKLOADS[args.workload](ctx)
    try:
        if args.setup_probe:
            workload.setup()
            return 0
        return run(workload, args)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        parent = work_dir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def measure_setup(workload, args, repeats: int) -> list[tuple[float, float]]:
    """``(host-normalised, raw)`` set-up times, each from a fresh
    interpreter to a ready workload.

    In-process workloads are probed by running this script with
    ``--setup-probe`` (imports, build, lock) and timing it from spawn
    to exit.  ``serve-warm`` spawns its daemon itself, so it times its
    own set-up (spawn, readiness, priming) and keeps the last daemon.
    Each time is scaled by ``STARTUP_NOMINAL_S`` over a
    :func:`startup_reference` sample taken just before it.
    """
    from lockbench.workloads import STARTUP_NOMINAL_S, startup_reference

    times = []
    for repeat in range(repeats):
        if workload.setup_in_process and repeat:
            workload.close()  # untimed: stop the previous daemon
        reference = startup_reference()
        start = time.perf_counter()
        if workload.setup_in_process:
            workload.setup()
        else:
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--setup-probe"],
                check=True, stdin=subprocess.DEVNULL,
            )
        elapsed = time.perf_counter() - start
        times.append((elapsed * STARTUP_NOMINAL_S / reference, elapsed))
    return times


#: Seconds between reference samples during a run.
REFERENCE_INTERVAL = 1.0


def run_rounds(workload, seconds: float, trace: bool) -> list:
    """Rounds until ``seconds`` have passed; traced ones alternate in.

    The reference loop is sampled before the first round and after any
    round that ends at least :data:`REFERENCE_INTERVAL` after the last
    sample.  A round's ``ref`` is the mean of the samples just before
    and just after it.
    """
    from lockbench.workloads import reference_loop

    rounds = []
    min_rounds = 2 if trace else 1
    start = time.perf_counter()
    samples = [(time.perf_counter(), reference_loop())]
    index = 0
    while index < min_rounds or time.perf_counter() - start < seconds:
        # A traced round repeats the inputs of the untraced one before it.
        traced = trace and index % 2 == 1
        leftovers = []
        if traced:
            workload.trace_begin()
        try:
            rnd = workload.run_round(index // 2 if trace else index)
        finally:
            if traced:
                leftovers = workload.trace_end()
        if time.perf_counter() - samples[-1][0] >= REFERENCE_INTERVAL:
            samples.append((time.perf_counter(), reference_loop()))
        rnd.traced = traced
        workload.check(rnd)
        if traced:
            rnd.ops.append((
                "trace.restored", not leftovers,
                f"still wrapped: {leftovers}" if leftovers else "",
            ))
        rounds.append(rnd)
        index += 1
    if samples[-1][0] < rounds[-1].end:
        samples.append((time.perf_counter(), reference_loop()))
    for rnd in rounds:
        before = [ref for at, ref in samples if at <= rnd.start][-1]
        after = next(ref for at, ref in samples if at >= rnd.end)
        rnd.ref = (before + after) / 2
    return rounds


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child
    (set-up probe, pool worker, or the daemon and its pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(rounds, setup_times, ops) -> dict[str, float]:
    attempted = len(ops)
    ok = sum(1 for op in ops if op[1])
    return {
        "setup_s": median(scaled for scaled, _ in setup_times),
        "round_s": median(r.scaled(r.wall) for r in rounds),
        "dips": median(r.samples["dips"] for r in rounds),
        "ok_frac": ok / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def _p90(values: list[float]) -> float:
    from repro.service.loadgen import percentile

    return percentile(values, 90)


def layer_values(workload, rnd, data: dict) -> tuple[dict, list]:
    """Per-layer metrics of one traced round, plus its trace checks."""
    from lockbench.trace import SPAN_LAYERS, summarize, window

    summary = summarize(window(data, rnd.start, rnd.end))
    self_time, counts = summary["self"], summary["counts"]
    values = {f"{layer}_s": self_time.get(layer, 0.0) for layer in SPAN_LAYERS}
    for name in ("circuit.compiles", "circuit.sim_calls", "opt.calls",
                 "opt.gates_in", "opt.gates_out", "oracle.queries",
                 "sat.solves", "sat.conflicts", "sat.decisions",
                 "sat.propagations", "attacks.miter_vars",
                 "attacks.miter_clauses", "attacks.dips", "core.shards",
                 "runner.task_busy_s", "runner.cache_stores",
                 "runner.cache_loads", "runner.cache_hits", "runner.failed"):
        values[name] = counts.get(name, 0)
    values["opt.optimize_incl_s"] = summary["incl"].get("opt.optimize", 0.0)
    shards = summary["durations"].get("core.shard", [])
    values["core.shard_p90_s"] = _p90(shards) if shards else 0.0
    run_incl = summary["incl"].get("runner.run", 0.0)
    values["runner.pool_util"] = (
        values["runner.task_busy_s"] / (run_incl * workload.ctx.nproc)
        if run_incl and values["runner.task_busy_s"] else 0.0
    )

    served = rnd.extra.get("served", [])
    values["service.queue_wait_s"] = sum(job.record.queued_seconds for job in served)
    values["service.job_s"] = sum(job.run_seconds for job in served)
    values["service.jobs"] = sum(1 for job in served if job.record.responses)
    values["service.rejects"] = sum(job.record.rejected_attempts for job in served)

    covered = sum(values[f"{layer}_s"] for layer in SPAN_LAYERS)
    checks = []
    if served:
        # Daemon threads overlap, so the spans add up to the jobs'
        # client-side latencies, not to the round's elapsed time.
        wall = sum(job.record.latency_seconds for job in served)
        adds_up = covered <= wall + 1e-3
    else:
        wall = rnd.wall
        adds_up = (
            abs(covered - summary["covered"]) <= 1e-6 * len(data["spans"]) + 1e-4
            and covered <= wall + 1e-4
        )
    values["untraced_s"] = wall - covered
    values["traced_round_s"] = rnd.wall
    checks.append((
        "trace.adds_up", adds_up,
        "" if adds_up else f"self times {covered:.6f}s vs wall {wall:.6f}s "
                           f"(union {summary['covered']:.6f}s)",
    ))
    checks.append((
        "trace.self_within_span", summary["bad_spans"] == 0,
        f"{summary['bad_spans']} spans with self time outside [0, span]"
        if summary["bad_spans"] else "",
    ))
    return values, checks


def per_layer(workload, rounds, setup_window) -> tuple[dict[str, float], list]:
    from lockbench.trace import summarize, window

    data = workload.trace_data()
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = []
    checks = []
    for rnd in traced:
        values, round_checks = layer_values(workload, rnd, data)
        per_round.append(values)
        checks.extend(round_checks)
    untraced = {rnd.index: rnd.outputs for rnd in plain}
    for rnd in traced:
        same = rnd.outputs == untraced[rnd.index]
        checks.append((
            f"trace.outputs[{rnd.index}]", same,
            "" if same else "traced outputs differ from untraced outputs",
        ))
    metrics = {
        name: median(values[name] for values in per_round)
        for name in per_round[0]
    }
    # Locking happens in set-up (and in untraced pool workers), never
    # in a round: report the traced set-up's locking time.
    metrics["locking.lock_s"] = (
        summarize(window(data, *setup_window))["self"].get("locking.lock", 0.0)
        if setup_window else 0.0
    )
    metrics["trace_overhead"] = (
        median(r.scaled(r.wall) for r in traced)
        / median(r.scaled(r.wall) for r in plain) - 1
    )
    return metrics, checks


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(args) -> dict:
    from repro.sat.registry import registered_solvers, resolve_solver_name

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "src_sha256": source_hash(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": _nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "solver": resolve_solver_name(None),
        "solvers_available": registered_solvers(),
    }


def run(workload, args) -> int:
    spec = json.loads(BENCHMARK.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    trace = bool(args.trace)

    setup_window = None
    if trace:
        setup_times = []
        if workload.setup_in_process:
            workload.setup()
        else:
            # The benchmark process locks only here: trace it so
            # locking.lock_s has something to report.
            workload.trace_begin()
            start = time.perf_counter()
            try:
                workload.setup()
            finally:
                setup_window = (start, time.perf_counter())
                leftovers = workload.trace_end()
    else:
        before, after = workload.setup_repeats
        setup_times = measure_setup(workload, args, before)
        if not workload.setup_in_process:
            workload.setup()
    workload.prepare()
    rounds = run_rounds(workload, args.seconds, trace)
    if not trace and after:
        setup_times += measure_setup(workload, args, after)
    ops = [op for rnd in rounds for op in rnd.ops]

    if trace:
        computed, trace_checks = per_layer(workload, rounds, setup_window)
        ops.extend(trace_checks)
        if setup_window:
            ops.append(("trace.restored[setup]", not leftovers,
                        f"still wrapped: {leftovers}" if leftovers else ""))
    # Reap the daemon and any pool first, so peak_rss_mb counts them.
    workload.close()
    if not trace:
        computed = end_to_end(rounds, setup_times, ops)
    failed = [op for op in ops if not op[1]]
    samples = {"rounds": len(rounds), "setup": len(setup_times),
               "traced_rounds": sum(1 for r in rounds if r.traced)}
    arms = {
        name: {"value": value, "unit": unit, "samples": n}
        for name, (value, unit, n) in workload.arms(
            [r for r in rounds if not r.traced]
        ).items()
    }
    record = {
        "provenance": provenance(args),
        "circuits": workload.circuits(),
        "samples": samples,
        "setup_s": [scaled for scaled, _ in setup_times],
        "setup_raw_s": [raw for _, raw in setup_times],
        "round_raw_s": median(r.wall for r in rounds),
        "round_walls_s": [r.wall for r in rounds],
        "reference_s": [r.ref for r in rounds],
        "workload_metrics": arms,
        "failed_checks": [{"op": op[0], "reason": op[2]} for op in failed[:20]],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            entry["name"]: {"value": computed[entry["name"]], "unit": entry["unit"]}
            for entry in wanted
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())

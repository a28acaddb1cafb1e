"""Self-tests of the benchmark's checks and tracing.

Run from the repository root with either::

    python3 lockbench/selftest.py
    python3 -m pytest lockbench/selftest.py

The file is not named ``test_*.py``, so the repository's own test suite
does not collect it.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from lockbench import workloads  # noqa: E402
from repro.service.loadgen import RequestRecord  # noqa: E402

from lockbench.trace import (  # noqa: E402
    TARGETS,
    Recorder,
    Tracer,
    _resolve,
    summarize,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _scratch() -> Path:
    base = ROOT / ".lockbench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=base))


def _context(seed: int = 3) -> workloads.Context:
    return workloads.Context(seed=seed, nproc=2, work_dir=_scratch())


def _wrong_in_subspace(workload, locked, split: list[str], index: int) -> int:
    """A SARLock key that corrupts some input of sub-space ``index``.

    SARLock key bit j compares against input j and corrupts the one
    pattern equal to a wrong key.  Matching the sub-space's splitting
    bits keeps that pattern inside the sub-space.
    """
    protected = workload.original.inputs[: workload.key_size]
    correct = locked.correct_key_int
    key = correct
    for j, net in enumerate(split):
        if net in protected:
            bit = protected.index(net)
            key = key & ~(1 << bit) | (((index >> j) & 1) << bit)
    if key == correct:
        free = next(j for j, net in enumerate(protected) if net not in split)
        key ^= 1 << free
    return key


def test_tampered_key_is_caught():
    ctx = _context()
    try:
        single = workloads.SarlockSingle(ctx)
        single.setup()
        single.prepare()
        honest = single.run_round(0)
        single.check(honest)
        assert [op[1] for op in honest.ops] == [True], honest.ops
        tampered = single.run_round(1)
        tampered.outputs["key"] ^= 1
        single.check(tampered)
        assert [op[1] for op in tampered.ops] == [False], tampered.ops
        assert "fails CEC" in tampered.ops[0][2]

        split = workloads.SarlockSplit(ctx)
        split.setup()
        split.prepare()
        honest = split.run_round(0)
        split.check(honest)
        assert [op[1] for op in honest.ops] == [True], honest.ops
        tampered = split.run_round(1)
        tampered.outputs["keys"][3] = _wrong_in_subspace(
            split, split.locks[1], tampered.outputs["split_inputs"], 3
        )
        split.check(tampered)
        assert [op[1] for op in tampered.ops] == [False], tampered.ops
        assert "fails CEC" in tampered.ops[0][2]
    finally:
        shutil.rmtree(ctx.work_dir)


def _served(status: str, result: dict) -> workloads.Served:
    record = RequestRecord(job_id="r0-c0-0", status=status, accepted=True,
                           attempts=1, responses=1)
    return workloads.Served("x", record, result)


def test_tampered_response_is_caught():
    primed = {"spec": {"seeds": [3]}, "cells": [
        {"status": "ok", "key_ints": [5, 6], "wall_seconds": 0.25,
         "metrics": {"corruption": 0.5}},
    ]}
    served = json.loads(json.dumps(primed))
    served["cells"][0]["wall_seconds"] = 9.0  # timing differences are fine
    assert workloads.response_matches(primed, _served("ok", served)) == (True, "")

    for path, value in ((("key_ints",), [5, 7]),
                        (("metrics",), {"corruption": 0.25}),
                        (("status",), "partial")):
        bad = json.loads(json.dumps(primed))
        bad["cells"][0][path[0]] = value
        ok, reason = workloads.response_matches(primed, _served("ok", bad))
        assert not ok and reason, path

    assert not workloads.response_matches(primed, _served("error", primed))[0]


def test_wrappers_are_restored():
    tracer = Tracer(Recorder())
    originals = []
    for _, module, path, *_ in TARGETS:
        owner, attr = _resolve(module, path)
        originals.append((owner, attr, owner.__dict__[attr]))
    registry = importlib.import_module("repro.attacks.registry")
    sat_attack = importlib.import_module("repro.attacks.sat_attack")

    tracer.install()
    try:
        # Rebound by name in another module, and on the class.
        assert hasattr(registry.run_dip_loop, "__lockbench_original__")
        assert hasattr(sat_attack.run_dip_loop, "__lockbench_original__")
        assert hasattr(workloads.run_matrix, "__lockbench_original__")
        assert tracer.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert registry.run_dip_loop is sat_attack.run_dip_loop


def test_self_time_never_exceeds_span():
    rec = Recorder()
    rec.enable()
    outer = rec.open("outer")
    time.sleep(0.002)
    for _ in range(3):
        inner = rec.open("inner")
        leaf = rec.open("leaf")
        time.sleep(0.001)
        rec.close(leaf)
        rec.close(inner)
    rec.close(outer)
    summary = summarize(rec.to_dict())
    assert summary["bad_spans"] == 0
    for name, own in summary["self"].items():
        assert 0 <= own <= summary["incl"][name], name
    assert abs(sum(summary["self"].values()) - summary["covered"]) < 1e-9

    # A child longer than its parent is reported, not hidden.
    broken = {"spans": [["p", 0.0, 1.0, 2.0, 0]], "counts": []}
    assert summarize(broken)["bad_spans"] == 1


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "lockbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_short_runs_print_every_metric():
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(workload, trace)
            assert done.returncode == 0, (workload, trace, done.stderr[-2000:])
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, lines[-2]
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            record = json.loads(lines[-2])["record"]
            assert record["provenance"]["seed"] == 5
            assert record["circuits"] and record["workload_metrics"]


def test_refuses_to_run_without_sources():
    bare = _scratch()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "lockbench", bare / "lockbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("sarlock-split", 0, cwd=bare)
        assert done.returncode != 0
        assert done.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)


def main() -> int:
    failures = 0
    for name, test in sorted(globals().items()):
        if not (name.startswith("test_") and callable(test)):
            continue
        start = time.perf_counter()
        try:
            test()
        except Exception as error:  # noqa: BLE001 - report every test
            failures += 1
            print(f"FAIL {name}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {name} ({time.perf_counter() - start:.1f}s)")
    base = ROOT / ".lockbench_tmp"
    if base.is_dir() and not any(base.iterdir()):
        base.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The five benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, computes
its check references in :meth:`prepare` (untimed), times one unit of
work in :meth:`run_round`, and checks a finished round in :meth:`check`
(untimed).  Checks append ``(label, ok, reason)`` operations to the
round; ``ok_frac`` and the exit code come from them.

* ``sarlock-single`` and ``sarlock-split`` — the paper's Table 1 shape,
  one arm each: the single-key SAT attack, and the serial sharded
  multi-key attack at ``N = 3``, on the same SARLock locks.
* ``plane-opt`` — a 3.4k-gate keyed match plane parsed fresh each round
  (cold compile and optimizer caches), attacked and scored.
* ``matrix-cold`` — a scheme x circuit x effort x engine grid through
  ``Runner(jobs=nproc)`` with a fresh directory cache per round.
* ``serve-warm`` — ``nproc`` closed-loop HTTP clients replaying the same
  grid as single-cell requests against a primed ``repro serve`` daemon.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.attacks.sat_attack import sat_attack
from repro.bench_circuits.corpus import corpus_names, resolve_circuit
from repro.bench_circuits.generators import keyed_match_plane
from repro.bench_circuits.iscas85 import iscas85_like
from repro.circuit.bench import format_bench, parse_bench
from repro.circuit.equivalence import check_equivalence
from repro.circuit.gates import GateType
from repro.core.compose import verify_composition
from repro.core.sharded import sharded_multikey_attack
from repro.locking.registry import lock_circuit
from repro.locking.sarlock import sarlock_lock
from repro.metrics.engine import evaluate_corruption
from repro.oracle.oracle import Oracle
from repro.runner import Runner
from repro.runner.cache import ResultCache
from repro.scenarios.matrix import run_matrix
from repro.scenarios.spec import ScenarioSpec
from repro.service.envelopes import SCHEMA_VERSION
from repro.service.loadgen import (
    LoadReport,
    RequestRecord,
    assert_no_losses,
    percentile,
    run_load,
)

from lockbench.trace import Recorder, Tracer

HERE = Path(__file__).resolve().parent


@dataclass
class Context:
    """Run-wide settings every workload reads."""

    seed: int
    nproc: int
    work_dir: Path
    _dirs: int = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work_dir / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path


#: Iterations of :func:`reference_loop`.
REFERENCE_ITERATIONS = 200_000
#: What :func:`reference_loop` takes at the nominal host speed: about
#: its time on the 2-core VM the benchmark was built on.
REFERENCE_NOMINAL_S = 0.05


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's speed now.

    The speed of a shared host can halve for seconds to minutes at a
    time, for the benchmark and this loop alike.  Sampling the loop
    around each round and scaling the round by
    ``REFERENCE_NOMINAL_S / sample`` gives host-normalised seconds,
    which compare runs made at different host speeds.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        table[i & 1023] = acc
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - start


#: What :func:`startup_reference` takes at the nominal host speed, on
#: the same VM as :data:`REFERENCE_NOMINAL_S`.
STARTUP_NOMINAL_S = 0.15
_STARTUP_IMPORTS = (
    "import argparse, concurrent.futures, dataclasses, decimal, "
    "email.parser, http.client, json, multiprocessing, typing"
)


def startup_reference() -> float:
    """Seconds a fresh interpreter takes to import a fixed set of
    standard-library modules: the host's speed now, for set-up work.

    Set-up is mostly a fresh interpreter importing ``repro``.  That
    kind of work slows down with the host in a way the short in-process
    :func:`reference_loop` does not follow; this reference does.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _STARTUP_IMPORTS], check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


@dataclass
class Round:
    """One timed unit of work and what its checks found."""

    index: int
    start: float
    end: float
    samples: dict[str, float]
    outputs: dict
    extra: dict = field(default_factory=dict)
    ops: list[tuple[str, bool, str]] = field(default_factory=list)
    traced: bool = False
    ref: float = 0.0  # reference-loop seconds around the round

    @property
    def wall(self) -> float:
        return self.end - self.start

    def scaled(self, seconds: float) -> float:
        """``seconds`` of this round, host-normalised."""
        return seconds * REFERENCE_NOMINAL_S / self.ref


_TIMING_KEY = re.compile(r"seconds|elapsed|_unix$|^ratio$")


def timing_free(value):
    """``value`` without the keys that hold a measured time."""
    if isinstance(value, dict):
        return {
            key: timing_free(item)
            for key, item in value.items()
            if not _TIMING_KEY.search(str(key))
        }
    if isinstance(value, list):
        return [timing_free(item) for item in value]
    return value


def circuit_label(name: str, original, locked, kind: str | None = None) -> dict:
    """Size and provenance of one attacked circuit for the run record."""
    if kind is None:
        kind = "real" if name in corpus_names() else "stand-in"
    return {
        "name": name,
        "kind": kind,
        "gates": original.num_gates,
        "locked_gates": locked.netlist.num_gates,
        "pis": len(original.inputs),
        "pos": len(original.outputs),
        "key_bits": locked.key_size,
    }


# ----------------------------------------------------------------------
# Equivalence checks
# ----------------------------------------------------------------------

_ORDERED_FANINS = {GateType.MUX}


def structural_signature(compiled) -> dict[str, bytes]:
    """Per-output hash of the output's cone, inputs named, fanins of
    commutative gates sorted.  Equal signatures mean equal functions."""
    digest = {}
    for name in compiled.inputs:
        digest[compiled.slot_of[name]] = hashlib.blake2b(
            b"in:" + name.encode(), digest_size=16
        ).digest()
    for gate, out, fanins in zip(
        compiled.gates, compiled.gate_output_slots, compiled.gate_fanin_slots
    ):
        kids = [digest[s] for s in fanins]
        if gate.gtype not in _ORDERED_FANINS:
            kids.sort()
        digest[out] = hashlib.blake2b(
            gate.gtype.value.encode() + b"".join(kids), digest_size=16
        ).digest()
    return {
        po: digest[slot]
        for po, slot in zip(compiled.outputs, compiled.output_slots)
    }


def equivalent(candidate, original, sat_gate_limit: int = 1000) -> bool:
    """CEC ``candidate`` against ``original``.

    Small circuits go to the SAT-based ``check_equivalence``.  Larger
    ones are compared structurally after the full optimizer pipeline
    (which preserves every output function): the pure-python solver
    needs minutes on a 3.4k-gate match plane, the signature a second.
    """
    if original.num_gates <= sat_gate_limit:
        return check_equivalence(candidate, original).equivalent
    a = candidate.compile().optimized("full").compiled
    b = original.compile().optimized("full").compiled
    return structural_signature(a) == structural_signature(b)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    name = ""
    #: Set-up repetitions behind the ``setup_s`` median, taken before
    #: and after the rounds.  Host speed drifts over tens of seconds;
    #: sampling both ends of a run averages over that drift.
    setup_repeats = (4, 4)
    #: True when set-up is measured in this process (it spawns its own
    #: fresh interpreter); otherwise a fresh interpreter probes it.
    setup_in_process = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.seed = ctx.seed

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: compute what :meth:`check` compares against."""

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round) -> None:
        raise NotImplementedError

    def circuits(self) -> list[dict]:
        return []

    def arms(self, rounds: list[Round]) -> dict[str, tuple[float, str, int]]:
        """The workload's own named metrics: name -> (value, unit, n)."""
        return {}

    def close(self) -> None:
        pass

    # Tracing: wrappers installed in this process around one round.
    _tracer: Tracer | None = None

    def trace_begin(self) -> None:
        if self._tracer is None:
            self._tracer = Tracer(Recorder())
        self._tracer.install()
        self._tracer.recorder.enable()

    def trace_end(self) -> list[str]:
        """Stop tracing; returns the names still wrapped (none expected)."""
        self._tracer.recorder.disable()
        self._tracer.uninstall()
        return self._tracer.leftover_wrappers()

    def trace_data(self) -> dict:
        return self._tracer.recorder.to_dict()


def seeded_keys(seed: int, key_size: int, count: int = 1) -> list[int]:
    """``count`` distinct SARLock correct keys for a run seed.

    Passed explicitly: ``sarlock_lock(seed=...)`` draws every key bit
    from a freshly seeded generator, so its keys are all-zeros or
    all-ones.
    """
    rng = random.Random(f"sarlock-key:{seed}")
    return rng.sample(range(1 << key_size), count)


def _median_arm(rounds, name, unit):
    """Median of one per-round sample; times are host-normalised."""
    values = [
        r.scaled(r.samples[name]) if unit == "s" else r.samples[name]
        for r in rounds
    ]
    return (median(values), unit, len(values))


class _Sarlock(Workload):
    """SARLock k=8 on the c7552 stand-in, eight seed-drawn keys."""

    key_size = 8
    effort = 3
    #: Round ``i`` attacks lock ``i % KEYS``.  Solver work moves by
    #: about +-6% from one SARLock key to the next; cycling through
    #: several keys keeps that out of the run-to-run comparison.
    KEYS = 8

    def setup(self) -> None:
        self.original = iscas85_like("c7552", 0.15)
        self.locks = [
            sarlock_lock(self.original, self.key_size, correct_key=key)
            for key in seeded_keys(self.seed, self.key_size, self.KEYS)
        ]

    def prepare(self) -> None:
        # A full warm-up round is checked like any other.
        self._cec: dict = {}
        warm = self.run_round(-1)
        self.check(warm)
        bad = [op for op in warm.ops if not op[1]]
        if bad:
            raise RuntimeError(f"warm-up round failed its checks: {bad}")

    def _memo(self, key, compute) -> bool:
        if key not in self._cec:
            self._cec[key] = compute()
        return self._cec[key]

    def circuits(self) -> list[dict]:
        label = circuit_label("c7552@0.15", self.original, self.locks[0], "stand-in")
        label["correct_keys"] = [locked.correct_key_int for locked in self.locks]
        return [label]


class SarlockSingle(_Sarlock):
    """The single-key SAT attack (N=0): the paper's baseline arm."""

    name = "sarlock-single"

    def run_round(self, index: int) -> Round:
        slot = index % self.KEYS
        start = time.perf_counter()
        base = sat_attack(self.locks[slot], Oracle(self.original))
        end = time.perf_counter()
        return Round(
            index=index,
            start=start,
            end=end,
            samples={"round_s": end - start, "dips": base.num_dips},
            outputs={
                "slot": slot,
                "status": base.status,
                "key": base.key_int,
                "dips": base.num_dips,
            },
        )

    def check(self, rnd: Round) -> None:
        out = rnd.outputs
        slot = out["slot"]
        full = (1 << self.key_size) - 1
        reasons = []
        if out["status"] != "ok" or out["key"] is None:
            reasons.append(f"status {out['status']}")
        else:
            if out["dips"] != full:
                reasons.append(f"{out['dips']} DIPs, expected {full}")
            key = out["key"]
            if not self._memo((slot, key), lambda: equivalent(
                self.locks[slot].apply_key(key), self.original
            )):
                reasons.append(f"key {key} fails CEC")
        rnd.ops.append(("baseline", not reasons, "; ".join(reasons)))

    def arms(self, rounds):
        return {
            "baseline_s": _median_arm(rounds, "round_s", "s"),
            "dips": _median_arm(rounds, "dips", "count"),
        }


class SarlockSplit(_Sarlock):
    """The serial sharded multi-key attack at N=3: the paper's split arm."""

    name = "sarlock-split"

    def prepare(self) -> None:
        # Record every lock's per-shard DIP split; every round must
        # reproduce it.
        self.expected = {}
        for slot, locked in enumerate(self.locks):
            multi = sharded_multikey_attack(locked, self.original, effort=self.effort)
            self.expected[slot] = {
                "split": multi.dips_per_task,
                "inputs": multi.splitting_inputs,
            }
        super().prepare()

    def run_round(self, index: int) -> Round:
        slot = index % self.KEYS
        start = time.perf_counter()
        multi = sharded_multikey_attack(
            self.locks[slot], self.original, effort=self.effort
        )
        end = time.perf_counter()
        critical = multi.encode_seconds + max(
            task.elapsed_seconds for task in multi.subtasks
        )
        return Round(
            index=index,
            start=start,
            end=end,
            samples={
                "round_s": end - start,
                "critical_s": critical,
                "dips": multi.total_dips,
            },
            outputs={
                "slot": slot,
                "status": multi.status,
                "keys": multi.key_ints,
                "dips": multi.dips_per_task,
                "split_inputs": multi.splitting_inputs,
            },
        )

    def check(self, rnd: Round) -> None:
        out = rnd.outputs
        slot = out["slot"]
        expected = self.expected[slot]
        full = (1 << self.key_size) - 1
        reasons = []
        keys = out["keys"]
        if out["status"] != "ok" or None in keys:
            reasons.append(f"status {out['status']}")
        else:
            if sum(out["dips"]) != full:
                reasons.append(f"{sum(out['dips'])} DIPs, expected {full}")
            if (out["dips"] != expected["split"]
                    or out["split_inputs"] != expected["inputs"]):
                reasons.append(
                    f"shard split {out['dips']} differs from set-up "
                    f"{expected['split']}"
                )
            inputs = out["split_inputs"]
            memo = (slot, tuple(inputs), tuple(keys))
            if not self._memo(memo, lambda: bool(
                verify_composition(self.locks[slot], inputs, keys, self.original)
            )):
                reasons.append("composed multi-key netlist fails CEC")
        rnd.ops.append(("multikey", not reasons, "; ".join(reasons)))

    def arms(self, rounds):
        return {
            "multikey_s": _median_arm(rounds, "round_s", "s"),
            "critical_s": _median_arm(rounds, "critical_s", "s"),
            "dips": _median_arm(rounds, "dips", "count"),
        }


CORRUPTION_METRICS = ("corruption", "bit_flip", "avalanche", "subspace")


class PlaneOpt(Workload):
    """SARLock k=6 on a 3361-gate keyed match plane, parsed cold."""

    name = "plane-opt"
    key_size = 6
    effort = 3

    def setup(self) -> None:
        self.plane = keyed_match_plane(terms=192, taps=8, bus=24)
        self.template = sarlock_lock(
            self.plane, self.key_size,
            correct_key=seeded_keys(self.seed, self.key_size)[0],
        )
        self.locked_text = format_bench(self.template.netlist)
        self.original_text = format_bench(self.plane)

    def prepare(self) -> None:
        # Reference scores from the unoptimized circuit: the metrics
        # engine promises identical values at every opt level.
        reference = evaluate_corruption(
            self.template,
            self.plane,
            metrics=CORRUPTION_METRICS,
            effort=self.effort,
            seed=self.seed,
            opt="off",
        )
        self.reference = self._score_view(reference.to_payload())
        self._cec: dict[int, bool] = {}

    @staticmethod
    def _score_view(payload: dict) -> dict:
        return {
            key: payload[key]
            for key in ("metrics", "input_samples", "keys_sampled", "splitting_inputs")
        }

    def run_round(self, index: int) -> Round:
        start = time.perf_counter()
        original = parse_bench(self.original_text, self.plane.name)
        locked = dataclasses.replace(
            self.template,
            netlist=parse_bench(self.locked_text, self.template.netlist.name),
        )
        result = sat_attack(locked, Oracle(original))
        mid = time.perf_counter()
        report = evaluate_corruption(
            locked,
            original,
            metrics=CORRUPTION_METRICS,
            effort=self.effort,
            seed=self.seed,
        )
        end = time.perf_counter()
        return Round(
            index=index,
            start=start,
            end=end,
            samples={
                "round_s": end - start,
                "attack_s": mid - start,
                "score_s": end - mid,
                "dips": result.num_dips,
            },
            outputs={
                "status": result.status,
                "key": result.key_int,
                "dips": result.num_dips,
                "score": self._score_view(report.to_payload()),
            },
        )

    def check(self, rnd: Round) -> None:
        out = rnd.outputs
        full = (1 << self.key_size) - 1
        reasons = []
        key = out["key"]
        if out["status"] != "ok" or key is None:
            reasons.append(f"status {out['status']}")
        else:
            if out["dips"] != full:
                reasons.append(f"{out['dips']} DIPs, expected {full}")
            if key not in self._cec:
                self._cec[key] = equivalent(
                    self.template.apply_key(key), self.plane
                )
            if not self._cec[key]:
                reasons.append(f"key {key} fails CEC")
        rnd.ops.append(("attack", not reasons, "; ".join(reasons)))
        same = out["score"] == self.reference
        rnd.ops.append(
            ("score", same, "" if same else "corruption report differs from reference")
        )

    def circuits(self) -> list[dict]:
        return [
            circuit_label(
                "keyed_match_plane(192,8,24)", self.plane, self.template, "stand-in"
            )
        ]

    def arms(self, rounds):
        return {
            "attack_s": _median_arm(rounds, "attack_s", "s"),
            "score_s": _median_arm(rounds, "score_s", "s"),
            "dips": _median_arm(rounds, "dips", "count"),
        }


GRID_SCHEMES = (("xor", {"key_size": 8}), ("sarlock", {"key_size": 4}),
                ("antisat", {"key_size": 4}))
GRID_CIRCUITS = ("c432", "c880", "real_c432")
GRID_SCALE = 0.25
GRID_EFFORTS = (0, 1, 2)
GRID_ENGINES = ("sharded", "reference")
GRID_METRICS = ("corruption",)
#: The grid's lock seed is fixed: XOR-lock DIP counts move by about
#: +-5% from one lock seed to the next, which would swamp the run-to-run
#: comparison.  The run seed orders the grid's axes instead, which
#: changes how cells pack onto the pool but not the work.
GRID_SEED = 0


def grid_axes(seed: int) -> dict[str, list]:
    """The grid's axes in a seed-derived order."""
    rng = random.Random(f"grid:{seed}")
    axes = {
        "schemes": list(GRID_SCHEMES),
        "circuits": list(GRID_CIRCUITS),
        "efforts": list(GRID_EFFORTS),
        "engines": list(GRID_ENGINES),
    }
    for values in axes.values():
        rng.shuffle(values)
    return axes


def grid_spec(seed: int, verify: bool = False) -> ScenarioSpec:
    return ScenarioSpec(
        attacks=["sat"],
        scale=GRID_SCALE,
        seeds=[GRID_SEED],
        metrics=GRID_METRICS,
        verify_composition=verify,
        **grid_axes(seed),
    )


def _cell_id(cell: dict) -> str:
    return (
        f"{cell['scheme']}{json.dumps(cell['scheme_params'], sort_keys=True)}"
        f"/{cell['circuit']}/N={cell['effort']}/{cell['engine']}"
    )


def _cell_view(cell: dict) -> dict:
    view = timing_free(cell)
    view.pop("composition_equivalent", None)
    return view


def grid_circuits() -> list[dict]:
    labels = []
    for circuit in GRID_CIRCUITS:
        original = resolve_circuit(circuit, GRID_SCALE)
        for scheme, params in GRID_SCHEMES:
            locked = lock_circuit(scheme, original, seed=GRID_SEED, **params)
            label = circuit_label(circuit, original, locked)
            label["scheme"] = scheme
            if label["kind"] == "stand-in":
                label["scale"] = GRID_SCALE
            labels.append(label)
    return labels


class MatrixCold(Workload):
    """The grid through ``Runner(jobs=nproc)``, fresh cache per round."""

    name = "matrix-cold"

    def setup(self) -> None:
        self.spec = grid_spec(self.seed)

    def prepare(self) -> None:
        # Serial and uncached, with composition CEC on every cell.
        reference = run_matrix(grid_spec(self.seed, verify=True), runner=Runner(jobs=1))
        bad = [
            _cell_id(dataclasses.asdict(cell))
            for cell in reference.cells
            if cell.status != "ok" or cell.composition_equivalent is not True
        ]
        if bad:
            raise RuntimeError(f"reference cells failed or failed CEC: {bad}")
        self.reference = {
            _cell_id(cell): _cell_view(cell)
            for cell in (dataclasses.asdict(c) for c in reference.cells)
        }

    def run_round(self, index: int) -> Round:
        cache_dir = self.ctx.fresh_dir("matrix-cache")
        runner = Runner(jobs=self.ctx.nproc, cache=ResultCache(cache_dir))
        start = time.perf_counter()
        result = run_matrix(self.spec, runner=runner)
        end = time.perf_counter()
        shutil.rmtree(cache_dir)
        cells = [dataclasses.asdict(cell) for cell in result.cells]
        return Round(
            index=index,
            start=start,
            end=end,
            samples={
                "round_s": end - start,
                "dips": sum(sum(cell["dips_per_task"]) for cell in cells),
            },
            outputs={"cells": {_cell_id(cell): _cell_view(cell) for cell in cells}},
        )

    def check(self, rnd: Round) -> None:
        cells = rnd.outputs["cells"]
        points: dict[tuple, bool] = {}
        for cell_id, ref in self.reference.items():
            got = cells.get(cell_id)
            point = (ref["scheme"], ref["circuit"], ref["effort"])
            if got is None:
                rnd.ops.append((cell_id, False, "cell missing"))
                points[point] = False
                continue
            metrics_same = (
                got["metrics"] == ref["metrics"]
                and got["metrics_detail"] == ref["metrics_detail"]
            )
            points[point] = points.get(point, True) and metrics_same
            rest = {k: v for k, v in got.items() if not k.startswith("metrics")}
            ref_rest = {k: v for k, v in ref.items() if not k.startswith("metrics")}
            same = rest == ref_rest and got["status"] == "ok"
            rnd.ops.append((cell_id, same, "" if same else "cell differs from reference"))
        for point, ok in points.items():
            rnd.ops.append(
                (f"metrics{point}", ok, "" if ok else "metric values differ from reference")
            )
        extra = set(cells) - set(self.reference)
        if extra:
            rnd.ops.append(("cells", False, f"unexpected cells {sorted(extra)}"))

    def circuits(self) -> list[dict]:
        return grid_circuits()

    def arms(self, rounds):
        return {
            "wall_s": _median_arm(rounds, "round_s", "s"),
            "dips": _median_arm(rounds, "dips", "count"),
        }


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------


def grid_requests(seed: int) -> list[tuple[str, dict]]:
    """The grid as ``(label, single-cell MatrixRequest dict)`` pairs."""
    axes = grid_axes(seed)
    requests = []
    for scheme, params in axes["schemes"]:
        for engine in axes["engines"]:
            for circuit in axes["circuits"]:
                for effort in axes["efforts"]:
                    label = f"{scheme}/{circuit}/N={effort}/{engine}"
                    requests.append((label, {
                        "schema_version": SCHEMA_VERSION,
                        "kind": "matrix",
                        "schemes": [[scheme, dict(params)]],
                        "attacks": [["sat", {}]],
                        "engines": [engine],
                        "circuits": [circuit],
                        "scale": GRID_SCALE,
                        "efforts": [effort],
                        "seeds": [GRID_SEED],
                        "metrics": list(GRID_METRICS),
                    }))
    return requests


class StreamCapture:
    """``run_load`` line sink: each job's payload and program-reported
    run time, by job id."""

    def __init__(self) -> None:
        self.results: dict[str, dict | None] = {}
        self.run_seconds: dict[str, float] = {}
        self._lock = threading.Lock()

    def __call__(self, line: str) -> None:
        obj = json.loads(line)
        job_id = obj.get("job_id", "")
        with self._lock:
            if obj.get("kind") == "response":
                self.results[job_id] = obj.get("result")
            elif obj.get("type") == "job_done":
                self.run_seconds[job_id] = float(obj["data"].get("run_seconds", 0.0))


@dataclass
class Served:
    """One replayed request: loadgen's record plus what the stream held."""

    label: str
    record: RequestRecord
    result: dict | None = None
    run_seconds: float = 0.0


def replay(daemon: "Daemon", work: list[tuple[str, dict]], clients: int,
           prefix: str) -> tuple[LoadReport, list[Served]]:
    """``work`` through ``loadgen.run_load`` in the given order."""
    capture = StreamCapture()
    report = run_load(daemon.host, daemon.port, [envelope for _, envelope in work],
                      clients, job_id_prefix=prefix, log_line=capture)
    served = []
    for record in report.records:
        # run_load's job ids end in the request's index in ``work``.
        label = work[int(record.job_id.rsplit("-", 1)[1])][0]
        served.append(Served(label, record, capture.results.get(record.job_id),
                             capture.run_seconds.get(record.job_id, 0.0)))
    return report, served


def response_matches(primed: dict | None, served: Served) -> tuple[bool, str]:
    """A served job equals its primed payload, timing fields aside."""
    record = served.record
    if record.status != "ok":
        return False, f"status {record.status!r} {record.error}"
    if primed is None or served.result is None:
        return False, "no payload"
    if timing_free(served.result) != timing_free(primed):
        return False, "payload differs from primed payload"
    return True, ""


class Daemon:
    """A ``repro serve --http`` subprocess started through the launcher."""

    def __init__(self, cache_dir: Path, nproc: int) -> None:
        argv = [
            sys.executable, str(HERE / "serve_traced.py"),
            "serve", "--http", "0", "--jobs", str(nproc),
            "--cache-dir", str(cache_dir), "--max-pending", str(4 * nproc),
        ]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, bufsize=1,
        )
        pattern = re.compile(r"listening on ([\d.]+):(\d+) \(http\)")
        while True:
            line = self.proc.stderr.readline()
            if not line:
                self.close()
                raise RuntimeError("daemon exited before it was ready")
            match = pattern.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        self.log: list[str] = []
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)

    def command(self, line: str) -> str:
        """Send one launcher control line; returns its reply."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().strip()
        if not reply.startswith("ok"):
            raise RuntimeError(f"launcher refused {line!r}: {reply!r}")
        return reply

    def close(self) -> None:
        if self.proc.poll() is None and hasattr(self, "port"):
            try:
                conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
                conn.request("POST", "/v1/shutdown", body=b"{}")
                conn.getresponse().read()
                conn.close()
            except OSError:
                pass
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()
        if hasattr(self, "_drain"):
            self._drain.join(timeout=10)
        self.proc.stderr.close()


class ServeWarm(Workload):
    """Closed-loop replay of the primed grid against the HTTP gateway."""

    name = "serve-warm"
    #: Each set-up spawns and primes a daemon; the last one serves.
    setup_repeats = (3, 0)
    setup_in_process = True

    daemon: Daemon | None = None

    def setup(self) -> None:
        self.requests = grid_requests(self.seed)
        self.daemon = Daemon(self.ctx.fresh_dir("serve-cache"), self.ctx.nproc)
        self.prime_report, served = replay(self.daemon, self.requests,
                                           self.ctx.nproc, "prime")
        self.primed = {job.label: job.result for job in served}

    def prepare(self) -> None:
        bad = [(r.job_id, r.status, r.error) for r in self.prime_report.records
               if r.status != "ok"]
        if bad or None in self.primed.values():
            raise RuntimeError(f"priming failed: {bad[:5]}")
        assert_no_losses(self.prime_report)

    def run_round(self, index: int) -> Round:
        order = list(self.requests)
        random.Random(f"serve-warm:{self.seed}:{index}").shuffle(order)
        start = time.perf_counter()
        report, served = replay(self.daemon, order, self.ctx.nproc, f"r{index}")
        end = time.perf_counter()
        dips = 0
        for job in served:
            for cell in (job.result or {}).get("cells", []):
                dips += sum(cell.get("dips_per_task", []))
        return Round(
            index=index,
            start=start,
            end=end,
            samples={"round_s": end - start, "dips": dips},
            outputs={"payloads": {job.label: timing_free(job.result) for job in served}},
            extra={"report": report, "served": served},
        )

    def check(self, rnd: Round) -> None:
        served = rnd.extra["served"]
        for job in served:
            ok, reason = response_matches(self.primed.get(job.label), job)
            rnd.ops.append((job.label, ok, reason))
        try:
            assert_no_losses(rnd.extra["report"])
            seen = sorted(job.label for job in served)
            if seen != sorted(label for label, _ in self.requests):
                raise AssertionError("served labels differ from the request set")
        except AssertionError as error:
            rnd.ops.append(("accounting", False, str(error)))
        else:
            rnd.ops.append(("accounting", True, ""))

    def circuits(self) -> list[dict]:
        return grid_circuits()

    def arms(self, rounds):
        latencies = [
            rnd.scaled(latency)
            for rnd in rounds for latency in rnd.extra["report"].latencies
        ]
        walls = sum(rnd.scaled(rnd.wall) for rnd in rounds)
        return {
            "jobs_per_s": (len(latencies) / walls, "1/s", len(rounds)),
            "job_p50_s": (percentile(latencies, 50), "s", len(latencies)),
            "job_p90_s": (percentile(latencies, 90), "s", len(latencies)),
            "dips": _median_arm(rounds, "dips", "count"),
        }

    def trace_begin(self) -> None:
        self.daemon.command("on")

    def trace_end(self) -> list[str]:
        reply = self.daemon.command("off")
        leftovers = reply.split()[2:]
        return leftovers

    def trace_data(self) -> dict:
        path = self.ctx.work_dir / "daemon-trace.json"
        self.daemon.command(f"dump {path}")
        return json.loads(path.read_text())

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None


WORKLOADS = {
    cls.name: cls
    for cls in (SarlockSingle, SarlockSplit, PlaneOpt, MatrixCold, ServeWarm)
}

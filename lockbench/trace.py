"""Span recorder and the wrappers that trace ``repro``'s public calls.

The benchmark never edits ``src/``.  A traced round instead installs a
wrapper around each public function listed in :data:`TARGETS`, patched
wherever callers look the name up: the defining module, every other
loaded ``repro``/``lockbench`` module that bound the same object with
``from ... import``, or the class attribute for methods.
:meth:`Tracer.uninstall` puts every original back.

Spans nest per thread.  A closed span adds its duration to its parent,
so a span's self time is its duration minus the time its child spans
cover.  Counts are recorded at the same call boundaries, time-stamped,
so a round is just a time window over the recorded spans and counts
(``perf_counter`` is the system-wide monotonic clock on Linux, so the
windows also hold for spans recorded in a daemon subprocess).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict


class Recorder:
    """In-memory spans and counts; off until :meth:`enable`.

    Only the process that created the recorder records: pool workers
    forked while wrappers are installed run their calls untraced.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.pid = os.getpid()
        # [name, start, end, child_seconds, depth]
        self.spans: list[list] = []
        # (name, value, time)
        self.counts: list[tuple[str, float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def enable(self) -> None:
        self.pid = os.getpid()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def live(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), None, 0.0, len(stack)]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][3] += span[2] - span[1]
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts.append((name, value, time.perf_counter()))

    def to_dict(self) -> dict:
        with self._lock:
            return {"spans": list(self.spans), "counts": list(self.counts)}


# ----------------------------------------------------------------------
# Count hooks: (recorder, result, args, kwargs, before) -> None
# ----------------------------------------------------------------------


def _query_count(args, kwargs):
    return args[0].query_count


def _after_query(rec, result, args, kwargs, before):
    rec.count("oracle.queries", args[0].query_count - before)


def _after_compile(rec, result, args, kwargs, before):
    rec.count("circuit.compiles")


def _after_sim(rec, result, args, kwargs, before):
    rec.count("circuit.sim_calls")


def _after_optimize(rec, result, args, kwargs, before):
    rec.count("opt.calls")
    rec.count("opt.gates_in", result.source.num_gates)
    rec.count("opt.gates_out", result.compiled.num_gates)


def _after_solve(rec, result, args, kwargs, before):
    rec.count("sat.solves")


def _after_encode(rec, result, args, kwargs, before):
    rec.count("attacks.miter_vars", result.base_vars)
    rec.count("attacks.miter_clauses", result.base_clauses)


def _after_dip_loop(rec, result, args, kwargs, before):
    rec.count("attacks.dips", result.num_dips)
    stats = result.solver_stats
    for name in ("conflicts", "decisions", "propagations"):
        rec.count(f"sat.{name}", stats.get(name, 0))


def _after_shard(rec, result, args, kwargs, before):
    rec.count("core.shards")


def _after_cache_load(rec, result, args, kwargs, before):
    rec.count("runner.cache_loads")
    if result is not None:
        rec.count("runner.cache_hits")


def _after_cache_store(rec, result, args, kwargs, before):
    rec.count("runner.cache_stores")


def _on_task_result(rec, item):
    """Per ``(index, TaskResult)`` yielded by ``Runner.run_iter``."""
    _, result = item
    if not result.cached:
        rec.count("runner.task_busy_s", result.elapsed_seconds)
    status = result.artifact.get("status")
    if isinstance(status, str) and status != "ok":
        rec.count("runner.failed")


#: (span name, module, attribute path, before hook, after hook, kind).
#: ``kind`` is "call" or "generator" (a span per resume).
TARGETS: tuple = (
    ("circuit.parse", "repro.circuit.bench", "parse_bench", None, None, "call"),
    ("circuit.compile", "repro.circuit.compiled", "CompiledCircuit.__init__",
     None, _after_compile, "call"),
    ("circuit.sim", "repro.circuit.compiled", "CompiledCircuit.eval_words",
     None, _after_sim, "call"),
    ("circuit.lanes", "repro.circuit.compiled",
     "CompiledCircuit.eval_outputs_wide", None, None, "call"),
    ("opt.optimize", "repro.circuit.opt", "optimize_compiled",
     None, _after_optimize, "call"),
    ("locking.lock", "repro.locking.registry", "lock_circuit", None, None, "call"),
    ("locking.lock", "repro.locking.sarlock", "sarlock_lock", None, None, "call"),
    ("oracle.build", "repro.oracle.oracle", "Oracle.__init__", None, None, "call"),
    ("oracle.query", "repro.oracle.oracle", "Oracle.query",
     _query_count, _after_query, "call"),
    ("oracle.query", "repro.oracle.oracle", "Oracle.query_int",
     _query_count, _after_query, "call"),
    ("oracle.query", "repro.oracle.oracle", "Oracle.query_batch",
     _query_count, _after_query, "call"),
    ("oracle.query", "repro.oracle.oracle", "Oracle.query_vector",
     _query_count, _after_query, "call"),
    ("sat.solve", "repro.sat.solver", "Solver.solve", None, _after_solve, "call"),
    ("sat.frame", "repro.sat.solver", "Solver.checkpoint", None, None, "call"),
    ("sat.frame", "repro.sat.solver", "Solver.rollback", None, None, "call"),
    ("sat.frame", "repro.sat.solver", "Solver.simplify", None, None, "call"),
    ("attacks.encode", "repro.attacks.sat_attack", "build_miter_encoding",
     None, _after_encode, "call"),
    ("attacks.copy", "repro.attacks.sat_attack", "run_dip_loop",
     None, _after_dip_loop, "call"),
    ("core.split", "repro.core.splitting", "select_splitting_inputs",
     None, None, "call"),
    ("core.shard", "repro.core.sharded", "ShardEngine.run_shard",
     None, _after_shard, "call"),
    ("metrics.sweep", "repro.metrics.engine", "build_sweep", None, None, "call"),
    ("metrics.eval", "repro.metrics.engine", "evaluate_corruption",
     None, None, "call"),
    ("runner.run", "repro.runner.executor", "Runner.run_iter",
     None, _on_task_result, "generator"),
    ("runner.wait", "repro.runner.executor", "wait", None, None, "call"),
    ("runner.cache_store", "repro.runner.cache", "ResultCache.store",
     None, _after_cache_store, "call"),
    ("runner.cache_load", "repro.runner.cache", "ResultCache.load",
     None, _after_cache_load, "call"),
    ("scenarios.expand", "repro.scenarios.spec", "ScenarioSpec.expand",
     None, None, "call"),
    ("scenarios.expand", "repro.scenarios.spec", "ScenarioSpec.expand_metrics",
     None, None, "call"),
    ("scenarios.collect", "repro.scenarios.matrix", "run_matrix",
     None, None, "call"),
    ("service.envelope", "repro.service.envelopes", "from_dict", None, None, "call"),
    ("service.envelope", "repro.service.envelopes", "to_dict", None, None, "call"),
    ("service.envelope", "repro.service.envelopes", "to_json", None, None, "call"),
)

#: Span names whose self times partition a traced round's wall time.
SPAN_LAYERS: tuple = tuple(dict.fromkeys(target[0] for target in TARGETS))

_ORIGINAL = "__lockbench_original__"


def _call_wrapper(rec: Recorder, name: str, fn, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.live():
            return fn(*args, **kwargs)
        state = before(args, kwargs) if before else None
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after:
            after(rec, result, args, kwargs, state)
        return result

    setattr(wrapper, _ORIGINAL, fn)
    return wrapper


def _generator_wrapper(rec: Recorder, name: str, fn, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not rec.live():
            return gen
        return _traced_generator(rec, name, gen, after)

    setattr(wrapper, _ORIGINAL, fn)
    return wrapper


def _traced_generator(rec: Recorder, name: str, gen, after):
    """Yield from ``gen`` with one span around each resume of it."""
    try:
        while True:
            span = rec.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.close(span)
            if after:
                after(rec, item)
            yield item
    finally:
        gen.close()


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner_path, _, attr = path.rpartition(".")
    owner = module
    if owner_path:
        owner = getattr(module, owner_path)
    return owner, attr


class Tracer:
    """Installs and removes the :data:`TARGETS` wrappers for one recorder."""

    def __init__(self, recorder: Recorder, targets: tuple = TARGETS) -> None:
        self.recorder = recorder
        self.targets = targets
        # (holder, attribute, original) for every patched binding.
        self._patched: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, module_name, path, before, after, kind in self.targets:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            make = _generator_wrapper if kind == "generator" else _call_wrapper
            wrapper = make(self.recorder, name, original, before, after)
            self._patch(owner, attr, original, wrapper)
            if isinstance(owner, type):
                continue
            # Every other module that bound the same function by name.
            for module in list(sys.modules.values()):
                if module is owner or not _traceable_module(module):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, holder, attr: str, original, wrapper) -> None:
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def leftover_wrappers(self) -> list[str]:
        """Names still bound to a wrapper (empty after :meth:`uninstall`)."""
        leftovers = []
        for module in list(sys.modules.values()):
            if not _traceable_module(module):
                continue
            for key, value in list(vars(module).items()):
                if hasattr(value, _ORIGINAL):
                    leftovers.append(f"{module.__name__}.{key}")
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if hasattr(member, _ORIGINAL):
                            leftovers.append(
                                f"{module.__name__}.{key}.{attr}"
                            )
        return sorted(set(leftovers))


def _traceable_module(module) -> bool:
    name = getattr(module, "__name__", "")
    return (
        name == "repro" or name.startswith("repro.")
        or (name.startswith("lockbench") and name != __name__)
    )


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def window(data: dict, start: float, end: float) -> dict:
    """Spans and counts that started inside ``[start, end]``."""
    return {
        "spans": [s for s in data["spans"] if start <= s[1] <= end],
        "counts": [c for c in data["counts"] if start <= c[2] <= end],
    }


def summarize(data: dict) -> dict:
    """Per-name self time, inclusive time and call count, plus counts.

    Returns ``{"self": {name: s}, "incl": {name: s}, "calls": {name: n},
    "counts": {name: total}, "durations": {name: [s, ...]},
    "covered": s, "bad_spans": n}``.  ``covered`` is the union of the
    top-level span intervals (measured independently of the self-time
    bookkeeping, so the two can be checked against each other);
    ``bad_spans`` counts spans whose self time is negative or exceeds
    their duration.
    """
    self_time: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    top: list[tuple[float, float]] = []
    bad = 0
    for name, start, end, child, depth in data["spans"]:
        duration = end - start
        own = duration - child
        if own < -1e-6 or own > duration + 1e-9:
            bad += 1
        self_time[name] += own
        incl[name] += duration
        calls[name] += 1
        durations[name].append(duration)
        if depth == 0:
            top.append((start, end))
    counts: dict[str, float] = defaultdict(float)
    for name, value, _ in data["counts"]:
        counts[name] += value
    return {
        "self": dict(self_time),
        "incl": dict(incl),
        "calls": dict(calls),
        "counts": dict(counts),
        "durations": dict(durations),
        "covered": _union_length(top),
        "bad_spans": bad,
    }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total

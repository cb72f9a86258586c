"""Measurement hooks the benchmark installs around the engine's public API.

Two levels, both installed from the benchmark's own files and removed
again by :meth:`Hooks.uninstall`; nothing under ``src/`` is modified:

* the **clock** (every run): one ``perf_counter`` pair per ``run()``
  call made through :meth:`Engine.call_global`, a host-speed probe before
  each of those calls, the simulated cycles of every
  :class:`BenchmarkRunner` run, and -- for pool workers -- a spool file
  per process so the parent sees what its workers measured;
* the **layer spans** (traced runs only): wrappers around each layer's
  public entry points that accumulate *self* time (a span's duration
  minus the spans it encloses), plus counters read off every engine the
  round created.

The benchmark runs on a share of a host whose speed swings by up to 2x
over tens of seconds as other tenants load it, longer than any run, so
host times are scaled to a reference speed.  The probe (:func:`probe`) is
a fixed piece of pure-Python work, about 2 ms, half interpreter-bound and
half memory-bound like the engine itself (a probe of only the first kind
slows down more than the engine does and over-corrects), timed just
before every timed ``run()`` call; the moving median of the last ``PROBE_WINDOW``
probes gives the host's current speed, and every stretch of timed work
(a ``run()`` call, or the time between two probes) is scaled by
``PROBE_REF_MS`` over that median.  The probe is the benchmark's own code,
so a change to the engine moves the scaled times in full; probe time
itself is left out of them.

Simulated quantities are floats summed over engines.  Pool workers finish
their cells in any order, so float parts are kept as lists and added with
:func:`math.fsum`, whose result does not depend on the order.
"""

from __future__ import annotations

import builtins
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional, Tuple

#: layer span name -> (module, attribute) of each public entry point it covers
SPAN_FUNCTIONS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "lang.parse_s": (("repro.lang.parser", "parse"),),
    "bytecode.compile_s": (("repro.bytecode.compiler", "compile_source"),),
    "ir.build_s": (("repro.ir.builder", "build_graph"),),
    "ir.passes_s": (("repro.ir.passes.pipeline", "run_optimization_pipeline"),),
    "jit.codegen_s": (("repro.jit.codegen", "generate_code"),),
    "analysis.typeflow_s": (
        ("repro.analysis.typeflow", "analyze_typeflow"),
        ("repro.analysis.typeflow", "typed_plans"),
        ("repro.analysis.typeflow", "version_analysis"),
    ),
    "machine.blocks_compile_s": (("repro.machine.blockjit", "compile_blocks"),),
    "machine.versions_attach_s": (("repro.machine.lbbv", "attach_versions"),),
}

#: spans an optimizing compile can bail out of (``ir.bailouts``)
COMPILE_SPANS = frozenset({"ir.build_s", "ir.passes_s", "jit.codegen_s"})

#: layer span name -> (module, class, method) entry points
SPAN_METHODS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "interpreter.self_s": (
        ("repro.interpreter.interpreter", "Interpreter", "run"),
        ("repro.interpreter.interpreter", "Interpreter", "run_from"),
    ),
    "runtime.self_s": (("repro.engine", "Engine", "call_runtime"),),
    "machine.executor_self_s": (("repro.machine.executor", "Executor", "run"),),
    "gc.self_s": (("repro.engine", "Engine", "run_gc"),),
}

#: duration of one :func:`probe` on the reference host: scaled host times
#: are the times the timed work would take on a host this fast
PROBE_REF_MS = 2.0
#: probes in the moving median that estimates the host's current speed
PROBE_WINDOW = 9
#: objects on the cycle the probe walks (a power of two): about 3 MB,
#: beyond the per-core caches, as the engine's heap is
PROBE_NODES = 1 << 16

#: tier modules whose ``compile()`` calls generate the closures of fused
#: blocks, versions and traces (``machine.py_compile_calls``)
TIER_MODULES = ("repro.machine.blockjit", "repro.machine.lbbv", "repro.machine.tracejit")

#: eager-deopt category check, resolved lazily (imports the engine)
_EAGER = None

#: the hooks object pool workers report through.  A pool pickles the
#: function it runs by name only, so the worker-side wrapper must find its
#: hooks through a module global; it is set by :meth:`Hooks.install` and
#: cleared by :meth:`Hooks.uninstall`.
_ACTIVE: Optional["Hooks"] = None


class _ProbeNode:
    __slots__ = ("value", "next")


#: where the probe's walk goes on from (built by :func:`prepare_probe`)
_probe_at: Optional[_ProbeNode] = None


def prepare_probe() -> None:
    """Link ``PROBE_NODES`` objects into one cycle that jumps around memory.

    Node ``i`` links to node ``(5 i + 1) mod PROBE_NODES``, a full-period
    sequence, so the walk visits every node in an order no prefetcher
    follows.
    """
    global _probe_at
    if _probe_at is not None:
        return
    nodes = [_ProbeNode() for _ in range(PROBE_NODES)]
    for index, node in enumerate(nodes):
        node.value = index & 0xFF
        node.next = nodes[(5 * index + 1) % PROBE_NODES]
    _probe_at = nodes[0]


def probe() -> int:
    """A fixed piece of pure-Python work that slows down with the host the
    way the interpreted engine does: dict updates and int-to-str
    conversions, then 5000 steps further along the cycle of objects (the
    two take about the same time while the engine runs)."""
    global _probe_at
    table: Dict[int, int] = {}
    total = 0
    for i in range(3000):
        key = i % 997
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    node = _probe_at
    for _ in range(5000):
        total += node.value
        node = node.next
    _probe_at = node
    return total


def tier_name(config) -> str:
    """The executor-ladder rung an engine config selects."""
    if not config.enable_optimizer:
        return "interp"
    for flag, name in (
        ("blockjit", "opt"),
        ("typed_blocks", "block"),
        ("tracejit", "typed"),
        ("lbbv", "trace"),
        ("continuations", "lbbv"),
    ):
        if not getattr(config, flag):
            return name
    return "deoptless"


class Hooks:
    """Clock and (optionally) layer-span instrumentation for one round."""

    def __init__(self, traced: bool, spool_dir: Optional[str] = None) -> None:
        self.traced = traced
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        #: scaled host ms of every timed ``run()`` call, one list per
        #: engine (consecutive calls on one engine form its group)
        self.iter_ms: List[List[float]] = []
        #: whether ``run()`` calls are timed (and probed): from
        #: :meth:`start_timing` on, and in pool workers forked after it
        self.timing = False
        self._probe_ms: deque = deque(maxlen=PROBE_WINDOW)
        #: start of the stretch of timed work since the last probe
        self._mark: Optional[float] = None
        #: timed seconds outside probes, raw and scaled, and probe seconds
        self.busy_s = 0.0
        self.scaled_s = 0.0
        self.probe_s = 0.0
        #: processes that took probes during the timed work
        self.probe_pids: set = set()
        self._last_engine: object = None
        #: simulated cycles per iteration of every BenchmarkRunner run
        self.run_cycles: List[float] = []
        #: inclusive host seconds per executor-ladder tier (fuzz)
        self.tier_s: Dict[str, float] = defaultdict(float)
        #: layer self seconds
        self.self_s: Dict[str, float] = defaultdict(float)
        #: integer counters
        self.counts: Dict[str, int] = defaultdict(int)
        #: simulated float counters, kept as parts (see module docstring)
        self.parts: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._injected: List[object] = []
        self._engines: List[object] = []
        self._samplers: List[object] = []
        self.cells = 0
        self.cell_s: List[float] = []
        #: keys of the cells ``compute_cell`` returned from, in any process
        self.computed: List[str] = []

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def install(self) -> "Hooks":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("benchmark hooks are already installed")
        import repro.engine
        import repro.exec.scheduler
        import repro.suite.runner

        self._patch_method(repro.engine.Engine, "call_global", self._clock_call_global)
        self._patch_method(repro.suite.runner.BenchmarkRunner, "run", self._clock_runner_run)
        # Only the scheduler's binding: it is the one pool workers run.
        self.compute_cell = repro.exec.scheduler.compute_cell
        self._patches.append((repro.exec.scheduler, "compute_cell", self.compute_cell))
        repro.exec.scheduler.compute_cell = _spooled_compute_cell
        if self.traced:
            self._install_spans()
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        restore: Dict[int, Tuple[object, object]] = {}
        for owner, name, original in reversed(self._patches):
            wrapper = getattr(owner, name)
            restore[id(wrapper)] = (wrapper, original)
            setattr(owner, name, original)
        self._patches.clear()
        self._last_engine = None
        # Modules imported while the hooks were in place bound wrappers
        # by ``from ... import``; point them back at the originals too.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in list(vars(module).items()):
                    while id(value) in restore and restore[id(value)][0] is value:
                        value = restore[id(value)][1]
                        setattr(module, attr, value)
        for module in self._injected:
            del module.compile  # type: ignore[attr-defined]
        self._injected.clear()
        _ACTIVE = None

    def _patch_method(self, cls, name: str, make: Callable) -> None:
        original = cls.__dict__[name]
        wrapper = make(original)
        wrapper.__wrapped__ = original
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper)

    def _patch_global(self, original, wrapper) -> None:
        """Rebind every ``repro`` module global that names ``original``."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _install_spans(self) -> None:
        import importlib

        import repro.engine
        import repro.profiling.sampler
        from repro.ir.builder import BailoutCompilation

        for layer, sites in SPAN_FUNCTIONS.items():
            bailout = BailoutCompilation if layer in COMPILE_SPANS else None
            for module_name, attr in sites:
                original = getattr(importlib.import_module(module_name), attr)
                self._patch_global(original, self._span(layer, original, bailout))
        for layer, sites in SPAN_METHODS.items():
            for module_name, cls_name, method in sites:
                cls = getattr(importlib.import_module(module_name), cls_name)
                self._patch_method(cls, method, lambda fn, layer=layer: self._span(layer, fn))
        # compile_source is now its span wrapper; count functions around it
        spanned = sys.modules["repro.bytecode.compiler"].compile_source
        self._patch_global(spanned, self._counting(spanned, self._count_functions))
        self._patch_method(repro.engine.Engine, "call_runtime", self._counted_runtime)
        self._patch_method(repro.engine.Engine, "run_gc", self._counted_gc)
        self._patch_method(repro.engine.Engine, "__init__", self._tracked_engine_init)
        original_attach = repro.profiling.sampler.attach_sampler
        self._patch_global(original_attach, self._counting(original_attach, self._samplers.append))
        counts = self.counts

        def counted_compile(*args, **kwargs):
            counts["machine.py_compile_calls"] += 1
            return builtins.compile(*args, **kwargs)

        for module_name in TIER_MODULES:
            module = importlib.import_module(module_name)
            if "compile" in vars(module):
                raise RuntimeError(f"{module_name} already defines compile")
            module.compile = counted_compile  # type: ignore[attr-defined]
            self._injected.append(module)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _span(self, layer: str, fn, bailout: Optional[type] = None):
        stack = self._stack
        totals = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as failure:
                # counted once, at the innermost compile span it leaves
                if bailout is not None and isinstance(failure, bailout) and not getattr(
                    failure, "_bench_counted", False
                ):
                    failure._bench_counted = True
                    counts["ir.bailouts"] += 1
                raise
            finally:
                elapsed = clock() - start
                totals[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _counting(fn, observe):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_functions(self, program) -> None:
        self.counts["bytecode.functions"] += len(program.functions)

    def _counted_runtime(self, fn):
        counts = self.counts

        def call_runtime(engine, *args, **kwargs):
            counts["runtime.calls"] += 1
            return fn(engine, *args, **kwargs)

        return call_runtime

    def _counted_gc(self, fn):
        counts = self.counts

        def run_gc(engine):
            freed = fn(engine)
            counts["gc.runs"] += 1
            counts["gc.freed"] += freed
            return freed

        return run_gc

    def _tracked_engine_init(self, fn):
        engines = self._engines

        def __init__(engine, *args, **kwargs):
            fn(engine, *args, **kwargs)
            engines.append(engine)

        return __init__

    def start_timing(self) -> None:
        """Restart the clock's accounting at the first timed op.

        ``run()`` latencies, runner cycles and computed cells seen so far
        (set-up's warm-up calls, or cells a set-up computed) are dropped;
        layer spans and counters keep what set-up did.
        """
        self.merge_spool()
        self.iter_ms.clear()
        self.run_cycles.clear()
        self.cells = 0
        self.cell_s.clear()
        self.computed.clear()
        self._last_engine = None
        self.busy_s = self.scaled_s = self.probe_s = 0.0
        self.probe_pids.clear()
        prepare_probe()
        self.timing = True
        self._mark = time.perf_counter()

    def stop_timing(self, until: float) -> None:
        """End the timed work at ``until`` (a ``perf_counter`` reading)."""
        self._close_stretch(until)
        self.timing = False

    def _speed(self) -> float:
        """Reference speed over current speed, from the recent probes."""
        return PROBE_REF_MS / statistics.median(self._probe_ms)

    def _close_stretch(self, until: float) -> None:
        """Account the timed work since the last probe, at the current speed."""
        if self._mark is not None and self._probe_ms:
            stretch = until - self._mark
            self.busy_s += stretch
            self.scaled_s += stretch * self._speed()
        self._mark = None

    def _probe(self) -> float:
        """Time one probe, account the stretch before it; the current speed."""
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self._probe_ms.append((end - start) * 1e3)
        self.probe_s += end - start
        self.probe_pids.add(os.getpid())
        self._close_stretch(start)
        self._mark = end
        return self._speed()

    def scaled_wall(self, wall_s: float, jobs: int) -> float:
        """``wall_s`` of timed work at reference speed, probe time left out.

        Up to ``jobs`` processes took probes side by side, so the wall time
        holds about the probe seconds over the number of them.
        """
        if not self.busy_s:
            raise RuntimeError("no host-speed probe was taken during the timed work")
        probes = self.probe_s / min(jobs, len(self.probe_pids))
        return (wall_s - probes) * self.scaled_s / self.busy_s

    def _clock_call_global(self, fn):
        groups = self.iter_ms
        clock = time.perf_counter

        def call_global(engine, name, *args):
            if name != "run" or not self.timing:
                return fn(engine, name, *args)
            speed = self._probe()
            start = clock()
            value = fn(engine, name, *args)
            elapsed = (clock() - start) * 1e3 * speed
            if engine is not self._last_engine:
                self._last_engine = engine
                groups.append([])
            groups[-1].append(elapsed)
            return value

        return call_global

    def _clock_runner_run(self, fn):
        cycles = self.run_cycles
        tier_s = self.tier_s
        clock = time.perf_counter

        def run(runner, *args, **kwargs):
            probes = self.probe_s
            start = clock()
            result = fn(runner, *args, **kwargs)
            tier_s[tier_name(runner.config)] += clock() - start - (self.probe_s - probes)
            if result.cycles:
                cycles.append(math.fsum(result.cycles) / len(result.cycles))
            return result

        return run

    # ------------------------------------------------------------------
    # engine counters
    # ------------------------------------------------------------------

    def harvest(self) -> None:
        """Add the counters of every engine created since the last call."""
        global _EAGER
        if _EAGER is None:
            from repro.jit.checks import DeoptCategory, category_of

            _EAGER = (DeoptCategory.EAGER, category_of)
        eager, category_of = _EAGER
        counts, parts = self.counts, self.parts
        for engine in self._engines:
            buckets = engine.buckets
            parts["interpreter.sim_cycles"].append(buckets["interpreter"])
            parts["interpreter.builtin_sim_cycles"].append(buckets["builtin"])
            parts["jit.compile_sim_cycles"].append(buckets["compile"])
            parts["jit.deopt_sim_cycles"].append(buckets["deopt"])
            parts["gc.sim_cycles"].append(buckets["gc"])
            parts["machine.jit_sim_cycles"].append(engine.jit_cycles())
            counts["jit.compilations"] += engine.compilations
            counts["jit.eager_deopts"] += sum(
                1 for event in engine.deopt_events if category_of(event.kind) == eager
            )
            stats = engine.executor.stats
            counts["machine.instructions"] += stats.instructions
            counts["uarch.branches"] += stats.branches
            counts["uarch.mispredictions"] += stats.mispredictions
            typed = engine.typed_check_stats()
            counts["machine.entry_guards_evaluated"] += typed["entry_guards_evaluated"]
            counts["machine.guard_failures"] += typed["guard_failures"]
            counts["machine.versions_registered"] += typed["versions_registered"]
            counts["machine.version_chained_entries"] += typed["version_chained_entries"]
            counts["machine.version_dispatch_entries"] += typed["version_dispatch_entries"]
            traces = engine.trace_stats()
            counts["machine.traces"] += traces["traces"]
            counts["machine.trace_entries"] += traces["trace_entries"]
            counts["machine.chain_guards_elided"] += traces["chain_guards_elided"]
            resilience = engine.resilience_stats()
            counts["machine.dispatches"] += resilience["continuation_dispatches"]
            counts["machine.continuation_compiles"] += resilience["continuation_compiles"]
            counts["machine.ladder_descents"] += len(resilience["ladder_descents"])
            seen = set()
            for shared in engine.functions:
                code = shared.code
                if code is not None and id(code) not in seen:
                    seen.add(id(code))
                    code_stats = code.check_instruction_stats()
                    counts["jit.body_instructions"] += code_stats["body_instructions"]
                    counts["jit.check_instructions"] += code_stats["check_instructions"]
        self._engines.clear()
        for sampler in self._samplers:
            counts["profiling.samples"] += sampler.total_samples
        self._samplers.clear()

    # ------------------------------------------------------------------
    # pool workers
    # ------------------------------------------------------------------

    def _snapshot(self) -> Dict[str, object]:
        return {
            "iter_ms": len(self.iter_ms),
            "run_cycles": len(self.run_cycles),
            "tier_s": dict(self.tier_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "parts": {name: len(values) for name, values in self.parts.items()},
            "busy_s": self.busy_s,
            "scaled_s": self.scaled_s,
            "probe_s": self.probe_s,
        }

    def _delta(self, before: Dict[str, object], cell_s: float,
               computed: Optional[str]) -> Dict[str, object]:
        def diff(now: Dict[str, float], then: Dict[str, float]) -> Dict[str, float]:
            return {k: v - then.get(k, 0) for k, v in now.items() if v != then.get(k, 0)}

        return {
            "cell_s": cell_s,
            "computed": computed,
            "iter_ms": self.iter_ms[before["iter_ms"]:],
            "run_cycles": self.run_cycles[before["run_cycles"]:],
            "tier_s": diff(self.tier_s, before["tier_s"]),
            "self_s": diff(self.self_s, before["self_s"]),
            "counts": diff(self.counts, before["counts"]),
            "parts": {
                name: values[before["parts"].get(name, 0):]
                for name, values in self.parts.items()
            },
            "pid": os.getpid(),
            "busy_s": self.busy_s - before["busy_s"],
            "scaled_s": self.scaled_s - before["scaled_s"],
            "probe_s": self.probe_s - before["probe_s"],
        }

    def merge_spool(self) -> None:
        """Fold in, and remove, what pool workers measured (one JSON line per cell)."""
        if not self.spool_dir or not os.path.isdir(self.spool_dir):
            return
        for entry in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, entry)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    self._merge_cell(json.loads(line))
            os.remove(path)

    def _merge_cell(self, record: Dict[str, object]) -> None:
        self.cells += 1
        self.cell_s.append(record["cell_s"])
        if record["computed"] is not None:
            self.computed.append(record["computed"])
        self.iter_ms.extend(record["iter_ms"])
        self.run_cycles.extend(record["run_cycles"])
        for name, value in record["tier_s"].items():
            self.tier_s[name] += value
        for name, value in record["self_s"].items():
            self.self_s[name] += value
        for name, value in record["counts"].items():
            self.counts[name] += value
        for name, values in record["parts"].items():
            self.parts[name].extend(values)
        if record["probe_s"]:
            self.probe_pids.add(record["pid"])
        self.busy_s += record["busy_s"]
        self.scaled_s += record["scaled_s"]
        self.probe_s += record["probe_s"]

    def sim(self, name: str) -> float:
        return math.fsum(self.parts.get(name, ()))


def _spooled_compute_cell(cell):
    """``repro.exec.compute_cell`` as pool workers run it under the hooks.

    In a worker (a fork of the round's process) the cell's measurements
    are appended to ``<spool>/<pid>.jsonl``; in the round's own process
    (the serial path) they already land in the parent's totals.
    """
    hooks = _ACTIVE
    if hooks is None:
        raise RuntimeError("benchmark hooks are not installed in this process")
    compute_cell = hooks.compute_cell
    in_worker = os.getpid() != hooks.owner_pid
    before = hooks._snapshot() if in_worker else None
    start = time.perf_counter()
    if in_worker:
        # only the cell's own time counts as timed work in a worker
        hooks.timing = True
        hooks._mark = start
    computed = None
    try:
        value = compute_cell(cell)
        computed = cell.key()
        return value
    finally:
        end = time.perf_counter()
        elapsed = end - start
        if hooks.traced:
            hooks.harvest()
        if in_worker:
            hooks._close_stretch(end)
            record = hooks._delta(before, elapsed, computed)
            path = os.path.join(hooks.spool_dir, f"{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        else:
            hooks.cells += 1
            hooks.cell_s.append(elapsed)
            if computed is not None:
                hooks.computed.append(computed)


#: per-layer metric -> unit, in report order (BENCHMARK.json lists the same)
LAYER_UNITS: Dict[str, str] = {
    "lang.parse_s": "s",
    "bytecode.compile_s": "s",
    "bytecode.functions": "count",
    "interpreter.self_s": "s",
    "interpreter.sim_cycles": "cycles",
    "interpreter.builtin_sim_cycles": "cycles",
    "runtime.calls": "count",
    "runtime.self_s": "s",
    "ir.build_s": "s",
    "ir.passes_s": "s",
    "ir.bailouts": "count",
    "jit.codegen_s": "s",
    "jit.compilations": "count",
    "jit.check_instr_share": "ratio",
    "jit.compile_sim_cycles": "cycles",
    "jit.deopt_sim_cycles": "cycles",
    "jit.eager_deopts": "count",
    "analysis.typeflow_s": "s",
    "machine.executor_self_s": "s",
    "machine.blocks_compile_s": "s",
    "machine.versions_attach_s": "s",
    "machine.py_compile_calls": "count",
    "machine.instructions": "count",
    "machine.instr_per_host_s": "1/s",
    "machine.jit_sim_cycles": "cycles",
    "machine.traces": "count",
    "machine.trace_entries": "count",
    "machine.chain_guards_elided": "count",
    "machine.typed_guard_fail_ratio": "ratio",
    "machine.versions_registered": "count",
    "machine.lbbv_chained_ratio": "ratio",
    "machine.dispatches": "count",
    "machine.continuation_compiles": "count",
    "machine.ladder_descents": "count",
    "uarch.mispredict_ratio": "ratio",
    "gc.self_s": "s",
    "gc.runs": "count",
    "gc.freed": "count",
    "gc.sim_cycles": "cycles",
    "exec.cells": "count",
    "exec.cell_s_sum": "s",
    "exec.pool_efficiency": "ratio",
    "exec.cache_hits": "count",
    "profiling.samples": "count",
    "fuzz.generate_s": "s",
    "fuzz.tier.interp_s": "s",
    "fuzz.tier.opt_s": "s",
    "fuzz.tier.block_s": "s",
    "fuzz.tier.typed_s": "s",
    "fuzz.tier.trace_s": "s",
    "fuzz.tier.lbbv_s": "s",
    "fuzz.tier.deoptless_s": "s",
    "fuzz.divergences": "count",
    "trace.overhead": "ratio",
}

#: host-clock metrics: medians over rounds, never compared exactly
HOST_METRICS = frozenset(
    name for name, unit in LAYER_UNITS.items() if unit == "s"
) | {"machine.instr_per_host_s", "exec.pool_efficiency", "trace.overhead"}

TIERS = ("interp", "opt", "block", "typed", "trace", "lbbv", "deoptless")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(hooks: Hooks, wall_s: float, jobs: int, fuzz: Dict[str, float],
                  cache_hits: int) -> Dict[str, float]:
    """Per-layer numbers of one traced round (``trace.overhead`` excluded).

    ``fuzz`` carries the fuzz workload's own figures (generator time and
    divergences); it is empty on the other workloads, whose fuzz metrics
    read 0.  ``cache_hits`` counts the requested grid cells that were
    served without being computed (see ``Figures.check``).
    """
    s, c = hooks.self_s, hooks.counts
    cell_s_sum = math.fsum(hooks.cell_s)
    metrics: Dict[str, float] = {
        name: s.get(name, 0.0)
        for name in (
            "lang.parse_s", "bytecode.compile_s", "interpreter.self_s", "runtime.self_s",
            "ir.build_s", "ir.passes_s", "jit.codegen_s", "analysis.typeflow_s",
            "machine.executor_self_s", "machine.blocks_compile_s",
            "machine.versions_attach_s", "gc.self_s",
        )
    }
    metrics.update({
        name: c.get(name, 0)
        for name in (
            "bytecode.functions", "runtime.calls", "ir.bailouts", "jit.compilations",
            "jit.eager_deopts", "machine.py_compile_calls", "machine.instructions",
            "machine.traces", "machine.trace_entries", "machine.chain_guards_elided",
            "machine.versions_registered", "machine.dispatches",
            "machine.continuation_compiles", "machine.ladder_descents", "gc.runs",
            "gc.freed", "profiling.samples",
        )
    })
    metrics.update({
        name: hooks.sim(name)
        for name in (
            "interpreter.sim_cycles", "interpreter.builtin_sim_cycles",
            "jit.compile_sim_cycles", "jit.deopt_sim_cycles", "machine.jit_sim_cycles",
            "gc.sim_cycles",
        )
    })
    metrics.update({
        "jit.check_instr_share": _ratio(c["jit.check_instructions"], c["jit.body_instructions"]),
        "machine.instr_per_host_s": _ratio(
            c["machine.instructions"], s.get("machine.executor_self_s", 0.0)
        ),
        "machine.typed_guard_fail_ratio": _ratio(
            c["machine.guard_failures"], c["machine.entry_guards_evaluated"]
        ),
        "machine.lbbv_chained_ratio": _ratio(
            c["machine.version_chained_entries"], c["machine.version_dispatch_entries"]
        ),
        "uarch.mispredict_ratio": _ratio(c["uarch.mispredictions"], c["uarch.branches"]),
        "exec.cells": hooks.cells,
        "exec.cell_s_sum": cell_s_sum,
        "exec.pool_efficiency": _ratio(cell_s_sum, wall_s * jobs) if hooks.cells else 0.0,
        "exec.cache_hits": cache_hits,
        "fuzz.generate_s": fuzz.get("generate_s", 0.0),
        "fuzz.divergences": fuzz.get("divergences", 0),
    })
    for tier in TIERS:
        metrics[f"fuzz.tier.{tier}_s"] = hooks.tier_s.get(tier, 0.0) if fuzz else 0.0
    return metrics

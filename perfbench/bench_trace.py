"""Span tracing of the layers' public entry points, from outside ``src/``.

:class:`Tracer` patches the entry point of each layer (a class method or a
module-level name that callers look up at call time) with a wrapper that
records one span per call: name, start, end, parent span and operation id.
Spans stay in memory and are written out once, at the end of the run.

``ShadowTracker.hook`` runs once per emulated instruction of an attacked
execution (millions of calls per operation), so it gets no span of its own:
its calls are counted and their time is charged to the enclosing span as
aggregated child time.  That wrapper is also where most of the tracing
overhead goes on the hooked workloads.

A layer's *self* time is its spans' duration minus the time covered by
their child spans and aggregated hook calls.  Frontier workers are forked
after the patches are installed, so they trace too, but their spans stay
in the worker processes; the coordinator sees their work as
``attacks.frontier.wait_s``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro import compiler
from repro.attacks.dse import DseEngine
from repro.attacks.frontier import FrontierExplorer
from repro.attacks.shadow import ShadowTracker
from repro.attacks.solver.solver import ConstraintSolver
from repro.cpu import emulator as emulator_module
from repro.cpu.emulator import Emulator
from repro.obfuscation import configs

#: Operation id of spans opened while the workload is being set up.
SETUP = -1
#: Operation id of spans opened by the benchmark's own reference runs and
#: output checks.
REFERENCE = -2

_JIT_FIELDS = ("traces_compiled", "compiled_runs", "closure_runs", "native_steps",
               "generic_steps", "superblock_runs")
_EXPLORE_FIELDS = ("executions", "branch_restores", "repair_fallbacks", "snapshots_evicted")

#: Span names whose self time counts as a named layer (everything but the
#: benchmark's own ``op`` span).
LAYERS = ("compiler.compile", "core.rewriter.rop_obfuscate", "obfuscation.vm.virtualize",
          "cpu.run_fast", "cpu.run_hooked", "cpu.codegen.compile", "cpu.snapshot",
          "cpu.restore", "attacks.shadow.hook", "attacks.dse.execute", "attacks.dse.explore",
          "attacks.solver.query", "attacks.frontier.explore")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.op_ids: List[int] = []
        #: per span: summed duration of its direct child spans
        self.child: List[float] = []
        #: per span: aggregated (span-less) hook time charged to it
        self.hooked: List[float] = []
        self.stack: List[int] = []
        self.op_id = SETUP
        #: shadow-hook calls; only attacked executions in the measured loop
        #: install the hook, so every call belongs to an operation
        self.hook_calls = 0
        self.counters: Dict[str, float] = defaultdict(float)
        self.by_worker: Dict[int, int] = defaultdict(int)
        self._undo: List[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.op_ids.append(self.op_id)
        self.child.append(0.0)
        self.hooked.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self.ends[index] = end
        self.stack.pop()
        parent = self.parents[index]
        if parent >= 0:
            self.child[parent] += end - self.starts[index]

    def self_time(self, index: int) -> float:
        return self.ends[index] - self.starts[index] - self.child[index] - self.hooked[index]

    # -- patching ----------------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        original = getattr(owner, attribute)
        setattr(owner, attribute, replacement)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def _spanned(self, owner, attribute: str, name: str,
                 after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attribute`` in a span; ``after(args, result)`` counts."""
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attribute, traced)

    def install(self) -> None:
        tracer = self
        counters = self.counters
        self._spanned(compiler, "compile_program", "compiler.compile")
        self._spanned(configs, "compile_program", "compiler.compile")
        self._spanned(configs, "rop_obfuscate", "core.rewriter.rop_obfuscate")
        self._spanned(configs, "virtualize_program", "obfuscation.vm.virtualize")
        self._spanned(emulator_module, "compile_trace", "cpu.codegen.compile")
        self._spanned(Emulator, "snapshot", "cpu.snapshot")
        self._spanned(Emulator, "restore", "cpu.restore")
        self._spanned(DseEngine, "execute", "attacks.dse.execute")

        def explored(args, result) -> None:
            stats = result[1]
            for name in _EXPLORE_FIELDS:
                counters["explore." + name] += getattr(stats, name)

        def frontier_explored(args, result) -> None:
            explored(args, result)
            explorer = args[0]
            counters["frontier.respawns"] += explorer.respawns
            for worker, executions in explorer.executions_by_worker.items():
                tracer.by_worker[worker] += executions

        self._spanned(DseEngine, "explore", "attacks.dse.explore", explored)
        self._spanned(FrontierExplorer, "explore", "attacks.frontier.explore",
                      frontier_explored)

        run = Emulator.run

        def traced_run(emulator, *args, **kwargs):
            hooked = bool(emulator.pre_hooks)
            name = "cpu.run_hooked" if hooked else "cpu.run_fast"
            steps = emulator.steps
            jit = emulator.jit_stats
            before = [getattr(jit, field) for field in _JIT_FIELDS]
            index = tracer.open(name)
            try:
                return run(emulator, *args, **kwargs)
            finally:
                tracer.close(index)
                # set-up and reference runs are not layer work
                if tracer.op_id >= 0:
                    counters[name + "_instr"] += emulator.steps - steps
                    if not hooked:
                        jit = emulator.jit_stats
                        for field, value in zip(_JIT_FIELDS, before):
                            counters["jit." + field] += getattr(jit, field) - value

        self._patch(Emulator, "run", traced_run)

        solve = ConstraintSolver.solve

        def traced_solve(solver, *args, **kwargs):
            evaluations = solver.stats.evaluations
            index = tracer.open("attacks.solver.query")
            try:
                solution = solve(solver, *args, **kwargs)
            finally:
                tracer.close(index)
            counters["solver.evaluations"] += solver.stats.evaluations - evaluations
            counters["solver.solved"] += solution is not None
            return solution

        self._patch(ConstraintSolver, "solve", traced_solve)

        hook = ShadowTracker.hook
        perf_counter = time.perf_counter
        stack = self.stack
        child = self.child
        hooked_time = self.hooked

        def traced_hook(shadow, emulator, address, instruction):
            top = stack[-1]
            nested = child[top]
            start = perf_counter()
            hook(shadow, emulator, address, instruction)
            # spans opened inside the hook (branch-observer snapshots) are
            # already charged to ``top`` as child time
            hooked_time[top] += perf_counter() - start - (child[top] - nested)
            tracer.hook_calls += 1

        self._patch(ShadowTracker, "hook", traced_hook)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------------
    def layer_metrics(self, setup_repeats: int) -> Dict[str, Dict[str, object]]:
        """Per-layer counts and self times over the measured operations.

        Set-up layers are averaged over the set-up repetitions; every other
        layer is summed over the spans of the measured loop.
        """
        self_s: Dict[str, float] = defaultdict(float)
        busy_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        setup_s: Dict[str, float] = defaultdict(float)
        op_wall = 0.0
        for index, name in enumerate(self.names):
            op_id = self.op_ids[index]
            own = self.self_time(index)
            if op_id == SETUP:
                setup_s[name] += own
            if op_id < 0:
                continue
            duration = self.ends[index] - self.starts[index]
            if name == "op":
                op_wall += duration
            self_s[name] += own
            busy_s[name] += duration
            calls[name] += 1
            self_s["attacks.shadow.hook"] += self.hooked[index]
        named = sum(self_s[name] for name in LAYERS)
        c = self.counters
        executions = c["explore.executions"]
        queries = calls["attacks.solver.query"]
        workers = list(self.by_worker.values())
        imbalance = max(workers) / statistics.mean(workers) if workers and any(workers) else 0.0
        compiled, closure = c["jit.compiled_runs"], c["jit.closure_runs"]
        native, generic = c["jit.native_steps"], c["jit.generic_steps"]
        frontier_busy = busy_s["attacks.frontier.explore"]
        values = {
            "compiler.compile_s": (setup_s["compiler.compile"] / setup_repeats, "s"),
            "core.rewriter.rop_obfuscate_s": (
                setup_s["core.rewriter.rop_obfuscate"] / setup_repeats, "s"),
            "obfuscation.vm.virtualize_s": (
                setup_s["obfuscation.vm.virtualize"] / setup_repeats, "s"),
            "cpu.run_fast_s": (self_s["cpu.run_fast"], "s"),
            "cpu.run_fast_instr": (c["cpu.run_fast_instr"], "count"),
            "cpu.codegen.compile_s": (self_s["cpu.codegen.compile"], "s"),
            "cpu.codegen.compile_calls": (calls["cpu.codegen.compile"], "count"),
            "cpu.jit.traces_compiled": (c["jit.traces_compiled"], "count"),
            "cpu.jit.fused_runs": (compiled + closure, "count"),
            "cpu.jit.compiled_hit_rate": (_ratio(compiled, compiled + closure), "ratio"),
            "cpu.jit.compiled_instr": (native + generic, "count"),
            "cpu.jit.native_coverage": (_ratio(native, native + generic), "ratio"),
            "cpu.jit.superblock_runs": (c["jit.superblock_runs"], "count"),
            "cpu.run_hooked_s": (self_s["cpu.run_hooked"], "s"),
            "cpu.run_hooked_instr": (c["cpu.run_hooked_instr"], "count"),
            "cpu.snapshot_s": (self_s["cpu.snapshot"], "s"),
            "cpu.snapshots": (calls["cpu.snapshot"], "count"),
            "cpu.restore_s": (self_s["cpu.restore"], "s"),
            "cpu.restores": (calls["cpu.restore"], "count"),
            "attacks.shadow.hook_s": (self_s["attacks.shadow.hook"], "s"),
            "attacks.shadow.hook_calls": (self.hook_calls, "count"),
            "attacks.dse.execute_s": (self_s["attacks.dse.execute"], "s"),
            "attacks.dse.explore_s": (self_s["attacks.dse.explore"], "s"),
            "attacks.dse.executions": (executions, "count"),
            "attacks.solver.query_s": (self_s["attacks.solver.query"], "s"),
            "attacks.solver.queries": (queries, "count"),
            "attacks.solver.solved_ratio": (_ratio(c["solver.solved"], queries), "ratio"),
            "attacks.solver.evaluations": (c["solver.evaluations"], "count"),
            "attacks.engine.backtrack_rate": (
                _ratio(c["explore.branch_restores"], executions), "ratio"),
            "attacks.engine.repair_fallbacks": (c["explore.repair_fallbacks"], "count"),
            "attacks.engine.snapshots_evicted": (c["explore.snapshots_evicted"], "count"),
            "attacks.frontier.explore_s": (frontier_busy, "s"),
            "attacks.frontier.wait_s": (self_s["attacks.frontier.explore"], "s"),
            "attacks.frontier.worker_imbalance": (imbalance, "ratio"),
            "attacks.frontier.respawns": (c["frontier.respawns"], "count"),
            "trace.named_self_share": (_ratio(named, op_wall), "ratio"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def write(self, path) -> None:
        """Write every span as one JSON line (times relative to the first span)."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                out.write(json.dumps({
                    "name": name, "op": self.op_ids[index], "parent": self.parents[index],
                    "start": self.starts[index] - origin, "end": self.ends[index] - origin,
                    "self": self.self_time(index)}) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

"""Distributed DSE snapshot frontier: work-sharing concolic exploration.

:class:`FrontierExplorer` parallelizes one attack's generational exploration
across worker processes.  The division of labor keeps the explored path set
equal to the serial :meth:`repro.attacks.dse.DseEngine.explore` loop's:

* The **coordinator** (the calling process) drives the same
  :class:`~repro.attacks.dse.GenerationalFrontier` the serial loop does —
  the pending inputs, the decision-prefix dedupe, the ``seen_inputs`` set,
  the path-signature registry, the constraint solver and the CUPA strategy
  RNG all live there.  Branch negation, solving and dedup happen in the
  coordinator, exactly as in the serial loop; workers never expand paths
  on their own.
* **Workers** are :class:`~repro.evaluation.parallel.WorkerPool` workers.
  Each builds one full :class:`~repro.attacks.dse.DseEngine` on its first
  task (after fork, so the binary image is inherited, not pickled) and does
  only the expensive part: execute a pending ``(assignment, resume_key)``
  concretely under the shadow tracker on its private rewound emulator, and
  stream the :class:`~repro.attacks.dse.ExecutionResult` back together with
  the engine's per-execution stat deltas.

Mid-path snapshot pools are worker-local: a worker resuming a decision
prefix whose snapshot lives in *another* worker's pool simply falls back to
the entry rewind, which changes cost but never the executed path — so
backtracking remains an optimization, invisible in the path set.  Each
worker's pool gets an equal share of the global ``REPRO_SNAPSHOT_POOL``
budget (:func:`repro.attacks.engine.sharded_pool_capacity`), bounding
resident snapshot memory at the serial run's level regardless of the
worker count.

When the constraint solver is deterministic for the workload (e.g. its
exhaustive-enumeration phase covers the input space, as with the byte-sized
inputs of the RandomFuns suite), an exhaustive frontier run explores
*exactly* the serial explorer's path set in any execution order — the
differential property ``tests/attacks/test_frontier.py`` asserts.

Fault tolerance is :class:`~repro.evaluation.parallel.WorkerPool`'s: its
``submit``/``pump`` supervision reports a worker that dies (crash,
OOM-kill, even a *clean* premature exit) or outlives the
``REPRO_UNIT_TIMEOUT`` deadline as a ``death`` or ``deadline`` event, after
killing and respawning the slot.  The coordinator returns that event's
branch decision to the frontier under the ``REPRO_UNIT_RETRIES`` attempt
cap.  Because the path set is determined entirely by coordinator-owned
state, a recovered exploration still equals the serial explorer's — the
fault-injection differential tests (``REPRO_FAULT_INJECT``, see
:mod:`repro.faults`) kill and hang workers mid-exploration and assert
exactly that.

``workers <= 1`` — or a platform without the fork start method — delegates
to the serial engine outright.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.attacks.dse import (DseEngine, ExecutionResult, GenerationalFrontier,
                               InputSpec, PendingInput)
from repro.attacks.engine import EngineStats, sharded_pool_capacity
from repro.attacks.solver.solver import ConstraintSolver
from repro.binary.image import BinaryImage
from repro.evaluation.parallel import (FaultStats, WorkerPool, fork_available,
                                       register_unit_executor)
from repro.faults import unit_retries, unit_timeout

_STAT_FIELDS = tuple(field.name for field in dataclasses.fields(EngineStats)
                     if field.name != "elapsed")


@dataclasses.dataclass(frozen=True)
class _FrontierTask:
    """One execution for a frontier worker; ``explorer`` names the
    coordinator (see :data:`_EXPLORERS`) so the task never carries the
    image."""

    explorer: int
    assignment: Dict[str, int]
    resume_key: Optional[Tuple]


#: Coordinators with a distributed exploration under way, by token.  Filled
#: before the pool forks, so every worker (and every respawned replacement)
#: inherits the explorer whose engine it builds.
_EXPLORERS: Dict[int, "FrontierExplorer"] = {}
_TOKENS = itertools.count()

#: Worker side: the engine built from the inherited explorer, by token.
_WORKER_ENGINES: Dict[int, DseEngine] = {}


def _execute_task(task: _FrontierTask) -> dict:
    """Run one frontier task inside a pool worker.

    The engine is built once per worker.  Deep shadow-expression DAGs in an
    :class:`ExecutionResult` can out-recurse pickle's default limit, so the
    limit is raised before any result is serialized.
    """
    engine = _WORKER_ENGINES.get(task.explorer)
    if engine is None:
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
        explorer = _EXPLORERS[task.explorer]
        engine = explorer._make_engine(explorer.worker_pool_capacity)
        _WORKER_ENGINES[task.explorer] = engine
    before = [getattr(engine.stats, name) for name in _STAT_FIELDS]
    result = engine.execute(task.assignment, resume_key=task.resume_key)
    delta = {name: getattr(engine.stats, name) - value
             for name, value in zip(_STAT_FIELDS, before)}
    return {"result": result, "delta": delta}


register_unit_executor(_FrontierTask, _execute_task)


class FrontierExplorer:
    """Coordinator of a distributed DSE exploration of one function.

    Constructor arguments mirror :class:`~repro.attacks.dse.DseEngine`, plus
    ``workers`` (process count) and ``pool_capacity`` reinterpreted as the
    *global* mid-path snapshot budget to divide across workers (default:
    the ``REPRO_SNAPSHOT_POOL`` environment budget).
    """

    def __init__(self, image: BinaryImage, function: str,
                 input_spec: Optional[InputSpec] = None,
                 strategy: str = "cupa", memory_model: str = "concretize",
                 seed: int = 0, max_instructions: int = 2_000_000,
                 workers: int = 2, use_snapshots: bool = True,
                 backtracking: Optional[bool] = None,
                 pool_capacity: Optional[int] = None) -> None:
        if strategy not in ("cupa", "bfs", "dfs"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.image = image
        self.function = function
        self.input_spec = input_spec or InputSpec()
        self.strategy = strategy
        self.memory_model = memory_model
        self.seed = seed
        self.max_instructions = max_instructions
        self.workers = max(1, workers)
        self.use_snapshots = use_snapshots
        self.backtracking = backtracking
        self.worker_pool_capacity = sharded_pool_capacity(
            self.workers, total=pool_capacity)
        self.random = random.Random(seed)
        self.symbols = self.input_spec.symbol_table()
        self.solver = ConstraintSolver(self.symbols, seed=seed)
        self.stats = EngineStats()
        #: worker index -> concrete executions it performed (serial
        #: delegation reports everything under worker 0).
        self.executions_by_worker: Dict[int, int] = {}
        #: recovery counters of the last distributed exploration's pool
        self._faults = FaultStats()

    @property
    def respawns(self) -> int:
        """Replacement workers forked after a worker death or kill."""
        return self._faults.respawns

    @property
    def timeouts(self) -> int:
        """Claimed decisions whose ``REPRO_UNIT_TIMEOUT`` deadline expired."""
        return self._faults.timeouts

    def _make_engine(self, pool_capacity: Optional[int]) -> DseEngine:
        return DseEngine(self.image, self.function, self.input_spec,
                         strategy=self.strategy,
                         memory_model=self.memory_model, seed=self.seed,
                         max_instructions=self.max_instructions,
                         use_snapshots=self.use_snapshots,
                         backtracking=self.backtracking,
                         pool_capacity=pool_capacity)

    @property
    def distributed(self) -> bool:
        return self.workers > 1 and fork_available()

    # -- exploration ---------------------------------------------------------
    def explore(self, time_budget: float = 10.0, max_executions: int = 200,
                stop_condition: Optional[Callable[[ExecutionResult], bool]] = None,
                max_solver_queries: Optional[int] = None,
                ) -> Tuple[List[ExecutionResult], EngineStats]:
        """Explore paths until the budget runs out or ``stop_condition`` holds.

        Same contract as :meth:`DseEngine.explore`; ``stop_condition`` runs
        in the coordinator process, so closures over caller state work
        unchanged.  Results that were already in flight when the stop fired
        are still drained and counted (they did execute).
        """
        if not self.distributed:
            engine = self._make_engine(None)
            results, stats = engine.explore(
                time_budget=time_budget, max_executions=max_executions,
                stop_condition=stop_condition,
                max_solver_queries=max_solver_queries)
            self.stats = stats
            self.executions_by_worker = {0: stats.executions}
            return results, stats
        token = next(_TOKENS)
        _EXPLORERS[token] = self
        # one fresh pool per exploration: dispatch ids (the REPRO_FAULT_INJECT
        # index space) start at 0 every time
        pool = WorkerPool(self.workers, snapshot_share=self.worker_pool_capacity)
        self._faults = pool.stats
        try:
            results = self._coordinate(pool, token, time_budget, max_executions,
                                       stop_condition, max_solver_queries)
            pool.close()
        finally:
            pool.abort()  # no-op after close(); otherwise skip the handshake
            del _EXPLORERS[token]
        return results, self.stats

    def _coordinate(self, pool: WorkerPool, token: int, time_budget: float,
                    max_executions: int,
                    stop_condition: Optional[Callable[[ExecutionResult], bool]],
                    max_solver_queries: Optional[int]) -> List[ExecutionResult]:
        stats = self.stats
        frontier = GenerationalFrontier(self.symbols, self.strategy, self.random,
                                        self.solver, stats, time_budget,
                                        max_solver_queries)
        results: List[ExecutionResult] = []
        self.executions_by_worker = {index: 0 for index in range(self.workers)}
        retries = unit_retries()
        deadline = unit_timeout()
        respawn_limit = max(8, self.workers * (retries + 2))
        #: dispatched-but-unresolved decisions, by pool dispatch id
        inflight: Dict[int, PendingInput] = {}
        stopped = False

        def dispatch() -> None:
            while (frontier.pending and not stopped
                   and len(inflight) < self.workers
                   and stats.executions + len(inflight) < max_executions
                   and not frontier.out_of_time()):
                entry = frontier.pop()
                task = _FrontierTask(token, entry[1], entry[2])
                inflight[pool.submit(task)] = entry

        dispatch()
        while inflight:
            for event in pool.pump(deadline=deadline):
                priority, assignment, resume_key, attempt = \
                    inflight.pop(event.dispatch_id)
                if event.kind == "result":
                    if event.status == "error":
                        raise RuntimeError(f"frontier worker {event.worker} "
                                           f"failed: {event.payload}")
                    result = event.payload["result"]
                    results.append(result)
                    self.executions_by_worker[event.worker] += 1
                    for name, value in event.payload["delta"].items():
                        setattr(stats, name, getattr(stats, name) + value)
                    signature = frontier.record(result)
                    if stopped:
                        continue  # draining in-flight results after a stop
                    if stop_condition is not None and stop_condition(result):
                        stopped = True
                        continue
                    frontier.expand(result, signature)
                else:
                    failure = (f"died (last exit code {event.exitcode})"
                               if event.kind == "death" else
                               f"exceeded the {deadline:g}s unit deadline")
                    if attempt >= retries:
                        raise RuntimeError(
                            f"frontier worker {failure} {attempt + 1} times "
                            f"on one branch decision")
                    # back to the frontier, reassigned under a fresh dispatch
                    # id — the path set stays identical to serial
                    frontier.pending.append(
                        (priority, assignment, resume_key, attempt + 1))
                dispatch()
            if pool.stats.respawns > respawn_limit:
                raise RuntimeError(f"frontier worker respawn limit exceeded "
                                   f"({pool.stats.respawns} respawns)")
        stats.elapsed = frontier.elapsed()
        return results

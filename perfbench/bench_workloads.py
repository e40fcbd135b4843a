"""Operation pools of the four benchmark workloads.

A workload is built in two steps:

* ``build(seed)`` is the program-side set-up that ``setup_s`` times:
  RandomFuns/clbg program generation, ``compile_program`` and the
  ``rop_obfuscate`` / ``virtualize_program`` rewrite behind
  ``apply_configuration``.  The function and benchmark *set* of each
  workload is fixed (like the paper's three RandomFuns seeds); the run's
  seed drives the rewriter's and the VM's randomisation and the attack's
  CUPA/solver RNG, so every seed yields different obfuscated images and
  different attack trajectories.
* ``prepare()`` computes what the output checks compare against: the
  exact reachable probe set of every G2 target (all 256 inputs run on the
  NATIVE image) and the NATIVE return value of every clbg program.  For the
  attack workloads it also measures the hook-free obfuscated/NATIVE
  instruction ratio of each attacked image on input 0, behind
  ``slowdown_x.geomean``; the clbg workload takes its ratios from its own
  runs, as Figure 5 does.  This is benchmark-side work and is not timed.

Every operation has two steps.  ``run()`` is the timed call into the
program under test and returns its raw result; ``check(raw, wall)`` is
benchmark-side and turns it into an :class:`OpResult`: the deterministic
row, the stop reason and the failed checks.  Each attack cell also carries
the outcome it is designed to reach (:class:`Expect`), whatever the seed.
The loop in ``run.py`` compares every row with the committed reference row
of its seed, when ``reference_rows.json`` holds one, and with the row the
same operation produced the first time it ran in the process, and counts
any mismatch, failed check or exception as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import compiler
from repro.attacks import AttackBudget, AttackOutcome, coverage_attack, secret_finding_attack
from repro.attacks.dse import InputSpec
from repro.attacks.engine import EngineStats, preloaded_fork
from repro.attacks.frontier import FrontierExplorer
from repro.cpu import call_function
from repro.evaluation.configurations import NATIVE, ObfuscationConfig, apply_configuration, nvm, ropk
from repro.workloads.clbg import build_clbg_program
from repro.workloads.randomfuns import RandomFunSpec, generate_random_function

#: Wall-clock budget handed to every attack.  It is sized never to bind:
#: the deterministic caps end each attack, and an attack the clock ended
#: counts as failed (its row would depend on host speed).
ATTACK_SECONDS = 600.0

#: Per-run instruction budget of a Figure 5 program execution (as
#: ``repro.evaluation.figure5``); no run of the pool comes near it.
RUN_BUDGET = 30_000_000

#: Attacked functions take one 1-byte argument (the smoke slice's size).
INPUT = InputSpec(argument_sizes=[1])

#: Value the G1 functions return on their accepting path.
ACCEPT = 1

#: ROP0.25 is left out of the attack rows: its solver cost under the
#: 48-query cap swings from 0.2 s to 63 s per cell with the rewriter seed.
ROP_ROWS = (ropk(1.00), ropk(1.00, profile="full"))
VM_ROWS = (nvm(2), nvm(2, "last"))
#: Obfuscation and attack seed of the attack-vm cells (the grid's default).
VM_SEED = 1
FRONTIER_ROWS = (NATIVE, nvm(1, "all"))
CLBG_ROWS = (NATIVE, ropk(0.25), ropk(1.00), ropk(1.00, profile="full"), nvm(1, "all"))
CLBG_PROGRAMS = ("fannkuch", "fasta", "n-body", "pidigits", "regex-redux", "rev-comp",
                 "sp-norm")

#: The smoke slice's deterministic caps.
ROP_BUDGET = AttackBudget(seconds=ATTACK_SECONDS, max_executions=6,
                          max_instructions_per_run=150_000, max_solver_queries=48)
#: A 2VM/2VM-IMPlast execution of the smallest RandomFuns function takes
#: 0.65-1M instructions, so every cell finds the secret within 2M.
VM_BUDGET = AttackBudget(seconds=ATTACK_SECONDS, max_executions=6,
                         max_instructions_per_run=2_000_000, max_solver_queries=16)
FRONTIER_BUDGET = AttackBudget(seconds=ATTACK_SECONDS, max_executions=12,
                               max_instructions_per_run=150_000, max_solver_queries=24)
FRONTIER_WORKERS = 2

#: Stop reasons that end an attack deterministically.
DETERMINISTIC_STOPS = ("secret", "coverage", "executions", "queries", "instructions",
                       "exhausted")


@dataclass(frozen=True)
class Expect:
    """The outcome an attack cell is designed to reach, on every seed."""

    success: bool
    stops: Tuple[str, ...]


#: attack-vm's instruction cap is sized so that the secret is found.
FINDS_SECRET = Expect(True, ("secret",))
#: Against ROP1.00 the attack keeps expanding until the query cap.
QUERY_CAP = Expect(False, ("queries",))
#: The 1-byte G2 function under ROP is covered by its first path.
COVERS = Expect(True, ("coverage",))
#: Frontier explorations run to their caps (or empty the frontier first).
CAPPED_COVERED = Expect(True, ("executions", "queries", "exhausted"))
CAPPED_UNCOVERED = Expect(False, ("executions", "queries"))


@dataclass(frozen=True)
class Target:
    """One attacked RandomFuns function: goal, control structure, spec seed."""

    goal: str
    structure: str
    spec_seed: int

    def spec(self) -> RandomFunSpec:
        return RandomFunSpec(self.structure, 1, self.spec_seed,
                             point_test=self.goal == "G1")


@dataclass
class OpResult:
    """What one operation produced.

    ``row`` holds only deterministic fields; ``problems`` lists failed
    output checks (empty when the operation is correct).
    """

    row: Tuple
    instructions: int
    stop: str
    problems: List[str] = field(default_factory=list)


def _geomean(ratios: Sequence[float]) -> float:
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def stop_reason(reached: bool, goal: str, executions: int, queries: int,
                instructions: int, wall: float, budget: AttackBudget) -> str:
    """Why an attack ended, derived from its outcome and budget alone.

    ``reached`` says whether the attack stopped at its goal.

    ``instructions`` means every execution ran into the per-execution cap;
    ``exhausted`` means the frontier emptied before any cap bound.
    """
    if wall >= budget.seconds:
        return "wallclock"
    if reached:
        return "secret" if goal == "G1" else "coverage"
    if executions >= budget.max_executions:
        return "executions"
    if budget.max_solver_queries is not None and queries >= budget.max_solver_queries:
        return "queries"
    if executions and instructions >= executions * budget.max_instructions_per_run:
        return "instructions"
    return "exhausted"


def _execute(image, function: str, argument: int) -> Tuple[int, int]:
    """Hook-free run of ``function(argument)``: ``(return value, instructions)``."""
    value, emulator = call_function(preloaded_fork(image), function, [argument],
                                    max_steps=RUN_BUDGET)
    return value, emulator.steps


def _reachable(native, function: str) -> Set[int]:
    """Exact reachable probe set: every 1-byte input run on the NATIVE image."""
    probes: Set[int] = set()
    for value in range(256):
        _, emulator = call_function(preloaded_fork(native), function, [value],
                                    max_steps=RUN_BUDGET)
        probes.update(emulator.host.probes)
    return probes


def _check_common(stop: str, covered: Set[int], reachable: Optional[Set[int]],
                  success: bool, expect: Expect) -> List[str]:
    problems = []
    if stop not in DETERMINISTIC_STOPS:
        problems.append(f"stopped by {stop}, not by a goal or a deterministic cap")
    if success != expect.success or stop not in expect.stops:
        problems.append(f"ended with success={success} by {stop}, designed to end with "
                        f"success={expect.success} by {' or '.join(expect.stops)}")
    if reachable is not None:
        if not covered <= reachable:
            problems.append(f"covered probes {sorted(covered - reachable)} unreachable natively")
        if success != (covered >= reachable):
            problems.append("coverage success disagrees with the covered probe set")
    return problems


class _AttackCell:
    """A G1/G2 attack on one obfuscated image through the public goal API."""

    def __init__(self, target: Target, config: ObfuscationConfig, seed: int,
                 budget: AttackBudget, expect: Expect) -> None:
        spec = target.spec()
        self.target = target
        self.expect = expect
        self.obfuscated = config.kind != "native"
        self.function = spec.name
        self.seed = seed
        self.budget = budget
        program, _, _ = generate_random_function(spec)
        self.native = compiler.compile_program(program)
        self.image = apply_configuration(program, [spec.name], config, seed=seed)
        self.key = f"{target.goal}/{target.structure}/s{target.spec_seed}/{config.name}"
        self.reachable: Optional[Set[int]] = None

    def slowdown(self) -> float:
        """Hook-free obfuscated/NATIVE instruction ratio on input 0."""
        return (_execute(self.image, self.function, 0)[1]
                / _execute(self.native, self.function, 0)[1])

    def run(self) -> AttackOutcome:
        if self.target.goal == "G1":
            return secret_finding_attack(self.image, self.function, INPUT, self.budget,
                                         accept_value=ACCEPT, seed=self.seed)
        return coverage_attack(self.image, self.function, self.reachable, INPUT,
                               self.budget, seed=self.seed)

    def check(self, outcome: AttackOutcome, wall: float) -> OpResult:
        stop = stop_reason(outcome.success, self.target.goal, outcome.executions,
                           outcome.solver_queries, outcome.instructions, wall, self.budget)
        problems = _check_common(stop, outcome.covered_probes, self.reachable,
                                 outcome.success, self.expect)
        if outcome.success and self.target.goal == "G1":
            witness = outcome.witness["arg0"]
            value, _ = _execute(self.native, self.function, witness)
            if value != ACCEPT:
                problems.append(f"witness {witness} returns {value} on NATIVE, not {ACCEPT}")
        row = (outcome.success, outcome.executions, outcome.instructions,
               outcome.solver_queries, outcome.paths, outcome.branch_restores)
        return OpResult(row, outcome.instructions - outcome.instructions_replayed, stop,
                        problems)


class _FrontierCell(_AttackCell):
    """A G2 exploration driven through ``FrontierExplorer`` worker processes.

    The exploration runs to its caps and coverage is judged afterwards: a
    stop condition would fire at a point that depends on the order in which
    the two workers' results arrive, and so would the row.
    """

    def run(self) -> Tuple[List, EngineStats]:
        explorer = FrontierExplorer(self.image, self.function, INPUT, seed=self.seed,
                                    max_instructions=self.budget.max_instructions_per_run,
                                    workers=FRONTIER_WORKERS)
        return explorer.explore(time_budget=self.budget.seconds,
                                max_executions=self.budget.max_executions,
                                max_solver_queries=self.budget.max_solver_queries)

    def check(self, explored: Tuple[List, EngineStats], wall: float) -> OpResult:
        results, stats = explored
        covered = {probe for result in results for probe in result.probes}
        success = covered >= self.reachable
        stop = stop_reason(False, "G2", stats.executions, stats.solver_queries,
                           stats.instructions, wall, self.budget)
        problems = _check_common(stop, covered, self.reachable, success, self.expect)
        # the coordinator expands results in the order they arrive from the
        # two workers, so which concrete inputs run, and how many decisions
        # were already pending when the query cap bound, change between
        # repeats: instructions, restores, executions and paths vary
        row = (success, stats.solver_queries, tuple(sorted(covered)))
        return OpResult(row, stats.instructions - stats.instructions_replayed, stop,
                        problems)


class _ProgramRun:
    """One Figure 5 execution: a clbg program under one configuration.

    Like ``figure5._run`` it forks the preloaded image and runs it on a
    fresh emulator, so every run pays its own trace build and compile.
    """

    def __init__(self, name: str, config: ObfuscationConfig, seed: int) -> None:
        program, self.entry, self.argument, targets = build_clbg_program(name)
        self.image = apply_configuration(program, targets, config, seed=seed)
        preloaded_fork(self.image)  # the one load figure5 pays per image
        self.key = f"{name}/{config.name}"
        self.expected: Optional[int] = None
        #: instructions of the first run (the Figure 5 measurement)
        self.steps = 0

    def run(self) -> Tuple[int, int]:
        value, emulator = call_function(preloaded_fork(self.image), self.entry,
                                        [self.argument], max_steps=RUN_BUDGET)
        return value, emulator.steps

    def check(self, returned: Tuple[int, int], wall: float) -> OpResult:
        value, steps = returned
        self.steps = self.steps or steps
        problems = []
        if value != self.expected:
            problems.append(f"returned {value}, NATIVE returns {self.expected}")
        return OpResult((value, steps), steps, "returned", problems)


class AttackFixture:
    """Attack cells plus their references: reachable probes and slowdowns."""

    def __init__(self, cells: Sequence[_AttackCell]) -> None:
        self.ops = list(cells)
        self._slowdowns: List[float] = []

    def prepare(self) -> None:
        reachable: Dict[str, Set[int]] = {}
        for cell in self.ops:
            if cell.target.goal == "G2":
                if cell.function not in reachable:
                    reachable[cell.function] = _reachable(cell.native, cell.function)
                cell.reachable = reachable[cell.function]
        self._slowdowns = [cell.slowdown() for cell in self.ops if cell.obfuscated]

    def slowdown(self) -> float:
        return _geomean(self._slowdowns)


class ClbgFixture:
    """Figure 5 runs; the slowdown comes from the instruction counts they report."""

    def __init__(self, runs: Dict[str, List[_ProgramRun]]) -> None:
        self.runs = runs
        self.ops = [run for row in runs.values() for run in row]

    def prepare(self) -> None:
        for row in self.runs.values():
            native = row[0]
            value, _ = _execute(native.image, native.entry, native.argument)
            for run in row:
                run.expected = value

    def slowdown(self) -> float:
        ratios = [run.steps / row[0].steps for row in self.runs.values()
                  for run in row[1:] if run.steps and row[0].steps]
        return _geomean(ratios)


def build_attack_rop(seed: int) -> AttackFixture:
    targets = [(Target("G1", "if(bb4,bb4)", s), QUERY_CAP) for s in (2, 3)]
    targets.append((Target("G2", "if(bb4,bb4)", 2), COVERS))
    return AttackFixture([_AttackCell(target, config, seed, ROP_BUDGET, expect)
                          for target, expect in targets for config in ROP_ROWS])


def pick_vm_function(seed: int) -> int:
    """Spec seed of the first G1 function from ``seed`` on that rejects input 0.

    On attack-vm the seed picks the attacked function, while the VM layout
    and the attack RNG keep one fixed seed: the layout alone moves a 2VM
    cell's instruction count by about 20% between seeds, against 2% between
    functions, and a run holds only two of these cells.  Skipping functions
    that accept input 0 keeps every cell at two executions (a miss, then the
    solved secret).  The search runs NATIVE executions, so it is kept out of
    the timed ``build``.
    """
    spec_seed = seed
    while True:
        spec = Target("G1", "if(bb4,bb4)", spec_seed).spec()
        program, _, _ = generate_random_function(spec)
        if _execute(compiler.compile_program(program), spec.name, 0)[0] != ACCEPT:
            return spec_seed
        spec_seed += 1


def build_attack_vm(spec_seed: int) -> AttackFixture:
    target = Target("G1", "if(bb4,bb4)", spec_seed)
    return AttackFixture([_AttackCell(target, config, VM_SEED, VM_BUDGET, FINDS_SECRET)
                          for config in VM_ROWS])


#: Frontier targets and whether their capped exploration covers them.
FRONTIER_TARGETS = ((1, CAPPED_UNCOVERED), (3, CAPPED_COVERED), (5, CAPPED_COVERED))


def build_attack_frontier(seed: int) -> AttackFixture:
    return AttackFixture([
        _FrontierCell(Target("G2", "for(if(if,if))", s), config, seed, FRONTIER_BUDGET, expect)
        for s, expect in FRONTIER_TARGETS for config in FRONTIER_ROWS])


def build_overhead_clbg(seed: int) -> ClbgFixture:
    return ClbgFixture({name: [_ProgramRun(name, config, seed) for config in CLBG_ROWS]
                        for name in CLBG_PROGRAMS})


def _same_seed(seed: int) -> int:
    return seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: the timed set-up, from the argument ``pick`` chose
    build: Callable[[int], Union[AttackFixture, ClbgFixture]]
    #: untimed choice of ``build``'s argument from the run's seed
    pick: Callable[[int], int] = _same_seed


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("attack-rop",
             "G1/G2 DSE on ROP1.00 and ROP1.00+OC+IH under the smoke slice's deterministic "
             "caps; the solver dominates",
             build_attack_rop),
    Workload("attack-vm",
             "G1 DSE on 2VM and 2VM-IMPlast; hooked single-step emulation and the shadow "
             "hook are over 99% of the time",
             build_attack_vm, pick_vm_function),
    Workload("overhead-clbg",
             "Figure 5 clbg runs under NATIVE/ROP/VM on fresh emulators; hook-free "
             "three-tier emulator, no solver or shadow",
             build_overhead_clbg),
    Workload("attack-frontier",
             "G2 explorations through FrontierExplorer(workers=2); coordinator solver "
             "plus worker-pool IPC",
             build_attack_frontier),
)}

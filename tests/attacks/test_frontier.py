"""Distributed DSE snapshot frontier: path-set identity and wiring."""

import multiprocessing
import time

import pytest

from repro.attacks.dse import DseEngine, InputSpec
from repro.attacks.frontier import FrontierExplorer, fork_available
from repro.attacks.goals import AttackBudget, dse_workers, secret_finding_attack
from repro.compiler import compile_program
from repro.core import RopConfig, rop_obfuscate
from repro.lang import Assign, BinOp, Const, Function, If, Probe, Program, Return, Var
from repro.workloads.randomfuns import RandomFunSpec, generate_random_function

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method required")


def _branchy_image():
    """A multi-path RandomFuns workload (11 feasible paths at 1 input byte)."""
    spec = RandomFunSpec(structure="for(if(bb4,bb4))", input_size=1, seed=2,
                         point_test=False)
    program, _, _ = generate_random_function(spec)
    return compile_program(program), spec.name


def _rop_license_image():
    """A ROP-obfuscated license check: pointer-kind branch records."""
    check = Program([Function("f", ["x"], [
        Probe(1),
        Assign("h", BinOp("^", BinOp("*", Var("x"), Const(13)), Const(0x27))),
        If(BinOp("==", BinOp("&", Var("h"), Const(0xFF)), Const(0x5A)),
           [Probe(2), Return(Const(1))],
           [Probe(3), Return(Const(0))]),
    ])])
    ropped, _ = rop_obfuscate(compile_program(check), ["f"], RopConfig.plain())
    return ropped, "f"


def _path_set(results):
    """Path identity via decision keys (unambiguous for pointer records)."""
    return {result.decision_keys for result in results}


TIME_BUDGET = 60.0


def _explore(explorer, max_executions):
    """Explore under ``TIME_BUDGET`` and check the clock never bound.

    The loops stop on the clock only once ``elapsed > time_budget``, so a
    run that ends inside the budget was decided by exhaustion or a cap —
    the path-set comparisons below are then independent of machine speed.
    """
    results, stats = explorer.explore(time_budget=TIME_BUDGET,
                                      max_executions=max_executions)
    assert stats.elapsed <= TIME_BUDGET
    return results, stats


def _new_children(before):
    """Live child processes that were not alive at ``before``."""
    return [child for child in multiprocessing.active_children()
            if child not in before]


#: Serial trajectories of ``_branchy_image`` at seed 5: the ordered
#: ``(arg0, decisions)`` of every execution, where ``decisions`` spells the
#: ``expected`` flag of each branch decision (all at ``_BRANCH``) as T/F,
#: then ``(solver_queries, paths_seen)``.
_BRANCH = 0x40014C
_SERIAL_TRAJECTORIES = {
    "cupa": ([(0, "FFFFT"), (1, "FFFFF"), (38, "FFFTF"), (10, "FTTFF"),
              (48, "FTTTF"), (7, "FFTTT"), (184, "FTFFF"), (46, "FTTFT"),
              (21, "FFTTF"), (24, "FFTFF"), (96, "FFTFT")], 25, 11),
    "bfs": ([(0, "FFFFT"), (10, "FTTFF"), (7, "FFTTT"), (38, "FFFTF"),
             (1, "FFFFF"), (184, "FTFFF"), (48, "FTTTF"), (46, "FTTFT"),
             (24, "FFTFF"), (21, "FFTTF"), (96, "FFTFT")], 25, 11),
    "dfs": ([(0, "FFFFT"), (1, "FFFFF"), (38, "FFFTF"), (7, "FFTTT"),
             (21, "FFTTF"), (24, "FFTFF"), (96, "FFTFT"), (10, "FTTFF"),
             (46, "FTTFT"), (48, "FTTTF"), (184, "FTFFF")], 25, 11),
}


@pytest.mark.parametrize("strategy", sorted(_SERIAL_TRAJECTORIES))
def test_serial_trajectory_is_pinned(strategy):
    """The exact execution order of serial exploration — strategy pick,
    RNG draws, solver calls and dedupe — not just the explored path set."""
    image, function = _branchy_image()
    engine = DseEngine(image, function, InputSpec(argument_sizes=[1]),
                       strategy=strategy, seed=5)
    results, stats = _explore(engine, max_executions=500)
    steps, solver_queries, paths_seen = _SERIAL_TRAJECTORIES[strategy]
    expected = [({"arg0": value},
                 tuple((_BRANCH, flag == "T", None) for flag in decisions))
                for value, decisions in steps]
    assert [(result.assignment, result.decision_keys)
            for result in results] == expected
    assert stats.solver_queries == solver_queries
    assert stats.paths_seen == paths_seen


@needs_fork
@pytest.mark.parametrize("workers", [2, 4])
def test_frontier_path_set_equals_serial_entry_rewind(workers):
    """The tentpole property: the distributed explorer's exhausted path set
    is identical to serial ``REPRO_DSE_BACKTRACK=0`` exploration.

    Byte-sized inputs keep the solver in its exhaustive-enumeration phase,
    which is order-independent — so the equality is exact, not statistical.
    """
    image, function = _branchy_image()
    input_spec = InputSpec(argument_sizes=[1])

    serial = DseEngine(image, function, input_spec, seed=5, backtracking=False)
    serial_results, serial_stats = _explore(serial, max_executions=500)
    assert serial_stats.paths_seen >= 5  # the workload must stay branchy

    frontier = FrontierExplorer(image, function, input_spec, seed=5,
                                workers=workers)
    assert frontier.distributed
    before = multiprocessing.active_children()
    frontier_results, frontier_stats = _explore(frontier, max_executions=500)
    assert _new_children(before) == []  # a clean exploration reaps its pool
    assert _path_set(frontier_results) == _path_set(serial_results)
    assert frontier_stats.paths_seen == serial_stats.paths_seen
    assert frontier_stats.executions == serial_stats.executions
    assert sum(frontier.executions_by_worker.values()) == \
        frontier_stats.executions


@needs_fork
def test_frontier_matches_serial_on_rop_chain():
    image, function = _rop_license_image()
    input_spec = InputSpec(argument_sizes=[1])
    serial = DseEngine(image, function, input_spec, seed=3, backtracking=False)
    serial_results, _ = _explore(serial, max_executions=100)
    frontier = FrontierExplorer(image, function, input_spec, seed=3, workers=2)
    frontier_results, _ = _explore(frontier, max_executions=100)
    assert _path_set(frontier_results) == _path_set(serial_results)
    # both must have recovered the accepting input
    assert any(r.return_value == 1 and not r.faulted for r in serial_results)
    assert any(r.return_value == 1 and not r.faulted for r in frontier_results)


@needs_fork
def test_frontier_backtracking_off_still_matches():
    image, function = _branchy_image()
    input_spec = InputSpec(argument_sizes=[1])
    serial = DseEngine(image, function, input_spec, seed=5, backtracking=False)
    serial_results, _ = _explore(serial, max_executions=500)
    frontier = FrontierExplorer(image, function, input_spec, seed=5, workers=2,
                                backtracking=False)
    frontier_results, _ = _explore(frontier, max_executions=500)
    assert _path_set(frontier_results) == _path_set(serial_results)


def test_workers_1_delegates_to_serial_engine():
    image, function = _branchy_image()
    input_spec = InputSpec(argument_sizes=[1])
    frontier = FrontierExplorer(image, function, input_spec, seed=5, workers=1)
    assert not frontier.distributed
    results, stats = _explore(frontier, max_executions=500)
    reference = DseEngine(image, function, input_spec, seed=5)
    ref_results, ref_stats = _explore(reference, max_executions=500)
    assert _path_set(results) == _path_set(ref_results)
    assert frontier.executions_by_worker == {0: stats.executions}


@needs_fork
def test_frontier_respects_max_executions():
    image, function = _branchy_image()
    frontier = FrontierExplorer(image, function, InputSpec(argument_sizes=[1]),
                                seed=5, workers=2)
    _, stats = _explore(frontier, max_executions=3)
    assert stats.executions <= 3


@needs_fork
@pytest.mark.parametrize("backtracking", [True, False])
@pytest.mark.parametrize("fault", ["1:kill", "1:exit0"])
def test_frontier_recovers_worker_death_mid_exploration(monkeypatch,
                                                        backtracking, fault):
    """A worker killed mid-exploration (SIGKILL or a *clean* premature
    exit 0) must not lose its claimed branch decision: the coordinator
    returns it to the frontier, respawns the slot, and the explored path
    set still equals the serial explorer's — in both backtracking modes."""
    image, function = _branchy_image()
    input_spec = InputSpec(argument_sizes=[1])
    serial = DseEngine(image, function, input_spec, seed=5, backtracking=False)
    serial_results, _ = _explore(serial, max_executions=500)

    monkeypatch.setenv("REPRO_FAULT_INJECT", fault)
    frontier = FrontierExplorer(image, function, input_spec, seed=5, workers=2,
                                backtracking=backtracking)
    before = multiprocessing.active_children()
    frontier_results, frontier_stats = _explore(frontier, max_executions=500)
    assert _new_children(before) == []  # the respawned worker is reaped too
    assert frontier.respawns >= 1
    assert _path_set(frontier_results) == _path_set(serial_results)
    assert frontier_stats.executions == len(serial_results)


@needs_fork
def test_frontier_hang_is_killed_by_deadline_and_path_set_preserved(
        monkeypatch):
    """A worker that hangs mid-decision (not dead — the claim cell still
    names its task) is killed once REPRO_UNIT_TIMEOUT expires, the decision
    returns to the frontier, and the explored path set still equals the
    serial explorer's.  Frontier units are milliseconds, so a short deadline
    only ever trips on the injected hang."""
    image, function = _branchy_image()
    input_spec = InputSpec(argument_sizes=[1])
    serial = DseEngine(image, function, input_spec, seed=5, backtracking=False)
    serial_results, _ = _explore(serial, max_executions=500)

    monkeypatch.setenv("REPRO_FAULT_INJECT", "1:hang")
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "2")
    frontier = FrontierExplorer(image, function, input_spec, seed=5, workers=2)
    frontier_results, frontier_stats = _explore(frontier, max_executions=500)
    assert frontier.timeouts >= 1
    assert frontier.respawns >= 1
    assert _path_set(frontier_results) == _path_set(serial_results)
    assert frontier_stats.executions == len(serial_results)


@needs_fork
def test_frontier_gives_up_after_repeated_deaths_on_one_task(monkeypatch):
    """A branch decision that kills every worker that touches it must not
    respawn forever — after the retry budget the exploration aborts loudly."""
    image, function = _branchy_image()
    monkeypatch.setenv("REPRO_UNIT_RETRIES", "1")
    # every dispatched task dies: task ids 0..9 all SIGKILL their worker
    monkeypatch.setenv("REPRO_FAULT_INJECT",
                       ",".join(f"{i}:kill" for i in range(10)))
    frontier = FrontierExplorer(image, function, InputSpec(argument_sizes=[1]),
                                seed=5, workers=2)
    with pytest.raises(RuntimeError, match="died|respawn limit"):
        frontier.explore(time_budget=60.0, max_executions=500)


@needs_fork
def test_frontier_worker_error_aborts_at_once(monkeypatch):
    """A task that *raises* in a worker is not retried: the exploration
    fails straight away with the worker's error and leaves no worker
    process behind (the error path terminates instead of handshaking)."""
    image, function = _branchy_image()
    monkeypatch.setenv("REPRO_FAULT_INJECT", "1:raise")
    frontier = FrontierExplorer(image, function, InputSpec(argument_sizes=[1]),
                                seed=5, workers=2)
    before = multiprocessing.active_children()
    started = time.monotonic()
    with pytest.raises(RuntimeError,
                       match=r"frontier worker \d+ failed: InjectedFault"):
        frontier.explore(time_budget=60.0, max_executions=500)
    assert time.monotonic() - started < 5.0
    assert _new_children(before) == []


def test_dse_workers_knob(monkeypatch):
    monkeypatch.delenv("REPRO_DSE_WORKERS", raising=False)
    assert dse_workers() == 1
    monkeypatch.setenv("REPRO_DSE_WORKERS", "4")
    assert dse_workers() == 4
    monkeypatch.setenv("REPRO_DSE_WORKERS", "junk")
    assert dse_workers() == 1


@needs_fork
def test_secret_finding_attack_through_frontier(monkeypatch):
    """`REPRO_DSE_WORKERS>1` routes the goal drivers through the frontier;
    the stop condition runs coordinator-side, so the witness closure works."""
    monkeypatch.setenv("REPRO_DSE_WORKERS", "2")
    image, function = _rop_license_image()
    outcome = secret_finding_attack(
        image, function, InputSpec(argument_sizes=[1]),
        AttackBudget(seconds=60.0, max_executions=50), seed=3)
    assert outcome.success
    assert outcome.witness is not None
    value = outcome.witness["arg0"]
    assert ((value * 13) ^ 0x27) & 0xFF == 0x5A

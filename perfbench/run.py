"""End-to-end attack and overhead benchmark with a traced per-layer breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload attack-rop --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next operation (one
attack cell or one program run, see ``bench_workloads.py``) starts when the
previous one has returned and been checked, until ``--seconds`` have
passed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``bench_trace.py``
with ``--trace 1``.  Every time is scaled to the speed of
``BENCH_emulator.json``'s baseline host (see :class:`Speed`).  Details
(every operation's row and stop reason, host facts, speed probes, and
with tracing every span) go to ``--out``.

``--self-test`` plants a wrong row, a wrong committed reference row, a
wrong designed outcome and a wrong expected output, and exits non-zero
unless each is counted as a failure.  ``--write-reference`` runs the pool
once and records its rows as the seed's committed reference rows.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: The workload is built at least this many times per run, and for at
#: least ``SETUP_MIN_SECONDS`` in all; ``setup_s`` is the median build.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.5

#: Committed reference rows: workload -> seed -> operation key -> row.
REFERENCE_FILE = ROOT / "perfbench" / "reference_rows.json"

#: A seed never used while the benchmark or a change was being tuned:
#: re-check a claimed gain on it before believing it.
HELD_OUT_SEED = 7919

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75)

#: Iterations of the calibration loop that ``BENCH_emulator.json`` uses, and
#: its time on that file's baseline host.
CALIBRATION_ITERATIONS = 2_000_000
REFERENCE_CALIBRATION_S = 0.1342
#: A speed probe is an eighth of the calibration loop.
PROBE_SHARE = 8
#: The loop takes one probe per this many seconds, in the gaps between operations.
PROBE_EVERY_S = 1.0
#: Most probes taken in one gap, after a long operation.
PROBE_BURST = 8


def _loop(iterations: int) -> float:
    start = time.perf_counter()
    value = 0
    for i in range(iterations):
        value = (value + i) & 0xFFFFFFFFFFFFFFFF
    return time.perf_counter() - start


def calibration_s(rounds: int = 3) -> float:
    """Best-of-``rounds`` time of the fixed integer loop ``BENCH_emulator.json`` uses."""
    return min(_loop(CALIBRATION_ITERATIONS) for _ in range(rounds))


class Speed:
    """Probes of the interpreter's speed, taken outside the timed sections.

    The host's speed drifts by up to a quarter over minutes, and a
    pure-Python loop drifts with it (see the README).  Every time of a run
    is scaled to the speed of ``BENCH_emulator.json``'s baseline host by the
    median of the run's probes: one before each build, and one per second
    of the measured loop.
    """

    def __init__(self) -> None:
        self.durations: List[float] = []
        self.last = 0.0

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            self.durations.append(_loop(CALIBRATION_ITERATIONS // PROBE_SHARE))
        self.last = time.perf_counter()

    def probe_if_due(self) -> None:
        due = int((time.perf_counter() - self.last) / PROBE_EVERY_S)
        if due:
            self.probe(min(due, PROBE_BURST))

    def scale(self) -> float:
        """Factor from this run's wall seconds to seconds on the baseline host."""
        return REFERENCE_CALIBRATION_S / (PROBE_SHARE * statistics.median(self.durations))


def host_facts(calibrate: bool) -> Dict[str, object]:
    """CPU count and Python version; with ``calibrate``, the calibration loop too."""
    facts: Dict[str, object] = {"nproc": len(os.sched_getaffinity(0)),
                                "python": platform.python_version()}
    if calibrate:
        facts["calibration_s"] = calibration_s()
    return facts


def tail(times: List[float]) -> Optional[Tuple[int, float]]:
    """Highest percentile with at least ten samples beyond it, or None."""
    count = len(times)
    for percentile in TAIL_PERCENTILES:
        if count * (100 - percentile) / 100 >= 10:
            cut = statistics.quantiles(times, n=100, method="inclusive")[percentile - 1]
            return percentile, cut
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_references(workload: str, seed: int) -> Dict[str, list]:
    """The committed reference rows of ``workload`` at ``seed`` (empty if none)."""
    if not REFERENCE_FILE.is_file():
        return {}
    with open(REFERENCE_FILE, encoding="utf-8") as source:
        return json.load(source).get(workload, {}).get(str(seed), {})


def _error(op, wall: float, exc: Exception) -> Dict[str, object]:
    return {"key": op.key, "wall": wall, "stop": "error", "instructions": 0,
            "row": None, "problems": [f"{type(exc).__name__}: {exc}"]}


def execute(op, references: Dict[str, list], committed: Dict[str, list],
            tracer=None, op_id: int = 0) -> Dict[str, object]:
    """Run one operation, then check it, and return its record.

    Only ``op.run()`` is timed, and in a traced run only it is inside the
    ``op`` span; the checks run as reference work.  The row must equal the
    committed reference row of its key, when there is one, and the row the
    operation produced the first time it ran (``references``).
    """
    import bench_trace

    if tracer is not None:
        tracer.op_id = op_id
        span = tracer.open("op")
    start = time.perf_counter()
    try:
        raw = op.run()
        failure = None
    # the loop must survive a broken operation and count it as failed
    except Exception as exc:
        raw, failure = None, exc
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span)
        tracer.op_id = bench_trace.REFERENCE
    if failure is not None:
        return _error(op, wall, failure)
    try:
        result = op.check(raw, wall)
    # a check that cannot even run is a failed check
    except Exception as exc:
        return _error(op, wall, exc)
    problems = list(result.problems)
    row = json.loads(json.dumps(result.row))
    first = references.setdefault(op.key, row)
    if row != first:
        problems.append(f"row {row} differs from this run's first row {first}")
    if op.key in committed and row != committed[op.key]:
        problems.append(f"row {row} differs from the committed row {committed[op.key]}")
    return {"key": op.key, "wall": wall, "stop": result.stop,
            "instructions": result.instructions, "row": row, "problems": problems}


def set_up(workload, seed: int, tracer, speed: Speed):
    """Build ``workload`` repeatedly; return the last fixture and the build times."""
    import bench_trace

    if tracer is not None:
        tracer.op_id = bench_trace.REFERENCE
    argument = workload.pick(seed)
    if tracer is not None:
        tracer.op_id = bench_trace.SETUP
    builds: List[float] = []
    fixture = None
    while len(builds) < SETUP_MIN_REPEATS or sum(builds) < SETUP_MIN_SECONDS:
        fixture = None
        gc.collect()
        speed.probe()
        start = time.perf_counter()
        fixture = workload.build(argument)
        builds.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.op_id = bench_trace.REFERENCE
    fixture.prepare()
    return fixture, builds


def measure(workload, seed: int, seconds: float, tracer) -> Dict[str, object]:
    """Set up ``workload`` and run its closed loop for ``seconds``.

    Throughput counts the passes over the pool that completed, from the
    start of the loop to the end of the last of them, checks and probes
    included.  Every time is also scaled to the baseline host's speed.
    """
    speed = Speed()
    fixture, builds = set_up(workload, seed, tracer, speed)
    committed = load_references(workload.name, seed)
    records = []
    references: Dict[str, list] = {}
    speed.probe()
    start = time.perf_counter()
    deadline = start + seconds
    passes_end = start
    index = 0
    while True:
        op = fixture.ops[index % len(fixture.ops)]
        records.append(execute(op, references, committed, tracer, index))
        index += 1
        if index % len(fixture.ops) == 0:
            passes_end = time.perf_counter()
        # every operation of the pool runs at least once, however slow the host
        if index >= len(fixture.ops) and time.perf_counter() >= deadline:
            break
        speed.probe_if_due()
    speed.probe_if_due()
    scale = speed.scale()
    for r in records:
        r["scaled"] = r["wall"] * scale
    passes = index - index % len(fixture.ops)
    return {"setups": builds, "setups_scaled": [wall * scale for wall in builds],
            "records": records, "probes": speed.durations,
            "slowdown": fixture.slowdown(),
            "throughput": 60.0 * passes / ((passes_end - start) * scale)}


def per_operation(records: List[Dict[str, object]],
                  field: str = "scaled") -> List[Tuple[float, int]]:
    """``(mean time, instructions)`` of each distinct operation of the pool.

    ``field`` is ``"scaled"`` (at the baseline host's speed) or ``"wall"``.

    The loop runs the pool once and then repeats it from the start until the
    time is up, so a run holds a partial second pass.  Reducing each
    operation to one figure first keeps that partial pass from tilting the
    workload's statistics towards the head of the pool.  The figure is the
    mean: the host's speed drifts over seconds, and a mean over repeats
    spread through the run averages that drift where a median would pick
    whichever phase held the majority.
    """
    walls: Dict[str, List[float]] = {}
    instructions: Dict[str, int] = {}
    for r in records:
        walls.setdefault(r["key"], []).append(r[field])
        instructions[r["key"]] = r["instructions"]
    return [(statistics.fmean(walls[key]), instructions[key]) for key in walls]


def end_to_end(run: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    times = [wall for wall, _ in per_operation(run["records"])]
    values = {
        "op_s.p50": (statistics.median(times), "s"),
        "ops_per_min": (run["throughput"], "1/min"),
        "slowdown_x.geomean": (run["slowdown"], "x"),
        "setup_s": (statistics.median(run["setups_scaled"]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def report(args, host, run, metrics) -> None:
    """Human-readable summary lines (everything before the JSON line)."""
    records = run["records"]
    times = [r["scaled"] for r in records]
    failed = [r for r in records if r["problems"]]
    stops: Dict[str, int] = {}
    for r in records:
        stops[r["stop"]] = stops.get(r["stop"], 0) + 1
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    setups = run["setups"]
    probes = run["probes"]
    print(f"speed probes: {len(probes)}, median {statistics.median(probes):.5f} s "
          f"(baseline host {REFERENCE_CALIBRATION_S / PROBE_SHARE:.5f} s)")
    print(f"setup: {len(setups)} builds, median {statistics.median(setups):.4f} s wall")
    print(f"op_s.p50 wall: {statistics.median(w for w, _ in per_operation(records, 'wall')):.4f} s")
    print(f"operations: {len(records)} attempted, {len(failed)} failed "
          f"(error_rate {len(failed) / len(records):.4f}); stop reasons "
          + " ".join(f"{k}={v}" for k, v in sorted(stops.items())))
    cut = tail(times)
    print(f"op_s tail: p{cut[0]}={cut[1]:.4f} s (n={len(times)})" if cut
          else f"op_s tail: not supported at n={len(times)}")
    # reported, not gated: it moves with the seed's instruction mix as well
    # as with speed, and read the widest run-to-run spread of any metric
    operations = per_operation(records, "wall")
    print(f"emu_mips: {sum(i for _, i in operations) / sum(w for w, _ in operations) / 1e6:.4f} "
          "Minstr/s")
    for r in failed[:5]:
        print(f"FAILED {r['key']}: {'; '.join(r['problems'])}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def self_test() -> int:
    """Plant a wrong row, reference, designed outcome and output; each must fail."""
    import bench_workloads as bw

    attack = bw._AttackCell(bw.Target("G1", "if(bb4,bb4)", 1), bw.NATIVE, 1, bw.ROP_BUDGET,
                            bw.FINDS_SECRET)
    program = bw._ProgramRun("n-body", bw.NATIVE, 1)
    program.expected = bw._execute(program.image, program.entry, program.argument)[0]
    clean = [execute(attack, {}, {}), execute(program, {}, {})]
    planted = [True, 0, 0, 0, 0, 0]
    wrong_row = execute(attack, {attack.key: planted}, {})
    wrong_reference = execute(attack, {}, {attack.key: planted})
    attack.expect = bw.QUERY_CAP
    wrong_outcome = execute(attack, {}, {})
    program.expected += 1
    wrong_output = execute(program, {}, {})
    checks = {"clean operations pass": not any(r["problems"] for r in clean),
              "planted wrong first row fails": bool(wrong_row["problems"]),
              "planted wrong committed row fails": bool(wrong_reference["problems"]),
              "planted wrong designed outcome fails": bool(wrong_outcome["problems"]),
              "planted wrong output fails": bool(wrong_output["problems"])}
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


def write_reference(workload, seed: int) -> int:
    """Run the pool once and commit its rows as ``seed``'s reference rows."""
    fixture, _ = set_up(workload, seed, None, Speed())
    rows: Dict[str, list] = {}
    for op in fixture.ops:
        record = execute(op, {}, {})
        if record["problems"]:
            print(f"FAILED {record['key']}: {'; '.join(record['problems'])}")
            return 1
        rows[op.key] = record["row"]
    table = {}
    if REFERENCE_FILE.is_file():
        with open(REFERENCE_FILE, encoding="utf-8") as source:
            table = json.load(source)
    table.setdefault(workload.name, {})[str(seed)] = rows
    write_table(table)
    print(f"recorded {len(rows)} reference rows of {workload.name} at seed {seed}")
    return 0


def write_table(table: Dict[str, Dict[str, Dict[str, list]]]) -> None:
    """Write the reference rows with one line per row, so a changed row is a one-line diff."""
    workloads = []
    for name in sorted(table):
        seeds = []
        for key in sorted(table[name], key=int):
            lines = [f"   {json.dumps(op)}: {json.dumps(row)}"
                     for op, row in sorted(table[name][key].items())]
            seeds.append(f'  "{key}": {{\n' + ",\n".join(lines) + "\n  }")
        workloads.append(f" {json.dumps(name)}: {{\n" + ",\n".join(seeds) + "\n }")
    temporary = REFERENCE_FILE.with_suffix(".tmp")
    temporary.write_text("{\n" + ",\n".join(workloads) + "\n}\n", encoding="utf-8")
    temporary.replace(REFERENCE_FILE)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="attack-rop")
    parser.add_argument("--seed", type=int, default=1,
                        help=f"input seed; {HELD_OUT_SEED} is held out: never used while "
                             "tuning, it re-checks a claimed gain on unseen inputs")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"),
                        help="directory for the per-run detail and span files")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true",
                        help="record one pass's rows as the seed's committed reference rows")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench_trace
    import bench_workloads

    if args.self_test:
        return self_test()
    workload = bench_workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench_workloads.WORKLOADS)}")
    if args.write_reference:
        return write_reference(workload, args.seed)

    host = host_facts(calibrate=bool(args.trace))
    tracer = bench_trace.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        run = measure(workload, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is None:
        metrics = end_to_end(run)
    else:
        metrics = tracer.layer_metrics(len(run["setups"]))
        # traced op_s.p50 minus the untraced one is the tracing overhead
        metrics["trace.op_s.p50"] = {
            "value": statistics.median(w for w, _ in per_operation(run["records"])),
            "unit": "s"}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as detail:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "host": host, "setups": run["setups"], "probes": run["probes"],
                   "records": run["records"],
                   "metrics": metrics}, detail, indent=1)
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.jsonl")

    report(args, host, run, metrics)
    records = run["records"]
    failed = sum(1 for r in records if r["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

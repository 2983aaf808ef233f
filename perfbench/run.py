"""Host-time benchmark of the reproduction: one workload per process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload e1_direct_batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
is repeated and timed, then the workload's parts (one per seeded data
set, and per granularity for E1) run round-robin until ``--seconds``
have gone by, each at least once.  ``wall_s`` sums the parts' median
times.  ``--trace 1`` alternates untraced and traced rounds of the first
data set and reports the per-layer metrics of ``perfbench/layers.py``.
Every run checks the program's outputs.

Timings are host-speed normalized (see :func:`speed_timed`): each timed
interval is scaled by the time of short probes of a fixed reference loop
run before, during and after it, and expressed in seconds of a host on
which one probe takes ``PROBE_S``.  The raw seconds are printed beside
them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes:
0 when every check passes, 1 when a check fails, 2 on a usage error
(including a directory with no ``src/repro`` to measure).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
#: Where a traced run writes its spans, relative to the checkout.
SPANS_DIR = Path(".perfbench")

#: Set-up is timed this many times per run; ``setup_s`` is the median.
SETUP_REPS = 5
#: One speed probe is this many steps of :func:`reference_loop` (a few
#: ms); normalized seconds are seconds on a host where a probe takes
#: ``PROBE_S``.  Probes run before, every ``PROBE_EVERY_S`` during, and
#: after each timed interval.
PROBE_STEPS = 2_500
PROBE_S = 0.003
PROBE_EVERY_S = 0.1

#: (name, unit) of each end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("host_qps", "queries/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class _Item:
    __slots__ = ("key", "hits", "log")

    def __init__(self, key: int):
        self.key = key
        self.hits = 0
        self.log: List[int] = []


def reference_loop(steps: int) -> float:
    """Host seconds of a fixed pure-Python loop shaped like a simulator.

    A heap of timestamped events, slotted objects, closures, dict and
    list churn.  It is part of the benchmark, not of the program, so no
    change to ``src/`` moves it; only the host's speed does.
    """
    start = time.perf_counter()
    items = [_Item(i) for i in range(64)]
    heap: List[Tuple[int, int, _Item]] = []
    table: Dict[int, Tuple[int, int]] = {}
    for i in range(steps):
        item = items[i & 63]
        item.hits += 1
        item.log.append(i)
        if len(item.log) > 8:
            item.log.clear()
        table[i % 997] = (i, item.key)
        heapq.heappush(heap, (i * 7 % 1013, i, item))
        if len(heap) > 256:
            heapq.heappop(heap)[2].hits -= 1
        bump: Callable[[], int] = lambda v=i: v + 1  # noqa: E731
        bump()
    return time.perf_counter() - start


def speed_timed(fn: Callable[[], object], during: bool = True):
    """Run ``fn``; return ``(result, raw seconds, normalized seconds)``.

    The host this runs on changes speed by tens of percent in steps that
    last seconds (other tenants, frequency scaling), so raw medians
    spread far more than the bounds allow.  While ``fn`` runs, a timer
    signal runs a short probe of :func:`reference_loop` every
    ``PROBE_EVERY_S``; one more probe runs before and one after.  The raw
    time (probes excluded) is scaled by ``PROBE_S`` over the mean probe
    time, so it tracks the host's speed *during* the interval.
    ``during=False`` probes only before and after, for traced intervals
    whose span self times the probes would otherwise join.
    """
    probes = [reference_loop(PROBE_STEPS)]

    def probe(signum, frame) -> None:
        probes.append(reference_loop(PROBE_STEPS))

    previous = signal.signal(signal.SIGALRM, probe)
    if during:
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    raw = elapsed - sum(probes[1:])
    probes.append(reference_loop(PROBE_STEPS))
    return result, raw, raw * PROBE_S / statistics.fmean(probes)


def _load_program(root: Path):
    """Put ``<root>/src`` first on the import path; None when it is missing."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import repro

    return Path(repro.__file__).resolve().parent


def provenance(seed: int, package: Path) -> Dict[str, object]:
    """Python, platform, CPU count, code fingerprint, and git revision."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    head = package.parent.parent / ".git" / "HEAD"
    revision = "none (not a git checkout)"
    if head.is_file():
        revision = head.read_text().strip()
        if revision.startswith("ref: "):
            target = head.parent / revision[5:]
            if target.is_file():
                revision = target.read_text().strip()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "code_sha256": digest.hexdigest()[:16],
        "git_revision": revision,
        "seed": seed,
    }


def tail(samples: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    if n < 11:
        return f"max {ordered[-1]:.6f} (n={n}: no percentile has 10 samples beyond it)"
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return f"p{p} {ordered[max(1, math.ceil(p / 100.0 * n)) - 1]:.6f} (n={n})"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Samples:
    """Raw and normalized host seconds of one kind of interval."""

    def __init__(self):
        self.raw: List[float] = []
        self.norm: List[float] = []

    def add(self, raw: float, norm: float) -> None:
        self.raw.append(raw)
        self.norm.append(norm)

    def line(self, what: str) -> str:
        return (f"median of {len(self.norm)} {what}; {tail(self.norm)}; raw median "
                f"{statistics.median(self.raw):.6f} s")


def timed_setups(workload, seed: int):
    samples = Samples()
    inputs = None
    for _ in range(SETUP_REPS):
        inputs = None  # let the previous set-up's inputs go before the next
        gc.collect()
        inputs, raw, norm = speed_timed(lambda: workload.setup(seed))
        samples.add(raw, norm)
    return inputs, samples


def timed_pass(workload, inputs, part: str, samples: Samples, during: bool = True):
    """One pass of ``part``; its program time (set-up moved out) joins ``samples``."""
    gc.collect()
    result, raw, norm = speed_timed(lambda: workload.run(inputs, part), during)
    samples.add(raw - result.setup_s, (raw - result.setup_s) * norm / raw)
    return result


class Passes:
    """Checks every pass as it lands, so no pass has to be kept.

    The first pass of each part is verified against the workload's
    oracle; every later pass must reproduce that pass's fingerprint (its
    simulated report and result digests) exactly, or all of its queries
    count as failed.
    """

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.outputs: Dict[str, Dict[str, float]] = {}
        self.fingerprints: Dict[str, Dict[str, str]] = {}
        self.checks: Dict[str, object] = {}
        self.passes: Dict[str, int] = {}
        self.attempted = self.failed = self.queries = 0
        self.problems: List[str] = []

    def keep(self, result) -> None:
        part = result.part
        fingerprint = result.fingerprint()
        self.passes[part] = self.passes.get(part, 0) + 1
        if part not in self.checks:
            check = self.checks[part] = self.workload.verify(self.inputs, result)
            self.outputs[part] = result.outputs
            self.fingerprints[part] = fingerprint
            self.problems += check.problems
        else:
            check = self.checks[part]
            if fingerprint != self.fingerprints[part]:
                self.failed += check.attempted - check.failed
                self.problems.append(
                    f"{part} pass {self.passes[part]}: simulated report or results "
                    "differ from pass 1"
                )
        self.attempted += check.attempted
        self.failed += check.failed
        self.queries += result.queries

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _print_outputs(passes: Passes) -> None:
    print("simulated outputs per part (exact, identical on every pass of a seed):")
    for part, outputs in passes.outputs.items():
        values = ", ".join(f"{k}={v!r}" for k, v in sorted(outputs.items()))
        print(f"  [{part}] {values}; digest {passes.fingerprints[part]['report']}")


def _finish(correct: bool, attempted: int, failed: int, metrics: Dict[str, object],
            problems: List[str]) -> int:
    if problems:
        print("checks: FAILED")
        for problem in problems:
            print(f"  - {problem}")
    else:
        print("checks: ok")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


def measure(workload, seed: int, seconds: float) -> int:
    """Tracing off: the end-to-end metrics."""
    inputs, setups = timed_setups(workload, seed)
    walls = {part: Samples() for part in workload.parts}
    passes = Passes(workload, inputs)
    # Parts run round-robin until the time is up, every part at least once.
    order = itertools.cycle(workload.parts)
    deadline = time.perf_counter() + seconds
    count = 0
    while count < len(workload.parts) or time.perf_counter() < deadline:
        part = next(order)
        result = timed_pass(workload, inputs, part, walls[part])
        if count == 0:
            # Read before any check runs: checks allocate too, and CPython
            # keeps the arenas they free, so later peaks carry their noise.
            rss = peak_rss_mb()
        passes.keep(result)
        count += 1
    total = sum(sum(s.norm) for s in walls.values())
    values = {
        "wall_s": sum(statistics.median(s.norm) for s in walls.values()),
        "host_qps": passes.queries / total,
        "setup_s": statistics.median(setups.norm),
        "peak_rss_mb": rss,
    }
    print("end-to-end (tracing off; seconds normalized to host speed):")
    print(f"  wall_s       {values['wall_s']:.6f} s")
    for part, samples in walls.items():
        print(f"    {part:10s} {samples.line('passes')}")
    print(f"  host_qps     {values['host_qps']:.4f} queries/s    "
          f"{passes.queries} queries in {total:.3f} s")
    print(f"  setup_s      {values['setup_s']:.6f} s    {setups.line('set-ups')}")
    print(f"  peak_rss_mb  {rss:.2f} MB    peak over set-up and the first timed pass")
    print(f"  failed_frac  {passes.failed / passes.attempted:.6f} ratio    "
          f"{passes.failed} of {passes.attempted} queries")
    _print_outputs(passes)
    units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in END_TO_END}
    return _finish(passes.correct, passes.attempted, passes.failed, metrics, passes.problems)


def trace(workload, seed: int, seconds: float) -> int:
    """Tracing on: untraced and traced rounds alternate; per-layer metrics."""
    import layers
    import workloads
    from tracing import Tracer

    inputs, setups = timed_setups(workload, seed)
    tracer = Tracer()
    untraced, traced = Samples(), Samples()
    # One instance is traced: the per-layer counts describe one data set.
    parts = [part for part in workload.parts if part.split("/")[0] == "0"]
    passes = Passes(workload, inputs)
    per_round: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not per_round or time.perf_counter() < deadline:
        plain = Samples()
        for part in parts:
            passes.keep(timed_pass(workload, inputs, part, plain))
        untraced.add(sum(plain.raw), sum(plain.norm))
        tracer.reset()
        round_samples, outputs = Samples(), {}
        with tracer:
            for part in parts:
                result = timed_pass(workload, inputs, part, round_samples, during=False)
                outputs[part] = result.outputs
                passes.keep(result)
        traced.add(sum(round_samples.raw), sum(round_samples.norm))
        per_round.append(layers.per_layer(
            tracer, tracer.self_times(), workloads.combine(outputs),
            untraced_wall_s=untraced.raw[-1], traced_wall_s=traced.raw[-1],
            setup_samples=setups.raw, db_bytes=inputs.db_bytes,
            queries=sum(passes.checks[part].attempted for part in parts),
        ))
    problems = list(passes.problems)
    metrics = {}
    for name, unit, _ in layers.PER_LAYER:
        values = [m[name] for m in per_round]
        if name in layers.EXACT and len(set(values)) > 1:
            problems.append(f"{name} differs between traced rounds: {values}")
        value = values[0] if name in layers.EXACT else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    metrics["obs.trace_overhead_frac"]["value"] = (
        statistics.median(traced.norm) / statistics.median(untraced.norm) - 1.0
    )
    if metrics["sim.events"]["value"] != workloads.combine(passes.outputs)["sim.events"]:
        problems.append("traced sim.events differs from the reports' events_processed")
    problems += layers.self_check(workload.name, {k: v["value"] for k, v in metrics.items()})
    SPANS_DIR.mkdir(exist_ok=True)
    stem = SPANS_DIR / f"spans-{workload.name}"
    tracer.write(stem)
    print(f"traced: {len(traced.raw)} traced and {len(untraced.raw)} untraced rounds; "
          f"{tracer.span_count} spans of the last traced round in {stem}.json/.bin")
    print(f"  untraced round: {untraced.line('rounds')}")
    print(f"  traced round:   {traced.line('rounds')}")
    print("per-layer metrics (traced run):")
    for entry in layers.LAYER_MAP:
        print(f"  [{entry['layer']}] moves {entry['moves']}; most on {entry['most']}, "
              f"least on {entry['least']}; zero on {', '.join(entry['zero_on']) or '-'}")
        for name in entry["metrics"]:
            print(f"    {name:32s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    _print_outputs(passes)
    correct = not problems and passes.failed == 0
    return _finish(correct, passes.attempted, passes.failed, metrics, problems)


def run_all(args, names) -> int:
    """Each workload in its own process, serially; one combined result."""
    combined: Dict[str, object] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            print(f"{name}: no result (exit {proc.returncode})")
            return proc.returncode or 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
        print()
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}
    ))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    package = _load_program(Path.cwd())
    if package is None:
        print(f"perfbench: no src/repro under {Path.cwd()}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if names[0] not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.NAMES)} or all")
    if args.workload == "all":
        return run_all(args, names)

    workload = workloads.build(args.workload, args.size)
    print(f"== perfbench {workload.name}: seed {args.seed}, trace {args.trace}, "
          f"size {args.size}, {args.seconds:g} s ==")
    print("provenance: " + ", ".join(
        f"{k}={v}" for k, v in provenance(args.seed, package).items()))
    print(f"load: {workload.load}")
    print(f"why: {workload.why}")
    if args.trace:
        return trace(workload, args.seed, args.seconds)
    return measure(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())

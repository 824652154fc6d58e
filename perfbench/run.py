"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig13 --seed 1 --seconds 40 --trace 0

The run repeats *rounds* until ``--seconds`` would be exceeded (at least
:data:`MIN_ROUNDS`).  Every round first runs its own set-up, timed apart,
so each round starts cold.  Every round's output is compared with the
committed reference for the seed (``perfbench/references.json``) and with
the run's first round.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced round, then traced rounds, and prints the per-layer metrics,
self time per span, the round time no span covers and the tracing
overhead, and writes every span to ``.perfbench/trace-*.jsonl``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong output makes the
command exit with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Rounds every run makes, however long they take.
MIN_ROUNDS = 2

#: Session latency metrics pool the sessions of the L2Q selectors.  On
#: fig13 the five methods and the IDEAL normaliser form clusters of equal
#: size, and the pooled median fell in the gap between the three fast and
#: the three slow ones, where it jumped by about a sixth from seed to seed.
LATENCY_SELECTORS = "L2Q"

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "sessions_per_s": "1/s",
    "session_p50_s": "s",
    "session_tail_s": "s",
    "fscore": "f1",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child waited for so far.

    Taken before the resource tracker is stopped: the tracker is forked
    from this process, so its peak would count this process's pages again.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def stop_resource_tracker() -> None:
    """End the tracker process the shared-memory store started, and wait.

    Probing the corpus store's ``auto`` mode creates a shared-memory
    segment, which starts multiprocessing's resource tracker; left alone
    it would outlive this process by a moment.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


@dataclass
class Cycle:
    """One round and its set-ups, with what the probe recorded in each."""

    #: Seconds of every set-up sample taken for this round.
    setups: list
    round_s: float
    output: object
    setup_records: tuple
    round_records: tuple


def run_cycle(workload, seed: int, workdir: Path, probe) -> Cycle:
    """Set up from the seed, run one round, and collect its records.

    Set-up is timed ``workload.setup_samples`` times, each sample the mean
    of ``workload.setup_repeats`` set-ups; only the last set-up is used and
    the probe keeps only the last sample's records.  Earlier set-ups are
    dropped and garbage is collected before every sample and before the
    round, so no two states are alive at once and none of their garbage
    is collected inside a timed section.
    """
    setups, state = [], None
    for _ in range(workload.setup_samples):
        state = None
        gc.collect()
        probe.take()
        started = perf_counter()
        for _ in range(workload.setup_repeats):
            state = workload.setup(seed, workdir)
        setups.append((perf_counter() - started) / workload.setup_repeats)
    setup_records = probe.take()
    gc.collect()
    try:
        started = perf_counter()
        output = workload.round(state)
        round_s = perf_counter() - started
        probe.collect_workers()
        round_records = probe.take()
    finally:
        if workload.cleanup is not None:
            workload.cleanup(state)
    return Cycle(setups, round_s, output, setup_records, round_records)


def run_cycles(workload, seed, workdir, probe, seconds, started,
               minimum=MIN_ROUNDS, maximum=None) -> list:
    """Cycles until another one would end after ``started + seconds``."""
    cycles = []
    with probe:
        while len(cycles) != maximum:
            begun = perf_counter()
            cycles.append(run_cycle(workload, seed, workdir, probe))
            now = perf_counter()
            if len(cycles) >= minimum and \
                    now - started + (now - begun) > seconds:
                break
    return cycles


def check(cycles, reference):
    """(attempted, failed, messages) over every round of the run."""
    attempted = failed = 0
    messages = []
    first = cycles[0].output.digest
    for index, cycle in enumerate(cycles):
        output = cycle.output
        attempted += output.attempted
        wrong = []
        if reference is not None and output.digest != reference:
            wrong.append("differs from the committed reference")
        if output.digest != first:
            wrong.append("differs from round 1")
        if wrong:
            failed += output.attempted
            messages.append(f"round {index + 1}: output {' and '.join(wrong)}")
        else:
            failed += output.incomplete
            if output.incomplete:
                messages.append(f"round {index + 1}: {output.incomplete} "
                                f"operation(s) did not complete")
    return attempted, failed, messages


def end_to_end(cycles, peak_rss: float):
    """The end-to-end metrics and the tail's percentile and count.

    The tail percentile is chosen from the L2Q sessions of
    :data:`MIN_ROUNDS` rounds like the first, not from the sessions pooled
    over however many rounds fitted the run, so every run of a workload
    reports the same percentile.
    """
    from perfbench.stats import percentile, tail_percentile

    def l2q(sessions):
        return [seconds for seconds, selector in sessions
                if selector.startswith(LATENCY_SELECTORS)]

    sessions = [s for cycle in cycles for s in cycle.round_records[0]]
    latencies = l2q(sessions)
    p = tail_percentile(MIN_ROUNDS * len(l2q(cycles[0].round_records[0])))
    value = percentile(latencies, p)
    metrics = {
        "setup_s": statistics.median(s for c in cycles for s in c.setups),
        "sessions_per_s": len(sessions) / sum(c.round_s for c in cycles),
        "session_p50_s": statistics.median(latencies),
        "session_tail_s": value,
        "fscore": cycles[0].output.fscore,
        "peak_rss_mb": peak_rss,
    }
    beyond = sum(1 for v in latencies if v > value)
    return metrics, (p, beyond, len(latencies))


def layers(cycles, untraced_round_s, workers):
    """Per-layer metrics, self time per span and unattributed round time."""
    from perfbench.probe import END, PARENT, START
    from perfbench.stats import LayerTotals, layer_metrics, loop_wait

    totals = LayerTotals()
    steps, unattributed, cache = [], 0.0, []
    for cycle in cycles:
        totals.add(cycle.setup_records[1], in_round=False)
        for record in cycle.setup_records[3]:
            totals.add(record["spans"], in_round=False)
        hits_before = totals.counts["search.engine.cache"][0]
        calls_before = totals.calls["search.engine.cache"]
        _, spans, cycle_steps, workers_records = cycle.round_records
        totals.add(spans, in_round=True)
        for record in workers_records:
            totals.add(record["spans"], in_round=True)
        steps.extend(cycle_steps)
        covered = sum(s[END] - s[START] for s in spans if s[PARENT] is None)
        unattributed += cycle.round_s - covered
        calls = totals.calls["search.engine.cache"] - calls_before
        hits = totals.counts["search.engine.cache"][0] - hits_before
        cache.append(hits / calls if calls else None)
    rounds = len(cycles)
    overhead = statistics.median(c.round_s for c in cycles) - untraced_round_s
    metrics = layer_metrics(totals, rounds, workers, loop_wait(steps),
                            unattributed / rounds, overhead)
    own = {name: seconds / rounds for name, seconds
           in totals.self_seconds.items()}
    return metrics, own, cache


def write_spans(path: Path, cycles) -> None:
    """Every recorded span as JSON lines (one object per span)."""
    main_pid = os.getpid()
    with open(path, "w", encoding="utf-8") as handle:
        for index, cycle in enumerate(cycles):
            for phase, records in (("setup", cycle.setup_records),
                                   ("round", cycle.round_records)):
                batches = [(main_pid, records[1])] + \
                    [(r["pid"], r["spans"]) for r in records[3]]
                for pid, spans in batches:
                    for span in spans:
                        handle.write(json.dumps({
                            "round": index + 1, "phase": phase, "pid": pid,
                            "name": span[0], "start": span[1],
                            "end": span[2], "parent": span[3],
                            "session": span[4], "counts": span[5],
                        }) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.probe import Probe
    from perfbench.stats import LAYER_METRICS
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    references = json.loads(
        (ROOT / "perfbench" / "references.json").read_text())
    reference = references.get(workload.name, {}).get(str(args.seed))

    workdir = ROOT / ".perfbench"
    spool = workdir / f"spool-{os.getpid()}"
    spool.mkdir(parents=True, exist_ok=True)
    started = perf_counter()
    try:
        untraced = run_cycles(
            workload, args.seed, workdir,
            Probe(spool, time_scale=workload.time_scale), args.seconds,
            started, maximum=1 if args.trace else None)
        cycles = untraced
        if args.trace:
            cycles = run_cycles(
                workload, args.seed, workdir,
                Probe(spool, trace=True, time_scale=workload.time_scale),
                args.seconds, started, minimum=1)
        peak_rss = peak_rss_mb()
    finally:
        shutil.rmtree(spool, ignore_errors=True)
        stop_resource_tracker()

    every = untraced + cycles if args.trace else cycles
    attempted, failed, messages = check(every, reference)
    print(f"workload {workload.name}, seed {args.seed}: {len(every)} "
          f"round(s); reference "
          f"{'checked' if reference else 'absent, rounds checked against round 1'}")
    for message in messages:
        print(f"  WRONG {message}")
    if "fetch_requests" in cycles[0].output.notes:
        exhausted = sum(c.output.notes["fetch_exhausted"] for c in every)
        requests = sum(c.output.notes["fetch_requests"] for c in every)
        print(f"  failed_ratio {exhausted / requests:.6g} ratio "
              f"({exhausted} of {requests} fetch requests exhausted after "
              f"retries)")
    else:
        print(f"  failed_ratio {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} checked operations failed)")

    if args.trace:
        metrics, own, cache = layers(cycles, untraced[0].round_s,
                                     workload.workers)
        print("per-layer metrics (per round):")
        for name, value in metrics.items():
            shown = "not exercised" if value is None else f"{value:.6g}"
            print(f"  {name:40s} {shown} {LAYER_METRICS[name]}")
        print("self time per span (s per round):")
        for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {name:40s} {seconds:.4f}")
        print(f"round time no span covers: {metrics['bench.unattributed_s']:.4f} s")
        print(f"tracing overhead: {metrics['bench.trace_overhead_s']:.4f} s "
              f"(traced round {statistics.median(c.round_s for c in cycles):.3f}"
              f" s, untraced round {untraced[0].round_s:.3f} s)")
        print("search.engine.cache_hit_ratio per round: "
              + ", ".join("-" if r is None else f"{r:.4f}" for r in cache))
        trace_path = workdir / f"trace-{workload.name}-seed{args.seed}.jsonl"
        write_spans(trace_path, cycles)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        result = {name: {"value": 0.0 if value is None else value,
                         "unit": LAYER_METRICS[name]}
                  for name, value in metrics.items()}
    else:
        metrics, (p, beyond, pooled) = end_to_end(cycles, peak_rss)
        for name, value in metrics.items():
            print(f"  {name:16s} {value:.6g} {END_TO_END[name]}")
        print(f"  session_tail_s is p{p:g} of {pooled} L2Q sessions "
              f"({beyond} beyond it)")
        result = {name: {"value": value, "unit": END_TO_END[name]}
                  for name, value in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Pure arithmetic over stamps and spans: percentiles, self time, layers.

Nothing here touches the program; :mod:`perfbench.run` feeds it what the
:class:`~perfbench.probe.Probe` recorded.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.probe import COUNTS, END, NAME, PARENT, START

#: Percentiles a tail is chosen from, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile needs at least this many samples above it.
TAIL_MIN_BEYOND = 10

#: Layers whose work is set-up: their metrics count set-up and round spans.
#: Every other layer counts round spans only.
SETUP_LAYERS = frozenset({"corpus.generate", "aspects.train",
                          "core.domain_phase.learn", "baselines.hr_stats"})


def percentile(values: Sequence[float], p: float) -> float:
    """Linearly interpolated ``p``-th percentile (``p`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low, high = math.floor(rank), math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with enough of ``samples`` beyond it.

    Counts the distinct values :func:`percentile` leaves above each rung,
    so the choice depends on the sample count alone; when even the median
    leaves fewer than :data:`TAIL_MIN_BEYOND`, it is the median.
    """
    chosen = LADDER[0]
    for p in LADDER:
        rank = (samples - 1) * p / 100.0
        if samples - 1 - math.floor(rank) < TAIL_MIN_BEYOND:
            break
        chosen = p
    return chosen


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another on one thread, so their
    durations never overlap and subtracting their sum is exact.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def outermost(spans: Sequence[list]) -> List[bool]:
    """Whether each span has no ancestor of its own name (no double count)."""
    flags = []
    for span in spans:
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        flags.append(parent is None)
    return flags


def loop_wait(steps: Sequence[Tuple[float, float, float]]) -> Tuple[float, float]:
    """Event-loop sleep and loop wait of serving fetch steps.

    Each step is ``(fetch end, sleep, feed start)``: the session asked
    the loop to sleep ``sleep`` seconds once its fetch returned, so it was
    ready again at ``fetch end + sleep``; anything until its feed started
    it spent waiting for the loop (another session held it).  Returns the
    summed ``(sleep, wait)``.
    """
    sleep = sum(step[1] for step in steps)
    wait = sum(step[2] - step[0] - step[1] for step in steps)
    return sleep, wait


class LayerTotals:
    """Per-layer sums over the rounds of one traced run."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, List[float]] = defaultdict(lambda: [0.0] * 3)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.cell_seconds: List[float] = []

    def add(self, spans: Sequence[list], in_round: bool) -> None:
        """Fold one process's spans of one set-up or round."""
        for span, top, own in zip(spans, outermost(spans), self_times(spans)):
            name = span[NAME]
            if not in_round and name not in SETUP_LAYERS:
                continue
            self.self_seconds[name] += own
            if not top:
                continue
            self.seconds[name] += span[END] - span[START]
            self.calls[name] += 1
            if span[COUNTS] is not None:
                totals = self.counts[name]
                for i, value in enumerate(span[COUNTS]):
                    totals[i] += value
            if name == "eval.cell":
                self.cell_seconds.append(span[END] - span[START])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer metrics: name -> unit.  The order is the report's order.
LAYER_METRICS: Dict[str, str] = {
    "corpus.generate_s": "s",
    "aspects.train_s": "s",
    "core.domain_phase.learn_s": "s",
    "baselines.hr_stats_s": "s",
    "core.selection.select_s": "s",
    "core.selection.select_calls": "count",
    "core.entity_phase.enumerate_s": "s",
    "core.entity_phase.candidates_mean": "count",
    "core.utility.assemble_s": "s",
    "core.utility.graph_nnz_mean": "count",
    "graph.random_walk.setup_s": "s",
    "graph.random_walk.solve_s": "s",
    "graph.random_walk.iterations_mean": "count",
    "graph.random_walk.unconverged_ratio": "ratio",
    "core.context.score_s": "s",
    "baselines.HR.select_s": "s",
    "baselines.AQ.select_s": "s",
    "baselines.LM.select_s": "s",
    "baselines.MQ.select_s": "s",
    "baselines.IDEAL.select_s": "s",
    "search.engine.search_s": "s",
    "search.engine.search_calls": "count",
    "search.engine.cache_hit_ratio": "ratio",
    "aspects.score_s": "s",
    "core.stepper.feed_s": "s",
    "core.session.new_page_ratio": "ratio",
    "search.clients.fetch_s": "s",
    "search.clients.attempts_per_request": "ratio",
    "search.clients.sim_latency_s": "s",
    "search.clients.throttle_s": "s",
    "serving.sleep_s": "s",
    "serving.loop_wait_s": "s",
    "exec.dispatch_s": "s",
    "exec.payload_bytes": "bytes",
    "exec.worker_busy_ratio": "ratio",
    "store.publish_s": "s",
    "store.bytes": "bytes",
    "store.attach_s": "s",
    "campaign.record_s": "s",
    "campaign.fold_s": "s",
    "eval.cell_p50_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_s": "s",
}

#: Layers whose ``<name>_s`` metric is the inclusive seconds of their spans.
SPAN_SECONDS = (
    "corpus.generate", "aspects.train", "core.domain_phase.learn",
    "baselines.hr_stats", "core.selection.select",
    "core.entity_phase.enumerate", "core.utility.assemble",
    "graph.random_walk.setup", "graph.random_walk.solve",
    "core.context.score", "baselines.HR.select", "baselines.AQ.select",
    "baselines.LM.select", "baselines.MQ.select", "baselines.IDEAL.select",
    "search.engine.search", "aspects.score", "core.stepper.feed",
    "search.clients.fetch", "exec.dispatch", "store.publish", "store.attach",
    "campaign.record", "campaign.fold",
)


def layer_metrics(totals: LayerTotals, rounds: int, workers: int,
                  serving: Tuple[float, float], unattributed: float,
                  overhead: float) -> Dict[str, Optional[float]]:
    """Per-round layer metrics; ``None`` marks a layer that did no work.

    ``serving`` is the summed ``(sleep, loop wait)`` of
    :func:`loop_wait`; ``unattributed`` and ``overhead`` are per-round
    seconds already.
    """
    per = 1.0 / rounds
    out: Dict[str, Optional[float]] = {}
    for name in SPAN_SECONDS:
        out[f"{name}_s"] = \
            totals.seconds[name] * per if totals.calls[name] else None
    counts, calls = totals.counts, totals.calls

    def mean(name: str, index: int = 0, base: Optional[float] = None):
        if not calls[name]:
            return None
        return _ratio(counts[name][index], calls[name] if base is None else base)

    out["core.selection.select_calls"] = \
        calls["core.selection.select"] * per if calls["core.selection.select"] else None
    out["core.entity_phase.candidates_mean"] = mean("core.entity_phase.enumerate")
    out["core.utility.graph_nnz_mean"] = mean("core.utility.assemble")
    solve = counts["graph.random_walk.solve"]
    out["graph.random_walk.iterations_mean"] = \
        _ratio(solve[1], solve[0]) if calls["graph.random_walk.solve"] else None
    out["graph.random_walk.unconverged_ratio"] = \
        _ratio(solve[2], solve[0]) if calls["graph.random_walk.solve"] else None
    out["search.engine.search_calls"] = \
        calls["search.engine.search"] * per if calls["search.engine.search"] else None
    out["search.engine.cache_hit_ratio"] = mean("search.engine.cache")
    pages = counts["core.session.add_pages"]
    out["core.session.new_page_ratio"] = \
        _ratio(pages[1], pages[0]) if calls["core.session.add_pages"] else None
    fetch = counts["search.clients.fetch"]
    exercised = calls["search.clients.fetch"] > 0
    out["search.clients.attempts_per_request"] = mean("search.clients.fetch")
    out["search.clients.sim_latency_s"] = fetch[1] * per if exercised else None
    out["search.clients.throttle_s"] = fetch[2] * per if exercised else None
    out["serving.sleep_s"] = serving[0] * per if exercised else None
    out["serving.loop_wait_s"] = serving[1] * per if exercised else None
    out["exec.payload_bytes"] = \
        counts["exec.dispatch"][0] * per if calls["exec.dispatch"] else None
    dispatch = totals.seconds["exec.dispatch"]
    out["exec.worker_busy_ratio"] = \
        _ratio(sum(totals.cell_seconds), workers * dispatch) \
        if totals.cell_seconds else None
    out["store.bytes"] = \
        counts["store.publish"][0] * per if calls["store.publish"] else None
    out["eval.cell_p50_s"] = \
        statistics.median(totals.cell_seconds) if totals.cell_seconds else None
    out["bench.unattributed_s"] = unattributed
    out["bench.trace_overhead_s"] = overhead
    return {metric: out[metric] for metric in LAYER_METRICS}

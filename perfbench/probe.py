"""Session stamps and layer spans, recorded from outside the program.

A :class:`Probe` patches public attributes of the program's modules for
the length of one benchmark run and puts every one of them back on
:meth:`Probe.restore`.  Nothing under ``src/`` knows it is being watched.

Two kinds of records are kept, both in memory:

* **Session stamps** (always on): the wall time of one harvest session,
  from its stepper's first ``next_action`` to its last ``feed``: one clock
  read when the session starts and one after every ``feed``.  These feed
  ``session_p50_s`` and ``session_tail_s``.
* **Layer spans** (traced runs only): one span per call of a wrapped
  public function, with name, start, end, parent span and session id,
  plus a few work counts read from the call's arguments or result.

Campaign cells run in forked worker processes.  The workers inherit the
patched classes, record into their own copy of the probe, and append what
they recorded to ``<spool>/worker-<pid>.jsonl`` after every cell; the
parent collects and deletes those files after each round.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Span record layout: [name, start, end, parent, session, counts].
NAME, START, END, PARENT, SESSION, COUNTS = range(6)

#: The probe forked campaign workers record into (set by :meth:`install`).
_ACTIVE: Optional["Probe"] = None


def _nnz(graph) -> int:
    return int(graph.graph.page_query.nnz + graph.graph.query_template.nnz)


def _solve_counts(result) -> Tuple[int, int, int]:
    vectors = list(result[0]) + list(result[1])
    return (len(vectors), sum(v.iterations for v in vectors),
            sum(1 for v in vectors if not v.converged))


def _fetch_counts(outcome) -> Tuple[int, float, float]:
    return (outcome.attempts, outcome.latency_seconds,
            outcome.throttle_seconds)


#: Every wrapped attribute: (span name, module, class or None, attribute,
#: counts(args, kwargs, result) or None).  Span names are the module whose
#: public function they time; per-layer metrics are named after them.
LAYER_WRAPS: List[Tuple[str, str, Optional[str], str, Optional[Callable]]] = [
    ("corpus.generate", "repro.corpus.synthetic", "CorpusGenerator",
     "generate_base", None),
    ("corpus.generate", "repro.corpus.synthetic", "CorpusGenerator",
     "realise", None),
    ("aspects.train", "repro.aspects.classifier", "AspectClassifierSuite",
     "train_on_corpus", None),
    ("aspects.score", "repro.aspects.relevance", "ClassifierRelevance",
     "__call__", None),
    ("aspects.score", "repro.aspects.relevance", "ClassifierRelevance",
     "score", None),
    ("core.domain_phase.learn", "repro.core.domain_phase", "DomainPhase",
     "learn", None),
    ("baselines.hr_stats", "repro.baselines.harvest_rate",
     "HarvestRateStatistics", "from_corpus", None),
    ("core.selection.select", "repro.core.selection", "RandomSelection",
     "select", None),
    ("core.selection.select", "repro.core.selection", "UtilityOnlySelection",
     "select", None),
    ("core.selection.select", "repro.core.selection", "DomainQuerySelection",
     "select", None),
    ("core.selection.select", "repro.core.selection", "TemplateSelection",
     "select", None),
    ("core.selection.select", "repro.core.selection", "ContextAwareSelection",
     "select", None),
    ("baselines.HR.select", "repro.baselines.harvest_rate",
     "HarvestRateSelection", "select", None),
    ("baselines.AQ.select", "repro.baselines.adaptive_querying",
     "AdaptiveQueryingSelection", "select", None),
    ("baselines.LM.select", "repro.baselines.lm_feedback",
     "LanguageModelFeedbackSelection", "select", None),
    ("baselines.MQ.select", "repro.baselines.manual", "ManualQuerySelection",
     "select", None),
    ("baselines.IDEAL.select", "repro.baselines.oracle", "IdealSelection",
     "select", None),
    ("core.entity_phase.enumerate", "repro.core.entity_phase", "EntityPhase",
     "enumerate_candidates", lambda args, kwargs, result: (len(result),)),
    ("core.utility.assemble", "repro.core.utility", "GraphAssembler",
     "assemble", lambda args, kwargs, result: (_nnz(result),)),
    ("graph.random_walk.setup", "repro.graph.random_walk", "UtilitySolver",
     "__init__", None),
    ("graph.random_walk.solve", "repro.graph.random_walk", "UtilitySolver",
     "solve_joint", lambda args, kwargs, result: _solve_counts(result)),
    ("core.context.score", "repro.core.context", "ContextTracker",
     "evaluate", None),
    ("core.context.score", "repro.core.context", "ContextTracker",
     "evaluate_many", None),
    ("search.engine.search", "repro.search.engine", "SearchEngine",
     "search", None),
    ("search.engine.cache", "repro.search.engine", "FetchStatistics",
     "record_cache", lambda args, kwargs, result: (int(bool(
         kwargs["hit"] if "hit" in kwargs else args[1])),)),
    ("core.session.add_pages", "repro.core.session", "HarvestSession",
     "add_pages", lambda args, kwargs, result: (len(args[1]), len(result))),
    ("search.clients.fetch", "repro.search.clients", "SimulatedServiceClient",
     "fetch", lambda args, kwargs, result: _fetch_counts(result)),
    ("exec.dispatch", "repro.exec.backends", "ProcessBackend", "map_tasks",
     lambda args, kwargs, result: (len(pickle.dumps(list(args[2]))),)),
    ("store.publish", "repro.campaign.runner", None, "publish_domain_store",
     lambda args, kwargs, result: (result.size,)),
    ("store.attach", "repro.store.corpus_store", "StoreAttachment",
     "__init__", None),
    ("campaign.record", "repro.campaign.store", "CampaignStore", "record",
     None),
    ("campaign.fold", "repro.campaign.runner", None, "fold_matrices", None),
]

#: Wrapped in every run: the stepper protocol (session stamps) and the
#: campaign's cell entry point (ships worker records home).
STEPPER = ("repro.core.stepper", "HarvestStepper")
CELL = ("repro.campaign.runner", "execute_sweep_cell")


def run_cell(spec):
    """Campaign cell entry point while a probe is installed.

    Module-level so the process backend pickles it by reference; runs the
    program's own ``execute_sweep_cell`` and flushes this worker's records.
    """
    from repro.eval.scenario_sweep import execute_sweep_cell

    probe = _ACTIVE
    probe.enter_process()
    if probe.trace:
        result = probe.span_call("eval.cell", execute_sweep_cell, (spec,), {})
    else:
        result = execute_sweep_cell(spec)
    probe.flush_worker()
    return result


class Probe:
    """Installs the benchmark's wrappers and holds what they record.

    ``trace`` turns layer spans on; session stamps are always recorded.
    ``time_scale`` is the serving runner's simulated-to-real factor, used
    to derive each fetch's event-loop sleep.  ``spool`` is the directory
    forked workers write their records to.
    """

    def __init__(self, spool: Path, trace: bool = False,
                 time_scale: float = 0.0) -> None:
        self.spool = Path(spool)
        self.trace = trace
        self.time_scale = time_scale
        self.pid = os.getpid()
        #: Finished sessions: [seconds, selector name].
        self.sessions: List[list] = []
        self.spans: List[list] = []
        #: Per-fetch serving steps: (fetch end, loop sleep, feed start).
        self.steps: List[Tuple[float, float, float]] = []
        self.worker_records: List[dict] = []
        self._stack: List[int] = []
        self._session: Optional[int] = None
        self._next_session = 0
        self._open: Dict[int, list] = {}
        self._fetched: Dict[int, Tuple[float, float]] = {}
        self._saved: List[Tuple[object, str, bool, object]] = []

    # -- Recording ---------------------------------------------------------
    def span_call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
                  counts: Optional[Callable] = None):
        """Call ``fn`` inside a span named ``name``.

        ``counts(args, kwargs, result)`` returns the span's work counts.
        """
        stack = self._stack
        record = [name, perf_counter(), 0.0, stack[-1] if stack else None,
                  self._session, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            record[END] = perf_counter()
        if counts is not None:
            record[COUNTS] = counts(args, kwargs, result)
        return result

    def take(self) -> Tuple[List[float], List[list], List[tuple], List[dict]]:
        """Everything recorded since the last take, then clear."""
        taken = (self.sessions, self.spans, self.steps, self.worker_records)
        self.sessions, self.spans, self.steps = [], [], []
        self.worker_records = []
        return taken

    # -- Worker processes --------------------------------------------------
    def enter_process(self) -> None:
        """Drop records inherited through fork on a worker's first cell."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.take()
            self._stack = []
            self._open = {}

    def flush_worker(self) -> None:
        """Append this worker's records to its spool file and clear them."""
        sessions, spans, _, _ = self.take()
        line = json.dumps({"pid": self.pid, "sessions": sessions,
                           "spans": spans})
        path = self.spool / f"worker-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def collect_workers(self) -> None:
        """Move every spooled worker record into :attr:`worker_records`."""
        for path in sorted(self.spool.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    self.sessions.extend(record["sessions"])
                    self.worker_records.append(record)
            path.unlink()

    # -- Installation ------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        had = attribute in vars(owner)
        self._saved.append((owner, attribute, had, vars(owner).get(attribute)))
        setattr(owner, attribute, replacement)

    def _wrap(self, name: str, owner, attribute: str,
              counts: Optional[Callable]) -> None:
        raw = vars(owner).get(attribute) if isinstance(owner, type) else None
        probe = self
        if isinstance(raw, (classmethod, staticmethod)):
            inner = raw.__func__

            @functools.wraps(inner)
            def call(*args, **kwargs):
                return probe.span_call(name, inner, args, kwargs, counts)
            self._patch(owner, attribute, type(raw)(call))
            return
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return probe.span_call(name, original, args, kwargs, counts)
        self._patch(owner, attribute, wrapper)

    def _wrap_stepper(self, cls) -> None:
        probe = self
        next_action = cls.next_action
        feed = cls.feed

        @functools.wraps(next_action)
        def stamped_next_action(stepper):
            if stepper.done:
                return next_action(stepper)
            key = id(stepper)
            state = probe._open.get(key)
            if state is None:
                # [session id, first stamp, last feed stamp, selector]
                state = [probe._next_session, perf_counter(), None,
                         stepper.selector.name]
                probe._next_session += 1
                probe._open[key] = state
            outer = probe._session
            probe._session = state[0]
            try:
                action = next_action(stepper)
            finally:
                probe._session = outer
            if stepper.done:
                probe._close(key)
            return action

        @functools.wraps(feed)
        def stamped_feed(stepper, results, pages, client_seconds=0.0):
            key = id(stepper)
            state = probe._open[key]
            fetched = probe._fetched.pop(id(stepper.accounting), None)
            if fetched is not None:
                probe.steps.append((fetched[0], fetched[1], perf_counter()))
            outer = probe._session
            probe._session = state[0]
            try:
                if probe.trace:
                    probe.span_call("core.stepper.feed", feed,
                                    (stepper, results, pages),
                                    {"client_seconds": client_seconds})
                else:
                    feed(stepper, results, pages,
                         client_seconds=client_seconds)
            finally:
                probe._session = outer
                state[2] = perf_counter()
            if stepper.done:
                probe._close(key)
        self._patch(cls, "next_action", stamped_next_action)
        self._patch(cls, "feed", stamped_feed)

    def _close(self, key: int) -> None:
        state = self._open.pop(key)
        if state[2] is not None:
            self.sessions.append([state[2] - state[1], state[3]])

    def _wrap_client_fetch(self, name: str, cls, counts: Callable) -> None:
        """Also remember when each simulated fetch returned and its sleep."""
        probe = self
        fetch = cls.fetch

        @functools.wraps(fetch)
        def timed_fetch(client, action, accounting=None):
            outcome = probe.span_call(name, fetch, (client, action),
                                      {"accounting": accounting}, counts)
            sleep = (outcome.latency_seconds
                     + outcome.throttle_seconds) * probe.time_scale
            probe._fetched[id(accounting)] = (perf_counter(), sleep)
            return outcome
        self._patch(cls, "fetch", timed_fetch)

    def install(self) -> "Probe":
        """Patch the program for this run (see :data:`LAYER_WRAPS`)."""
        global _ACTIVE
        if self._saved:
            raise RuntimeError("probe already installed")
        module, name = STEPPER
        self._wrap_stepper(getattr(importlib.import_module(module), name))
        module, name = CELL
        self._patch(importlib.import_module(module), name, run_cell)
        if self.trace:
            for span, module, cls, attribute, counts in LAYER_WRAPS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                if span == "search.clients.fetch":
                    self._wrap_client_fetch(span, owner, counts)
                else:
                    self._wrap(span, owner, attribute, counts)
        _ACTIVE = self
        return self

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        global _ACTIVE
        while self._saved:
            owner, attribute, had, value = self._saved.pop()
            if had:
                setattr(owner, attribute, value)
            else:
                delattr(owner, attribute)
        _ACTIVE = None

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

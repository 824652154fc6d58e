"""The benchmark's three workloads: set-up, one round, and its output.

Every workload is a closed loop driven from the benchmark's one process
and maps the workload seed to the program's inputs; the program sees only
what the set-up generated.  A round starts from objects its own set-up
just built (corpus, prepared split, engine and its result cache, domain
models, campaign directory, process pool), so no warm state carries over
from an earlier round.

Each round returns a :class:`RoundOutput`: a digest of the program's
output that must match the committed reference for the seed, the
user-facing F-score, and how many operations were attempted.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.campaign import CampaignRunner, compile_cells, spec_from_preset
from repro.eval import (
    DEFAULT_SCALE,
    DOMAINS,
    FIG13_METHODS,
    SMOKE_SCALE,
    ComparisonResult,
    ExperimentRunner,
    ExperimentScale,
    MetricSeries,
    compute_metrics,
)
from repro.exec.backends import ProcessBackend
from repro.scenarios import scenario_names
from repro.search.clients import ClientSpec
from repro.serving import ServingRunner

#: fig13: the ideal selector is harvested first for every target and
#: normalises the other methods' scores, exactly as ``run_fig13`` does.
IDEAL = "IDEAL"

#: serve-deep: one method, a deep budget, two sessions in flight (no more
#: simulated connections than the two cores it was sized on).
SERVE_METHOD = "L2QBAL"
SERVE_BUDGET = 10
SERVE_CONCURRENCY = 2
SERVE_TIME_SCALE = 1.0
#: Only two rounds fit a run, so each round times two set-ups.
SERVE_SETUP_SAMPLES = 2

#: campaign-cells: what ``campaign run --scale smoke --backend process
#: --workers 2 --methods L2QP L2QR L2QBAL --queries 3`` executes.
CAMPAIGN_METHODS = ("L2QP", "L2QR", "L2QBAL")
CAMPAIGN_QUERIES = 3
CAMPAIGN_WORKERS = 2
#: The campaign's set-up takes under a millisecond, and the 2-core machine
#: the benchmark was sized on switches between two speeds (up to 1.8 times
#: apart) in spells of one to five seconds, so a median of single set-ups
#: lands on one speed or the other.  Each sample is therefore the mean of
#: many back-to-back set-ups (about 0.7 s in all), and each round times
#: several samples.
CAMPAIGN_SETUP_SAMPLES = 4
CAMPAIGN_SETUP_REPEATS = 1000


def digest(document) -> str:
    """sha256 of a JSON document in canonical form (sorted keys)."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def session_digest(result) -> str:
    """What one harvest session did: its seed pages and every query."""
    return digest({
        "entity": result.entity_id,
        "aspect": result.aspect,
        "seed": list(result.seed_page_ids),
        "iterations": [[list(record.query), list(record.result_page_ids),
                        list(record.new_page_ids)]
                       for record in result.iterations],
    })


@dataclass
class RoundOutput:
    """What one round produced, for checking and reporting."""

    digest: str
    fscore: float
    #: Operations the round attempted (sessions, or campaign cells).
    attempted: int
    #: Operations that did not complete (campaign cells not committed).
    incomplete: int = 0
    notes: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# fig13
# ---------------------------------------------------------------------------

@dataclass
class _Fig13Domain:
    runner: ExperimentRunner
    prepared: list
    targets: list
    specs: list


def fig13_setup(seed: int, workdir: Path,
                scale: ExperimentScale = DEFAULT_SCALE,
                domains: Sequence[str] = DOMAINS):
    """Corpora, prepared splits and every lazily learned per-aspect model.

    The seed is the scale's ``corpus_seed``; the runner keeps
    ``run_fig13``'s base seed so its output is the reference.
    """
    scale = replace(scale, corpus_seed=seed)
    state = []
    for domain in domains:
        corpus = scale.corpus_for(domain)
        runner = ExperimentRunner(corpus)
        aspects = scale.aspects_for(corpus)
        budget = max(scale.num_queries_list)
        prepared, targets, specs = [], [], []
        for split_index in range(scale.num_splits):
            split = runner.default_split(split_index)
            ready = runner.prepare(split)
            for aspect in aspects:
                ready.domain_model(aspect)
                ready.hr_statistics(aspect)
            entities = list(split.test_entities)[:scale.max_test_entities]
            split_targets, split_specs = [], []
            for aspect in aspects:
                for entity_id in entities:
                    relevant = [page.page_id for page
                                in corpus.relevant_pages(entity_id, aspect)]
                    if not relevant:
                        continue
                    split_targets.append((aspect, entity_id, relevant))
                    for method in (IDEAL,) + FIG13_METHODS:
                        split_specs.append(runner.job_spec(
                            split, method, entity_id, aspect, budget))
            prepared.append(ready)
            targets.append(split_targets)
            specs.append(split_specs)
        state.append((domain, _Fig13Domain(runner, prepared, targets, specs)))
    return scale, state


def _mean_series(method: str, per_budget) -> MetricSeries:
    # The same left-to-right sums as the runner's own fold, so the result
    # is bit-identical to run_fig13's.
    return MetricSeries(
        method=method,
        precision={k: sum(m.precision for m in v) / len(v)
                   for k, v in per_budget.items()},
        recall={k: sum(m.recall for m in v) / len(v)
                for k, v in per_budget.items()},
        f_score={k: sum(m.f_score for m in v) / len(v)
                 for k, v in per_budget.items()})


def fig13_round(setup) -> Tuple[RoundOutput, ComparisonResult]:
    """Harvest every job, then fold ideal-normalised F-scores per budget."""
    scale, state = setup
    budgets = sorted(set(scale.num_queries_list))
    series_by_domain = {}
    sessions = 0
    for domain, parts in state:
        folded = {method: {k: [] for k in budgets} for method in FIG13_METHODS}
        for prepared, targets, specs in zip(parts.prepared, parts.targets,
                                            parts.specs):
            harvester = parts.runner.harvester_for(prepared)
            runs = iter([harvester.harvest_job(
                parts.runner.job_from_spec(prepared, spec)) for spec in specs])
            sessions += len(specs)
            for _aspect, _entity, relevant in targets:
                ideal = next(runs)
                ideal_at = {k: compute_metrics(ideal.gathered_after(k), relevant)
                            for k in budgets}
                for method in FIG13_METHODS:
                    run = next(runs)
                    for k in budgets:
                        folded[method][k].append(compute_metrics(
                            run.gathered_after(k), relevant
                        ).normalized_by(ideal_at[k]))
        series_by_domain[domain] = {method: _mean_series(method, folded[method])
                                    for method in FIG13_METHODS}
    result = ComparisonResult(series_by_domain=series_by_domain,
                              num_queries_list=tuple(scale.num_queries_list))
    output = RoundOutput(digest=digest(result.to_json_dict()),
                         fscore=result.mean_over_domains("L2QBAL", "f_score"),
                         attempted=sessions)
    return output, result


# ---------------------------------------------------------------------------
# serve-deep
# ---------------------------------------------------------------------------

def serve_setup(seed: int, workdir: Path):
    """Prepared splits with domain models learned; every test entity × aspect.

    The seed is the corpus seed, the runner's base seed (so every job's
    seed) and the simulated service's seed.
    """
    scale = replace(DEFAULT_SCALE, corpus_seed=seed)
    state = []
    for domain in DOMAINS:
        corpus = scale.corpus_for(domain)
        runner = ExperimentRunner(corpus, base_seed=seed)
        split = runner.default_split(0)
        prepared = runner.prepare(split)
        aspects = scale.aspects_for(corpus)
        for aspect in aspects:
            prepared.domain_model(aspect)
        specs, relevant = [], []
        for aspect in aspects:
            for entity_id in split.test_entities:
                specs.append(runner.job_spec(split, SERVE_METHOD, entity_id,
                                             aspect, SERVE_BUDGET))
                relevant.append([page.page_id for page
                                 in corpus.relevant_pages(entity_id, aspect)])
        state.append((domain, runner, prepared, specs, relevant))
    return ClientSpec(kind="simulated", seed=seed), state


def serve_round(setup, concurrency: int = SERVE_CONCURRENCY,
                time_scale: float = SERVE_TIME_SCALE) -> Tuple[RoundOutput, dict]:
    """Serve every domain's sessions through the async serving runner."""
    client, state = setup
    document, scores = {}, []
    sessions = exhausted = requests = 0
    for domain, runner, prepared, specs, relevant in state:
        jobs = [runner.job_from_spec(prepared, spec) for spec in specs]
        report = ServingRunner(runner.harvester_for(prepared), client=client,
                               concurrency=concurrency,
                               time_scale=time_scale).run(jobs)
        metrics = report.metrics()
        document[domain] = {
            "metrics": metrics,
            "sessions": [session_digest(result) for result in report.results],
        }
        for result, pages in zip(report.results, relevant):
            if pages:
                scores.append(compute_metrics(result.gathered_after(SERVE_BUDGET),
                                              pages).f_score)
        sessions += len(jobs)
        exhausted += metrics["exhausted_requests"]
        requests += metrics["requests"]
    output = RoundOutput(digest=digest(document),
                         fscore=sum(scores) / len(scores), attempted=sessions,
                         notes={"fetch_requests": requests,
                                "fetch_exhausted": exhausted})
    return output, document


# ---------------------------------------------------------------------------
# campaign-cells
# ---------------------------------------------------------------------------

def campaign_setup(seed: int, workdir: Path,
                   domains: Sequence[str] = DOMAINS,
                   scenarios: Optional[Sequence[str]] = None):
    """The campaign spec, its compiled plan and a directory not yet made.

    The seed is the campaign's one corpus seed; ``scenarios`` defaults to
    every built-in scenario.  Holds no program work beyond building the
    spec and compiling its plan: binding (and making) the directory,
    publishing stores and starting the pool are what ``campaign run``
    does, so they stay in the round.
    """
    spec = spec_from_preset("perfbench", SMOKE_SCALE.name, list(domains),
                            scenario_names() if scenarios is None
                            else list(scenarios), CAMPAIGN_METHODS, [seed],
                            num_queries=CAMPAIGN_QUERIES, corpus_store="auto")
    cells = len(compile_cells(spec))
    return spec, cells, workdir / f"campaign-{uuid.uuid4().hex}"


def campaign_round(setup) -> RoundOutput:
    """``CampaignRunner(...).run()`` on a fresh process backend, shut down."""
    spec, cells, root = setup
    backend = ProcessBackend(CAMPAIGN_WORKERS, start_method="fork")
    try:
        report = CampaignRunner(root, spec=spec, backend=backend).run()
    finally:
        backend.close()
    if report.matrices_path is None:
        return RoundOutput(digest="incomplete", fscore=0.0, attempted=cells,
                           incomplete=report.remaining or cells)
    data = report.matrices_path.read_bytes()
    matrices = json.loads(data)
    clean = [domain["clean"]["metrics"]["L2QBAL"]["f_score"]
             for seed in matrices["seeds"].values()
             for domain in seed["domains"].values()]
    return RoundOutput(digest=hashlib.sha256(data).hexdigest(),
                       fscore=sum(clean) / len(clean), attempted=cells,
                       incomplete=cells - report.executed)


def campaign_cleanup(setup) -> None:
    shutil.rmtree(setup[2], ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    setup: object
    round: object
    cleanup: object = None
    #: Serving time scale the probe needs to derive loop sleeps (0 = none).
    time_scale: float = 0.0
    #: Worker processes the round runs on (for the busy ratio).
    workers: int = 1
    #: Set-up samples timed per round (only the last set-up is used).
    setup_samples: int = 1
    #: Set-ups per sample; a sample is their mean time.
    setup_repeats: int = 1


WORKLOADS: Dict[str, Workload] = {
    "fig13": Workload("fig13", fig13_setup,
                      lambda setup: fig13_round(setup)[0]),
    "serve-deep": Workload("serve-deep", serve_setup,
                           lambda setup: serve_round(setup)[0],
                           time_scale=SERVE_TIME_SCALE,
                           setup_samples=SERVE_SETUP_SAMPLES),
    "campaign-cells": Workload("campaign-cells", campaign_setup,
                               campaign_round, campaign_cleanup,
                               workers=CAMPAIGN_WORKERS,
                               setup_samples=CAMPAIGN_SETUP_SAMPLES,
                               setup_repeats=CAMPAIGN_SETUP_REPEATS),
}

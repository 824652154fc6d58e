"""HR / AQ on the containment kernel vs their scalar references.

The baseline selectors take their (candidate, page) containment pairs from
the sparse-matmul kernel :func:`~repro.core.queries.containment_arrays` and
rank without sorting; the references in :mod:`tests.oracles.baselines` test
containment pair by pair and sort.  Both must choose the same query at every
iteration: these tests cross-check them in situ during seeded harvests and
on the edge cases where counting most easily drifts from the scalar loops.
"""

import random

import pytest

from repro.aspects.relevance import RelevanceFunction
from repro.baselines.adaptive_querying import AdaptiveQueryingSelection
from repro.baselines.harvest_rate import HarvestRateSelection, HarvestRateStatistics
from repro.core.config import L2QConfig
from repro.core.queries import containment_arrays, query_contained_in_page
from repro.core.session import HarvestSession
from repro.utils.rng import SeededRandom

from tests.helpers import make_page
from tests.oracles import baselines as oracle


class _CrossCheckingHR(HarvestRateSelection):
    """HR that asserts every choice equals the scalar reference's."""

    comparisons = 0

    def select(self, session):
        chosen = super().select(session)
        reference = oracle.harvest_rate_select(self.domain_statistics, session)
        assert chosen == reference, f"kernel chose {chosen!r}, scalar {reference!r}"
        self.comparisons += 1
        return chosen


class _CrossCheckingAQ(AdaptiveQueryingSelection):
    """AQ that asserts every choice (and past coverage) equals the reference's."""

    comparisons = 0

    def select(self, session):
        assert self._pages_covered_by_past(session) == \
            oracle.pages_covered_by_past(session)
        chosen = super().select(session)
        reference = oracle.adaptive_querying_select(session)
        assert chosen == reference, f"kernel chose {chosen!r}, scalar {reference!r}"
        self.comparisons += 1
        return chosen


class _NothingRelevant(RelevanceFunction):
    def __init__(self) -> None:
        super().__init__("AWARD")

    def __call__(self, page) -> int:
        return 0


def _session(corpus, prepared, entity_id, aspect, relevance=None):
    engine = prepared.engine
    session = HarvestSession(
        corpus=corpus, engine=engine, entity=corpus.get_entity(entity_id),
        aspect=aspect,
        relevance=relevance or prepared.relevance_by_aspect[aspect],
        config=L2QConfig(), rng=SeededRandom(7))
    session.add_pages(engine.fetch_pages(engine.seed_results(entity_id)))
    return session


def _harvest(runner, prepared, selector, entity_id, aspect, num_queries=4):
    job = runner.build_job(prepared, selector.name, entity_id, aspect,
                           num_queries)
    return runner.harvester_for(prepared).harvest(
        job.entity_id, job.aspect, selector, job.relevance,
        num_queries=job.num_queries, domain_model=job.domain_model,
        seed=job.seed)


HARVESTS = [(entity, aspect) for entity in range(3)
            for aspect in ("RESEARCH", "AWARD", "EDUCATION")]


class TestInSituEquivalence:
    @pytest.mark.parametrize("entity,aspect", HARVESTS)
    def test_hr_matches_scalar_reference_during_harvest(
            self, researcher_runner, researcher_prepared, entity, aspect):
        entity_id = researcher_prepared.split.test_entities[entity]
        selector = _CrossCheckingHR(researcher_prepared.hr_statistics(aspect))
        result = _harvest(researcher_runner, researcher_prepared, selector,
                          entity_id, aspect)
        assert selector.comparisons >= 1
        assert result.iterations

    @pytest.mark.parametrize("entity,aspect", HARVESTS)
    def test_aq_matches_scalar_reference_during_harvest(
            self, researcher_runner, researcher_prepared, entity, aspect):
        entity_id = researcher_prepared.split.test_entities[entity]
        selector = _CrossCheckingAQ()
        result = _harvest(researcher_runner, researcher_prepared, selector,
                          entity_id, aspect)
        assert selector.comparisons >= 2
        assert result.iterations


class TestEdgeCases:
    def test_aq_without_relevant_pages_scores_every_current_page(
            self, researcher_corpus, researcher_prepared):
        entity_id = researcher_prepared.split.test_entities[0]
        session = _session(researcher_corpus, researcher_prepared, entity_id,
                           "AWARD", relevance=_NothingRelevant())
        assert session.current_pages and not session.relevant_current_pages()
        selector = _CrossCheckingAQ()
        for _ in range(3):
            query = selector.select(session)
            assert query is not None
            session.record_query(query)

    def test_empty_query_is_contained_in_every_page(
            self, researcher_corpus, researcher_prepared):
        entity_id = researcher_prepared.split.test_entities[0]
        session = _session(researcher_corpus, researcher_prepared, entity_id,
                           "RESEARCH")
        # A fired empty query covers every current page ...
        session.record_query(())
        assert AdaptiveQueryingSelection._pages_covered_by_past(session) == \
            {page.page_id for page in session.current_pages}
        _CrossCheckingAQ().select(session)
        # ... and an empty domain query is a candidate every page contains.
        statistics = HarvestRateStatistics(
            query_harvest_rate={(): 0.25, ("zzz-unseen",): 0.9})
        hr = _CrossCheckingHR(statistics)
        session.fired_queries.discard(())
        assert hr.select(session) is not None

    def test_one_hr_instance_serves_entities_with_different_exclusions(
            self, researcher_corpus, researcher_prepared):
        first_id, second_id = researcher_prepared.split.test_entities[:2]
        first = researcher_corpus.get_entity(first_id)
        second = researcher_corpus.get_entity(second_id)
        assert first.excluded_words() != second.excluded_words()
        base = researcher_prepared.hr_statistics("RESEARCH")
        # Domain queries naming each entity: each session must drop only its
        # own entity's names.
        rates = dict(base.query_harvest_rate)
        rates[(first.name_tokens[0], "research")] = 1.0
        rates[(second.name_tokens[0], "research")] = 1.0
        statistics = HarvestRateStatistics(
            query_harvest_rate=rates,
            template_harvest_rate=dict(base.template_harvest_rate),
            query_templates=dict(base.query_templates))
        selector = _CrossCheckingHR(statistics)
        for entity_id in (first_id, second_id, first_id):
            session = _session(researcher_corpus, researcher_prepared,
                               entity_id, "RESEARCH")
            selector.select(session)
        first_queries = statistics.domain_queries(first.excluded_words())
        second_queries = statistics.domain_queries(second.excluded_words())
        assert (second.name_tokens[0], "research") in first_queries
        assert (first.name_tokens[0], "research") not in first_queries
        assert (first.name_tokens[0], "research") in second_queries
        assert selector.comparisons == 3

    def test_domain_caches_match_the_uncached_statistics(
            self, researcher_prepared):
        statistics = researcher_prepared.hr_statistics("AWARD")
        scores = statistics.domain_scores()
        assert scores is statistics.domain_scores()
        for query in statistics.query_harvest_rate:
            assert scores[query] == statistics.domain_score(query)
        excluded = frozenset({"research"})
        assert statistics.domain_queries(excluded) == tuple(
            query for query in statistics.query_harvest_rate
            if not any(word in excluded for word in query))
        assert statistics.domain_queries(set(excluded)) is \
            statistics.domain_queries(excluded)


class TestContainmentKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_pairs_match_scalar_containment(self, seed):
        rng = random.Random(seed)
        vocabulary = [f"w{i}" for i in range(12)]
        pages = [make_page(f"p{i}", "e", [([rng.choice(vocabulary)
                                            for _ in range(rng.randint(0, 8))],
                                           "RESEARCH")])
                 for i in range(rng.randint(1, 6))]
        # Repeated words, unseen words and the empty query included.
        queries = [tuple(rng.choice(vocabulary + ["unseen"])
                         for _ in range(rng.randint(0, 3)))
                   for _ in range(rng.randint(1, 15))]
        pair_pages, pair_queries = containment_arrays(pages, queries)
        pairs = sorted(zip(pair_pages.tolist(), pair_queries.tolist()))
        assert pairs == [(p, q) for p, page in enumerate(pages)
                         for q, query in enumerate(queries)
                         if query_contained_in_page(query, page)]

    def test_no_pages_or_queries(self):
        page = make_page("p0", "e", [(["alpha"], "RESEARCH")])
        for pages, queries in (([], [("alpha",)]), ([page], [])):
            pair_pages, pair_queries = containment_arrays(pages, queries)
            assert pair_pages.size == 0 and pair_queries.size == 0

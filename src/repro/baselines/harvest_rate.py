"""The HR baseline: harvest-rate heuristic query selection.

Adapted from Wu, Wen, Liu & Ma, *Query selection techniques for efficient
crawling of structured web sources* (ICDE 2006).  The original method crawls
structured databases by preferring queries with a high *harvest rate* (the
fraction of retrieved records that are new/useful), estimated from current
results and from domain data.  Following the paper's adaptation
(Sect. VI-C): the query/record model becomes a bag of words, relevance is
incorporated (harvest rate = fraction of containing pages that are
relevant), and the statistics of each query are averaged over its templates
because HR is the only baseline that exploits domain data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Tuple

import numpy as np

from repro.aspects.relevance import RelevanceFunction
from repro.core.config import L2QConfig
from repro.core.queries import Query, QueryEnumerator, containment_arrays, prune_queries
from repro.core.selection import QuerySelector, best_unfired
from repro.core.session import HarvestSession
from repro.core.templates import Template, TemplateIndex
from repro.corpus.corpus import Corpus


@dataclass
class HarvestRateStatistics:
    """Domain-side harvest-rate statistics, computed once per (domain, aspect).

    The statistics are frozen once built: :meth:`domain_scores` and
    :meth:`domain_queries` memoise what selection derives from them.
    """

    query_harvest_rate: Dict[Query, float] = field(default_factory=dict)
    template_harvest_rate: Dict[Template, float] = field(default_factory=dict)
    query_templates: Dict[Query, tuple] = field(default_factory=dict)
    _scores: Optional[Dict[Query, Optional[float]]] = field(
        default=None, init=False, repr=False, compare=False)
    _queries_without: Dict[AbstractSet[str], Tuple[Query, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_corpus(cls, domain_corpus: Corpus, relevance: RelevanceFunction,
                    config: Optional[L2QConfig] = None) -> "HarvestRateStatistics":
        """Estimate harvest rates of domain queries and their templates."""
        config = config if config is not None else L2QConfig()
        pages = list(domain_corpus.iter_pages())
        statistics = cls()
        if not pages:
            return statistics

        enumerator = QueryEnumerator(
            max_length=config.max_query_length,
            min_word_length=config.min_query_word_length,
        )
        query_stats = enumerator.enumerate_from_pages(pages)
        queries = prune_queries(query_stats,
                                min_page_frequency=config.domain_min_query_pages,
                                max_queries=config.max_domain_queries)

        relevant_ids = {p.page_id for p in pages if relevance(p) == 1}
        for query in queries:
            containing = query_stats.pages.get(query, set())
            if not containing:
                continue
            relevant = len(containing & relevant_ids)
            statistics.query_harvest_rate[query] = relevant / len(containing)

        template_index = TemplateIndex(domain_corpus.type_system)
        template_index.add_queries(statistics.query_harvest_rate)
        template_totals: Dict[Template, List[float]] = {}
        for query, rate in statistics.query_harvest_rate.items():
            templates = template_index.templates_of(query)
            statistics.query_templates[query] = templates
            for template in templates:
                template_totals.setdefault(template, []).append(rate)
        statistics.template_harvest_rate = {
            template: sum(values) / len(values)
            for template, values in template_totals.items()
        }
        return statistics

    def domain_score(self, query: Query) -> Optional[float]:
        """Template-averaged domain harvest rate of a query (None if unseen)."""
        templates = self.query_templates.get(query, ())
        template_rates = [self.template_harvest_rate[t] for t in templates
                          if t in self.template_harvest_rate]
        direct = self.query_harvest_rate.get(query)
        if template_rates and direct is not None:
            return 0.5 * (direct + sum(template_rates) / len(template_rates))
        if template_rates:
            return sum(template_rates) / len(template_rates)
        return direct

    def domain_scores(self) -> Dict[Query, Optional[float]]:
        """:meth:`domain_score` of every query the statistics know, computed once.

        Every other query scores ``None`` and is absent.
        """
        if self._scores is None:
            known = self.query_harvest_rate.keys() | self.query_templates.keys()
            self._scores = {query: self.domain_score(query) for query in known}
        return self._scores

    def domain_queries(self, excluded_words: AbstractSet[str]) -> Tuple[Query, ...]:
        """Domain queries sharing no word with ``excluded_words``, cached per set."""
        key = frozenset(excluded_words)
        queries = self._queries_without.get(key)
        if queries is None:
            queries = tuple(query for query in self.query_harvest_rate
                            if key.isdisjoint(query))
            self._queries_without[key] = queries
        return queries


class HarvestRateSelection(QuerySelector):
    """Harvest-rate query selection combining domain and current statistics."""

    name = "HR"

    def __init__(self, domain_statistics: Optional[HarvestRateStatistics] = None) -> None:
        self.domain_statistics = domain_statistics or HarvestRateStatistics()

    def select(self, session: HarvestSession) -> Optional[Query]:
        if not session.current_pages:
            return None
        statistics = self.domain_statistics
        # HR also exploits domain data: add domain queries it has statistics for.
        candidates = list(set(session.candidates.queries()).union(
            statistics.domain_queries(session.entity.excluded_words())))
        if not candidates:
            return None

        pages = session.current_pages
        relevant_ids = {p.page_id for p in session.relevant_current_pages()}
        relevant = np.array([p.page_id in relevant_ids for p in pages], dtype=bool)
        page_positions, query_positions = containment_arrays(pages, candidates)
        containing = np.bincount(query_positions, minlength=len(candidates))
        relevant_containing = np.bincount(query_positions[relevant[page_positions]],
                                          minlength=len(candidates))
        # Each score is the mean of the rates it has, as in the scalar
        # form ``sum(components) / len(components)``: ``(current + domain)
        # / 2`` with both, the one rate alone, 0.0 with neither.  ``None``
        # (no domain statistics) becomes NaN.
        has_current = containing > 0
        current = np.divide(relevant_containing, containing,
                            out=np.zeros(len(candidates)), where=has_current)
        domain = np.array(list(map(statistics.domain_scores().get, candidates)),
                          dtype=np.float64)
        has_domain = ~np.isnan(domain)
        scores = np.where(has_current,
                          np.where(has_domain, (current + domain) / 2, current),
                          np.where(has_domain, domain, 0.0))
        return best_unfired(candidates, scores, session)

"""Scalar references for the HR and AQ baseline selectors.

These are the selectors' original ``select`` bodies, which test
containment with :func:`~repro.core.queries.query_contained_in_page` for
every (candidate, page) pair.  The production selectors take the same
pairs from the sparse-matmul kernel
:func:`~repro.core.queries.containment_arrays` and must rank exactly as
these do.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.baselines.harvest_rate import HarvestRateStatistics
from repro.core.queries import Query, query_contained_in_page
from repro.core.selection import first_unfired
from repro.core.session import HarvestSession


def harvest_rate_select(statistics: HarvestRateStatistics,
                        session: HarvestSession) -> Optional[Query]:
    """HR's choice: best blend of current and domain harvest rates."""
    if not session.current_pages:
        return None
    candidates = set(session.candidates.queries())
    excluded_words = session.entity.excluded_words()
    for query in statistics.query_harvest_rate:
        if not any(word in excluded_words for word in query):
            candidates.add(query)
    if not candidates:
        return None

    relevant_ids = {p.page_id for p in session.relevant_current_pages()}
    scores: Dict[Query, float] = {}
    for query in candidates:
        containing = [p for p in session.current_pages
                      if query_contained_in_page(query, p)]
        current_rate: Optional[float] = None
        if containing:
            current_rate = sum(1 for p in containing
                               if p.page_id in relevant_ids) / len(containing)
        domain_rate = statistics.domain_score(query)
        components = [v for v in (current_rate, domain_rate) if v is not None]
        scores[query] = sum(components) / len(components) if components else 0.0

    ranked = sorted(candidates, key=lambda q: (-scores[q], q))
    return first_unfired(ranked, session)


def pages_covered_by_past(session: HarvestSession) -> Set[str]:
    """Ids of current pages that contain at least one past query."""
    covered: Set[str] = set()
    for query in session.past_queries:
        for page in session.current_pages:
            if query_contained_in_page(query, page):
                covered.add(page.page_id)
    return covered


def adaptive_querying_select(session: HarvestSession) -> Optional[Query]:
    """AQ's choice: relevant support discounted by past-query coverage."""
    if not session.current_pages:
        return None
    relevant_pages = session.relevant_current_pages()
    scoring_pages = relevant_pages if relevant_pages else session.current_pages

    candidates = session.candidates.sorted_queries()
    if not candidates:
        return None

    covered_by_past = pages_covered_by_past(session)
    scores: Dict[Query, float] = {}
    for query in candidates:
        containing = [p for p in session.current_pages
                      if query_contained_in_page(query, p)]
        support = sum(1 for p in scoring_pages if query_contained_in_page(query, p))
        if containing:
            already = sum(1 for p in containing if p.page_id in covered_by_past)
            novelty = 1.0 - already / len(containing)
        else:
            novelty = 1.0
        scores[query] = support * (0.5 + 0.5 * novelty)

    ranked = sorted(candidates, key=lambda q: (-scores[q], q))
    return first_unfired(ranked, session)

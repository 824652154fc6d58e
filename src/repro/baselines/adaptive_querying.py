"""The AQ baseline: adaptive query selection.

Adapted from Zerfos, Cho & Ntoulas, *Downloading textual hidden web content
through keyword queries* (JCDL 2005), which crawls a text database by
repeatedly choosing the keyword expected to return the most new documents,
using statistics estimated from the documents downloaded so far.  As the
paper notes, the original policy has no notion of relevance, so *"the query
statistics are only computed over relevant pages instead of all pages"*
(Sect. VI-C).

Implementation: for every candidate query enumerated from the current
result pages, estimate

* ``support`` — how many classifier-relevant current pages contain the
  query (the adaptive frequency statistic), and
* ``novelty`` — one minus the fraction of the query's containing pages that
  every past query already covers (a crude estimate of how many *new*
  documents the query would return, the heart of the adaptive policy).

The score is ``support * novelty``; the best unfired candidate wins.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.core.queries import Query, containment_arrays
from repro.core.selection import QuerySelector, best_unfired
from repro.core.session import HarvestSession


class AdaptiveQueryingSelection(QuerySelector):
    """Frequency-adaptive query selection restricted to relevant pages."""

    name = "AQ"

    def select(self, session: HarvestSession) -> Optional[Query]:
        pages = session.current_pages
        if not pages:
            return None
        relevant_pages = session.relevant_current_pages()

        candidates = session.candidates.sorted_queries()
        if not candidates:
            return None

        covered_by_past = self._pages_covered_by_past(session)
        covered = np.array([p.page_id in covered_by_past for p in pages], dtype=bool)
        page_positions, query_positions = containment_arrays(pages, candidates)
        containing = np.bincount(query_positions, minlength=len(candidates))
        already = np.bincount(query_positions[covered[page_positions]],
                              minlength=len(candidates))
        if relevant_pages:
            relevant_ids = {p.page_id for p in relevant_pages}
            relevant = np.array([p.page_id in relevant_ids for p in pages], dtype=bool)
            support = np.bincount(query_positions[relevant[page_positions]],
                                  minlength=len(candidates))
        else:
            # No relevant page yet: every current page scores.
            support = containing
        novelty = np.ones(len(candidates))
        found = containing > 0
        novelty[found] = 1.0 - already[found] / containing[found]
        scores = support * (0.5 + 0.5 * novelty)
        return best_unfired(candidates, scores, session)

    @staticmethod
    def _pages_covered_by_past(session: HarvestSession) -> Set[str]:
        pages = session.current_pages
        page_positions, _ = containment_arrays(pages, session.past_queries)
        return {pages[position].page_id for position in page_positions.tolist()}

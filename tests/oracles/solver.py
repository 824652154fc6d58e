"""Per-mode multi-RHS power iteration: the reference for the fused solve.

This is the loop :class:`~repro.graph.random_walk.UtilitySolver` ran before
every problem became one column of a single block-diagonal system.  Each
mode keeps its own state: pages and templates stacked in one
``(pages + templates, k)`` array, queries in a ``(queries, k)`` array, and
its own three operators:

* ``query_from_pages`` and ``query_from_templates``, whose rows carry the
  weight 0.5 for queries connected on both sides (the paper's two-sided
  average, Sect. IV-A, folded into the operator; 0.5 is a power of two, so
  the fold is exact), and
* ``pages_from_queries`` / ``templates_from_queries`` for the other layers.

A column whose own delta drops below the tolerance is frozen (copied
forward unchanged) while the other columns continue.  Matmuls go through
the public ``csr @ dense`` operator, which runs the same compiled
``csr_matvecs`` kernel, accumulating every row in its stored order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.graph.random_walk import (
    MODE_PRECISION,
    MODE_RECALL,
    RegularizationProblem,
    UtilitySolver,
    UtilityVector,
    normalize_columns,
    normalize_rows,
)


def _scale_rows(matrix: sparse.csr_matrix, weights: np.ndarray) -> sparse.csr_matrix:
    """Row-scale a CSR matrix, keeping every row's stored order."""
    scaled = matrix.copy()
    scaled.data *= np.repeat(weights, np.diff(scaled.indptr))
    return scaled


def mode_operators(solver: UtilitySolver, mode: str):
    """``(query_from_pages, query_from_templates, pages_from_queries,
    templates_from_queries)`` for one mode of ``solver``'s graph."""
    graph = solver.graph
    pq = graph.page_query
    qt = graph.query_template
    pq_row, qt_row = normalize_rows(pq), normalize_rows(qt)
    pq_col, qt_col = normalize_columns(pq), normalize_columns(qt)
    has_pages = np.asarray(pq.sum(axis=0)).ravel() > 0
    has_templates = np.asarray(qt.sum(axis=1)).ravel() > 0
    weight = np.where(has_pages & has_templates, 0.5, 1.0)
    if mode == MODE_PRECISION:
        return (_scale_rows(pq_col.T.tocsr(), weight),
                _scale_rows(qt_row, weight),
                pq_row, qt_col.T.tocsr())
    return (_scale_rows(pq_row.T.tocsr(), weight),
            _scale_rows(qt_col, weight),
            pq_col, qt_row.T.tocsr())


def _hat(index, problems: Sequence[RegularizationProblem], layer: str) -> np.ndarray:
    """``U_hat`` of one vertex layer, one column per problem."""
    columns = np.zeros((len(index), len(problems)))
    for column, problem in enumerate(problems):
        for key, value in (getattr(problem, layer) or {}).items():
            position = index.index_of(key)
            if position is not None:
                columns[position, column] = float(value)
    return columns


def solve_mode(solver: UtilitySolver, mode: str,
               problems: Sequence[RegularizationProblem]) -> List[UtilityVector]:
    """Solve every problem of one mode with the per-mode iteration."""
    if not problems:
        return []
    graph = solver.graph
    num_pages = graph.num_pages
    k = len(problems)
    (query_from_pages, query_from_templates,
     pages_from_queries, templates_from_queries) = mode_operators(solver, mode)
    pt_hat = np.concatenate([_hat(graph.pages, problems, "page_regularization"),
                             _hat(graph.templates, problems,
                                  "template_regularization")], axis=0)
    query_hat = _hat(graph.queries, problems, "query_regularization")
    alpha_pt_hat = solver.alpha * pt_hat
    alpha_query_hat = solver.alpha * query_hat
    one_minus_alpha = 1.0 - solver.alpha

    pt, queries = pt_hat.copy(), query_hat.copy()
    frozen: List[int] = []
    active = list(range(k))
    iterations = [0] * k
    converged = [False] * k
    last_iteration = 0
    for iteration in range(1, solver.max_iterations + 1):
        if not active:
            break
        last_iteration = iteration
        new_queries = (query_from_pages @ pt[:num_pages]
                       + query_from_templates @ pt[num_pages:])
        new_pt = np.concatenate([pages_from_queries @ queries,
                                 templates_from_queries @ queries], axis=0)
        new_pt = new_pt * one_minus_alpha + alpha_pt_hat
        new_queries = new_queries * one_minus_alpha + alpha_query_hat
        if frozen:
            new_pt[:, frozen] = pt[:, frozen]
            new_queries[:, frozen] = queries[:, frozen]
        residual = np.abs(np.concatenate([new_pt - pt, new_queries - queries],
                                         axis=0))
        deltas = (residual.max(axis=0) if residual.shape[0]
                  else np.zeros(k))
        pt, queries = new_pt, new_queries
        still_active = []
        for column in active:
            if deltas[column] < solver.tolerance:
                iterations[column] = iteration
                converged[column] = True
                frozen.append(column)
            else:
                still_active.append(column)
        active = still_active
    for column in active:
        iterations[column] = last_iteration
    return [UtilityVector(
        mode=mode,
        page_values=pt[:num_pages, j].copy(),
        query_values=queries[:, j].copy(),
        template_values=pt[num_pages:, j].copy(),
        graph=graph,
        iterations=iterations[j],
        converged=converged[j],
    ) for j in range(k)]


def solve_joint(solver: UtilitySolver,
                precision_problems: Sequence[RegularizationProblem],
                recall_problems: Sequence[RegularizationProblem]
                ) -> Tuple[List[UtilityVector], List[UtilityVector]]:
    """The oracle counterpart of :meth:`UtilitySolver.solve_joint`."""
    return (solve_mode(solver, MODE_PRECISION, precision_problems),
            solve_mode(solver, MODE_RECALL, recall_problems))

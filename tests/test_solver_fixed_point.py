"""Solved utilities are the Eq. 13/19/20 fixed point, checked independently.

The update rules are taken from :mod:`repro.graph.random_walk`'s module
docstring and evaluated here with dense numpy, sharing no code with the
solver's sparse operators:

* precision: ``P(q) = mean(C_PQ^T P_P, R_QT P_T)``, ``P(p) = R_PQ P_Q``,
  ``P(t) = C_QT^T P_Q``;
* recall: ``R(q) = mean(R_PQ^T R_P, C_QT R_T)``, ``R(p) = C_PQ R_Q``,
  ``R(t) = R_QT^T R_Q``;

where a query linked to one side only takes that side, and every update is
blended as ``G(U) = (1 - alpha) F(U) + alpha U_hat``.

**The bound.**  The solver stops at the first iterate ``U_n = G(U_{n-1})``
with ``||U_n - U_{n-1}||_inf < tol``.  ``F`` is linear, so
``U_n - G(U_n) = G(U_{n-1}) - G(U_n) = (1 - alpha) F(U_{n-1} - U_n)`` and

    ||U_n - G(U_n)||_inf  <=  (1 - alpha) * ||F||_inf * tol,

where ``||F||_inf`` is the operator's max absolute row sum (at most 1 for
precision, whose rows are averages; recall rows split mass and may sum to
more).  ``ROUNDING`` adds room for the float rounding of both evaluations.
Only converged columns are checked: the iteration cap (100 by default)
stays as it is.
"""

import random

import numpy as np
import pytest

from repro.core.queries import QueryEnumerator, prune_queries
from repro.core.utility import GraphAssembler
from repro.graph.random_walk import (
    MODE_PRECISION,
    RegularizationProblem,
    UtilitySolver,
)

from tests.helpers import random_problem, random_sided_graph

#: Absolute slack for float rounding; utilities here are at most ~1.
ROUNDING = 1e-12


def _rows(matrix: np.ndarray) -> np.ndarray:
    """Row-stochastic (zero rows stay zero)."""
    sums = matrix.sum(axis=1, keepdims=True)
    return np.divide(matrix, sums, out=np.zeros_like(matrix), where=sums > 0)


def _columns(matrix: np.ndarray) -> np.ndarray:
    """Column-stochastic (zero columns stay zero)."""
    return _rows(matrix.T).T


def dense_update(graph, mode: str) -> np.ndarray:
    """``F`` as one dense matrix over the state ``[pages; templates; queries]``."""
    pq = graph.page_query.toarray()
    qt = graph.query_template.toarray()
    num_pages, num_queries = pq.shape
    num_templates = qt.shape[1]
    has_pages = pq.sum(axis=0) > 0
    has_templates = qt.sum(axis=1) > 0
    # The two-sided mean: 1/2 per side when both exist, else the one side.
    both = has_pages & has_templates
    page_side = np.where(both, 0.5, has_pages.astype(float))[:, None]
    template_side = np.where(both, 0.5, has_templates.astype(float))[:, None]
    if mode == MODE_PRECISION:
        page_from_queries = _rows(pq)
        template_from_queries = _columns(qt).T
        query_from_pages = _columns(pq).T
        query_from_templates = _rows(qt)
    else:
        page_from_queries = _columns(pq)
        template_from_queries = _rows(qt).T
        query_from_pages = _rows(pq).T
        query_from_templates = _columns(qt)
    size = num_pages + num_templates + num_queries
    update = np.zeros((size, size))
    pages = slice(0, num_pages)
    templates = slice(num_pages, num_pages + num_templates)
    queries = slice(num_pages + num_templates, size)
    update[pages, queries] = page_from_queries
    update[templates, queries] = template_from_queries
    update[queries, pages] = page_side * query_from_pages
    update[queries, templates] = template_side * query_from_templates
    return update


def _stacked(vector) -> np.ndarray:
    return np.concatenate([vector.page_values, vector.template_values,
                           vector.query_values])


def _hat(graph, problem: RegularizationProblem) -> np.ndarray:
    layers = []
    for index, values in ((graph.pages, problem.page_regularization),
                          (graph.templates, problem.template_regularization),
                          (graph.queries, problem.query_regularization)):
        layer = np.zeros(len(index))
        for key, value in (values or {}).items():
            position = index.index_of(key)
            if position is not None:
                layer[position] = value
        layers.append(layer)
    return np.concatenate(layers)


def assert_fixed_points(solver: UtilitySolver, precision_problems,
                        recall_problems) -> int:
    """Check every converged column; returns how many were checked."""
    checked = 0
    alpha = solver.alpha
    solved = solver.solve_joint(precision_problems, recall_problems)
    for problems, vectors in zip((precision_problems, recall_problems), solved):
        for problem, vector in zip(problems, vectors):
            if not vector.converged:
                continue
            update = dense_update(solver.graph, vector.mode)
            norm = np.abs(update).sum(axis=1).max() if update.size else 0.0
            if vector.mode == MODE_PRECISION:
                assert norm <= 1.0 + 1e-12
            utilities = _stacked(vector)
            blended = (1 - alpha) * update @ utilities \
                + alpha * _hat(solver.graph, problem)
            residual = np.abs(utilities - blended).max() if utilities.size else 0.0
            bound = (1 - alpha) * norm * solver.tolerance + ROUNDING
            assert residual <= bound, (vector.mode, residual, bound)
            checked += 1
    return checked


@pytest.mark.parametrize("seed", range(30))
def test_converged_columns_are_fixed_points_on_random_graphs(seed):
    rng = random.Random(500 + seed)
    graph = random_sided_graph(rng, with_templates=seed % 3 != 0)
    solver = UtilitySolver(graph, alpha=rng.choice([0.15, 0.3]),
                           tolerance=rng.choice([1e-6, 1e-9]))
    precision = [random_problem(rng, graph) for _ in range(rng.randint(1, 2))]
    recall = [random_problem(rng, graph) for _ in range(rng.randint(1, 4))]
    assert_fixed_points(solver, precision, recall)


def test_converged_columns_are_fixed_points_on_an_entity_graph(researcher_corpus):
    # A realistic graph: one entity's pages, their frequent n-grams and the
    # template layer, with the entity phase's solver settings.
    entity_id = researcher_corpus.entity_ids()[0]
    pages = researcher_corpus.pages_of(entity_id)
    statistics = QueryEnumerator().enumerate_from_pages(pages)
    queries = prune_queries(statistics, max_queries=150)
    assembled = GraphAssembler(researcher_corpus.type_system).assemble(
        pages, queries)
    graph = assembled.graph
    assert graph.num_templates > 0
    rng = random.Random(3)
    problems = [random_problem(rng, graph) for _ in range(5)]
    checked = assert_fixed_points(UtilitySolver(graph, tolerance=1e-6),
                                  problems[:1], problems[1:])
    assert checked >= 1


def test_most_random_columns_converge_so_the_check_is_not_vacuous():
    checked = 0
    for seed in range(30):
        rng = random.Random(500 + seed)
        graph = random_sided_graph(rng, with_templates=seed % 3 != 0)
        solver = UtilitySolver(graph)
        checked += assert_fixed_points(
            solver, [random_problem(rng, graph)],
            [random_problem(rng, graph) for _ in range(2)])
    assert checked >= 45

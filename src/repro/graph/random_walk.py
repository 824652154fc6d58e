"""Utility inference by iterative propagation on the reinforcement graph.

The paper shows (Sect. III, *Solution*) that the regularized mutual
reinforcement equations (Eq. 13/19/20) are equivalent to random walks with
restart: probabilistic precision ``P`` is the stationary distribution of the
*backward* walk and probabilistic recall ``R`` of the *forward* walk, with
restart probability ``alpha`` and preference vector equal to the utility
regularization.  Rather than materialising the walk matrices we iterate the
reinforcement rules directly, which is the same fixed point:

Precision (Eqs. 6, 8, 15, 17) — each vertex *averages* its neighbours:

* ``P(q) = mean( C_PQ^T P_P , RQ_T P_T )``   (page side and template side)
* ``P(p) = R_PQ P_Q``
* ``P(t) = C_QT^T P_Q``

Recall (Eqs. 7, 9, 16, 18) — each vertex's mass is *split* among retrievers:

* ``R(q) = mean( R_PQ^T R_P , C_QT R_T )``
* ``R(p) = C_PQ R_Q``
* ``R(t) = R_QT^T R_Q``

where ``R_X`` / ``C_X`` denote row- / column-stochastic normalisations of the
biadjacency matrices, and each update is blended with the regularization
vector: ``U <- (1 - alpha) F(U) + alpha U_hat`` (Eq. 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.graph.reinforcement import ReinforcementGraph

try:  # pragma: no cover - exercised implicitly by every solve
    # The compiled kernel ``csr @ vector`` dispatches to, called directly:
    # the Python-level dispatch costs more than the arithmetic on the small
    # matrices of the power iteration.
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # pragma: no cover - scipy without the private kernel
    def _csr_matvec(rows, cols, indptr, indices, data, x, out):
        out += _raw_csr(data, indices, indptr, (rows, cols)) @ x

MODE_PRECISION = "precision"
MODE_RECALL = "recall"
_MODES = (MODE_PRECISION, MODE_RECALL)


@dataclass(frozen=True)
class RegularizationProblem:
    """One utility-regularization ``U_hat`` triple for a multi-RHS solve.

    The entity phase solves several regularization problems on the *same*
    graph (recall w.r.t. ``Y``, ``Y~``, ``Y*``, ``Y~*``); stacking them as
    the columns of one right-hand-side matrix lets the power iteration
    share every sparse matmul across problems.
    """

    page_regularization: Optional[Mapping[Hashable, float]] = None
    query_regularization: Optional[Mapping[Hashable, float]] = None
    template_regularization: Optional[Mapping[Hashable, float]] = None


def _raw_csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
             shape: Tuple[int, int]) -> sparse.csr_matrix:
    """A CSR matrix from pre-validated arrays, skipping constructor checks.

    The validating constructor re-derives the index dtype and walks the
    structure on every call; for matrices assembled from arrays that are
    *by construction* consistent (copies or concatenations of existing CSR
    internals) that work is pure overhead on the selection hot path.
    """
    matrix = sparse.csr_matrix.__new__(sparse.csr_matrix)
    matrix.data = data
    matrix.indices = indices
    matrix.indptr = indptr
    matrix._shape = shape
    return matrix


def _scale_rows_exact(matrix: sparse.csr_matrix, weights: np.ndarray,
                      copy: bool = True) -> sparse.csr_matrix:
    """Row-scale a CSR by per-row ``weights``, preserving stored order.

    Callers only pass powers of two (0.5 / 1.0), so every scaled entry is
    exact and a dot product against the scaled rows equals the scaled dot
    product against the original rows bit for bit.  ``copy=False`` scales a
    matrix the caller owns (e.g. a freshly materialised transpose) in
    place; with ``copy=True`` only the data array is duplicated — the
    structure arrays are shared with the (never mutated) input.
    """
    scaled = matrix.tocsr()
    data = scaled.data if not copy else scaled.data.copy()
    if data.size:
        data *= np.repeat(np.asarray(weights, dtype=np.float64),
                          np.diff(scaled.indptr))
    if not copy:
        return scaled
    return _raw_csr(data, scaled.indices, scaled.indptr, scaled.shape)


def _stack_rows(blocks: Sequence[sparse.csr_matrix],
                column_offsets: Sequence[int], width: int) -> sparse.csr_matrix:
    """Stack CSR row blocks, shifting each block's column indices.

    Unlike ``sparse.vstack`` (which may re-sort indices within rows) every
    row keeps its stored order, so a matvec accumulates each element in
    exactly the order a matmul against the original block would.
    """
    indptr = [np.zeros(1, dtype=np.int64)]
    nnz = 0
    for block in blocks:
        indptr.append(block.indptr[1:] + nnz)
        nnz += int(block.indptr[-1])
    indices = np.concatenate(
        [block.indices + offset for block, offset in zip(blocks, column_offsets)],
        dtype=np.int64)
    data = np.concatenate([block.data for block in blocks], dtype=np.float64)
    rows = sum(block.shape[0] for block in blocks)
    return _raw_csr(data, indices, np.concatenate(indptr, dtype=np.int64),
                    (rows, width))


def _raw_diagonal(scale: np.ndarray, container) -> sparse.spmatrix:
    """A diagonal matrix in CSR/CSC form from pre-validated arrays.

    ``sparse.diags(scale)`` builds a DIA matrix that the matmul dispatch
    converts to exactly this compressed form before the kernel runs;
    constructing it directly skips both the DIA detour and the validating
    constructor, changing no bits of the product.
    """
    n = scale.shape[0]
    diagonal = container.__new__(container)
    diagonal.data = scale
    diagonal.indices = np.arange(n, dtype=np.int32)
    diagonal.indptr = np.arange(n + 1, dtype=np.int32)
    diagonal._shape = (n, n)
    return diagonal


def normalize_rows(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Return a row-stochastic copy of ``matrix`` (zero rows stay zero)."""
    matrix = matrix.tocsr()
    if matrix.dtype != np.float64:
        matrix = matrix.astype(np.float64)
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    scale = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    diagonal = _raw_diagonal(scale, sparse.csr_matrix)
    return (diagonal @ matrix).tocsr()


def normalize_columns(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Return a column-stochastic copy of ``matrix`` (zero columns stay zero)."""
    matrix = matrix.tocsc()
    if matrix.dtype != np.float64:
        matrix = matrix.astype(np.float64)
    col_sums = np.asarray(matrix.sum(axis=0)).ravel()
    scale = np.divide(1.0, col_sums, out=np.zeros_like(col_sums), where=col_sums > 0)
    diagonal = _raw_diagonal(scale, sparse.csc_matrix)
    return (matrix @ diagonal).tocsr()


@dataclass
class UtilityVector:
    """Solved utilities for every vertex of a reinforcement graph."""

    mode: str
    page_values: np.ndarray
    query_values: np.ndarray
    template_values: np.ndarray
    graph: ReinforcementGraph
    iterations: int
    converged: bool

    def page(self, page_key: Hashable) -> float:
        """Utility of a page vertex (0.0 if the page is not in the graph)."""
        index = self.graph.pages.index_of(page_key)
        return float(self.page_values[index]) if index is not None else 0.0

    def query(self, query_key: Hashable) -> float:
        """Utility of a query vertex (0.0 if the query is not in the graph)."""
        index = self.graph.queries.index_of(query_key)
        return float(self.query_values[index]) if index is not None else 0.0

    def template(self, template_key: Hashable) -> float:
        """Utility of a template vertex (0.0 if absent)."""
        index = self.graph.templates.index_of(template_key)
        return float(self.template_values[index]) if index is not None else 0.0

    def query_utilities(self) -> Dict[Hashable, float]:
        """All query utilities as a dictionary."""
        return {self.graph.queries.key_of(i): float(v)
                for i, v in enumerate(self.query_values)}

    def template_utilities(self) -> Dict[Hashable, float]:
        """All template utilities as a dictionary."""
        return {self.graph.templates.key_of(i): float(v)
                for i, v in enumerate(self.template_values)}

    def page_utilities(self) -> Dict[Hashable, float]:
        """All page utilities as a dictionary."""
        return {self.graph.pages.key_of(i): float(v)
                for i, v in enumerate(self.page_values)}


class UtilitySolver:
    """Solves Eq. 13 / 19 / 20 on a reinforcement graph by power iteration."""

    def __init__(self, graph: ReinforcementGraph, alpha: float = 0.15,
                 max_iterations: int = 100, tolerance: float = 1e-6) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        self.graph = graph
        self.alpha = float(alpha)
        self.max_iterations = max_iterations
        self.tolerance = tolerance

        pq = graph.page_query
        qt = graph.query_template
        # Row-stochastic over a page's query neighbours / a query's template neighbours.
        pq_row = normalize_rows(pq)
        qt_row = normalize_rows(qt)
        # Column-stochastic over a query's page neighbours / a template's query neighbours.
        pq_col = normalize_columns(pq)
        qt_col = normalize_columns(qt)
        # A query connected on both sides averages them — equivalently, both
        # incoming operators carry weight 0.5 on that query's row.  0.5 is a
        # power of two, so the folded matmul is bit-identical to averaging
        # afterwards; one-sided queries keep weight 1.0, and their missing
        # side contributes an exact +0.0.  Transposes are materialised as
        # CSR: a transposed-CSR matvec is bit-identical to the CSC-view
        # matvec it replaces.
        has_pages = np.asarray(pq.sum(axis=0)).ravel() > 0
        has_templates = np.asarray(qt.sum(axis=1)).ravel() > 0
        weight = np.where(has_pages & has_templates, 0.5, 1.0)
        # Each mode's three update operators, with the page and template
        # rows (both multiply the query vector) stacked into one.
        self._operators = {
            MODE_PRECISION: (
                _stack_rows([pq_row, qt_col.T.tocsr()], [0, 0], pq.shape[1]),
                _scale_rows_exact(pq_col.T.tocsr(), weight, copy=False),
                _scale_rows_exact(qt_row, weight),
            ),
            MODE_RECALL: (
                _stack_rows([pq_col, qt_row.T.tocsr()], [0, 0], pq.shape[1]),
                _scale_rows_exact(pq_row.T.tocsr(), weight, copy=False),
                _scale_rows_exact(qt_col, weight),
            ),
        }

    # -- Public API ----------------------------------------------------------
    def solve(self, mode: str,
              page_regularization: Optional[Mapping[Hashable, float]] = None,
              query_regularization: Optional[Mapping[Hashable, float]] = None,
              template_regularization: Optional[Mapping[Hashable, float]] = None) -> UtilityVector:
        """Solve for the utilities of every vertex.

        Parameters
        ----------
        mode:
            ``"precision"`` or ``"recall"``.
        page_regularization / query_regularization / template_regularization:
            The utility regularization ``U_hat`` per vertex key.  Missing
            vertices default to 0 (no regularization), as in the paper.
        """
        problem = RegularizationProblem(
            page_regularization=page_regularization,
            query_regularization=query_regularization,
            template_regularization=template_regularization)
        return self.solve_many(mode, [problem])[0]

    def solve_many(self, mode: str,
                   problems: Sequence[RegularizationProblem]) -> List[UtilityVector]:
        """Solve several regularization problems of one mode on this graph.

        Shorthand for :meth:`solve_joint` with the other mode empty; each
        returned :class:`UtilityVector` is bit-identical to a separate
        :meth:`solve` of that problem.
        """
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if mode == MODE_PRECISION:
            return self.solve_joint(problems, [])[0]
        return self.solve_joint([], problems)[1]

    def solve_joint(self, precision_problems: Sequence[RegularizationProblem],
                    recall_problems: Sequence[RegularizationProblem]
                    ) -> Tuple[List[UtilityVector], List[UtilityVector]]:
        """Solve precision and recall problems in one fused power iteration.

        Every problem is one column ``j`` of a block-diagonal system whose
        state is ``[pt_0 .. pt_{k-1}; q_0 .. q_{k-1}]``: ``pt_j`` holds
        column ``j``'s pages then templates, ``q_j`` its queries.  One
        operator holds every column's mode operators, each reading and
        writing only its own column's segments, so a single sparse matvec
        per iteration advances every problem of both modes.  Its rows are
        the new ``pt`` segments (from the queries), the new ``q`` segments
        from the pages, and then the queries' template-side sums, which are
        added to the page-side sums afterwards — exactly as two per-side
        matmuls would be.  Every row keeps its stored order, so every
        element accumulates exactly as a separate per-mode matmul would.

        A column whose own delta (the max over its two segments — max is
        exact in any order) drops below the tolerance is frozen: a mask
        copies its converged values forward while the others continue.  So
        each returned :class:`UtilityVector` — values, ``iterations`` and
        ``converged`` — is bit-identical to a separate :meth:`solve` of
        that problem.
        """
        problems = list(precision_problems) + list(recall_problems)
        modes = ([MODE_PRECISION] * len(precision_problems)
                 + [MODE_RECALL] * len(recall_problems))
        k = len(problems)
        if not k:
            return [], []
        graph = self.graph
        num_pages = graph.num_pages
        pt_width = num_pages + graph.num_templates
        num_queries = graph.num_queries
        queries_start = k * pt_width
        size = queries_start + k * num_queries

        pt_offsets = [j * pt_width for j in range(k)]
        query_offsets = [queries_start + j * num_queries for j in range(k)]
        operators = [self._operators[mode] for mode in modes]
        operator = _stack_rows(
            [pt_from_queries for pt_from_queries, _, _ in operators]
            + [from_pages for _, from_pages, _ in operators]
            + [from_templates for _, _, from_templates in operators],
            query_offsets + pt_offsets
            + [offset + num_pages for offset in pt_offsets], size)
        rows = operator.shape[0]
        indptr, indices, data = operator.indptr, operator.indices, operator.data

        hat = np.zeros(size)
        for pt_offset, query_offset, problem in zip(pt_offsets, query_offsets,
                                                    problems):
            _fill(hat[pt_offset:pt_offset + num_pages], graph.pages,
                  problem.page_regularization)
            _fill(hat[pt_offset + num_pages:pt_offset + pt_width],
                  graph.templates, problem.template_regularization)
            _fill(hat[query_offset:query_offset + num_queries], graph.queries,
                  problem.query_regularization)
        # ``alpha * U_hat`` is the same product every iteration.
        alpha_hat = self.alpha * hat
        one_minus_alpha = 1.0 - self.alpha

        def bundle(buffer: np.ndarray):
            # (buffer, new state, its query segments, their template sides)
            return (buffer, buffer[:size], buffer[queries_start:size],
                    buffer[size:])

        state = bundle(np.empty(rows))
        spare = bundle(np.empty(rows))
        state[1][:] = hat
        scratch = np.empty(size)
        pt_deltas = scratch[:queries_start].reshape(k, pt_width)
        query_deltas = scratch[queries_start:].reshape(k, num_queries)
        frozen = np.zeros(size, dtype=bool)
        frozen_pt = frozen[:queries_start].reshape(k, pt_width)
        frozen_queries = frozen[queries_start:].reshape(k, num_queries)
        any_frozen = False
        tolerance = self.tolerance
        active = list(range(k))
        iterations = [self.max_iterations] * k
        converged = [False] * k

        for iteration in range(1, self.max_iterations + 1):
            current = state[1]
            buffer, new, new_queries, template_sides = spare
            buffer.fill(0.0)
            _csr_matvec(rows, size, indptr, indices, data, current, buffer)
            np.add(new_queries, template_sides, out=new_queries)
            np.multiply(new, one_minus_alpha, out=new)
            np.add(new, alpha_hat, out=new)
            if any_frozen:
                # Frozen columns keep exactly the values they converged
                # at — a separate solve would have stopped there.
                np.copyto(new, current, where=frozen)
            np.subtract(new, current, out=scratch)
            np.abs(scratch, out=scratch)
            deltas = np.maximum(
                np.maximum.reduce(pt_deltas, axis=1, initial=0.0),
                np.maximum.reduce(query_deltas, axis=1, initial=0.0)).tolist()
            state, spare = spare, state

            still_active: List[int] = []
            for column in active:
                if deltas[column] < tolerance:
                    iterations[column] = iteration
                    converged[column] = True
                    frozen_pt[column] = True
                    frozen_queries[column] = True
                    any_frozen = True
                else:
                    still_active.append(column)
            active = still_active
            if not active:
                break

        pt = state[1][:queries_start].reshape(k, pt_width)
        queries = state[1][queries_start:].reshape(k, num_queries)
        vectors = [UtilityVector(
            mode=modes[j],
            page_values=pt[j, :num_pages].copy(),
            query_values=queries[j].copy(),
            template_values=pt[j, num_pages:].copy(),
            graph=graph,
            iterations=iterations[j],
            converged=converged[j],
        ) for j in range(k)]
        split = len(precision_problems)
        return vectors[:split], vectors[split:]

    def solve_precision(self, **kwargs) -> UtilityVector:
        """Shorthand for ``solve(MODE_PRECISION, ...)``."""
        return self.solve(MODE_PRECISION, **kwargs)

    def solve_recall(self, **kwargs) -> UtilityVector:
        """Shorthand for ``solve(MODE_RECALL, ...)``."""
        return self.solve(MODE_RECALL, **kwargs)

    def solve_recall_many(self, problems: Sequence[RegularizationProblem]
                          ) -> List[UtilityVector]:
        """Shorthand for ``solve_many(MODE_RECALL, ...)``."""
        return self.solve_many(MODE_RECALL, problems)


def _fill(values: np.ndarray, index,
          regularization: Optional[Mapping[Hashable, float]]) -> None:
    """Write one vertex layer's ``U_hat`` into ``values`` (zeros elsewhere)."""
    if regularization:
        for key, value in regularization.items():
            position = index.index_of(key)
            if position is not None:
                values[position] = float(value)

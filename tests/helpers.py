"""Shared test builders, importable explicitly as ``tests.helpers``.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...``, which breaks as soon as another ``conftest``
module (e.g. the benchmark harness's) shadows it on ``sys.path``.  Keeping
the builders in a normally-named module and importing them with an explicit
package path makes the resolution unambiguous (``pytest.ini`` puts the
repository root on ``sys.path``).
"""

from __future__ import annotations

import random

from repro.corpus.document import Page, Paragraph
from repro.graph.random_walk import RegularizationProblem
from repro.graph.reinforcement import ReinforcementGraphBuilder


def make_paragraph(paragraph_id, tokens, aspect=None):
    """Build a paragraph from a token list (helper used across tests)."""
    return Paragraph(paragraph_id=paragraph_id, tokens=tuple(tokens), aspect=aspect)


def make_page(page_id, entity_id, paragraph_specs):
    """Build a page from ``[(tokens, aspect), ...]`` specs."""
    paragraphs = tuple(
        make_paragraph(f"{page_id}#{i}", tokens, aspect)
        for i, (tokens, aspect) in enumerate(paragraph_specs)
    )
    return Page(page_id=page_id, entity_id=entity_id, paragraphs=paragraphs)


def harvest_signature(result):
    """Everything scheduling-independent about a harvest run.

    The single definition of "bit-for-bit equal" used by every backend- and
    worker-equivalence assertion (tests and benchmarks): fired queries,
    result/new/seed page ids and the run's identity — but no wall-clock
    timings, which legitimately vary with scheduling.
    """
    return (
        result.entity_id,
        result.aspect,
        result.selector_name,
        tuple(result.seed_page_ids),
        tuple((r.query, r.result_page_ids, r.new_page_ids)
              for r in result.iterations),
    )


def random_sided_graph(rng: random.Random, with_templates: bool):
    """A random graph whose queries each link to pages, templates, both or
    neither — the cases the two-sided query average distinguishes."""
    builder = ReinforcementGraphBuilder()
    num_pages = rng.randint(1, 6)
    num_templates = rng.randint(1, 4) if with_templates else 0
    for p in range(num_pages):
        builder.add_page(f"p{p}")
    for t in range(num_templates):
        builder.add_template(f"t{t}")
    sides = ["pages", "both", "templates", "none"] if with_templates \
        else ["pages", "none"]
    for q in range(rng.randint(1, 8)):
        query = f"q{q}"
        builder.add_query(query)
        side = rng.choice(sides)
        if side in ("pages", "both"):
            for p in rng.sample(range(num_pages), rng.randint(1, num_pages)):
                builder.connect_page_query(f"p{p}", query,
                                           rng.choice([0.5, 1.0, 3.0]))
        if side in ("templates", "both"):
            for t in rng.sample(range(num_templates),
                                rng.randint(1, num_templates)):
                builder.connect_query_template(query, f"t{t}")
    return builder.build()


def random_problem(rng: random.Random, graph) -> RegularizationProblem:
    """Random ``U_hat`` layers (each sometimes absent) for ``graph``."""
    def layer(index, probability):
        if rng.random() > probability:
            return None
        return {key: rng.random() for key in index.keys()
                if rng.random() < 0.7}

    return RegularizationProblem(
        page_regularization=layer(graph.pages, 0.9),
        query_regularization=layer(graph.queries, 0.3),
        template_regularization=layer(graph.templates, 0.5),
    )

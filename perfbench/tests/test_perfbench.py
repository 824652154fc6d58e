"""Self-tests of the benchmark at a reduced size.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import importlib
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import probe as probe_module
from perfbench import run, stats, workloads
from perfbench.probe import Probe
from repro.eval import SMOKE_SCALE, run_fig13

ROOT = Path(__file__).resolve().parents[2]
DOMAIN = ("researcher",)


def _attributes():
    """Every attribute a probe may patch, as (owner, name, value)."""
    found = []
    targets = [(m, c, a) for _, m, c, a, _ in probe_module.LAYER_WRAPS]
    targets += [probe_module.STEPPER + ("next_action",),
                probe_module.STEPPER + ("feed",),
                (probe_module.CELL[0], None, probe_module.CELL[1])]
    for module, cls, attribute in targets:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        found.append((owner, attribute, vars(owner).get(attribute)))
    return found


def _span(name, start, end, parent=None):
    return [name, start, end, parent, None, None]


# -- arithmetic -------------------------------------------------------------

def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert stats.tail_percentile(100) == 90.0
    values = [float(v) for v in range(1, 101)]
    value = stats.percentile(values, 90.0)
    assert value == pytest.approx(90.1)
    assert sum(1 for v in values if v > value) == 10
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(48) == 75.0


def test_tail_falls_back_to_median_when_samples_are_few():
    assert stats.tail_percentile(5) == 50.0


def _fake_cycle(latencies):
    sessions = [(seconds, "L2QBAL") for seconds in latencies]
    sessions += [(seconds / 2, "MQ") for seconds in latencies]
    output = workloads.RoundOutput(digest="d", fscore=0.5,
                                   attempted=len(sessions))
    return run.Cycle(setups=[1.0], round_s=1.0, output=output,
                     setup_records=(), round_records=(sessions, [], [], []))


def test_tail_percentile_does_not_depend_on_rounds_fitted():
    latencies = [0.1 + 0.01 * i for i in range(24)]
    picked = set()
    for rounds in (run.MIN_ROUNDS, 3, 4, 6):
        _, (p, beyond, pooled) = run.end_to_end(
            [_fake_cycle(latencies) for _ in range(rounds)], 1.0)
        assert pooled == 24 * rounds
        picked.add(p)
    assert picked == {stats.tail_percentile(run.MIN_ROUNDS * 24)}


def test_self_time_subtracts_direct_children_only():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, 0),
             _span("c", 5.0, 9.0, 0), _span("d", 6.0, 7.0, 2)]
    assert stats.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_nested_spans_of_one_name_count_once():
    spans = [_span("x", 0.0, 4.0), _span("x", 1.0, 2.0, 0),
             _span("y", 2.0, 3.0, 0), _span("x", 2.5, 2.7, 2)]
    assert stats.outermost(spans) == [True, False, True, False]
    totals = stats.LayerTotals()
    totals.add(spans, in_round=True)
    assert totals.seconds["x"] == 4.0 and totals.calls["x"] == 1


def test_setup_spans_count_only_for_setup_layers():
    totals = stats.LayerTotals()
    totals.add([_span("core.domain_phase.learn", 0.0, 2.0),
                _span("graph.random_walk.solve", 0.5, 1.5, 0)],
               in_round=False)
    assert totals.seconds["core.domain_phase.learn"] == 2.0
    assert totals.calls["graph.random_walk.solve"] == 0


def test_loop_wait_is_feed_start_minus_fetch_end_minus_sleep():
    steps = [(1.0, 0.5, 1.75), (2.0, 0.25, 2.25), (3.0, 0.0, 3.5)]
    sleep, wait = stats.loop_wait(steps)
    assert sleep == pytest.approx(0.75)
    assert wait == pytest.approx(0.25 + 0.0 + 0.5)


# -- output checks ------------------------------------------------------------

class _Cycle:
    def __init__(self, digest, attempted=4, incomplete=0):
        self.output = workloads.RoundOutput(digest=digest, fscore=0.5,
                                            attempted=attempted,
                                            incomplete=incomplete)


def test_check_counts_a_round_that_differs_from_the_reference():
    attempted, failed, messages = run.check(
        [_Cycle("good"), _Cycle("good")], reference="good")
    assert (attempted, failed, messages) == (8, 0, [])
    attempted, failed, messages = run.check(
        [_Cycle("good"), _Cycle("bad")], reference="good")
    assert (attempted, failed) == (8, 4) and len(messages) == 1
    _, failed, _ = run.check([_Cycle("bad"), _Cycle("bad")], reference="good")
    assert failed == 8
    _, failed, _ = run.check([_Cycle("a"), _Cycle("b")], reference=None)
    assert failed == 4
    _, failed, _ = run.check([_Cycle("a", incomplete=1)], reference="a")
    assert failed == 1


def _tiny_fig13(tmp_path, seed=3):
    setup = workloads.fig13_setup(seed, tmp_path, scale=SMOKE_SCALE,
                                  domains=DOMAIN)
    return workloads.fig13_round(setup)


def test_perturbed_program_output_is_caught(tmp_path, monkeypatch):
    scale = replace(SMOKE_SCALE, corpus_seed=3)
    reference = workloads.digest(run_fig13(scale, domains=DOMAIN).to_json_dict())
    output, _ = _tiny_fig13(tmp_path)
    assert output.digest == reference
    metrics = importlib.import_module("repro.eval.metrics")
    original = metrics.HarvestMetrics.normalized_by

    def skewed(self, ideal, *args, **kwargs):
        result = original(self, ideal, *args, **kwargs)
        return type(result)(precision=result.precision * 0.999,
                            recall=result.recall)
    monkeypatch.setattr(metrics.HarvestMetrics, "normalized_by", skewed)
    perturbed, _ = _tiny_fig13(tmp_path)
    assert perturbed.digest != reference


# -- the probe and one workload end to end -------------------------------------

def test_fig13_end_to_end_with_traced_probe(tmp_path):
    scale = replace(SMOKE_SCALE, corpus_seed=3)
    reference = workloads.digest(run_fig13(scale, domains=DOMAIN).to_json_dict())
    before = _attributes()
    workload = workloads.Workload(
        "fig13-tiny",
        lambda seed, workdir: workloads.fig13_setup(
            seed, workdir, scale=SMOKE_SCALE, domains=DOMAIN),
        lambda setup: workloads.fig13_round(setup)[0])
    started = run.perf_counter()
    untraced = run.run_cycles(workload, 3, tmp_path, Probe(tmp_path), 0.0,
                              started)
    traced = run.run_cycles(workload, 3, tmp_path, Probe(tmp_path, trace=True),
                            0.0, started, minimum=1)
    after = _attributes()
    assert [(o, a, v) for o, a, v in before] == after
    cycles = untraced + traced
    assert len(untraced) == run.MIN_ROUNDS
    attempted, failed, _ = run.check(cycles, reference)
    assert failed == 0 and attempted == sum(c.output.attempted for c in cycles)
    for cycle in cycles:
        assert len(cycle.round_records[0]) == cycle.output.attempted
    metrics, (p, beyond, pooled) = run.end_to_end(untraced, run.peak_rss_mb())
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    l2qbal = [s for c in untraced for s in c.round_records[0]
              if s[1] == "L2QBAL"]
    assert pooled == len(l2qbal) == sum(c.output.attempted for c in untraced) // 6
    layers, own, cache = run.layers(traced, untraced[0].round_s, 1)
    assert set(layers) == set(stats.LAYER_METRICS)
    for exercised in ("core.selection.select_s", "graph.random_walk.solve_s",
                      "baselines.HR.select_s", "core.domain_phase.learn_s",
                      "search.engine.cache_hit_ratio", "core.stepper.feed_s"):
        assert layers[exercised] is not None and layers[exercised] > 0
    for idle in ("serving.loop_wait_s", "exec.dispatch_s", "store.publish_s"):
        assert layers[idle] is None
    assert len(cache) == len(traced)
    assert own["graph.random_walk.solve"] > 0


def test_campaign_artifacts_identical_with_and_without_probe(tmp_path):
    def campaign(probe):
        setup = workloads.campaign_setup(5, tmp_path, domains=DOMAIN,
                                         scenarios=("near-duplicates",))
        try:
            if probe is None:
                return workloads.campaign_round(setup), []
            with probe:
                output = workloads.campaign_round(setup)
                probe.collect_workers()
                return output, probe.take()
        finally:
            workloads.campaign_cleanup(setup)

    before = _attributes()
    plain, _ = campaign(None)
    traced, records = campaign(Probe(tmp_path, trace=True))
    assert _attributes() == before
    assert plain.incomplete == 0 and traced.digest == plain.digest
    sessions, _, _, worker_records = records
    assert sessions and worker_records
    names = {span[0] for record in worker_records for span in record["spans"]}
    assert {"eval.cell", "core.selection.select"} <= names
    assert not list(tmp_path.glob("worker-*.jsonl"))


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig13",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_references_are_sha256_digests():
    references = run.json.loads(
        (ROOT / "perfbench" / "references.json").read_text())
    assert set(references) <= set(workloads.WORKLOADS)
    for by_seed in references.values():
        for seed, value in by_seed.items():
            int(seed)
            assert len(value) == len(hashlib.sha256().hexdigest())


def test_benchmark_manifest_matches_the_code():
    manifest = run.json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} \
        == stats.LAYER_METRICS
    assert [w["name"] for w in manifest["workloads"]] \
        == list(workloads.WORKLOADS)
    assert manifest["command"] == ["python3", "perfbench/run.py"]

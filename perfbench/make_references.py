"""Regenerate ``perfbench/references.json``: each workload's output per seed.

Usage (from the repository root)::

    python3 perfbench/make_references.py --seeds 0 1 2 ... [--workloads fig13]

Each reference comes from another path through the program than the one
the benchmark times, so a benchmark round that matches it also shows that
the two paths agree:

* ``fig13``: ``run_fig13(...).to_json_dict()``, the public entry point,
  against which the benchmark's own stepper-driven harvests and F-score
  fold are compared.
* ``serve-deep``: the serving runner with one session in flight and no
  sleeping; its per-session digests must also equal those of
  ``harvest_serially``, the serving layer's reference semantics.
* ``campaign-cells``: the campaign on the serial backend (no process
  pool, no corpus store); ``matrices.json`` must be byte-identical.

Only run this when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.campaign import CampaignRunner  # noqa: E402
from repro.eval import DEFAULT_SCALE, run_fig13  # noqa: E402
from repro.serving import harvest_serially  # noqa: E402

from perfbench import workloads  # noqa: E402

PATH = ROOT / "perfbench" / "references.json"


def fig13_reference(seed: int) -> str:
    scale = replace(DEFAULT_SCALE, corpus_seed=seed)
    return workloads.digest(run_fig13(scale).to_json_dict())


def serve_reference(seed: int) -> str:
    client, state = workloads.serve_setup(seed, ROOT)
    serial = [[workloads.session_digest(result) for result in harvest_serially(
        runner.harvester_for(prepared),
        [runner.job_from_spec(prepared, spec) for spec in specs],
        client=client)] for _domain, runner, prepared, specs, _ in state]
    output, document = workloads.serve_round(
        workloads.serve_setup(seed, ROOT), concurrency=1, time_scale=0.0)
    if [part["sessions"] for part in document.values()] != serial:
        raise SystemExit(f"serve-deep seed {seed}: served sessions differ "
                         f"from harvest_serially")
    return output.digest


def campaign_reference(seed: int) -> str:
    with tempfile.TemporaryDirectory() as workdir:
        spec, _cells, root = workloads.campaign_setup(
            seed, Path(workdir))
        report = CampaignRunner(root, spec=spec, backend="serial").run()
        return hashlib.sha256(report.matrices_path.read_bytes()).hexdigest()


MAKERS = {
    "fig13": fig13_reference,
    "serve-deep": serve_reference,
    "campaign-cells": campaign_reference,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(MAKERS),
                        choices=list(MAKERS))
    args = parser.parse_args(argv)
    references = json.loads(PATH.read_text()) if PATH.exists() else {}
    for name in args.workloads:
        for seed in args.seeds:
            references.setdefault(name, {})[str(seed)] = MAKERS[name](seed)
            PATH.write_text(json.dumps(references, indent=1, sort_keys=True)
                            + "\n")
            print(f"{name} seed {seed}: {references[name][str(seed)]}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Robustness grid — adversarial harness throughput + resume bit-identity.

Not a paper table: this bench tracks the adversarial robustness harness
(``repro.robustness``) end to end.  It runs one grid (programs × detector
variants × attack families × severities) twice through ``run_grid`` —

* **cold** — empty cache, every grid cell computed (one per program ×
  model: one trained HMM and its operating point, attacked by every
  family at every severity); measurements/s — ``cells_per_s``, counting
  programs × models × attacks × severities — is the registered
  throughput metric,
* **resumed** — same cache, every grid cell loaded; the measured-corpus
  ``cells`` and ``summary`` blocks must be **bit-identical** to the cold
  run's (the ``meta`` block records provenance and legitimately differs).

Shapes asserted (the paper's robustness story, measured not assumed):
mimicry lowers detection versus a naive splice on at least one variant,
and the context-sensitive regular model retains detection >= the
context-free one pooled across attacks.  Wall-clocks and the shape flags
land in ``BENCH_robustness.json`` for CI's regression gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import (  # noqa: E402
    bench_host_metadata,
    bench_output_path,
    print_block,
    shape_line,
)

from repro.api import build_corpus, robustness_grid, run_grid  # noqa: E402
from repro.runtime import ArtifactCache, ParallelExecutor, default_jobs  # noqa: E402

SMOKE_MODELS = ("regular-basic", "regular-context")
SMOKE_ATTACKS = ("mimicry", "gap")
SMOKE_SEVERITIES = (1, 3)
FULL_MODELS = ("cmarkov", "stilo", "regular-basic", "regular-context")
FULL_ATTACKS = ("mimicry", "drift", "gap")
FULL_SEVERITIES = (1, 2, 3)


def _measurement(corpus: dict) -> dict:
    """The deterministic blocks of a corpus (``meta`` is provenance)."""
    return {"cells": corpus["cells"], "summary": corpus["summary"]}


def run(smoke: bool, output: Path) -> int:
    spec = robustness_grid(
        ["gzip"],
        models=SMOKE_MODELS if smoke else FULL_MODELS,
        attacks=SMOKE_ATTACKS if smoke else FULL_ATTACKS,
        severities=SMOKE_SEVERITIES if smoke else FULL_SEVERITIES,
    )
    executor = ParallelExecutor(jobs=default_jobs())
    cache_dir = Path(tempfile.mkdtemp(prefix="bench-robustness-"))
    try:
        cache = ArtifactCache(cache_dir)
        started = time.perf_counter()
        cold_result = run_grid(spec, executor=executor, cache=cache, resume=False)
        cold_s = time.perf_counter() - started
        cold_corpus = build_corpus(cold_result)

        started = time.perf_counter()
        resumed_result = run_grid(spec, executor=executor, cache=cache)
        resumed_s = time.perf_counter() - started
        resumed_corpus = build_corpus(resumed_result)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # Measurements (programs × models × attacks × severities), not grid
    # cells: the gated cells_per_s floor is a measurement rate.
    n_cells = cold_corpus["grid"]["n_cells"]
    bit_identical = _measurement(cold_corpus) == _measurement(resumed_corpus)
    all_resumed = resumed_result.resumed == spec.n_cells
    claims = cold_corpus["summary"]["claims"]
    mimicry_lowers = bool(claims["mimicry_lowers_detection"])
    context_ge_basic = bool(claims["regular_context_ge_basic"])

    payload = {
        "bench": "robustness_grid",
        "unix_time": time.time(),
        "host": bench_host_metadata(),
        "smoke": smoke,
        "population": {
            "cells": n_cells,
            "axes": cold_corpus["grid"]["axes"],
        },
        "grid": {
            "cold_s": round(cold_s, 4),
            "cells_per_s": round(n_cells / cold_s, 3),
            "resumed_s": round(resumed_s, 4),
            "resumed_cells_per_s": round(n_cells / resumed_s, 1),
        },
        "resume": {
            "resumed_cells": resumed_result.resumed,
            "computed_cells": resumed_result.computed,
            "all_resumed": all_resumed,
            "bit_identical": bit_identical,
        },
        "shapes": {
            "mimicry_lowers_detection": mimicry_lowers,
            "regular_context_ge_basic": context_ge_basic,
        },
        # The pooled detection rates behind the shape flags, for the
        # perf-trajectory charts (opaque to the missing-key walk would be
        # wrong here: these are the numbers the harness exists to produce).
        "detection": {
            "regular_basic": claims["regular_basic_detection"],
            "regular_context": claims["regular_context_detection"],
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")

    body = "\n".join(
        [
            f"  grid: {n_cells} cells "
            f"({'smoke' if smoke else 'full'}; 1 program x "
            f"{len(SMOKE_MODELS if smoke else FULL_MODELS)} models x "
            f"{len(SMOKE_ATTACKS if smoke else FULL_ATTACKS)} attacks x "
            f"{len(SMOKE_SEVERITIES if smoke else FULL_SEVERITIES)} severities)",
            f"  cold     {cold_s:7.2f} s ({n_cells / cold_s:8.2f} cells/s)",
            f"  resumed  {resumed_s:7.2f} s "
            f"({resumed_result.resumed}/{spec.n_cells} grid cells loaded "
            f"from cache)",
            f"  pooled detection under attack: "
            f"basic {claims['regular_basic_detection']:.3f}, "
            f"context {claims['regular_context_detection']:.3f}",
            f"  -> {output}",
            shape_line(
                "resumed corpus cells+summary bit-identical to cold run",
                bit_identical and all_resumed,
            ),
            shape_line(
                "mimicry lowers detection vs naive splice (>= 1 variant)",
                mimicry_lowers,
            ),
            shape_line(
                "regular-context detection >= regular-basic under attack",
                context_ge_basic,
            ),
        ]
    )
    print_block("Robustness grid — adversarial harness", body)

    if not (bit_identical and all_resumed):
        print("resume bit-identity gate FAILED", file=sys.stderr)
        return 1
    if not mimicry_lowers:
        print("mimicry shape FAILED: no variant lost detection", file=sys.stderr)
        return 1
    if not context_ge_basic:
        print(
            "context shape FAILED: regular-context below regular-basic",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="2x2x2 grid instead of the full 4x3x3 one (same gates) for CI",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_robustness.json at the repo "
        "root; see common.bench_output_path)",
    )
    args = parser.parse_args(argv)
    override = os.environ.get("REPRO_BENCH_OUTPUT", "").strip()
    output = (
        Path(override)
        if override
        else (args.out or bench_output_path("BENCH_robustness.json"))
    )
    return run(args.smoke, output)


if __name__ == "__main__":
    raise SystemExit(main())

"""The measured corpus: a versioned artifact of robustness-grid results.

A *corpus* is the JSON-safe export of one grid run — every cell's
measurements with bootstrap confidence intervals, pooled per-family ×
per-model summaries, and the two headline shape checks the acceptance
bar names:

* ``mimicry_lowers_detection`` — some detector variant detects crafted
  mimicry streams at a lower rate than naive payload splices (the attack
  *works*, so the harness is measuring something real);
* ``regular_context_ge_basic`` — pooled across attacks, the
  context-sensitive Regular model detects at least as well as the
  context-insensitive one (the paper's claim, now measured under
  adversaries the paper never ran).

The ``cells`` and ``summary`` blocks are pure functions of the grid spec
and therefore bit-identical between an uninterrupted run and a
kill-and-resume run — CI diffs exactly those blocks.  Everything volatile
(timings, resume counts) lives in ``meta``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from ..errors import EvaluationError
from ..eval.reporting import _md_table
from ..eval.stats import bootstrap_ci
from ..runtime.grid import GridResult

__all__ = [
    "CORPUS_FORMAT",
    "CORPUS_VERSION",
    "build_corpus",
    "load_corpus",
    "render_report",
    "write_corpus",
]

CORPUS_FORMAT = "repro.robustness.corpus"
CORPUS_VERSION = 1

#: Bootstrap resamples per interval; modest because flags pool small.
_N_RESAMPLES = 1000


def _rate_ci(flags: Iterable[bool], seed: int) -> dict[str, float]:
    values = np.array([1.0 if f else 0.0 for f in flags])
    if values.size == 0:
        return {"estimate": 0.0, "low": 0.0, "high": 0.0}
    ci = bootstrap_ci(values, n_resamples=_N_RESAMPLES, seed=seed)
    return {
        "estimate": round(float(ci.estimate), 10),
        "low": round(float(ci.low), 10),
        "high": round(float(ci.high), 10),
    }


def build_corpus(result: GridResult) -> dict:
    """Export one robustness grid run as the versioned corpus artifact.

    Deterministic given the spec: every bootstrap interval is seeded from
    its measurement's (program, model, attack, severity) point, so a
    resumed run exports exactly the same ``cells``/``summary`` bytes as an
    uninterrupted one.
    """
    spec = result.spec
    # Each grid cell is a (program, model) column of measurements.
    measurements = []
    for point, column in result:
        if column is None:
            raise EvaluationError(f"grid cell at {point} is missing")
        measurements.extend(
            ({**point, "attack": cell.attack, "severity": cell.severity}, cell)
            for cell in column
        )
    cells: list[dict[str, Any]] = []
    for point, cell in measurements:
        seed = spec.cell_seed(point)
        cells.append(
            {
                **point,
                "threshold": round(float(cell.threshold), 10),
                "n_train_segments": cell.n_train_segments,
                "detection": _rate_ci(cell.result.instance_detected, seed),
                "baseline_detection": _rate_ci(
                    cell.result.baseline_detected, seed + 1
                ),
                "false_alarms": _rate_ci(cell.result.benign_flagged, seed + 2),
                "n_instances": len(cell.result.instance_detected),
                "details": cell.result.details,
            }
        )

    # Pooled per (attack, model): instance flags concatenated across
    # programs and severities.
    pooled: dict[tuple[str, str], dict[str, list[bool]]] = {}
    for point, cell in measurements:
        bucket = pooled.setdefault(
            (point["attack"], point["model"]),
            {"attacked": [], "baseline": []},
        )
        bucket["attacked"].extend(cell.result.instance_detected)
        bucket["baseline"].extend(cell.result.baseline_detected)

    summary_rows = []
    for (attack, model), flags in sorted(pooled.items()):
        pool_seed = spec.cell_seed({"attack": attack, "model": model})
        summary_rows.append(
            {
                "attack": attack,
                "model": model,
                "detection": _rate_ci(flags["attacked"], pool_seed),
                "baseline_detection": _rate_ci(flags["baseline"], pool_seed + 1),
                "n_instances": len(flags["attacked"]),
            }
        )

    def _pooled_rate(attack: str | None, model: str) -> float | None:
        flags: list[bool] = []
        for (a, m), bucket in pooled.items():
            if m == model and (attack is None or a == attack):
                flags.extend(bucket["attacked"])
        return float(np.mean(flags)) if flags else None

    mimicry_lowers = any(
        row["attack"] == "mimicry"
        and row["detection"]["estimate"] < row["baseline_detection"]["estimate"]
        for row in summary_rows
    )
    basic = _pooled_rate(None, "regular-basic")
    context = _pooled_rate(None, "regular-context")
    context_claim = (
        None if basic is None or context is None else bool(context >= basic)
    )

    return {
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "grid": {
            "name": spec.name,
            "seed": spec.seed,
            "spec_version": spec.version,
            "axes": {
                **{axis.name: list(axis.values) for axis in spec.axes},
                "attack": list(spec.config.attacks),
                "severity": list(spec.config.severities),
            },
            "n_cells": len(measurements),
        },
        "cells": cells,
        "summary": {
            "pooled": summary_rows,
            "claims": {
                "mimicry_lowers_detection": mimicry_lowers,
                "regular_context_ge_basic": context_claim,
                "regular_basic_detection": basic,
                "regular_context_detection": context,
            },
        },
        "meta": {
            "resumed_cells": result.resumed,
            "computed_cells": result.computed,
            "elapsed_s": result.elapsed_s,
        },
    }


def write_corpus(corpus: dict, path: str | Path) -> Path:
    """Write the corpus artifact as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_corpus(path: str | Path) -> dict:
    """Load and version-check a corpus artifact."""
    corpus = json.loads(Path(path).read_text(encoding="utf-8"))
    if corpus.get("format") != CORPUS_FORMAT:
        raise EvaluationError(f"{path} is not a {CORPUS_FORMAT} artifact")
    if corpus.get("version") != CORPUS_VERSION:
        raise EvaluationError(
            f"{path} is corpus version {corpus.get('version')}, "
            f"this build reads version {CORPUS_VERSION}"
        )
    return corpus


def _fmt_ci(ci: dict[str, float]) -> str:
    return f"{ci['estimate']:.2f} [{ci['low']:.2f}, {ci['high']:.2f}]"


def render_report(corpus: dict) -> str:
    """Markdown report for one corpus: summary, claims, per-cell table."""
    claims = corpus["summary"]["claims"]
    lines = [
        "# Adversarial robustness report",
        "",
        f"Grid `{corpus['grid']['name']}` — {corpus['grid']['n_cells']} cells, "
        f"seed {corpus['grid']['seed']}.",
        "",
        "## Pooled detection by attack × model",
        "",
        _md_table(
            ["Attack", "Model", "Detection (95% CI)", "Naive baseline", "n"],
            [
                [
                    row["attack"],
                    row["model"],
                    _fmt_ci(row["detection"]),
                    _fmt_ci(row["baseline_detection"]),
                    row["n_instances"],
                ]
                for row in corpus["summary"]["pooled"]
            ],
        ),
        "",
        "## Headline checks",
        "",
        f"- mimicry lowers detection on some variant: "
        f"**{claims['mimicry_lowers_detection']}**",
        f"- Regular-context ≥ Regular-basic (paper's context claim): "
        f"**{claims['regular_context_ge_basic']}** "
        f"(context {claims['regular_context_detection']}, "
        f"basic {claims['regular_basic_detection']})",
        "",
        "## Cells",
        "",
        _md_table(
            [
                "Program",
                "Model",
                "Attack",
                "Sev",
                "Detection (95% CI)",
                "Baseline",
                "False alarms",
            ],
            [
                [
                    cell["program"],
                    cell["model"],
                    cell["attack"],
                    cell["severity"],
                    _fmt_ci(cell["detection"]),
                    _fmt_ci(cell["baseline_detection"]),
                    _fmt_ci(cell["false_alarms"]),
                ]
                for cell in corpus["cells"]
            ],
        ),
        "",
    ]
    return "\n".join(lines)

"""Adversarial robustness harness: attack the detectors the paper only
defended.

The paper (DSN 2016) evaluates its context-sensitive HMM detectors on
benign traffic and its own exploit payloads.  This package turns that
one-sided evaluation into a standing benchmark: first-class **attack
families** (mimicry search against the trained model, workload drift with
a retraining cadence, trace-gap corruption through the live service) run
over a resumable **measurement grid** of programs × detector variants ×
attacks × severities, exporting a versioned **measured corpus** with
bootstrap confidence intervals per cell.

Typical use, via the facade::

    from repro import api
    from repro.robustness import render_report

    spec = api.robustness_grid(["gzip"])
    result = api.run_grid(spec, cache=cache)    # resumes after a crash
    corpus = api.build_corpus(result)
    print(render_report(corpus))

or on the CLI: ``python -m repro robustness --programs gzip --resume``.

A grid cell is one (program, model) column: one trained detector that
every attack × severity runs against.  Cells are pure functions of
(config, point): a run killed mid-grid resumes its finished columns from
the artifact cache bit-identically, and the corpus' ``cells``/``summary``
blocks are byte-stable across resumes (CI enforces this with a
kill-and-resume check).
"""

from .attacks import (
    ATTACK_FAMILIES,
    AttackContext,
    AttackRunResult,
    DriftFamily,
    GapFamily,
    MimicryFamily,
    MimicryProfile,
    attack_family,
    craft_mimicry_stream,
)
from .corpus import (
    CORPUS_FORMAT,
    CORPUS_VERSION,
    build_corpus,
    load_corpus,
    render_report,
    write_corpus,
)
from .grid import (
    DEFAULT_SEVERITIES,
    RobustnessCell,
    RobustnessConfig,
    robustness_grid,
)

__all__ = [
    "ATTACK_FAMILIES",
    "AttackContext",
    "AttackRunResult",
    "CORPUS_FORMAT",
    "CORPUS_VERSION",
    "DEFAULT_SEVERITIES",
    "DriftFamily",
    "GapFamily",
    "MimicryFamily",
    "MimicryProfile",
    "RobustnessCell",
    "RobustnessConfig",
    "attack_family",
    "build_corpus",
    "craft_mimicry_stream",
    "load_corpus",
    "render_report",
    "robustness_grid",
    "write_corpus",
]

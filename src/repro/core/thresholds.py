"""Threshold selection for deployment-style classification.

Experiments sweep thresholds (see :mod:`repro.core.metrics`); a deployed
detector needs a single ``T``.  The paper's operating points correspond to
fixing a false-positive budget on held-out normal traffic; this module
derives such thresholds.
"""

from __future__ import annotations

import numpy as np

from ..errors import EvaluationError


def threshold_for_fp_budget(normal_scores: np.ndarray, fp_budget: float) -> float:
    """Largest threshold flagging at most ``fp_budget`` of normal segments.

    Args:
        normal_scores: per-symbol log-likelihood scores of held-out normal
            segments.
        fp_budget: tolerated false-positive rate in [0, 1].

    Returns:
        A threshold ``T`` such that ``score < T`` flags at most the budgeted
        share of the provided normal scores.
    """
    scores = np.sort(np.asarray(normal_scores))
    if scores.size == 0:
        raise EvaluationError("no normal scores supplied")
    if not 0 <= fp_budget <= 1:
        raise EvaluationError(f"fp budget {fp_budget} outside [0, 1]")
    allowed = int(np.floor(fp_budget * scores.size))
    if allowed == 0:
        return float(scores[0])
    return float(scores[allowed])

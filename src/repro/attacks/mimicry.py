"""Mimicry attack crafting (Section II-A's attack-model discussion).

A mimicry attack arranges its malicious calls in an order the detector
considers plausible.  The paper does not claim to defeat general mimicry,
but argues that quantitative scoring plus context sensitivity makes crafting
one hard: the attacker must find *high-likelihood* paths to the calls it
needs, with *correct contexts* for every step.

This module gives the attacker's side its best shot, for evaluation: it
splices a required call (e.g. ``execve``) into a genuine normal segment at
the position that maximizes the trained model's likelihood.  Comparing the
best mimicry score against the detector threshold quantifies how much
headroom an attacker has on a given program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.detector import Detector
from ..errors import TraceError
from ..tracing.segments import Segment


@dataclass(frozen=True)
class MimicryAttempt:
    """One crafted segment and its score under the target detector."""

    segment: Segment
    score: float
    insert_position: int
    host_segment: Segment


def craft_mimicry(
    detector: Detector,
    normal_segments: list[Segment],
    required_symbol: str,
    max_hosts: int = 200,
    seed: int = 0,
) -> MimicryAttempt:
    """Craft the highest-scoring segment containing ``required_symbol``.

    Args:
        detector: a *fitted* detector (the attacker is assumed to know the
            model — the strongest assumption in the paper's threat model).
        normal_segments: candidate host segments to splice into.
        required_symbol: the observation the attack must make, in the
            detector's own label form (``execve`` or ``execve@caller``).
        max_hosts: number of host segments tried (sampled deterministically).
        seed: host-sampling seed.

    Returns:
        The best :class:`MimicryAttempt` found.
    """
    if not normal_segments:
        raise TraceError("no host segments supplied")
    rng = np.random.default_rng(seed)
    if len(normal_segments) > max_hosts:
        picks = rng.choice(len(normal_segments), size=max_hosts, replace=False)
        hosts = [normal_segments[int(i)] for i in picks]
    else:
        hosts = list(normal_segments)

    candidates: list[tuple[Segment, int, Segment]] = []
    for host in hosts:
        for position in range(len(host)):
            mutated = tuple(
                required_symbol if index == position else symbol
                for index, symbol in enumerate(host)
            )
            candidates.append((mutated, position, host))

    scores = detector.score([c[0] for c in candidates])
    best = int(np.argmax(scores))
    segment, position, host = candidates[best]
    return MimicryAttempt(
        segment=segment,
        score=float(scores[best]),
        insert_position=position,
        host_segment=host,
    )

"""Attack simulation: Abnormal-S, ROP chains, exploit payloads, mimicry."""

from .exploits import (
    EXPLOITS,
    ExploitSpec,
    abnormal_context_fraction,
    build_attack_events,
    payloads_for,
)
from .mimicry import MimicryAttempt, craft_mimicry
from .rop import (
    DEFAULT_CONTEXT_FIDELITY,
    MISSING_CONTEXT,
    Q1_NAMES,
    Q2_NAMES,
    code_reuse_from_normal,
    gzip_q1_q2,
    rop_chain_events,
)
from .synthetic import (
    DEFAULT_REPLACED_CALLS,
    abnormal_s_segments,
    legitimate_call_set,
)

__all__ = [
    "DEFAULT_CONTEXT_FIDELITY",
    "DEFAULT_REPLACED_CALLS",
    "EXPLOITS",
    "MISSING_CONTEXT",
    "Q1_NAMES",
    "Q2_NAMES",
    "ExploitSpec",
    "MimicryAttempt",
    "abnormal_context_fraction",
    "abnormal_s_segments",
    "build_attack_events",
    "code_reuse_from_normal",
    "craft_mimicry",
    "gzip_q1_q2",
    "legitimate_call_set",
    "payloads_for",
    "rop_chain_events",
]

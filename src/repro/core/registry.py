"""Factory for the four compared models (Section V-A).

Maps the paper's model names to constructors:

* ``cmarkov``          — static init, context-sensitive, cluster-reduced;
* ``stilo``            — static init, context-insensitive;
* ``regular-basic``    — random init, context-insensitive;
* ``regular-context``  — random init, context-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EvaluationError
from ..program.calls import CallKind
from ..program.program import Program
from .detector import Detector, DetectorConfig
from .ngram import NGramDetector
from .regular import RegularDetector
from .static_models import ClusterPolicy, CMarkovDetector, StiloDetector

#: The four model names, in the paper's presentation order.
MODEL_NAMES: tuple[str, ...] = (
    "cmarkov",
    "stilo",
    "regular-basic",
    "regular-context",
)

#: Extra related-work baselines (Section VI) available beyond the paper's
#: four compared models.
EXTRA_MODEL_NAMES: tuple[str, ...] = ("ngram", "ngram-context")


def build_detector(
    model_name: str,
    program: Program,
    kind: CallKind | str,
    config: DetectorConfig | None = None,
    cluster_policy: ClusterPolicy | None = None,
) -> Detector:
    """Instantiate one of the compared detectors (the canonical constructor).

    Prefer importing this through the :mod:`repro.api` facade.

    Args:
        model_name: one of :data:`MODEL_NAMES` or :data:`EXTRA_MODEL_NAMES`.
        program: the analyzed program (static-init models derive their
            initialization from its CFGs).
        kind: observation family — a :class:`~repro.program.calls.CallKind`
            or its string value (``"syscall"`` / ``"libcall"``).
        config: detector knobs; defaults to :class:`DetectorConfig`.
        cluster_policy: CMarkov-only state-reduction policy.

    Raises:
        EvaluationError: for an unknown model name.
    """
    kind = CallKind(kind)
    if model_name == "cmarkov":
        return CMarkovDetector(
            program, kind=kind, config=config, cluster_policy=cluster_policy
        )
    if model_name == "stilo":
        return StiloDetector(program, kind=kind, config=config)
    if model_name == "regular-basic":
        return RegularDetector(kind=kind, context=False, config=config)
    if model_name == "regular-context":
        return RegularDetector(kind=kind, context=True, config=config)
    if model_name == "ngram":
        return NGramDetector(kind=kind, context=False, config=config)
    if model_name == "ngram-context":
        return NGramDetector(kind=kind, context=True, config=config)
    raise EvaluationError(
        f"unknown model {model_name!r}; choose from "
        f"{MODEL_NAMES + EXTRA_MODEL_NAMES}"
    )


@dataclass(frozen=True)
class DetectorSpec:
    """A picklable zero-argument detector factory.

    Unlike a closure, a spec exposes the exact inputs a trained model
    depends on — which is what :func:`repro.core.crossval.cross_validate`
    keys its :class:`repro.runtime.ArtifactCache` entries by.
    """

    model_name: str
    program: Program
    kind: CallKind
    config: DetectorConfig | None = None
    cluster_policy: ClusterPolicy | None = None

    def __call__(self) -> Detector:
        return build_detector(
            self.model_name,
            self.program,
            self.kind,
            config=self.config,
            cluster_policy=self.cluster_policy,
        )

    def cache_key_parts(self) -> dict:
        """The keyed inputs a trained model is a pure function of."""
        from ..runtime.cache import program_fingerprint

        return {
            "model": self.model_name,
            "program": program_fingerprint(self.program),
            "kind": self.kind.value,
            "detector_config": self.config,
            "cluster_policy": self.cluster_policy,
        }


def detector_spec(
    model_name: str,
    program: Program,
    kind: CallKind | str,
    config: DetectorConfig | None = None,
    cluster_policy: ClusterPolicy | None = None,
) -> DetectorSpec:
    """A picklable, content-keyable detector recipe (see :class:`DetectorSpec`).

    Cross-validation and the parallel executor consume specs rather than
    detectors so recipes can cross process boundaries and feed cache keys.
    """
    return DetectorSpec(
        model_name=model_name,
        program=program,
        kind=CallKind(kind),
        config=config,
        cluster_policy=cluster_policy,
    )


def model_is_context_sensitive(model_name: str) -> bool:
    """Whether a model observes ``call@caller`` symbols."""
    if model_name in ("cmarkov", "regular-context", "ngram-context"):
        return True
    if model_name in ("stilo", "regular-basic", "ngram"):
        return False
    raise EvaluationError(f"unknown model {model_name!r}")

"""Fleet loading: resolve pretrained models for the service to serve.

A deployment's models were trained elsewhere — by ``repro train``, by a
cross-validation fold, on another host — and arrive either as ``.npz``
archives or as entries already sitting in the
:class:`~repro.runtime.cache.ArtifactCache` (the same content-addressed
store training writes through).  ``load_fleet`` accepts both source
shapes::

    fleet = load_fleet(
        {
            "gzip-cmarkov": "models/gzip-cmarkov.npz",   # file path
            "sed-stilo": "cache:2f1a9c...",              # cache key
        },
        cache=ArtifactCache(Path(".cache")),
    )
    service.register_fleet(fleet)
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from ..core.detector import PretrainedDetector
from ..errors import ServiceError
from ..hmm.model import HiddenMarkovModel
from ..hmm.serialize import load_model
from ..program.calls import CallKind
from ..runtime.cache import ArtifactCache

#: Source prefix selecting an :class:`ArtifactCache` entry over a file path.
CACHE_SCHEME = "cache:"


def resolve_model(
    source: str | Path | HiddenMarkovModel,
    cache: ArtifactCache | None = None,
) -> HiddenMarkovModel:
    """Load one model from a path, a ``cache:KEY`` reference, or pass it
    through unchanged.

    Raises:
        ServiceError: for a ``cache:`` source without a cache, or a key the
            cache cannot produce (miss or corrupt entry).
    """
    if isinstance(source, HiddenMarkovModel):
        return source
    if isinstance(source, str) and source.startswith(CACHE_SCHEME):
        key = source[len(CACHE_SCHEME):]
        if cache is None:
            raise ServiceError(
                f"model source {source!r} needs an ArtifactCache (pass "
                "cache=..., or --cache-dir on the CLI)"
            )
        model = cache.get_model(key)
        if model is None:
            raise ServiceError(
                f"cache {cache.root} has no readable model under key {key!r}"
            )
        return model
    return load_model(source)


def rebuild_detector(
    model: HiddenMarkovModel,
    kind: CallKind | str = CallKind.SYSCALL,
    context: bool | None = None,
    name: str | None = None,
) -> PretrainedDetector:
    """Wrap an already-materialized model as a servable detector.

    The gateway's publish path uses this: a registry activation hands over
    a bare model, and this puts the lane's ``(kind, context, name)``
    detector identity around it for ``swap_detector``.
    """
    return PretrainedDetector(model, kind=CallKind(kind), context=context, name=name)


def load_fleet(
    sources: Mapping[str, str | Path | HiddenMarkovModel],
    cache: ArtifactCache | None = None,
    kind: CallKind | str = CallKind.SYSCALL,
) -> dict[str, PretrainedDetector]:
    """Resolve a name → source mapping into ready-to-register detectors.

    Context sensitivity is inferred per model from its alphabet; every
    detector reports ``is_fitted`` True and ``trained_in_process`` False
    (see :func:`repro.api.load_pretrained`).
    """
    kind = CallKind(kind)
    return {
        name: PretrainedDetector(
            resolve_model(source, cache=cache), kind=kind, name=name
        )
        for name, source in sources.items()
    }

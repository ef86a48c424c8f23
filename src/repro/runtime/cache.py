"""Content-addressed on-disk artifact cache for expensive computations.

The evaluation pipeline's two dominant costs — Baum-Welch training and the
static-analysis pipeline — are pure functions of (program spec, experiment
configuration, training configuration, cluster policy, seed).  The
:class:`ArtifactCache` keys artifacts by a stable hash of exactly those
inputs, so a re-run with unchanged inputs loads the trained
:class:`~repro.hmm.model.HiddenMarkovModel` (via
:mod:`repro.hmm.serialize`) or the pickled
:class:`~repro.analysis.pipeline.StaticAnalysis` instead of recomputing.

Cache correctness properties (exercised by ``tests/test_runtime.py``):

* **round-trip fidelity** — a cached model scores segments bit-identically
  to the freshly trained one (``.npz`` stores exact float64);
* **key sensitivity** — any change to a keyed input (seed, config field,
  cluster policy, training data) produces a different key, hence a miss;
* **corruption recovery** — an unreadable entry is treated as a miss, the
  bad file is removed, and the caller recomputes; nothing crashes.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .. import telemetry
from ..hmm.model import HiddenMarkovModel
from ..hmm.serialize import load_model, save_model
from ..program.program import Program

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "derive_seed",
    "program_fingerprint",
    "stable_hash",
]


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serializable canonical form.

    Dataclasses carry their class name so two config types with identical
    fields still hash differently; dict ordering is normalized by
    ``json.dumps(sort_keys=True)`` downstream.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr() round-trips float64 exactly; avoids json's locale quirks.
        return f"f:{value!r}"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **body}
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": value.dtype.str,
            "shape": list(value.shape),
            "sha256": hashlib.sha256(np.ascontiguousarray(value)).hexdigest(),
        }
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def stable_hash(value: Any) -> str:
    """A stable content hash of nested configs/primitives/arrays.

    Stable across processes and Python versions (no reliance on ``hash()``
    or pickle), so cache keys survive interpreter restarts.
    """
    payload = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


def derive_seed(master: int, *components: Any) -> int:
    """Derive an independent child seed from a master seed and labels.

    Workers must never share RNG state: each parallel task derives its own
    seed from the master seed plus stable task labels, so results are
    bit-identical regardless of execution order or process boundaries.
    """
    digest = stable_hash((master, components))
    return int(digest[:12], 16)


def program_fingerprint(program: Program) -> str:
    """A content fingerprint of a program's structure.

    Covers the inputs static analysis consumes: function names, block
    topology, call sites, and metadata.  Cheap (no trace data) but
    sensitive to any CFG edit.
    """
    functions = []
    for name in sorted(program.functions):
        cfg = program.functions[name]
        blocks = []
        for block_id in sorted(cfg.blocks):
            block = cfg.blocks[block_id]
            call = (
                (block.call.name, block.call.kind.value)
                if block.call is not None
                else None
            )
            blocks.append((block_id, sorted(cfg.successors(block_id)), call))
        functions.append((name, cfg.entry, blocks))
    return stable_hash(
        {
            "name": program.name,
            "metadata": {str(k): str(v) for k, v in program.metadata.items()},
            "functions": functions,
        }
    )


@dataclass
class CacheStats:
    """Hit/miss/eviction/corruption counters of one process's cache handle.

    A worker process counts against its own copy, so these counters see
    only the calling process's lookups.  With telemetry on, every bump is
    mirrored into the ``cache.*`` counters, which do travel back from
    workers (see :class:`repro.runtime.ParallelExecutor`).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    corrupt: int = 0
    writes: int = 0

    def count(self, event: str, amount: int = 1) -> None:
        """Bump one counter, mirroring it into the telemetry registry (as
        ``cache.<event>``) when telemetry is enabled."""
        setattr(self, event, getattr(self, event) + amount)
        telemetry.counter_add(f"cache.{event}", amount)

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "writes": self.writes,
        }


@dataclass
class ArtifactCache:
    """Content-addressed cache of trained models and analysis results.

    Attributes:
        root: cache directory (created on first write).
        max_entries: optional LRU bound on stored artifacts; the oldest
            entries (by mtime) are evicted once the bound is exceeded.
        stats: process-local counters (see :class:`CacheStats`).
    """

    root: Path
    max_entries: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- keys ----------------------------------------------------------
    def key(self, **parts: Any) -> str:
        """Build a cache key from named keyed inputs."""
        return stable_hash(parts)

    # -- trained HMMs (.npz via repro.hmm.serialize) -------------------
    def get_model(self, key: str) -> HiddenMarkovModel | None:
        """Load a cached model, or ``None`` on miss/corruption."""
        path = self._model_path(key)
        if not path.exists():
            self.stats.count("misses")
            return None
        try:
            model = load_model(path)
            model.validate()
        except Exception:
            # Corrupted entry: drop it and recompute (never crash).
            self.stats.count("corrupt")
            self.stats.count("misses")
            path.unlink(missing_ok=True)
            return None
        path.touch()  # refresh LRU recency
        self.stats.count("hits")
        return model

    def put_model(self, key: str, model: HiddenMarkovModel) -> None:
        self._write(self._model_path(key), lambda p: save_model(model, p))

    # -- arbitrary artifacts (pickle) ----------------------------------
    def get_object(self, key: str) -> Any | None:
        """Load a cached pickled artifact, or ``None`` on miss/corruption."""
        path = self._object_path(key)
        if not path.exists():
            self.stats.count("misses")
            return None
        try:
            with path.open("rb") as handle:
                artifact = pickle.load(handle)
        except Exception:
            self.stats.count("corrupt")
            self.stats.count("misses")
            path.unlink(missing_ok=True)
            return None
        path.touch()
        self.stats.count("hits")
        return artifact

    def put_object(self, key: str, artifact: Any) -> None:
        def writer(path: Path) -> None:
            with path.open("wb") as handle:
                pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)

        self._write(self._object_path(key), writer)

    # -- maintenance ---------------------------------------------------
    @property
    def n_entries(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        removed = 0
        for path in list(self._entries()):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    # -- internals -----------------------------------------------------
    def _model_path(self, key: str) -> Path:
        return self.root / f"{key}.model.npz"

    def _object_path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _entries(self):
        yield from self.root.glob("*.model.npz")
        yield from self.root.glob("*.pkl")

    def _write(self, path: Path, writer) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        # Write-then-rename keeps concurrent readers from seeing a torn
        # file (parallel workers share the directory).
        scratch = path.with_name(path.name + f".tmp-{id(self)}")
        try:
            writer(scratch)
            written = scratch
            if not written.exists():
                # np.savez appends .npz when the suffix is missing.
                candidate = scratch.with_suffix(scratch.suffix + ".npz")
                if candidate.exists():
                    written = candidate
            written.replace(path)
        finally:
            scratch.unlink(missing_ok=True)
        self.stats.count("writes")
        self._evict()

    def _evict(self) -> None:
        if self.max_entries is None:
            return
        entries = sorted(self._entries(), key=lambda p: p.stat().st_mtime)
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        for path in entries[:excess]:
            path.unlink(missing_ok=True)
            self.stats.count("evictions")

    # Cache handles cross process boundaries; each worker counts against
    # fresh, process-local stats.
    def __getstate__(self) -> dict[str, Any]:
        return {"root": self.root, "max_entries": self.max_entries}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.root = state["root"]
        self.max_entries = state["max_entries"]
        self.stats = CacheStats()

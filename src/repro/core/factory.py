"""Unified backend factory: one canonical way to compose feature stacks.

Historically every call site composed its own wrapper stack: ``cli.py``
picked constructor kwargs by hand, each ``bench/*sweep`` built its
``DistributedEmbedding`` with the one feature kwarg it cared about, and
the registry entries in each feature package duplicated the
``<feature>_retrieval_for(emb, base)`` plumbing.  This module is the
single place that knows how a backend name decomposes and how the
feature wrappers attach:

* :class:`FeatureSpec` — the one bag of per-feature configs
  (cache / resilience / compression / replication / reshard / hier /
  obs) that
  :class:`~repro.core.retrieval.DistributedEmbedding` now takes as its
  ``features=`` keyword;
* :func:`parse_backend_name` — splits ``"<base>+<feature>"`` names and
  rejects malformed stacks (empty segments, unknown features, duplicate
  features, multi-feature stacks) with errors that name the offending
  stack;
* :func:`build_adapter` — builds the adapter for any registered backend
  name from the parsed form; the per-package registry entries are thin
  aliases over this function, and every entry point that runs an EMB
  stage (``DistributedEmbedding``, the inference pipeline and through it
  the server and the training step) gets its adapter here;
* :func:`default_cluster` — the cluster an entry point builds when it is
  given none (a multi-node one for a configured ``"+hier"`` backend);
* :func:`build_backend` — the top-level entry: a fully-composed
  :class:`~repro.core.retrieval.DistributedEmbedding` from a
  :class:`~repro.core.runspec.RunSpec` alone, adapter pre-built so
  composition errors surface at construction, not first forward.

``CANONICAL_FEATURE_ORDER`` fixes the composition order feature wrappers
take when a composed backend is ever registered: innermost first.  The
registry still refuses unregistered multi-feature stacks — the order
constant makes the refusal principled instead of arbitrary.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

__all__ = [
    "CANONICAL_FEATURE_ORDER",
    "FeatureSpec",
    "build_adapter",
    "build_backend",
    "default_cluster",
    "parse_backend_name",
]

#: Composition order for feature wrappers, innermost (closest to the base
#: communication strategy) first.  Single-feature stacks are unaffected;
#: any explicitly registered composed backend must wrap in this order.
CANONICAL_FEATURE_ORDER: Tuple[str, ...] = (
    "hier",
    "cache",
    "compress",
    "resilient",
    "replicated",
    "reshard",
)

#: feature suffix → (defining module, adapter-builder function).  The
#: module import is deferred to adapter build time so ``repro.core`` never
#: imports the feature packages (they import *it* to register themselves).
_FEATURE_BUILDERS: Dict[str, Tuple[str, str]] = {
    "hier": ("repro.hier", "hier_retrieval_for"),
    "cache": ("repro.cache", "cached_retrieval_for"),
    "compress": ("repro.compress", "compressed_retrieval_for"),
    "resilient": ("repro.faults", "resilient_retrieval_for"),
    "replicated": ("repro.replication", "replicated_retrieval_for"),
    "reshard": ("repro.reshard", "reshard_retrieval_for"),
}

@dataclass(frozen=True)
class FeatureSpec:
    """Per-feature configuration bundle of one EMB entry point
    (``DistributedEmbedding`` or ``DLRMInferencePipeline``).

    Each field configures the wrapper the matching ``+<feature>`` backend
    suffix selects; fields for features the chosen backend does not use
    are ignored (a spec can be shared across A/B backend comparisons).
    Field types are validated where they are consumed — the ``obs``
    section here, each feature config when its adapter is built — so a
    ``FeatureSpec`` never imports feature packages it does not mention.

    Attributes
    ----------
    cache:
        :class:`repro.cache.CacheConfig` for the ``"+cache"`` backends.
    resilience:
        :class:`repro.faults.ResilienceSpec` for ``"+resilient"``.
    compression:
        :class:`repro.compress.CompressionSpec` for ``"+compress"``.
    replication:
        :class:`repro.replication.ReplicationSpec` for ``"+replicated"``.
    reshard:
        :class:`repro.reshard.ReshardSpec` for ``"+reshard"``.
    hier:
        :class:`repro.comm.hier.HierSpec` for the ``"+hier"`` backends
        (topology-aware hierarchical routing: node geometry, staging
        flush policy, coalesced NIC framing).
    obs:
        :class:`repro.obs.TraceSpec`; enables trace-context propagation
        for every backend (None or disabled stays bit-identical).
    """

    cache: Optional[object] = None
    resilience: Optional[object] = None
    compression: Optional[object] = None
    replication: Optional[object] = None
    reshard: Optional[object] = None
    hier: Optional[object] = None
    obs: Optional[object] = None

    def __post_init__(self) -> None:
        if self.obs is not None:
            from ..obs import TraceSpec

            if not isinstance(self.obs, TraceSpec):
                raise TypeError(
                    f"obs must be a repro.obs.TraceSpec, got {type(self.obs).__name__}"
                )

    def configured(self) -> Tuple[str, ...]:
        """Names of the fields that are set, in declaration order."""
        return tuple(f.name for f in fields(self) if getattr(self, f.name) is not None)


def parse_backend_name(name: str) -> Tuple[str, Tuple[str, ...]]:
    """Split a backend name into ``(base, features)`` per the contract.

    Enforces the backend-name contract mechanically: non-empty segments,
    known feature suffixes, no duplicates, and at most one feature (a
    longer stack has no registered composition — the error names the
    offending stack and the canonical order a registered composition
    would have to follow).
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    parts = name.split("+")
    if any(not part for part in parts):
        raise ValueError(
            f"malformed backend name {name!r}: empty base or feature segment "
            f"(expected '<base>' or '<base>+<feature>')"
        )
    base, features = parts[0], tuple(parts[1:])
    unknown = [f for f in features if f not in _FEATURE_BUILDERS]
    if unknown:
        raise ValueError(
            f"malformed backend stack {name!r}: unknown feature(s) "
            f"{', '.join(repr(f) for f in unknown)}; known features: "
            f"{', '.join(CANONICAL_FEATURE_ORDER)}"
        )
    seen = set()
    dups = [f for f in features if f in seen or seen.add(f)]
    if dups:
        raise ValueError(
            f"malformed backend stack {name!r}: duplicate feature(s) "
            f"{', '.join(repr(f) for f in sorted(set(dups)))}"
        )
    if len(features) >= 2:
        raise ValueError(
            f"backend stack {name!r} composes {len(features)} features "
            f"({' + '.join(features)}); multi-feature stacks are only valid "
            f"when registered explicitly, wrapping in canonical order "
            f"{' -> '.join(CANONICAL_FEATURE_ORDER)} (innermost first)"
        )
    return base, features


def build_adapter(emb, name: str):
    """Build the retrieval adapter for backend ``name`` bound to ``emb``.

    The shared implementation behind every registered feature backend:
    registry entries are thin ``lambda emb: build_adapter(emb, name)``
    aliases, so composition lives in exactly one place.  Bare base names
    fall through to the registry's own factories.

    ``emb`` is any EMB host exposing ``cluster``, ``plan``, ``features``,
    ``collective_spec``, ``pgas_spec``, ``sharded`` (None when timing
    only) and ``weight_buffers`` (None when weights are not accounted).
    """
    base, features = parse_backend_name(name)
    if not features:
        from .retrieval import backend_spec

        return backend_spec(base).factory(emb)
    module_name, builder_name = _FEATURE_BUILDERS[features[0]]
    builder = getattr(importlib.import_module(module_name), builder_name)
    return builder(emb, base)


def default_cluster(n_devices: int, backend: str, features: FeatureSpec):
    """The cluster an EMB entry point builds when it is given none.

    A ``"+hier"`` backend with a configured node geometry gets a matching
    multi-node cluster (NVLink within nodes, NIC across); every other
    backend gets the single-node NVLink box.
    """
    from ..simgpu.cluster import dgx_v100, multinode

    hier = features.hier
    if hier is not None and "hier" in parse_backend_name(backend)[1]:
        from ..comm.hier import HierSpec

        if not isinstance(hier, HierSpec):
            raise TypeError(
                f"hier must be a repro.comm.hier.HierSpec, got {type(hier).__name__}"
            )
        hier.validate_for(n_devices)
        if hier.devices_per_node > 1:
            return multinode(n_devices // hier.devices_per_node, hier.devices_per_node)
    return dgx_v100(n_devices)


def build_backend(
    runspec,
    *,
    materialize: bool = False,
    cluster=None,
    rng=None,
    **overrides,
):
    """A fully-composed :class:`~repro.core.retrieval.DistributedEmbedding`
    from a :class:`~repro.core.runspec.RunSpec` alone.

    Every feature section the spec carries (cache, resilience,
    compression, replication, reshard, obs) lands in the instance's
    :class:`FeatureSpec`; the backend adapter is built eagerly, so a
    malformed stack or a bad config fails here, loudly, instead of at the
    first forward.  ``overrides`` pass through to the constructor (e.g.
    ``backend=...`` for A/B runs on one spec).
    """
    from .retrieval import DistributedEmbedding

    kwargs = dict(
        backend=runspec.backend,
        features=runspec.features(),
        materialize=materialize,
        cluster=cluster,
        rng=rng,
    )
    kwargs.update(overrides)
    emb = DistributedEmbedding(runspec.workload, runspec.n_devices, **kwargs)
    emb.backend_adapter()
    return emb

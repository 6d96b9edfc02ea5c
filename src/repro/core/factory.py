"""The backend factory: the one place a backend name becomes an adapter.

A backend name is ``<base>`` or ``<base>+<feature>``.  The base is a
communication strategy — ``"pgas"`` or ``"baseline"`` — run by a
:class:`~repro.core.retrieval.BaseAdapter`; a feature is either an
*engine option* of that adapter (``"+hier"``: the engines built with a
:class:`~repro.comm.hier.HierSpec`) or a
:class:`~repro.core.retrieval.FeatureLayer` over it (cache, compress,
resilient, replicated, reshard).  This module holds:

* :class:`FeatureSpec` — the one bag of per-feature configs
  (cache / resilience / compression / replication / reshard / hier /
  obs) that every EMB entry point takes as its ``features=`` keyword;
* the feature table — per suffix, its ``FeatureSpec`` field and config
  type, its layer class (none for an engine option) and the registry
  description of each ``<base>+<feature>`` name;
* :func:`parse_backend_name` — splits ``"<base>+<feature>"`` names and
  rejects malformed stacks (empty segments, unknown features, duplicate
  features, multi-feature stacks) with errors that name the offending
  stack;
* :func:`build_adapter` — the only code that type-checks a
  ``features.<field>`` config and builds a feature's adapter; every
  entry point that runs an EMB stage (``DistributedEmbedding``, the
  inference pipeline and through it the server and the training step)
  gets its adapter here;
* :func:`register_feature_backends` — one loop over the feature table
  that registers every ``<base>+<feature>`` name;
* :func:`default_cluster` — the cluster an entry point builds when it is
  given none (a multi-node one for a configured ``"+hier"`` backend);
* :func:`build_backend` — the top-level entry: a fully-composed
  :class:`~repro.core.retrieval.DistributedEmbedding` from a
  :class:`~repro.core.runspec.RunSpec` alone, adapter pre-built so
  composition errors surface at construction, not first forward.

``CANONICAL_FEATURE_ORDER`` fixes the order features would compose in,
innermost first.  Multi-feature stacks are still refused: none is run by
any workload, and each legal stack is one more configuration the tests
and the benchmark would have to cover.
"""

from __future__ import annotations

import functools
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
    "register_feature_backends",
]

#: Composition order for features, innermost (closest to the base
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


@dataclass(frozen=True)
class _Feature:
    """One ``+<feature>`` suffix: where its config lives, what builds it,
    and the registry description of each ``<base>+<feature>`` name."""

    field: str  #: the FeatureSpec field holding its config
    config: str  #: ``module:Class`` of that config
    layer: Optional[str]  #: ``module:Class`` of its FeatureLayer; None = engine option
    descriptions: Tuple[Tuple[str, str], ...]  #: (base, description) pairs


#: Every feature suffix.  Modules are imported when an adapter is built
#: (or the names registered), so ``repro.core`` never imports the feature
#: packages at import time (they import *it*).
_FEATURES: Dict[str, _Feature] = {
    "hier": _Feature(
        "hier", "repro.comm.hier:HierSpec", None,
        (
            ("pgas", "PGAS retrieval with node-leader staging: off-node writes cross "
                     "the NIC as one aggregated stream per node pair"),
            ("baseline", "collective retrieval with a two-level all-to-all: NVLink "
                         "gather/scatter around one coalesced NIC transfer per node pair"),
        ),
    ),
    "cache": _Feature(
        "cache", "repro.cache.hotrow:CacheConfig", "repro.cache.retrieval:CachedRetrieval",
        (
            ("pgas", "PGAS retrieval with the hot-row cache short-circuiting remote reads"),
            ("baseline", "collective retrieval with the hot-row cache shrinking the "
                         "all-to-all"),
        ),
    ),
    "compress": _Feature(
        "compression", "repro.compress.spec:CompressionSpec",
        "repro.compress.retrieval:CompressedRetrieval",
        (
            ("pgas", "PGAS retrieval with quantized one-sided writes "
                     "(fp32/fp16/int8/int4 row codecs)"),
            ("baseline", "collective retrieval with quantized all-to-all payloads and a "
                         "destination-side decode pass"),
        ),
    ),
    "resilient": _Feature(
        "resilience", "repro.faults.resilient:ResilienceSpec",
        "repro.faults.resilient:ResilientRetrieval",
        (
            ("pgas", "PGAS retrieval under the retry/reroute/degrade fault wrapper"),
            ("baseline", "collective retrieval under the retry/reroute/degrade fault "
                         "wrapper"),
        ),
    ),
    "replicated": _Feature(
        "replication", "repro.replication.spec:ReplicationSpec",
        "repro.replication.retrieval:ReplicatedRetrieval",
        (
            ("pgas", "PGAS retrieval with k-way shard replicas, heartbeat failover, "
                     "and online re-replication"),
            ("baseline", "collective retrieval with k-way shard replicas, heartbeat "
                         "failover, and online re-replication"),
        ),
    ),
    "reshard": _Feature(
        "reshard", "repro.reshard.spec:ReshardSpec", "repro.reshard.retrieval:ReshardRetrieval",
        (
            ("pgas", "PGAS retrieval with skew-aware online table migration and "
                     "serve-from-old-owner cutover"),
            ("baseline", "collective retrieval with skew-aware online table migration "
                         "and serve-from-old-owner cutover"),
        ),
    ),
}


def _resolve(path: str):
    """The object a ``module:Name`` path names."""
    module, name = path.split(":")
    return getattr(importlib.import_module(module), name)


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
    unknown = [f for f in features if f not in _FEATURES]
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


def _feature_config(emb, feature: str):
    """``emb.features.<field>`` for one feature, type-checked (None if unset)."""
    entry = _FEATURES[feature]
    config = getattr(emb.features, entry.field)
    config_type = _resolve(entry.config)
    if config is not None and not isinstance(config, config_type):
        raise TypeError(
            f"features.{entry.field} must be a {config_type.__name__}, "
            f"got {type(config).__name__}"
        )
    return config


def build_adapter(emb, name: str):
    """Build the retrieval adapter for backend ``name`` bound to ``emb``.

    The one construction path behind every registered name.  A bare base
    name is the registry's own factory; ``"<base>+hier"`` is the
    :class:`~repro.core.retrieval.BaseAdapter` built with the configured
    :class:`~repro.comm.hier.HierSpec` (flat ``devices_per_node=1`` when
    none is set); any other feature is its
    :class:`~repro.core.retrieval.FeatureLayer` over that base, built from
    its type-checked ``features.<field>`` config.

    ``emb`` is any EMB host exposing ``cluster``, ``plan``, ``features``,
    ``collective_spec``, ``pgas_spec``, ``sharded`` (None when timing
    only) and ``weight_buffers`` (None when weights are not accounted).
    """
    base, features = parse_backend_name(name)
    if not features:
        from .retrieval import backend_spec

        return backend_spec(base).factory(emb)
    feature = features[0]
    config = _feature_config(emb, feature)
    layer_path = _FEATURES[feature].layer
    if layer_path is None:
        from ..comm.hier import HierSpec
        from .retrieval import BaseAdapter

        return BaseAdapter.for_host(
            emb, base, hier_spec=config or HierSpec(devices_per_node=1)
        )
    layer = _resolve(layer_path)
    return layer(
        emb.cluster,
        emb.plan,
        config,
        base=base,
        collective_spec=emb.collective_spec,
        pgas_spec=emb.pgas_spec,
        sharded=emb.sharded,
        **{attr: getattr(emb, attr) for attr in layer.host_attrs},
    )


def register_feature_backends() -> None:
    """Register every ``<base>+<feature>`` name with the backend registry.

    One entry per (feature, base) of the feature table, each building its
    adapter through :func:`build_adapter`; ``requires_indices`` comes from
    the feature's layer class (an engine option needs none).  ``repro``
    calls this once, after importing every feature package.
    """
    from .retrieval import register_backend

    for feature, entry in _FEATURES.items():
        layer = _resolve(entry.layer) if entry.layer is not None else None
        for base, description in entry.descriptions:
            name = f"{base}+{feature}"
            register_backend(
                name,
                functools.partial(build_adapter, name=name),
                requires_indices=layer is not None and layer.requires_indices,
                description=description,
            )


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

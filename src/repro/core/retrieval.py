"""High-level distributed embedding retrieval API and the backend registry.

:class:`DistributedEmbedding` is the user-facing entry point (the analogue
of the paper's PyTorch backend): configure tables, device count, and a
backend name, then call :meth:`forward` with a jagged batch.  It

* builds the table-wise sharding plan and registers every table's weights
  with the per-device memory accountants (so paper-scale configurations
  exercise the real 32 GB capacity wall);
* runs the **timed** path on the cluster simulator for every batch,
  accumulating a :class:`~repro.core.baseline.PhaseTiming`;
* optionally (``materialize=True``) holds real numpy weights and also runs
  the **functional** path, returning per-device output tensors that are
  bit-identical across backends.

Backends are *registered*, not hard-coded: ``"pgas"`` and ``"baseline"``
are built in here, the ``"<base>+<feature>"`` names are registered from
the feature table of :mod:`repro.core.factory`, and other code can add
its own via :func:`register_backend` without any call-site edits.  A
backend is a factory producing a :class:`RetrievalBackend` adapter bound
to one EMB host; adapters are created lazily per instance and kept alive
across batches (which is what lets stateful backends, like the hot-row
cache, stay warm between calls).

Adapters come in two kinds:

* :class:`BaseAdapter` — a communication strategy's engine: ``"pgas"``
  (:class:`~repro.core.pgas_retrieval.PGASFusedRetrieval`, fused
  one-sided writes) or ``"baseline"``
  (:class:`~repro.core.baseline.BaselineRetrieval`, NCCL-style
  collectives), with its *engine options*: the strategy's comm spec and
  an optional :class:`~repro.comm.hier.HierSpec`.  Its ``batch_process``
  is the engine's own generator and its ``run_timed`` the engine's
  ``run_batch``; its functional forward is the strategy's numpy path,
  over its own weights or an explicit ``sharded`` override.
* :class:`FeatureLayer` — one feature over a base adapter, held as
  ``inner``.  By default it is ``inner``; each feature overrides only
  what it changes.

Backend-name contract
---------------------
A backend name is ``<base>`` or ``<base>+<feature>`` where ``<base>`` is a
communication strategy (``"pgas"`` or ``"baseline"``) and ``<feature>`` is
one of:

* ``"+cache"`` — a layer whose EMB pass consults the hot-row cache;
  configured by a :class:`repro.cache.CacheConfig`, and it *requires
  index values* (its cost depends on which rows hit).
* ``"+resilient"`` — a layer running the fault-tolerant retry /
  reroute / degrade state machine, configured by a
  :class:`repro.faults.ResilienceSpec`.
* ``"+compress"`` — a layer quantising remote payloads with a row codec
  before they cross the wire, configured by a
  :class:`repro.compress.CompressionSpec`.
* ``"+replicated"`` — a layer with k-way shard replicas, heartbeat
  failure detection, failover routing, and online re-replication,
  configured by a :class:`repro.replication.ReplicationSpec`.
* ``"+reshard"`` — a layer with the skew-aware online load balancer:
  observed per-table traffic drives background table migrations with
  serve-from-old-owner cutover, configured by a
  :class:`repro.reshard.ReshardSpec`.
* ``"+hier"`` — not a layer but an engine option: the base adapter built
  with a :class:`repro.comm.hier.HierSpec`, so cross-node traffic stages
  intra-node to a leader and crosses the NIC as one coalesced stream per
  node pair (routing changes timing only — functional outputs stay
  bit-identical to the flat backend).
* A bare base name is the plain timed retrieval.

Consumers do not dispatch on the suffix: every entry point that runs an
EMB stage asks the factory for the name's adapter and drives it through
the one :meth:`RetrievalBackend.batch_process` method.  Code that needs
the parts of a name (the base strategy, or whether a feature is present)
takes them from :func:`~repro.core.factory.parse_backend_name`.
Registering a name that is already taken raises (pass ``overwrite=True``
to replace deliberately).

Stacking features (two or more ``+<feature>`` suffixes, e.g.
``"pgas+compress+resilient"``) has no defined semantics unless someone
registers that composed backend explicitly: looking up an unregistered
composition raises a ``ValueError`` naming the unsupported combination
rather than silently picking one order.  Parsing names, building each
name's adapter, and the canonical composition order live in
:mod:`repro.core.factory`.

Example
-------
>>> from repro import DistributedEmbedding, WorkloadConfig, SyntheticDataGenerator
>>> cfg = WorkloadConfig(num_tables=8, rows_per_table=1000, dim=16,
...                      batch_size=64, max_pooling=8)
>>> emb = DistributedEmbedding(cfg, n_devices=2, backend="pgas", materialize=True)
>>> batch = SyntheticDataGenerator(cfg).sparse_batch()
>>> result = emb.forward(batch)
>>> [o.shape for o in result.outputs]
[(32, 8, 16), (32, 8, 16)]
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Literal,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..comm.hier import HierSpec

from ..comm.collective import CollectiveSpec
from ..comm.pgas import PGASSpec
from ..dlrm.batch import SparseBatch
from ..dlrm.data import WorkloadConfig
from ..dlrm.embedding import EmbeddingBagCollection, EmbeddingTableConfig
from ..simgpu.cluster import Cluster
from ..simgpu.engine import ProcessGenerator
from ..simgpu.memory import Buffer
from .baseline import BaselineRetrieval, PhaseTiming
from .factory import FeatureSpec, default_cluster
from .functional import (
    ShardedEmbeddingTables,
    baseline_functional_forward,
    pgas_functional_forward,
)
from .pgas_retrieval import PGASFusedRetrieval
from .sharding import TableWiseSharding
from .workload import DeviceWorkload, build_device_workloads, lengths_from_batch

__all__ = [
    "BackendInfo",
    "BaseAdapter",
    "BackendName",
    "BackendSpec",
    "DistributedEmbedding",
    "FeatureLayer",
    "ForwardResult",
    "RetrievalBackend",
    "available_backends",
    "backend_spec",
    "register_backend",
]

#: A registered backend name: ``"pgas"``, ``"baseline"``, or one of those
#: with a ``+<feature>`` suffix (see the module docstring).
BackendName = str


class RetrievalBackend:
    """Adapter contract one registered backend implements.

    An adapter is bound to a single EMB host (a :class:`DistributedEmbedding`
    or an inference pipeline) and lives as long as it does, so backends may
    keep cross-batch state (the hot-row cache relies on this).
    ``requires_indices`` marks backends whose cost model depends on the
    actual index values, not just the jagged lengths — those cannot serve
    :meth:`DistributedEmbedding.forward_timed`.
    """

    requires_indices: bool = False
    cluster: Cluster

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ) -> ProcessGenerator:
        """Process generator for one batch — composable into larger host
        programs (the inference pipeline overlaps it with the dense MLP).
        ``timing`` is filled at completion; ``batch`` carries the index
        values for backends that need them; ``stream_suffix`` selects a
        per-batch stream set so concurrent batches do not serialise."""
        raise NotImplementedError

    def run_timed(
        self,
        workloads: Sequence[DeviceWorkload],
        batch: Optional[SparseBatch] = None,
    ) -> PhaseTiming:
        """Simulate one batch on the cluster; returns its phase timing."""
        timing = PhaseTiming(batches=1)
        self.cluster.run(
            lambda cl: self.batch_process(cl, workloads, timing, batch=batch)
        )
        return timing

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """Numpy forward: per-device ``(B_g, F, d)`` output tensors."""
        raise NotImplementedError

    def forward(
        self,
        workloads: Sequence[DeviceWorkload],
        batch: Optional[SparseBatch],
        functional: bool = False,
    ) -> Tuple[PhaseTiming, Optional[List[np.ndarray]]]:
        """Timed pass plus (when requested) the functional outputs.

        Backends that derive both from shared per-batch state override this
        to avoid doing that work twice.
        """
        timing = self.run_timed(workloads, batch=batch)
        outputs = self.functional_forward(batch) if functional and batch is not None else None
        return timing, outputs


@dataclass(frozen=True)
class BackendSpec:
    """One registry entry: how to build a named backend's adapter."""

    name: str
    factory: Callable[["DistributedEmbedding"], RetrievalBackend]
    requires_indices: bool = False
    description: str = ""
    functional: bool = True  #: supports the materialised numpy forward
    traceable: bool = True  #: spans carry trace refs under an active TraceSpec


class BackendInfo(str):
    """A backend name annotated with its description and capability flags.

    A ``str`` subclass, so everything that treats backend names as strings
    (argparse ``choices``, ``", ".join(...)``, dict keys, equality against
    a plain name) keeps working; the extra attributes ride along for
    introspection (``repro backends``, docs, capability checks).
    """

    __slots__ = ("description", "requires_indices", "functional", "traceable")

    def __new__(cls, spec: BackendSpec) -> "BackendInfo":
        info = super().__new__(cls, spec.name)
        info.description = spec.description
        info.requires_indices = spec.requires_indices
        info.functional = spec.functional
        info.traceable = spec.traceable
        return info

    @property
    def base(self) -> str:
        """The communication strategy under any feature suffixes."""
        return self.split("+", 1)[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BackendInfo {str(self)!r}: {self.description}>"


_BACKENDS: Dict[str, BackendSpec] = {}


def register_backend(
    name: str,
    factory: Callable[["DistributedEmbedding"], RetrievalBackend],
    *,
    requires_indices: bool = False,
    description: str = "",
    functional: bool = True,
    traceable: bool = True,
    overwrite: bool = False,
) -> BackendSpec:
    """Register a retrieval backend under ``name``.

    ``factory(emb)`` must return a :class:`RetrievalBackend` bound to the
    given :class:`DistributedEmbedding`.  ``name`` must follow the
    backend-name contract (see the module docstring): a base strategy,
    optionally extended with ``+<feature>`` suffixes.  Registering an
    existing name raises unless ``overwrite=True`` — a loud duplicate
    beats two packages silently fighting over one name.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    if any(not part for part in name.split("+")):
        raise ValueError(
            f"malformed backend name {name!r}: empty base or feature segment "
            f"(expected '<base>' or '<base>+<feature>[+<feature>...]')"
        )
    if name in _BACKENDS and not overwrite:
        raise ValueError(
            f"backend {name!r} is already registered "
            f"(by {_BACKENDS[name].factory!r}); pass overwrite=True to replace it"
        )
    spec = BackendSpec(
        name=name,
        factory=factory,
        requires_indices=requires_indices,
        description=description,
        functional=functional,
        traceable=traceable,
    )
    _BACKENDS[name] = spec
    return spec


def backend_spec(name: str) -> BackendSpec:
    """Look up a registered backend; unknown names raise ``ValueError``.

    Unregistered wrapper *compositions* (two or more ``+<feature>``
    suffixes) get a dedicated error naming the combination: stacking
    wrappers is undefined unless the composed backend was registered
    explicitly (wrapper order changes semantics, so the registry refuses
    to guess one).
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        pass
    features = name.split("+")[1:]
    if len(features) >= 2:
        raise ValueError(
            f"backend {name!r} is not registered: stacking the wrapper "
            f"features {' + '.join(features)} has no defined composition "
            f"order; register the composed backend explicitly with "
            f"register_backend() to support it"
        )
    raise ValueError(
        f"unknown backend {name!r}; available: {', '.join(available_backends())}"
    )


def available_backends() -> List[BackendInfo]:
    """Every registered backend, sorted by name.

    Each entry is a :class:`BackendInfo` — usable anywhere a plain name
    string is (the historical return type), but carrying the description
    and the ``requires_indices`` / ``functional`` / ``traceable``
    capability flags.
    """
    return [BackendInfo(_BACKENDS[name]) for name in sorted(_BACKENDS)]


@dataclass
class ForwardResult:
    """Outcome of one distributed EMB forward call.

    ``outputs`` is the per-device list of ``(B_g, F, d)`` tensors when the
    module is materialised, else ``None`` (timing-only run).
    """

    timing: PhaseTiming
    outputs: Optional[List[np.ndarray]] = None

    @property
    def total_ms(self) -> float:
        """Simulated wall time in milliseconds."""
        return self.timing.total_ns / 1e6


class BaseAdapter(RetrievalBackend):
    """A communication strategy's engine, as a backend adapter.

    ``base`` picks the engine: ``"pgas"`` runs
    :class:`~repro.core.pgas_retrieval.PGASFusedRetrieval` (fused
    one-sided writes), ``"baseline"`` runs
    :class:`~repro.core.baseline.BaselineRetrieval` (compute, all-to-all,
    unpack).  The *engine options* are the strategy's comm spec
    (``pgas_spec`` / ``collective_spec``) and ``hier_spec``, a
    :class:`~repro.comm.hier.HierSpec` that routes cross-node traffic
    through node leaders — the ``"+hier"`` backends are this adapter built
    with one.  Routing changes timing only, so the functional forward is
    the strategy's numpy path either way.

    This is the bare ``"pgas"``/``"baseline"`` adapter, and the ``inner``
    of every :class:`FeatureLayer`.  Its :meth:`batch_process` returns the
    engine's own generator (no wrapping frame) and :meth:`run_timed` is the
    engine's ``run_batch``.
    """

    def __init__(
        self,
        cluster: Cluster,
        base: str = "pgas",
        *,
        pgas_spec: Optional[PGASSpec] = None,
        collective_spec: Optional[CollectiveSpec] = None,
        hier_spec: Optional["HierSpec"] = None,
        sharded: Optional[ShardedEmbeddingTables] = None,
    ):
        if base == "pgas":
            self.engine = PGASFusedRetrieval(cluster, pgas_spec, hier_spec=hier_spec)
        elif base == "baseline":
            self.engine = BaselineRetrieval(cluster, collective_spec, hier_spec=hier_spec)
        else:
            raise ValueError(f"unknown base backend {base!r} (use 'pgas' or 'baseline')")
        self.cluster = cluster
        self.base_name = base
        self.hier_spec = hier_spec
        self.sharded = sharded

    @classmethod
    def for_host(
        cls, emb, base: str, hier_spec: Optional["HierSpec"] = None
    ) -> "BaseAdapter":
        """The ``base`` engine with an EMB host's comm specs and weights."""
        return cls(
            emb.cluster,
            base,
            pgas_spec=emb.pgas_spec,
            collective_spec=emb.collective_spec,
            hier_spec=hier_spec,
            sharded=emb.sharded,
        )

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ) -> ProcessGenerator:
        """The engine's own generator (no wrapping frame)."""
        return self.engine.batch_process(
            cluster, workloads, timing, stream_suffix=stream_suffix
        )

    def run_timed(
        self,
        workloads: Sequence[DeviceWorkload],
        batch: Optional[SparseBatch] = None,
    ) -> PhaseTiming:
        """The engine's simulation of one batch."""
        return self.engine.run_batch(workloads)

    def functional_forward(
        self, batch: SparseBatch, sharded: Optional[ShardedEmbeddingTables] = None
    ) -> List[np.ndarray]:
        """The strategy's numpy forward over ``sharded`` (default: the
        adapter's own weights) — one-sided writes for ``"pgas"``, send
        blocks plus unpack for ``"baseline"``."""
        sharded = sharded if sharded is not None else self.sharded
        if sharded is None:
            raise ValueError("functional forward needs materialize=True weights")
        if self.base_name == "pgas":
            return pgas_functional_forward(sharded, batch)
        outputs, _blocks = baseline_functional_forward(sharded, batch)
        return outputs


class FeatureLayer(RetrievalBackend):
    """One ``+<feature>`` over a :class:`BaseAdapter`.

    Holds ``inner`` — the base adapter, built with the engine options the
    layer is given (a layer may adjust them: compression shrinks the PGAS
    message size to its wire row) — plus the ``cluster``, the sharding
    ``table_plan``, the ``sharded`` weights (None when timing only) and the
    ``base_name``.  By default :meth:`batch_process` and
    :meth:`functional_forward` are ``inner``'s; a feature overrides only
    what it changes.  :meth:`run_timed` stays the contract's default (one
    ``cluster.run`` of this layer's own :meth:`batch_process`), so a layer
    that changes the generator never also has to change the timed run.

    A layer's constructor takes ``(cluster, plan, config, *, base,
    collective_spec, pgas_spec, sharded)`` plus the EMB-host attributes
    named in ``host_attrs``; :func:`~repro.core.factory.build_adapter`
    supplies them from the host and its type-checked
    ``features.<field>`` config.
    """

    host_attrs: Tuple[str, ...] = ()

    def __init__(
        self,
        cluster: Cluster,
        plan: TableWiseSharding,
        *,
        base: str = "pgas",
        collective_spec: Optional[CollectiveSpec] = None,
        pgas_spec: Optional[PGASSpec] = None,
        sharded: Optional[ShardedEmbeddingTables] = None,
    ):
        self.inner = BaseAdapter(
            cluster, base, pgas_spec=pgas_spec, collective_spec=collective_spec,
            sharded=sharded,
        )
        if cluster.n_devices != plan.n_devices:
            raise ValueError(
                f"cluster has {cluster.n_devices} devices, plan has {plan.n_devices}"
            )
        self.cluster = cluster
        self.table_plan = plan
        self.base_name = base
        self.sharded = sharded
        self._tables = sharded.tables_by_name() if sharded is not None else {}

    def weights_of(self, table_name: str) -> Optional[np.ndarray]:
        """A table's weight array, or None when timing only."""
        table = self._tables.get(table_name)
        return table.weights if table is not None else None

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ) -> ProcessGenerator:
        """The base engine's generator (a feature that changes the
        per-batch workloads or adds work overrides this)."""
        return self.inner.batch_process(
            cluster, workloads, timing, batch=batch, stream_suffix=stream_suffix
        )

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """The base strategy's numpy forward over the layer's weights."""
        return self.inner.functional_forward(batch)


register_backend(
    "pgas",
    functools.partial(BaseAdapter.for_host, base="pgas"),
    description="fused one-sided PGAS-style writes (compute/comm overlapped)",
)
register_backend(
    "baseline",
    functools.partial(BaseAdapter.for_host, base="baseline"),
    description="NCCL-style collective: compute, all-to-all, unpack",
)


class DistributedEmbedding:
    """Multi-GPU embedding retrieval with a pluggable communication backend."""

    def __init__(
        self,
        tables: Union[WorkloadConfig, Sequence[EmbeddingTableConfig]],
        n_devices: int,
        *,
        backend: BackendName = "pgas",
        sharding_strategy: Literal["contiguous", "round_robin"] = "contiguous",
        cluster: Optional[Cluster] = None,
        materialize: bool = False,
        collective_spec: Optional[CollectiveSpec] = None,
        pgas_spec: Optional[PGASSpec] = None,
        features: Optional[FeatureSpec] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        """``features`` is the :class:`~repro.core.factory.FeatureSpec`
        bundling every per-feature config: ``cache`` for the ``"+cache"``
        backends, ``resilience`` for ``"+resilient"``, ``compression``
        for ``"+compress"``, ``replication`` for ``"+replicated"``,
        ``reshard`` for ``"+reshard"``, ``hier`` for ``"+hier"`` (each
        ignored by the other backends), and ``obs`` — a
        :class:`repro.obs.TraceSpec` enabling trace-context propagation
        for any backend (None or ``enabled=False`` keeps every backend
        bit-identical to an untraced run).  It is the only way to pass
        feature configs — the legacy per-feature keywords (``cache=``,
        ``resilience=``, ``compression=``, ``replication=``, ``obs=``)
        completed their deprecation cycle and were removed.

        For a ``"+hier"`` backend with a configured node geometry and no
        explicit ``cluster``, a matching multi-node cluster (NVLink
        within nodes, NIC across) is built automatically."""
        backend_spec(backend)  # unknown names raise here
        self.features: FeatureSpec = features or FeatureSpec()
        if isinstance(tables, WorkloadConfig):
            table_configs = tables.table_configs()
        else:
            table_configs = list(tables)
        self.backend: BackendName = backend
        self.cluster = cluster or default_cluster(n_devices, backend, self.features)
        if self.cluster.n_devices != n_devices:
            raise ValueError(
                f"cluster has {self.cluster.n_devices} devices, asked for {n_devices}"
            )
        self.plan = TableWiseSharding(table_configs, n_devices, strategy=sharding_strategy)
        self.plan.validate()
        self.collective_spec = collective_spec
        self.pgas_spec = pgas_spec
        # Monotone batch counter for trace refs (one per traced forward).
        self._trace_seq = 0

        # Register weight storage with the per-device memory accountants.
        # The reshard executor mutates this map at migration cutover (frees
        # the old owner's buffer, installs the destination's), so it always
        # reflects where each table's weights are accounted *right now*.
        self.weight_buffers: Dict[str, Buffer] = {}
        for dev in self.cluster.devices:
            for cfg in self.plan.tables_on(dev.id):
                self.weight_buffers[cfg.name] = dev.memory.alloc(
                    (cfg.num_rows, cfg.dim),
                    cfg.dtype,
                    materialize=False,
                    label=f"weights.{cfg.name}",
                )

        self.sharded: Optional[ShardedEmbeddingTables] = None
        if materialize:
            ebc = EmbeddingBagCollection.from_configs(table_configs, rng=rng)
            self.sharded = ShardedEmbeddingTables.from_collection(ebc, self.plan)

        self._adapters: Dict[str, RetrievalBackend] = {}

    @classmethod
    def from_spec(cls, spec, **overrides) -> "DistributedEmbedding":
        """Build from a :class:`~repro.core.runspec.RunSpec`.

        ``overrides`` pass straight to the keyword constructor (e.g.
        ``backend=...`` for A/B runs or ``materialize=True`` for the
        functional path on the same spec).  Prefer
        :func:`repro.core.factory.build_backend`, which also pre-builds
        the adapter so composition errors surface immediately.
        """
        kwargs = dict(backend=spec.backend, features=spec.features())
        kwargs.update(overrides)
        return cls(spec.workload, spec.n_devices, **kwargs)

    # -- properties -------------------------------------------------------------

    @property
    def n_devices(self) -> int:
        """Device count."""
        return self.cluster.n_devices

    @property
    def materialized(self) -> bool:
        """Whether real weights (and functional outputs) are available."""
        return self.sharded is not None

    def memory_bytes(self, device_id: int) -> int:
        """Accounted embedding-weight bytes on one device."""
        return self.plan.memory_bytes(device_id)

    @property
    def cache(self) -> Optional[object]:
        """The instance backend's cache engine, if it has one (else None)."""
        adapter = self.backend_adapter(self.backend)
        return adapter if getattr(adapter, "caches", None) is not None else None

    # -- backend dispatch --------------------------------------------------------

    def backend_adapter(self, name: Optional[BackendName] = None) -> RetrievalBackend:
        """The (lazily created, then persistent) adapter for a backend."""
        be = name or self.backend
        adapter = self._adapters.get(be)
        if adapter is None:
            adapter = backend_spec(be).factory(self)
            self._adapters[be] = adapter
        return adapter

    # -- forward ----------------------------------------------------------------

    def _batch_trace_scope(self):
        """Context manager installing the next batch's trace ref (or a no-op).

        The entire synchronous ``cluster.run`` of one forward belongs to one
        batch, so scoping ``active_trace`` around the adapter call attributes
        every span the engine records — phase spans, kernel waves, link
        transfers — to that batch's :class:`~repro.simgpu.profiler.TraceRef`.
        """
        obs = self.features.obs
        if obs is None or not obs.enabled:
            return contextlib.nullcontext()
        from ..obs import trace_scope
        from ..simgpu.profiler import TraceRef

        ref = TraceRef(obs.trace_id, self._trace_seq)
        self._trace_seq += 1
        return trace_scope(self.cluster.profiler, ref)

    def build_workloads(
        self, lengths_by_feature: Mapping[str, np.ndarray]
    ) -> List[DeviceWorkload]:
        """Derive the per-device simulator workloads for one batch."""
        return build_device_workloads(self.plan, lengths_by_feature)

    def forward(self, batch: SparseBatch, backend: Optional[BackendName] = None) -> ForwardResult:
        """Run one batch: timed always; functional when materialised.

        ``backend`` overrides the instance default for this call — handy
        for A/B comparisons on identical inputs.
        """
        adapter = self.backend_adapter(backend)
        workloads = self.build_workloads(lengths_from_batch(batch))
        with self._batch_trace_scope():
            timing, outputs = adapter.forward(
                workloads, batch, functional=self.sharded is not None
            )
        return ForwardResult(timing=timing, outputs=outputs)

    def forward_timed(
        self,
        lengths_by_feature: Mapping[str, np.ndarray],
        backend: Optional[BackendName] = None,
    ) -> PhaseTiming:
        """Timing-only forward from pooling factors (paper-scale safe)."""
        be = backend or self.backend
        adapter = self.backend_adapter(be)
        if adapter.requires_indices:
            raise ValueError(
                f"backend {be!r} needs index values; use forward() with a SparseBatch"
            )
        workloads = self.build_workloads(lengths_by_feature)
        with self._batch_trace_scope():
            return adapter.run_timed(workloads)

    # -- telemetry --------------------------------------------------------------

    def telemetry_report(
        self,
        timing: Optional[PhaseTiming] = None,
        *,
        workload: Optional[WorkloadConfig] = None,
        **kwargs,
    ):
        """Full :class:`~repro.telemetry.RunReport` of the batches run so far.

        Derives gauges and metrics from the cluster's profiler record (so
        call it *after* the forward passes of interest; ``reset_profiler``
        between phases isolates them).  ``timing`` attaches an accumulated
        :class:`PhaseTiming`; extra ``kwargs`` pass to
        :func:`repro.telemetry.collect_run_report`.
        """
        from ..telemetry import collect_run_report

        return collect_run_report(
            self.cluster.profiler,
            backend=self.backend,
            n_devices=self.n_devices,
            workload=workload,
            timing=timing,
            topology=self.cluster.topology,
            **kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DistributedEmbedding backend={self.backend} G={self.n_devices} "
            f"T={self.plan.num_tables} materialized={self.materialized}>"
        )

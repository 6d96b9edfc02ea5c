"""Compressed distributed retrieval: the ``"+compress"`` backends.

:class:`CompressedRetrieval` wraps either base backend (``pgas`` or
``baseline``) with a row codec on the wire:

* the ``fp32`` codec is a **zero-overhead passthrough** — every call
  delegates to the unmodified base engine with the caller's own comm
  specs, so the timed path is event-for-event identical to the bare
  backend and the functional path is bit-identical;
* lossy codecs shrink every off-diagonal byte in the per-device
  workloads to the codec's wire size (payload + per-row scale), which
  automatically shrinks the baseline's all-to-all splits and unpack
  volume, the PGAS puts and their NVLink drag, and the per-message
  header count (one compressed vector per one-sided message — the PGAS
  spec's ``message_bytes`` is replaced by the codec's row wire bytes so
  each vector still pays exactly one header).

Compression is charged, not assumed free.  The **encode** pass is fused
into the EMB kernel: each device's kernel additionally streams its remote
fp32 outputs in and their wire form out (extra ``bytes_read`` /
``bytes_written`` on the same roofline), so waves retire — and PGAS puts
leave — correspondingly later.  The **decode** pass runs on the
*destination* device after the base pass completes: a memory-bound
kernel (launch + streamed bytes over achieved HBM bandwidth) priced by
:func:`~repro.compress.spec.compress_cost_model`, recorded as
``compress.decode.dev{g}`` spans and added to the ``sync_unpack`` phase.

The functional path mirrors :func:`~repro.core.functional.pgas_functional_forward`
but routes every *remote* slice through a real ``encode → decode``
round-trip, accumulating measured ``max_abs_error`` / RMSE against the
fp32 values and enforcing the spec's ``error_bound`` guard.  Counters
(``compress.bytes_on_wire``, ``compress.bytes_uncompressed``,
``compress.encode_ns``, ``compress.decode_ns``, error stats) feed
:func:`repro.telemetry.compute_metrics` and the run report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..comm.pgas import PGASSpec
from ..core.baseline import PhaseTiming
from ..core.functional import ShardedEmbeddingTables
from ..core.retrieval import FeatureLayer
from ..core.sharding import TableWiseSharding, minibatch_bounds
from ..core.workload import DeviceWorkload, unpack_bytes_received
from ..dlrm.batch import SparseBatch
from ..simgpu.cluster import Cluster
from .codec import Codec
from .spec import CompressionSpec

__all__ = [
    "CompressedRetrieval",
    "CompressionErrorStats",
    "WIRE_COUNTER",
    "RAW_COUNTER",
    "ENCODE_NS_COUNTER",
    "DECODE_NS_COUNTER",
    "MAX_ERROR_COUNTER",
    "SQ_ERROR_COUNTER",
    "ERROR_ELEMS_COUNTER",
]

#: Profiler counter names stamped by the timed path (also read by
#: ``repro.telemetry.metrics`` — keep the ``compress.`` prefix stable).
WIRE_COUNTER = "compress.bytes_on_wire"
RAW_COUNTER = "compress.bytes_uncompressed"
ENCODE_NS_COUNTER = "compress.encode_ns"
DECODE_NS_COUNTER = "compress.decode_ns"
#: counters stamped by the functional path (measured round-trip error)
MAX_ERROR_COUNTER = "compress.max_abs_error"
SQ_ERROR_COUNTER = "compress.sq_error"
ERROR_ELEMS_COUNTER = "compress.error_elems"


@dataclass
class CompressionErrorStats:
    """Measured round-trip error of the functional path."""

    max_abs_error: float = 0.0
    sq_error: float = 0.0
    n_elements: int = 0

    @property
    def rmse(self) -> float:
        """Root-mean-square error over every compared element."""
        if self.n_elements == 0:
            return 0.0
        return float(np.sqrt(self.sq_error / self.n_elements))

    def merge(self, other: "CompressionErrorStats") -> None:
        """Fold another batch's stats into this accumulator."""
        self.max_abs_error = max(self.max_abs_error, other.max_abs_error)
        self.sq_error += other.sq_error
        self.n_elements += other.n_elements


@dataclass
class _EncodeChargedWorkload(DeviceWorkload):
    """A workload whose kernel additionally streams the encode pass.

    ``codec_read_bytes`` (remote fp32 outputs re-read) and
    ``codec_write_bytes`` (their wire form written) inflate the roofline
    traffic of the inherited :meth:`DeviceWorkload.kernel_spec`, so the
    fused quantisation stretches the kernel — and delays wave retirement
    — instead of being a free pre-pass.
    """

    codec_read_bytes: float = 0.0
    codec_write_bytes: float = 0.0

    @property
    def bytes_read(self) -> float:
        return DeviceWorkload.bytes_read.fget(self) + self.codec_read_bytes

    @property
    def bytes_written(self) -> float:
        return DeviceWorkload.bytes_written.fget(self) + self.codec_write_bytes


class CompressedRetrieval(FeatureLayer):
    """A base retrieval backend with codec-compressed remote transfers.

    Standalone use takes a cluster plus sharding plan; as a registered
    backend (``"pgas+compress"``, ``"baseline+compress"``) it is built
    from an EMB host and its ``features.compression`` config.  Lossy
    codecs require all tables to share one float32 ``dim`` (one wire-row
    shape per cluster); the ``fp32`` passthrough accepts anything the base
    backend does.
    """

    def __init__(
        self,
        cluster: Cluster,
        plan: TableWiseSharding,
        spec: Optional[CompressionSpec] = None,
        *,
        base: str = "pgas",
        collective_spec=None,
        pgas_spec=None,
        sharded: Optional[ShardedEmbeddingTables] = None,
    ):
        self.spec = spec or CompressionSpec()
        self.codec: Codec = self.spec.codec_obj()
        self.passthrough = self.spec.codec == "fp32"
        self._row_wire_bytes: Optional[int] = None
        if not self.passthrough:
            dims = {t.dim for t in plan.table_configs}
            dtypes = {np.dtype(t.dtype) for t in plan.table_configs}
            if len(dims) != 1 or dtypes != {np.dtype(np.float32)}:
                raise ValueError(
                    "lossy compression needs tables sharing one dim with float32 weights"
                )
            self._dim = dims.pop()
            self._row_wire_bytes = self.codec.row_wire_bytes(self._dim)
            if base == "pgas":
                # One compressed vector per one-sided message: the per-row
                # scale rides in the same message and every vector still
                # pays exactly one wire header.
                pgas_spec = dataclasses.replace(
                    pgas_spec or PGASSpec(), message_bytes=self._row_wire_bytes
                )
        super().__init__(
            cluster, plan, base=base, collective_spec=collective_spec,
            pgas_spec=pgas_spec, sharded=sharded,
        )
        #: lifetime error accumulation across functional batches
        self.errors = CompressionErrorStats()
        #: error stats of the most recent functional batch (None before one)
        self.last_batch_errors: Optional[CompressionErrorStats] = None

    # -- workload scaling ---------------------------------------------------------

    def _scaled_workloads(
        self, workloads: Sequence[DeviceWorkload]
    ) -> List[DeviceWorkload]:
        """Workloads whose off-diagonal bytes shrink to codec wire bytes.

        Destination-byte entries are exact vector counts times
        ``row_wire_bytes`` (no float drift), the local column is left at
        fp32 size (local vectors never cross the wire), and the fused
        encode traffic is attached via :class:`_EncodeChargedWorkload`.
        """
        if self.passthrough:
            return list(workloads)
        row_wire = float(self._row_wire_bytes)
        out: List[DeviceWorkload] = []
        for wl in workloads:
            counts = wl.block_dst_bytes / float(wl.row_bytes)
            dst = counts * row_wire
            if dst.size:
                dst[:, wl.device_id] = wl.block_dst_bytes[:, wl.device_id]
            raw_remote = wl.remote_output_bytes
            fields = {f.name: getattr(wl, f.name) for f in dataclasses.fields(DeviceWorkload)}
            fields["block_dst_bytes"] = dst
            swl = _EncodeChargedWorkload(
                **fields,
                codec_read_bytes=raw_remote,
                codec_write_bytes=raw_remote / wl.row_bytes * row_wire,
            )
            out.append(swl)
        return out

    def wire_bytes_for(self, workloads: Sequence[DeviceWorkload]) -> Tuple[float, float]:
        """``(uncompressed, on_wire)`` remote payload bytes of one batch."""
        raw = float(sum(wl.remote_output_bytes for wl in workloads))
        if self.passthrough:
            return raw, raw
        scaled = self._scaled_workloads(workloads)
        return raw, float(sum(swl.remote_output_bytes for swl in scaled))

    # -- timed path ---------------------------------------------------------------

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ):
        """Process generator for one batch; decode is charged on the
        destinations.  ``stream_suffix`` passes through to the wrapped
        backend's per-batch stream set.  The fp32 passthrough is the bare
        base backend's events, spans, counters and timing."""
        if self.passthrough:
            yield from self.inner.batch_process(
                cluster, workloads, timing, stream_suffix=stream_suffix
            )
            return
        if len(workloads) != cluster.n_devices:
            raise ValueError(
                f"got {len(workloads)} workloads for {cluster.n_devices} devices"
            )
        engine = cluster.engine
        prof = cluster.profiler
        spec0 = cluster.devices[0].spec
        scaled = self._scaled_workloads(workloads)

        # Base pass over the shrunk workloads: the EMB kernels carry the
        # fused encode traffic, the wire moves codec bytes.
        yield from self.inner.batch_process(
            cluster, scaled, timing, stream_suffix=stream_suffix
        )

        # Decode pass: each destination dequantises what it received.
        t2 = engine.now
        encode_ns = 0.0
        decode_ns = 0.0
        dec_ops = []
        for dev, wl, swl in zip(cluster.devices, workloads, scaled):
            encode_ns += self.spec.encode_cost_ns(
                wl.remote_output_bytes, swl.remote_output_bytes, dev.spec
            )
            wire_in = unpack_bytes_received(scaled, dev.id)
            if wire_in <= 0:
                continue
            raw_in = unpack_bytes_received(workloads, dev.id)
            dec = self.spec.decode_cost_ns(raw_in, wire_in, dev.spec)
            decode_ns += dec
            stream = dev.stream("default" + stream_suffix)
            dec_ops.append(
                (
                    dev.id,
                    stream.submit_delay(
                        dev.spec.kernel_launch_overhead_ns + dec,
                        name=f"decode.dev{dev.id}",
                    ),
                )
            )
        if dec_ops:
            yield engine.all_of([op.done for _, op in dec_ops])
            yield engine.timeout(spec0.sync_overhead_ns)
            t3 = engine.now
            for dev_id, _op in dec_ops:
                prof.record_span(f"compress.decode.dev{dev_id}", "compress", dev_id, t2, t3)
            # The base pass assigned its phase fields; the decode tail is
            # extra staging on top of them.
            timing.sync_unpack_ns += t3 - t2
            timing.total_ns += t3 - t2
        self._stamp_counters(workloads, scaled, encode_ns, decode_ns)

    def _stamp_counters(
        self,
        workloads: Sequence[DeviceWorkload],
        scaled: Sequence[DeviceWorkload],
        encode_ns: float,
        decode_ns: float,
    ) -> None:
        prof = self.cluster.profiler
        t = self.cluster.engine.now
        raw = sum(wl.remote_output_bytes for wl in workloads)
        wire = sum(swl.remote_output_bytes for swl in scaled)
        prof.add_count(WIRE_COUNTER, t, float(wire), unit="bytes")
        prof.add_count(RAW_COUNTER, t, float(raw), unit="bytes")
        prof.add_count(ENCODE_NS_COUNTER, t, float(encode_ns), unit="ns")
        prof.add_count(DECODE_NS_COUNTER, t, float(decode_ns), unit="ns")

    # -- functional path ----------------------------------------------------------

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """Numpy forward with the real codec round-trip on remote slices.

        Local (``src == dst``) vectors never cross the wire and stay
        exact; remote slices go through ``encode → decode``.  Measured
        error statistics accumulate on :attr:`errors` /
        :attr:`last_batch_errors` and are stamped as ``compress.*``
        counters; a configured ``error_bound`` is enforced here.
        """
        if self.passthrough:
            return self.inner.functional_forward(batch)
        if self.sharded is None:
            raise ValueError("functional forward needs materialize=True weights")

        plan = self.table_plan
        G = plan.n_devices
        bounds = minibatch_bounds(batch.batch_size, G)
        F = plan.num_tables
        dim = self.sharded.dim
        stats = CompressionErrorStats()
        outputs = [
            np.zeros((hi - lo, F, dim), dtype=self.sharded.dtype) for lo, hi in bounds
        ]
        for src in range(G):
            cols = plan.feature_indices_on(src)
            for j, table in enumerate(self.sharded.per_device[src]):
                pooled = table.forward(batch.field(table.name))  # (B, d)
                for dst, (lo, hi) in enumerate(bounds):
                    rows = pooled[lo:hi]
                    if dst == src:
                        outputs[dst][:, cols[j], :] = rows
                        continue
                    decoded = self.codec.roundtrip(rows)
                    err = np.abs(decoded.astype(np.float64) - rows.astype(np.float64))
                    if err.size:
                        stats.max_abs_error = max(stats.max_abs_error, float(err.max()))
                        stats.sq_error += float(np.square(err).sum())
                        stats.n_elements += int(err.size)
                    outputs[dst][:, cols[j], :] = decoded
        if (
            self.spec.error_bound is not None
            and stats.max_abs_error > self.spec.error_bound
        ):
            raise ValueError(
                f"codec {self.codec.name!r} exceeded the configured error bound: "
                f"max |err| {stats.max_abs_error:.3e} > {self.spec.error_bound:.3e}"
            )
        self.errors.merge(stats)
        self.last_batch_errors = stats
        self._stamp_error_counters(stats)
        return outputs

    def _stamp_error_counters(self, stats: CompressionErrorStats) -> None:
        prof = self.cluster.profiler
        t = self.cluster.engine.now
        prof.add_count(MAX_ERROR_COUNTER, t, float(stats.max_abs_error), unit="abs")
        prof.add_count(SQ_ERROR_COUNTER, t, float(stats.sq_error), unit="abs^2")
        prof.add_count(ERROR_ELEMS_COUNTER, t, float(stats.n_elements), unit="elems")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CompressedRetrieval base={self.base_name} codec={self.codec.name} "
            f"G={self.cluster.n_devices}>"
        )

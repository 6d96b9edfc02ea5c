"""Communication compression subsystem: quantized embedding transfer.

The paper's speedup comes from changing *how* retrieval bytes move
(one-sided fine-grained writes vs. bulk all-to-all); this package adds
the complementary lever — moving *fewer* bytes.  Embedding rows are
quantised before they cross the interconnect and dequantised on arrival,
on **both** comm paths:

* :mod:`repro.compress.codec` — the :class:`Codec` ABC and concrete
  codecs (``fp32`` bit-identical passthrough, ``fp16``, row-wise scaled
  ``int8`` / ``int4``) with exact wire accounting (payload + per-row
  scale + PGAS per-message headers) and real numpy encode/decode;
* :mod:`repro.compress.spec` — the frozen :class:`CompressionSpec`
  (codec choice + hard error-bound guard) and
  :func:`compress_cost_model`, which prices encode/decode as
  memory-bound kernel passes — compression is not free;
* :mod:`repro.compress.retrieval` — :class:`CompressedRetrieval`, which
  fronts either base backend: the baseline's all-to-all splits and
  unpack volume and the PGAS puts all shrink to codec wire bytes, the
  encode pass is fused into the EMB kernel, and the decode pass is
  charged on the destination device.

The ``repro`` package registers the ``"pgas+compress"`` and
``"baseline+compress"`` backends (one feature-table entry in
:mod:`repro.core.factory`), so

>>> emb = DistributedEmbedding(cfg, n_devices=2, backend="pgas+compress",
...                            features=FeatureSpec(compression=CompressionSpec(codec="int8")))

works exactly like the uncompressed backends (``repro`` imports it for
you).
"""

from __future__ import annotations

from .codec import (
    CODEC_NAMES,
    Codec,
    EncodedRows,
    FP16Codec,
    FP32Codec,
    Int4Codec,
    Int8Codec,
    make_codec,
    roundtrip_error_report,
)
from .retrieval import (
    DECODE_NS_COUNTER,
    ENCODE_NS_COUNTER,
    ERROR_ELEMS_COUNTER,
    MAX_ERROR_COUNTER,
    RAW_COUNTER,
    SQ_ERROR_COUNTER,
    WIRE_COUNTER,
    CompressedRetrieval,
    CompressionErrorStats,
)
from .spec import CompressionSpec, compress_cost_model

__all__ = [
    "CODEC_NAMES",
    "Codec",
    "CompressedRetrieval",
    "CompressionErrorStats",
    "CompressionSpec",
    "DECODE_NS_COUNTER",
    "ENCODE_NS_COUNTER",
    "ERROR_ELEMS_COUNTER",
    "EncodedRows",
    "FP16Codec",
    "FP32Codec",
    "Int4Codec",
    "Int8Codec",
    "MAX_ERROR_COUNTER",
    "RAW_COUNTER",
    "SQ_ERROR_COUNTER",
    "WIRE_COUNTER",
    "compress_cost_model",
    "make_codec",
    "roundtrip_error_report",
]


"""Fault injection and resilient serving for the retrieval stack.

Real multi-GPU inference fleets see degraded NVLink lanes, flapping
links, straggling devices, and transient stalls; a retrieval tier that
crashes or blows every SLO the moment one is present is not deployable.
This package provides:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultEvent`:
  deterministic, seedable schedules of fault windows (bandwidth derates,
  latency spikes, link flaps, device slowdowns, stalls);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which plays a
  plan onto a live cluster as engine callbacks, with every window
  recorded as a profiler span (category ``"fault"``) visible in Chrome
  traces;
* :mod:`repro.faults.resilient` — :class:`ResilientRetrieval`, wrapping
  either base backend with per-batch deadlines, retries with exponential
  backoff, two-hop reroutes around downed links, and graceful
  degradation (hot-row fallback cache, then zero-fill) instead of
  failure.

The ``repro`` package registers the ``"pgas+resilient"`` and
``"baseline+resilient"`` backends (one feature-table entry in
:mod:`repro.core.factory`), so

>>> emb = DistributedEmbedding(cfg, n_devices=4, backend="pgas+resilient",
...                            features=FeatureSpec(resilience=ResilienceSpec(deadline_ns=2 * ms)))

works exactly like the base backends (``repro`` imports it for you).
With an empty plan and no deadline the wrapper is a zero-overhead
pass-through.
"""

from __future__ import annotations

from .injector import SPAN_CATEGORY, WINDOW_COUNTER, FaultInjector, pair_is_down
from .plan import DEVICE_KINDS, FAULT_KINDS, LINK_KINDS, FaultEvent, FaultPlan
from .resilient import BatchOutcome, ResilienceSpec, ResilientRetrieval

__all__ = [
    "BatchOutcome",
    "DEVICE_KINDS",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LINK_KINDS",
    "ResilienceSpec",
    "ResilientRetrieval",
    "SPAN_CATEGORY",
    "WINDOW_COUNTER",
    "pair_is_down",
]


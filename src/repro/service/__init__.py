"""The serving layer: a framed async compression service.

* :mod:`repro.service.protocol` — the FPRW wire frames (magic, version,
  request id, opcode, body) and their typed validation.
* :mod:`repro.service.server` — the asyncio daemon behind ``fprz serve``:
  bounded admission queue with BUSY backpressure, thread-pool codec
  offload, per-request deadlines, graceful drain.
* :mod:`repro.service.client` — the blocking client behind
  ``fprz remote`` and :func:`repro.api.connect`.
* :mod:`repro.service.endpoint` — the listener lifecycle, frame loop
  and background-thread harness the server, router and chaos proxy
  share.
* :mod:`repro.service.router` — the shard router behind ``fprz route``:
  consistent hashing across backends, health-checked failover, per-
  backend circuit breakers, load shedding.
* :mod:`repro.service.resilience` — retry policy (capped backoff, full
  jitter, budgets) and :class:`ResilientClient`, which survives dead
  connections and fails over across an address list.
* :mod:`repro.service.faults` — the deterministic seeded chaos proxy
  behind ``fprz chaos``.
* :mod:`repro.service.metrics` — the live counters/gauges/histograms
  served by the STATS opcode and ``fprz stats``.

The wire payloads are FPRZ containers — the exact bytes the offline
tools read and write — so the service adds framing, scheduling, and
observability around the existing format, never a second encoding.
Protocol v2 adds chunk-streamed transfers (bounded server memory via a
credit window), request pipelining over u64 correlation ids, and
per-tenant admission quotas — all negotiated over PING, so v1 peers
keep working byte-identically.
"""

from repro.core.incremental import StreamingCompressor, StreamingDecompressor
from repro.service.client import ServiceClient
from repro.service.endpoint import wait_for_port
from repro.service.faults import ChaosConfig, ChaosProxy, ChaosProxyThread
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import DEFAULT_MAX_FRAME, DEFAULT_PORT, FEATURES
from repro.service.resilience import ResilientClient, RetryPolicy
from repro.service.router import (
    DEFAULT_ROUTER_PORT,
    RouterConfig,
    RouterThread,
    ShardRouter,
)
from repro.service.server import CompressionServer, ServerThread, ServiceConfig

__all__ = [
    "ChaosConfig",
    "ChaosProxy",
    "ChaosProxyThread",
    "CompressionServer",
    "DEFAULT_MAX_FRAME",
    "DEFAULT_PORT",
    "DEFAULT_ROUTER_PORT",
    "FEATURES",
    "MetricsRegistry",
    "ResilientClient",
    "RetryPolicy",
    "RouterConfig",
    "RouterThread",
    "ServerThread",
    "ServiceClient",
    "ServiceConfig",
    "ShardRouter",
    "StreamingCompressor",
    "StreamingDecompressor",
    "wait_for_port",
]

"""``repro.api`` — the v2 public API of the SELF-SERV reproduction.

The package layers a declarative, non-blocking platform surface over the
peer-to-peer runtime:

* :class:`PlatformConfig` — declarative environment (transport choice,
  placement, default policies and timeouts),
* :class:`Platform` — the facade wiring editor, deployer and discovery,
  with fluent provider (:class:`ProviderSite`) and composer
  (:class:`Composition`) flows,
* :class:`Session` / :class:`ExecutionHandle` — handle-based execution:
  ``submit`` returns immediately, ``submit_many``/``gather`` fan batches
  of invocations out concurrently over the network,
* :class:`ResolvedBinding` — the typed address ``locate`` produces and
  ``submit`` accepts.

``PlatformConfig.perf`` (a :class:`~repro.perf.PerfConfig`) tunes the
fast path: the ``locate()`` cache, transport delivery batching and
zero-copy local dispatch (``docs/PERF.md``).  Routing plans are always
compiled at deploy time.
"""

from repro.api.config import PlatformConfig
from repro.api.fluent import Composition, ProviderSite
from repro.api.handles import ExecutionHandle, Session
from repro.api.platform import Platform
from repro.runtime.protocol import ExecutionResult, ResolvedBinding

__all__ = [
    "Composition",
    "ExecutionHandle",
    "ExecutionResult",
    "Platform",
    "PlatformConfig",
    "ProviderSite",
    "ResolvedBinding",
    "Session",
]

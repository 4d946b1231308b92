"""Query serving: concurrent sessions + the semantic cuboid cache.

The subsystem where queries, caching, maintenance, resilience, and
observability meet:

- :class:`CuboidCache` -- the lattice-aware semantic cache; answers
  CUBE/ROLLUP/GROUP BY queries from cached cuboids by Iter_super
  re-aggregation (:mod:`repro.serve.cache`);
- :class:`QueryServer` / :class:`QueryClient` -- the threaded TCP
  service and its line-delimited-JSON client
  (:mod:`repro.serve.server`, :mod:`repro.serve.client`);
- :class:`AsyncQueryServer` -- the asyncio front end: one event loop
  accepts the connections, and every request runs through the threaded
  server's own admission, dispatch and shutdown (:mod:`repro.serve.aio`);
- ``python -m repro.serve`` -- the CLI entry point (also hosts the CI
  smoke drivers: ``--smoke``, optionally ``--asyncio``).

See ``docs/SERVING.md`` for the protocol, the cache policy, and the
containment rules.
"""

from repro.serve.aio import AsyncQueryServer
from repro.serve.cache import CacheEntry, CachePolicy, CuboidCache
from repro.serve.client import QueryClient
from repro.serve.server import (
    AdmissionController,
    QueryServer,
    VersionedRWLock,
    classify_statement,
)

__all__ = [
    "AdmissionController",
    "AsyncQueryServer",
    "CacheEntry",
    "CachePolicy",
    "CuboidCache",
    "QueryClient",
    "QueryServer",
    "VersionedRWLock",
    "classify_statement",
]

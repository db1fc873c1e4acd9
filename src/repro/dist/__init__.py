"""Distributed multi-host sweeps: the ``repro dispatch`` coordinator.

The single-box substrate — locked v5 result caches, the batch engine,
and the ``repro serve`` scheduler — already guarantees that any sweep
leaves a cache byte-identical to a clean serial run.  This package
extends that invariant across machines: a coordinator shards the
uncached (machine, trace) matrix into batch *leases* over the serve
wire protocol (see ``PROTOCOL.md``), workers simulate into their
own locked caches, and the coordinator pulls the results back, stages
them in checksummed local shards, and folds them into its cache with
the same locked, atomic, key-sorted rewrite every sweep batch ends with.

Modules:

* :mod:`repro.dist.worker` — worker endpoints (``tcp:HOST:PORT`` or
  unix-socket paths) and the local subprocess pool behind
  ``repro dispatch --workers N``.
* :mod:`repro.dist.coordinator` — the coordinator proper: lease
  assignment, per-worker health tracking, seeded-backoff reassignment
  of jobs from lost workers, and the byte-deterministic fold-in, plus
  the ``dist-stats.json`` post-mortem snapshot surfaced by
  ``repro stats``.
"""

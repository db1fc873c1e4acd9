"""`repro serve`: a long-lived experiment service over the sweep substrate.

The paper's evaluation is a large (machine, trace) matrix; PRs 1-6
turned the simulator into a parallel, fault-tolerant, crash-safe batch
engine, but every invocation was still a one-shot CLI process.  This
package puts a long-lived asyncio service in front of that substrate so
*many concurrent clients* can share one simulation engine and one
result cache:

* :mod:`repro.serve.protocol` — the newline-delimited JSON wire format
  (framing limits, request validation, machine-spec parsing).
* :mod:`repro.serve.scheduler` — the deduplicating job scheduler:
  admission control, per-client quotas, cache-hit fast path, coalescing
  of identical in-flight jobs, and batch fan-out onto the existing
  :mod:`repro.sim.parallel` pool/retry/locking machinery.
* :mod:`repro.serve.server` — the asyncio front end (unix socket by
  default, TCP optional): per-client event streams, stale-socket
  reclaim, graceful drain on ``SIGTERM``.
* :mod:`repro.serve.client` — the blocking client used by
  ``repro submit`` and ``repro serve-status``.

The server snapshots its counters to ``serve-stats.json``
(:meth:`repro.obs.registry.CounterRegistry.write_snapshot`), which
feeds ``repro stats --json`` after the server exits.

The load-bearing invariant extends the repo-wide one: any mix of
concurrent clients leaves ``.repro_cache/`` byte-identical to a clean
serial run of the union of their jobs.  The scheduler guarantees it by
keeping the cache file *canonical* — after every batch the file is
rewritten (under the cache's advisory lock, atomically) with entries
sorted by job key, so the final bytes are a pure function of the job
*set*, never of client arrival order.
"""

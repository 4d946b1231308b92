"""The semantic cuboid cache: answer cube queries from cached cuboids.

Gray et al. §5's taxonomy is what makes answer reuse *sound*: for
distributive and algebraic aggregates, a coarser grouping set is an
``Iter_super`` fold over a finer cuboid, so a cached CUBE (or even a
plain GROUP BY core) can answer any later query whose grouping sets are
coarser-or-equal -- the containment/usability test Vassiliadis
formalizes for cube algebras.  Holistic aggregates (strict mode keeps
no mergeable scratchpad) can never be re-aggregated, so they bypass.

An entry is keyed **semantically**, not textually:

- the *source signature* -- the base/joined table names with their
  catalog versions, the WHERE predicate's structural repr, the join
  shape, and the ordered table-function keys.  A version moves on every
  DML through the catalog, so stale entries can never match again
  (explicit :meth:`CuboidCache.invalidate_table` additionally frees
  their memory immediately);
- the *dimension signatures* -- structural reprs of the grouping
  expressions, order-insensitive (a request's dims may be any subset,
  in any order, under any aliases);
- the *aggregate signatures* -- ``AggregateCall.key()`` tuples,
  subset-matched the same way.

The answering engine is :class:`~repro.compute.PartialCube` (the HRU
machinery): a miss that passes admission *computes the query through
it* -- one base scan on the columnar kernels builds the core, the
requested grouping sets fold from it, the request is answered from
those views, and the materialized handles (not the fact rows) stay
resident as the cache entry.  A later hit picks the cheapest containing
entry (fewest cells, most recently used on ties), folds its cheapest
materialized ancestor instead of rescanning the fact table, and
finalizes only the aggregates the request names -- which is where the
>=5x rows-scanned win comes from
(``repro_view_rows_scanned_total`` vs ``repro_cube_rows_scanned_total``).

Space is governed by the resilience cell accountant
(:class:`~repro.resilience.ExecutionContext`): every admitted entry
charges its materialized cells, and when residency exceeds the policy
budget, entries are evicted by **benefit-weighted LRU** -- lowest
``(hits+1) * benefit_per_hit / cells`` first, oldest use breaking ties
-- until the budget holds.

Thread safety: one re-entrant lock serializes probes, builds, and
invalidation; per-connection sessions in :mod:`repro.serve.server`
share a single cache instance behind it.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from repro.analysis import locktrack
from repro.compute.view_selection import PartialCube
from repro.core.grouping import Mask
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.errors import (
    DeltaRequiresInvalidationError,
    NotMergeableError,
    ResourceBudgetExceededError,
    ServeError,
)
from repro.obs import instrument, querylog, trace
from repro.resilience import context as rctx
from repro.resilience.context import ExecutionContext

__all__ = ["CachePolicy", "CacheEntry", "CuboidCache"]

#: A query's source signature: ((table, version), ...), WHERE repr,
#: join shape, ordered table-function keys.  Built by the SQL executor.
SourceSignature = tuple


@dataclass(frozen=True)
class CachePolicy:
    """Admission and eviction knobs.

    ``min_rows`` refuses to cache queries over tiny tables (the rescan
    is cheaper than the bookkeeping); ``admit_max_cells`` refuses
    cuboids whose materialized handles are too large to be worth
    keeping; ``max_dims`` bounds the lattice width a single entry may
    span; ``budget_cells`` is the cache-wide residency budget enforced
    by benefit-weighted LRU eviction (``None`` = unbounded).
    """

    min_rows: int = 0
    admit_max_cells: Optional[int] = None
    max_dims: int = 8
    budget_cells: Optional[int] = None


@dataclass
class CacheEntry:
    """One cached cuboid: the signatures it matches plus its engine."""

    source: SourceSignature
    dim_sigs: tuple[str, ...]
    dim_names: tuple[str, ...]
    agg_sigs: tuple[tuple, ...]
    agg_names: tuple[str, ...]
    engine: PartialCube
    cells: int
    base_rows: int
    hits: int = 0
    last_used: int = 0
    #: entry restored from a durable checkpoint rather than computed
    #: in this process; hits on it annotate the query log with
    #: ``recovered=True``
    recovered: bool = False
    dim_pos: dict = field(default_factory=dict)
    agg_pos: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.dim_pos = {sig: i for i, sig in enumerate(self.dim_sigs)}
        self.agg_pos = {sig: i for i, sig in enumerate(self.agg_sigs)}

    @property
    def benefit_per_hit(self) -> int:
        """Base rows a hit avoids rescanning (floor 1: any hit beats
        nothing)."""
        return max(self.base_rows - self.cells, 1)

    def score(self) -> float:
        """Eviction score: expected saved work per resident cell."""
        return (self.hits + 1) * self.benefit_per_hit / max(self.cells, 1)

    def can_answer(self, source: SourceSignature,
                   dim_sigs: Sequence[str],
                   agg_sigs: Sequence[tuple]) -> bool:
        """Containment: same source, request dims/aggs are subsets."""
        return (self.source == source
                and all(sig in self.dim_pos for sig in dim_sigs)
                and all(sig in self.agg_pos for sig in agg_sigs))

    def translate_mask(self, mask: Mask,
                       dim_sigs: Sequence[str]) -> Mask:
        """Map a request-side mask (bit i = request dim i grouped) onto
        this entry's dimension positions."""
        out = 0
        for i, sig in enumerate(dim_sigs):
            if mask & (1 << i):
                out |= 1 << self.dim_pos[sig]
        return out


class CuboidCache:
    """The shared, lattice-aware semantic cache (see module docstring).

    ``serve`` is the single entry point the SQL executor probes; it
    returns the answer table on a hit *or* on an admissible miss (the
    miss computes through :class:`PartialCube`, and the result both
    answers the query and becomes the entry), and ``None`` when the
    query must take the normal planning path (holistic aggregates,
    duplicate signatures, admission refusal, budget breach mid-build).
    """

    def __init__(self, policy: CachePolicy | None = None) -> None:
        self.policy = policy if policy is not None else CachePolicy()
        self._lock = threading.RLock()
        self._entries: dict[tuple, CacheEntry] = {}
        self._clock = 0
        # the resilience cell accountant doubles as the space meter;
        # no budget on the context itself -- eviction enforces ours
        self._accountant = ExecutionContext()
        self.counters = {"hits": 0, "misses": 0, "bypasses": 0,
                         "admitted": 0, "rejected": 0,
                         "evicted_space": 0, "evicted_invalidated": 0,
                         "delta_merged": 0, "delta_invalidated": 0}
        # (cube -> watched table names) so repeated watch() calls never
        # stack duplicate mutation listeners; weak keys let a dropped
        # cube's registration disappear with it
        self._watched: "weakref.WeakKeyDictionary[Any, set[str]]" = (
            weakref.WeakKeyDictionary())

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """The cache lock with lock-order sanitizer bookkeeping.

        Re-entrant like the RLock it wraps; the sanitizer recognises
        nested acquires and records no self-edge."""
        with self._lock:
            locktrack.note_acquire("serve.cache")
            try:
                yield
            finally:
                locktrack.note_release("serve.cache")

    # -- public surface ----------------------------------------------------

    def serve(self, *, table: Table, source: SourceSignature,
              dim_items: Sequence, dim_sigs: Sequence[str],
              dim_names: Sequence[str], specs: Sequence,
              agg_sigs: Sequence[tuple], agg_names: Sequence[str],
              masks: Sequence[Mask]) -> Optional[Table]:
        """Answer a grouped query from the cache, or compute-and-admit.

        Returns the grouped relation (dims in request order under
        request names, then aggregates) or ``None`` for bypass."""
        dim_sigs = tuple(dim_sigs)
        agg_sigs = tuple(agg_sigs)
        if self._bypasses(dim_sigs, agg_sigs, specs):
            self.counters["bypasses"] += 1
            instrument.record_cache_lookup("bypass")
            querylog.annotate(cache="bypass")
            return None
        with self._locked():
            self._clock += 1
            entry = self._probe(source, dim_sigs, agg_sigs)
            if entry is not None:
                return self._answer_hit(entry, dim_sigs, dim_names,
                                        agg_sigs, agg_names, masks)
            return self._answer_miss(table, source, dim_items, dim_sigs,
                                     dim_names, specs, agg_sigs,
                                     agg_names, masks)

    def invalidate_table(self, name: str) -> int:
        """Drop every entry derived from ``name``; returns the count.

        Version-keyed signatures already make stale entries unmatchable;
        this frees their memory eagerly (DML hooks and
        :meth:`watch` listeners call it)."""
        key = name.upper()
        dropped = 0
        with self._locked():
            for entry_key in list(self._entries):
                entry = self._entries[entry_key]
                if any(table_name == key
                       for table_name, _ in entry.source[0]):
                    self._evict(entry_key, reason="invalidated")
                    dropped += 1
        return dropped

    def watch(self, cube: Any, table_name: str) -> None:
        """Invalidate ``table_name``'s entries whenever the
        :class:`~repro.maintenance.MaterializedCube` mutates (its base
        table changes outside SQL DML).

        Idempotent per (cube, table): re-watching an already-watched
        pair registers nothing, so one mutation fires exactly one
        invalidation no matter how many times callers wired it up."""
        key = table_name.upper()
        with self._locked():
            watched = self._watched.setdefault(cube, set())
            if key in watched:
                return
            watched.add(key)
        cube.add_mutation_listener(
            lambda op: self.invalidate_table(key))

    def apply_delta(self, table_name: str, inserts: Sequence[tuple] = (),
                    deletes: Sequence[tuple] = (), *,
                    catalog: Any,
                    base_version: Optional[int] = None) -> dict[str, int]:
        """Fold a committed DML batch into every entry over ``table_name``
        instead of dropping them (Section 6 maintenance at the cache).

        ``inserts``/``deletes`` are raw source rows in the table's
        schema order; the catalog must already hold the batch, because
        surviving entries are re-keyed to its *post-batch* versions (the
        version-keyed source signature is what makes them matchable
        again).  Per entry the outcome is one of:

        - **merged** -- every aggregate absorbed the delta (insert
          folds, supported unapplies), the entry stays hot;
        - **invalidated** -- the entry is delta-ineligible (WHERE /
          join / table-function sources: delta rows cannot be filtered
          here) or a delete hit a delete-holistic scratchpad
          (:class:`~repro.errors.DeltaRequiresInvalidationError`); it
          is evicted exactly as :meth:`invalidate_table` would.

        ``base_version`` is the table's catalog version *before* the
        batch was applied.  When given, an entry whose stored version
        differs is invalidated rather than merged: it missed an earlier
        batch (a crashed flush, direct table mutation) and folding this
        delta into it would manufacture a state that never existed.

        Returns ``{"merged": n, "invalidated": m}`` and annotates the
        active query-log record with ``delta_merged`` so EXPLAIN
        ANALYZE and the ingest wire op surface the decision.
        """
        key = table_name.upper()
        merged = invalidated = 0
        with self._locked():
            with trace.span("cache.delta", table=key,
                            inserts=len(inserts),
                            deletes=len(deletes)) as span:
                for entry_key in list(self._entries):
                    entry = self._entries.get(entry_key)
                    if entry is None or all(
                            name != key for name, _ in entry.source[0]):
                        continue
                    if self._merge_delta(key, entry_key, entry, inserts,
                                         deletes, catalog=catalog,
                                         base_version=base_version):
                        merged += 1
                    else:
                        invalidated += 1
                self.counters["delta_merged"] += merged
                self.counters["delta_invalidated"] += invalidated
                span.set(merged=merged, invalidated=invalidated)
        querylog.annotate(delta_merged=merged > 0)
        return {"merged": merged, "invalidated": invalidated}

    def _delta_eligible(self, entry: CacheEntry) -> bool:
        """Entries a raw-row delta can be folded into: single-table
        sources with no WHERE/join/table-function shape (delta rows
        cannot be predicate-filtered at the cache), answered by an
        engine that kept its per-cell counts."""
        tables, where_sig, joins, tf_keys = entry.source
        if len(tables) != 1 or where_sig or joins or tf_keys:
            return False
        return isinstance(getattr(entry.engine, "_counts", None), dict)

    def _merge_delta(self, table_key: str, entry_key: tuple,
                     entry: CacheEntry,
                     inserts: Sequence[tuple], deletes: Sequence[tuple],
                     *, catalog: Any,
                     base_version: Optional[int] = None) -> bool:
        """Merge one entry (True) or evict it (False); lock held."""
        stored_version = dict(entry.source[0]).get(table_key)
        stale = (base_version is not None
                 and stored_version != base_version)
        if stale or not self._delta_eligible(entry):
            self._evict(entry_key, reason="invalidated")
            instrument.record_cache_delta("invalidated")
            return False
        try:
            ctx = rctx.current_context()
            if ctx is None:
                entry.engine.apply_delta(inserts, deletes)
            else:
                # restore the statement's resident count afterwards:
                # merged cells live on the cache accountant, not the
                # ingest request's budget
                with ctx.attempt():
                    entry.engine.apply_delta(inserts, deletes)
        except (DeltaRequiresInvalidationError,
                ResourceBudgetExceededError):
            self._evict(entry_key, reason="invalidated")
            instrument.record_cache_delta("invalidated")
            return False
        # re-key the entry to the post-batch catalog versions
        del self._entries[entry_key]
        self._accountant.release_cells(entry.cells)
        tables = tuple(
            (name, catalog.version(name) if name == table_key else version)
            for name, version in entry.source[0])
        entry.source = (tables,) + tuple(entry.source[1:])
        entry.cells = entry.engine.materialized_rows
        entry.base_rows = max(
            0, entry.base_rows + len(inserts) - len(deletes))
        new_key = (entry.source, entry.dim_sigs, entry.agg_sigs)
        self._entries[new_key] = entry
        self._accountant.charge_cells(entry.cells)
        self._enforce_budget(keep=new_key)
        instrument.set_cache_resident_cells(
            self._accountant.resident_cells)
        instrument.record_cache_delta("merged")
        return True

    def stats(self) -> dict:
        with self._locked():
            return {**self.counters,
                    "entries": len(self._entries),
                    "resident_cells": self._accountant.resident_cells}

    @property
    def change_token(self) -> int:
        """Monotone token that moves whenever the entry set changes
        (admissions + evictions); the server checkpoints the cache
        only when it has moved since the last checkpoint."""
        with self._locked():
            return (self.counters["admitted"]
                    + self.counters["evicted_space"]
                    + self.counters["evicted_invalidated"]
                    + self.counters["delta_merged"])

    # -- durable checkpointing ---------------------------------------------

    def dump_state(self) -> bytes:
        """Serialize the resident entries for a durable checkpoint.

        The entry list is snapshotted under the lock; the expensive
        pickling happens *outside* it (the serve package never blocks
        other statements on I/O-sized work while holding a lock).  An
        answering engine keeps no fact rows after its build, so a
        checkpoint carries cuboids, not a copy of the fact table.
        Entries whose scratchpads do not pickle (exotic UDAFs) are
        skipped, not fatal.
        """
        import dataclasses
        import pickle

        with self._locked():
            entries = list(self._entries.values())
        payload = []
        for entry in entries:
            try:
                payload.append(pickle.dumps(
                    dataclasses.replace(entry, hits=0), protocol=4))
            except Exception:  # noqa: BLE001 -- arbitrary user handles
                continue
        return pickle.dumps(payload, protocol=4)

    def restore_state(self, blob: bytes, *, catalog: Any) -> int:
        """Re-admit checkpointed entries; returns how many landed.

        Each entry is unpickled defensively and validated against the
        live catalog: every ``(table, version)`` in its source
        signature must match the catalog's current version, otherwise
        the table changed (or does not exist) since the checkpoint and
        the cuboid is silently dropped -- the containment key makes a
        stale entry unmatchable anyway, so dropping it just saves the
        memory.  Restored entries are marked ``recovered`` and start
        cold on the LRU clock.  Deserialization goes through the
        storage trust model's restricted unpickler
        (:mod:`repro.storage.serde`): a blob referencing globals
        outside the allowlist restores nothing instead of executing.
        """
        from repro.storage.serde import restricted_loads

        try:
            payload = restricted_loads(blob)
        except Exception:  # noqa: BLE001 -- a damaged blob restores nothing
            return 0
        restored = 0
        for raw in payload:
            try:
                entry = restricted_loads(raw)
            except Exception:  # noqa: BLE001
                continue
            if not isinstance(entry, CacheEntry):
                continue
            versions_ok = all(
                catalog.version(table_name) == version
                for table_name, version in entry.source[0])
            if not versions_ok:
                continue
            entry.recovered = True
            entry.hits = 0
            with self._locked():
                self._clock += 1
                entry.last_used = self._clock
                if self._admit(entry):
                    restored += 1
        return restored

    def clear(self) -> None:
        with self._locked():
            for entry_key in list(self._entries):
                self._evict(entry_key, reason="invalidated")

    def __len__(self) -> int:
        with self._locked():
            return len(self._entries)

    # -- probe / answer ----------------------------------------------------

    def _bypasses(self, dim_sigs: tuple, agg_sigs: tuple,
                  specs: Sequence) -> bool:
        if any(not spec.function.mergeable for spec in specs):
            return True  # holistic: no Iter_super re-aggregation
        if len(dim_sigs) > self.policy.max_dims:
            return True
        # duplicate signatures make the subset/permutation mapping
        # ambiguous (e.g. GROUP BY a, a under two aliases)
        if len(set(dim_sigs)) != len(dim_sigs):
            return True
        if len(set(agg_sigs)) != len(agg_sigs):
            return True
        return False

    def _probe(self, source: SourceSignature, dim_sigs: tuple,
               agg_sigs: tuple) -> Optional[CacheEntry]:
        """The cheapest containing entry: fewest resident cells, the
        most recently used breaking ties."""
        return min(
            (entry for entry in self._entries.values()
             if entry.can_answer(source, dim_sigs, agg_sigs)),
            key=lambda entry: (entry.cells, -entry.last_used),
            default=None)

    def _answer_hit(self, entry: CacheEntry, dim_sigs: tuple,
                    dim_names: Sequence[str], agg_sigs: tuple,
                    agg_names: Sequence[str],
                    masks: Sequence[Mask]) -> Table:
        entry.hits += 1
        entry.last_used = self._clock
        self.counters["hits"] += 1
        instrument.record_cache_lookup("hit")
        querylog.annotate(cache="hit")
        if entry.recovered:
            querylog.annotate(recovered=True)
        with trace.span("serve.answer", cache_hit=True,
                        grouping_sets=len(masks)) as span:
            scanned = 0
            strata: list[Table] = []
            positions = [entry.agg_pos[sig] for sig in agg_sigs]
            for mask in dict.fromkeys(masks):
                answered, cost = entry.engine.answer_with_cost(
                    entry.translate_mask(mask, dim_sigs), positions)
                scanned += cost
                strata.append(answered)
            result = self._project(entry, strata, dim_sigs, dim_names,
                                   agg_sigs, agg_names)
            span.set(rows_scanned=scanned, rows=len(result))
        querylog.add(rows_scanned=scanned)
        return result

    def _answer_miss(self, table: Table, source: SourceSignature,
                     dim_items: Sequence, dim_sigs: tuple,
                     dim_names: Sequence[str], specs: Sequence,
                     agg_sigs: tuple, agg_names: Sequence[str],
                     masks: Sequence[Mask]) -> Optional[Table]:
        self.counters["misses"] += 1
        instrument.record_cache_lookup("miss")
        querylog.annotate(cache="miss")
        if len(table) < self.policy.min_rows:
            return None  # not worth caching; normal path recomputes
        masks = tuple(dict.fromkeys(masks))
        try:
            # the query's own ExecutionContext (installed thread-locally
            # by the executor) meters the build; attempt() restores its
            # resident count afterwards so long-lived cache cells are
            # not billed against this one statement
            ctx = rctx.current_context()
            if ctx is None:
                engine = self._build_engine(table, dim_items, specs, masks)
            else:
                with ctx.attempt():
                    engine = self._build_engine(table, dim_items, specs,
                                                masks)
        except (NotMergeableError, ResourceBudgetExceededError):
            # over-budget builds fall back to the normal planning path,
            # which knows how to degrade to the external algorithm
            self.counters["bypasses"] += 1
            instrument.record_cache_lookup("bypass")
            querylog.annotate(cache="bypass")
            return None
        entry = CacheEntry(source=source, dim_sigs=dim_sigs,
                           dim_names=tuple(dim_names),
                           agg_sigs=agg_sigs,
                           agg_names=tuple(agg_names),
                           engine=engine,
                           cells=engine.materialized_rows,
                           base_rows=len(table),
                           last_used=self._clock)
        with trace.span("serve.answer", cache_hit=False,
                        grouping_sets=len(masks)) as span:
            positions = [entry.agg_pos[sig] for sig in agg_sigs]
            strata = [engine.answer(entry.translate_mask(m, dim_sigs),
                                    positions)
                      for m in masks]
            result = self._project(entry, strata, dim_sigs, dim_names,
                                   agg_sigs, agg_names)
            span.set(rows=len(result), admitted=self._admit(entry))
        return result

    def _build_engine(self, table: Table, dim_items: Sequence,
                      specs: Sequence,
                      masks: tuple[Mask, ...]) -> PartialCube:
        return PartialCube(table, list(dim_items), list(specs),
                           materialize=list(masks), universe=list(masks))

    def _project(self, entry: CacheEntry, strata: Sequence[Table],
                 dim_sigs: tuple, dim_names: Sequence[str],
                 agg_sigs: tuple, agg_names: Sequence[str]) -> Table:
        """Reorder/rename the entry's answer columns to the request:
        request dims (entry dims absent from the request are ALL-valued
        and dropped), then the request's aggregates -- which is all the
        strata carry, already in request order."""
        n_entry_dims = len(entry.dim_sigs)
        indexes = [entry.dim_pos[sig] for sig in dim_sigs]
        indexes += range(n_entry_dims, n_entry_dims + len(agg_sigs))
        names = list(dim_names) + list(agg_names)
        template = strata[0] if strata else None
        if template is None:
            raise ServeError("no strata to project")
        schema = Schema([template.schema.columns[i].renamed(name)
                         for i, name in zip(indexes, names)])
        return Table(schema, (row for stratum in strata
                              for row in stratum.pick(indexes)),
                     validate=False)

    # -- admission / eviction ----------------------------------------------

    def _admit(self, entry: CacheEntry) -> bool:
        policy = self.policy
        too_big = (policy.admit_max_cells is not None
                   and entry.cells > policy.admit_max_cells)
        over_budget = (policy.budget_cells is not None
                       and entry.cells > policy.budget_cells)
        if too_big or over_budget:
            self.counters["rejected"] += 1
            instrument.record_cache_admission("rejected")
            return False
        key = (entry.source, entry.dim_sigs, entry.agg_sigs)
        previous = self._entries.get(key)
        if previous is not None:
            self._accountant.release_cells(previous.cells)
        self._entries[key] = entry
        self._accountant.charge_cells(entry.cells)
        self.counters["admitted"] += 1
        instrument.record_cache_admission("admitted")
        self._enforce_budget(keep=key)
        instrument.set_cache_resident_cells(
            self._accountant.resident_cells)
        return True

    def _enforce_budget(self, *, keep: tuple) -> None:
        budget = self.policy.budget_cells
        if budget is None:
            return
        while (self._accountant.resident_cells > budget
               and len(self._entries) > 1):
            victim_key = min(
                (k for k in self._entries if k != keep),
                key=lambda k: (self._entries[k].score(),
                               self._entries[k].last_used))
            self._evict(victim_key, reason="space")

    def _evict(self, key: tuple, *, reason: str) -> None:
        entry = self._entries.pop(key)
        self._accountant.release_cells(entry.cells)
        self.counters[f"evicted_{reason}"] += 1
        instrument.record_cache_eviction(reason)
        instrument.set_cache_resident_cells(
            self._accountant.resident_cells)

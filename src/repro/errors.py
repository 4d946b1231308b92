"""Exception hierarchy for the data-cube reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one root type. Sub-hierarchies mirror the subsystems:
the relational engine, the aggregate framework, the cube operators, the
SQL front-end, and cube maintenance.
"""

from __future__ import annotations

import pickle as _pickle

from typing import Any, Sequence


class ReproError(Exception):
    """Root of every exception raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed or a column reference cannot be resolved."""


class TypeMismatchError(SchemaError):
    """A value does not conform to its column's declared type."""


class DuplicateColumnError(SchemaError):
    """Two columns in one schema share a name."""


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in the schema."""


class TableError(ReproError):
    """A table operation failed (arity mismatch, bad row, ...)."""


class ExpressionError(ReproError):
    """A scalar expression could not be evaluated."""


class AggregateError(ReproError):
    """An aggregate function was misused."""


class NotMergeableError(AggregateError):
    """``merge`` (the paper's Iter_super) was called on a holistic
    aggregate running in strict mode, which keeps no mergeable
    scratchpad (Section 5 of the paper)."""


class UnknownAggregateError(AggregateError):
    """An aggregate name is not present in the registry."""


class CubeError(ReproError):
    """A CUBE/ROLLUP operation was malformed."""


class GroupingError(CubeError):
    """A grouping specification is invalid (duplicate keys, empty CUBE...)."""


class AddressingError(CubeError):
    """A cube-cell address did not resolve to exactly one cell."""


class MixedTypeColumnError(CubeError):
    """One input column mixes mutually incomparable value types (e.g.
    ``int`` and ``str``), so an ordering-based step -- a sort run, a
    MIN/MAX comparison -- cannot proceed.  Raised at the compute
    boundary with the offending column named, instead of the bare
    ``TypeError`` the comparison would surface from deep inside an
    algorithm."""

    def __init__(self, column: str, type_names: Sequence[str],
                 algorithm: str = "") -> None:
        self.column = column
        self.type_names = list(type_names)
        self.algorithm = algorithm
        where = f" (algorithm: {algorithm})" if algorithm else ""
        super().__init__(
            f"column {column!r} mixes incomparable value types "
            f"[{', '.join(self.type_names)}]{where}; every value in one "
            "grouping or aggregate-input column must be comparable with "
            "the others")


class DecorationError(CubeError):
    """A decoration column is not functionally dependent on the
    grouping columns (Section 3.5)."""


class HierarchyError(ReproError):
    """A granularity graph operation failed (unknown level, no
    nesting path, cyclic edge) -- see
    :mod:`repro.warehouse.hierarchy`."""


class MaintenanceError(ReproError):
    """A materialized-cube maintenance operation failed."""


class DeleteRequiresRecomputeError(MaintenanceError):
    """A delete hit a cell whose aggregate is delete-holistic (Section 6);
    the caller must allow recomputation for the cube to stay correct."""


class DeltaRequiresInvalidationError(MaintenanceError):
    """A streamed delta cannot be folded into a cached cuboid -- a delete
    hit a delete-holistic scratchpad (e.g. the departing row held a MIN/MAX
    extreme) and the cuboid has no base rows to recompute from.  The serve
    cache answers this by invalidating the entry instead of merging."""


class SQLError(ReproError):
    """Root of SQL front-end errors."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None,
                 line: int | None = None, column: int | None = None) -> None:
        self.position = position
        self.line = line
        self.column = column
        location = ""
        if line is not None and column is not None:
            location = f" at line {line}, column {column}"
        super().__init__(f"{message}{location}")


class SQLPlanError(SQLError):
    """The parsed statement cannot be turned into an executable plan."""


class SQLExecutionError(SQLError):
    """Plan execution failed at runtime."""


class CLIUsageError(ReproError):
    """A command-line invocation problem shared by the repro CLIs
    (:mod:`repro.diagnostics`): empty ``--rules`` selections and similar.
    CLIs report the message and exit 2, never a traceback."""


class AnalysisError(ReproError):
    """The engine invariant analyzer (:mod:`repro.analysis`) was
    misused: unknown rule codes, nonexistent target paths, or an empty
    rule selection.  Findings themselves are reported as data, never
    raised."""


class LintError(ReproError):
    """Static analysis (:mod:`repro.lint`) found error-severity
    diagnostics and the caller asked for strict mode.

    Carries the offending :class:`~repro.lint.diagnostics.Diagnostic`
    records on :attr:`diagnostics` so callers can render or filter them;
    a bad rule selection raises it too, with one ``C000`` diagnostic.
    """

    def __init__(self, diagnostics: Sequence[Any]) -> None:
        self.diagnostics = list(diagnostics)
        detail = "; ".join(
            f"{getattr(d, 'code', '?')}: {getattr(d, 'message', d)}"
            for d in self.diagnostics)
        super().__init__(
            f"lint failed with {len(self.diagnostics)} error(s): {detail}")


class CatalogError(ReproError):
    """A catalog lookup or registration failed."""


class WorkloadError(ReproError):
    """A benchmark workload definition is inconsistent."""


class ObservabilityError(ReproError):
    """A tracing or metrics misuse (e.g. re-registering a metric name
    with a different kind, or decreasing a counter)."""


class ResilienceError(ReproError):
    """Root of runtime-resilience errors (:mod:`repro.resilience`);
    also raised directly for invalid resilience configuration
    (negative timeouts, out-of-range chaos rates)."""


class QueryCancelledError(ResilienceError):
    """The query's cancellation token was triggered; execution stopped
    cooperatively at the next checkpoint (lattice-node / partition /
    chunk boundary)."""


class QueryTimeoutError(QueryCancelledError):
    """The query's deadline (``statement_timeout``) passed.  A timeout
    is a cancellation, so ``except QueryCancelledError`` handles both;
    catch this subclass to treat deadline expiry specially."""


class ResourceBudgetExceededError(ResilienceError):
    """An in-flight computation exceeded its
    :class:`~repro.resilience.ExecutionContext` memory budget and could
    not degrade to the external (memory-bounded) algorithm -- either
    degradation was disabled or the aggregates are not mergeable."""


class ServeError(ReproError):
    """Root of query-serving errors (:mod:`repro.serve`): protocol
    violations, connection failures, server lifecycle misuse."""


class ServerOverloadedError(ServeError):
    """Admission control shed the request: the in-flight limit was
    reached and the wait queue was full.  Clients should back off and
    retry; the server stays healthy by refusing work instead of
    accepting unbounded concurrency."""


class ClusterError(ReproError):
    """Root of multi-process execution errors (:mod:`repro.cluster`):
    invalid pool configuration, malformed shared-memory slabs, or
    dispatch against a shut-down pool."""


class WorkerLostError(ClusterError):
    """A cluster worker *process* died or failed mid-partition (crash,
    SIGKILL, unhandled error).  Retried on a fresh process under the
    context's retry policy; exhausted retries surrender the partition
    for serial in-parent recovery, so a lone raise of this error means
    even recovery could not proceed."""


class FaultInjectedError(ResilienceError):
    """A deterministic fault from the chaos harness
    (:mod:`repro.resilience.chaos`).  Only ever raised when a
    :class:`~repro.resilience.ChaosInjector` is installed on the active
    execution context -- production paths never construct one."""


class CrashPointError(FaultInjectedError):
    """The chaos harness simulated a process crash (``kill -9``) at a
    named storage write-path site (``crash_point`` injection point).
    The crash-recovery tests catch this, abandon every in-memory
    object, reopen the data directory, and assert the recovered state
    is exactly the last committed one (docs/STORAGE.md)."""

    def __init__(self, site: str) -> None:
        self.site = site
        super().__init__(f"chaos: crash injected at {site}")


class StorageError(ReproError):
    """Root of durable-storage errors (:mod:`repro.storage`): invalid
    page sizes, out-of-range page ids, operations on a closed file,
    or a cube attached under a name whose on-disk spec signature
    belongs to a different cube definition."""


class TornPageError(StorageError):
    """A page's stored checksum does not match its contents -- the
    page was torn by a partial write (or corrupted at rest).  Readers
    raise instead of returning garbage; recovery treats the page as
    lost and falls back to the last checkpoint + WAL replay."""

    def __init__(self, page_id: int, path: str = "") -> None:
        self.page_id = page_id
        where = f" in {path}" if path else ""
        super().__init__(
            f"page {page_id}{where} failed its checksum: torn write "
            "detected; recover from the last checkpoint + WAL")


class WALCorruptError(StorageError):
    """The write-ahead log is damaged beyond the torn-tail contract:
    a record in the *interior* of the log (one with valid records
    after it at open time) failed its checksum, or ``verify()`` was
    asked to prove the log clean and found a torn tail.  An ordinary
    torn tail discovered at open is silently truncated, never
    raised -- this error means real corruption."""


class UntrustedPayloadError(StorageError, _pickle.UnpicklingError):
    """A storage blob references a global outside the deserialization
    allowlist (:mod:`repro.storage.serde`) -- the shape of a pickle
    code-execution gadget, refused before anything loads.  Subclasses
    :class:`pickle.UnpicklingError` so generic unpickling guards (the
    WAL's torn-tail scan, the cache's defensive restore) treat it as
    frame damage."""

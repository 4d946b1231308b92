"""Error-taxonomy integrity: every public exception class in
:mod:`repro.errors` is raised by at least one real code path.

The TRIGGERS table maps each class to a minimal reproduction.  A
parametrized test asserts the trigger raises the class; a completeness
test asserts no public exception lacks a trigger, so adding an error
class without a raising code path (or a test for it) fails here."""

import inspect

import pytest

from repro import errors


def _trigger_grouping_error():
    from repro.core.grouping import names_to_mask
    names_to_mask(["Engine"], ("Model", "Year"))


def _trigger_type_mismatch():
    from repro.engine.table import Table
    Table([("a", "INTEGER")]).append(("not an int",))


def _trigger_duplicate_column():
    from repro.engine.schema import Column, Schema
    from repro.types import DataType
    Schema([Column("a", DataType.INTEGER), Column("a", DataType.INTEGER)])


def _trigger_unknown_column():
    from repro.engine.table import Table
    Table([("a", "INTEGER")]).schema.column("missing")


def _trigger_schema_error():
    from repro.warehouse.dimension import DimensionTable
    from repro.engine.table import Table
    DimensionTable(Table([("id", "INTEGER")], [(1,), (1,)]), key="id")


def _trigger_table_error():
    from repro.engine.table import Table
    Table.from_dicts([])


def _trigger_expression_error():
    from repro.engine.expressions import ColumnRef
    ColumnRef("x").evaluate({})


def _trigger_aggregate_error():
    from repro.aggregates.approximate import ApproximateQuantile
    ApproximateQuantile(p=200)


def _trigger_not_mergeable():
    from repro.aggregates.holistic import Median
    strict = Median(carrying=False)
    strict.merge(strict.start(), strict.start())


def _trigger_unknown_aggregate():
    from repro.aggregates.registry import default_registry
    default_registry.create("FROBNICATE")


def _trigger_cube_error():
    from repro.compute.external import ExternalCubeAlgorithm
    ExternalCubeAlgorithm(memory_budget=0)


def _trigger_addressing_error():
    from repro import CubeView, Table, agg, cube
    table = Table([("a", "STRING"), ("x", "INTEGER")], [("p", 1)])
    view = CubeView(cube(table, ["a"], [agg("SUM", "x", "x")]), ["a"])
    view.v("p", "too", "many")


def _trigger_mixed_type_column():
    from repro import Table, agg, cube
    table = Table([("d", "STRING"), ("x", "ANY")],
                  [("p", 1), ("p", "mixed")])
    cube(table, ["d"], [agg("MIN", "x", "m")], algorithm="sort")


def _trigger_decoration_error():
    from repro.core.decorations import Decoration
    Decoration("nation", (), {})


def _trigger_hierarchy_error():
    from repro.warehouse.hierarchy import calendar_hierarchy
    calendar_hierarchy().roll_path("week", "month")


def _trigger_analysis_error():
    from repro.analysis import Analyzer
    Analyzer(rules=["S999"])


def _trigger_cli_usage_error():
    from repro.diagnostics import parse_rule_selection
    parse_rule_selection(", ,")


def _trigger_maintenance_error():
    from repro.engine.table import Table
    from repro.maintenance.materialized import MaterializedCube
    from repro import agg
    MaterializedCube(Table([("a", "STRING"), ("x", "INTEGER")], [("p", 1)]),
                     ["a"], [agg("SUM", "x", "x")], kind="pyramid")


def _trigger_delete_requires_recompute():
    from repro.engine.table import Table
    from repro.maintenance.materialized import MaterializedCube
    from repro import agg
    cube = MaterializedCube(
        Table([("a", "STRING"), ("x", "INTEGER")], [("p", 1), ("p", 2)]),
        ["a"], [agg("MAX", "x", "m")], retain_base=False)
    cube.delete(("p", 2))


def _trigger_delta_requires_invalidation():
    from repro.compute.view_selection import PartialCube
    from repro.engine.groupby import AggregateSpec
    from repro.engine.table import Table
    from repro.aggregates import Min
    cube = PartialCube(
        Table([("a", "STRING"), ("x", "INTEGER")], [("p", 1), ("p", 2)]),
        ["a"], [AggregateSpec(Min(), "x", "lo")],
        materialize=[1], universe=[1])
    cube.apply_delta((), [("p", 1)])  # MIN extreme departs: holistic


def _run_sql(sql):
    from repro.engine.catalog import Catalog
    from repro.sql.executor import SQLSession
    from repro.data import sales_summary_table
    session = SQLSession(Catalog())
    session.register("Sales", sales_summary_table())
    session.execute(sql)


def _trigger_sql_syntax():
    _run_sql("SELEC nothing;")


def _trigger_sql_plan():
    _run_sql("SELECT Model FROM Sales WHERE SUM(Units) > 1;")


def _trigger_sql_execution():
    _run_sql("INSERT INTO Sales VALUES (1);")


def _trigger_lint_error():
    from repro import agg, cube
    from repro.data import sales_summary_table
    cube(sales_summary_table(), ["Model", "Year"],
         [agg("MEDIAN", "Units", "m")], algorithm="from-core", strict=True)


def _trigger_catalog_error():
    from repro.engine.catalog import Catalog
    Catalog().get("missing")


def _trigger_workload_error():
    from repro.data.synthetic import SyntheticSpec
    SyntheticSpec(cardinalities=())


def _trigger_observability_error():
    from repro.obs.metrics import MetricsRegistry
    MetricsRegistry().counter("x_total").inc(-1)


def _trigger_resilience_error():
    from repro.resilience import ExecutionContext
    ExecutionContext(timeout=-1)


def _trigger_query_cancelled():
    from repro.resilience import ExecutionContext
    ctx = ExecutionContext()
    ctx.cancel("taxonomy test")
    ctx.check()


def _trigger_query_timeout():
    from repro.resilience import ExecutionContext
    ExecutionContext(timeout=0).check()


def _trigger_budget_exceeded():
    from repro.resilience import ExecutionContext
    ctx = ExecutionContext(memory_budget=1)
    ctx.charge_cells(2)


def _trigger_fault_injected():
    from repro.resilience import ChaosInjector
    ChaosInjector(worker_crash=1.0).inject("worker_crash")


def _trigger_crash_point():
    from repro.resilience import ChaosInjector
    ChaosInjector(crash_point=1.0,
                  crash_sites=("wal.commit",)).crash("wal.commit")


def _trigger_storage_error(tmp_path=None):
    import tempfile
    import os
    from repro.storage import PageFile
    with tempfile.TemporaryDirectory() as scratch:
        with PageFile(os.path.join(scratch, "t.pages")) as pages:
            pages.read_page(9999)  # out of range


def _trigger_torn_page():
    import tempfile
    import os
    from repro.storage import DEFAULT_PAGE_SIZE, PageFile
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "t.pages")
        with PageFile(path) as pages:
            page_id = pages.allocate()
            pages.write_page(page_id, b"payload")
            pages.sync_header()
        with open(path, "r+b") as handle:  # tear the page's second half
            handle.seek(page_id * DEFAULT_PAGE_SIZE + DEFAULT_PAGE_SIZE // 2)
            handle.write(b"\xff" * 64)
        with PageFile(path) as pages:
            pages.read_page(page_id)


def _trigger_wal_corrupt():
    import tempfile
    import os
    from repro.storage import WriteAheadLog
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "t.wal")
        with open(path, "wb") as handle:
            handle.write(b"this is not a WAL epoch record")
        WriteAheadLog(path)


def _trigger_untrusted_payload():
    import os
    import pickle
    from repro.storage.serde import restricted_loads
    restricted_loads(pickle.dumps(os.system, protocol=4))


def _trigger_cluster_error():
    from repro.cluster.slab import decode_slab
    decode_slab(bytearray(b"NOPE" + bytes(64)))


def _trigger_worker_lost():
    from repro.cluster.pool import ClusterPool
    from repro.resilience import ExecutionContext, RetryPolicy
    pool = ClusterPool(1)
    try:
        # a slab that never existed fails identically on every attempt:
        # the worker reports, retries exhaust, the partition surrenders
        spec = {"slab": "repro_slab_never_created", "start": 0, "end": 1,
                "core_dims": [0], "core_strides": [1],
                "kernels": [("sum", 0)], "deadline": None, "worker": 0,
                "chaos": None}
        ctx = ExecutionContext(retry=RetryPolicy(max_retries=0,
                                                 base_delay=0.0))
        [failed] = pool.run([spec], ctx=ctx)
        raise failed.error
    finally:
        pool.shutdown()


def _trigger_serve_error():
    import io
    from repro.serve.protocol import read_message
    read_message(io.BytesIO(b"not json\n"))


def _trigger_server_overloaded():
    from repro.serve import AdmissionController
    controller = AdmissionController(max_inflight=1, max_queue=0)
    with controller.slot():
        with controller.slot():
            pass


TRIGGERS = {
    errors.GroupingError: _trigger_grouping_error,
    errors.TypeMismatchError: _trigger_type_mismatch,
    errors.DuplicateColumnError: _trigger_duplicate_column,
    errors.UnknownColumnError: _trigger_unknown_column,
    errors.SchemaError: _trigger_schema_error,
    errors.TableError: _trigger_table_error,
    errors.ExpressionError: _trigger_expression_error,
    errors.AggregateError: _trigger_aggregate_error,
    errors.NotMergeableError: _trigger_not_mergeable,
    errors.UnknownAggregateError: _trigger_unknown_aggregate,
    errors.CubeError: _trigger_cube_error,
    errors.AddressingError: _trigger_addressing_error,
    errors.MixedTypeColumnError: _trigger_mixed_type_column,
    errors.DecorationError: _trigger_decoration_error,
    errors.HierarchyError: _trigger_hierarchy_error,
    errors.AnalysisError: _trigger_analysis_error,
    errors.CLIUsageError: _trigger_cli_usage_error,
    errors.MaintenanceError: _trigger_maintenance_error,
    errors.DeleteRequiresRecomputeError: _trigger_delete_requires_recompute,
    errors.DeltaRequiresInvalidationError:
        _trigger_delta_requires_invalidation,
    errors.SQLSyntaxError: _trigger_sql_syntax,
    errors.SQLPlanError: _trigger_sql_plan,
    errors.SQLExecutionError: _trigger_sql_execution,
    errors.LintError: _trigger_lint_error,
    errors.CatalogError: _trigger_catalog_error,
    errors.WorkloadError: _trigger_workload_error,
    errors.ObservabilityError: _trigger_observability_error,
    errors.ResilienceError: _trigger_resilience_error,
    errors.QueryCancelledError: _trigger_query_cancelled,
    errors.QueryTimeoutError: _trigger_query_timeout,
    errors.ResourceBudgetExceededError: _trigger_budget_exceeded,
    errors.FaultInjectedError: _trigger_fault_injected,
    errors.CrashPointError: _trigger_crash_point,
    errors.StorageError: _trigger_storage_error,
    errors.TornPageError: _trigger_torn_page,
    errors.WALCorruptError: _trigger_wal_corrupt,
    errors.UntrustedPayloadError: _trigger_untrusted_payload,
    errors.ClusterError: _trigger_cluster_error,
    errors.WorkerLostError: _trigger_worker_lost,
    errors.ServeError: _trigger_serve_error,
    errors.ServerOverloadedError: _trigger_server_overloaded,
    # pure umbrella types: never raised directly, covered by any subclass
    errors.ReproError: _trigger_grouping_error,
    errors.SQLError: _trigger_sql_syntax,
}

#: classes whose triggers legitimately raise a subclass
UMBRELLAS = {errors.ReproError, errors.SQLError}


def _public_exception_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, Exception)
            and cls.__module__ == errors.__name__]


def test_every_public_exception_has_a_trigger():
    missing = [cls.__name__ for cls in _public_exception_classes()
               if cls not in TRIGGERS]
    assert not missing, f"no taxonomy trigger for: {missing}"


@pytest.mark.parametrize(
    "cls", _public_exception_classes(), ids=lambda c: c.__name__)
def test_exception_is_raised_by_a_real_code_path(cls):
    with pytest.raises(cls) as info:
        TRIGGERS[cls]()
    if cls not in UMBRELLAS:
        assert type(info.value) is cls, (
            f"trigger for {cls.__name__} raised {type(info.value).__name__}")
    assert isinstance(info.value, errors.ReproError)


def test_hierarchy_roots():
    for cls in _public_exception_classes():
        assert issubclass(cls, errors.ReproError)
    # a timeout is catchable as a cancellation (documented contract)
    assert issubclass(errors.QueryTimeoutError, errors.QueryCancelledError)

"""The CUBE / ROLLUP / GROUP BY operators (Section 3) -- the public API.

``cube()`` is the paper's headline operator: the N-dimensional
generalization of GROUP BY, producing the core plus every
super-aggregate with ALL marking aggregated-out dimensions.
``rollup()`` produces just the N+1 prefix super-aggregates, and
``compound_groupby()`` is the full Section 3.2 clause --
``GROUP BY ... ROLLUP ... CUBE ...`` -- whose Figure 5 shape the
benchmarks reproduce.

All operators return plain relations (Section 1: "the novelty is that
cubes are relations"), so their outputs compose with every other
operator in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.aggregates.base import AggregateFunction
from repro.aggregates.registry import AggregateRegistry, default_registry
from repro.compute.base import CubeAlgorithm, CubeResult, build_task
from repro.compute.optimizer import choose_algorithm
from repro.core.all_value import to_null_mode
from repro.core.grouping import GroupingSpec, Mask, names_to_mask
from repro.engine.expressions import Expression
from repro.engine.groupby import AggregateSpec
from repro.engine.operators import filter_rows, sort as sort_op
from repro.engine.table import Table
from repro.errors import CubeError
from repro.obs import querylog
from repro.types import NullMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience import ExecutionContext

__all__ = [
    "AggregateRequest",
    "agg",
    "cube",
    "rollup",
    "groupby",
    "grouping_sets_op",
    "compound_groupby",
    "cube_with_stats",
]

DimSpec = "str | Expression | tuple[Expression, str]"


@dataclass
class AggregateRequest:
    """A requested aggregate: function (name or instance), input, alias.

    ``input`` is a column name, an expression, or ``"*"``; ``alias``
    defaults to ``FUNC(input)``.  Extra ``args`` go to the aggregate
    factory (e.g. ``AggregateRequest("PERCENTILE", "Temp", args=(90,))``).
    """

    function: str | AggregateFunction
    input: "str | Expression" = "*"
    alias: str | None = None
    args: tuple = ()

    def resolve(self, registry: AggregateRegistry) -> AggregateSpec:
        if isinstance(self.function, AggregateFunction):
            fn = self.function
        else:
            name = self.function
            if name.upper() == "COUNT" and self.input == "*":
                name = "COUNT(*)"
            fn = registry.create(name, *self.args)
        alias = self.alias
        if alias is None:
            if isinstance(self.input, str):
                input_label = self.input
            else:
                input_label = self.input.default_name()
            fn_label = fn.name if not fn.name.endswith("(*)") else "COUNT"
            alias = f"{fn_label}({input_label})"
        return AggregateSpec(function=fn, input=self.input, name=alias)


def agg(function: str | AggregateFunction, input: "str | Expression" = "*",
        alias: str | None = None, *args: Any) -> AggregateRequest:
    """Shorthand: ``agg('SUM', 'Units', 'Units')``."""
    return AggregateRequest(function=function, input=input, alias=alias,
                            args=tuple(args))


def _normalize_requests(
        aggregates: Sequence["AggregateRequest | AggregateSpec | tuple"],
        registry: AggregateRegistry) -> list[AggregateSpec]:
    specs: list[AggregateSpec] = []
    names: set[str] = set()
    for request in aggregates:
        if isinstance(request, AggregateSpec):
            spec = request
        elif isinstance(request, AggregateRequest):
            spec = request.resolve(registry)
        elif isinstance(request, tuple):
            spec = AggregateRequest(*request).resolve(registry)
        else:
            raise CubeError(f"cannot interpret aggregate request {request!r}")
        if spec.name in names:
            raise CubeError(f"duplicate aggregate output name {spec.name!r}")
        names.add(spec.name)
        specs.append(spec)
    if not specs:
        raise CubeError("at least one aggregate is required")
    return specs


def _run(table: Table,
         dims: Sequence,
         aggregates: Sequence,
         spec: GroupingSpec,
         *,
         kind: str,
         where: Expression | None,
         algorithm: "str | CubeAlgorithm | None",
         null_mode: NullMode,
         sort_result: bool,
         registry: AggregateRegistry | None,
         memory_budget: int | None,
         strict: bool = False,
         context: "ExecutionContext | None" = None) -> CubeResult:
    with querylog.track(kind):
        return _run_tracked(table, dims, aggregates, spec, where=where,
                            algorithm=algorithm, null_mode=null_mode,
                            sort_result=sort_result, registry=registry,
                            memory_budget=memory_budget, strict=strict,
                            context=context)


def _run_tracked(table: Table,
                 dims: Sequence,
                 aggregates: Sequence,
                 spec: GroupingSpec,
                 *,
                 where: Expression | None,
                 algorithm: "str | CubeAlgorithm | None",
                 null_mode: NullMode,
                 sort_result: bool,
                 registry: AggregateRegistry | None,
                 memory_budget: int | None,
                 strict: bool = False,
                 context: "ExecutionContext | None" = None) -> CubeResult:
    registry = registry or default_registry
    specs = _normalize_requests(aggregates, registry)
    if where is not None:
        table = filter_rows(table, where)
    if len(dims) != spec.n_dims:
        raise CubeError("dims must match the grouping specification")

    if strict:
        _lint_strict(table, dims, specs, algorithm, null_mode, registry,
                     plain=spec.plain, rollup=spec.rollup, cube=spec.cube)

    task = build_task(table, dims, specs, spec.grouping_sets())
    querylog.annotate(signature=querylog.cuboid_signature(
        tuple(task.dims), tuple(s.name for s in specs)))

    if not isinstance(algorithm, CubeAlgorithm):
        algorithm = choose_algorithm(task, algorithm=algorithm,
                                     memory_budget=memory_budget)
    result = algorithm.compute(task, context=context)
    out = result.table

    if sort_result:
        out = sort_op(out, list(task.dims))

    if null_mode is NullMode.NULL_WITH_GROUPING:
        out = to_null_mode(out, list(task.dims))

    querylog.add(rows=len(out))
    return CubeResult(table=out, stats=result.stats)


def _dim_names(dims: Sequence) -> tuple[str, ...]:
    from repro.engine.groupby import normalize_keys
    return tuple(alias for _, alias in normalize_keys(dims))


def _lint_strict(table: Table, dims: Sequence, specs: Sequence,
                 algorithm: "str | CubeAlgorithm | None",
                 null_mode: NullMode, registry: AggregateRegistry, *,
                 plain: Sequence[str] = (), rollup: Sequence[str] = (),
                 cube: Sequence[str] = ()) -> None:
    """Pre-execution lint gate for ``strict=True`` entry points.

    Lazy import keeps :mod:`repro.lint` out of the core import graph.
    """
    from repro.engine.groupby import normalize_keys
    from repro.lint import lint_cube_spec, require_clean
    require_clean(lint_cube_spec(
        table, normalize_keys(dims), list(specs),
        plain=plain, rollup=rollup, cube=cube,
        algorithm=algorithm if algorithm is not None else "auto",
        null_mode=null_mode, registry=registry))


def cube(table: Table, dims: Sequence, aggregates: Sequence, *,
         where: Expression | None = None,
         algorithm: "str | CubeAlgorithm | None" = "auto",
         null_mode: NullMode = NullMode.ALL_VALUE,
         sort_result: bool = True,
         registry: AggregateRegistry | None = None,
         memory_budget: int | None = None,
         strict: bool = False,
         context: "ExecutionContext | None" = None) -> Table:
    """The CUBE operator: GROUP BY ``dims`` plus all 2^N super-aggregates.

    >>> cube(sales, ["Model", "Year", "Color"], [agg("SUM", "Units")])

    produces the Figure 4 data cube: for N dims of cardinality Ci, a
    dense input yields exactly prod(Ci + 1) rows.
    """
    spec = GroupingSpec.for_cube(_dim_names(dims))
    return _run(table, dims, aggregates, spec, kind="cube", where=where,
                algorithm=algorithm, null_mode=null_mode,
                sort_result=sort_result, registry=registry,
                memory_budget=memory_budget, strict=strict,
                context=context).table


def rollup(table: Table, dims: Sequence, aggregates: Sequence, *,
           where: Expression | None = None,
           algorithm: "str | CubeAlgorithm | None" = "auto",
           null_mode: NullMode = NullMode.ALL_VALUE,
           sort_result: bool = True,
           registry: AggregateRegistry | None = None,
           memory_budget: int | None = None,
           strict: bool = False,
           context: "ExecutionContext | None" = None) -> Table:
    """The ROLLUP operator: the core plus the N prefix super-aggregates,

        (v1, ..., vn), (v1, ..., ALL), ..., (ALL, ..., ALL)

    -- "an N-dimensional roll-up will add only N records" beyond a
    plain GROUP BY per group prefix (Section 5).
    """
    spec = GroupingSpec.for_rollup(_dim_names(dims))
    return _run(table, dims, aggregates, spec, kind="rollup", where=where,
                algorithm=algorithm, null_mode=null_mode,
                sort_result=sort_result, registry=registry,
                memory_budget=memory_budget, strict=strict,
                context=context).table


def groupby(table: Table, dims: Sequence, aggregates: Sequence, *,
            where: Expression | None = None,
            null_mode: NullMode = NullMode.ALL_VALUE,
            sort_result: bool = True,
            registry: AggregateRegistry | None = None,
            strict: bool = False) -> Table:
    """Plain GROUP BY expressed through the same machinery (the paper:
    GROUP BY is the degenerate form of the CUBE operator)."""
    spec = GroupingSpec.for_groupby(_dim_names(dims))
    return _run(table, dims, aggregates, spec, kind="groupby", where=where,
                algorithm="naive-union", null_mode=null_mode,
                sort_result=sort_result, registry=registry,
                memory_budget=None, strict=strict).table


def compound_groupby(table: Table, *,
                     plain: Sequence = (),
                     rollup_dims: Sequence = (),
                     cube_dims: Sequence = (),
                     aggregates: Sequence,
                     where: Expression | None = None,
                     algorithm: "str | CubeAlgorithm | None" = "auto",
                     null_mode: NullMode = NullMode.ALL_VALUE,
                     sort_result: bool = True,
                     registry: AggregateRegistry | None = None,
                     memory_budget: int | None = None,
                     strict: bool = False,
                     context: "ExecutionContext | None" = None) -> Table:
    """The full Section 3.2 clause:

        GROUP BY <plain> ROLLUP <rollup_dims> CUBE <cube_dims>

    The Figure 5 example is ``plain=[Manufacturer]``,
    ``rollup_dims=[Year, Month, Day]``, ``cube_dims=[Color, Model]``.
    """
    dims = list(plain) + list(rollup_dims) + list(cube_dims)
    spec = GroupingSpec(plain=_dim_names(plain),
                        rollup=_dim_names(rollup_dims),
                        cube=_dim_names(cube_dims))
    return _run(table, dims, aggregates, spec, kind="compound", where=where,
                algorithm=algorithm, null_mode=null_mode,
                sort_result=sort_result, registry=registry,
                memory_budget=memory_budget, strict=strict,
                context=context).table


def grouping_sets_op(table: Table, dims: Sequence,
                     sets: Sequence[Sequence[str]],
                     aggregates: Sequence, *,
                     where: Expression | None = None,
                     algorithm: "str | CubeAlgorithm | None" = "auto",
                     null_mode: NullMode = NullMode.ALL_VALUE,
                     sort_result: bool = True,
                     registry: AggregateRegistry | None = None,
                     strict: bool = False) -> Table:
    """Arbitrary grouping sets (the generalization the SQL standard
    later adopted as GROUPING SETS): each entry of ``sets`` names the
    columns grouped in one stratum."""
    with querylog.track("grouping_sets"):
        return _grouping_sets_tracked(
            table, dims, sets, aggregates, where=where,
            algorithm=algorithm, null_mode=null_mode,
            sort_result=sort_result, registry=registry, strict=strict)


def _grouping_sets_tracked(table: Table, dims: Sequence,
                           sets: Sequence[Sequence[str]],
                           aggregates: Sequence, *,
                           where: Expression | None,
                           algorithm: "str | CubeAlgorithm | None",
                           null_mode: NullMode,
                           sort_result: bool,
                           registry: AggregateRegistry | None,
                           strict: bool) -> Table:
    registry = registry or default_registry
    specs = _normalize_requests(aggregates, registry)
    if where is not None:
        table = filter_rows(table, where)
    names = _dim_names(dims)
    masks = []
    seen: set[Mask] = set()
    for entry in sets:
        mask = names_to_mask(entry, names)
        if mask not in seen:
            seen.add(mask)
            masks.append(mask)
    if strict:
        # Arbitrary sets are a subset of the full cube lattice; lint the
        # covering CUBE (super-aggregates exist iff any stratum drops a dim).
        full = names_to_mask(names, names)
        has_super = any(mask != full for mask in masks)
        _lint_strict(table, dims, specs, algorithm, null_mode, registry,
                     cube=names if has_super else (),
                     plain=() if has_super else names)
    task = build_task(table, dims, specs, masks)
    querylog.annotate(signature=querylog.cuboid_signature(
        tuple(task.dims), tuple(s.name for s in specs)))
    if algorithm is None or algorithm == "auto":
        algorithm = "2^N"  # arbitrary sets run 2^N unless one is pinned
    if not isinstance(algorithm, CubeAlgorithm):
        algorithm = choose_algorithm(task, algorithm=algorithm)
    out = algorithm.compute(task).table
    if sort_result:
        out = sort_op(out, list(task.dims))
    if null_mode is NullMode.NULL_WITH_GROUPING:
        out = to_null_mode(out, list(task.dims))
    return out


def cube_with_stats(table: Table, dims: Sequence, aggregates: Sequence, *,
                    kind: str = "cube",
                    where: Expression | None = None,
                    algorithm: "str | CubeAlgorithm | None" = "auto",
                    null_mode: NullMode = NullMode.ALL_VALUE,
                    sort_result: bool = False,
                    registry: AggregateRegistry | None = None,
                    memory_budget: int | None = None,
                    strict: bool = False,
                    context: "ExecutionContext | None" = None) -> CubeResult:
    """Like :func:`cube` / :func:`rollup` but returning the
    :class:`~repro.compute.base.CubeResult` with its cost counters --
    what the benchmark harness uses to check Section 5's claims."""
    if kind == "cube":
        spec = GroupingSpec.for_cube(_dim_names(dims))
    elif kind == "rollup":
        spec = GroupingSpec.for_rollup(_dim_names(dims))
    elif kind == "groupby":
        spec = GroupingSpec.for_groupby(_dim_names(dims))
    else:
        raise CubeError(f"unknown kind {kind!r}; use cube/rollup/groupby")
    return _run(table, dims, aggregates, spec, kind=kind, where=where,
                algorithm=algorithm, null_mode=null_mode,
                sort_result=sort_result, registry=registry,
                memory_budget=memory_budget, strict=strict,
                context=context)

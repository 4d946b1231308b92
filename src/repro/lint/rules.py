"""The lint rules -- each one a static restatement of a paper argument.

=====  ======================  =========  ==============================
code   slug                    severity   paper grounding
=====  ======================  =========  ==============================
C001   holistic-merge          error      Section 5: no Iter_super for
                                          holistic functions; only the
                                          2^N-algorithm applies
C002   holistic-under-delete   warn/err   Section 6: MAX/MIN/MEDIAN are
                                          holistic for DELETE
C003   all-null-ambiguity      warning    Section 3.4: NULL-based ALL is
                                          ambiguous with real NULLs
C004   decoration-dependency   error      Section 3.5 / Table 7:
                                          decorations must be
                                          functionally dependent
C005   grouping-non-grouped    error      Section 3.4: GROUPING() only
                                          applies to grouping columns
C006   duplicate-grouping      error      Section 3.2: grouping lists
                                          must not repeat columns
C007   constant-grouping       warning    Section 3: a Ci=1 dimension
                                          doubles the cube for nothing
C008   udaf-no-itersuper       warning    Section 5 / Figure 7: without
                                          Iter_super, super-aggregation
                                          falls back to the
                                          2^N-algorithm
C009   cube-blowup             warning    Section 3: the Π(Ci+1)
                                          cardinality law
C010   unknown-function        error      the name resolves to no
                                          registered aggregate/function
=====  ======================  =========  ==============================

A rule is a function ``rule(ctx) -> Iterable[Diagnostic]`` registered
via :meth:`RULES.rule <repro.diagnostics.RuleSet.rule>`; :data:`RULES`
is the pack's :class:`~repro.diagnostics.RuleSet`.  Rules
must not mutate the context, its table, or any AST node (a property
test pins this).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.grouping import GroupingSpec
from repro.core.lattice import CubeLattice
from repro.diagnostics import Rule, RuleSet
from repro.errors import GroupingError, LintError
from repro.lint.context import MERGE_BASED_ALGORITHMS, LintContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.types import NullMode

__all__ = ["RULES"]


def _selection_error(message: str) -> LintError:
    return LintError([Diagnostic(code="C000", severity=Severity.ERROR,
                                 message=message)])


RULES = RuleSet(listing="{code}  {slug:<22} [{paper_section}] {summary}",
                error=_selection_error)


def _make(ctx: LintContext, registered: Rule, severity: Severity,
          message: str, *, columns: tuple[str, ...] = (),
          suggestion: str = "") -> Diagnostic:
    return Diagnostic(code=registered.code, severity=severity,
                      message=message, rule=registered.slug,
                      paper_section=registered.paper_section,
                      columns=columns, suggestion=suggestion,
                      span=ctx.span, statement_index=ctx.statement_index)


# -- C001 ----------------------------------------------------------------------


@RULES.rule("C001", "holistic-merge", paper_section="Section 5",
            summary="a holistic aggregate cannot run on a merge-based cube "
                    "algorithm")
def check_holistic_merge(ctx: LintContext) -> Iterator[Diagnostic]:
    """Section 5: "we know of no more efficient way of computing
    super-aggregates of holistic functions than the 2^N-algorithm."  A
    merge-based algorithm (from-core, pipesort, sort, parallel,
    external, array) derives super-aggregates via Iter_super, which a
    holistic function does not have; in strict mode the run would raise
    ``NotMergeableError``, in carrying mode the scratchpad is unbounded.
    """
    if ctx.algorithm not in MERGE_BASED_ALGORITHMS:
        return
    if not ctx.has_super_aggregates:
        return
    for info in ctx.aggregates:
        if info.holistic:
            yield _make(
                ctx, RULES["C001"], Severity.ERROR,
                f"holistic aggregate {info.name} cannot be computed by "
                f"the merge-based {ctx.algorithm!r} algorithm: no "
                "Iter_super exists for holistic functions",
                columns=(info.name,),
                suggestion="use algorithm='2^N' (or 'auto', which "
                           "routes holistic functions to it)")


# -- C002 ----------------------------------------------------------------------


@RULES.rule("C002", "holistic-under-delete", paper_section="Section 6",
            summary="the plan maintains a delete-holistic aggregate under "
                    "DELETE")
def check_holistic_under_delete(ctx: LintContext) -> Iterator[Diagnostic]:
    """Section 6: "max is distributive for SELECT and INSERT, but it is
    holistic for DELETE."  A maintenance plan that must absorb deletes
    of such an aggregate either recomputes cells from retained base data
    (expensive) or -- without retained base data -- fails outright.
    """
    if "delete" not in ctx.maintenance_ops \
            and "update" not in ctx.maintenance_ops:
        return
    for info in ctx.aggregates:
        if not info.delete_holistic:
            continue
        if ctx.retain_base:
            yield _make(
                ctx, RULES["C002"], Severity.WARNING,
                f"{info.name} is holistic under DELETE: every delete of "
                "a cell's extreme value forces recomputation from "
                "retained base data",
                columns=(info.name,),
                suggestion="prefer insert-only maintenance, or budget "
                           "for per-delete recomputation")
        else:
            yield _make(
                ctx, RULES["C002"], Severity.ERROR,
                f"{info.name} is holistic under DELETE and the plan "
                "does not retain base data: deletes will raise "
                "DeleteRequiresRecomputeError",
                columns=(info.name,),
                suggestion="set retain_base=True or drop "
                           f"{info.name} from the maintained cube")


# -- C003 ----------------------------------------------------------------------


@RULES.rule("C003", "all-null-ambiguity", paper_section="Section 3.4",
            summary="NULL-based ALL is ambiguous when grouping data "
                    "contains real NULLs")
def check_all_null_ambiguity(ctx: LintContext) -> Iterator[Diagnostic]:
    """Section 3.4's minimalist design represents ALL as NULL; the paper
    notes this "will not be able to distinguish the NULL ALL value from
    NULL values in the data" unless every consumer checks GROUPING().
    Fires when that representation is selected, a grouping column's data
    actually contains NULLs, and no GROUPING() call discriminates them.
    """
    if ctx.null_mode is not NullMode.NULL_WITH_GROUPING:
        return
    if not ctx.has_super_aggregates:
        return
    for name in ctx.dims:
        if name in ctx.grouping_calls:
            continue
        if ctx.column_has_nulls(name):
            yield _make(
                ctx, RULES["C003"], Severity.WARNING,
                f"grouping column {name!r} contains real NULLs; under "
                "the NULL-based ALL representation its super-aggregate "
                "rows are indistinguishable from the NULL group",
                columns=(name,),
                suggestion=f"select GROUPING({name}) alongside it, or "
                           "use the ALL-value representation")


# -- C004 ----------------------------------------------------------------------


@RULES.rule("C004", "decoration-dependency", paper_section="Section 3.5",
            summary="a decoration column must be functionally dependent on "
                    "grouping columns")
def check_decoration_dependency(ctx: LintContext) -> Iterator[Diagnostic]:
    """Section 3.5 / Table 7: a decoration is only well-defined when the
    aggregate tuple functionally defines it.  Two checks: (a) declared
    decorations whose data violates determinants -> dependent; (b) SQL
    columns that a select item, HAVING or ORDER BY reads and that are
    neither grouped nor aggregated (the dependency cannot be assumed).
    """
    for name in ctx.nongrouped_outputs:
        yield _make(
            ctx, RULES["C004"], Severity.ERROR,
            f"column {name!r} is neither grouped nor aggregated; "
            "unless it is functionally dependent on a grouping column "
            "its value is undefined in super-aggregate rows",
            columns=(name,),
            suggestion=f"add {name!r} to GROUP BY, aggregate it, or "
                       "attach it as a verified decoration")
    if ctx.table is None:
        return
    for decoration in ctx.decorations:
        missing = [d for d in decoration.determinants
                   if d not in ctx.table.schema]
        if missing or decoration.name not in ctx.table.schema \
                or callable(decoration.lookup):
            continue
        det_idx = [ctx.table.schema.index_of(d)
                   for d in decoration.determinants]
        dep_idx = ctx.table.schema.index_of(decoration.name)
        seen: dict[tuple, object] = {}
        for row in ctx.table:
            key = tuple(row[i] for i in det_idx)
            value = row[dep_idx]
            if key in seen and seen[key] != value:
                yield _make(
                    ctx, RULES["C004"], Severity.ERROR,
                    f"decoration {decoration.name!r} is not functionally "
                    f"dependent on {list(decoration.determinants)}: "
                    f"key {key!r} maps to both {seen[key]!r} and "
                    f"{value!r}",
                    columns=(decoration.name,) + decoration.determinants,
                    suggestion="group by the decoration column instead, "
                               "or repair the dimension data")
                break
            seen[key] = value


# -- C005 ----------------------------------------------------------------------


@RULES.rule("C005", "grouping-non-grouped", paper_section="Section 3.4",
            summary="GROUPING() applied to an expression that is not "
                    "grouped")
def check_grouping_non_grouped(ctx: LintContext) -> Iterator[Diagnostic]:
    """``GROUPING(col)`` discriminates the ALL rows of a *grouping*
    column (Section 3.4); applied to anything else it has no defined
    value and the executor rejects it at plan time.
    """
    dim_names = set(ctx.dims)
    seen: set[str] = set()
    for column in ctx.grouping_calls:
        if column not in dim_names and column not in seen:
            seen.add(column)
            yield _make(
                ctx, RULES["C005"], Severity.ERROR,
                f"GROUPING({column}) references a column that is not in "
                "the grouping clause",
                columns=(column,),
                suggestion=f"group by {column!r} or drop the "
                           "GROUPING() call")


# -- C006 ----------------------------------------------------------------------


@RULES.rule("C006", "duplicate-grouping", paper_section="Section 3.2",
            summary="a column appears more than once across the grouping "
                    "lists")
def check_duplicate_grouping(ctx: LintContext) -> Iterator[Diagnostic]:
    """The Section 3.2 clause concatenates plain + ROLLUP + CUBE lists
    into one dimension list; a repeated column makes the output schema
    ambiguous and the operators reject it.
    """
    for name in ctx.duplicate_dims:
        yield _make(
            ctx, RULES["C006"], Severity.ERROR,
            f"grouping column {name!r} appears more than once across "
            "the GROUP BY / ROLLUP / CUBE lists",
            columns=(name,),
            suggestion="list each grouping column exactly once")


# -- C007 ----------------------------------------------------------------------


@RULES.rule("C007", "constant-grouping", paper_section="Section 3",
            summary="a constant (cardinality-1) column in a CUBE/ROLLUP "
                    "list")
def check_constant_grouping(ctx: LintContext) -> Iterator[Diagnostic]:
    """By the Π(Ci+1) law a dimension with Ci=1 still contributes a
    factor of 2 to the cube: every cell is duplicated into an ALL twin
    carrying the same value.  A literal or single-valued grouping column
    doubles output and work for no information.
    """
    if ctx.duplicate_dims:
        return  # C006 already fired; cardinality math is moot
    for name in ctx.rollup + ctx.cube:
        if ctx.is_literal_dim(name):
            yield _make(
                ctx, RULES["C007"], Severity.WARNING,
                f"grouping column {name!r} is a constant expression; it "
                "doubles the cube without adding information",
                columns=(name,),
                suggestion=f"remove {name!r} from the grouping lists")
            continue
        cardinality = ctx.cardinality(name)
        total = ctx.total_rows or 0
        if cardinality == 1 and total > 1:
            yield _make(
                ctx, RULES["C007"], Severity.WARNING,
                f"grouping column {name!r} has a single distinct value "
                f"across {total} rows; its ALL rows duplicate the "
                "detail rows",
                columns=(name,),
                suggestion=f"drop {name!r} or move it to the plain "
                           "GROUP BY list")


# -- C008 ----------------------------------------------------------------------


@RULES.rule("C008", "udaf-no-itersuper", paper_section="Section 5",
            summary="super-aggregation of a function without Iter_super")
def check_udaf_no_itersuper(ctx: LintContext) -> Iterator[Diagnostic]:
    """Figure 7 extends user-defined aggregates with Iter_super so
    super-aggregates can be computed from sub-aggregates.  A function
    registered without it is treated as holistic: under automatic
    algorithm choice every grouping set is recomputed from base data
    (the 2^N-algorithm), costing N passes instead of one.
    """
    if ctx.algorithm not in ("auto", "2^N"):
        return  # explicit merge algorithms are C001's concern
    if not ctx.has_super_aggregates:
        return
    for info in ctx.aggregates:
        if info.function is None or info.mergeable:
            continue
        if info.user_defined:
            message = (f"user-defined aggregate {info.name} was "
                       "registered without Iter_super (merge_fn); "
                       "super-aggregation falls back to the "
                       "2^N-algorithm")
            suggestion = ("supply merge_fn to make_udaf / "
                          "register_aggregate so the from-core "
                          "algorithms apply")
        else:
            message = (f"holistic aggregate {info.name} has no usable "
                       "Iter_super; super-aggregation requires the "
                       f"2^N-algorithm over {ctx.grouping_set_count} "
                       "grouping sets")
            suggestion = ("consider an algebraic approximation "
                          "(e.g. APPROX_MEDIAN) if a near-answer "
                          "suffices")
        yield _make(ctx, RULES["C008"], Severity.WARNING, message,
                    columns=(info.name,), suggestion=suggestion)


# -- C009 ----------------------------------------------------------------------


@RULES.rule("C009", "cube-blowup", paper_section="Section 3",
            summary="the Π(Ci+1) estimate for the cube crosses the blow-up "
                    "threshold")
def check_cube_blowup(ctx: LintContext) -> Iterator[Diagnostic]:
    """Section 3 warns that "the cube operator can be very expensive":
    for N dimensions of cardinality Ci the full cube holds Π(Ci+1)
    cells.  Using declared or measured cardinalities and the lattice's
    per-grouping-set estimate, warn when the total crosses the
    configured threshold and suggest ROLLUP or a partial cube.
    """
    if not ctx.has_super_aggregates or ctx.duplicate_dims:
        return
    cardinalities: list[int] = []
    for name in ctx.dims:
        cardinality = ctx.cardinality(name)
        if cardinality is None:
            return  # no statistics -> stay silent rather than guess
        cardinalities.append(cardinality)
    try:
        spec = GroupingSpec(plain=ctx.plain, rollup=ctx.rollup,
                            cube=ctx.cube)
        lattice = CubeLattice(ctx.dims, spec.grouping_sets())
    except GroupingError:
        return
    estimate = sum(lattice.estimate_rows(mask, cardinalities)
                   for mask in lattice)
    if estimate <= ctx.blowup_threshold:
        return
    biggest = sorted(zip(cardinalities, ctx.dims), reverse=True)
    ranked = ", ".join(f"{name}={c}" for c, name in biggest[:3])
    yield _make(
        ctx, RULES["C009"], Severity.WARNING,
        f"estimated cube size {estimate} cells exceeds the blow-up "
        f"threshold {ctx.blowup_threshold} "
        f"({len(ctx.dims)} dimensions; largest: {ranked})",
        columns=ctx.dims,
        suggestion="replace CUBE with ROLLUP over the hierarchy, or "
                   "compute a partial cube via grouping_sets_op over "
                   "the sets you actually need")


# -- C010 ----------------------------------------------------------------------


@RULES.rule("C010", "unknown-function", paper_section="Section 1.2",
            summary="a function name resolves to no registered aggregate or "
                    "scalar function")
def check_unknown_function(ctx: LintContext) -> Iterator[Diagnostic]:
    """The Illustra-style registry (Section 1.2) is the single source of
    aggregate names; a name missing from it fails at plan or evaluation
    time.  Statically: aggregate requests whose name is unknown, and
    DISTINCT applied to a non-COUNT aggregate (unsupported).
    """
    for info in ctx.aggregates:
        if info.known:
            continue
        if info.name.startswith("DISTINCT "):
            yield _make(
                ctx, RULES["C010"], Severity.ERROR,
                f"{info.name.split(' ', 1)[1]}(DISTINCT ...) is not "
                "supported; DISTINCT applies only to COUNT",
                columns=(info.name,),
                suggestion="use COUNT(DISTINCT col) or drop DISTINCT")
        else:
            yield _make(
                ctx, RULES["C010"], Severity.ERROR,
                f"unknown aggregate {info.name!r}: not present in the "
                "aggregate registry",
                columns=(info.name,),
                suggestion="register it via register_aggregate / "
                           "make_udaf, or fix the spelling")
    for name in ctx.unknown_functions:
        yield _make(
            ctx, RULES["C010"], Severity.ERROR,
            f"unknown function {name!r}: not an aggregate, table "
            "function, scalar function, or select alias",
            columns=(name,),
            suggestion="register it (register_aggregate or "
                       "scalar_functions.register) or fix the spelling")

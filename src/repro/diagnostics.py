"""One diagnostics core for the two rule packs and the repro CLIs.

:mod:`repro.lint` checks *queries and plans* against the paper's
validity conditions (C001-C010); :mod:`repro.analysis` checks the
*engine's own source* against its cross-cutting contracts (S001-S010).
Both are the same machine, which lives here once:

- :class:`Severity` -- how bad a finding is;
- :class:`Report` -- an ordered collection of findings with the
  filtering and text/JSON rendering every surface uses.  Each pack
  subclasses it to name its sort order and JSON keys, and keeps its own
  record type (a SQL-spanned :class:`~repro.lint.diagnostics.Diagnostic`
  or a ``path:line`` :class:`~repro.analysis.diagnostics.Finding`);
- :class:`RuleSet` -- the code -> :class:`Rule` registry, its ``rule()``
  decorator and the one selection rule (:meth:`RuleSet.select`);
- the command-line skeleton (:func:`run_cli`) with the stable exit
  codes, ``--format``, ``--rules`` and ``--list-rules``, and the one
  stdout path (:func:`write`) that ``python -m repro.obs`` shares.

Exit codes (stable, for CI gating): ``0`` no error findings (warnings
allowed), ``1`` error findings, ``2`` usage problems (bad flag,
unreadable path, unknown or empty rule selection) -- reported as a
one-line message, never a traceback.  A closed stdout (a pager or
``head`` that quit early) changes none of them.
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import sys
from dataclasses import dataclass, field
from typing import (Any, Callable, ClassVar, Dict, Generic, Iterable,
                    Iterator, Optional, Protocol, Sequence, TypeVar)

from repro.errors import CLIUsageError, ReproError

__all__ = ["EXIT_FINDINGS", "EXIT_OK", "EXIT_USAGE", "Report", "Rule",
           "RuleSet", "Severity", "add_format_argument",
           "parse_rule_selection", "run_cli", "write"]

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings describe plans or code that are wrong or will
    fail at runtime; strict mode raises on them and the CLIs exit 1.
    ``WARNING`` findings describe plans that run but mislead or blow up
    (ALL/NULL ambiguity, cube size); they never block.  ``INFO``
    findings are advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    def __str__(self) -> str:
        return self.value


class Record(Protocol):
    """What a :class:`Report` needs of one finding."""

    @property
    def code(self) -> str: ...

    @property
    def severity(self) -> Severity: ...

    def format_line(self, *, location: str = "") -> str: ...

    def to_dict(self) -> dict[str, Any]: ...


R = TypeVar("R", bound=Record)


@dataclass
class Report(Generic[R]):
    """An ordered collection of findings for one run.

    Iteration yields findings in the order they were produced; the
    renderings order them by the pack's :meth:`sort_key`.
    """

    #: the JSON keys of the finding list and of the run's location
    records_key: ClassVar[str]
    location_key: ClassVar[str]

    records: list[R] = field(default_factory=list)

    @staticmethod
    def sort_key(record: Any) -> tuple:
        raise NotImplementedError

    def append(self, record: R) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[R]) -> None:
        self.records.extend(records)

    def errors(self) -> list[R]:
        return [r for r in self.records if r.severity is Severity.ERROR]

    def warnings(self) -> list[R]:
        return [r for r in self.records if r.severity is Severity.WARNING]

    def codes(self) -> set[str]:
        return {r.code for r in self.records}

    def ordered(self) -> list[R]:
        return sorted(self.records, key=self.sort_key)

    @property
    def clean(self) -> bool:
        """True when no findings at all were produced."""
        return not self.records

    @property
    def ok(self) -> bool:
        """True when no *error*-severity findings were produced."""
        return not self.errors()

    def format_text(self, *, location: str = "") -> str:
        if self.clean:
            prefix = f"{location}: " if location else ""
            return f"{prefix}clean"
        return "\n".join(r.format_line(location=location)
                         for r in self.ordered())

    def format_json(self, *, location: str = "") -> str:
        payload: dict[str, Any] = {
            self.records_key: [r.to_dict() for r in self.ordered()],
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "ok": self.ok,
        }
        if location:
            payload[self.location_key] = location
        return json.dumps(payload, indent=2)

    def __iter__(self) -> Iterator[R]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)


@dataclass(frozen=True)
class Rule:
    """One registered rule: a stable code, catalogue metadata, and the
    check itself (a pure function of the pack's context returning its
    findings).  Query rules name the ``paper_section`` they restate;
    engine rules name their catalogue ``severity``."""

    code: str
    slug: str
    summary: str
    fn: Callable[[Any], Iterable[Any]]
    paper_section: str = ""
    severity: str = ""


class RuleSet(Dict[str, Rule]):
    """A pack's rules by code.

    ``listing`` renders one ``--list-rules`` line from a rule's fields;
    ``error`` builds the pack's exception for a bad selection.
    """

    def __init__(self, *, listing: str,
                 error: Callable[[str], Exception]) -> None:
        super().__init__()
        self.listing = listing
        self.error = error

    def rule(self, code: str, slug: str, *, summary: str,
             **meta: str) -> Callable[[Callable], Callable]:
        """Register the decorated check under ``code``."""
        def decorate(fn: Callable) -> Callable:
            self[code] = Rule(code=code, slug=slug, summary=summary,
                              fn=fn, **meta)
            return fn
        return decorate

    def select(self, codes: Optional[Iterable[str]] = None, *,
               error: Optional[Callable[[str], Exception]] = None
               ) -> list[Rule]:
        """The rules to run: all of them (in code order) for ``None``,
        else the named ones in the given order, codes case-insensitive.

        An empty selection raises: a run of zero rules can only ever say
        "clean", which is a lie waiting for a CI pipeline to believe it.
        Unknown codes raise too, so a typo fails loudly instead of
        silently running a subset.  ``error`` overrides the pack's
        exception (the CLI raises a usage error).
        """
        if codes is None:
            return [self[code] for code in sorted(self)]
        error = error or self.error
        wanted = [code.upper() for code in codes]
        if not wanted:
            raise error("empty rule selection; name at least one "
                        "code or select all")
        unknown = sorted(set(wanted) - set(self))
        if unknown:
            raise error(
                f"unknown rule code(s): {', '.join(unknown)}; known "
                f"codes are {', '.join(sorted(self))}")
        return [self[code] for code in wanted]

    def catalogue(self) -> str:
        """The ``--list-rules`` text: one line per rule, in code order."""
        return "\n".join(self.listing.format_map(vars(self[code]))
                         for code in sorted(self))


# -- command line --------------------------------------------------------------


def write(text: str) -> None:
    """Print ``text`` to stdout, the one output path of the repro CLIs.

    A reader that has gone away (``| head``, a closed pager) ends the
    output, not the run: stdout is pointed at the null device so later
    writes and the interpreter's final flush succeed, and the caller
    still returns the exit code it computed.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def add_format_argument(parser: argparse.ArgumentParser) -> None:
    """The ``--format json|text`` flag of every repro CLI."""
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")


def parse_rule_selection(text: Optional[str]) -> Optional[list[str]]:
    """Parse a ``--rules`` value into a code list.

    ``None`` (flag absent) selects every rule and returns ``None``.  An
    explicitly empty selection (``--rules ""`` or ``--rules ,``) raises
    :class:`CLIUsageError`, for the reason :meth:`RuleSet.select` gives.
    """
    if text is None:
        return None
    codes = [code.strip().upper() for code in text.split(",")
             if code.strip()]
    if not codes:
        raise CLIUsageError(
            "--rules selected no rules; pass at least one code "
            "(e.g. --rules S001,S007) or drop the flag to run all")
    return codes


def _usage(error: BaseException) -> int:
    print(f"error: {error}", file=sys.stderr)
    return EXIT_USAGE


def run_cli(argv: Optional[Sequence[str]], *, prog: str, description: str,
            paths_help: str, no_paths: str, rules: RuleSet,
            add_arguments: Callable[[argparse.ArgumentParser], None],
            reports: Callable[[argparse.Namespace, Optional[list[str]]],
                              Iterable[tuple[Report, str]]],
            tally: bool = False) -> int:
    """The rule-pack command line: parse, select, report, exit.

    ``add_arguments`` adds the pack's own flags.  ``reports(args,
    codes)`` checks the pack's configuration when called -- a
    :class:`~repro.errors.ReproError` or :class:`OSError` there is a
    usage problem -- and returns ``(report, location)`` pairs, each
    written as it arrives; a :class:`CLIUsageError` raised mid-way (an
    unreadable path) stops the run.  ``tally`` follows each non-clean
    text report with its error and warning counts.
    """
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("paths", nargs="*", help=paths_help)
    parser.add_argument("--rules", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    add_format_argument(parser)
    add_arguments(parser)
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on usage errors, 0 on --help: preserve both
        return int(exit_.code or 0)

    if args.list_rules:
        write(rules.catalogue())
        return EXIT_OK
    if not args.paths:
        parser.print_usage(sys.stderr)
        print(f"error: {no_paths}", file=sys.stderr)
        return EXIT_USAGE

    try:
        codes = parse_rule_selection(args.rules)
        rules.select(codes, error=CLIUsageError)
        runs = reports(args, codes)
    except (ReproError, OSError) as error:
        return _usage(error)
    failed = False
    try:
        for report, location in runs:
            if args.format == "json":
                write(report.format_json(location=location))
            elif tally and report:
                write(f"{report.format_text(location=location)}\n"
                      f"{len(report.errors())} error(s), "
                      f"{len(report.warnings())} warning(s)")
            else:
                write(report.format_text(location=location))
            failed = failed or not report.ok
    except CLIUsageError as error:
        return _usage(error)
    return EXIT_FINDINGS if failed else EXIT_OK

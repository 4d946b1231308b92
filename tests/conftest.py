"""Shared fixtures: the paper's datasets, common helper tables, and
the opt-in lock-order sanitizer (``REPRO_SANITIZE=1``)."""

from __future__ import annotations

import os

import pytest

from repro import Table
from repro.data import (
    chevy_sales_table,
    figure4_sales_table,
    sales_summary_table,
    weather_table,
)

#: When truthy, every test runs under the serve-layer lock sanitizer
#: and fails on any lock-order cycle or held-across-blocking hazard.
SANITIZE = os.environ.get("REPRO_SANITIZE") == "1"


@pytest.fixture(scope="session", autouse=True)
def _sanitizer_session():
    """Install the process-global LockTracker for the whole run."""
    if not SANITIZE:
        yield
        return
    from repro.analysis import locktrack
    tracker = locktrack.install()
    try:
        yield
    finally:
        locktrack.uninstall()
    leftover = tracker.drain_violations()
    assert not leftover, "lock sanitizer (end of session):\n" + \
        "\n".join(f"  - {violation}" for violation in leftover)


@pytest.fixture(autouse=True)
def _sanitizer_check():
    """Fail the test that produced a lock-order violation, with the
    full cycle/hazard report."""
    yield
    if not SANITIZE:
        return
    from repro.analysis import locktrack
    tracker = locktrack.current()
    if tracker is None:
        return
    violations = tracker.drain_violations()
    assert not violations, "lock sanitizer:\n" + "\n".join(
        f"  - {violation}" for violation in violations)


@pytest.fixture
def sales() -> Table:
    """The Tables 3-6 dataset (Chevy + Ford, 1994-95, black/white)."""
    return sales_summary_table()


@pytest.fixture
def chevy() -> Table:
    """The Chevy-only slice (Tables 3.a / 5.a / 6.a)."""
    return chevy_sales_table()


@pytest.fixture
def figure4() -> Table:
    """Figure 4's 18-row SALES table (cube = 48 rows, total 941)."""
    return figure4_sales_table()


@pytest.fixture
def weather() -> Table:
    """A small deterministic weather relation."""
    return weather_table(120, seed=3)


@pytest.fixture
def tiny() -> Table:
    """A 2D table with NULLs and duplicates for edge-case tests."""
    table = Table([("a", "STRING"), ("b", "INTEGER"), ("x", "INTEGER")])
    table.extend([
        ("p", 1, 10),
        ("p", 1, 20),
        ("p", 2, None),
        ("q", 1, 5),
        ("q", None, 7),
        ("q", None, 7),
    ])
    return table


@pytest.fixture
def no_numpy(monkeypatch):
    """Run the test as if numpy were not installed: the columnar batch
    module's ``_numpy`` is ``None``.  Cluster worker processes fork that
    module state, so the shared pools are restarted on entry (their
    workers see the hidden numpy too) and on exit (later tests get
    workers with numpy again)."""
    from repro.cluster import shutdown_pools
    from repro.compute.columnar import batch as columnar_batch
    shutdown_pools()
    monkeypatch.setattr(columnar_batch, "_numpy", None)
    yield
    monkeypatch.undo()
    shutdown_pools()

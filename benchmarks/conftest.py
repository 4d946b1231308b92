"""Shared benchmark fixtures and the reproduction reporter.

Each bench module regenerates one of the paper's tables/figures (the
rows are checked by assertion and printed under ``pytest -s``), then
times the computation that produces it with pytest-benchmark.
"""

from __future__ import annotations

import pytest

from repro.data import (
    SyntheticSpec,
    chevy_sales_table,
    figure4_sales_table,
    sales_summary_table,
    synthetic_table,
    weather_table,
)


@pytest.fixture(scope="session")
def sales():
    return sales_summary_table()


@pytest.fixture(scope="session")
def chevy():
    return chevy_sales_table()


@pytest.fixture(scope="session")
def figure4():
    return figure4_sales_table()


@pytest.fixture(scope="session")
def weather():
    return weather_table(400, seed=1996)


@pytest.fixture(scope="session")
def medium_fact():
    """A mid-size synthetic fact table for algorithm comparisons."""
    return synthetic_table(SyntheticSpec(
        cardinalities=(6, 5, 4), n_rows=2000, seed=21))


def show(title: str, body: str) -> None:
    """Print one reproduced artifact (visible with ``pytest -s``)."""
    print(f"\n=== {title} ===")
    print(body)


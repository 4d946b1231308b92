"""Algorithm selection: the Section 5 trichotomy made executable."""

import pytest

from repro import Table
from repro.aggregates import Average, Median, Sum
from repro.compute import build_task, choose_algorithm
from repro.compute.optimizer import explain_choice, make_algorithm
from repro.compute.array_cube import ArrayCubeAlgorithm
from repro.compute.external import ExternalCubeAlgorithm
from repro.compute.from_core import FromCoreAlgorithm
from repro.compute.twon import TwoNAlgorithm
from repro.core.grouping import cube_sets
from repro.engine.groupby import AggregateSpec
from repro.errors import CubeError


def make(table, specs):
    dims = [c.name for c in table.schema.columns[:-1]]
    return build_task(table, dims, specs, cube_sets(len(dims)))


@pytest.fixture
def numeric_table():
    t = Table([("g", "STRING"), ("h", "STRING"), ("x", "INTEGER")])
    t.extend([("a", "p", 1), ("b", "q", 2), ("a", "q", 3)])
    return t


@pytest.fixture
def text_table():
    t = Table([("g", "STRING"), ("h", "STRING"), ("x", "STRING")])
    t.extend([("a", "p", "u"), ("b", "q", "v")])
    return t


class TestChooseAlgorithm:
    def test_holistic_forces_twon(self, numeric_table):
        # "we know of no more efficient way [...] than the 2^N-algorithm"
        task = make(numeric_table,
                    [AggregateSpec(Median(carrying=False), "x", "m")])
        assert isinstance(choose_algorithm(task), TwoNAlgorithm)

    def test_distributive_numeric_uses_array(self, numeric_table):
        task = make(numeric_table, [AggregateSpec(Sum(), "x", "s")])
        assert isinstance(choose_algorithm(task), ArrayCubeAlgorithm)

    def test_algebraic_uses_from_core(self, numeric_table):
        task = make(numeric_table, [AggregateSpec(Average(), "x", "a")])
        assert isinstance(choose_algorithm(task), FromCoreAlgorithm)

    def test_non_numeric_falls_back_from_array(self, text_table):
        from repro.aggregates import Max
        task = make(text_table, [AggregateSpec(Max(), "x", "m")])
        assert isinstance(choose_algorithm(task), FromCoreAlgorithm)

    def test_memory_pressure_goes_external(self, numeric_table):
        task = make(numeric_table, [AggregateSpec(Average(), "x", "a")])
        chosen = choose_algorithm(task, memory_budget=1)
        assert isinstance(chosen, ExternalCubeAlgorithm)
        assert chosen.memory_budget == 1

    def test_dense_budget_bounds_array(self, numeric_table):
        task = make(numeric_table, [AggregateSpec(Sum(), "x", "s")])
        chosen = choose_algorithm(task, dense_budget=1)
        assert isinstance(chosen, FromCoreAlgorithm)


class TestCoreSizeScan:
    """Counting the core is a full scan: it runs under a memory budget
    only, where it decides for or against the external algorithm."""

    def counted(self, table, monkeypatch):
        task = make(table, [AggregateSpec(Average(), "x", "a")])
        calls = []
        original = task.dim_values
        monkeypatch.setattr(task, "dim_values",
                            lambda row: calls.append(row) or original(row))
        return task, calls

    def test_no_budget_no_scan(self, numeric_table, monkeypatch):
        task, calls = self.counted(numeric_table, monkeypatch)
        assert isinstance(choose_algorithm(task), FromCoreAlgorithm)
        assert "from-core" in explain_choice(task)
        assert calls == []

    def test_budget_scans_and_picks_by_core_size(self, numeric_table,
                                                 monkeypatch):
        task, calls = self.counted(numeric_table, monkeypatch)
        # the core holds 3 cells: a budget of 2 spills, 3 does not
        assert isinstance(choose_algorithm(task, memory_budget=2),
                          ExternalCubeAlgorithm)
        assert len(calls) == len(numeric_table)
        assert isinstance(choose_algorithm(task, memory_budget=3),
                          FromCoreAlgorithm)
        assert "estimated core (3 cells)" in explain_choice(
            task, memory_budget=2)


class TestExplain:
    def test_explanations_name_the_choice(self, numeric_table):
        holistic = make(numeric_table,
                        [AggregateSpec(Median(carrying=False), "x", "m")])
        assert "2^N" in explain_choice(holistic)
        dist = make(numeric_table, [AggregateSpec(Sum(), "x", "s")])
        assert "array" in explain_choice(dist)
        assert "external" in explain_choice(dist, memory_budget=1)
        alg = make(numeric_table, [AggregateSpec(Average(), "x", "a")])
        assert "from-core" in explain_choice(alg)


class TestMakeAlgorithm:
    def test_by_name(self):
        assert make_algorithm("2^N").name == "2^N"
        assert make_algorithm("external",
                              memory_budget=7).memory_budget == 7

    def test_unknown_name(self):
        with pytest.raises(CubeError):
            make_algorithm("quantum")


class TestBudgetValidation:
    """Budget arguments are validated up front, matching
    ``ExternalCubeAlgorithm.__init__``'s contract."""

    @pytest.mark.parametrize("budget", [0, -1, -1024])
    def test_memory_budget_below_one_rejected(self, numeric_table, budget):
        task = make(numeric_table, [AggregateSpec(Sum(), "x", "s")])
        with pytest.raises(CubeError) as info:
            choose_algorithm(task, memory_budget=budget)
        assert "memory_budget" in str(info.value)
        with pytest.raises(CubeError):
            explain_choice(task, memory_budget=budget)

    @pytest.mark.parametrize("budget", [0, -7])
    def test_dense_budget_below_one_rejected(self, numeric_table, budget):
        task = make(numeric_table, [AggregateSpec(Sum(), "x", "s")])
        with pytest.raises(CubeError) as info:
            choose_algorithm(task, dense_budget=budget)
        assert "dense_budget" in str(info.value)
        with pytest.raises(CubeError):
            explain_choice(task, dense_budget=budget)

    def test_minimal_budgets_are_accepted(self, numeric_table):
        task = make(numeric_table, [AggregateSpec(Sum(), "x", "s")])
        assert choose_algorithm(task, memory_budget=1).name == "external"
        assert choose_algorithm(task, dense_budget=1).name != "array"

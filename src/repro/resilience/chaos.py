"""Deterministic, seed-driven fault injection.

The resilience machinery (worker retry, serial re-execution, budget
degradation, spill retry) only earns trust if the failures it guards
against can be produced on demand.  A :class:`ChaosInjector` does that:
it is installed on an :class:`~repro.resilience.ExecutionContext` and
consulted at four injection points wired into the engine:

``worker_crash``
    A parallel worker raises :class:`~repro.errors.FaultInjectedError`
    before computing its partition's core (``compute/parallel.py``); a
    cluster worker process SIGKILLs itself (``cluster/pool.py``).
``spill_write``
    A partition spill write fails during the external algorithm's
    partition pass (``compute/external.py``).
``slow_node``
    A parallel worker sleeps ``slow_node_delay`` seconds before
    working -- combined with a deadline this exercises the timeout path
    without wall-clock-sensitive tests.
``budget_pressure``
    Phantom scratchpad cells are charged against the memory accountant
    (``ExecutionContext.charge_cells``), forcing graceful degradation
    under budgets that would normally fit.
``torn_write``
    A storage page or WAL record write tears: only a prefix of the
    bytes reaches the file before the writer "dies"
    (:mod:`repro.storage.pages` / :mod:`repro.storage.wal`).  Readers
    must detect the damage by checksum, never consume it.
``fsync_fail``
    An ``fsync`` on a storage file raises before durability is
    reached -- the commit must not be treated as durable.
``crash_point``
    A simulated ``kill -9`` at a named storage write-path site:
    :meth:`ChaosInjector.crash` raises
    :class:`~repro.errors.CrashPointError` at the site, the test
    abandons all in-memory state and re-opens the data directory.
    ``crash_sites`` pins the crash to specific sites (see
    ``repro.storage.CRASH_SITES``) for exhaustive matrix tests.

Decisions are **deterministic**: a draw for a labelled site (e.g.
``worker=2, attempt=0``) is a pure function of ``(seed, point,
labels)``, so the same seed produces the same fault schedule regardless
of thread scheduling; unlabelled draws come from a per-point seeded
stream.  Seeding uses :class:`random.Random` with a string key, which
is stable across processes (no ``PYTHONHASHSEED`` dependence).

Every injected fault is counted on :attr:`ChaosInjector.injected` and
published as ``repro_chaos_injected_faults_total{point=...}``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any

from repro.errors import (
    CrashPointError,
    FaultInjectedError,
    ResilienceError,
)

__all__ = ["ChaosInjector", "INJECTION_POINTS"]

#: The engine's wired injection points.
INJECTION_POINTS = ("worker_crash", "spill_write", "slow_node",
                    "budget_pressure", "torn_write", "fsync_fail",
                    "crash_point")


class ChaosInjector:
    """Seed-driven fault source, one rate per injection point.

    Rates are probabilities in ``[0, 1]``; ``1.0`` means every visit to
    the point faults (useful with per-``attempt`` labels: attempt 0
    always crashes, and recovery must succeed some other way).
    """

    def __init__(self, seed: int = 0, *,
                 worker_crash: float = 0.0,
                 spill_write: float = 0.0,
                 slow_node: float = 0.0,
                 slow_node_delay: float = 0.005,
                 budget_pressure: float = 0.0,
                 budget_pressure_cells: int = 64,
                 torn_write: float = 0.0,
                 fsync_fail: float = 0.0,
                 crash_point: float = 0.0,
                 crash_sites: "tuple[str, ...] | None" = None) -> None:
        rates = {"worker_crash": worker_crash, "spill_write": spill_write,
                 "slow_node": slow_node, "budget_pressure": budget_pressure,
                 "torn_write": torn_write, "fsync_fail": fsync_fail,
                 "crash_point": crash_point}
        for point, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ResilienceError(
                    f"chaos rate for {point!r} must be in [0, 1], "
                    f"got {rate}")
        if slow_node_delay < 0:
            raise ResilienceError("slow_node_delay must be >= 0")
        if budget_pressure_cells < 0:
            raise ResilienceError("budget_pressure_cells must be >= 0")
        if crash_sites is not None and not crash_sites:
            raise ResilienceError(
                "crash_sites must name at least one site (or be None "
                "for rate-driven crash_point draws)")
        self.seed = seed
        self.rates = rates
        self.slow_node_delay = slow_node_delay
        self.budget_pressure_cells = budget_pressure_cells
        self.crash_sites = tuple(crash_sites) if crash_sites else None
        self.injected: dict[str, int] = {point: 0
                                         for point in INJECTION_POINTS}
        self._lock = threading.Lock()
        self._streams = {point: random.Random(f"{seed}:{point}")
                         for point in INJECTION_POINTS}

    # -- decision ---------------------------------------------------------

    def _draw(self, point: str, labels: dict[str, Any]) -> float:
        if labels:
            key = ":".join([str(self.seed), point]
                           + [f"{k}={labels[k]}" for k in sorted(labels)])
            return random.Random(key).random()
        with self._lock:
            return self._streams[point].random()

    def should_inject(self, point: str, **labels: Any) -> bool:
        """Decide (and record) whether this visit to ``point`` faults."""
        if point not in self.rates:
            raise ResilienceError(
                f"unknown injection point {point!r}; "
                f"have {INJECTION_POINTS}")
        rate = self.rates[point]
        if rate <= 0.0:
            return False
        hit = rate >= 1.0 or self._draw(point, labels) < rate
        if hit:
            with self._lock:
                self.injected[point] += 1
            from repro.obs import instrument
            instrument.record_injected_fault(point)
        return hit

    # -- effects ----------------------------------------------------------

    def inject(self, point: str, **labels: Any) -> None:
        """Apply the point's effect if the draw says so.

        ``slow_node`` sleeps; every other point raises
        :class:`~repro.errors.FaultInjectedError`.
        """
        if not self.should_inject(point, **labels):
            return
        if point == "slow_node":
            time.sleep(self.slow_node_delay)
            return
        detail = " ".join(f"{k}={labels[k]}" for k in sorted(labels))
        raise FaultInjectedError(
            f"chaos: injected {point}" + (f" ({detail})" if detail else ""))

    def extra_cells(self, **labels: Any) -> int:
        """Phantom cells to add to one accountant charge (the
        ``budget_pressure`` point); 0 when the draw declines."""
        if self.should_inject("budget_pressure", **labels):
            return self.budget_pressure_cells
        return 0

    # -- storage crash points ---------------------------------------------

    def should_crash(self, site: str) -> bool:
        """Decide whether to simulate a process death at ``site``.

        When :attr:`crash_sites` is set the decision is exact -- crash
        iff the site is named -- so matrix tests can kill the engine at
        every write-path site in turn.  Otherwise it is an ordinary
        seeded ``crash_point`` draw labelled with the site.
        """
        if self.crash_sites is not None:
            if site not in self.crash_sites:
                return False
            with self._lock:
                self.injected["crash_point"] += 1
            from repro.obs import instrument
            instrument.record_injected_fault("crash_point")
            return True
        return self.should_inject("crash_point", site=site)

    def crash(self, site: str) -> None:
        """Raise :class:`~repro.errors.CrashPointError` at ``site`` if
        the draw (or :attr:`crash_sites` targeting) says so.  Storage
        write paths call this *between* the individual durability
        steps, so every interleaving of crash and fsync is
        producible."""
        if self.should_crash(site):
            raise CrashPointError(site)

    def __repr__(self) -> str:
        active = {p: r for p, r in self.rates.items() if r > 0}
        return f"<ChaosInjector seed={self.seed} rates={active}>"

"""The load generator: two connections, each an independent user with
its own seeded request stream, driven closed-loop (next request on
reply) or open-loop (requests due on a fixed schedule, timed from
their due time so a stall is charged to every request it delays).
"""

from __future__ import annotations

import threading
import time

import harness  # noqa: F401  (puts src/ on sys.path)
from repro.serve.client import QueryClient

__all__ = ["CONNECTIONS", "Sample", "send", "run_phase", "flatten"]

CONNECTIONS = 2

#: how long past the end of an open-loop window late requests are still
#: sent; whatever is still unsent then counts as unanswered
_OVERRUN_GRACE_S = 2.0


class Sample:
    """One attempted request."""

    __slots__ = ("klass", "due", "sent", "done", "ok", "request", "reply")

    def __init__(self, request: dict, due: float) -> None:
        self.klass = request["class"]
        self.request = request
        self.due = due
        self.sent = self.done = due
        self.ok = False
        self.reply = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


def send(client: QueryClient, request: dict):
    """One request through the public client; returns the decoded
    answer (a Table for queries, the ack dict for ingests)."""
    if request["op"] == "ingest":
        return client.ingest(request["table"], inserts=request["inserts"],
                             deletes=request["deletes"],
                             updates=request["updates"])
    return client.execute(request["sql"])


def flatten(blocks):
    for block in blocks:
        yield from block


def _drive(client: QueryClient, requests, start: float, end: float,
           interval: float | None, offset: float, out: list) -> None:
    """One connection's loop.  ``interval`` None = closed loop.  A
    request is pulled from the stream only once it will be sent or
    counted: the streams are stateful (serve_mixed deletes rows its
    earlier requests inserted)."""
    index = 0
    while True:
        now = time.perf_counter()
        due = now if interval is None else start + offset + index * interval
        if due >= end:
            return
        index += 1
        if now > end + _OVERRUN_GRACE_S:
            # unanswered backlog; not pulled, so the stream stays in
            # step with what the server has seen
            out.append(Sample({"class": "unsent"}, due))
            continue
        if due > now:
            time.sleep(due - now)
        sample = Sample(next(requests), due)
        sample.sent = time.perf_counter()
        try:
            sample.reply = send(client, sample.request)
            sample.ok = True
        except Exception as error:  # noqa: BLE001
            sample.reply = error  # a failed request is a data point
        sample.done = time.perf_counter()
        out.append(sample)


def run_phase(address, streams, seconds: float,
              rate_qps: float | None = None) -> tuple[list, float]:
    """Drive every stream on its own connection for ``seconds``.

    ``rate_qps`` None runs closed-loop; otherwise the connections share
    the arrival rate evenly, their schedules staggered by half a
    period.  Returns (all samples, the window's end on the
    ``perf_counter`` clock)."""
    clients = [QueryClient(*address, timeout=60.0) for _ in streams]
    outs: list[list] = [[] for _ in streams]
    interval = len(streams) / rate_qps if rate_qps else None
    start = time.perf_counter() + 0.05
    end = start + seconds
    threads = [
        threading.Thread(
            target=_drive, name=f"perf-conn-{n}",
            args=(clients[n], streams[n], start, end, interval,
                  (n / rate_qps) if rate_qps else 0.0, outs[n]))
        for n in range(len(streams))]
    try:
        time.sleep(max(0.0, start - time.perf_counter()))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()
    return [sample for out in outs for sample in out], end

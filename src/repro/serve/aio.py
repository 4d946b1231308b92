"""The asyncio front end: one event loop accepts the connections.

The threaded server (:mod:`repro.serve.server`) spends a thread per
connection; at hundreds of mostly-idle clients that is all stacks and
no work.  Here each connection is a coroutine -- an idle client costs a
file descriptor, not a thread -- and every request it reads runs
``QueryServer._handle`` on an executor thread: the same admission, RW
lock, query log, trace ids and checkpointing as the threaded server.

The executor has ``max_inflight + max_queue + 1`` threads, so admission,
not the executor's queue, decides who waits and who is shed: an
over-limit statement always reaches ``AdmissionController.slot`` and
sheds ``queue_full`` there.  A waiting statement holds a thread, and
admission caps how many can.  Shutdown is the threaded server's
sequence (see :mod:`repro.serve.server`).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import signal
from typing import Optional

from repro.errors import ServeError
from repro.obs import instrument
from repro.serve import protocol
from repro.serve.server import QueryServer

__all__ = ["AsyncQueryServer"]


class AsyncQueryServer(QueryServer):
    """The event-loop front door (see module docstring).

    Construction is identical to :class:`QueryServer`.  Use either the
    async lifecycle (``await start_async()`` ... ``await
    shutdown_async()``) or :meth:`run`, which owns a loop and drains on
    SIGTERM/SIGINT.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._aserver: Optional[asyncio.base_events.Server] = None
        # live connections: writer -> the coroutine serving it
        self._clients: "dict[asyncio.StreamWriter, asyncio.Task]" = {}
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=(self.admission.max_inflight
                         + self.admission.max_queue + 1),
            thread_name_prefix="repro-aserve")

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._aserver is None or not self._aserver.sockets:
            raise ServeError("server not started")
        return self._aserver.sockets[0].getsockname()[:2]

    async def start_async(self) -> "AsyncQueryServer":
        if self._aserver is not None:
            raise ServeError("server already started")
        self._aserver = await asyncio.start_server(
            self._client_connected, host=self.host, port=self.port,
            backlog=1024)
        return self

    async def shutdown_async(self) -> None:
        """Stop accepting, drain the requests already read, close the
        connections, release resources.  Idempotent."""
        if not self._stop_serving():
            return
        if self._aserver is not None:
            self._aserver.close()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self._drain)
        for writer in self._clients:
            writer.close()
        # closed transports surface as EOF in each handler's readline;
        # wait for them to exit on their own so no task ends cancelled
        if self._clients:
            _, wedged = await asyncio.wait(list(self._clients.values()),
                                           timeout=5.0)
            for task in wedged:  # pragma: no cover - wedged handler
                task.cancel()
        await loop.run_in_executor(self._executor, self._close_down)
        self._executor.shutdown(wait=True)

    async def serve_forever_async(self) -> None:
        """Serve until SIGTERM/SIGINT, then shut down gracefully."""
        if self._aserver is None:
            await self.start_async()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        try:
            await stop.wait()
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError,
                                         RuntimeError):
                    loop.remove_signal_handler(signum)
            await self.shutdown_async()

    def run(self) -> None:
        """Synchronous entry point: own loop, serve, drain on signal."""
        asyncio.run(self._run())

    async def _run(self) -> None:
        await self.start_async()
        host, port = self.address
        print(f"repro query server (asyncio) on {host}:{port} "
              f"(tables: {', '.join(self.catalog.names())})", flush=True)
        await self.serve_forever_async()

    # make the threaded lifecycle unmistakably unavailable
    def start(self) -> "QueryServer":
        raise ServeError(
            "AsyncQueryServer has no threaded lifecycle; use "
            "start_async()/serve_forever_async() or run()")

    def shutdown(self) -> None:
        raise ServeError(
            "AsyncQueryServer has no threaded lifecycle; use "
            "shutdown_async()")

    # -- connections -------------------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        instrument.record_serve_connection()
        instrument.record_serve_async_connection()
        self._clients[writer] = asyncio.current_task()
        instrument.set_async_connections(len(self._clients))
        session = self._make_session()
        loop = asyncio.get_running_loop()
        try:
            while not self._stop.is_set():
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    await self._send(writer, self._error(
                        None, ServeError("wire message too long")))
                    break
                except (ConnectionError, OSError):
                    break
                try:
                    request = protocol.parse_message(line)
                except ServeError as error:
                    await self._send(writer, self._error(None, error))
                    continue
                if request is None or not self._begin_request():
                    break
                try:
                    response = await loop.run_in_executor(
                        self._executor, self._handle, session, request)
                    if response is None:  # close op
                        break
                    try:
                        await self._send(writer, response)
                    except (ConnectionError, OSError):
                        break
                finally:
                    self._end_request()
        finally:
            self._clients.pop(writer, None)
            instrument.set_async_connections(len(self._clients))
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(protocol.dump_message(message))
        await writer.drain()

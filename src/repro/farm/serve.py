"""``python -m repro.farm serve`` — the farm's async HTTP/JSON front door.

A zero-dependency asyncio server that exposes the :class:`FarmClient`
submission surface over HTTP so many concurrent clients (sweep drivers,
CI shards, notebook users) can share one warm worker pool and one
content-addressed cache:

* ``POST /jobs`` — submit one spec, or ``{"jobs": [spec, ...]}``.
  Responds ``202`` with one :class:`~repro.farm.api.JobStatus` document
  per spec.  Invalid specs get a structured ``400`` (the
  :class:`~repro.farm.api.SpecError` payload), never a traceback.
  Duplicate submissions are answered without re-dispatch: an in-flight
  key shares the existing future, a completed key is answered straight
  from the server's registry / the content-addressed cache.
* ``GET /jobs/<key>`` — the job's status document.  ``?wait=SECONDS``
  blocks until terminal (or the deadline), ``?stream=1`` streams
  newline-delimited status snapshots until the job finishes.
* ``GET /status`` — server counters plus the client/pool/cache state.
* ``GET /healthz`` — liveness (``draining`` flips during shutdown).

On boot the server prints one machine-readable line to stdout::

    {"serving": {"host": "127.0.0.1", "port": 8421, "workers": 4}}

``SIGTERM``/``SIGINT`` triggers a graceful drain: new ``POST``s get a
``503``, in-flight jobs run to completion, worker ledger shards merge
into the main ledger, and the process exits 0 after printing a final
``{"drained": ...}`` line.

The protocol layer is deliberately minimal HTTP/1.1 with persistent
connections: a client may pipeline many requests over one socket
(``Connection: keep-alive`` semantics — the HTTP/1.1 default), and the
server closes only on ``Connection: close``, a protocol error, or the
idle timeout.  Streaming responses (``?stream=1``) still end their
connection — they have no length framing.  The farm's job payloads are
tiny JSON documents and the interesting concurrency lives in the pool,
not the socket handling.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import json
import signal
import sys
import time

from repro.farm.api import FarmClient, FarmFuture, JobSpec, SpecError

__all__ = ["FarmServer", "main", "run"]

#: Cap on buffered request head + body; farm specs are tiny documents.
_MAX_HEAD = 64 * 1024
_MAX_BODY = 1024 * 1024

#: Default ceiling on a ``?wait=`` / ``?stream=`` long poll.
_MAX_WAIT_S = 300.0

#: Completed registry entries kept for ``GET /jobs/<key>`` answers.
_REGISTRY_LIMIT = 8192

#: A keep-alive connection with no next request within this window is
#: closed (frees sockets held by clients that wandered off).
_IDLE_TIMEOUT_S = 75.0


def _ext_for(spec_dict: dict | None) -> str:
    """Artifact extension for a spec's cached result (compile = pickle)."""
    return "pkl" if (spec_dict or {}).get("kind") == "compile" else "json"


@dataclasses.dataclass
class _Entry:
    """One known job key: its farm future plus an asyncio-side event."""

    future: FarmFuture
    event: asyncio.Event


class FarmServer:
    """The HTTP front door around one shared :class:`FarmClient`."""

    def __init__(
        self,
        client: FarmClient,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float = 60.0,
        idle_timeout: float = _IDLE_TIMEOUT_S,
    ):
        self.client = client
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self.idle_timeout = idle_timeout
        self.draining = False
        self._started = time.monotonic()
        self.counters = {
            "requests": 0,
            "specs_submitted": 0,
            "specs_dispatched": 0,
            "deduped_inflight": 0,
            "deduped_registry": 0,
            "cache_probe_hits": 0,
            "bad_requests": 0,
            "server_errors": 0,
        }
        self._registry: dict[str, _Entry] = {}
        #: keys claimed for dispatch but not yet in the registry — duplicate
        #: POSTs arriving in that window await the claimant instead of
        #: re-dispatching
        self._pending: dict[str, asyncio.Future] = {}
        self._lock = asyncio.Lock()
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        #: open connection writers — force-closed after drain so idle
        #: keep-alive sockets can't stall ``Server.wait_closed()``
        self._connections: set[asyncio.StreamWriter] = set()
        #: the task serving each open connection, awaited at shutdown
        self._connection_tasks: set[asyncio.Task] = set()
        # Submissions run off-loop: a serial client executes the job inside
        # submit(), and even the pool path does blocking queue writes.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(4, client.workers * 2), thread_name_prefix="farm-submit"
        )

    # -- registry ----------------------------------------------------------------

    def _remember(self, future: FarmFuture) -> _Entry:
        loop = asyncio.get_running_loop()
        entry = _Entry(future=future, event=asyncio.Event())
        future.add_done_callback(
            lambda _f: loop.call_soon_threadsafe(entry.event.set)
        )
        self._registry[future.job.key] = entry
        if len(self._registry) > _REGISTRY_LIMIT:
            for key in [
                k for k, e in self._registry.items() if e.event.is_set()
            ][: len(self._registry) - _REGISTRY_LIMIT]:
                del self._registry[key]
        return entry

    @staticmethod
    def _deduped_status(entry: _Entry) -> dict:
        status = entry.future.status()
        status.deduped = True
        return status.to_dict()

    async def _submit_spec(self, payload) -> dict:
        """One spec document -> one JobStatus document (deduped)."""
        spec = JobSpec.from_dict(payload)  # SpecError -> 400 at the call site
        job = spec.to_job()
        self.counters["specs_submitted"] += 1
        loop = asyncio.get_running_loop()
        async with self._lock:
            entry = self._registry.get(job.key)
            if entry is not None:
                self.counters[
                    "deduped_registry" if entry.event.is_set() else "deduped_inflight"
                ] += 1
                return self._deduped_status(entry)
            waiter = self._pending.get(job.key)
            if waiter is None:
                # this coroutine owns the dispatch; duplicates await below
                self._pending[job.key] = loop.create_future()
                cache = self.client.cache
                if cache is not None and cache.contains(
                    job.key, _ext_for(spec.to_dict())
                ):
                    self.counters["cache_probe_hits"] += 1
            else:
                self.counters["deduped_inflight"] += 1
        if waiter is not None:
            entry = await asyncio.shield(waiter)
            return self._deduped_status(entry)
        self.counters["specs_dispatched"] += 1
        try:
            future = await loop.run_in_executor(
                self._executor, self.client.submit, spec
            )
        except BaseException as exc:
            async with self._lock:
                pending = self._pending.pop(job.key, None)
            if pending is not None and not pending.done():
                pending.set_exception(exc)
                pending.exception()  # consumed; awaiters re-raise their own copy
            raise
        async with self._lock:
            entry = self._remember(future)
            pending = self._pending.pop(job.key, None)
        if pending is not None and not pending.done():
            pending.set_result(entry)
        return entry.future.status().to_dict()

    # -- handlers ----------------------------------------------------------------

    async def _handle_post_jobs(self, body: bytes) -> tuple[int, dict]:
        if self.draining:
            return 503, {"error": {"message": "server is draining; retry elsewhere"}}
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            self.counters["bad_requests"] += 1
            return 400, {"error": {"message": "request body is not valid JSON"}}
        if isinstance(payload, dict) and isinstance(payload.get("jobs"), list):
            specs = payload["jobs"]
        elif isinstance(payload, dict):
            specs = [payload]
        else:
            self.counters["bad_requests"] += 1
            return 400, {
                "error": {
                    "message": "POST /jobs expects a spec object or {\"jobs\": [...]}"
                }
            }
        statuses = []
        for spec_payload in specs:
            try:
                statuses.append(await self._submit_spec(spec_payload))
            except SpecError as exc:
                self.counters["bad_requests"] += 1
                return 400, exc.payload
        return 202, {"jobs": statuses} if "jobs" in (payload or {}) else statuses[0]

    async def _handle_get_job(
        self, key: str, query: dict
    ) -> tuple[int, dict] | None:
        entry = self._registry.get(key)
        if entry is None:
            return 404, {"error": {"message": f"unknown job key {key!r}"}}
        wait_s = 0.0
        if "wait" in query:
            try:
                wait_s = min(float(query["wait"]), _MAX_WAIT_S)
            except ValueError:
                return 400, {"error": {"message": "wait must be a number of seconds"}}
        if wait_s > 0 and not entry.event.is_set():
            try:
                await asyncio.wait_for(entry.event.wait(), wait_s)
            except asyncio.TimeoutError:
                pass
        return 200, entry.future.status().to_dict()

    async def _stream_job(self, writer: asyncio.StreamWriter, key: str, query: dict):
        """``?stream=1``: newline-delimited status snapshots until terminal."""
        entry = self._registry.get(key)
        if entry is None:
            await self._respond(
                writer, 404, {"error": {"message": f"unknown job key {key!r}"}}
            )
            return
        deadline = asyncio.get_running_loop().time() + min(
            float(query.get("wait", _MAX_WAIT_S) or _MAX_WAIT_S), _MAX_WAIT_S
        )
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        last = None
        while True:
            snapshot = entry.future.status().to_dict()
            if snapshot != last:
                writer.write(json.dumps(snapshot, sort_keys=True).encode() + b"\n")
                await writer.drain()
                last = snapshot
            if entry.event.is_set():
                break
            if asyncio.get_running_loop().time() >= deadline:
                break
            try:
                await asyncio.wait_for(entry.event.wait(), 0.2)
            except asyncio.TimeoutError:
                pass

    def _status_payload(self) -> dict:
        submitted = self.counters["specs_submitted"]
        deduped = (
            self.counters["deduped_inflight"] + self.counters["deduped_registry"]
        )
        return {
            "server": {
                **self.counters,
                "draining": self.draining,
                "registry_size": len(self._registry),
                "dedupe_hit_rate": round(deduped / submitted, 6) if submitted else 0.0,
                "uptime_s": round(time.monotonic() - self._started, 3),
                "jobs_in_flight": sum(
                    1 for e in self._registry.values() if not e.event.is_set()
                ),
                "open_connections": len(self._connections),
            },
            "client": self.client.status(),
        }

    # -- protocol ----------------------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        payload: dict,
        keep_alive: bool = False,
    ) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed",
                   500: "Internal Server Error", 503: "Service Unavailable"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        writer.write(
            f"HTTP/1.1 {code} {reasons.get(code, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n".encode("ascii") + body
        )
        await writer.drain()

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, head: bytes
    ) -> bool:
        """Serve one parsed-head request; returns whether the connection
        may carry another (HTTP/1.1 keep-alive semantics)."""
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, target, version = request_line.split(" ", 2)
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection != "close"
            if version.strip() == "HTTP/1.1"
            else connection == "keep-alive"
        )
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length:
            if length > _MAX_BODY:
                # the unread body makes the socket unusable for a next request
                await self._respond(
                    writer, 400, {"error": {"message": "request body too large"}}
                )
                return False
            body = await reader.readexactly(length)
        path, _, query_string = target.partition("?")
        query = {}
        for pair in query_string.split("&"):
            if pair:
                name, _, value = pair.partition("=")
                query[name] = value

        if method == "GET" and path == "/healthz":
            await self._respond(
                writer, 200, {"ok": True, "draining": self.draining}, keep_alive
            )
        elif method == "GET" and path == "/status":
            await self._respond(writer, 200, self._status_payload(), keep_alive)
        elif method == "GET" and path.startswith("/jobs/"):
            key = path[len("/jobs/"):]
            if query.get("stream") in ("1", "true"):
                # ndjson has no length framing; the stream ends the connection
                await self._stream_job(writer, key, query)
                return False
            code, payload = await self._handle_get_job(key, query)
            await self._respond(writer, code, payload, keep_alive)
        elif method == "POST" and path == "/jobs":
            code, payload = await self._handle_post_jobs(body)
            await self._respond(writer, code, payload, keep_alive)
        else:
            await self._respond(
                writer,
                404 if method in ("GET", "POST") else 405,
                {"error": {"message": f"no route for {method} {path}"}},
                keep_alive,
            )
        return keep_alive

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        task = asyncio.current_task()
        self._connection_tasks.add(task)
        try:
            while True:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), self.idle_timeout
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    asyncio.TimeoutError,
                    OSError,
                ):
                    break
                self.counters["requests"] += 1
                try:
                    keep_alive = await self._handle_one(reader, writer, head)
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except Exception as exc:  # a handler bug must answer 500, not hang
                    self.counters["server_errors"] += 1
                    try:
                        await self._respond(
                            writer,
                            500,
                            {"error": {"message": f"{type(exc).__name__}: {exc}"}},
                        )
                    except Exception:
                        pass
                    break
                if not keep_alive or self.draining:
                    break
        finally:
            self._connections.discard(writer)
            self._connection_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=2048
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        self.draining = True
        self._shutdown.set()

    async def _drain(self) -> dict:
        """Wait out in-flight jobs, then fold worker shards into the ledger."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        waited = 0
        for entry in list(self._registry.values()):
            if entry.event.is_set():
                continue
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(entry.event.wait(), remaining)
                waited += 1
            except asyncio.TimeoutError:
                break
        await loop.run_in_executor(
            self._executor, self.client.drain, max(0.0, deadline - loop.time())
        )
        await loop.run_in_executor(self._executor, self.client.close)
        incomplete = sum(
            1 for entry in self._registry.values() if not entry.event.is_set()
        )
        return {"waited_jobs": waited, "incomplete": incomplete, "ok": incomplete == 0}

    async def serve_until_shutdown(self) -> dict:
        """Run until :meth:`request_shutdown`, then drain; returns the summary."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.start_serving()
            await self._shutdown.wait()
            # stop accepting, finish what is in flight
            self._server.close()
            summary = await self._drain()
            # idle keep-alive sockets would stall wait_closed(); drop them,
            # and let their handlers see EOF and finish — left pending,
            # asyncio.run would cancel them mid-read and log each one
            for connection in list(self._connections):
                try:
                    connection.close()
                except Exception:
                    pass
            if self._connection_tasks:
                await asyncio.wait(list(self._connection_tasks), timeout=self.idle_timeout)
        self._executor.shutdown(wait=False)
        return summary


async def run(
    host: str = "127.0.0.1",
    port: int = 8421,
    workers: int = 1,
    batch_size: int | None = None,
    drain_timeout: float = 60.0,
    ready=None,
) -> dict:
    """Start a server, install signal handlers, serve until drained.

    ``ready(server)`` — if given — is called once listening (used by the
    in-process load tests to learn the ephemeral port).
    """
    client = FarmClient(workers=workers, batch_size=batch_size)
    # Fork the pool BEFORE the listening socket exists: workers must never
    # inherit client connections (a forked duplicate of an accepted socket
    # would hold it open past our close, stalling EOF-delimited readers).
    client._ensure_pool()
    server = FarmServer(client, host=host, port=port, drain_timeout=drain_timeout)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
    print(
        json.dumps(
            {
                "serving": {
                    "host": server.host,
                    "port": server.port,
                    "workers": workers,
                    "mode": client.mode,
                }
            },
            sort_keys=True,
        ),
        flush=True,
    )
    if ready is not None:
        ready(server)
    summary = await server.serve_until_shutdown()
    print(json.dumps({"drained": summary}, sort_keys=True), flush=True)
    return summary


def main(args) -> int:
    """The ``python -m repro.farm serve`` entry point (argparse namespace)."""
    summary = asyncio.run(
        run(
            host=args.host,
            port=args.port,
            workers=args.jobs,
            batch_size=getattr(args, "batch_size", None),
            drain_timeout=args.drain_timeout,
        )
    )
    return 0 if summary.get("ok", False) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    import argparse

    parser = argparse.ArgumentParser(description="farm HTTP front door")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8421)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--drain-timeout", type=float, default=60.0)
    sys.exit(main(parser.parse_args()))

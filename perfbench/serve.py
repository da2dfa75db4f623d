"""The ``serve`` workload: a closed-loop request stream against ``farm serve``.

``python -m repro.farm serve --jobs 2`` boots with a fresh cache (nine
times; ``setup_s`` is the median time from spawn to the first
``/healthz`` 200, and the last server takes the load).  Two client
threads, each on its own keep-alive connection, pull operations from one
seed-generated stream and wait for each reply before sending the next,
as sweep drivers and campaign clients do.  The stream comes in blocks;
each holds, in a seed-shuffled order:

* one first-seen spec (a miss: pool compute and cache write) of every
  (workload, kind, target) shape, 53 in all, each with a seed-chosen
  parameter variant, so every block carries the same cost of misses;
* repeats of specs already sent (a hit: registry or cache read), 49, so
  that first-seen specs and repeats come in the shares of the repo's
  main farm client: one ``risc1-experiments --jobs 2`` run against a
  fresh cache submits the 60 specs of ``sweep_jobs(scale="default")``,
  all first-seen, then 55 per-experiment specs, every one a repeat of a
  sweep spec;
* :data:`MALFORMED` malformed spec, which must get a structured 400.  No
  client in the repo sends malformed specs; one per block is an
  assumption.

Besides the blocks, one connection sends ``GET /status`` every
:data:`STATUS_INTERVAL_S` seconds, the default refresh period of the
operator console (``python -m repro.obs top`` and ``dash``).
``ops_per_s`` is the operations handed out over the run's whole blocks
(from the start of the first block to the start of the last) over their
time, each block's time corrected for the host's speed (see
``hostspeed.py``).  The work runs in the server and its pool workers, so
the reference runs come from a separate probe process, every 0.25 s,
timed by their own CPU time; a block is corrected by the mean of the
reference runs that started in it.  ``setup_s`` is corrected by the
reference runs the benchmark makes right before and after each boot.

A job operation is ``POST /jobs`` followed, unless the reply is already
terminal, by ``GET /jobs/<key>?wait=``; its latency runs from the POST
to the terminal status.  After the load the server gets SIGTERM while
both connections are still open, as pooled HTTP clients leave them, and
the tracebacks on its stderr are counted.  ``peak_rss_mb`` is the
server's own peak (``VmHWM``), read just before the SIGTERM, so it
leaves out the pool workers.

An operation fails when a valid spec does not reach ``done``, a
malformed spec gets anything but a structured 400, any reply is a 5xx
or the connection breaks.  A spec dispatched more than once (two
non-deduplicated replies, or replies from two different executions)
fails every operation on it.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import sys
import threading
import time
from collections import Counter, defaultdict
from statistics import median

from common import (
    HERE, child_env, finish_child, own_peak_rss_mb, percentile, scratch_dir, start_child,
)
from hostspeed import NOMINAL_S, Corrector

#: first-seen specs and repeats that ``risc1-experiments --jobs 2`` sends
#: its farm client against a fresh cache (``client_mix.py``)
CLIENT_FRESH, CLIENT_REPEAT = 60, 55
MALFORMED = 1
STATUS_INTERVAL_S = 2.0
BOOTS = 9
BOOT_TIMEOUT_S = 60
WAIT_S = 60

#: workloads whose cost grows smoothly with one parameter: their variants
#: start at half the default (at the default, one linked_list_h execution
#: on the VAX takes 1.8 s, which alone held a connection for a tenth of a
#: run) and step by one per cycle from a seed-chosen offset, moving the
#: cost by about 1% a step.  The other workloads' cost jumps with every
#: parameter, so their first-seen execute specs vary the step budget
#: instead, and they take no IR jobs.
SMOOTH = {
    "qsort": "N",
    "bit_test_f": "VALUES",
    "linked_list_h": "NODES",
    "quicksort_i": "N",
    "call_overhead": "CALLS",
}
#: a step budget far above what any default-scale workload needs
BUDGET = 100_000_000
SHAPES = [
    ("compile", "risc1"), ("compile", "cisc"),
    ("execute", "risc1"), ("execute", "cisc"),
    ("ir", "risc1"),
]
MALFORMED_BODIES = [
    b'{"workload": "no_such_workload"}',
    b'{"workload": "towers", "kind": "simulate"}',
    b'{"workload": "towers", "target": "arm"}',
    b'{"workload": "towers:DISKS=many"}',
    b'{"workload": "towers", "priority": 1}',
    b'{"workload": "towers", "max_instructions": -5}',
    b"[1, 2, 3]",
    b"{not json",
]


def _spec_text(name: str, params: dict) -> str:
    return name + ":" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))


class RequestStream:
    """The seed-generated operation sequence, shared by both connections.

    A block holds every first-seen shape once, so every block carries the
    same cost of misses; :attr:`starts` records when each block's first
    operation was handed out, and :attr:`issued` how many operations
    (``GET /status`` included) had been handed out by then."""

    def __init__(self, seed: int, started: float):
        from repro.workloads import ALL_WORKLOADS

        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._shapes = [
            (name, kind, target)
            for name in ALL_WORKLOADS
            for kind, target in SHAPES
            if kind != "ir" or name in SMOOTH
        ]
        self.fresh = len(self._shapes)
        self.repeat = round(self.fresh * CLIENT_REPEAT / CLIENT_FRESH)
        self._fresh = self._fresh_specs()
        self._sent: list[bytes] = []
        self._block: list[str] = []
        self._next_status = started
        self.starts: list[float] = []
        self.issued: list[int] = []
        self._count = 0

    def _fresh_specs(self):
        """Endless first-seen specs: every shape once per cycle, in a
        seed-shuffled order, each with a new key of about the same cost."""
        from repro.workloads import ALL_WORKLOADS

        rng = self._rng
        offset = rng.randrange(1000)
        cycle = 0
        while True:
            for name, kind, target in rng.sample(self._shapes, len(self._shapes)):
                params = dict(ALL_WORKLOADS[name].default_params)
                spec = {"kind": kind, "target": target}
                if name in SMOOTH:
                    params[SMOOTH[name]] = params[SMOOTH[name]] // 2 + offset % 10 + cycle
                elif kind == "compile":
                    # compile cost does not depend on the parameter's value
                    first = sorted(params)[0]
                    params[first] += offset + cycle
                else:
                    spec["max_instructions"] = BUDGET + offset * 1000 + cycle
                spec["workload"] = _spec_text(name, params)
                yield json.dumps(spec, sort_keys=True).encode()
            cycle += 1

    def next(self) -> tuple[str, bytes | None]:
        with self._lock:
            now = time.perf_counter()
            self._count += 1
            if now >= self._next_status:
                self._next_status = now + STATUS_INTERVAL_S
                return "status", None
            if not self._block:
                self.starts.append(now)
                self.issued.append(self._count - 1)
                self._block = (
                    ["fresh"] * self.fresh + ["repeat"] * self.repeat
                    + ["malformed"] * MALFORMED
                )
                self._rng.shuffle(self._block)
            kind = self._block.pop()
            if kind == "repeat" and not self._sent:
                kind = "fresh"
            if kind == "fresh":
                body = next(self._fresh)
                self._sent.append(body)
                return "job", body
            if kind == "repeat":
                return "job", self._rng.choice(self._sent)
            return "malformed", self._rng.choice(MALFORMED_BODIES)

    def block_times(self, samples) -> tuple[int, float, float]:
        """Operations handed out over the run's whole blocks, their wall
        time, and that time corrected block by block with the reference
        runs ``samples`` (``(start, end, cpu seconds)``) that started in
        the block."""
        everywhere = [cpu for _, _, cpu in samples]
        ops, wall_s, corrected_s = 0, 0.0, 0.0
        for i in range(len(self.starts) - 1):
            begin, end = self.starts[i], self.starts[i + 1]
            inside = [cpu for at, _, cpu in samples if begin <= at < end] or everywhere
            ops += self.issued[i + 1] - self.issued[i]
            wall_s += end - begin
            corrected_s += (end - begin) * NOMINAL_S * len(inside) / sum(inside)
        return ops, wall_s, corrected_s


class Client:
    """One keep-alive connection driving the closed loop."""

    def __init__(self, port: int, log: "LoadLog"):
        self.port = port
        self.log = log
        self.error: BaseException | None = None
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=WAIT_S + 30)

    def request(self, method: str, path: str, body: bytes | None = None):
        started = time.perf_counter()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        elapsed_ms = 1000.0 * (time.perf_counter() - started)
        code = response.status
        self.log.count_http(code, elapsed_ms)
        try:
            document = json.loads(payload)
        except ValueError:
            document = None
        return code, document, elapsed_ms

    def job(self, body: bytes) -> dict:
        started = time.perf_counter()
        code, status, post_ms = self.request("POST", "/jobs", body)
        record = {"post_ms": post_ms, "ok": code == 202 and isinstance(status, dict)}
        # only the POST reply says whether this request was deduplicated; a
        # later GET returns the dispatching request's status document
        record["deduped"] = record["ok"] and bool(status.get("deduped"))
        while record["ok"] and status.get("state") not in ("done", "failed"):
            code, status, get_ms = self.request(
                "GET", f"/jobs/{status['key']}?wait={WAIT_S}"
            )
            record.setdefault("get_ms", []).append(get_ms)
            record["ok"] = code == 200 and isinstance(status, dict)
        record["latency_ms"] = 1000.0 * (time.perf_counter() - started)
        if record["ok"]:
            record["status"] = status
            record["ok"] = status.get("state") == "done"
        return record

    def run(self, stream: RequestStream, deadline: float) -> None:
        try:
            self._loop(stream, deadline)
        except BaseException as exc:  # re-raised by the main thread after join
            self.error = exc

    def _loop(self, stream: RequestStream, deadline: float) -> None:
        while time.perf_counter() < deadline:
            kind, body = stream.next()
            try:
                if kind == "job":
                    self.log.jobs.append(self.job(body))
                elif kind == "malformed":
                    code, document, post_ms = self.request("POST", "/jobs", body)
                    error = document.get("error") if isinstance(document, dict) else None
                    self.log.malformed.append(
                        code == 400 and isinstance(error, dict) and "message" in error
                    )
                    self.log.post_ms.append(post_ms)
                else:
                    code, document, status_ms = self.request("GET", "/status")
                    self.log.status.append(
                        (code == 200 and isinstance(document, dict) and "server" in document,
                         status_ms)
                    )
            except (OSError, http.client.HTTPException):
                self.log.count_conn_error()
                self.conn.close()
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=WAIT_S + 30
                )


class LoadLog:
    def __init__(self):
        self.jobs: list[dict] = []
        self.malformed: list[bool] = []
        self.status: list[tuple[bool, float]] = []
        self.post_ms: list[float] = []
        self.http = Counter()
        self.request_ms: list[float] = []
        self.conn_errors = 0
        self._lock = threading.Lock()

    def count_http(self, code: int, elapsed_ms: float) -> None:
        with self._lock:
            self.http[code // 100] += 1
            self.request_ms.append(elapsed_ms)

    def count_conn_error(self) -> None:
        with self._lock:
            self.conn_errors += 1

    @property
    def attempted(self) -> int:
        return len(self.jobs) + len(self.malformed) + len(self.status) + self.conn_errors


def _boot(work, cache_dir):
    """Start a server; returns (process, start time, port, spawn-to-healthy seconds)."""
    proc, started = start_child(
        ["-m", "repro.farm", "--cache-dir", str(cache_dir), "serve", "--port", "0",
         "--jobs", "2"],
        child_env(work, cache_dir),
    )
    line = proc.stdout.readline()
    try:
        port = json.loads(line)["serving"]["port"]
    except (ValueError, KeyError, TypeError):
        finish_child(proc, started)
        raise RuntimeError(f"farm serve did not start: {line!r}") from None
    while proc.poll() is None and time.perf_counter() - started < BOOT_TIMEOUT_S:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status == 200:
                return proc, started, port, time.perf_counter() - started, line
        except (OSError, http.client.HTTPException):
            pass
        finally:
            conn.close()
        time.sleep(0.005)
    server = _shutdown(proc, started, line)
    raise RuntimeError(f"farm serve never became healthy:\n{server.stderr[-2000:]}")


def _shutdown(proc, started, head: bytes):
    proc.send_signal(signal.SIGTERM)
    return finish_child(proc, started, timeout=120.0, head=head)


def _load(seed: int, seconds: float, work, cache_dir, setups: list[float], corrector):
    proc, started, port, setup_s, head = _boot(work, cache_dir)
    setups.append(setup_s * corrector.close())
    log = LoadLog()
    clients = [Client(port, log) for _ in range(2)]
    probe, probe_started = start_child([str(HERE / "hostspeed.py")], child_env(work))
    begun = time.perf_counter()
    stream = RequestStream(seed, begun)
    try:
        threads = [
            threading.Thread(target=c.run, args=(stream, begun + seconds)) for c in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - begun
        for client in clients:
            if client.error is not None:
                raise client.error
        _, server_status, _ = clients[0].request("GET", "/status")
        # the server's own peak, read before its pool workers are reaped
        peak_rss_mb = own_peak_rss_mb(proc.pid)
    finally:
        # connections stay open across the SIGTERM, as a pooled client leaves them
        server = _shutdown(proc, started, head)
        for client in clients:
            client.conn.close()
        references = _shutdown(probe, probe_started, b"").stdout
    samples = [tuple(map(float, line.split())) for line in references.splitlines()]
    return log, stream, wall_s, server_status, server, peak_rss_mb, samples


def _check(log: LoadLog, server_status, server) -> int:
    """Failed operations, including every breach of the serve invariants."""
    failed = sum(1 for job in log.jobs if not job["ok"])
    failed += sum(1 for ok in log.malformed if not ok)
    failed += sum(1 for ok, _ in log.status if not ok)
    failed += log.conn_errors
    by_key = defaultdict(list)
    for job in log.jobs:
        if "status" in job:
            by_key[job["status"]["key"]].append(job)
    for jobs in by_key.values():
        dispatched = sum(1 for job in jobs if not job["deduped"])
        executions = {(job["status"].get("worker"), job["status"].get("wall_s")) for job in jobs}
        if dispatched > 1 or len(executions) > 1:
            failed += len(jobs)
    counters = (server_status or {}).get("server", {})
    if counters.get("specs_dispatched", 0) > len(by_key):
        failed += counters["specs_dispatched"] - len(by_key)
    if log.http[5] or server.returncode != 0 or '"ok": true' not in server.stdout:
        failed += max(1, log.http[5])
    return failed


def _layers(log: LoadLog, server, wall_s: float) -> dict:
    """Per-layer metrics from the client's timings and the JobStatus documents."""
    first = {}
    for job in log.jobs:
        status = job.get("status")
        if status is not None and not job["deduped"]:
            first.setdefault(status["key"], (job, status))
    dispositions = Counter(status.get("status") for _, status in first.values())
    hits, computed = dispositions["hit"], dispositions["computed"]
    jobs_with_status = [job for job in log.jobs if "status" in job]
    post_ms = log.post_ms + [job["post_ms"] for job in log.jobs]
    get_ms = [ms for job in log.jobs for ms in job.get("get_ms", [])]
    walls = [status["wall_s"] for _, status in first.values() if status.get("wall_s") is not None]
    waits = [
        job["latency_ms"] - 1000.0 * status["wall_s"]
        for job, status in first.values()
        if status.get("wall_s") is not None
    ]
    latencies = [job["latency_ms"] for job in log.jobs]
    zero = [0.0]
    return {
        "farm.hits": hits,
        "farm.computed": computed,
        "farm.hit_ratio": hits / (hits + computed) if hits + computed else 0.0,
        "farm.deduped_frac": (
            sum(1 for job in jobs_with_status if job["deduped"])
            / max(1, len(jobs_with_status))
        ),
        "farm.job_wall_s_p50": median(walls or zero),
        "farm.wait_ms_p50": median(waits or zero),
        "farm.failed": dispositions["failed"],
        "serve.post_ms_p50": percentile(post_ms or zero, 50),
        "serve.post_ms_p99": percentile(post_ms or zero, 99),
        "serve.get_wait_ms_p50": percentile(get_ms or zero, 50),
        "serve.status_ms_p50": percentile([ms for _, ms in log.status] or zero, 50),
        "serve.latency_p50_ms": percentile(latencies or zero, 50),
        "serve.latency_p99_ms": percentile(latencies or zero, 99),
        "serve.http_4xx": log.http[4],
        "serve.http_5xx": log.http[5],
        "serve.conn_errors": log.conn_errors,
        "serve.shutdown_tracebacks": server.stderr.count("Traceback (most recent call last)"),
        "trace.wall_s": wall_s,
        # client time outside any request, over both connections
        "trace.unattributed_s": 2 * wall_s - sum(log.request_ms) / 1000.0,
    }


def run(seed: int, seconds: int, trace: bool) -> dict:
    setups: list[float] = []
    with scratch_dir() as work:
        corrector = Corrector()
        for i in range(BOOTS - 1):
            proc, started, _, setup_s, head = _boot(work, work / f"boot{i}")
            setups.append(setup_s * corrector.close())
            _shutdown(proc, started, head)
        log, stream, wall_s, server_status, server, peak_rss_mb, samples = _load(
            seed, seconds, work, work / "cache", setups, corrector
        )
    failed = _check(log, server_status, server)
    if failed:
        print(server.stderr[-4000:], file=sys.stderr)
    result = {"correct": failed == 0, "attempted": log.attempted, "failed": failed}
    ops, block_s, corrected_s = stream.block_times(samples)
    if not ops:
        raise RuntimeError("the run did not finish one block; give it more --seconds")
    host = {"raw_ops_per_s": ops / block_s, "speed": corrected_s / block_s}
    if trace:
        # the spans of this workload are the client's request timings,
        # which every run takes: tracing adds no work to the measured run
        layers = _layers(log, server, wall_s)
        layers["trace.overhead_frac"] = 0.0
        layers["host.speed"] = host["speed"]
        return {**result, "layers": layers}
    result["host"] = host
    result["metrics"] = {
        "setup_s": median(setups),
        "ops_per_s": ops / corrected_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return result

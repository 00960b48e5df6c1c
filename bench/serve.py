"""serve-64 and report-512: a closed loop of HTTP clients against `swinscan serve`.

Each of CLIENTS threads holds one keep-alive connection and sends its
next request only after the previous reply has arrived, as callers that
wait for each diagnosis do.  Every reply is compared byte for byte with
the reply an in-process PredictionService gives for the same request.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from swinscan import service as S

import spans as SP
import stats
import workloads as W

BENCH = Path(__file__).resolve().parent
CLIENTS = 2
WARMUP_PER_CLIENT = 2
SETUP_STARTS = 7  # server starts per run; setup_s is their median
START_TIMEOUT_S = 60.0
TIMESTAMP = "2026-02-03T04:05:06Z"


# ---------------------------------------------------------------------------
# HTTP/1.1 over one socket


class Connection:
    """Minimal keep-alive HTTP/1.1 client; each request goes out in one send."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def close(self):
        self.sock.close()

    def _fill(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def request(self, method: str, path: str, body: bytes = b""):
        """(status, body) of one exchange."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.sock.sendall(head + body)
        while (end := self.buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        lines = bytes(self.buf[:end]).split(b"\r\n")
        del self.buf[: end + 4]
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buf) < length:
            self._fill()
        reply = bytes(self.buf[:length])
        del self.buf[:length]
        return status, reply


# ---------------------------------------------------------------------------
# the server process


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def server_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env["SWINSCAN_TIMESTAMP"] = TIMESTAMP
    return env


class Server:
    """One `swinscan serve` child; start() times spawn to first healthy reply."""

    def __init__(self, root: Path, weights, log_path: Path, trace_out: Path = None):
        self.port = free_port()
        args = ["serve", "--weights-detect", weights[0], "--weights-classify", weights[1],
                "--port", str(self.port)]
        if trace_out is None:
            self.cmd = [sys.executable, "-m", "swinscan.service", *args]
        else:
            self.cmd = [sys.executable, str(BENCH / "launcher.py"), str(trace_out), *args]
        self.root = root
        self.log_path = log_path
        self.proc = None
        self.setup_s = None

    def start(self):
        with open(self.log_path, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                self.cmd, cwd=self.root, env=server_env(self.root),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            try:
                conn = Connection(self.port)
                try:
                    status, _ = conn.request("GET", "/v1/health")
                finally:
                    conn.close()
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server did not become healthy")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0
        return self

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self):
        """SIGINT, which `swinscan serve` handles by closing down; kill if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# closed loop


@dataclass
class Loop:
    start: float = 0.0
    end: float = 0.0
    latencies: list = field(default_factory=list)  # seconds, successful or not
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def throughput(self) -> float:
        return self.attempted / (self.end - self.start)


def closed_loop(port, pool, refs, seed, seconds) -> Loop:
    """CLIENTS waiting clients for `seconds`, after WARMUP_PER_CLIENT untimed requests each."""
    loop = Loop()
    lock = threading.Lock()
    errors = []

    def mark_start():
        loop.start = time.perf_counter()

    barrier = threading.Barrier(CLIENTS, action=mark_start)

    def client(c):
        order = W.request_order(len(pool), seed, c)
        conn = None
        try:
            conn = Connection(port)
            for _ in range(WARMUP_PER_CLIENT):
                req = pool[next(order)]
                conn.request("POST", req.route, req.body)
            barrier.wait(timeout=START_TIMEOUT_S)
            deadline = loop.start + seconds
            mine, failed = [], 0
            while time.perf_counter() < deadline:
                idx = next(order)
                req = pool[idx]
                t0 = time.perf_counter()
                try:
                    status, reply = conn.request("POST", req.route, req.body)
                    ok = status == 200 and reply == refs[idx]
                except OSError:
                    ok = False
                    conn.close()
                    conn = Connection(port)
                mine.append(time.perf_counter() - t0)
                failed += not ok
            with lock:
                loop.latencies += mine
                loop.failed += failed
                loop.end = max(loop.end, time.perf_counter())
        except Exception as exc:  # reported by the caller after join
            barrier.abort()
            errors.append(exc)
        finally:
            if conn is not None:
                conn.close()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise RuntimeError(f"client failed: {errors[0]!r}")
    return loop


# ---------------------------------------------------------------------------
# the workload


def references(pool, weights):
    """In-process (reply bytes, report) per pool entry, as the server should answer."""
    os.environ["SWINSCAN_TIMESTAMP"] = TIMESTAMP
    svc = S.PredictionService(*weights)
    refs, reports = [], []
    for req in pool:
        report, highlighted = svc.run(S.parse_request(req.body))
        if req.route == W.ROUTE_PDF:
            ref = S.write_pdf(report, highlighted)
            S.parse_pdf(ref)  # raises PdfFormatError if it does not re-parse
        else:
            ref = S.canonical_json(report)
        refs.append(ref)
        reports.append(report)
    return refs, reports


def run(workload, seed, seconds, trace, root: Path, work: Path):
    """(metrics, attempted, failed, info) for one run of a serve workload."""
    pool = W.request_pool(workload, seed)
    weights = W.served_weights(root, root / ".bench_cache")
    refs, reports = references(pool, weights)
    info = {
        "clients": CLIENTS,
        "pool_size": len(pool),
        "classify_branch_share": sum("classification" in r for r in reports) / len(pool),
        # the served model should call every disk Yes and every blank No
        "detection_matches_kind": sum(
            (r["detection"]["label"] == "Yes") == (req.kind == "disk")
            for req, r in zip(pool, reports)
        ) / len(pool),
    }
    log = work / "server.log"
    if trace:
        return run_traced(pool, refs, seed, seconds, root, weights, log, info)

    setups = []
    for i in range(SETUP_STARTS):
        server = Server(root, weights, log).start()
        setups.append(server.setup_s)
        if i < SETUP_STARTS - 1:
            server.stop()
    try:
        loop = closed_loop(server.port, pool, refs, seed, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    p, tail = stats.tail(loop.latencies, W.TAIL_CAP[workload])
    metrics = {
        "latency_p50_ms": stats.median(loop.latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "throughput_per_s": loop.throughput(),
        "setup_s": stats.median(setups),
        "peak_rss_mb": rss,
    }
    info.update(tail_percentile=p, latency_samples=loop.attempted, setup_starts=setups)
    return metrics, loop.attempted, loop.failed, info


def run_traced(pool, refs, seed, seconds, root, weights, log, info):
    """Half the time untraced, half traced; the difference is the tracing overhead."""
    server = Server(root, weights, log).start()
    try:
        plain = closed_loop(server.port, pool, refs, seed, seconds / 2)
    finally:
        server.stop()
    trace_file = log.with_name("spans.json")
    server = Server(root, weights, log, trace_out=trace_file).start()
    try:
        traced = closed_loop(server.port, pool, refs, seed, seconds / 2)
    finally:
        server.stop()
    names, spans = SP.load(trace_file)
    trace_file.unlink()

    n = traced.attempted
    selfs = SP.self_times(spans)
    window = {sid for sid, _, t0, _, parent, _, _ in spans if not parent and t0 >= traced.start}
    metrics = SP.layer_metrics(SP.layer_totals(names, spans, selfs, window), n)
    requests = SP.roots_named(names, spans, SP.REQUEST_ROOTS, since=traced.start)
    overhead_s = (sum(traced.latencies) - sum(requests.values())) / n
    accounted_s = SP.accounted_seconds(SP.layer_totals(names, spans, selfs, set(requests))) / n
    p50_plain = stats.median(plain.latencies)
    p50_traced = stats.median(traced.latencies)
    metrics.update({
        "service.http.overhead_ms": overhead_s * 1e3,
        "trace.overhead_ms": (p50_traced - p50_plain) * 1e3,
        "trace.latency_p50_ms": p50_traced * 1e3,
        "trace.accounted_ms": (accounted_s + overhead_s) * 1e3,
    })
    info.update(
        SP.accounting(metrics["trace.accounted_ms"], traced.latencies, p50_plain),
        server_requests_seen=len(requests),
    )
    # every request the clients timed must have reached a handler
    failed = plain.failed + traced.failed + (len(requests) != n) * n
    return metrics, plain.attempted + traced.attempted, failed, info

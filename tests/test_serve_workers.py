"""The HTTP server's forked compute workers: reply bytes, the bounded wait and
the workers' lifecycle, in process and through `swinscan serve`."""

import base64
import contextlib
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import procs
import synth
from swinscan import data as D
from swinscan import service as SV
from swinscan.errors import NonFiniteError, PdfLayoutError

PINNED_TS = "2026-02-03T04:05:06Z"


def body_of(image, fmt, task="full") -> bytes:
    raw = D.write_pnm(image, fmt)
    return json.dumps({"image": base64.b64encode(raw).decode("ascii"), "task": task}).encode()


class Client:
    """One keep-alive HTTP/1.1 connection; each request goes out in one send."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def close(self):
        self.sock.close()

    def _fill(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def send(self, path, body=b""):
        self.sock.sendall(f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                          f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body)

    def reply(self):
        """(status, headers, body) of the next reply."""
        while (end := self.buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        status_line, *lines = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
        del self.buf[: end + 4]
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers["Content-Length"])
        while len(self.buf) < length:
            self._fill()
        body = bytes(self.buf[:length])
        del self.buf[:length]
        return int(status_line.split()[1]), headers, body

    def post(self, path, body=b""):
        self.send(path, body)
        return self.reply()


@contextlib.contextmanager
def serving(service):
    server = SV.create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@contextlib.contextmanager
def one_cpu():
    """This thread, and what it forks, on one of the usable cpus."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class TestErrorTable:
    @pytest.mark.parametrize("exc, status, code, message", [
        (SV.RequestError(413, "payload_too_large", "too big"), 413, "payload_too_large",
         "too big"),
        (PdfLayoutError("does not fit"), 400, "bad_request", "does not fit"),
        (RuntimeError("patient_ref=P-0042"), 500, "internal", "internal error"),
        (NonFiniteError("linear produced non-finite values"), 500, "internal",
         "internal error"),
    ])
    def test_reply_per_exception_type(self, exc, status, code, message):
        body = json.dumps({"error": {"code": code, "message": message}},
                          separators=(",", ":")).encode()
        assert SV.error_reply(exc) == SV.Reply(status, "application/json", body)


def expected_reply(service, route, body):
    """(status, bytes) of the in-process pipeline, the reply every worker must give."""
    try:
        report, highlighted = service.run(SV.parse_request(body))
    except SV.RequestError as exc:
        return exc.status, SV.error_reply(exc).body
    if route == SV.PDF_ROUTE:
        return 200, SV.write_pdf(report, highlighted)
    return 200, SV.canonical_json(report)


def test_concurrent_keep_alive_clients_get_in_process_bytes(
        monkeypatch, detect_weights_path, classify_weights_path):
    monkeypatch.setenv("SWINSCAN_TIMESTAMP", PINNED_TS)
    service = SV.PredictionService(detect_weights_path, classify_weights_path)
    rng = np.random.default_rng(5)
    disk, blank = synth.disk_image(rng=rng), synth.blank_image(rng=rng)
    wide = synth.disk_image(side=96, radius=14.0, rng=rng)

    def gray(image):
        return np.repeat(image[:1], 3, axis=0)

    cases = []
    for fmt, image, task in [("P2", gray(disk), "full"), ("P3", blank, "detect"),
                             ("P5", gray(wide), "classify"), ("P6", disk, "full")]:
        cases += [(route, body_of(image, fmt, task)) for route in (SV.PREDICT_ROUTE,
                                                                   SV.PDF_ROUTE)]
    cases.append((SV.PREDICT_ROUTE, b'{"task": "full", "image": "!!"}'))
    expected = [expected_reply(service, route, body) for route, body in cases]
    assert [status for status, _ in expected].count(400) == 1

    clients, rounds = 8, 2
    mismatches, done = [], []

    def client(c):
        conn = Client(server.server_address[1])
        try:
            for i in range(rounds * len(cases)):
                k = (c + i) % len(cases)
                for _ in range(100):
                    # a worker count below 8 clients may refuse some; they retry
                    status, headers, payload = conn.post(*cases[k])
                    if status != 503:
                        break
                    time.sleep(0.01)
                if (status, payload) != expected[k]:
                    mismatches.append((c, k, status, payload[:200]))
            done.append(c)
        finally:
            conn.close()

    with serving(service) as server:
        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    assert mismatches == []
    assert sorted(done) == list(range(clients))


class GatedService(SV.PredictionService):
    """Replies {} to each request once the gate file exists."""

    def __init__(self, gate):
        self.gate = gate

    def respond(self, route, body):
        while not self.gate.exists():
            time.sleep(0.005)
        return SV.Reply(200, "application/json", b"{}")


def test_requests_beyond_the_wait_bound_get_503(tmp_path):
    gate = tmp_path / "gate"
    with one_cpu():
        server = SV.create_server(GatedService(gate), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        admitted = 1 + SV.WAITING_PER_WORKER
        clients = 8
        replies = queue.Queue()

        def client():
            conn = Client(port)
            try:
                replies.put(conn.post(SV.PREDICT_ROUTE, b"{}"))
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for t in threads:
            t.start()
        # the one worker waits at the gate, so only refusals can come back
        refused = [replies.get(timeout=30) for _ in range(clients - admitted)]
        for status, headers, payload in refused:
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert headers["Content-Type"] == "application/json"
            assert json.loads(payload)["error"]["code"] == "overloaded"
        gate.touch()
        served = [replies.get(timeout=30) for _ in range(admitted)]
        assert [(status, payload) for status, _, payload in served] == [(200, b"{}")] * admitted
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        gate.touch()  # a worker still at the gate goes on, and ends at EOF
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------------
# `swinscan serve` as a child process

SRC = str(Path(SV.__file__).resolve().parents[1])
# pins the CLI to the cpus named in argv[1], then execs the rest of argv
ON_CPUS = ("import os, sys; os.sched_setaffinity(0, map(int, sys.argv[1].split(','))); "
           "os.execv(sys.executable, [sys.executable, *sys.argv[2:]])")


@contextlib.contextmanager
def cli_server(detect_weights_path, classify_weights_path, cpus=None):
    """A `serve --port 0` child in its own session; yields (proc, port, worker pids)."""
    env = dict(os.environ, SWINSCAN_TIMESTAMP=PINNED_TS, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = [sys.executable, "-m", "swinscan.service", "serve",
            "--weights-detect", detect_weights_path,
            "--weights-classify", classify_weights_path, "--port", "0"]
    if cpus is not None:
        argv = [sys.executable, "-c", ON_CPUS, ",".join(map(str, cpus)), *argv[1:]]
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        line = proc.stderr.readline()
        assert line.startswith(b"serving on http://127.0.0.1:"), line
        # the workers are forked before the line is printed
        yield proc, int(line.rsplit(b":", 1)[1]), procs.children(proc.pid)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stderr.close()


def test_sigint_exits_0_and_reaps_every_worker(detect_weights_path, classify_weights_path):
    with cli_server(detect_weights_path, classify_weights_path) as (proc, port, workers):
        assert len(workers) == len(os.sched_getaffinity(0))
        for pid in workers:
            os.kill(pid, signal.SIGINT)
        time.sleep(0.2)
        assert all(procs.running(pid) for pid in workers)  # workers ignore SIGINT
        conn = Client(port)
        try:
            assert conn.post(SV.PREDICT_ROUTE, b"{}")[0] == 400
        finally:
            conn.close()
        os.killpg(proc.pid, signal.SIGINT)  # as ^C in a terminal
        assert proc.wait(timeout=30) == 0
        assert not any(procs.running(pid) for pid in workers)


def test_workers_exit_when_the_server_is_killed(detect_weights_path, classify_weights_path):
    with cli_server(detect_weights_path, classify_weights_path) as (proc, _, workers):
        assert workers
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 2.0
        while any(procs.running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(procs.running(pid) for pid in workers)


def test_killed_worker_gets_500_and_stops_the_server(detect_weights_path,
                                                     classify_weights_path):
    # one cpu, so one worker: the request can only go to the worker killed
    cpus = [min(os.sched_getaffinity(0))]
    with cli_server(detect_weights_path, classify_weights_path, cpus) as (proc, port, workers):
        (worker,) = workers
        os.kill(worker, signal.SIGSTOP)
        conn = Client(port)
        try:
            conn.send(SV.PREDICT_ROUTE, body_of(synth.disk_image(rng=np.random.default_rng(3)),
                                                "P6"))
            time.sleep(0.3)  # the server hands the request to the stopped worker
            os.kill(worker, signal.SIGKILL)
            status, headers, payload = conn.reply()
        finally:
            conn.close()
        assert status == 500
        assert headers["Connection"] == "close"
        assert json.loads(payload) == {"error": {"code": "internal", "message": "internal error"}}
        # a lost worker is not replaced: the server stops, for a supervisor to restart
        assert proc.wait(timeout=30) == 3
        assert f"compute worker {worker} ended".encode() in proc.stderr.read()

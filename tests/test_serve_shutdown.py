"""The HTTP server when it stops, fails to start, or a client hangs up:
SIGINT lets every admitted reply finish, a second SIGINT stops at once,
requests that wait for a killed worker get 500, a failed bind or fork
leaves no worker, a body shorter than its Content-Length is refused
before any worker sees it, and a client that closed early leaves no
traceback."""

import errno
import json
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

import procs
import synth
from swinscan import service as SV
from test_serve_workers import PINNED_TS, Client, body_of, cli_server


@pytest.fixture(scope="module")
def big_report_body():
    """A 2048² P5 /v1/report.pdf request: its reply is about 12.6 MB."""
    image = synth.disk_image(side=2048, radius=300.0, rng=np.random.default_rng(7))
    return body_of(image, "P5")


def test_sigint_lets_an_admitted_report_finish(monkeypatch, big_report_body,
                                               detect_weights_path, classify_weights_path):
    monkeypatch.setenv("SWINSCAN_TIMESTAMP", PINNED_TS)
    service = SV.PredictionService(detect_weights_path, classify_weights_path)
    expected = service.respond(SV.PDF_ROUTE, big_report_body)
    assert expected.status == 200
    with cli_server(detect_weights_path, classify_weights_path) as (proc, port, workers):
        conn = Client(port)
        try:
            conn.send(SV.PDF_ROUTE, big_report_body)
            time.sleep(0.15)  # the body is read; the reply is computed or on its way
            os.killpg(proc.pid, signal.SIGINT)
            status, headers, payload = conn.reply()
        finally:
            conn.close()
        assert (status, headers["Content-Type"]) == (200, "application/pdf")
        assert int(headers["Content-Length"]) == len(payload)
        assert payload == expected.body
        assert proc.wait(timeout=90) == 0
        assert workers and not any(procs.running(pid) for pid in workers)


def test_second_sigint_stops_without_waiting_for_admitted_replies(
        big_report_body, detect_weights_path, classify_weights_path):
    with cli_server(detect_weights_path, classify_weights_path) as (proc, port, workers):
        # more reports than workers, so the drain outlasts the second SIGINT
        conns = [Client(port) for _ in range(2 * len(workers))]
        try:
            for conn in conns:
                conn.send(SV.PDF_ROUTE, big_report_body)
            time.sleep(0.15)  # every body is read and admitted
            os.killpg(proc.pid, signal.SIGINT)
            time.sleep(0.1)  # the server stopped accepting and drains
            start = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=30) == SV.EXIT_INTERRUPTED
            assert time.monotonic() - start < 5.0
        finally:
            for conn in conns:
                conn.close()
        stderr = proc.stderr.read()
        assert workers and not any(procs.running(pid) for pid in workers)
    assert b"Traceback" not in stderr, stderr.decode(errors="replace")
    assert b"interrupted again" in stderr


def test_requests_that_wait_for_a_killed_worker_get_500(detect_weights_path,
                                                       classify_weights_path):
    body = body_of(synth.disk_image(rng=np.random.default_rng(3)), "P6")
    # one cpu, so one worker: every request waits for the worker killed
    cpus = [min(os.sched_getaffinity(0))]
    with cli_server(detect_weights_path, classify_weights_path, cpus) as (proc, port, workers):
        (worker,) = workers
        os.kill(worker, signal.SIGSTOP)
        conns = [Client(port) for _ in range(3)]
        try:
            for conn in conns:
                conn.send(SV.PREDICT_ROUTE, body)
            time.sleep(0.3)  # each request is admitted; the first is at the worker
            os.kill(worker, signal.SIGKILL)
            replies = [conn.reply() for conn in conns]
        finally:
            for conn in conns:
                conn.close()
        assert [(status, headers["Connection"]) for status, headers, _ in replies] == [
            (500, "close")] * 3
        assert proc.wait(timeout=30) == 3


class RecordingService:
    """Replies {} to /v1/predict and keeps every body that reached it."""

    def __init__(self):
        self.bodies = []  # shared with the copy that create_server makes

    def handle_predict(self, body):
        self.bodies.append(body)
        return SV.Reply(200, "application/json", b"{}")


def test_body_shorter_than_its_length_gets_400_and_no_compute():
    service = RecordingService()
    server = SV.create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        body = b'{"task": "full", "image": ""}' * 8
        with socket.create_connection(server.server_address[:2], timeout=30) as sock:
            sock.sendall(f"POST {SV.PREDICT_ROUTE} HTTP/1.1\r\nHost: test\r\n"
                         f"Content-Length: {len(body) + 50}\r\n\r\n".encode("ascii") + body)
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(65536):  # until the server closes
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"
        assert json.loads(payload)["error"]["code"] == "bad_request"
        assert service.bodies == []
        # the same body with its true length is computed
        conn = Client(server.server_address[1])
        try:
            assert conn.post(SV.PREDICT_ROUTE, body)[0] == 200
        finally:
            conn.close()
        assert service.bodies == [body]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_clients_that_hang_up_leave_no_traceback(big_report_body, detect_weights_path,
                                                 classify_weights_path):
    with cli_server(detect_weights_path, classify_weights_path) as (proc, port, _):
        for _ in range(3):
            conn = Client(port)
            conn.send(SV.PDF_ROUTE, big_report_body)
            conn.close()  # before a byte of the reply is read
        time.sleep(0.5)  # each body is read and admitted
        os.killpg(proc.pid, signal.SIGINT)  # returns once the three replies failed
        assert proc.wait(timeout=90) == 0
        stderr = proc.stderr.read()
    assert b"Traceback" not in stderr, stderr.decode(errors="replace")


def test_server_close_twice_returns_at_once():
    server = SV.create_server(RecordingService(), port=0)
    server.server_close()
    start = time.monotonic()
    server.server_close()  # every permit is already taken back
    assert time.monotonic() - start < 1.0


def test_failed_fork_reaps_the_workers_forked_before(monkeypatch):
    forked, real_fork = [], os.fork

    def fork():
        if forked:
            raise OSError(errno.EAGAIN, "fork refused by the test")
        pid = real_fork()
        forked.extend([pid] if pid else [])
        return pid

    monkeypatch.setattr(SV.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(SV.os, "fork", fork)
    start = time.monotonic()
    with pytest.raises(OSError, match="fork refused"):
        SV.create_server(RecordingService(), port=0)
    assert time.monotonic() - start < 10.0
    assert len(forked) == 1 and not procs.running(forked[0])


def test_busy_port_is_a_data_error(capsys, detect_weights_path, classify_weights_path):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        rc = SV.main(["serve", "--weights-detect", detect_weights_path,
                      "--weights-classify", classify_weights_path,
                      "--port", str(taken.getsockname()[1])])
    assert rc == 2
    assert "Address already in use" in capsys.readouterr().err

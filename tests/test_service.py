import base64
import dataclasses
import importlib.util
import json
import os
import re
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import synth
from test_pinned_bytes import _request_images
from swinscan import data as D
from swinscan import model as M
from swinscan import segment as SEG
from swinscan import service as SV
from swinscan import train as TR
from swinscan.errors import (
    ConfigurationError,
    ContractError,
    EmptyInputError,
    InputError,
    PdfFormatError,
    PdfLayoutError,
    WeightFormatError,
)

PINNED_TS = "2026-02-03T04:05:06Z"
WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SVG_NS = "{http://www.w3.org/2000/svg}"
# an ASCII PGM whose header declares far more pixels than its body holds
OVERSIZED_ASCII_PNM = b"P2\n200000 200000\n255\n0 0\n"
# a width of more digits than int() converts
LONG_WIDTH_PNM = b"P5 " + b"1" * 5000 + b" 1 255\n\x00"


def encode_image(image, fmt="P6") -> str:
    return base64.b64encode(D.write_pnm(image, fmt)).decode("ascii")


def request_body(image, task="full", **extra) -> bytes:
    body = {"image": encode_image(image), "task": task}
    body.update(extra)
    return json.dumps(body).encode("utf-8")


def black_p5(width, height) -> bytes:
    return f"P5\n{width} {height}\n255\n".encode("ascii") + bytes(width * height)


def raw_request_body(raw: bytes) -> bytes:
    return json.dumps({"image": base64.b64encode(raw).decode("ascii"), "task": "full"}).encode()


def predict(service, body) -> dict:
    """The report of an in-process /v1/predict."""
    reply = service.respond(SV.PREDICT_ROUTE, body)
    assert reply.status == 200, reply.body
    return json.loads(reply.body)


@pytest.fixture(scope="module")
def service(detect_weights_path, classify_weights_path):
    # pinned for the module, so also in the workers that live_server forks
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SWINSCAN_TIMESTAMP", PINNED_TS)
        yield SV.PredictionService(detect_weights_path, classify_weights_path)


@pytest.fixture(scope="module")
def disk():
    return synth.disk_image(rng=np.random.default_rng(11))


@pytest.fixture(scope="module")
def blank():
    return synth.blank_image(rng=np.random.default_rng(12))


def sample_report(with_classification=True, patient_ref=None):
    detection = (1, np.array([0.03, 0.97]))
    classification = (2, np.array([0.1, 0.2, 0.7])) if with_classification else None
    mask = np.zeros((20, 20), dtype=bool)
    mask[4:8, 5:11] = True
    seg = SEG.estimate_size(SEG.connected_components(mask), pixel_spacing_mm=0.5)
    versions = {"detect": "sha256:" + "0" * 64, "classify": "sha256:" + "1" * 64}
    return SV.build_report(
        detection,
        classification,
        seg,
        task="full",
        model_versions=versions,
        timestamp=PINNED_TS,
        patient_ref=patient_ref,
    )


class TestParseRequest:
    def test_full_round_trip(self, disk):
        body = request_body(disk, task="detect", pixel_spacing_mm=0.5,
                            patient_ref="case-7")
        req = SV.parse_request(body)
        assert req.task == "detect"
        assert req.pixel_spacing_mm == 0.5
        assert req.patient_ref == "case-7"
        assert req.pixels.shape == (64, 64, 3) and req.maxval == 255

    def test_holds_the_stored_bytes_and_no_float_image(self, disk):
        req = SV.parse_request(request_body(disk))
        arrays = [getattr(req, f.name) for f in dataclasses.fields(req)
                  if isinstance(getattr(req, f.name), np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is req.pixels
        assert req.pixels.dtype == np.uint8
        assert np.array_equal(req.pixels, SEG.rgb_from_unit(disk))  # as write_pnm stored it

    def test_unknown_fields_ignored(self, disk):
        req = SV.parse_request(request_body(disk, extra_field=123, another="x"))
        assert req.task == "full"

    def test_optional_fields_default_to_none(self, disk):
        req = SV.parse_request(request_body(disk))
        assert req.pixel_spacing_mm is None and req.patient_ref is None

    @pytest.mark.parametrize(
        "body,code",
        [
            (b"{not json", "bad_json"),
            (b'["array"]', "bad_json"),
            (b'{"image": "QUJD", "task": "nope"}', "bad_task"),
            (b'{"image": "QUJD"}', "bad_task"),
            (b'{"image": "!!!", "task": "detect"}', "bad_encoding"),
            (b'{"image": 7, "task": "detect"}', "bad_encoding"),
            (b'{"task": "detect"}', "bad_encoding"),
            (b'{"image": "QUJD", "task": "detect"}', "bad_image"),
            pytest.param(b'{"n": ' + b"1" * 5000 + b"}", "bad_json", id="over-long-integer"),
            # json.loads raises RecursionError, not ValueError, past its depth
            pytest.param(b"[" * 100000, "bad_json", id="deep-array"),
            pytest.param(b'{"a": ' * 100000 + b"1" + b"}" * 100000, "bad_json", id="deep-object"),
        ],
    )
    def test_rejects_with_code(self, body, code):
        with pytest.raises(SV.RequestError) as exc_info:
            SV.parse_request(body)
        assert exc_info.value.status == 400
        assert exc_info.value.code == code

    @pytest.mark.parametrize(
        "spacing",
        [0, -1.5, "thin", True, float("nan"), float("inf"), 1e200, 1001,
         pytest.param(10 ** 400, id="10**400")],
    )
    def test_bad_spacing(self, disk, spacing):
        body = json.dumps(
            {"image": encode_image(disk), "task": "full", "pixel_spacing_mm": spacing}
        ).encode()
        with pytest.raises(SV.RequestError) as exc_info:
            SV.parse_request(body)
        assert exc_info.value.code == "bad_spacing"

    def test_largest_spacing_accepted(self, disk):
        req = SV.parse_request(request_body(disk, pixel_spacing_mm=SV.MAX_PIXEL_SPACING_MM))
        assert req.pixel_spacing_mm == SV.MAX_PIXEL_SPACING_MM
        schema = SV.load_schema("predict_request.v1")
        assert schema["properties"]["pixel_spacing_mm"]["maximum"] == SV.MAX_PIXEL_SPACING_MM

    def test_non_text_patient_ref(self, disk):
        with pytest.raises(SV.RequestError) as exc_info:
            SV.parse_request(request_body(disk, patient_ref=5))
        assert exc_info.value.code == "bad_patient_ref"

    def test_oversized_body_is_413(self):
        body = b'{"pad": "' + b"x" * SV.MAX_REQUEST_BYTES + b'"}'
        with pytest.raises(SV.RequestError) as exc_info:
            SV.parse_request(body)
        assert exc_info.value.status == 413
        assert exc_info.value.code == "payload_too_large"

    @pytest.mark.parametrize("width, height", [(2049, 1), (1, 2049)])
    def test_image_side_over_limit_refused(self, width, height):
        with pytest.raises(SV.RequestError) as exc_info:
            SV.parse_request(raw_request_body(black_p5(width, height)))
        assert exc_info.value.status == 400
        assert exc_info.value.code == "image_too_large"

    @pytest.mark.parametrize("raw", [
        black_p5(2049, 2049),
        b"P2 1 4097 255\n" + b"x " * 4097,  # no value would decode
    ], ids=["P5-2049x2049", "P2-1x4097-bad-values"])
    def test_image_side_over_limit_refused_before_the_body_is_decoded(self, raw,
                                                                       monkeypatch):
        def decode(_):
            raise AssertionError("the pixel data was decoded")

        monkeypatch.setattr(D, "load_pnm", decode)
        with pytest.raises(SV.RequestError) as exc_info:
            SV.parse_request(raw_request_body(raw))
        assert exc_info.value.code == "image_too_large"

    def test_image_side_at_limit_accepted(self):
        req = SV.parse_request(raw_request_body(black_p5(SV.MAX_IMAGE_SIDE_PX, 1)))
        assert req.pixels.shape == (1, SV.MAX_IMAGE_SIDE_PX, 1)

    def test_binary_pixel_over_maxval_is_bad_image(self):
        with pytest.raises(SV.RequestError) as exc_info:
            SV.parse_request(raw_request_body(b"P5\n2 1\n7\n\x03\xc8"))
        assert exc_info.value.code == "bad_image"
        assert "pixel value 200 exceeds maxval 7" in str(exc_info.value)


class TestBuildReport:
    def test_fixed_inputs_are_byte_identical(self):
        a = SV.canonical_json(sample_report())
        b = SV.canonical_json(sample_report())
        assert a == b

    def test_key_order_is_stable(self):
        keys = list(sample_report(patient_ref="p1"))
        assert keys == [
            "version", "timestamp", "task", "patient_ref", "detection",
            "classification", "segmentation", "model_versions", "disclaimer",
        ]

    def test_classification_block_omitted_when_absent(self):
        report = sample_report(with_classification=False)
        assert "classification" not in report
        assert report["segmentation"]["region_found"]

    def test_probabilities_echo_within_1e12(self):
        probs = np.array([0.123456789012345, 0.876543210987655])
        report = SV.build_report(
            (1, probs), None,
            SEG.estimate_size(SEG.connected_components(np.zeros((2, 2), dtype=bool))),
            task="detect", model_versions={"detect": "d", "classify": "c"},
            timestamp=PINNED_TS,
        )
        got = report["detection"]["probabilities"]
        assert abs(got["No"] - probs[0]) <= 1e-12
        assert abs(got["Yes"] - probs[1]) <= 1e-12

    def test_probabilities_sum_within_1e9(self):
        report = sample_report()
        for block in ("detection", "classification"):
            total = sum(report[block]["probabilities"].values())
            assert abs(total - 1.0) <= 1e-9

    def test_missing_detection_rejected(self):
        with pytest.raises(ContractError):
            SV.build_report(
                None, None, None, task="detect",
                model_versions={}, timestamp=PINNED_TS,
            )

    def test_classification_with_no_detection_rejected(self):
        seg = SEG.estimate_size(
            SEG.connected_components(np.zeros((2, 2), dtype=bool))
        )
        with pytest.raises(ContractError):
            SV.build_report(
                (0, np.array([0.9, 0.1])),
                (1, np.array([0.2, 0.5, 0.3])),
                seg,
                task="full", model_versions={}, timestamp=PINNED_TS,
            )

    def test_disclaimer_always_present(self):
        assert sample_report(with_classification=False)["disclaimer"] == SV.DISCLAIMER

    def test_validates_against_schema(self):
        schema = SV.load_schema("diagnostic_report.v1")
        jsonschema.validate(sample_report(patient_ref="x"), schema)
        jsonschema.validate(sample_report(with_classification=False), schema)


class TestServicePipeline:
    def test_bright_disk_is_detected(self, service, disk):
        report = predict(service, request_body(disk))
        assert report["detection"]["label"] == "Yes"
        assert report["detection"]["probabilities"]["Yes"] > 0.9
        assert "classification" in report
        assert report["segmentation"]["region_found"]
        assert report["segmentation"]["area_px"] > 0

    def test_blank_image_is_negative(self, service, blank):
        report = predict(service, request_body(blank))
        assert report["detection"]["label"] == "No"
        assert "classification" not in report

    def test_detect_task_never_classifies(self, service, disk):
        report = predict(service, request_body(disk, task="detect"))
        assert report["detection"]["label"] == "Yes"
        assert "classification" not in report

    def test_spacing_yields_area_mm2(self, service, disk):
        report = predict(service, request_body(disk, pixel_spacing_mm=2.0))
        seg = report["segmentation"]
        assert seg["area_mm2"] == pytest.approx(seg["area_px"] * 4.0)

    def test_segmentation_runs_at_original_resolution(self, service):
        # a 128px-wide disk: the reported area must be measured on the
        # 128x128 input, not the model's 64x64 grid
        image = synth.disk_image(side=128, radius=20.0, noise=0.0,
                                 rng=np.random.default_rng(3))
        report = predict(service, request_body(image))
        assert report["segmentation"]["area_px"] > 900

    def test_predict_reply_is_the_report_of_run(self, service, monkeypatch):
        # respond builds no overlay for /v1/predict; its JSON is still the
        # report run gives, for the report-512 benchmark pool and the
        # pinned gray scans
        monkeypatch.setenv("SWINSCAN_TIMESTAMP", PINNED_TS)
        spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS_PATH)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        bodies = [req.body for req in workloads.report_pool(1)]
        bodies += [json.dumps({"image": base64.b64encode(raw).decode("ascii"), "task": "full",
                               "pixel_spacing_mm": 0.5}).encode()
                   for raw in _request_images().values()]
        for body in bodies:
            report, highlighted = service.run(SV.parse_request(body))
            assert highlighted.shape[2] == 3
            reply = service.respond(SV.PREDICT_ROUTE, body)
            assert reply.status == 200 and reply.body == SV.canonical_json(report)

    def test_predict_builds_no_overlay(self, service, disk, blank, monkeypatch):
        calls = []
        for name in ("highlight_yellow", "_rgb_copy"):
            def counted(*args, _fn=getattr(SEG, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(SEG, name, counted)
        gray_disk = json.dumps({"image": encode_image(np.repeat(disk[:1], 3, axis=0), "P5"),
                                "task": "full"}).encode()
        for body in (request_body(disk), request_body(blank), gray_disk):
            assert service.respond(SV.PREDICT_ROUTE, body).status == 200
        assert calls == []
        service.respond(SV.PDF_ROUTE, request_body(disk))
        assert "highlight_yellow" in calls

    def test_model_overflow_is_an_internal_error(self, tmp_path, disk):
        # finite weights that load_weights accepts, large enough that the
        # model overflows; no request can do that, so the server is at fault
        paths = []
        for name, classes in (("detect", 2), ("classify", 3)):
            weights = M.ModelWeights.init(M.default_config(classes), seed=0)
            for t in weights.tensors():
                t.data[...] = 1e300
            paths.append(str(tmp_path / f"{name}.swnw"))
            M.save_weights(paths[-1], weights)
        reply = SV.PredictionService(*paths).respond(SV.PREDICT_ROUTE, request_body(disk))
        assert reply.status == 500
        assert json.loads(reply.body) == {"error": {"code": "internal",
                                                    "message": "internal error"}}

    def test_identical_requests_identical_bytes(self, service, disk):
        body = request_body(disk, patient_ref="rep")
        first = service.respond(SV.PREDICT_ROUTE, body)
        second = service.respond(SV.PREDICT_ROUTE, body)
        assert first == second

    def test_response_validates_against_schema(self, service, disk, blank):
        schema = SV.load_schema("diagnostic_report.v1")
        jsonschema.validate(predict(service, request_body(disk)), schema)
        jsonschema.validate(predict(service, request_body(blank)), schema)

    def test_model_versions_are_file_digests(
        self, service, detect_weights_path, classify_weights_path, disk
    ):
        report = predict(service, request_body(disk))
        assert report["model_versions"] == {
            "detect": SV.file_digest(detect_weights_path),
            "classify": SV.file_digest(classify_weights_path),
        }

    def test_timestamp_env_pins_default_clock(
        self, monkeypatch, detect_weights_path, classify_weights_path, disk
    ):
        monkeypatch.setenv("SWINSCAN_TIMESTAMP", "2001-01-01T00:00:00Z")
        svc = SV.PredictionService(detect_weights_path, classify_weights_path)
        report = predict(svc, request_body(disk))
        assert report["timestamp"] == "2001-01-01T00:00:00Z"

    def test_head_size_checked_at_startup(
        self, detect_weights_path, classify_weights_path
    ):
        from swinscan.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SV.PredictionService(classify_weights_path, classify_weights_path)
        with pytest.raises(ConfigurationError):
            SV.PredictionService(detect_weights_path, detect_weights_path)

    def test_other_architecture_refused_at_startup(self, capsys, tmp_path,
                                                   detect_weights_path, classify_weights_path):
        # a 32 px classifier would load, then fail every request that
        # reaches the classify branch as the client's 400
        blob = bytearray(Path(classify_weights_path).read_bytes())
        blob[8:12] = struct.pack("<I", 32)  # the config block's image_size
        mismatched = tmp_path / "classify32.swnw"
        mismatched.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError) as err:
            SV.PredictionService(detect_weights_path, str(mismatched))
        assert err.value.offset == 8
        image = tmp_path / "scan.pnm"
        image.write_bytes(black_p5(4, 4))
        # the operator must see which of the two weight files is at fault
        for argv in (["serve", "--port", "0"], ["predict", "--image", str(image)]):
            argv += ["--weights-detect", detect_weights_path,
                     "--weights-classify", str(mismatched)]
            assert SV.main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"{mismatched}: config block" in err and "(byte offset 8)" in err


class TestPdf:
    def test_framing(self):
        pdf = SV.write_pdf(sample_report(), np.zeros((16, 16, 3), dtype=np.uint8))
        assert pdf.startswith(b"%PDF-1.4")
        assert pdf.endswith(b"%%EOF\n")

    def test_reparse_single_page(self):
        pdf = SV.write_pdf(
            sample_report(with_classification=False),
            np.zeros((16, 16, 3), dtype=np.uint8),
        )
        info = SV.parse_pdf(pdf)
        assert info.page_count == 1
        assert info.object_count == 7

    def test_reparse_two_pages_with_classification(self):
        pdf = SV.write_pdf(sample_report(), np.zeros((16, 16, 3), dtype=np.uint8))
        info = SV.parse_pdf(pdf)
        assert info.page_count == 2
        assert info.object_count == 9

    def test_xref_offsets_point_at_objects(self):
        pdf = SV.write_pdf(sample_report(), np.zeros((8, 8, 3), dtype=np.uint8))
        info = SV.parse_pdf(pdf)
        for num, at in info.xref_offsets.items():
            assert pdf[at:].startswith(f"{num} 0 obj".encode())

    def test_byte_identical_across_runs(self):
        image = np.arange(16 * 16 * 3, dtype=np.uint8).reshape(16, 16, 3)
        assert SV.write_pdf(sample_report(), image) == SV.write_pdf(
            sample_report(), image
        )

    def test_corrupted_xref_detected(self):
        pdf = bytearray(
            SV.write_pdf(sample_report(), np.zeros((8, 8, 3), dtype=np.uint8))
        )
        # corrupt object 1's offset: first in-use entry after the free one
        xref_at = pdf.rindex(b"\nxref\n") + 1
        header_end = pdf.index(b"\n", xref_at + 5) + 1
        pdf[header_end + 20] = ord("9")
        with pytest.raises(PdfFormatError):
            SV.parse_pdf(bytes(pdf))

    def test_truncated_tail_detected(self):
        pdf = SV.write_pdf(sample_report(), np.zeros((8, 8, 3), dtype=np.uint8))
        with pytest.raises(PdfFormatError):
            SV.parse_pdf(pdf[:-3])

    def test_bad_header_detected(self):
        with pytest.raises(PdfFormatError) as exc_info:
            SV.parse_pdf(b"%PDF-1.7\njunk%%EOF\n")
        assert exc_info.value.offset == 0

    def test_oversized_image_is_layout_error(self):
        tall = np.zeros((SV.MAX_IMAGE_SIDE_PX + 1, 4, 3), dtype=np.uint8)
        with pytest.raises(PdfLayoutError):
            SV.write_pdf(sample_report(), tall)

    def test_wrong_dtype_rejected(self):
        with pytest.raises(InputError):
            SV.write_pdf(sample_report(), np.zeros((8, 8, 3), dtype=np.float64))

    def test_embedded_pixels_are_verbatim(self):
        image = np.random.default_rng(0).integers(
            0, 256, size=(12, 10, 3), dtype=np.uint8
        )
        assert image.tobytes() in SV.write_pdf(sample_report(), image)

    def test_page_names_in_image_bytes_not_counted(self):
        # raw RGB that spells "/Type /PageX" three times: only object
        # dictionaries hold pages, stream payloads may hold any bytes
        image = np.frombuffer(b"/Type /PageX" * 3, dtype=np.uint8).reshape(1, 12, 3)
        pdf = SV.write_pdf(sample_report(with_classification=False), image)
        assert pdf.count(b"/Type /Page") == 5  # the page tree, one page, three in pixels
        assert SV.parse_pdf(pdf).page_count == 1

    def test_page_count_mismatch_detected(self):
        pdf = SV.write_pdf(sample_report(with_classification=False),
                           np.zeros((8, 8, 3), dtype=np.uint8))
        with pytest.raises(PdfFormatError, match="declared 2 pages but found 1") as exc_info:
            SV.parse_pdf(pdf.replace(b"/Count 1", b"/Count 2"))
        assert exc_info.value.offset == pdf.index(b"/Type /Pages")

    def test_service_pdf_passes_reparse(self, service, disk):
        pdf = service.respond(SV.PDF_ROUTE, request_body(disk)).body
        info = SV.parse_pdf(pdf)
        assert info.page_count == 2  # classification present for the disk


class TestSvg:
    def history(self, n=3):
        return [
            TR.EpochMetrics(i + 1, 2, 0.5 / (i + 1), 0.5 + 0.1 * i,
                            0.6 + 0.1 * i, 0.55 + 0.1 * i, 0.57 + 0.1 * i)
            for i in range(n)
        ]

    def test_history_plot_has_four_polylines(self):
        svg = SV.render_history_plot(self.history())
        root = ET.fromstring(svg)
        lines = root.findall(f".//{SVG_NS}polyline")
        assert len(lines) == 4
        for line in lines:
            assert len(line.get("points").split()) == 3

    def test_history_plot_legend_names(self):
        svg = SV.render_history_plot(self.history())
        texts = [t.text for t in ET.fromstring(svg).findall(f".//{SVG_NS}text")]
        for name in ("accuracy", "precision", "recall", "f1"):
            assert name in texts

    def test_single_epoch_history(self):
        root = ET.fromstring(SV.render_history_plot(self.history(1)))
        assert len(root.findall(f".//{SVG_NS}polyline")) == 4

    def test_empty_history_rejected(self):
        with pytest.raises(EmptyInputError):
            SV.render_history_plot([])

    def test_comparison_has_ten_bars_final_distinguished(self):
        root = ET.fromstring(SV.render_comparison_plot())
        rects = root.findall(f".//{SVG_NS}rect")
        bars = [r for r in rects if r.get("fill") in ("#7f7f7f", "#d62728")]
        assert len(bars) == 10
        assert bars[-1].get("class") == "own"
        assert all(b.get("class") is None for b in bars[:-1])

    def test_comparison_final_bar_value(self):
        root = ET.fromstring(SV.render_comparison_plot())
        texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
        assert "99.81" in texts
        assert "Our Approach" in texts
        assert "KNN" in texts and "ANFIS" in texts


@pytest.fixture(scope="module")
def live_server(service):
    server = SV.create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def http(url, data=None, method=None):
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class KeepAlive:
    """One keep-alive HTTP/1.1 connection with TCP_NODELAY; each request goes out in one send."""

    def __init__(self, url):
        host, port = url.rsplit("/", 1)[1].split(":")
        self.sock = socket.create_connection((host, int(port)), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()

    def _fill(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def request(self, method, path, body=b""):
        """(status, body) of one exchange."""
        self.sock.sendall(f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                          f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body)
        while (end := self.buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = bytes(self.buf[:end])
        del self.buf[: end + 4]
        length = int(re.search(rb"\r\nContent-Length: (\d+)", head).group(1))
        while len(self.buf) < length:
            self._fill()
        reply = bytes(self.buf[:length])
        del self.buf[:length]
        return int(head.split()[1]), reply


def raw_replies(url, data: bytes):
    """[(head, body)] of every reply to `data` on one connection, until the server closes it.

    A reply without a status line and a Content-Length fails the parse.
    """
    host, port = url.rsplit("/", 1)[1].split(":")
    stream = b""
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(data)
        while chunk := sock.recv(65536):
            stream += chunk
    replies = []
    while stream:
        head, sep, rest = stream.partition(b"\r\n\r\n")
        assert sep and head.startswith(b"HTTP/1.1 "), stream[:200]
        length = int(re.search(rb"\r\nContent-Length: (\d+)", head).group(1))
        replies.append((head, rest[:length]))
        stream = rest[length:]
    return replies


def refusal(url, data: bytes, status: int) -> dict:
    """The error object of the one reply to `data`, which must close the connection."""
    (head, payload), = raw_replies(url, data)
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    assert b"\r\nConnection: close" in head
    assert b"\r\nContent-Type: application/json" in head
    return json.loads(payload)["error"]


class TestHttp:
    def test_predict_matches_in_process_handler(self, live_server, service, disk):
        body = request_body(disk, patient_ref="wire")
        status, headers, payload = http(f"{live_server}/v1/predict", body)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert payload == service.respond(SV.PREDICT_ROUTE, body).body

    def test_report_pdf_endpoint(self, live_server, disk):
        status, headers, payload = http(f"{live_server}/v1/report.pdf",
                                        request_body(disk))
        assert status == 200
        assert headers["Content-Type"] == "application/pdf"
        assert SV.parse_pdf(payload).page_count == 2

    def test_health(self, live_server, service):
        status, _, payload = http(f"{live_server}/v1/health")
        assert status == 200
        body = json.loads(payload)
        assert body["status"] == "ok"
        assert body["model_versions"] == service.model_versions

    def test_bad_task_is_400_with_code(self, live_server):
        status, _, payload = http(
            f"{live_server}/v1/predict",
            b'{"image": "QUJD", "task": "wrong"}',
        )
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad_task"

    def test_deeply_nested_body_is_400(self, live_server):
        status, _, payload = http(f"{live_server}/v1/predict", b"[" * 5000)
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad_json"

    def test_unknown_route_is_404(self, live_server):
        status, _, payload = http(f"{live_server}/v1/nothing", b"{}")
        assert status == 404
        assert json.loads(payload)["error"]["code"] == "not_found"

    def test_oversized_payload_is_413(self, live_server):
        body = b'{"pad": "' + b"x" * SV.MAX_REQUEST_BYTES + b'"}'
        status, _, payload = http(f"{live_server}/v1/predict", body)
        assert status == 413
        assert json.loads(payload)["error"]["code"] == "payload_too_large"

    @pytest.mark.parametrize("spacing", [float("nan"), float("inf"), 1e200])
    def test_unusable_spacing_is_400(self, live_server, disk, spacing):
        body = request_body(disk, pixel_spacing_mm=spacing)
        status, _, payload = http(f"{live_server}/v1/predict", body)
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad_spacing"

    def test_negative_content_length_is_400(self, live_server):
        host, port = live_server.rsplit("/", 1)[1].split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: -5\r\n\r\n")
            reply = b""
            while chunk := sock.recv(65536):  # the server closes after replying
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(payload)["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("value", [b"5_0", b"+2", b"\xb2", b""])
    def test_non_digit_content_length_is_400(self, live_server, value):
        # int() reads "5_0" as 50 and "+2" as 2; the body sent is as long
        # as int() reads it, so a server that accepts the value replies
        # instead of waiting for more bytes
        try:
            n = int(value.decode("latin-1"))
        except ValueError:
            n = 2
        body = b"{" + b" " * (n - 2) + b"}"
        error = refusal(live_server, b"POST /v1/predict HTTP/1.1\r\nHost: test\r\n"
                        b"Connection: close\r\nContent-Length: " + value + b"\r\n\r\n" + body, 400)
        assert error == {"code": "bad_request", "message": "invalid Content-Length"}

    def test_differing_content_lengths_are_400(self, live_server):
        error = refusal(live_server, b"POST /v1/predict HTTP/1.1\r\nHost: test\r\n"
                        b"Connection: close\r\nContent-Length: 2\r\nContent-Length: 3\r\n"
                        b"\r\n{} ", 400)
        assert error["message"] == "invalid Content-Length"

    def test_content_length_padding_is_accepted(self, live_server):
        (head, payload), = raw_replies(live_server, b"POST /v1/predict HTTP/1.1\r\n"
                                       b"Connection: close\r\nContent-Length: \t2 \r\n\r\n{}")
        assert json.loads(payload)["error"]["code"] == "bad_task"

    @pytest.mark.parametrize("method", ["POST", "GET"])
    def test_transfer_encoding_is_refused_once(self, live_server, method):
        # the chunk bytes must not be parsed as a second request
        error = refusal(live_server, f"{method} /v1/predict HTTP/1.1\r\nHost: test\r\n".encode()
                        + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 400)
        assert error == {"code": "bad_request", "message": "Transfer-Encoding is not supported"}

    def test_get_body_is_not_read_as_a_request(self, live_server):
        replies = raw_replies(live_server, b"GET /v1/health HTTP/1.1\r\nHost: test\r\n"
                              b"Content-Length: 8\r\n\r\nJUNK\r\n\r\n"
                              b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert [head.split()[1] for head, _ in replies] == [b"200", b"200"]
        assert all(json.loads(body)["status"] == "ok" for _, body in replies)

    @pytest.mark.parametrize("request_bytes, status", [
        pytest.param(b"GARBAGE\r\n\r\n", 400, id="one-word"),
        # HTTP/0.9 allows only GET
        pytest.param(b"POST /v1/predict\r\n\r\n", 400, id="http09-post"),
        pytest.param(b"GET /v1/health HTTP/x\r\n\r\n", 400, id="bad-version"),
        pytest.param(b"GET /v1/health HTTP/2.0\r\n\r\n", 505, id="http2"),
        pytest.param(b"PUT /v1/predict HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501,
                     id="put"),
        # exactly the bytes the server reads before it refuses, so that
        # closing leaves none unread
        pytest.param(b"GET /" + b"a" * (65537 - 5), 414, id="long-request-line"),
        pytest.param(b"GET /v1/health HTTP/1.1\r\nX: " + b"a" * (65537 - 3), 431,
                     id="long-header-line"),
        pytest.param(b"GET /v1/health HTTP/1.1\r\n" + b"X: a\r\n" * 101, 431,
                     id="101-headers"),
    ])
    def test_malformed_http_gets_json_refusal(self, live_server, request_bytes, status):
        error = refusal(live_server, request_bytes, status)
        assert error == {"code": "bad_request",
                         "message": SV._Handler.responses[status][0]}

    def test_request_line_without_version_gets_a_status_line(self, live_server):
        (head, payload), = raw_replies(live_server, b"GET /v1/nothing\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 ")
        assert json.loads(payload)["error"]["code"] == "not_found"

    def test_head_refusal_has_no_body(self, live_server):
        (head, payload), = raw_replies(live_server, b"HEAD /v1/health HTTP/1.1\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ") and payload == b""

    def test_keep_alive_replies_do_not_wait_for_a_delayed_ack(self, live_server):
        # with Nagle's algorithm on, a reply's body waits for the ACK of its
        # head, which a client may delay by up to 40 ms (RFC 1122 4.2.3.2);
        # a new connection per request, as http() opens, never shows it
        with KeepAlive(live_server) as conn:
            for method, path, body, status in [("GET", "/v1/health", b"", 200),
                                               ("POST", "/v1/predict", b"{}", 400)]:
                seconds = []
                for _ in range(9):
                    start = time.perf_counter()
                    assert conn.request(method, path, body)[0] == status
                    seconds.append(time.perf_counter() - start)
                assert statistics.median(seconds) < 0.020, (path, seconds)

    @pytest.mark.parametrize("sent", [b"GET /v1/health\r\n", b""], ids=["partial", "idle"])
    def test_stalled_connection_is_closed_after_the_timeout(self, live_server, monkeypatch,
                                                             sent):
        # a request that never completes, or no request at all, would
        # otherwise hold its handler thread for as long as the client waits;
        # the served timeout is a minute, shortened here to keep the test fast
        assert SV._Handler.timeout == 60
        monkeypatch.setattr(SV._Handler, "timeout", 0.5)
        host, port = live_server.rsplit("/", 1)[1].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(sent)
            assert sock.recv(65536) == b""
        assert http(f"{live_server}/v1/health")[0] == 200

    def test_ascii_extents_beyond_body_is_bad_image(self, live_server):
        body = json.dumps({
            "image": base64.b64encode(OVERSIZED_ASCII_PNM).decode("ascii"), "task": "full",
        }).encode()
        status, _, payload = http(f"{live_server}/v1/predict", body)
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad_image"

    def test_header_number_beyond_int_digit_limit_is_bad_image(self, live_server):
        status, _, payload = http(f"{live_server}/v1/predict", raw_request_body(LONG_WIDTH_PNM))
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad_image"

    @pytest.mark.parametrize("route", ["/v1/predict", "/v1/report.pdf"])
    @pytest.mark.parametrize("width, height", [(2049, 1), (1, 2049)])
    def test_image_side_over_limit_is_400(self, live_server, route, width, height):
        body = raw_request_body(black_p5(width, height))
        status, _, payload = http(f"{live_server}{route}", body)
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "image_too_large"

    @pytest.mark.parametrize("route", ["/v1/predict", "/v1/report.pdf"])
    def test_image_side_at_limit_is_served(self, live_server, route):
        body = raw_request_body(black_p5(SV.MAX_IMAGE_SIDE_PX, 1))
        status, _, payload = http(f"{live_server}{route}", body)
        assert status == 200

    def test_binary_pixel_over_maxval_is_bad_image(self, live_server):
        body = raw_request_body(b"P5\n2 1\n7\n\x03\xc8")
        status, _, payload = http(f"{live_server}/v1/predict", body)
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad_image"

    def test_unexpected_exception_is_json_500(self):
        class BrokenService:
            def handle_predict(self, body):
                raise RuntimeError("patient_ref=P-0042 in the exception text")

            def health(self):
                return {"status": "ok"}

        server = SV.create_server(BrokenService(), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            status, headers, payload = http(f"{url}/v1/predict", b"{}")
            assert status == 500
            assert headers["Connection"] == "close"
            assert json.loads(payload) == {
                "error": {"code": "internal", "message": "internal error"}
            }
            # the server survives: a new connection is still served
            assert http(f"{url}/v1/predict", b"{}")[0] == 500
            assert http(f"{url}/v1/health")[0] == 200
        finally:
            server.shutdown()
            server.server_close()

    def test_request_order_does_not_matter(self, live_server, disk, blank):
        bodies = [request_body(disk), request_body(blank), request_body(disk, task="detect")]
        first = [http(f"{live_server}/v1/predict", b)[2] for b in bodies]
        second = [http(f"{live_server}/v1/predict", b)[2] for b in reversed(bodies)]
        assert first == list(reversed(second))


class TestResolvePort:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("SWINSCAN_PORT", "7777")
        assert SV.resolve_port(9000) == 9000

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SWINSCAN_PORT", "7777")
        assert SV.resolve_port(None) == 7777

    def test_default(self, monkeypatch):
        monkeypatch.delenv("SWINSCAN_PORT", raising=False)
        assert SV.resolve_port(None) == SV.DEFAULT_PORT

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("SWINSCAN_PORT", "eighty")
        with pytest.raises(ConfigurationError):
            SV.resolve_port(None)

    def test_range_ends_accepted(self, monkeypatch):
        monkeypatch.setenv("SWINSCAN_PORT", "65535")
        assert SV.resolve_port(None) == 65535
        assert SV.resolve_port(0) == 0

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_flag_out_of_range_rejected(self, port):
        with pytest.raises(ConfigurationError, match="--port"):
            SV.resolve_port(port)

    @pytest.mark.parametrize("port", ["-1", "65536", "70000"])
    def test_env_out_of_range_rejected(self, monkeypatch, port):
        monkeypatch.setenv("SWINSCAN_PORT", port)
        with pytest.raises(ConfigurationError, match="SWINSCAN_PORT"):
            SV.resolve_port(None)


class TestCli:
    def test_no_arguments_is_usage_error(self, capsys):
        assert SV.main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert SV.main(["eval", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code = SV.main(
            ["eval", "--weights", str(tmp_path / "none.swnw"),
             "--manifest", str(tmp_path / "none.csv")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_plot_history(self, tmp_path):
        csv = tmp_path / "epochs.csv"
        TR.log_epoch_metrics(
            [TR.EpochMetrics(1, 2, 0.6, 0.5, 0.5, 0.5, 0.5),
             TR.EpochMetrics(2, 2, 0.4, 0.8, 0.8, 0.8, 0.8)],
            str(csv),
        )
        out = tmp_path / "history.svg"
        assert SV.main(["plot", "--history", str(csv), "--out", str(out)]) == 0
        root = ET.parse(out).getroot()
        assert len(root.findall(f".//{SVG_NS}polyline")) == 4

    def test_plot_malformed_history_is_data_error(self, capsys, tmp_path):
        csv = tmp_path / "epochs.csv"
        csv.write_text("epoch,steps,mean_loss,accuracy,precision,recall,f1\n1,2,0.5\n")
        out = tmp_path / "history.svg"
        assert SV.main(["plot", "--history", str(csv), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{csv} line 2" in err
        assert not out.exists()

    def test_plot_out_of_range_history_is_data_error(self, capsys, tmp_path):
        # NaN, infinity and a negative rate once drew points off the canvas
        csv = tmp_path / "epochs.csv"
        csv.write_text("epoch,steps,mean_loss,accuracy,precision,recall,f1\n"
                       "1,2,nan,inf,-5,0.5,0.5\n")
        out = tmp_path / "history.svg"
        assert SV.main(["plot", "--history", str(csv), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{csv} line 2: mean_loss nan" in err
        assert not out.exists()

    @pytest.mark.parametrize("case", [
        "weight-name", "weight-extents", "weight-zero-extent", "weight-nan", "weight-inf",
        "manifest", "manifest-long-field",
        "manifest-nul-path", "epoch-csv",
    ])
    def test_unreadable_operator_file_is_data_error(self, capsys, tmp_path,
                                                    detect_weights_path, case):
        blob = Path(detect_weights_path).read_bytes()
        # magic, version and the config block of a real file, then one parameter
        head = blob[:8 + 4 * len(M._config_words(M.default_config(2)))] + struct.pack("<I", 1)
        named = head + struct.pack("<I", 1) + b"x"
        content, message = {
            "weight-name": (head + struct.pack("<I", 2) + b"\xff\xfe",
                            "parameter name is not UTF-8"),
            # 8 * 2**64 bytes of values, past what an int64 product holds
            "weight-extents": (named + struct.pack("<5I", 4, *[65536] * 4),
                               "truncated weight file"),
            "weight-zero-extent": (named + struct.pack("<5I", 4, 0, *[2 ** 32 - 1] * 3),
                                   "extents [0, 4294967295, 4294967295, 4294967295] too large"),
            "weight-nan": (named + struct.pack("<2Id", 1, 1, float("nan")),
                           "parameter x has non-finite values"),
            "weight-inf": (named + struct.pack("<2Id", 1, 1, float("inf")),
                           "parameter x has non-finite values"),
            "manifest": (b"path,task,class\n\xff.pnm,detect,Yes\n", "is not UTF-8 text"),
            # csv refuses a field of over 131,072 characters
            "manifest-long-field": (b"path,task,class\n" + b"x" * 131_073 + b",detect,Yes\n",
                                    "line 2: field larger than field limit"),
            "manifest-nul-path": (b"path,task,class\na.pnm,detect,Yes\nb\x00.pnm,detect,No\n",
                                  "line 3: path contains a NUL byte"),
            "epoch-csv": (b"epoch,steps,mean_loss,accuracy,precision,recall,f1\n\xff\n",
                          "is not UTF-8 text"),
        }[case]
        path = tmp_path / "operator-file"
        path.write_bytes(content)
        out = str(tmp_path / "out")
        argv = {
            "manifest": ["train", "--task", "detect", "--manifest", str(path), "--out", out],
            "epoch": ["plot", "--history", str(path), "--out", out],
        }.get(case.split("-")[0],
              ["eval", "--weights", str(path), "--manifest", str(tmp_path / "none.csv")])
        assert SV.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert err.startswith("swinscan: error: ") and str(path) in err

    def test_plot_comparison(self, tmp_path):
        out = tmp_path / "cmp.svg"
        assert SV.main(["plot", "--comparison", "--out", str(out)]) == 0
        ET.parse(out)

    def test_eval_prints_nine_measures(self, capsys, detect_weights_path,
                                       tmp_path, detect_samples):
        import swinscan.metrics as MX

        manifest = synth.write_dataset(detect_samples[:8], str(tmp_path / "ds"))
        code = SV.main(["eval", "--weights", detect_weights_path,
                        "--manifest", manifest])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report)[:9] == list(MX.MetricsReport.MEASURES)

    def test_predict_writes_pdf_and_json(self, capsys, monkeypatch, tmp_path,
                                         detect_weights_path,
                                         classify_weights_path, disk):
        monkeypatch.setenv("SWINSCAN_TIMESTAMP", PINNED_TS)
        image_path = tmp_path / "scan.pnm"
        image_path.write_bytes(D.write_pnm(disk))
        pdf_path = tmp_path / "report.pdf"
        code = SV.main([
            "predict",
            "--weights-detect", detect_weights_path,
            "--weights-classify", classify_weights_path,
            "--image", str(image_path),
            "--pdf", str(pdf_path),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["detection"]["label"] == "Yes"
        assert report["timestamp"] == PINNED_TS
        info = SV.parse_pdf(pdf_path.read_bytes())
        assert info.page_count == 2

    @pytest.mark.parametrize("spacing", ["nan", "inf", "1e200"])
    def test_predict_rejects_unusable_spacing(self, capsys, tmp_path, detect_weights_path,
                                              classify_weights_path, disk, spacing):
        image_path = tmp_path / "scan.pnm"
        image_path.write_bytes(D.write_pnm(disk))
        code = SV.main([
            "predict",
            "--weights-detect", detect_weights_path,
            "--weights-classify", classify_weights_path,
            "--image", str(image_path),
            "--spacing", spacing,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "pixel_spacing_mm" in err

    def test_predict_rejects_ascii_extents_beyond_body(self, capsys, tmp_path,
                                                      detect_weights_path,
                                                      classify_weights_path):
        image_path = tmp_path / "oversized.pgm"
        image_path.write_bytes(OVERSIZED_ASCII_PNM)
        code = SV.main([
            "predict",
            "--weights-detect", detect_weights_path,
            "--weights-classify", classify_weights_path,
            "--image", str(image_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "truncated pixel data" in err

    def test_predict_rejects_header_number_beyond_int_digit_limit(
            self, capsys, tmp_path, detect_weights_path, classify_weights_path):
        image_path = tmp_path / "long-width.pgm"
        image_path.write_bytes(LONG_WIDTH_PNM)
        code = SV.main([
            "predict",
            "--weights-detect", detect_weights_path,
            "--weights-classify", classify_weights_path,
            "--image", str(image_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "width of 5000 digits is too large" in err

    def test_predict_rejects_image_side_over_limit(self, capsys, tmp_path,
                                                   detect_weights_path,
                                                   classify_weights_path):
        image_path = tmp_path / "wide.pgm"
        image_path.write_bytes(black_p5(SV.MAX_IMAGE_SIDE_PX + 1, 1))
        code = SV.main([
            "predict",
            "--weights-detect", detect_weights_path,
            "--weights-classify", classify_weights_path,
            "--image", str(image_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "side limit" in err

    @pytest.mark.parametrize("flag, env", [("70000", None), ("-1", None), (None, "70000")])
    def test_serve_rejects_out_of_range_port(self, capsys, monkeypatch, detect_weights_path,
                                             classify_weights_path, flag, env):
        if env is None:
            monkeypatch.delenv("SWINSCAN_PORT", raising=False)
        else:
            monkeypatch.setenv("SWINSCAN_PORT", env)
        argv = ["serve", "--weights-detect", detect_weights_path,
                "--weights-classify", classify_weights_path]
        code = SV.main(argv + (["--port", flag] if flag is not None else []))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "outside the port range" in err

    def test_serve_stops_on_sigint_when_started_ignoring_it(self, detect_weights_path,
                                                            classify_weights_path):
        # the child ignores SIGINT before it execs the CLI, as a background
        # job of a non-interactive shell does; an exec wrapper does that
        # without running Python between fork and exec in this threaded process
        wrapper = ("import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
                   "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])")
        src = str(Path(SV.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.Popen(
            [sys.executable, "-c", wrapper, "-m", "swinscan.service", "serve",
             "--weights-detect", detect_weights_path,
             "--weights-classify", classify_weights_path, "--port", "0"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stderr.readline().startswith(b"serving on")
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=5) == 0
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_train_defaults_are_train_config_defaults(self, monkeypatch, tmp_path,
                                                      detect_samples):
        manifest = synth.write_dataset(detect_samples[:2], str(tmp_path / "ds"))
        seen = []

        def fake_train(weights, samples, config):
            seen.append(config)
            return weights, [TR.EpochMetrics(1, 1, 0.0, 0.0, 0.0, 0.0, 0.0)]

        monkeypatch.setattr(TR, "train", fake_train)
        argv = ["train", "--task", "detect", "--manifest", manifest,
                "--out", str(tmp_path / "w.swnw")]
        assert SV.main(argv) == 0
        assert seen == [TR.TrainConfig()]

    def test_train_refuses_a_negative_seed(self, capsys, tmp_path, detect_samples):
        manifest = synth.write_dataset(detect_samples[:4], str(tmp_path / "ds"))
        argv = ["train", "--task", "detect", "--manifest", manifest,
                "--out", str(tmp_path / "w.swnw"), "--seed", "-1"]
        assert SV.main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("swinscan: error: seed")
        assert err.count("\n") == 1

    def test_cli_and_service_agree(self, capsys, monkeypatch, tmp_path,
                                   detect_weights_path, classify_weights_path,
                                   service, disk):
        monkeypatch.setenv("SWINSCAN_TIMESTAMP", PINNED_TS)
        image_path = tmp_path / "scan.pnm"
        image_path.write_bytes(D.write_pnm(disk))
        code = SV.main([
            "predict",
            "--weights-detect", detect_weights_path,
            "--weights-classify", classify_weights_path,
            "--image", str(image_path),
        ])
        assert code == 0
        cli_json = capsys.readouterr().out.strip()
        served = service.respond(SV.PREDICT_ROUTE, request_body(disk)).body
        assert cli_json.encode("ascii") == served

    def test_train_cli_round_trip(self, capsys, tmp_path, detect_samples):
        manifest = synth.write_dataset(detect_samples[:8], str(tmp_path / "ds"))
        out = tmp_path / "tiny.swnw"
        code = SV.main([
            "train", "--task", "detect", "--manifest", manifest,
            "--out", str(out), "--epochs", "1", "--seed", "3",
            "--log", str(tmp_path / "epochs.csv"),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["final_epoch"]["epoch"] == 1
        weights = M.load_weights(str(out))
        assert weights.config.num_classes == 2
        assert len(TR.read_epoch_metrics(str(tmp_path / "epochs.csv"))) == 1

    def test_request_schema_accepts_cli_body(self, disk):
        schema = SV.load_schema("predict_request.v1")
        jsonschema.validate(json.loads(request_body(disk, pixel_spacing_mm=1.0)),
                            schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"task": "detect"}, schema)

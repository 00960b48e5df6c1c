"""Delivery layer: JSON prediction service, PDF reports, SVG charts, CLI.

The service is stateless: weights become immutable shared state at
startup and each request owns its tensors end to end, so any permutation
of a request batch yields per-request identical responses.  Nothing a
request carries is ever written to disk; the only writes are
operator-initiated (weights, reports, plots).

Report JSON and PDF bytes are deterministic functions of their inputs.
Wall-clock time enters only through default_clock, which honors the
SWINSCAN_TIMESTAMP variable so tests and audits can pin it.

The HTTP server computes in worker processes forked from the loaded
server, one per usable core, so replies are the bytes that
PredictionService.respond gives in process.  One semaphore admits each
POST from its read body to its last reply byte: past it a POST gets 503,
and server_close waits for every admitted reply to be written.  A second
SIGINT during that wait stops `serve` at once, workers included.
"""

import argparse
import base64
import binascii
import copy
import hashlib
import json
import os
import queue
import re
import signal
import socket
import struct
import sys
import threading
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import __version__
from . import data as D
from . import metrics as MX
from . import model as M
from . import segment as SEG
from . import train as TR
from .errors import (
    ConfigurationError,
    ContractError,
    EmptyInputError,
    InputError,
    NonFiniteError,
    PdfFormatError,
    PdfLayoutError,
    PnmError,
    SwinscanError,
)

__all__ = [
    "PredictRequest", "RequestError", "Reply", "error_reply", "PredictionService",
    "parse_request",
    "build_report", "canonical_json", "write_pdf", "parse_pdf", "PdfInfo",
    "render_history_plot", "render_comparison_plot", "load_schema",
    "create_server", "default_clock", "file_digest", "main", "entry",
    "MAX_REQUEST_BYTES", "MAX_PIXEL_SPACING_MM", "DISCLAIMER", "PREDICT_ROUTE",
    "PDF_ROUTE", "WAITING_PER_WORKER", "EXIT_INTERRUPTED",
]

REPORT_VERSION = "1"
VALID_TASKS = ("detect", "classify", "full")
MAX_REQUEST_BYTES = 8 * 1024 * 1024
# largest accepted pixel spacing; keeps area_px * spacing**2 finite for
# any image the request cap admits
MAX_PIXEL_SPACING_MM = 1000.0
MAX_IMAGE_SIDE_PX = 2048  # uncompressed RGB beyond this will not fit a page budget
DEFAULT_PORT = 8000
PREDICT_ROUTE = "/v1/predict"
PDF_ROUTE = "/v1/report.pdf"
DISCLAIMER = (
    "Research prototype. Not a medical device; findings require review "
    "by a qualified radiologist."
)

# accuracy figure the published comparison quotes for this approach
PUBLISHED_ACCURACY_PCT = 99.81


# ---------------------------------------------------------------------------
# requests


@dataclass(frozen=True)
class PredictRequest:
    """A decoded prediction request.

    pixels is the decoded picture at its original resolution, as the
    uint8 values its PNM stores, each at most maxval: (H, W, 3) for
    P3/P6 and (H, W, 1) for gray P2/P5, which stays one channel up to
    the overlay.
    patient_ref is echoed into the report and never stored.
    """

    pixels: np.ndarray
    maxval: int
    task: str
    pixel_spacing_mm: float | None = None
    patient_ref: str | None = None


class RequestError(SwinscanError):
    """Rejected request: carries the HTTP status and a machine-readable code."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


class Reply(NamedTuple):
    """One finished HTTP reply."""

    status: int
    content_type: str
    body: bytes


# exception type -> (status, code) of its JSON error reply; the first row
# the exception is an instance of wins, and a RequestError names its own
ERROR_REPLIES = (
    (RequestError, None),
    # pixels reach the model in [-1, 1], so only the weights can overflow it
    (NonFiniteError, (500, "internal")),
    (SwinscanError, (400, "bad_request")),
    (Exception, (500, "internal")),
)


def error_reply(exc: Exception) -> Reply:
    """The JSON error reply ERROR_REPLIES gives for exc."""
    pair = next(pair for kind, pair in ERROR_REPLIES if isinstance(exc, kind))
    status, code = pair or (exc.status, exc.code)
    # the text of an unexpected exception could echo request content,
    # patient_ref included, so a 500 carries none of it
    message = "internal error" if status == 500 else str(exc)
    return Reply(status, "application/json",
                 canonical_json({"error": {"code": code, "message": message}}))


def parse_request(body: bytes) -> PredictRequest:
    """Decode a JSON request body; unknown fields are ignored, never fatal."""
    if len(body) > MAX_REQUEST_BYTES:
        raise RequestError(
            413, "payload_too_large",
            f"request body {len(body)} bytes exceeds the {MAX_REQUEST_BYTES} cap",
        )
    try:
        obj = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, over-long integers, deep nesting
        raise RequestError(400, "bad_json", f"request is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise RequestError(400, "bad_json", "request body must be a JSON object")

    task = obj.get("task")
    if task not in VALID_TASKS:
        raise RequestError(
            400, "bad_task", f"task must be one of {list(VALID_TASKS)}, got {task!r}"
        )

    encoded = obj.get("image")
    if not isinstance(encoded, str):
        raise RequestError(400, "bad_encoding", "image must be base64 text")
    try:
        raw = base64.b64decode(encoded, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise RequestError(400, "bad_encoding", f"image is not valid base64: {exc}")
    try:
        _, width, height, _, _ = D.pnm_header(raw)
        if max(height, width) > MAX_IMAGE_SIDE_PX:
            # refused on the header, before any pixel is decoded
            raise RequestError(
                400, "image_too_large",
                f"{width}x{height} image exceeds the {MAX_IMAGE_SIDE_PX} px side limit",
            )
        pixels, maxval = D.load_pnm(raw)
    except PnmError as exc:
        raise RequestError(400, "bad_image", f"image bytes are not a readable PNM: {exc}")

    spacing = obj.get("pixel_spacing_mm")
    if spacing is not None:
        # the chained comparison also rejects NaN and infinities
        if (not isinstance(spacing, (int, float)) or isinstance(spacing, bool)
                or not 0 < spacing <= MAX_PIXEL_SPACING_MM):
            raise RequestError(
                400, "bad_spacing",
                f"pixel_spacing_mm must be a number in (0, {MAX_PIXEL_SPACING_MM:g}], "
                f"got {spacing!r}",
            )
        spacing = float(spacing)

    patient_ref = obj.get("patient_ref")
    if patient_ref is not None and not isinstance(patient_ref, str):
        raise RequestError(400, "bad_patient_ref", "patient_ref must be text")

    return PredictRequest(
        pixels=pixels, maxval=maxval, task=task, pixel_spacing_mm=spacing,
        patient_ref=patient_ref,
    )


# ---------------------------------------------------------------------------
# report assembly


def default_clock() -> str:
    """UTC timestamp; SWINSCAN_TIMESTAMP overrides for reproducible output."""
    pinned = os.environ.get("SWINSCAN_TIMESTAMP")
    if pinned:
        return pinned
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return "sha256:" + digest.hexdigest()


def _round12(x) -> float:
    # fixed decimal formatting keeps serialization stable across platforms
    return float(f"{float(x):.12f}")


def _prob_block(classes, result) -> dict:
    label_id, probs = result
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (len(classes),):
        raise ContractError(
            f"expected {len(classes)} probabilities, got {list(probs.shape)}"
        )
    if not 0 <= int(label_id) < len(classes):
        raise ContractError(f"label id {label_id} outside the class range")
    return {
        "label": classes[int(label_id)],
        "probabilities": {name: _round12(p) for name, p in zip(classes, probs)},
    }


def _segmentation_block(seg: SEG.SegmentationResult) -> dict:
    return {
        "region_found": bool(seg.found),
        "area_px": int(seg.area_px),
        "area_mm2": None if seg.area_mm2 is None else _round12(seg.area_mm2),
        "bbox": None if seg.bbox is None else [int(v) for v in seg.bbox],
        "centroid": None if seg.centroid is None else [_round12(v) for v in seg.centroid],
    }


def build_report(detection, classification, segmentation, *, task,
                 model_versions, timestamp, patient_ref=None) -> dict:
    """Assemble the diagnostic report with a fixed key order.

    detection and classification are (label_id, probabilities) pairs
    from the forward pass; classification must be None unless detection
    says Yes, because a tumor subtype for a tumor-free scan is
    incoherent.
    """
    if detection is None:
        raise ContractError("a detection result is required")
    if task not in VALID_TASKS:
        raise ContractError(f"unknown task {task!r}")
    det_block = _prob_block(D.DETECT_CLASSES, detection)
    report = {
        "version": REPORT_VERSION,
        "timestamp": str(timestamp),
        "task": task,
    }
    if patient_ref is not None:
        report["patient_ref"] = patient_ref
    report["detection"] = det_block
    if classification is not None:
        if det_block["label"] != "Yes":
            raise ContractError("classification cannot accompany a No detection")
        report["classification"] = _prob_block(D.CLASSIFY_CLASSES, classification)
    report["segmentation"] = _segmentation_block(segmentation)
    report["model_versions"] = dict(model_versions)
    report["disclaimer"] = DISCLAIMER
    return report


def canonical_json(report: dict) -> bytes:
    """Compact UTF-8 encoding with insertion key order; identical
    reports serialize to identical bytes."""
    return json.dumps(report, ensure_ascii=True, separators=(",", ":")).encode("ascii")


def load_schema(name: str) -> dict:
    """Read a versioned JSON schema shipped with the package,
    e.g. load_schema("diagnostic_report.v1")."""
    path = resources.files("swinscan").joinpath("schemas", f"{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# the service


class PredictionService:
    """Loads both weight files once, then handles requests statelessly."""

    server = None  # the server whose workers create_server's copy computes on

    def __init__(self, detect_weights_path: str, classify_weights_path: str):
        self.detect_weights = M.load_weights(detect_weights_path)
        self.classify_weights = M.load_weights(classify_weights_path)
        heads = {"detection": (self.detect_weights, D.DETECT_CLASSES),
                 "classification": (self.classify_weights, D.CLASSIFY_CLASSES)}
        for name, (weights, classes) in heads.items():
            if weights.config.num_classes != len(classes):
                raise ConfigurationError(
                    f"{name} weights have a {weights.config.num_classes}-way head"
                )
        self.model_versions = {
            "detect": file_digest(detect_weights_path),
            "classify": file_digest(classify_weights_path),
        }

    def run(self, request: PredictRequest, overlay: bool = True):
        """Full pipeline for one request: returns (report, highlighted
        image); the image is None when overlay is False."""
        normalized = D.normalize(D.resize_bilinear(request.pixels, request.maxval, M.IMAGE_SIZE))
        _, det_probs = M.forward_classify(normalized, self.detect_weights)
        detection = (int(np.argmax(det_probs)), det_probs)
        classification = None
        if detection[0] == 1 and request.task in ("classify", "full"):
            _, cls_probs = M.forward_classify(normalized, self.classify_weights)
            classification = (int(np.argmax(cls_probs)), cls_probs)
        # segmentation stays at the original resolution: size estimates
        # on the model's downscaled grid would be meaningless
        seg = SEG.segment(
            SEG.rgb_from_stored(request.pixels, request.maxval), request.pixel_spacing_mm,
            overlay=overlay,
        )
        report = build_report(
            detection,
            classification,
            seg,
            task=request.task,
            model_versions=self.model_versions,
            timestamp=default_clock(),
            patient_ref=request.patient_ref,
        )
        return report, seg.highlighted

    def respond(self, route: str, body: bytes) -> Reply:
        """The reply to a POST of body to PREDICT_ROUTE or PDF_ROUTE, an
        error reply included; every compute worker runs this."""
        try:
            # only the PDF embeds the overlay
            report, highlighted = self.run(parse_request(body), overlay=route == PDF_ROUTE)
            if route == PDF_ROUTE:
                return Reply(200, "application/pdf", write_pdf(report, highlighted))
            return Reply(200, "application/json", canonical_json(report))
        except Exception as exc:
            return error_reply(exc)

    def handle_predict(self, body: bytes) -> Reply:
        """POST /v1/predict in the server: waits for a worker's reply."""
        return self.server.compute(PREDICT_ROUTE, body)

    def handle_report_pdf(self, body: bytes) -> Reply:
        """POST /v1/report.pdf in the server: waits for a worker's reply."""
        return self.server.compute(PDF_ROUTE, body)

    def health(self) -> dict:
        return {
            "status": "ok",
            "version": __version__,
            "model_versions": dict(self.model_versions),
        }


# ---------------------------------------------------------------------------
# PDF writer

PAGE_WIDTH = 612
PAGE_HEIGHT = 792
PAGE_MARGIN = 72
LINE_LEADING = 14
IMAGE_BOX = (72.0, 72.0, 540.0, 470.0)  # x0, y0, x1, y1 drawing area


def _pdf_escape(text: str) -> str:
    out = text.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")
    return "".join(ch if " " <= ch <= "~" else "?" for ch in out)


def _text_ops(lines) -> str:
    """One text object per line: (font, size, x, y, text) tuples."""
    ops = []
    for font, size, x, y, text in lines:
        ops.append(
            f"BT /{font} {size} Tf {x:.2f} {y:.2f} Td ({_pdf_escape(text)}) Tj ET"
        )
    return "\n".join(ops)


def _report_pages(report: dict):
    """Text rows per page: the findings, then the classification if any."""
    pages, y = [], 0

    def page(title):
        nonlocal y
        pages.append([("F2", 16, PAGE_MARGIN, PAGE_HEIGHT - 52, title)])
        y = PAGE_HEIGHT - 76

    def put(text, size=10, font="F1", gap=LINE_LEADING):
        nonlocal y
        pages[-1].append((font, size, PAGE_MARGIN, y, text))
        y -= gap

    page("Brain MRI Diagnostic Report")
    put(f"Generated: {report['timestamp']}")
    put(f"Task: {report['task']}")
    if "patient_ref" in report:
        put(f"Patient ref: {report['patient_ref']}")
    versions = report["model_versions"]
    put(f"Detection model: {versions['detect']}", size=8)
    put(f"Classification model: {versions['classify']}", size=8)
    y -= 6

    det = report["detection"]
    put(f"Detection: {det['label']}", font="F2")
    for name, prob in det["probabilities"].items():
        put(f"  {name}: {prob:.6f}")
    y -= 6

    seg = report["segmentation"]
    put("Tumor region", font="F2")
    if seg["region_found"]:
        area = f"  Area: {seg['area_px']} px"
        if seg["area_mm2"] is not None:
            area += f" ({seg['area_mm2']:.6f} mm^2)"
        put(area)
        put(f"  Bounding box (r0, c0, r1, c1): {tuple(seg['bbox'])}")
        centroid = seg["centroid"]
        put(f"  Centroid (row, col): ({centroid[0]:.6f}, {centroid[1]:.6f})")
    else:
        put("  No region found.")

    if "classification" in report:
        cls = report["classification"]
        page("Tumor Classification")
        put(f"Type: {cls['label']}", font="F2")
        for name, prob in cls["probabilities"].items():
            put(f"  {name}: {prob:.6f}")
    for rows in pages:
        rows.append(("F1", 8, PAGE_MARGIN, 56, report["disclaimer"]))
    return pages


def _image_placement(width: int, height: int):
    x0, y0, x1, y1 = IMAGE_BOX
    scale = min((x1 - x0) / width, (y1 - y0) / height)
    draw_w, draw_h = width * scale, height * scale
    # centered horizontally, anchored to the box top
    x = x0 + ((x1 - x0) - draw_w) / 2.0
    y = y1 - draw_h
    return draw_w, draw_h, x, y


def write_pdf(report: dict, highlighted) -> bytes:
    """Serialize the report as an uncompressed single-image PDF 1.4.

    One page, or two when a classification block is present.  Streams
    are raw and fonts are built-ins, so output bytes are a pure function
    of the report content.
    """
    image = np.asarray(highlighted)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise InputError(
            f"highlighted image must be HxWx3 uint8, got {list(image.shape)} {image.dtype}"
        )
    height, width = image.shape[:2]
    if width > MAX_IMAGE_SIDE_PX or height > MAX_IMAGE_SIDE_PX:
        raise PdfLayoutError(
            f"{width}x{height} image does not fit the page budget "
            f"(max side {MAX_IMAGE_SIDE_PX} px)"
        )

    pages = _report_pages(report)
    kids = " ".join(f"{6 + 2 * i} 0 R" for i in range(len(pages)))
    objects = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        f"<< /Type /Pages /Kids [{kids}] /Count {len(pages)} >>".encode("latin-1"),
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica-Bold >>",
        (
            f"<< /Type /XObject /Subtype /Image /Width {width} /Height {height} "
            f"/ColorSpace /DeviceRGB /BitsPerComponent 8 "
            f"/Length {width * height * 3} >>\nstream\n".encode("latin-1")
            + image.tobytes()
            + b"\nendstream"
        ),
    ]
    # each page is a page object (6, 8) followed by its content stream
    for i, rows in enumerate(pages):
        content = _text_ops(rows) + "\n"
        resources = "/Font << /F1 3 0 R /F2 4 0 R >>"
        if i == 0:  # the highlighted image goes on the first page only
            draw_w, draw_h, img_x, img_y = _image_placement(width, height)
            content += f"q {draw_w:.4f} 0 0 {draw_h:.4f} {img_x:.4f} {img_y:.4f} cm /Im1 Do Q\n"
            resources += " /XObject << /Im1 5 0 R >>"
        content = content.encode("latin-1")
        objects.append((
            f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 {PAGE_WIDTH} {PAGE_HEIGHT}] "
            f"/Resources << {resources} >> /Contents {len(objects) + 2} 0 R >>"
        ).encode("latin-1"))
        objects.append(
            f"<< /Length {len(content)} >>\nstream\n".encode("latin-1") + content + b"endstream"
        )

    out = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets = []
    for num, body in enumerate(objects, start=1):
        offsets.append(len(out))
        out += f"{num} 0 obj\n".encode("latin-1")
        out += body
        out += b"\nendobj\n"
    xref_at = len(out)
    total = len(objects) + 1
    out += f"xref\n0 {total}\n".encode("latin-1")
    out += b"0000000000 65535 f \n"
    for at in offsets:
        out += f"{at:010d} 00000 n \n".encode("latin-1")
    out += (
        f"trailer\n<< /Size {total} /Root 1 0 R >>\nstartxref\n{xref_at}\n%%EOF\n"
    ).encode("latin-1")
    return bytes(out)


# ---------------------------------------------------------------------------
# PDF validating reader


@dataclass(frozen=True)
class PdfInfo:
    object_count: int
    page_count: int
    xref_offsets: dict


def parse_pdf(data: bytes) -> PdfInfo:
    """Validate framing, xref offsets and page count of an emitted PDF.

    This reads the subset of PDF 1.4 that write_pdf produces; it is the
    re-parse oracle for tests, not a general-purpose PDF parser.
    """
    if not data.startswith(b"%PDF-1.4\n"):
        raise PdfFormatError("missing %PDF-1.4 header", offset=0)
    if not data.endswith(b"%%EOF\n"):
        raise PdfFormatError("missing %%EOF trailer line", offset=len(data))

    anchor = data.rfind(b"startxref")
    if anchor < 0:
        raise PdfFormatError("missing startxref", offset=len(data))
    match = re.match(rb"startxref\n(\d+)\n", data[anchor:])
    if not match:
        raise PdfFormatError("malformed startxref block", offset=anchor)
    xref_at = int(match.group(1))
    if data[xref_at : xref_at + 5] != b"xref\n":
        raise PdfFormatError(
            f"startxref points at {xref_at}, which is not an xref table",
            offset=xref_at,
        )

    head = re.match(rb"xref\n0 (\d+)\n", data[xref_at:])
    if not head:
        raise PdfFormatError("malformed xref subsection header", offset=xref_at)
    total = int(head.group(1))
    entries_at = xref_at + head.end()
    offsets = {}
    for i in range(total):
        entry = data[entries_at + 20 * i : entries_at + 20 * (i + 1)]
        parsed = re.match(rb"(\d{10}) (\d{5}) ([fn]) \n", entry)
        if not parsed:
            raise PdfFormatError(
                f"xref entry {i} is malformed: {entry!r}", offset=entries_at + 20 * i
            )
        kind = parsed.group(3)
        if i == 0:
            if kind != b"f":
                raise PdfFormatError("xref entry 0 must be free", offset=entries_at)
            continue
        if kind != b"n":
            raise PdfFormatError(f"xref entry {i} must be in use", offset=entries_at + 20 * i)
        at = int(parsed.group(1))
        marker = f"{i} 0 obj\n".encode("latin-1")
        if data[at : at + len(marker)] != marker:
            raise PdfFormatError(
                f"xref offset {at} for object {i} does not point at it", offset=at
            )
        offsets[i] = at

    trailer_at = data.rfind(b"trailer", 0, anchor)
    if trailer_at < 0:
        raise PdfFormatError("missing trailer", offset=anchor)
    trailer = data[trailer_at:anchor]
    size = re.search(rb"/Size (\d+)", trailer)
    if not size or int(size.group(1)) != total:
        raise PdfFormatError("trailer /Size disagrees with the xref table", offset=trailer_at)
    if not re.search(rb"/Root \d+ 0 R", trailer):
        raise PdfFormatError("trailer has no /Root", offset=trailer_at)

    # pages are counted in the object dictionaries the xref points at,
    # never inside a stream, whose bytes may spell anything
    pages_at, declared, actual = -1, None, 0
    for at in offsets.values():
        end = data.find(b"\nendobj", at)
        end = len(data) if end < 0 else end
        stream = data.find(b"stream\n", at, end)
        head = data[at : end if stream < 0 else stream]
        tree = re.search(rb"/Type /Pages\b", head)
        if tree and pages_at < 0:
            pages_at = at + tree.start()
            declared = re.search(rb"/Count (\d+)", head)
        actual += len(re.findall(rb"/Type /Page\b", head))
    if pages_at < 0:
        raise PdfFormatError("no page tree object", offset=0)
    if not declared:
        raise PdfFormatError("page tree lacks /Count", offset=pages_at)
    page_count = int(declared.group(1))
    if actual != page_count:
        raise PdfFormatError(
            f"declared {page_count} pages but found {actual}", offset=pages_at
        )
    return PdfInfo(object_count=total - 1, page_count=page_count, xref_offsets=offsets)


# ---------------------------------------------------------------------------
# SVG charts

SVG_WIDTH, SVG_HEIGHT = 640, 400
_SERIES_COLORS = (
    ("accuracy", "#1f77b4"),
    ("precision", "#ff7f0e"),
    ("recall", "#2ca02c"),
    ("f1", "#d62728"),
)


def _svg_text(x, y, text, size=10, anchor=None, rotate=None) -> str:
    """One text element; x and y are written as given, so callers format them."""
    placed = f' text-anchor="{anchor}"' if anchor else ""
    turned = f' transform="rotate({rotate} {x} {y})"' if rotate is not None else ""
    return (f'<text x="{x}" y="{y}"{placed} font-family="sans-serif" '
            f'font-size="{size}"{turned}>{text}</text>')


def _svg_frame(title, title_y, left, top, plot_w, plot_h) -> list:
    """Opening tag, white background, title and the two axis lines."""
    w, h = SVG_WIDTH, SVG_HEIGHT
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        _svg_text(left, title_y, title, size=13),
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]


def render_history_plot(history) -> str:
    """Line chart of the four rate metrics against epoch, as standalone SVG."""
    history = list(history)
    if not history:
        raise EmptyInputError("no epochs to plot")
    left, right, top, bottom = 60, 130, 24, 44
    plot_w, plot_h = SVG_WIDTH - left - right, SVG_HEIGHT - top - bottom
    n = len(history)

    def x(i):
        return left + (plot_w / 2 if n == 1 else i * plot_w / (n - 1))

    def y(v):
        return top + (1.0 - v) * plot_h

    parts = _svg_frame("Training metrics by epoch", 16, left, top, plot_w, plot_h)
    # horizontal gridlines
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        ty = y(tick)
        parts.append(
            f'<line x1="{left - 4}" y1="{ty:.2f}" x2="{left + plot_w}" y2="{ty:.2f}" '
            'stroke="#dddddd"/>'
        )
        parts.append(_svg_text(left - 8, f"{ty + 4:.2f}", f"{tick:g}", anchor="end"))
    for i, em in enumerate(history):
        parts.append(_svg_text(f"{x(i):.2f}", top + plot_h + 16, em.epoch, anchor="middle"))
    for row, (name, color) in enumerate(_SERIES_COLORS):
        points = " ".join(
            f"{x(i):.2f},{y(getattr(em, name)):.2f}" for i, em in enumerate(history)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = top + 12 + row * 16
        parts.append(
            f'<line x1="{left + plot_w + 12}" y1="{ly}" x2="{left + plot_w + 32}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(_svg_text(left + plot_w + 38, ly + 4, name, size=11))
    parts.append("</svg>")
    return "\n".join(parts)


def render_comparison_plot() -> str:
    """Bar chart of accuracy per algorithm from the published comparison.

    The final bar is this model, visually distinguished, carrying the
    published accuracy figure.
    """
    bars = []
    for name, _, _, accuracy in MX.COMPARISON_REFERENCE:
        bars.append((name, float(accuracy.rstrip("%")), accuracy.rstrip("%")))
    bars.append(("Our Approach", PUBLISHED_ACCURACY_PCT, f"{PUBLISHED_ACCURACY_PCT:g}"))

    left, right, top, bottom = 60, 20, 30, 86
    plot_w, plot_h = SVG_WIDTH - left - right, SVG_HEIGHT - top - bottom
    slot = plot_w / len(bars)

    parts = _svg_frame("Accuracy by algorithm", 18, left, top, plot_w, plot_h)
    for tick in (0, 25, 50, 75, 100):
        ty = top + (1.0 - tick / 100.0) * plot_h
        parts.append(_svg_text(left - 8, f"{ty + 4:.2f}", tick, anchor="end"))
    for i, (name, value, label) in enumerate(bars):
        final = i == len(bars) - 1
        bar_w = slot * 0.7
        bx = left + i * slot + (slot - bar_w) / 2.0
        bar_h = value / 100.0 * plot_h
        by = top + plot_h - bar_h
        fill = "#d62728" if final else "#7f7f7f"
        extra = ' class="own"' if final else ""
        parts.append(
            f'<rect{extra} x="{bx:.2f}" y="{by:.2f}" width="{bar_w:.2f}" '
            f'height="{bar_h:.2f}" fill="{fill}"/>'
        )
        parts.append(_svg_text(f"{bx + bar_w / 2:.2f}", f"{by - 4:.2f}", label, anchor="middle"))
        lx, ly = left + i * slot + slot / 2.0, top + plot_h + 14
        parts.append(_svg_text(f"{lx:.2f}", f"{ly:.2f}", name, anchor="end", rotate=-40))
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# HTTP server

# requests that may wait for a busy compute worker, per worker; the next
# one is refused with 503 at once, so held bodies and replies stay bounded
WAITING_PER_WORKER = 4
RETRY_AFTER_S = 1
# `serve`'s exit code when a second SIGINT cuts the drain of admitted
# replies short: 128 + SIGINT, as for a process that SIGINT ended
EXIT_INTERRUPTED = 130
_ROUTES = (PREDICT_ROUTE, PDF_ROUTE)
_CONTENT_TYPES = ("application/json", "application/pdf")
_REQUEST_HEAD = struct.Struct("<BI")  # route index, body length
_REPLY_HEAD = struct.Struct("<HBI")  # status, content type index, body length


def _recv_exact(sock, n: int) -> bytes:
    """n bytes from sock; EOFError if the other end closes first."""
    chunks = []
    while n:
        chunk = sock.recv(n, socket.MSG_WAITALL)
        if not chunk:
            raise EOFError("the other end closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _work(service, sock) -> None:
    """A compute worker's loop: one reply per request read from sock, until EOF."""
    while True:
        try:
            route, length = _REQUEST_HEAD.unpack(_recv_exact(sock, _REQUEST_HEAD.size))
        except EOFError:
            return  # the server closed its end, or ended
        reply = service.respond(_ROUTES[route], _recv_exact(sock, length))
        kind = _CONTENT_TYPES.index(reply.content_type)
        sock.sendall(_REPLY_HEAD.pack(reply.status, kind, len(reply.body)) + reply.body)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # the base class's default, HTTP/0.9, answers a request line without a
    # version with a bare body: no status line and no headers
    default_request_version = "HTTP/1.1"
    server_version = "swinscan/" + __version__
    # TCP_NODELAY: the head and the body go out as two writes, and Nagle's
    # algorithm would hold the body until the client's delayed ACK
    disable_nagle_algorithm = True
    # seconds; StreamRequestHandler.setup sets it on each accepted socket,
    # so a request line, headers or body that stall this long, or a
    # keep-alive connection idle this long, is closed and frees its thread
    timeout = 60

    def log_message(self, format, *args):
        # requests are never persisted, not even as access log lines
        pass

    def _send(self, reply: Reply, close=False):
        # after an unexpected failure nothing is known of the connection's state
        close = close or reply.status == 500
        self.send_response(reply.status)
        self.send_header("Content-Type", reply.content_type)
        self.send_header("Content-Length", str(len(reply.body)))
        if reply.status == 503:
            self.send_header("Retry-After", str(RETRY_AFTER_S))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(reply.body)
        if close:
            self.close_connection = True

    def _refuse(self, status: int, code: str, message: str, close=False):
        self._send(error_reply(RequestError(status, code, message)), close=close)

    def send_error(self, code, message=None, explain=None):
        # the base class refuses malformed HTTP with an HTML page; this
        # reply names only the status, never the request's text
        self._refuse(code, "bad_request", self.responses[code][0], close=True)

    def _read_body(self):
        if "Transfer-Encoding" in self.headers:
            # only Content-Length framing is read; a chunked body left
            # unread would be parsed as the next request
            self._refuse(400, "bad_request", "Transfer-Encoding is not supported", close=True)
            return None
        lengths = {v.strip(" \t") for v in self.headers.get_all("Content-Length", ["0"])}
        length = lengths.pop()
        try:
            # one value of ASCII digits: int() alone also takes "5_0" or
            # "+5", and differing repeats leave the body's end ambiguous
            if lengths or not (length.isascii() and length.isdigit()):
                raise ValueError(length)
            length = int(length)  # also raises past 4300 digits
        except ValueError:
            self._refuse(400, "bad_request", "invalid Content-Length", close=True)
            return None
        if length > MAX_REQUEST_BYTES:
            # drain what the client is mid-send so the refusal can be
            # delivered, then drop the connection
            remaining = min(length, 8 * MAX_REQUEST_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            self._refuse(413, "payload_too_large",
                         f"request body {length} bytes exceeds the {MAX_REQUEST_BYTES} cap",
                         close=True)
            return None
        body = self.rfile.read(length)
        if len(body) < length:  # the client closed its half before the end
            self._refuse(400, "bad_request", "request body is shorter than its Content-Length",
                         close=True)
            return None
        return body

    def do_POST(self):
        body = self._read_body()
        if body is None:
            return
        # held until the reply is written, so that server_close waits for it
        if not self.server.permits.acquire(blocking=False):
            self._refuse(503, "overloaded",
                         f"every compute worker is busy and {WAITING_PER_WORKER} requests per "
                         f"worker wait; retry after {RETRY_AFTER_S} s")
            return
        try:
            try:
                if self.path == PREDICT_ROUTE:
                    reply = self.server.service.handle_predict(body)
                elif self.path == PDF_ROUTE:
                    reply = self.server.service.handle_report_pdf(body)
                else:
                    raise RequestError(404, "not_found", f"no route {self.path}")
            except Exception as exc:
                reply = error_reply(exc)
            self._send(reply)
        finally:
            self.server.permits.release()

    def do_GET(self):
        # a body is read and ignored, so that it is not taken for the next request
        if self._read_body() is None:
            return
        if self.path == "/v1/health":
            self._send(Reply(200, "application/json",
                             canonical_json(self.server.service.health())))
        else:
            self._refuse(404, "not_found", f"no route {self.path}")


class _Server(ThreadingHTTPServer):
    """Handler threads in front of compute processes forked from the loaded
    server, one per usable core.

    Each worker holds one end of a socket pair and answers one request at
    a time on it; forking the loaded process shares the weights and needs
    no second import of numpy.  A POST holds one of `permits` from its read
    body to its last reply byte, so at most WAITING_PER_WORKER per worker
    wait for an idle one.
    """

    def __init__(self, address, service):
        # set first: a failed bind in TCPServer.__init__ calls server_close
        self._workers = []  # (server end of the socket pair, pid)
        super().__init__(address, _Handler)
        count = len(os.sched_getaffinity(0))
        self.permits = threading.BoundedSemaphore(count * (1 + WAITING_PER_WORKER))
        self.lost = None  # pid of a worker that ended while the server ran
        self._idle = queue.SimpleQueue()
        try:
            for _ in range(count):
                self._fork(service)
        except BaseException:
            self.server_close()
            raise
        # the handlers' copy sends each request to the workers
        self.service = copy.copy(service)
        self.service.server = self

    def _fork(self, service):
        ours, theirs = socket.socketpair()
        # SIGINT stays blocked from the fork until the worker ignores it,
        # so one sent in between is dropped instead of ending the worker
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pid = os.fork()
        except OSError:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            ours.close()
            theirs.close()
            raise
        if pid == 0:
            code = 1
            try:
                # ^C in a terminal reaches the whole process group; the
                # server alone stops its workers, by closing their sockets
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                # with no copy of the server's ends left here, the server's
                # end, even by SIGKILL, reaches this worker as EOF
                for other in (self.socket, ours, *(end for end, _ in self._workers)):
                    other.close()
                _work(service, theirs)
                code = 0
            finally:
                os._exit(code)  # never back into the caller's stack or exit handlers
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        theirs.close()
        self._workers.append((ours, pid))
        self._idle.put((ours, pid))

    def compute(self, route: str, body: bytes) -> Reply:
        """The reply of the next idle worker to body."""
        sock, pid = self._idle.get()
        try:
            sock.sendall(_REQUEST_HEAD.pack(_ROUTES.index(route), len(body)) + body)
            status, kind, length = _REPLY_HEAD.unpack(_recv_exact(sock, _REPLY_HEAD.size))
            reply = Reply(status, _CONTENT_TYPES[kind], _recv_exact(sock, length))
        except (OSError, EOFError):
            # the worker ended: serving stops, as the server is not forked
            # again now that it runs threads, and this request gets a 500,
            # as does each admitted one that takes the shut end after it
            self.lost = pid
            sock.shutdown(socket.SHUT_RDWR)  # a socket pair's end shuts even with no peer
            self._idle.put((sock, pid))
            threading.Thread(target=self.shutdown, daemon=True).start()
            raise
        self._idle.put((sock, pid))
        return reply

    def handle_error(self, request, client_address):
        # a client that hung up before its reply was out is no server fault
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self):
        """Stop accepting; take back every permit, _Handler.timeout at most, so
        admitted replies are written; then stop and reap the workers, if any."""
        super().server_close()
        deadline = time.monotonic() + _Handler.timeout
        for _ in range(len(self._workers) * (1 + WAITING_PER_WORKER)):
            self.permits.acquire(timeout=max(0.0, deadline - time.monotonic()))
        for sock, _ in self._workers:
            sock.shutdown(socket.SHUT_WR)  # EOF after the frames already sent
        for sock, pid in self._workers:
            os.waitpid(pid, 0)
            sock.close()
        self._workers.clear()

    def kill_workers(self):
        """SIGKILL and reap each worker that server_close has not reaped,
        replies in progress included."""
        for sock, pid in self._workers:
            try:
                # an unreaped child's pid cannot have been reused
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # server_close reaped it before it was cut short
            sock.close()
        self._workers.clear()


def create_server(service: PredictionService, port: int = 0,
                  host: str = "127.0.0.1") -> ThreadingHTTPServer:
    """Bound but not yet serving, with one compute worker forked per usable
    core; port 0 picks a free one.  server_close() lets admitted replies
    finish, then stops the workers.

    `serve` calls this before it starts any thread: a lock that another
    thread holds at the fork stays held in every worker.
    """
    return _Server((host, port), service)


def resolve_port(flag_value) -> int:
    """--port wins over SWINSCAN_PORT; default otherwise."""
    source, port = "--port", flag_value
    if port is None:
        source, port = "SWINSCAN_PORT", os.environ.get("SWINSCAN_PORT") or DEFAULT_PORT
    try:
        port = int(port)
    except ValueError:
        raise ConfigurationError(f"{source} is not an integer: {port!r}")
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"{source} {port} is outside the port range [0, 65535]")
    return port


# ---------------------------------------------------------------------------
# CLI


def _task_samples(manifest_path: str, task: str):
    manifest = D.load_manifest(manifest_path)
    entries = [e for e in manifest.entries if e.task == task]
    if not entries:
        raise EmptyInputError(f"manifest has no {task!r} entries")
    return [D.load_sample(manifest, e) for e in entries]


def _cmd_train(args) -> int:
    config = TR.TrainConfig(**{name: getattr(args, name) for name in _TRAIN_FLAGS})
    samples = _task_samples(args.manifest, args.task)
    classes = len(D.classes_for_task(args.task))
    weights = M.ModelWeights.init(M.default_config(classes), seed=args.seed)
    weights, history = TR.train(weights, samples, config)
    M.save_weights(args.out, weights)
    if args.log:
        TR.log_epoch_metrics(history, args.log)
    print(json.dumps({"weights": args.out, "final_epoch": asdict(history[-1])}))
    return 0


def _cmd_eval(args) -> int:
    weights = M.load_weights(args.weights)
    task = D.TASK_DETECT if weights.config.num_classes == 2 else D.TASK_CLASSIFY
    samples = _task_samples(args.manifest, task)
    _, report = TR.evaluate(weights, samples)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def _cmd_predict(args) -> int:
    service = PredictionService(args.weights_detect, args.weights_classify)
    with open(args.image, "rb") as fh:
        raw = fh.read()
    body = {"image": base64.b64encode(raw).decode("ascii"), "task": args.task}
    if args.spacing is not None:
        body["pixel_spacing_mm"] = args.spacing
    if args.patient_ref is not None:
        body["patient_ref"] = args.patient_ref
    request = parse_request(json.dumps(body).encode("utf-8"))
    report, highlighted = service.run(request, overlay=bool(args.pdf))
    if args.pdf:
        with open(args.pdf, "wb") as fh:
            fh.write(write_pdf(report, highlighted))
    sys.stdout.write(canonical_json(report).decode("ascii") + "\n")
    return 0


def _cmd_serve(args) -> int:
    service = PredictionService(args.weights_detect, args.weights_classify)
    server = create_server(service, resolve_port(args.port))
    host, port = server.server_address[:2]
    # a process started with SIGINT ignored, as a shell's background job
    # is, would otherwise never stop on it
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        try:
            print(f"serving on http://{host}:{port}", file=sys.stderr)
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()  # admitted replies drain; a second SIGINT cuts it short
    except KeyboardInterrupt:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        server.kill_workers()
        print("swinscan: interrupted again: stopped before every admitted reply was written",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        signal.signal(signal.SIGINT, previous)
    if server.lost is not None:
        print(f"swinscan: error: compute worker {server.lost} ended; the server stopped",
              file=sys.stderr)
        return 3
    return 0


def _cmd_plot(args) -> int:
    if args.history:
        svg = render_history_plot(TR.read_epoch_metrics(args.history))
    else:
        svg = render_comparison_plot()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg + "\n")
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for data
    # errors, so usage failures are rerouted to exit 1
    def error(self, message):
        raise _UsageError(message)


# TrainConfig field -> its `train` flag; the defaults are TrainConfig's
_TRAIN_FLAGS = {"seed": "--seed", "epochs": "--epochs", "batch_size": "--batch-size",
                "learning_rate": "--lr"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swinscan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    train = sub.add_parser("train", help="fit a model on a manifest dataset")
    train.add_argument("--task", required=True, choices=[D.TASK_DETECT, D.TASK_CLASSIFY])
    train.add_argument("--manifest", required=True)
    train.add_argument("--out", required=True, help="weight file to write")
    defaults = TR.TrainConfig()
    for name, flag in _TRAIN_FLAGS.items():
        value = getattr(defaults, name)
        train.add_argument(flag, dest=name, type=type(value), default=value)
    train.add_argument("--log", help="optional epoch metrics CSV")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("eval", help="nine-measure report on a manifest")
    evaluate.add_argument("--weights", required=True)
    evaluate.add_argument("--manifest", required=True)
    evaluate.set_defaults(func=_cmd_eval)

    weights = argparse.ArgumentParser(add_help=False)
    weights.add_argument("--weights-detect", required=True)
    weights.add_argument("--weights-classify", required=True)

    predict = sub.add_parser("predict", parents=[weights], help="diagnose one image, write a PDF")
    predict.add_argument("--image", required=True, help="PNM image file")
    predict.add_argument("--pdf", help="report PDF to write")
    predict.add_argument("--task", default="full", choices=list(VALID_TASKS))
    predict.add_argument("--spacing", type=float, help="pixel spacing in mm")
    predict.add_argument("--patient-ref")
    predict.set_defaults(func=_cmd_predict)

    serve = sub.add_parser("serve", parents=[weights], help="run the JSON-over-HTTP service")
    serve.add_argument("--port", type=int, default=None,
                       help=f"default: SWINSCAN_PORT or {DEFAULT_PORT}")
    serve.set_defaults(func=_cmd_serve)

    plot = sub.add_parser("plot", help="render an SVG chart")
    which = plot.add_mutually_exclusive_group(required=True)
    which.add_argument("--history", help="epoch metrics CSV to chart")
    which.add_argument("--comparison", action="store_true",
                       help="published accuracy comparison bars")
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    """Exit 0 on success, 1 on usage errors, 2 on data errors, 3 when a
    compute worker of `serve` ended, and EXIT_INTERRUPTED (130) when a
    second SIGINT stopped `serve` before its admitted replies were
    written."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"swinscan: error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (SwinscanError, OSError) as exc:
        print(f"swinscan: error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

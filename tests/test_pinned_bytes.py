"""Output bytes pinned to fixed sha256 digests.

The determinism tests elsewhere check that two runs agree; these check
that the bytes themselves stay put.  A change that moves any of them
must say why and re-derive the digest.
"""

import base64
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from swinscan import data as D
from swinscan import model as M
from swinscan import segment as SEG
from swinscan import service as SV
from swinscan import tensor as T
from swinscan import train as TR
from test_data import encode_pnm

PINNED_TS = "2026-02-03T04:05:06Z"
# 12x10 RGB with every byte value pattern distinct from its neighbours
HIGHLIGHTED = (np.arange(12 * 10 * 3) % 251).astype(np.uint8).reshape(12, 10, 3)
# 3x5x7 image on the 1/16 grid, so quantization is exact arithmetic
COLOR = (np.arange(3 * 5 * 7).reshape(3, 5, 7) % 17) / 16.0
GRAY = np.repeat(COLOR[:1], 3, axis=0)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report(with_classification, patient_ref=None):
    mask = np.zeros((20, 20), dtype=bool)
    mask[4:8, 5:11] = True
    seg = SEG.estimate_size(SEG.connected_components(mask), pixel_spacing_mm=0.5)
    return SV.build_report(
        (1, np.array([0.03, 0.97])),
        (2, np.array([0.1, 0.2, 0.7])) if with_classification else None,
        seg,
        task="full",
        model_versions={"detect": "sha256:" + "0" * 64, "classify": "sha256:" + "1" * 64},
        timestamp=PINNED_TS,
        patient_ref=patient_ref,
    )


def history(n):
    return [
        TR.EpochMetrics(i + 1, 2, 0.5 / (i + 1), 0.5 + 0.1 * i,
                        0.6 + 0.1 * i, 0.55 + 0.1 * i, 0.57 + 0.1 * i)
        for i in range(n)
    ]


def test_pdf_one_page():
    assert sha(SV.write_pdf(report(False), HIGHLIGHTED)) == (
        "d0e11375f6b1ae00c003031deaeb2349c2ec115cc4d2923bb8e2cf1929198800"
    )


def test_pdf_two_pages_with_escaped_patient_ref():
    pdf = SV.write_pdf(report(True, patient_ref="ward (b) \\ 7"), HIGHLIGHTED)
    assert rb"Patient ref: ward \(b\) \\ 7" in pdf
    assert sha(pdf) == "b123fa974d55f5e10feb4d3b1a00eacad48c08f33f939934ad338bcdb7bd60a2"


@pytest.mark.parametrize("epochs, digest", [
    (1, "58f1b0139198be22ee750f2310fba8995b71390e8947e59b326ea40d6df76333"),
    (3, "b51e5c2d7fb4ca8cf51d35d0ab5f25b88efca40a1c884905ec22217b45325016"),
])
def test_history_plot(epochs, digest):
    assert sha(SV.render_history_plot(history(epochs)).encode("utf-8")) == digest


def test_comparison_plot():
    assert sha(SV.render_comparison_plot().encode("utf-8")) == (
        "d1541f5afd8050eecf507faf28f077874e4d077d640aaf21d8e48dcf5385cd8d"
    )


@pytest.mark.parametrize("fmt, digest", [
    ("P2", "c97aece7f0c68f4fdd34e2c8a72331f45a80d24c79d030dbb9aeda36d857fd57"),
    ("P3", "614b1a4ce00ae4cbce4e459e9d81eace48fc2688c82a3d782a04871a74d23bf3"),
    ("P5", "992989c4912268220ce13f0895741f5594150477f40ab809623c6c59dca3ac01"),
    ("P6", "111ecf2bc3071d3e409516cddff1ca2fdec14553ba0a68fe588a43f92384850a"),
])
def test_write_pnm(fmt, digest):
    image = GRAY if fmt in ("P2", "P5") else COLOR
    assert sha(D.write_pnm(image, fmt)) == digest


def test_init_weights():
    # path order, shapes and values: the draw order of ModelWeights.init
    # follows expected_shapes, so a reordered table moves the values
    weights = M.ModelWeights.init(M.default_config(3), seed=0)
    digest = hashlib.sha256()
    for path, tensor in weights.items():
        digest.update(path.encode("ascii"))
        digest.update(repr(tensor.shape).encode("ascii"))
        digest.update(np.ascontiguousarray(tensor.data).tobytes())
    assert digest.hexdigest() == (
        "ace78fd75d47c7290c1e7b19bb551f40a13995667440421d7b8c93ec34574f10"
    )


def _scan(kind, h, w, rng):
    # the report-512 request images: a bright disk or a blank field
    # under gaussian noise, gray replicated over three channels
    plane = np.full((h, w), 0.1)
    if kind == "disk":
        yy, xx = np.mgrid[0:h, 0:w]
        radius = 11.0 * min(h, w) / 64.0
        plane[(yy - h / 2.0 + 0.5) ** 2 + (xx - w / 2.0 + 0.5) ** 2 <= radius ** 2] = 0.875
    plane = np.clip(plane + rng.normal(0.0, 0.05, size=plane.shape), 0.0, 1.0)
    return SEG.rgb_from_unit(np.repeat(plane[None], 3, axis=0))


@pytest.mark.parametrize("kind, digest", [
    ("disk", "c403d4bc2dcf28f822abe77629048e716cca22cc3c390820b86227176390ca1d"),
    ("blank", "3883265c7ce0675d0f1ce53f5b44cef898d453d1177f12a82941e6a61f815a6f"),
])
def test_segment_512(kind, digest):
    result = SEG.segment(_scan(kind, 512, 448, np.random.default_rng(0)), pixel_spacing_mm=0.5)
    measures = repr((result.area_px, result.area_mm2, result.bbox, result.centroid))
    assert sha(result.highlighted.tobytes() + measures.encode("ascii")) == digest


def _forward_backward(num_classes, batch=4):
    # one forward pass, its loss, and every parameter gradient
    weights = M.ModelWeights.init(M.default_config(num_classes), seed=0)
    images = np.random.default_rng(1).normal(size=(batch, 3, 64, 64))
    labels = [k % num_classes for k in range(batch)]
    with T.Tape() as tape:
        for tensor in weights.tensors():
            tape.watch(tensor)
        logits = M.forward_batch(images, weights)
        loss = T.cross_entropy(logits, labels)
    T.backward(tape, loss)
    digest = hashlib.sha256(logits.data.tobytes() + loss.data.tobytes())
    for path, tensor in weights.items():
        digest.update(path.encode("ascii"))
        digest.update(np.ascontiguousarray(tensor.grad).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("num_classes, digest", [
    (2, "9eae60f06f4f7f6521b1521a736f120e4dfbee2251c34cb338c8228c9c9200af"),
    (3, "a6f3bc2cebb2b230de508e7bd3f042c9abb9817e3f7062b90a8de0c0a4ed1609"),
])
def test_forward_backward(num_classes, digest):
    assert _forward_backward(num_classes) == digest


# At batch 32 the big nodes run in parts, one per usable core; the bits
# are the same for any number of cores.
BATCH_32 = {
    2: "0e7be2f196bc3339cc45f56214d9d9d210cc8aa9b9ec2904a8aa1aaff6fe059e",
    3: "138bce835ccd99d5d4d5897509a00f264d54ee32ecf40647c7bd739276b11833",
}
TESTS = str(Path(__file__).resolve().parent)
SRC = str(Path(T.__file__).resolve().parents[1])
# pins the interpreter to one of its cpus before swinscan splits anything,
# then prints the part width and the batch-32 digest
ON_ONE_CPU = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
              "import test_pinned_bytes as P; digest = P._forward_backward(int(sys.argv[1]), 32); "
              "print(P.T._pool.width, digest)")


@pytest.mark.parametrize("num_classes", [2, 3])
def test_forward_backward_batch_32(num_classes):
    assert _forward_backward(num_classes, 32) == BATCH_32[num_classes]


def test_forward_backward_batch_32_in_four_parts(monkeypatch, wide_pool):
    monkeypatch.setattr(T, "_pool", wide_pool)
    monkeypatch.setattr(wide_pool, "width", 4)
    assert _forward_backward(2, 32) == BATCH_32[2]


def test_forward_backward_batch_32_on_one_cpu():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, TESTS, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", ON_ONE_CPU, "2"], env=env, cwd=TESTS,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == [b"1", BATCH_32[2].encode()]


def _classify(num_classes):
    # the serving path: one image at batch 1, logits and probabilities
    weights = M.ModelWeights.init(M.default_config(num_classes), seed=0)
    image = np.random.default_rng(2).normal(size=(3, 64, 64))
    logits, probs = M.forward_classify(image, weights)
    return sha(logits.data.tobytes() + probs.tobytes())


@pytest.mark.parametrize("num_classes, digest", [
    (2, "2ac69f3494db5696e5f61f198ac3ae8d828ef6820d1363bce2e257d11e961d39"),
    (3, "b225adfb4d02f044e8173a710bb18df4f6d237e5533907f6f05fd4b58106e09e"),
])
def test_forward_classify(num_classes, digest):
    assert _classify(num_classes) == digest


def _request_images():
    rng = np.random.default_rng(23)
    disk = _scan("disk", 512, 448, rng)[:, :, :1]
    blank = _scan("blank", 384, 512, rng)[:, :, :1]
    # an RGB disk stored at maxval 200, each channel its own scale of the plane
    plane = _scan("disk", 320, 256, rng)[:, :, 0] / 255.0
    rgb = np.stack([plane, plane * 0.8, plane * 0.6 + 0.2], axis=2)
    return {
        "P5-disk-512x448": encode_pnm(disk, "P5", 255),
        "P2-blank-384x512": encode_pnm(blank, "P2", 255),
        "P6-maxval200-disk-320x256": encode_pnm(np.floor(rgb * 200 + 0.5).astype(np.uint8),
                                                "P6", 200),
    }


@pytest.fixture(scope="module")
def init_service(tmp_path_factory):
    # freshly initialised weights: test_init_weights pins them, and no
    # training recipe moves them
    paths = []
    for classes in (2, 3):
        path = tmp_path_factory.mktemp("weights") / f"init{classes}.swnw"
        M.save_weights(str(path), M.ModelWeights.init(M.default_config(classes), seed=0))
        paths.append(str(path))
    return SV.PredictionService(*paths)


def test_serving_starts_no_thread(init_service, monkeypatch):
    # one image is a batch of 1: every node runs as one part, on the
    # calling thread, and no pool is made
    monkeypatch.setenv("SWINSCAN_TIMESTAMP", PINNED_TS)
    monkeypatch.setattr(T, "_pool", None)
    threads = threading.active_count()
    weights = M.ModelWeights.init(M.default_config(3), seed=0)
    M.forward_classify(np.random.default_rng(2).normal(size=(3, 64, 64)), weights)
    body = json.dumps({"image": base64.b64encode(_request_images()["P5-disk-512x448"]).decode(),
                       "task": "full", "pixel_spacing_mm": 0.5}).encode()
    for route in (SV.PREDICT_ROUTE, SV.PDF_ROUTE):
        assert init_service.respond(route, body).status == 200
        assert threading.active_count() == threads
    assert T._pool is None


@pytest.mark.parametrize("name, route, digest", [
    ("P5-disk-512x448", SV.PREDICT_ROUTE,
     "a478aff10bfb68e1ddb805af407526b812e91895aa7d52647184f05cf2b6a30c"),
    ("P5-disk-512x448", SV.PDF_ROUTE,
     "01489c81240238ba8df64794249e6568117054b62e6e49251fb26d3ce94cb814"),
    ("P2-blank-384x512", SV.PREDICT_ROUTE,
     "49e044d1f2d26f57fb025591fc6e3f3b7e6f2f819e00230a9d1e1a4b0de247fd"),
    ("P2-blank-384x512", SV.PDF_ROUTE,
     "31f36cec435b1486646381dc15d85afda9368a5e5619aeaf6b6ee1840cc787b8"),
    ("P6-maxval200-disk-320x256", SV.PREDICT_ROUTE,
     "28f8b6b663abe73b3f2271939e7c55d18266cc8d0bde83c8d3ae158764c47430"),
    ("P6-maxval200-disk-320x256", SV.PDF_ROUTE,
     "569b2c79db97b4a321eaa912ec53eceda0e153785c15d15eb910fb674327397b"),
])
def test_reply_bytes(init_service, monkeypatch, name, route, digest):
    # the reply to a full request, gray images included, at full resolution
    monkeypatch.setenv("SWINSCAN_TIMESTAMP", PINNED_TS)
    raw = _request_images()[name]
    body = json.dumps({"image": base64.b64encode(raw).decode("ascii"), "task": "full",
                       "pixel_spacing_mm": 0.5}).encode()
    reply = init_service.respond(route, body)
    assert reply.status == 200, reply.body[:200]
    assert sha(reply.body) == digest

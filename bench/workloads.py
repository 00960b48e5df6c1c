"""Benchmark inputs, made from the workload seed alone.

The composition of every request pool (image sizes, PNM formats, tasks,
routes, disk-or-blank) is fixed per workload; the seed moves only pixel
content and request order.  That keeps the share of each kind of work
the same from seed to seed, so run-to-run spread measures the program,
not the draw.

Disk images stand in for scans with a tumour and blank ones for scans
without: the served detection model, trained on the same two patterns,
answers Yes for the first and No for the second, so about half of all
``full`` requests take the classify branch.
"""

import base64
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swinscan import data as D
from swinscan import model as M
from swinscan import train as TR

ROUTE_PREDICT = "/v1/predict"
ROUTE_PDF = "/v1/report.pdf"

# Training recipes of the test suite: detection disks saturate by
# epoch 10 at lr 1e-2; the three-shape classifier wants a gentler rate.
DETECT_RECIPE = TR.TrainConfig(epochs=10, learning_rate=1e-2, seed=0)
CLASSIFY_RECIPE = TR.TrainConfig(epochs=16, learning_rate=5e-3, seed=0)
RECIPE_VERSION = "detect64-classify48-v1"

# Highest tail percentile per workload: the one the ten-samples-beyond
# rule gives for a run of the seed code (about 360 requests on serve-64,
# 60 on report-512 and 20 optimizer steps on train-64)
TAIL_CAP = {"serve-64": 95.0, "report-512": 75.0, "train-64": 50.0}

# train-64: one repetition is this job from freshly initialised weights
TRAIN_SET_SIZE = 64
TRAIN_EPOCHS = 2
TRAIN_BATCH = 32


# ---------------------------------------------------------------------------
# images: 3xHxW floats in [0, 1], gray replicated over the channels


def _noisy(plane, rng, noise=0.05):
    plane = np.clip(plane + rng.normal(0.0, noise, size=plane.shape), 0.0, 1.0)
    return np.repeat(plane[None], 3, axis=0)


def disk_image(h, w, rng, radius=None, brightness=None):
    """Dark field with one bright disk near the centre.

    radius is in 64 px units and scales with the image; radius and
    brightness are drawn from rng when not given.
    """
    if radius is None:
        radius = float(rng.uniform(8, 14))
    if brightness is None:
        brightness = float(rng.uniform(0.8, 0.95))
    radius *= min(h, w) / 64.0
    cy = h / 2.0 + float(rng.uniform(-0.05, 0.05)) * h
    cx = w / 2.0 + float(rng.uniform(-0.05, 0.05)) * w
    yy, xx = np.mgrid[0:h, 0:w]
    plane = np.full((h, w), 0.1)
    plane[(yy - cy + 0.5) ** 2 + (xx - cx + 0.5) ** 2 <= radius ** 2] = brightness
    return _noisy(plane, rng)


def blank_image(h, w, rng, level=None):
    if level is None:
        level = float(rng.uniform(0.05, 0.15))
    return _noisy(np.full((h, w), level), rng)


# Request images fix the magnitudes the training sets vary: the blank
# level sets how much of the noise Otsu keeps, and so the work of
# connected components; the disk radius sets the highlighted area.
def request_image(kind, h, w, rng):
    if kind == "disk":
        return disk_image(h, w, rng, radius=11.0, brightness=0.875)
    return blank_image(h, w, rng, level=0.1)


def bar_image(h, w, rng):
    """Bright horizontal band across the middle."""
    plane = np.full((h, w), 0.1)
    row = h // 2 + int(rng.integers(-4, 5))
    plane[row - 4 : row + 4, :] = 0.85
    return _noisy(plane, rng)


def corner_image(h, w, rng):
    """Bright square in the top-left quadrant."""
    plane = np.full((h, w), 0.1)
    r0, c0 = int(rng.integers(4, 12)), int(rng.integers(4, 12))
    plane[r0 : r0 + 12, c0 : c0 + 12] = 0.9
    return _noisy(plane, rng)


def small_disk_image(h, w, rng):
    yy, xx = np.mgrid[0:h, 0:w]
    plane = np.full((h, w), 0.1)
    plane[(yy - h / 2.0 + 0.5) ** 2 + (xx - w / 2.0 + 0.5) ** 2 <= 36.0] = 0.9
    return _noisy(plane, rng)


def detection_set(n, seed):
    """n 64 px samples: the first half disks (Yes), the rest blank (No)."""
    rng = np.random.default_rng([seed, 1])
    yes = [D.Sample(disk_image(64, 64, rng), 1, f"disk-{i}", D.TASK_DETECT)
           for i in range(n // 2)]
    no = [D.Sample(blank_image(64, 64, rng), 0, f"blank-{i}", D.TASK_DETECT)
          for i in range(n - n // 2)]
    return yes + no


def classification_set(n, seed):
    """n 64 px samples cycling over three patterns, labels 0/1/2."""
    rng = np.random.default_rng([seed, 2])
    makers = (corner_image, bar_image, small_disk_image)
    return [D.Sample(makers[i % 3](64, 64, rng), i % 3, f"cls-{i}", D.TASK_CLASSIFY)
            for i in range(n)]


# ---------------------------------------------------------------------------
# request pools


@dataclass(frozen=True)
class Request:
    route: str
    body: bytes
    kind: str  # "disk" or "blank"
    fmt: str  # PNM magic
    size: tuple  # (h, w)
    task: str


def _body(image, fmt, task, spacing, patient_ref):
    obj = {"image": base64.b64encode(D.write_pnm(image, fmt)).decode("ascii"), "task": task}
    if spacing is not None:
        obj["pixel_spacing_mm"] = spacing
    if patient_ref is not None:
        obj["patient_ref"] = patient_ref
    return json.dumps(obj).encode("utf-8")


# serve-64: per kind, 24 requests whose format and task cycle through
# these tables; lcm(8, 6) = 24, so every format meets every task once
SERVE_FORMATS = ("P6", "P6", "P5", "P6", "P6", "P6", "P5", "P3")
SERVE_ASCII_GRAY = "P2"  # every other ASCII slot is gray
SERVE_TASKS = ("full", "full", "full", "full", "detect", "classify")
SERVE_PER_KIND = 24

# report-512: (h, w) per slot; slot i is a disk when i is even and goes
# to the PDF route when (i // 2) is even.  Every image has one 512 px
# side, so request costs stay within about 2x of each other and the
# median latency does not jump between very different kinds of request.
REPORT_SIZES = (
    (512, 512), (512, 384), (448, 512), (512, 320),
    (384, 512), (512, 448), (320, 512), (512, 256),
)


def serve_pool(seed):
    """48 requests for /v1/predict at the model's native 64 px."""
    rng = np.random.default_rng([seed, 64])
    pool = []
    for kind in ("disk", "blank"):
        for j in range(SERVE_PER_KIND):
            fmt = SERVE_FORMATS[j % len(SERVE_FORMATS)]
            if fmt == "P3" and (j // len(SERVE_FORMATS)) % 2:
                fmt = SERVE_ASCII_GRAY
            task = SERVE_TASKS[j % len(SERVE_TASKS)]
            spacing = round(float(rng.uniform(0.3, 1.0)), 3) if j % 3 == 0 else None
            ref = f"case-{seed}-{kind}-{j}" if j % 2 == 0 else None
            body = _body(request_image(kind, 64, 64, rng), fmt, task, spacing, ref)
            pool.append(Request(ROUTE_PREDICT, body, kind, fmt, (64, 64), task))
    return pool


def report_pool(seed):
    """8 binary P5/P6 requests of 256-512 px, half PDF reports, half predictions."""
    rng = np.random.default_rng([seed, 512])
    pool = []
    for i, (h, w) in enumerate(REPORT_SIZES):
        kind = "disk" if i % 2 == 0 else "blank"
        route = ROUTE_PDF if (i // 2) % 2 == 0 else ROUTE_PREDICT
        fmt = "P5" if i % 3 == 0 else "P6"
        spacing = round(float(rng.uniform(0.3, 1.0)), 3)
        body = _body(request_image(kind, h, w, rng), fmt, "full", spacing, f"case-{seed}-{i}")
        pool.append(Request(route, body, kind, fmt, (h, w), "full"))
    return pool


def request_pool(workload, seed):
    if workload == "serve-64":
        return serve_pool(seed)
    if workload == "report-512":
        return report_pool(seed)
    raise ValueError(f"{workload} sends no HTTP requests")


def request_order(pool_size, seed, client):
    """Endless pool indices for one client: a fresh seeded permutation per pass."""
    rng = np.random.default_rng([seed, 7, client])
    while True:
        yield from (int(i) for i in rng.permutation(pool_size))


# ---------------------------------------------------------------------------
# served weights, trained once per program version


def source_digest(root: Path) -> str:
    """sha256 over the package sources, so any code change retrains."""
    digest = hashlib.sha256(RECIPE_VERSION.encode())
    pkg = root / "src" / "swinscan"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(pkg)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def served_weights(root: Path, cache: Path):
    """(detect path, classify path), training both with the recipes on first use."""
    final = cache / f"weights-{source_digest(root)}"
    if not final.is_dir():
        staging = cache / f"weights-staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        detect = M.ModelWeights.init(M.default_config(2), seed=0)
        TR.train(detect, detection_set(64, seed=0), DETECT_RECIPE)
        M.save_weights(str(staging / "detect.swnw"), detect)
        classify = M.ModelWeights.init(M.default_config(3), seed=0)
        TR.train(classify, classification_set(48, seed=0), CLASSIFY_RECIPE)
        M.save_weights(str(staging / "classify.swnw"), classify)
        try:
            staging.rename(final)
        except OSError:  # another run got there first
            shutil.rmtree(staging, ignore_errors=True)
    return str(final / "detect.swnw"), str(final / "classify.swnw")


def weights_digest(weights) -> str:
    digest = hashlib.sha256()
    for path, tensor in weights.items():
        digest.update(path.encode())
        digest.update(np.ascontiguousarray(tensor.data).tobytes())
    return digest.hexdigest()

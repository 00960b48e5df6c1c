"""Synthetic image fixtures shared across the test suite.

Detection set: bright centered disk ("Yes") versus near-blank noise
("No").  Classification set: three geometric patterns standing in for
the three tumor classes.  Everything is deterministic per seed.
"""

import csv
import os

import numpy as np

from swinscan import data as D
from swinscan import train as TR

# Known-good recipes for the synthetic sets: the detection disks hit
# 100% by epoch 5 at lr 1e-2 and saturate to confident margins by 10;
# the three-shape classification set wants a gentler rate and longer.
DETECT_RECIPE = TR.TrainConfig(epochs=10, learning_rate=1e-2, seed=0)
CLASSIFY_RECIPE = TR.TrainConfig(epochs=16, learning_rate=5e-3, seed=0)


def disk_image(side=64, center=None, radius=10.0, brightness=0.9, noise=0.05, rng=None):
    """Dark background with one bright disk; grayscale, 3 channels."""
    rng = rng or np.random.default_rng(0)
    cy, cx = center if center is not None else (side / 2.0, side / 2.0)
    yy, xx = np.mgrid[0:side, 0:side]
    dist = np.sqrt((yy - cy + 0.5) ** 2 + (xx - cx + 0.5) ** 2)
    plane = np.full((side, side), 0.1)
    plane[dist <= radius] = brightness
    plane = np.clip(plane + rng.normal(0.0, noise, size=plane.shape), 0.0, 1.0)
    return np.repeat(plane[None], 3, axis=0)


def blank_image(side=64, level=0.1, noise=0.05, rng=None):
    rng = rng or np.random.default_rng(0)
    plane = np.clip(np.full((side, side), level) + rng.normal(0.0, noise, size=(side, side)),
                    0.0, 1.0)
    return np.repeat(plane[None], 3, axis=0)


def bar_image(side=64, rng=None):
    """Bright horizontal band across the middle."""
    rng = rng or np.random.default_rng(0)
    plane = np.full((side, side), 0.1)
    row = side // 2 + int(rng.integers(-4, 5))
    plane[row - 4 : row + 4, :] = 0.85
    plane = np.clip(plane + rng.normal(0.0, 0.05, size=plane.shape), 0.0, 1.0)
    return np.repeat(plane[None], 3, axis=0)


def corner_blob_image(side=64, rng=None):
    """Bright square in the top-left quadrant."""
    rng = rng or np.random.default_rng(0)
    plane = np.full((side, side), 0.1)
    r0 = int(rng.integers(4, 12))
    c0 = int(rng.integers(4, 12))
    plane[r0 : r0 + 12, c0 : c0 + 12] = 0.9
    plane = np.clip(plane + rng.normal(0.0, 0.05, size=plane.shape), 0.0, 1.0)
    return np.repeat(plane[None], 3, axis=0)


def detection_samples(n=64, seed=0):
    """n samples, half bright-disk Yes, half blank No."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n // 2):
        img = disk_image(radius=float(rng.uniform(8, 14)),
                         brightness=float(rng.uniform(0.8, 0.95)), rng=rng)
        samples.append(D.Sample(img, 1, f"disk-{i}", D.TASK_DETECT))
    for i in range(n - n // 2):
        img = blank_image(level=float(rng.uniform(0.05, 0.15)), rng=rng)
        samples.append(D.Sample(img, 0, f"blank-{i}", D.TASK_DETECT))
    return samples


def classification_samples(n=48, seed=0):
    """n samples split over the three patterns, labels 0/1/2."""
    rng = np.random.default_rng(seed)
    makers = (corner_blob_image, bar_image,
              lambda rng=None: disk_image(radius=6.0, rng=rng))
    samples = []
    for i in range(n):
        label = i % 3
        img = makers[label](rng=rng)
        samples.append(
            D.Sample(img, label, f"cls-{label}-{i}", D.TASK_CLASSIFY)
        )
    return samples


def save_manifest(manifest, path):
    """Write a manifest as the `path,task,class` CSV that load_manifest reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "task", "class"])
        for e in manifest.entries:
            writer.writerow([e.path, e.task, e.class_name])


def write_dataset(samples, directory):
    """Write samples as P6 files plus a manifest.csv; returns its path."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for i, s in enumerate(samples):
        name = f"img-{i:03d}.pnm"
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(D.write_pnm(s.image, "P6"))
        class_name = D.classes_for_task(s.task)[s.label]
        entries.append(D.ManifestEntry(name, s.task, class_name))
    manifest = D.DatasetManifest(entries, base_dir=directory)
    path = os.path.join(directory, "manifest.csv")
    save_manifest(manifest, path)
    return path

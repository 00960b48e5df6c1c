"""Shared fixtures: small trained models reused across test modules.

Training the desk-scale model takes tens of seconds, so the trained
weights are session-scoped and every consumer treats them as read-only.
"""

import os

import pytest

import procs
import synth
from swinscan import model as M
from swinscan import tensor as T
from swinscan import train as TR
from synth import CLASSIFY_RECIPE, DETECT_RECIPE


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left():
    """Fails the session if a test leaves a child process running, such as
    a compute worker of a server that was never closed."""
    yield
    left = [pid for pid in procs.children(os.getpid()) if procs.running(pid)]
    assert left == [], f"child processes still running at the end of the session: {left}"


@pytest.fixture(scope="session")
def wide_pool():
    """A pool of three threads, so that tests cut nodes into up to four
    parts on any machine; a test sets its width to use fewer."""
    return T._Pool(3)


@pytest.fixture(scope="session")
def detect_samples():
    return synth.detection_samples(64, seed=0)


@pytest.fixture(scope="session")
def classify_samples():
    return synth.classification_samples(48, seed=0)


@pytest.fixture(scope="session")
def detect_model(detect_samples):
    """(weights, history) for a detection model fit on the disk set."""
    weights = M.ModelWeights.init(M.default_config(2), seed=0)
    weights, history = TR.train(weights, detect_samples, DETECT_RECIPE)
    return weights, history


@pytest.fixture(scope="session")
def classify_model(classify_samples):
    """(weights, history) for a classifier fit on the three-shape set."""
    weights = M.ModelWeights.init(M.default_config(3), seed=0)
    weights, history = TR.train(weights, classify_samples, CLASSIFY_RECIPE)
    return weights, history


@pytest.fixture(scope="session")
def detect_weights_path(detect_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "detect.swnw"
    M.save_weights(str(path), detect_model[0])
    return str(path)


@pytest.fixture(scope="session")
def classify_weights_path(classify_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "classify.swnw"
    M.save_weights(str(path), classify_model[0])
    return str(path)

"""Training loop and evaluation.

One optimizer step is forward, cross-entropy, backward, then a
decoupled-weight-decay adaptive-moment update.  Everything downstream
of the config seed is deterministic, so identical configs reproduce
identical weights bit for bit.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import data as D
from . import metrics as MX
from . import model as M
from . import tensor as T
from .errors import (
    ConfigurationError,
    DivergedTrainingError,
    EmptyInputError,
    InputError,
    NonFiniteError,
)

__all__ = [
    "TrainConfig", "EpochMetrics", "AdamW", "train", "evaluate",
    "log_epoch_metrics",
]

# AdamW moment decay rates, denominator guard and decoupled weight decay
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.01
EVAL_CHUNK = 32  # images per evaluate batch; make_batches normalizes them


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 3e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < np.inf:  # false for NaN too
            raise ConfigurationError(f"learning_rate {self.learning_rate} is not in (0, inf)")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


@dataclass
class EpochMetrics:
    epoch: int
    steps: int
    mean_loss: float
    accuracy: float
    precision: float
    recall: float
    f1: float


class AdamW:
    """Adaptive moments with decoupled weight decay.

    Decay is applied uniformly to every parameter, norm scales and
    biases included; at this model scale the simplicity is worth more
    than the customary no-decay list.
    """

    def __init__(self, params, config: TrainConfig):
        self.params = list(params)
        self.config = config
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        # overflow surfaces as a non-finite loss on the next forward pass
        with np.errstate(over="ignore", invalid="ignore"):
            for i, p in enumerate(self.params):
                g = p.grad
                if g is None:
                    continue
                self._m[i] = BETA1 * self._m[i] + (1.0 - BETA1) * g
                self._v[i] = BETA2 * self._v[i] + (1.0 - BETA2) * g * g
                m_hat = self._m[i] / bc1
                v_hat = self._v[i] / bc2
                p.data = p.data - self.config.learning_rate * (
                    m_hat / (np.sqrt(v_hat) + EPS) + WEIGHT_DECAY * p.data
                )

    def zero_grads(self):
        for p in self.params:
            p.grad = None


def _check_task(weights: M.ModelWeights, samples):
    tasks = {s.task for s in samples}
    if len(tasks) != 1:
        raise ConfigurationError(f"mixed tasks in sample set: {sorted(tasks)}")
    task = tasks.pop()
    classes = len(D.classes_for_task(task))
    if classes != weights.config.num_classes:
        raise ConfigurationError(
            f"task {task!r} has {classes} classes but the model head has "
            f"{weights.config.num_classes}"
        )
    return task


def train(weights: M.ModelWeights, samples, config: TrainConfig):
    """Optimize weights in place; returns (weights, history).

    Per-epoch metrics are computed on the training samples.
    """
    if not samples:
        raise EmptyInputError("no training samples")
    _check_task(weights, samples)
    rng = np.random.default_rng(config.seed)
    params = weights.tensors()  # path-sorted, so update order is fixed
    opt = AdamW(params, config)
    history = []
    global_step = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(samples))
        losses = []
        for images, labels in D.make_batches(samples, config.batch_size, order):
            global_step += 1
            opt.zero_grads()
            try:
                with T.Tape() as tape:
                    logits = M.forward_batch(images, weights)
                    loss = T.cross_entropy(logits, labels)
                T.backward(tape, loss)
            except NonFiniteError as exc:
                raise DivergedTrainingError(global_step, str(exc)) from exc
            losses.append(loss.item())
            opt.step()
        _, report = evaluate(weights, samples)
        history.append(
            EpochMetrics(
                epoch=epoch,
                steps=len(losses),
                mean_loss=float(np.mean(losses)),
                accuracy=_defined(report.accuracy),
                precision=_defined(report.ppv),
                recall=_defined(report.sensitivity),
                f1=_defined(report.f1),
            )
        )
    return weights, history


def _defined(rate) -> float:
    # epoch CSVs need numbers; an undefined rate logs as 0.0
    return 0.0 if rate is None else float(rate)


def evaluate(weights, samples):
    """Confusion matrix plus the nine-measure report over samples."""
    samples = list(samples)
    if not samples:
        raise EmptyInputError("cannot evaluate an empty sample set")
    _check_task(weights, samples)
    predicted = []
    for images, _ in D.make_batches(samples, EVAL_CHUNK, range(len(samples))):
        logits = M.forward_batch(images, weights)
        predicted.extend(int(i) for i in np.argmax(logits.data, axis=1))
    actual = [s.label for s in samples]
    cm = MX.confusion_from_predictions(actual, predicted, weights.config.num_classes)
    return cm, MX.report_from_confusion(cm)


_CSV_HEADER = "epoch,steps,mean_loss,accuracy,precision,recall,f1"
_LOGGED_FLOAT = re.compile(r"[0-9]+\.[0-9]+")  # the form f"{v:.9f}" writes for v >= 0


def log_epoch_metrics(history, path: str) -> None:
    """Write the epoch history as CSV; floats carry 9 decimals so a
    parse-back stays within 1e-9 of the originals."""
    if not history:
        raise EmptyInputError("no epochs to log")
    lines = [_CSV_HEADER]
    for em in history:
        lines.append(
            f"{em.epoch},{em.steps},{em.mean_loss:.9f},{em.accuracy:.9f},"
            f"{em.precision:.9f},{em.recall:.9f},{em.f1:.9f}"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _epoch_row(ln: str) -> EpochMetrics:
    names = _CSV_HEADER.split(",")
    parts = ln.split(",")
    if len(parts) != len(names):
        raise ValueError(f"expected {len(names)} fields, got {len(parts)}")
    for name, text in zip(names[:2], parts[:2]):
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"{name} {text!r} is not a count in ASCII digits")
    for name, text in zip(names[2:], parts[2:]):
        if not _LOGGED_FLOAT.fullmatch(text):
            raise ValueError(f"{name} {text} is not digits, a point and digits in ASCII")
    loss, *rates = (float(v) for v in parts[2:])
    if not 0.0 <= loss < np.inf:  # false for NaN too
        raise ValueError(f"mean_loss {loss} is not a finite value >= 0")
    for name, v in zip(names[3:], rates):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} {v} is not within [0, 1]")
    return EpochMetrics(int(parts[0]), int(parts[1]), loss, *rates)


def read_epoch_metrics(path: str):
    """Parse a CSV written by log_epoch_metrics.

    epoch and steps are ASCII digit runs; every other field is ASCII
    digits, one point and digits, the form written here, with mean_loss
    finite and the four rates within [0, 1].  Any other row raises
    InputError naming the file, line and field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text") from exc
    rows = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln]
    if not rows or rows[0][1] != _CSV_HEADER:
        raise EmptyInputError(f"{path} is not an epoch metrics CSV")
    history = []
    for line_no, ln in rows[1:]:
        try:
            history.append(_epoch_row(ln))
        except ValueError as exc:
            raise InputError(f"{path} line {line_no}: {exc}") from exc
    return history

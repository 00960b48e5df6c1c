import hashlib
import math
import re

import numpy as np
import pytest

import synth
from conftest import DETECT_RECIPE
from swinscan import data as D
from swinscan import metrics as MX
from swinscan import model as M
from swinscan import tensor as T
from swinscan import train as TR
from swinscan.errors import (
    ConfigurationError,
    DivergedTrainingError,
    EmptyInputError,
    InputError,
)

# a numpy overflow or invalid-operation warning fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def small_samples(n=8, task=D.TASK_DETECT):
    rng = np.random.default_rng(7)
    out = []
    k = len(D.classes_for_task(task))
    for i in range(n):
        image = rng.uniform(0.0, 1.0, size=(3, M.IMAGE_SIZE, M.IMAGE_SIZE))
        out.append(
            D.Sample(image=image, label=i % k, source_path=f"mem:{i}", task=task)
        )
    return out


def weights_digest(weights):
    digest = hashlib.sha256()
    for path in weights.paths():
        digest.update(path.encode())
        digest.update(weights[path].data.tobytes())
    return digest.hexdigest()


class TestTrainConfig:
    def test_defaults(self):
        cfg = TR.TrainConfig()
        assert cfg.epochs == 3
        assert cfg.batch_size == 32
        assert cfg.learning_rate == 3e-4
        assert TR.WEIGHT_DECAY == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1e-3},
            {"batch_size": 0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            TR.TrainConfig(**kwargs)


class TestOptimizer:
    def test_step_changes_every_param_with_nonzero_grad(self):
        weights = M.ModelWeights.init(M.default_config(2), seed=0)
        samples = small_samples(4)
        images = D.normalize(np.stack([s.image for s in samples]))
        params = weights.tensors()
        opt = TR.AdamW(params, TR.TrainConfig(learning_rate=1e-3))
        with T.Tape() as tape:
            logits = M.forward_batch(images, weights)
            loss = T.cross_entropy(logits, [s.label for s in samples])
        T.backward(tape, loss)
        before = [p.data.copy() for p in params]
        opt.step()
        for p, old in zip(params, before):
            if p.grad is not None and np.any(p.grad != 0.0):
                assert np.any(p.data != old)

    def test_none_grad_leaves_param_untouched(self):
        p = T.Tensor(np.ones((2, 2)), requires_grad=True)
        opt = TR.AdamW([p], TR.TrainConfig())
        opt.step()
        assert np.array_equal(p.data, np.ones((2, 2)))

    def test_zero_grads_clears(self):
        p = T.Tensor(np.ones(3), requires_grad=True)
        p.grad = np.ones(3)
        opt = TR.AdamW([p], TR.TrainConfig())
        opt.zero_grads()
        assert p.grad is None

    def test_frozen_batch_loss_strictly_decreases_five_steps(self):
        # learning-rate sanity gate: on one frozen batch of the separable
        # disk set, each of the first 5 steps must lower the loss.  The
        # adaptive update moves every coordinate by about lr at step one,
        # so the gate runs at a deliberately small rate.
        samples = synth.detection_samples(64, seed=0)
        order = np.random.default_rng(0).permutation(len(samples))
        images, labels = next(D.make_batches(samples, 32, order))
        weights = M.ModelWeights.init(M.default_config(2), seed=0)
        opt = TR.AdamW(weights.tensors(), TR.TrainConfig(learning_rate=1e-5))
        losses = []
        for _ in range(6):
            opt.zero_grads()
            with T.Tape() as tape:
                logits = M.forward_batch(images, weights)
                loss = T.cross_entropy(logits, labels)
            T.backward(tape, loss)
            losses.append(loss.item())
            opt.step()
        assert all(b < a for a, b in zip(losses, losses[1:])), losses


class TestTrain:
    def test_history_shape_and_step_counts(self):
        weights = M.ModelWeights.init(M.default_config(2), seed=0)
        samples = small_samples(10)
        cfg = TR.TrainConfig(epochs=3, batch_size=4, seed=1)
        _, history = TR.train(weights, samples, cfg)
        assert len(history) == cfg.epochs
        assert [em.epoch for em in history] == [1, 2, 3]
        for em in history:
            assert em.steps == math.ceil(len(samples) / cfg.batch_size)
            for rate in (em.accuracy, em.precision, em.recall, em.f1):
                assert 0.0 <= rate <= 1.0

    def test_final_loss_below_initial(self, detect_model):
        _, history = detect_model
        assert history[-1].mean_loss < history[0].mean_loss

    def test_detection_reaches_perfect_accuracy(self, detect_model):
        _, history = detect_model
        assert any(em.accuracy == 1.0 for em in history)

    def test_classification_reaches_perfect_accuracy(self, classify_model):
        _, history = classify_model
        assert history[-1].accuracy == 1.0

    def test_same_seed_runs_are_bitwise_identical(self):
        samples = small_samples(8)
        cfg = TR.TrainConfig(epochs=2, batch_size=4, seed=3)
        results = []
        for _ in range(2):
            weights = M.ModelWeights.init(M.default_config(2), seed=5)
            weights, history = TR.train(weights, samples, cfg)
            results.append((weights, history))
        wa, wb = results[0][0], results[1][0]
        for path in wa.paths():
            assert wa[path].data.tobytes() == wb[path].data.tobytes(), path
        assert results[0][1] == results[1][1]

    def test_matches_explicit_loop(self):
        # oracle: the step sequence written out by hand, one permutation
        # of the seeded generator per epoch
        samples = small_samples(10)
        cfg = TR.TrainConfig(epochs=2, batch_size=4, seed=3)
        trained, _ = TR.train(M.ModelWeights.init(M.default_config(2), seed=5), samples, cfg)
        weights = M.ModelWeights.init(M.default_config(2), seed=5)
        opt = TR.AdamW(weights.tensors(), cfg)
        rng = np.random.default_rng(cfg.seed)
        steps = 0
        for _ in range(cfg.epochs):
            order = rng.permutation(len(samples))
            for at in range(0, len(samples), cfg.batch_size):
                chunk = [samples[i] for i in order[at : at + cfg.batch_size]]
                images = D.normalize(np.stack([s.image for s in chunk]))
                opt.zero_grads()
                with T.Tape() as tape:
                    logits = M.forward_batch(images, weights)
                    loss = T.cross_entropy(logits, [s.label for s in chunk])
                T.backward(tape, loss)
                opt.step()
                steps += 1
        assert steps == 6
        assert weights_digest(trained) == weights_digest(weights)

    def test_training_moves_parameters(self):
        weights = M.ModelWeights.init(M.default_config(2), seed=0)
        before = {p: weights[p].data.copy() for p in weights.paths()}
        TR.train(weights, small_samples(8), TR.TrainConfig(epochs=1, batch_size=4))
        assert any(
            not np.array_equal(weights[p].data, before[p])
            for p in weights.paths()
        )

    def test_diverged_training_reports_step(self):
        weights = M.ModelWeights.init(M.default_config(2), seed=0)
        cfg = TR.TrainConfig(epochs=4, batch_size=4, learning_rate=1e18)
        with pytest.raises(DivergedTrainingError) as exc_info:
            TR.train(
                weights, small_samples(8), cfg
            )
        assert exc_info.value.step >= 1

    def test_empty_samples_rejected(self):
        weights = M.ModelWeights.init(M.default_config(2), seed=0)
        with pytest.raises(EmptyInputError):
            TR.train(weights, [], TR.TrainConfig())

    def test_mixed_tasks_rejected(self):
        weights = M.ModelWeights.init(M.default_config(2), seed=0)
        samples = small_samples(4) + small_samples(3, task=D.TASK_CLASSIFY)
        with pytest.raises(ConfigurationError):
            TR.train(weights, samples, TR.TrainConfig())

    def test_head_size_must_match_task(self):
        weights = M.ModelWeights.init(M.default_config(3), seed=0)
        with pytest.raises(ConfigurationError):
            TR.train(weights, small_samples(4), TR.TrainConfig())


class TestEvaluate:
    def test_matches_argmax_of_forward_batch_chunks(self, detect_model):
        # 45 = 32 + 13 samples; labels drawn independently of the images,
        # so a prediction paired with the wrong sample can change the counts
        weights, _ = detect_model
        rng = np.random.default_rng(11)
        samples = [
            D.Sample(s.image, int(rng.integers(2)), s.source_path, s.task)
            for s in synth.detection_samples(45, seed=5)
        ]
        predicted = []
        for at in (0, 32):
            images = D.normalize(np.stack([s.image for s in samples[at : at + 32]]))
            predicted.extend(np.argmax(M.forward_batch(images, weights).data, axis=1))
        expected = MX.confusion_from_predictions([s.label for s in samples], predicted, 2)
        cm, report = TR.evaluate(weights, samples)
        assert cm == expected
        assert report == MX.report_from_confusion(expected)

    def test_report_matches_recomputation_from_matrix(self, detect_model,
                                                      detect_samples):
        weights, _ = detect_model
        cm, report = TR.evaluate(weights, detect_samples)
        again = MX.report_from_confusion(cm)
        assert report == again

    def test_trained_model_separates_disks(self, detect_model,
                                           detect_samples):
        weights, _ = detect_model
        _, report = TR.evaluate(weights, detect_samples)
        assert report.accuracy == 1.0

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyInputError):
            TR.evaluate(M.ModelWeights.init(M.default_config(2), seed=0), [])


class TestWeightsRoundTrip:
    def test_trained_weights_survive_save_load(self, detect_model, tmp_path):
        weights, _ = detect_model
        path = tmp_path / "model.swnw"
        M.save_weights(str(path), weights)
        back = M.load_weights(str(path))
        assert back.config == weights.config
        for name in weights.paths():
            assert back[name].data.tobytes() == weights[name].data.tobytes()


class TestEpochCsv:
    def history(self):
        return [
            TR.EpochMetrics(1, 2, 0.693147181, 0.5, 0.5, 0.5, 0.5),
            TR.EpochMetrics(2, 2, 0.401234567, 0.75, 0.8, 0.7, 0.746268657),
            TR.EpochMetrics(3, 2, 0.123456789, 1.0, 1.0, 1.0, 1.0),
        ]

    def test_line_count_and_header(self, tmp_path):
        path = tmp_path / "epochs.csv"
        TR.log_epoch_metrics(self.history(), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "epoch,steps,mean_loss,accuracy,precision,recall,f1"

    def test_round_trip_within_1e9(self, tmp_path):
        path = tmp_path / "epochs.csv"
        history = self.history()
        TR.log_epoch_metrics(history, str(path))
        back = TR.read_epoch_metrics(str(path))
        assert len(back) == len(history)
        for a, b in zip(history, back):
            assert a.epoch == b.epoch and a.steps == b.steps
            for field in ("mean_loss", "accuracy", "precision", "recall", "f1"):
                assert abs(getattr(a, field) - getattr(b, field)) <= 1e-9

    def test_epochs_ascend(self, tmp_path):
        path = tmp_path / "epochs.csv"
        TR.log_epoch_metrics(self.history(), str(path))
        epochs = [em.epoch for em in TR.read_epoch_metrics(str(path))]
        assert epochs == sorted(epochs)

    @pytest.mark.parametrize("row", ["1,2,0.5", "1,2,0.5,x,0.5,0.5,0.5", "1.5,2,0,0,0,0,0"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "epochs.csv"
        TR.log_epoch_metrics(self.history(), str(path))
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(InputError, match=re.escape(f"{path} line 5")):
            TR.read_epoch_metrics(str(path))

    @pytest.mark.parametrize("row, field", [
        ("1,2,nan,0.5,0.5,0.5,0.5", "mean_loss"),
        ("1,2,inf,0.5,0.5,0.5,0.5", "mean_loss"),
        ("1,2,-0.5,0.5,0.5,0.5,0.5", "mean_loss"),
        ("1,2,0.5,inf,0.5,0.5,0.5", "accuracy"),
        ("1,2,0.5,0.5,-5,0.5,0.5", "precision"),
        ("1,2,0.5,0.5,0.5,1.000000001,0.5", "recall"),
        ("1,2,0.5,0.5,0.5,0.5,nan", "f1"),
        ("1_0,2,0.5,0.5,0.5,0.5,0.5", "epoch"),
        ("+1,2,0.5,0.5,0.5,0.5,0.5", "epoch"),
        (" 1,2,0.5,0.5,0.5,0.5,0.5", "epoch"),
        ("\u0661,2,0.5,0.5,0.5,0.5,0.5", "epoch"),
        ("1,-2,0.5,0.5,0.5,0.5,0.5", "steps"),
        ("1,,0.5,0.5,0.5,0.5,0.5", "steps"),
        # float() takes these; log_epoch_metrics writes none of them
        ("1,2,0.0_1, 0.5,1e-1,0.5,0.5", "mean_loss"),
        ("1,2,0.5, 0.5,0.5,0.5,0.5", "accuracy"),
        ("1,2,0.5,0.5,1e-1,0.5,0.5", "precision"),
        ("1,2,0.5,0.5,0.5,.5,0.5", "recall"),
        ("1,2,0.5,0.5,0.5,0.5,1.", "f1"),
        ("1,2,+0.5,0.5,0.5,0.5,0.5", "mean_loss"),
        ("1,2,1,0.5,0.5,0.5,0.5", "mean_loss"),
        ("1,2,0.5,0.\u0665,0.5,0.5,0.5", "accuracy"),
    ])
    def test_value_no_run_writes_rejected(self, tmp_path, row, field):
        path = tmp_path / "epochs.csv"
        path.write_text(TR._CSV_HEADER + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=re.escape(f"{path} line 2: {field} ")):
            TR.read_epoch_metrics(str(path))

    def test_extreme_logged_values_round_trip(self, tmp_path):
        # the bounds themselves and a large loss are values a run can write
        history = [
            TR.EpochMetrics(1, 1, 0.0, 0.0, 0.0, 0.0, 0.0),
            TR.EpochMetrics(12, 345, 1e6, 1.0, 1.0, 1.0, 1.0),
        ]
        path = tmp_path / "epochs.csv"
        TR.log_epoch_metrics(history, str(path))
        assert TR.read_epoch_metrics(str(path)) == history

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(EmptyInputError):
            TR.log_epoch_metrics([], str(tmp_path / "epochs.csv"))

    def test_real_history_round_trips(self, detect_model, tmp_path):
        _, history = detect_model
        path = tmp_path / "detect.csv"
        TR.log_epoch_metrics(history, str(path))
        back = TR.read_epoch_metrics(str(path))
        assert [em.epoch for em in back] == [em.epoch for em in history]
        for a, b in zip(history, back):
            assert abs(a.mean_loss - b.mean_loss) <= 1e-9

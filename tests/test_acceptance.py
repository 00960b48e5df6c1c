"""Acceptance gate: nine numbered checks covering the whole package.

Each check certifies one shipping requirement end to end and prints a
single PASS/FAIL line straight to the terminal, so a plain pytest run
yields a readable scorecard.  The checks reuse the independent oracles
from the unit suites: central finite differences, dense global
attention, brute-force recounting from raw label pairs, flood fill,
and the exhaustive 256-level threshold scan.
"""

import base64
import contextlib
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

import synth
from synth import DETECT_RECIPE
from gradcheck import FD_STEP, analytic_grads, check_grads, max_rel_error
from test_metrics import cm_from_counts, oracle_measures, sequences_for
from test_model import dense_attention_oracle, region_id_oracle
from test_segment import flood_components, label_partition, otsu_oracle

from swinscan import data as D
from swinscan import metrics as MX
from swinscan import model as M
from swinscan import segment as SEG
from swinscan import service as SV
from swinscan import tensor as T
from swinscan import train as TR

PINNED_TS = "2026-02-03T04:05:06Z"


@contextlib.contextmanager
def _verdict(capsys, label):
    """Print one scorecard line for the enclosed check, bypassing capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS")


def _attn_weights(rng, c):
    return {
        "qkv.weight": T.Tensor(rng.normal(size=(c, 3 * c), scale=0.2)),
        "qkv.bias": T.Tensor(rng.normal(size=3 * c, scale=0.2)),
        "proj.weight": T.Tensor(rng.normal(size=(c, c), scale=0.2)),
        "proj.bias": T.Tensor(rng.normal(size=c, scale=0.2)),
    }


# ---------------------------------------------------------------------------
# 1: gradients


def _op_worst_error():
    """Finite-difference check of every differentiable op, three shapes each."""
    rng = np.random.default_rng(101)
    worst = 0.0

    def bump(err):
        nonlocal worst
        worst = max(worst, err)

    for shape in [(3, 5), (2, 4, 6), (7, 2)]:
        x = T.Tensor(rng.normal(size=shape), requires_grad=True)
        bump(check_grads(lambda x=x: T.total_sum(T.gelu(x)), [x]))
        # gelu keeps the loss nonlinear; a plain softmax sum is constant
        bump(check_grads(lambda x=x: T.total_sum(T.gelu(T.softmax_lastdim(x))), [x]))
        bump(check_grads(lambda x=x: T.total_sum(T.gelu(T.scale(x, -1.7))), [x]))

    for shape in [(2, 5), (3, 4), (2, 3, 6)]:
        c = shape[-1]
        x = T.Tensor(rng.normal(size=shape), requires_grad=True)
        gamma = T.Tensor(rng.normal(size=c), requires_grad=True)
        beta = T.Tensor(rng.normal(size=c), requires_grad=True)
        bump(check_grads(
            lambda x=x, g=gamma, b=beta: T.total_sum(T.gelu(T.layer_norm(x, g, b))),
            [x, gamma, beta],
        ))
        a = T.Tensor(rng.normal(size=shape), requires_grad=True)
        b = T.Tensor(rng.normal(size=shape), requires_grad=True)
        bump(check_grads(lambda a=a, b=b: T.total_sum(T.gelu(T.add(a, b))), [a, b]))

    for sa, sb in [((3, 4), (4, 5)), ((2, 3, 4), (4, 2)), ((2, 2, 3), (2, 3, 2))]:
        a = T.Tensor(rng.normal(size=sa), requires_grad=True)
        b = T.Tensor(rng.normal(size=sb), requires_grad=True)
        bump(check_grads(lambda a=a, b=b: T.total_sum(T.gelu(T.matmul(a, b))), [a, b]))

    for n, c in [(2, 2), (5, 3), (3, 7)]:
        logits = T.Tensor(rng.normal(size=(n, c)), requires_grad=True)
        labels = list(rng.integers(0, c, size=n))
        bump(check_grads(lambda l=logits, y=labels: T.cross_entropy(l, y), [logits]))

    for shape in [(2, 6), (4, 3), (2, 2, 4)]:
        x = T.Tensor(rng.normal(size=shape), requires_grad=True)

        def build(x=x, shape=shape):
            h = T.reshape(x, (-1, shape[-1]))
            h = T.permute(h, (1, 0))
            h = T.roll(h, (1,), (0,))
            h = T.slice_axis(h, 1, 0, h.shape[1] - 1)
            h = T.reduce_mean(h, axis=0)
            return T.total_sum(T.gelu(h))

        bump(check_grads(build, [x]))

    for n, c, k in [(5, 3, 8), (4, 2, 4), (9, 4, 20)]:
        table = T.Tensor(rng.normal(size=(n, c)), requires_grad=True)
        idx = rng.integers(0, n, size=k)
        bump(check_grads(
            lambda t=table, i=idx: T.total_sum(T.gelu(T.take_rows(t, i))), [table]
        ))

    # the fused ops the model runs: linear with and without a gradient for
    # x (image patches need none), attention with its bias table and with
    # a mask shared by several windows, and the window gathers
    for sx, c_out in [((3, 4), 5), ((2, 3, 4), 2), ((2, 2, 2, 3), 4)]:
        for x_grad in (True, False):
            x = T.Tensor(rng.normal(size=sx), requires_grad=x_grad)
            w = T.Tensor(rng.normal(size=(sx[-1], c_out)), requires_grad=True)
            b = T.Tensor(rng.normal(size=c_out), requires_grad=True)
            bump(check_grads(
                lambda x=x, w=w, b=b: T.total_sum(T.gelu(T.linear(x, w, b))),
                [x, w, b] if x_grad else [w, b],
            ))

    for windows, tokens, c_in, heads, dh, m in [(2, 4, 3, 2, 2, None), (4, 4, 4, 2, 2, 2),
                                                 (3, 4, 2, 1, 3, 1)]:
        # x, w_qkv and b_qkv: attention runs the q/k/v projection itself
        params = [T.Tensor(a, requires_grad=True) for a in (
            rng.normal(size=(windows, tokens, c_in)), rng.normal(size=(c_in, 3 * heads * dh)),
            rng.normal(size=3 * heads * dh), rng.normal(size=(5, heads)))]
        index = rng.integers(0, 5, size=tokens * tokens)
        # 0 or -100 per token pair, as the shift mask; the diagonal stays open
        mask = None if m is None else np.where(
            (rng.random((m, tokens, tokens)) < 0.4) & ~np.eye(tokens, dtype=bool), -100.0, 0.0)
        bump(check_grads(
            lambda p=params, i=index, k=mask: T.total_sum(T.gelu(T.attention(*p, i, k))), params,
        ))

    for shape, rows, out in [((2, 6, 3), 6, (4, 3, 3)), ((1, 4, 2), 4, (1, 2, 2, 2)),
                             ((3, 2, 5), 2, (6, 5))]:
        x = T.Tensor(rng.normal(size=shape), requires_grad=True)
        order = rng.permutation(rows)
        bump(check_grads(
            lambda x=x, o=order, s=out: T.total_sum(T.gelu(T.gather_rows(x, o, np.argsort(o), s))),
            [x],
        ))

    return worst


DESK_PROBES = (
    "patch_embed.proj.bias",
    "stage0.block0.attn.qkv.bias",
    "stage0.block0.attn.bias_table",
    "stage0.block1.norm2.gamma",
    "stage0.block0.mlp.fc1.bias",
    "merge0.norm.beta",
    "stage1.block0.attn.qkv.weight",
    "stage1.block1.mlp.fc2.bias",
    "head.norm.gamma",
    "head.fc.weight",
    "head.fc.bias",
)


def _desk_model_worst_error():
    """Sampled finite differences through the full two-stage model.

    Every parameter role is probed; tensors up to 64 entries are
    checked coordinate by coordinate, larger ones on a random sample.
    """
    rng = np.random.default_rng(102)
    config = M.default_config(2)
    weights = M.ModelWeights.init(config, seed=5)
    images = rng.normal(size=(2, 3, 64, 64), scale=0.5)
    labels = [1, 0]

    def loss():
        return T.cross_entropy(M.forward_batch(images, weights), labels)

    tensors = [weights[path] for path in DESK_PROBES]
    grads = analytic_grads(loss, tensors)
    worst = 0.0
    for tensor, grad in zip(tensors, grads):
        flat = tensor.data.reshape(-1)
        gflat = grad.reshape(-1)
        coords = (
            np.arange(flat.size)
            if flat.size <= 64
            else rng.choice(flat.size, size=64, replace=False)
        )
        for i in coords:
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = float(loss().data)
            flat[i] = orig - FD_STEP
            fm = float(loss().data)
            flat[i] = orig
            numeric = np.array([(fp - fm) / (2.0 * FD_STEP)])
            worst = max(worst, max_rel_error(np.array([gflat[i]]), numeric))
    return worst


def test_01_gradients_match_finite_differences(capsys):
    with _verdict(capsys, "01 gradients match finite differences"):
        start = time.perf_counter()
        worst = max(_op_worst_error(), _desk_model_worst_error())
        elapsed = time.perf_counter() - start
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 120.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2: attention oracles


def test_02_windowed_attention_matches_dense_oracle(capsys):
    with _verdict(capsys, "02 windowed attention matches the dense oracle"):
        # window == full grid, zero bias, no shift: global attention
        rng = np.random.default_rng(201)
        c, heads, win = 8, 2, M.WINDOW_SIZE
        weights = _attn_weights(rng, c)
        grid = rng.normal(size=(win, win, c))
        wins = M.window_partition(T.Tensor(grid[None]))
        weights["bias_table"] = T.Tensor(np.zeros(((2 * win - 1) ** 2, heads)))
        out = M.window_attention(wins, weights)
        oracle = dense_attention_oracle(
            grid.reshape(-1, c),
            weights["qkv.weight"].data,
            weights["qkv.bias"].data,
            weights["proj.weight"].data,
            weights["proj.bias"].data,
            heads,
        )
        assert np.max(np.abs(out.data[0] - oracle)) < 1e-6

        # shift masks: tokens constant per pre-shift region stay constant
        h = w = 8
        shift, c, heads = M.SHIFT_SIZE, 4, 2
        values = {rid: rng.normal(size=c) for rid in range(9)}
        grid = np.zeros((h, w, c))
        for r in range(h):
            for col in range(w):
                grid[r, col] = values[region_id_oracle(r, col, h, w, win, shift)]
        weights = _attn_weights(rng, c)
        weights["bias_table"] = T.Tensor(rng.normal(size=((2 * win - 1) ** 2, heads), scale=0.5))
        mask = M.build_shift_mask(h, w)
        wins = M.window_partition(T.Tensor(grid[None]))
        out = M.window_attention(wins, weights, mask=mask).data
        n_side = w // win
        by_region = {}
        for r in range(h):
            for col in range(w):
                widx = (r // win) * n_side + (col // win)
                token = out[widx, (r % win) * win + (col % win)]
                rid = region_id_oracle(r, col, h, w, win, shift)
                if rid in by_region:
                    assert np.max(np.abs(token - by_region[rid])) < 1e-9
                else:
                    by_region[rid] = token


# ---------------------------------------------------------------------------
# 3: complexity


def test_03_attention_cost_linear_in_token_count(capsys, monkeypatch):
    with _verdict(capsys, "03 attention cost is linear in image size"):
        rng = np.random.default_rng(301)
        c, heads, win = 8, 2, M.WINDOW_SIZE
        weights = _attn_weights(rng, c)
        weights["bias_table"] = T.Tensor(np.zeros(((2 * win - 1) ** 2, heads)))
        linear, attention = T.linear, T.attention
        macs = {}

        def counted_linear(x, w, b):
            # (..., k) @ (k, n): x.size * n multiply-accumulates
            macs[side] += x.size * w.shape[-1]
            return linear(x, w, b)

        def counted_attention(x, w, b, table, index, mask=None):
            # the q/k/v projection, x.size * 3C, then q @ k^T and p @ v:
            # each window's tokens**2 * C, twice
            n_win, n_tok, _ = x.shape
            macs[side] += x.size * w.shape[-1] + 2 * n_win * n_tok * (w.shape[-1] // 3) * n_tok
            return attention(x, w, b, table, index, mask)

        for side in (16, 32):
            grid = rng.normal(size=(side, side, c))
            wins = M.window_partition(T.Tensor(grid[None]))
            macs[side] = 0
            with monkeypatch.context() as patch:
                patch.setattr(T, "linear", counted_linear)
                patch.setattr(T, "attention", counted_attention)
                M.window_attention(wins, weights)
        # 16 windows of 16 tokens, C = 8: qkv 2048 * 24, scores and
        # weighted sum 2 * 2048 * 16, projection 2048 * 8
        assert macs[16] == 131_072
        # 4x the pixels must cost exactly 4x the multiply-accumulates
        assert macs[32] == 4 * macs[16], f"MAC ratio {macs[32] / macs[16]:.3f}"


# ---------------------------------------------------------------------------
# 4: training


def test_04_training_converges_deterministically(capsys, detect_samples, detect_model):
    with _verdict(capsys, "04 synthetic training converges deterministically"):
        trained, history = detect_model
        assert DETECT_RECIPE.epochs <= 30
        assert any(epoch.accuracy == 1.0 for epoch in history)

        start = time.perf_counter()
        fresh = M.ModelWeights.init(M.default_config(2), seed=0)
        rerun, _ = TR.train(fresh, detect_samples, DETECT_RECIPE)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"training took {elapsed:.1f}s"

        assert sorted(rerun.paths()) == sorted(trained.paths())
        for path in trained.paths():
            assert rerun[path].data.tobytes() == trained[path].data.tobytes(), path


# ---------------------------------------------------------------------------
# 5: metrics


def test_05_measures_match_brute_force(capsys):
    with _verdict(capsys, "05 nine measures match brute-force recounting"):
        # every binary confusion matrix with at most 12 observations
        for total in range(13):
            for tp in range(total + 1):
                for tn in range(total - tp + 1):
                    for fp in range(total - tp - tn + 1):
                        fn = total - tp - tn - fp
                        actual, predicted = sequences_for(tp, tn, fp, fn)
                        cm = MX.confusion_from_predictions(actual, predicted, 2)
                        report = MX.binary_report(cm)
                        want = oracle_measures(actual, predicted)
                        for name in MX.MetricsReport.MEASURES:
                            got = getattr(report, name)
                            if want[name] is None:
                                assert got is None, (name, tp, tn, fp, fn)
                            elif name in ("fall_out", "miss_rate", "error_rate"):
                                assert abs(got - want[name]) < 1e-12
                            else:
                                assert got == want[name], (name, tp, tn, fp, fn)

        # complement identities on random matrices
        rng = np.random.default_rng(502)
        for _ in range(10000):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 400, size=4))
            report = MX.binary_report(cm_from_counts(tp, tn, fp, fn))
            if report.specificity is not None:
                assert abs(report.fall_out - (1.0 - report.specificity)) < 1e-12
            if report.sensitivity is not None:
                assert abs(report.miss_rate - (1.0 - report.sensitivity)) < 1e-12
            if report.accuracy is not None:
                assert abs(report.error_rate - (1.0 - report.accuracy)) < 1e-12

        # harmonic mean cross-check against the published F1 cell
        precision, recall = 0.9980, 0.9990
        f1_val = 2.0 * precision * recall / (precision + recall)
        assert round(f1_val, 4) == 0.9985
        assert MX.render_percent(f1_val) == "99.85"


# ---------------------------------------------------------------------------
# 6: tables

EXPECTED_COMPARISON = (
    ("KNN", "67%", "83%", "75%"),
    ("ELM", "90%", "78%", "84%"),
    ("FCM", "96%", "93.3%", "86.6%"),
    ("U-Net", "-", "-", "91%"),
    ("CapsNet", "-", "-", "92.65%"),
    ("SVM", "90%", "96%", "93%"),
    ("CDLLC", "94.64%", "-", "96.39%"),
    ("CNN", "96.4%", "98.3%", "97.8%"),
    ("ANFIS", "96.6%", "95.3%", "98.67%"),
    ("Our Approach", "99.90%", "99.62%", "99.81%"),
)

DETECTION_REPORT = MX.MetricsReport(
    sensitivity=0.9990, specificity=0.9962, fall_out=0.0038,
    miss_rate=0.0010, ppv=0.9980, npv=0.9981, f1=0.9985,
    accuracy=0.9981, error_rate=0.0019,
)

DETECTION_CELLS = (
    "99.90%", "99.62%", "0.38%", "0.10%", "99.80%",
    "99.81%", "99.85%", "99.81%", "0.19%",
)

CLASSIFICATION_REPORT = MX.MetricsReport(
    sensitivity=0.9949, specificity=0.99786, fall_out=0.00214,
    miss_rate=0.0051, ppv=0.9961, npv=0.9972, f1=0.9955,
    accuracy=0.9951, error_rate=0.0049,
)

CLASSIFICATION_CELLS = (
    "99.49%", "99.786%", "0.214%", "0.51%", "99.61%",
    "99.72%", "99.55%", "99.51%", "0.49%",
)


def test_06_tables_render_verbatim(capsys):
    with _verdict(capsys, "06 comparison and measure tables render verbatim"):
        assert MX.render_comparison(DETECTION_REPORT) == EXPECTED_COMPARISON
        got = tuple(cell for _, cell in MX.render_measures(DETECTION_REPORT))
        assert got == DETECTION_CELLS
        got = tuple(cell for _, cell in MX.render_measures(CLASSIFICATION_REPORT))
        assert got == CLASSIFICATION_CELLS


# ---------------------------------------------------------------------------
# 7: segmentation


def test_07_segmentation_sizes_known_blobs(capsys):
    with _verdict(capsys, "07 segmentation sizes blobs within tolerance"):
        rng = np.random.default_rng(701)
        side = 48
        yy, xx = np.mgrid[0:side, 0:side]
        for _ in range(100):
            radius = float(rng.uniform(5.0, 14.0))
            cy, cx = (float(v) for v in rng.uniform(16.0, 32.0, size=2))
            inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2
            unit = np.where(inside, 0.85, 0.12)
            unit = np.clip(unit + rng.normal(scale=0.03, size=(side, side)), 0.0, 1.0)
            rgb = SEG.rgb_from_unit(np.stack([unit, unit, unit]))

            truth = int(inside.sum())
            result = SEG.segment(rgb, pixel_spacing_mm=0.5)
            assert result.found
            assert abs(result.area_px - truth) <= 0.05 * truth

            gray = SEG.to_grayscale(rgb)
            level = SEG.otsu_threshold(gray)
            assert level == otsu_oracle(gray)

            mask = SEG.threshold_mask(gray, level)
            labels, areas = SEG.connected_components(mask)
            comps = flood_components(mask)
            assert set(label_partition(labels).values()) == set(comps)
            assert sorted(areas) == sorted(len(c) for c in comps)


# ---------------------------------------------------------------------------
# 8: PDFs


def test_08_pdfs_reparse_and_reproduce(capsys, monkeypatch, detect_weights_path,
                                       classify_weights_path):
    with _verdict(capsys, "08 every emitted PDF re-parses and is reproducible"):
        monkeypatch.setenv("SWINSCAN_TIMESTAMP", PINNED_TS)
        disk = synth.disk_image(rng=np.random.default_rng(11))
        blank = synth.blank_image(rng=np.random.default_rng(12))
        for image, task in ((disk, "full"), (blank, "full"), (disk, "detect")):
            body = json.dumps({
                "image": base64.b64encode(D.write_pnm(image)).decode("ascii"),
                "task": task,
                "pixel_spacing_mm": 0.5,
            }).encode("utf-8")

            emitted = []
            for _ in range(2):
                service = SV.PredictionService(detect_weights_path, classify_weights_path)
                report, highlighted = service.run(SV.parse_request(body))
                emitted.append(SV.write_pdf(report, highlighted))

            info = SV.parse_pdf(emitted[0])
            assert info.page_count in (1, 2)
            assert emitted[0] == emitted[1]


# ---------------------------------------------------------------------------
# 9: end to end


def test_09_cli_and_http_agree(capsys, tmp_path, monkeypatch,
                               detect_weights_path, classify_weights_path):
    with _verdict(capsys, "09 CLI and HTTP agree end to end"):
        monkeypatch.setenv("SWINSCAN_TIMESTAMP", PINNED_TS)
        disk = synth.disk_image(rng=np.random.default_rng(11))
        image_path = tmp_path / "disk.ppm"
        image_path.write_bytes(D.write_pnm(disk))
        pdf_path = tmp_path / "report.pdf"

        rc = SV.main([
            "predict",
            "--weights-detect", detect_weights_path,
            "--weights-classify", classify_weights_path,
            "--image", str(image_path),
            "--pdf", str(pdf_path),
            "--spacing", "0.5",
        ])
        out = capsys.readouterr().out
        assert rc == 0

        report = json.loads(out)
        assert report["detection"]["label"] == "Yes"
        assert report["detection"]["probabilities"]["Yes"] > 0.9
        assert report["classification"]["label"] in D.CLASSIFY_CLASSES
        assert report["segmentation"]["region_found"] is True
        assert report["segmentation"]["area_px"] > 0
        assert SV.parse_pdf(pdf_path.read_bytes()).page_count == 2

        service = SV.PredictionService(detect_weights_path, classify_weights_path)
        server = SV.create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            body = json.dumps({
                "image": base64.b64encode(image_path.read_bytes()).decode("ascii"),
                "task": "full",
                "pixel_spacing_mm": 0.5,
            }).encode("utf-8")
            request = urllib.request.Request(
                f"http://{host}:{port}/v1/predict", data=body
            )
            request.add_header("Content-Type", "application/json")
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
                payload = response.read()
        finally:
            server.shutdown()
            server.server_close()
        assert payload + b"\n" == out.encode("ascii")

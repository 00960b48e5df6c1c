"""train-64: `train.train` from freshly initialised weights, repeated for the measured time.

One repetition trains TRAIN_EPOCHS epochs at batch TRAIN_BATCH on a
64-sample detection set, with the per-epoch `evaluate`.  Every
repetition starts from the same seed, so each must end in the same
weights digest.  An optimizer step runs from `AdamW.zero_grads` to the
end of `AdamW.step`; hooks on those two methods time it.
"""

import resource
import time

from swinscan import model as M
from swinscan import train as TR
from swinscan.errors import DivergedTrainingError

import spans as SP
import stats
import workloads as W

SETUP_REPEATS = 15  # set-up takes about 20 ms; the median of many steadies it
MIN_REPETITIONS = 2  # the digest check needs two
MIN_STEPS = 20  # so that ten steps lie beyond the median


def _fresh_weights(seed):
    return M.ModelWeights.init(M.default_config(2), seed=seed)


def _hook_steps(steps, tracer):
    """Time each optimizer step into steps (seconds); returns an undo callable."""
    zero_grads, step = TR.AdamW.zero_grads, TR.AdamW.step
    opened = {}

    def timed_zero_grads(self):
        opened["t0"] = time.perf_counter()
        if tracer is not None:
            opened["span"] = tracer.begin(SP.STEP_ROOT)
        return zero_grads(self)

    def timed_step(self):
        out = step(self)
        if tracer is not None:
            tracer.end(opened["span"])
        steps.append(time.perf_counter() - opened["t0"])
        return out

    TR.AdamW.zero_grads, TR.AdamW.step = timed_zero_grads, timed_step

    def undo():
        TR.AdamW.zero_grads, TR.AdamW.step = zero_grads, step

    return undo


def phase(seed, seconds, tracer=None, min_steps=MIN_STEPS):
    """Repeat the training job for `seconds`, MIN_REPETITIONS and min_steps."""
    config = TR.TrainConfig(epochs=W.TRAIN_EPOCHS, batch_size=W.TRAIN_BATCH,
                            learning_rate=1e-2, seed=seed)
    steps_per_rep = W.TRAIN_EPOCHS * -(-W.TRAIN_SET_SIZE // W.TRAIN_BATCH)
    steps, digests = [], []
    train_s = 0.0
    attempted = failed = 0
    restore = SP.instrument(tracer) if tracer is not None else (lambda: None)
    unhook = _hook_steps(steps, tracer)
    try:
        deadline = time.perf_counter() + seconds
        samples = W.detection_set(W.TRAIN_SET_SIZE, seed)
        while (len(digests) < MIN_REPETITIONS or len(steps) < min_steps
               or time.perf_counter() < deadline):
            weights = _fresh_weights(seed)
            t0 = time.perf_counter()
            try:
                TR.train(weights, samples, config)
                diverged = False
            except DivergedTrainingError:
                diverged = True
            train_s += time.perf_counter() - t0
            digest = None if diverged else W.weights_digest(weights)
            first = digests[0] if digests else digest
            attempted += steps_per_rep
            failed += steps_per_rep * (digest is None or digest != first)
            digests.append(digest)
    finally:
        unhook()
        restore()
    return {
        "steps": steps, "train_s": train_s, "attempted": attempted, "failed": failed,
        "samples": len(digests) * W.TRAIN_EPOCHS * W.TRAIN_SET_SIZE, "digests": digests,
    }


def run(seed, seconds, trace):
    """(metrics, attempted, failed, info) for one run of train-64."""
    if trace:
        return run_traced(seed, seconds)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        W.detection_set(W.TRAIN_SET_SIZE, seed)
        _fresh_weights(seed)
        setups.append(time.perf_counter() - t0)
    plain = phase(seed, seconds)
    p, tail = stats.tail(plain["steps"], W.TAIL_CAP["train-64"])
    metrics = {
        "setup_s": stats.median(setups),
        "latency_p50_ms": stats.median(plain["steps"]) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "throughput_per_s": plain["samples"] / plain["train_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "repetitions": len(plain["digests"]), "weights_digest": plain["digests"][0],
        "tail_percentile": p, "latency_samples": len(plain["steps"]),
    }
    return metrics, plain["attempted"], plain["failed"], info


def run_traced(seed, seconds):
    """Half the time untraced, half traced; the difference is the tracing overhead."""
    plain = phase(seed, seconds / 2, min_steps=0)
    tracer = SP.Tracer()
    traced = phase(seed, seconds / 2, tracer, min_steps=0)
    names, spans = tracer.names, tracer.spans
    n = len(traced["steps"])
    selfs = SP.self_times(spans)
    metrics = SP.layer_metrics(SP.layer_totals(names, spans, selfs), n)
    step_roots = SP.roots_named(names, spans, (SP.STEP_ROOT,))
    accounted_s = SP.accounted_seconds(SP.layer_totals(names, spans, selfs, set(step_roots))) / n
    p50_plain = stats.median(plain["steps"])
    p50_traced = stats.median(traced["steps"])
    metrics.update({
        "service.http.overhead_ms": 0.0,
        "trace.overhead_ms": (p50_traced - p50_plain) * 1e3,
        "trace.latency_p50_ms": p50_traced * 1e3,
        "trace.accounted_ms": accounted_s * 1e3,
    })
    digest = plain["digests"][0]
    info = {
        "repetitions": len(plain["digests"]) + len(traced["digests"]),
        "weights_digest": digest,
        **SP.accounting(metrics["trace.accounted_ms"], traced["steps"], p50_plain),
    }
    # tracing must not change what training computes
    failed = plain["failed"] + traced["failed"]
    failed += traced["attempted"] * (traced["digests"][0] != digest)
    return metrics, plain["attempted"] + traced["attempted"], failed, info

"""Self-time arithmetic and span bookkeeping."""

import json
from pathlib import Path

import pytest

import run
import spans as SP


def span(sid, name, t0, t1, parent=0, root=None):
    return (sid, name, t0, t1, parent, root if root is not None else (sid if not parent else 1), 0.0)


def test_self_time_subtracts_children_on_a_synthetic_tree():
    tree = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 4.0, parent=1),
        span(3, 1, 5.0, 9.0, parent=1),
        span(4, 2, 6.0, 7.0, parent=3),
    ]
    assert SP.self_times(tree) == pytest.approx({1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0})


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 2.0, 5.0, parent=1),
        span(3, 1, 4.0, 6.0, parent=1),  # overlaps 2 by one unit
        span(4, 1, 9.0, 12.0, parent=1),  # runs past its parent's end
    ]
    assert SP.self_times(tree)[1] == pytest.approx(10.0 - 4.0 - 1.0)


def test_self_times_of_a_tree_add_up_to_its_root():
    tree = [
        span(1, 0, 0.0, 8.0),
        span(2, 1, 0.5, 3.0, parent=1),
        span(3, 2, 1.0, 2.0, parent=2),
        span(4, 1, 3.0, 7.5, parent=1),
        span(5, 0, 20.0, 21.0),  # another root, outside the kept set
    ]
    names = ["root", "a", "b"]
    totals = SP.layer_totals(names, tree, SP.self_times(tree), roots={1})
    assert SP.accounted_seconds(totals) == pytest.approx(8.0)
    assert totals["a"][0] == 2 and totals["root"][0] == 1


def test_tracer_records_nesting_roots_and_amounts():
    tracer = SP.Tracer()

    def inner(blob):
        return blob * 2

    inner_t = tracer.wrap("data.load_pnm", inner, "bytes_in")

    def outer():
        return inner_t(b"abc") + inner_t(b"de")

    outer_t = tracer.wrap("outer", outer)
    assert outer_t() == b"abcabcdede"
    assert outer_t.__name__ == "outer"
    by_name = {}
    for sid, nid, t0, t1, parent, root, amount in tracer.spans:
        by_name.setdefault(tracer.names[nid], []).append((sid, parent, root, amount))
    (outer_sid, outer_parent, outer_root, _), = by_name["outer"]
    assert outer_parent == 0 and outer_root == outer_sid
    assert [(p, r, a) for _, p, r, a in by_name["data.load_pnm"]] == [
        (outer_sid, outer_sid, 3.0), (outer_sid, outer_sid, 2.0)]


def test_tracer_closes_the_span_of_a_call_that_raises():
    tracer = SP.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert len(tracer.spans) == 1 and tracer._stack() == []


def test_instrument_wraps_every_layer_and_undo_restores_it():
    from swinscan import model, service, tensor

    before = (tensor.matmul, model.forward_batch, service.PredictionService.run,
              tensor.Tape.record)
    undo = SP.instrument(SP.Tracer())
    try:
        assert tensor.matmul is not before[0]
        assert service.PredictionService.run is not before[2]
    finally:
        undo()
    assert (tensor.matmul, model.forward_batch, service.PredictionService.run,
            tensor.Tape.record) == before


def test_layer_metrics_divide_by_operations():
    totals = {"tensor.matmul": [10, 0.004, 3.0], "tensor.gelu.backward": [2, 0.002, 0.0]}
    values = SP.layer_metrics(totals, 2)
    assert values["tensor.matmul.calls"] == 5
    assert values["tensor.matmul.self_ms"] == pytest.approx(2.0)
    assert values["tensor.matmul.mb"] == pytest.approx(1.5)
    assert values["tensor.gelu.backward.self_ms"] == pytest.approx(1.0)
    assert values["segment.connected_components.px"] == 0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert per_layer == dict(SP.per_layer_metrics())
    assert end_to_end == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

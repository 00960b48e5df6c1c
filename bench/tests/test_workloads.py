"""Workload generation is a function of the seed alone."""

import itertools

import numpy as np

import workloads as W


def shape_of(pool):
    return [(r.route, r.kind, r.fmt, r.size, r.task) for r in pool]


def test_request_pools_repeat_for_a_seed_and_change_with_it():
    for make in (W.serve_pool, W.report_pool):
        a, b, c = make(3), make(3), make(4)
        assert [r.body for r in a] == [r.body for r in b]
        assert all(x.body != y.body for x, y in zip(a, c))
        assert shape_of(a) == shape_of(c)  # composition is fixed per workload


def test_serve_pool_mix():
    pool = W.serve_pool(0)
    assert len(pool) == 48
    assert sum(r.kind == "disk" for r in pool) == 24
    assert sum(r.fmt in ("P2", "P3") for r in pool) == 6  # one in eight
    assert {r.route for r in pool} == {W.ROUTE_PREDICT}


def test_report_pool_mix():
    pool = W.report_pool(0)
    assert sum(r.route == W.ROUTE_PDF for r in pool) == len(pool) // 2
    assert {r.fmt for r in pool} == {"P5", "P6"}
    assert any(h != w for h, w in (r.size for r in pool))
    assert all(256 <= min(r.size) and max(r.size) <= 512 for r in pool)


def test_request_order_repeats_for_a_seed_and_visits_the_whole_pool():
    a = list(itertools.islice(W.request_order(8, 5, 0), 24))
    assert a == list(itertools.islice(W.request_order(8, 5, 0), 24))
    assert a != list(itertools.islice(W.request_order(8, 6, 0), 24))
    assert a != list(itertools.islice(W.request_order(8, 5, 1), 24))
    assert sorted(a[:8]) == list(range(8))


def test_training_sets_repeat_for_a_seed_and_change_with_it():
    a, b, c = W.detection_set(8, 1), W.detection_set(8, 1), W.detection_set(8, 2)
    assert all(np.array_equal(x.image, y.image) for x, y in zip(a, b))
    assert not any(np.array_equal(x.image, y.image) for x, y in zip(a, c))
    assert [s.label for s in a] == [1] * 4 + [0] * 4

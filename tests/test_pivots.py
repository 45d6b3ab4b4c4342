"""Good/bad pivot machinery: augmented graphs, closures, the processing loop."""

import random

import pytest

from hamlab import (
    Graph,
    SpannedGraph,
    augment,
    classify_pivots,
    complete,
    gnp,
    path_graph,
    pivot_endpoint_set,
    process_bad_vertices,
)
from hamlab.pivots import ext_of


def spanned_path(n):
    return SpannedGraph(path_graph(n), tuple(range(n)))


def spanned_complete(n):
    return SpannedGraph(complete(n), tuple(range(n)))


def test_augment_examples():
    h = spanned_path(3)
    aug = augment(h, 1)  # the paper's i=2 on (v1, v2, v3)
    assert aug.added_vertex == 3
    assert aug.rotated_start == (0, 1, 3, 2)
    assert aug.rotated_start[0] == 0 and aug.rotated_start[-1] == 2

    h5 = spanned_path(5)
    aug = augment(h5, 3)  # i = l-1
    assert aug.rotated_start == (0, 1, 2, 3, 5, 4)
    with pytest.raises(ValueError):
        augment(h5, 0)
    with pytest.raises(ValueError):
        augment(h5, 4)


def test_pivot_endpoint_set_k4():
    h = spanned_complete(4)
    res = pivot_endpoint_set(h, 1)
    assert res.endpoints == {1, 2, 3}
    assert res.complete


def test_pivot_endpoint_set_chordless():
    h = spanned_path(8)
    for i in range(1, 7):
        res = pivot_endpoint_set(h, i)
        assert res.endpoints == {h.spine[i + 1]}  # only the initial rotation
        assert res.complete


def test_w_never_an_endpoint_member():
    rng = random.Random(3)
    for i in range(20):
        n = rng.randint(4, 8)
        g = gnp(n, 0.6, seed=f"wset:{i}")
        spine = _some_spanning_path(g)
        if spine is None:
            continue
        h = SpannedGraph(g, spine)
        res = pivot_endpoint_set(h, rng.randint(1, n - 2))
        assert g.n not in res.endpoints
        assert h.spine[0] not in res.endpoints


def _some_spanning_path(g):
    from hamlab import hamiltonian_oracle

    try:
        ok, cyc = hamiltonian_oracle(g)
    except ValueError:
        return None
    if not ok:
        return None
    return cyc.vertices


def test_classify_complete_graph_all_good():
    h = spanned_complete(10)
    audit = classify_pivots(h)
    assert audit.bad == [] and audit.cut == []
    assert set(audit.good) == set(range(1, 9))
    # at K_100's threshold 100/43, budget 1 stops every closure below it: each
    # pivot is bad only because the budget ran out
    audit = classify_pivots(spanned_complete(100), budget=1)
    assert audit.good == [] and audit.cut == audit.bad == list(range(1, 99))


def test_classify_chordless_path_all_bad():
    h = spanned_path(50)
    audit = classify_pivots(h)
    assert audit.good == []
    assert len(audit.bad) == 48 and audit.cut == []  # each closure completed
    assert all(size == 1 for size in audit.sizes.values())


def test_classify_zero_threshold():
    h = spanned_path(10)
    audit = classify_pivots(h, threshold_ratio=0.0)
    assert audit.bad == []


def test_classify_rejects_a_budget_below_one():
    # a closure with no state budget decides nothing; every pivot read as good
    h = spanned_path(50)
    for budget in (0, -1):
        with pytest.raises(ValueError, match="need budget >= 1"):
            classify_pivots(h, budget=budget)
    assert len(classify_pivots(h, budget=1).bad) == 48


def test_process_empty_bad_set():
    h = spanned_complete(8)
    audit = classify_pivots(h)
    cert = process_bad_vertices(h, audit)
    assert cert.u == set() and cert.x == set()


def test_process_chordless_certificate():
    h = spanned_path(50)
    audit = classify_pivots(h)
    cert = process_bad_vertices(h, audit)
    spine_pos = {v: i for i, v in enumerate(h.spine)}
    assert cert.u <= cert.x
    assert 7 * len(cert.u) >= len(cert.x)
    nbhd = set()
    for v in cert.u:
        nbhd |= h.graph.neighbors(v)
    assert nbhd <= ext_of(spine_pos, cert.x, h.spine)
    for tr in cert.traces:
        if tr.skipped:
            assert h.spine[spine_pos[tr.vertex] + 1] in cert.x
        else:
            for t, layer in enumerate(tr.w_layers):
                assert len(layer) == 2 ** t


def test_process_traces_on_random_spanning_paths():
    rng = random.Random(8)
    built = 0
    for i in range(60):
        n = rng.randint(10, 16)
        g = gnp(n, rng.uniform(0.25, 0.45), seed=f"proc:{i}")
        spine = _some_spanning_path(g)
        if spine is None:
            continue
        h = SpannedGraph(g, spine)
        audit = classify_pivots(h)
        cert = process_bad_vertices(h, audit)
        built += 1
        spine_pos = {v: i for i, v in enumerate(h.spine)}
        for tr in cert.traces:
            if tr.skipped:
                continue
            for t, layer in enumerate(tr.w_layers):
                assert len(layer) == 2 ** t
            # every W_t member is a reachable endpoint of the pivot's closure
            full = pivot_endpoint_set(h, spine_pos[tr.vertex]).endpoints
            for layer in tr.w_layers:
                assert set(layer) <= full
    assert built >= 10


def test_process_genuine_doubling():
    # a designated pivot whose successor feeds growing hub neighborhoods:
    # the trace must double exactly (1, 2, 4) and fold up per the update rule
    from hamlab import edge_key
    from hamlab.pivots import PivotAudit

    n = 200
    edges = {(v, v + 1) for v in range(n - 1)}
    for hub in (50, 60, 70, 80, 90, 100):
        edges.add(edge_key(6, hub))
    for hub in (120, 125, 130, 135, 140, 145):
        edges.add(edge_key(49, hub))
    for hub in (150, 155, 160, 165, 170, 175):
        edges.add(edge_key(59, hub))
    g = Graph(n, edges)
    h = SpannedGraph(g, tuple(range(n)))
    audit = PivotAudit(h.spine, 999.0, {5: 1}, [], [5], True)
    cert = process_bad_vertices(h, audit)
    (tr,) = cert.traces
    assert [len(w) for w in tr.w_layers] == [1, 2, 4]
    assert tr.w_layers[0] == [6]
    assert cert.u == set(tr.w_layers[-1])
    assert cert.x >= {6} | cert.u
    # every W_t member is a reachable rotation endpoint
    full = pivot_endpoint_set(h, 5, budget=500000).endpoints
    for layer in tr.w_layers:
        assert set(layer) <= full


def test_bad_vertex_bound_when_premise_holds():
    # the only desk-scale premise-verified instances force R to be empty
    for l in range(5, 16):
        h = spanned_complete(l)
        audit = classify_pivots(h)
        assert len(audit.bad) <= 7 * l / 43
        assert audit.bad == []

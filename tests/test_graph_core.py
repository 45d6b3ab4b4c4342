"""Graph substrate: types, generators, validation, edge-list round trips."""

import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import hamlab
from hamlab import (
    Graph,
    GraphFormatError,
    Path,
    Verdict,
    WorkBudgetExceeded,
    bfs_distances,
    clique_plus_isolated,
    complete,
    complete_bipartite,
    cycle_graph,
    generate,
    gnp,
    is_connected,
    load_edge_list,
    neighborhood,
    path_graph,
    petersen,
    random_regular,
    save_edge_list,
    validate_cycle,
    validate_path,
)


def test_graph_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


def _reference_graph(n, edges):
    """The constructor `Graph` replaced: per-edge checks and set adds, then a
    frozenset copy.  Returns the neighbour lists and edge list it iterates."""
    adj = [set() for _ in range(n)]
    canon = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in edge ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in canon:
            raise ValueError(f"duplicate edge {e}")
        canon.add(e)
        adj[u].add(v)
        adj[v].add(u)
    return [list(frozenset(s)) for s in adj], list(frozenset(canon))


def _reference_gnp_edges(n, p, seed):
    rng = random.Random(f"gnp:{seed}")
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def test_iteration_order_matches_reference_constructor(monkeypatch):
    # the seeded searches draw from neighbour sets and walk `edges`, so the
    # order of both is part of the behaviour, not only their contents
    inputs = []
    init = Graph.__init__

    def recording_init(self, n, edges=()):
        listed = list(edges)
        inputs.append((n, listed))
        # an iterator reaches the constructor as an iterator
        init(self, n, iter(listed) if iter(edges) is edges else listed)

    monkeypatch.setattr(Graph, "__init__", recording_init)
    rng = random.Random(2024)
    builds = []
    for seed in range(4):
        builds.append(lambda seed=seed: gnp(150, 0.06, seed=seed))
        builds.append(lambda seed=seed: gnp(90, 0.5, seed=seed))
        builds.append(lambda seed=seed: random_regular(120, 3, seed=seed))
        builds.append(lambda seed=seed: random_regular(40, 4, seed=seed))
    builds += [lambda: complete(13), lambda: complete(40), petersen]
    builds += [lambda n=n: cycle_graph(n) for n in (3, 4, 17, 60, 200)]
    base = gnp(200, 0.1, seed=5)
    # input off the canonical-tuple fast path: reversed and mixed orientation,
    # list pairs and a generator, each in a shuffled edge order
    mix = random.Random(7)
    shuffled = sorted(base.edges)
    mix.shuffle(shuffled)
    flips = [mix.random() < 0.5 for _ in shuffled]
    builds.append(lambda: Graph(base.n, [(v, u) for u, v in shuffled]))
    builds.append(
        lambda: Graph(base.n, [(v, u) if f else (u, v) for (u, v), f in zip(shuffled, flips)])
    )
    builds.append(lambda: Graph(base.n, [[u, v] for u, v in shuffled]))
    builds.append(lambda: Graph(base.n, ((u, v) for u, v in shuffled)))
    for u in (199, 150, 73):
        v = min(w for w in range(u) if not base.has_edge(u, w))
        builds.append(lambda u=u, v=v: base.with_edge(u, v))
    for _ in range(4):
        keep = rng.sample(range(base.n), rng.randint(30, 150))
        builds.append(lambda keep=keep: base.induced(keep)[0])
        u, v = rng.sample(range(base.n), 2)
        builds.append(lambda u=u, v=v: base.with_edge(u, v))
        lines = [f"{a} {b}" for a, b in sorted(base.edges)]
        rng.shuffle(lines)
        text = "\n".join([f"{base.n} {len(lines)}"] + lines)
        builds.append(lambda text=text: load_edge_list(text))
    for build in builds:
        g = build()
        n, edges = inputs[-1]
        adj, edge_list = _reference_graph(n, edges)
        assert [list(g.neighbors(v)) for v in range(g.n)] == adj
        assert list(g.edges) == edge_list
    for seed in range(4):
        inputs.clear()
        gnp(150, 0.06, seed=seed)
        assert inputs == [(150, _reference_gnp_edges(150, 0.06, seed))]


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(0, 0)], "self-loop at vertex 0"),
        (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
        (2, [(0, 5)], "vertex out of range in edge (0, 5)"),
        (3, [(5, 5)], "vertex out of range in edge (5, 5)"),
        (4, [(0, 1), (2, 1), (1, 0), (0, 7)], "duplicate edge (0, 1)"),
        (4, [(0, 1), (1, 2), (-1, 2), (2, 1)], "vertex out of range in edge (-1, 2)"),
        (4, [(2, 3), (3, 2), (1, 1)], "duplicate edge (2, 3)"),
        (4, [(2, 3), (1, 1), (3, 2)], "self-loop at vertex 1"),
        (4, [(0, 1), (1, 2), (2, 3), (3, 1), (2, 1)], "duplicate edge (1, 2)"),
        (4, [(0, 1), (1, 2), (0, 3), (1, 2)], "duplicate edge (1, 2)"),
        (4, [(1, 0), (2, 3), (0, 2), (3, 2)], "duplicate edge (2, 3)"),
        (4, [(0, 1), (3, 2), (1, 2), (0, 9)], "vertex out of range in edge (0, 9)"),
        (4, [[0, 1], [1, 2], [2, 1]], "duplicate edge (1, 2)"),
        (4, [[0, 1], [3, 4]], "vertex out of range in edge (3, 4)"),
        (4, [(0, 1), (0.5, 2)], "list indices must be integers or slices, not float"),
    ],
)
def test_graph_reports_first_bad_edge_in_input_order(n, edges, message):
    with pytest.raises((ValueError, TypeError)) as ref:
        _reference_graph(n, edges)
    assert str(ref.value) == message
    with pytest.raises(ref.type) as exc:
        Graph(n, edges)
    assert type(exc.value) is ref.type and str(exc.value) == message


def test_canonical_tuple_edges_are_stored_as_given():
    edges = [(u, u + 1) for u in range(9)]
    g = Graph(10, edges)
    assert {id(e) for e in g.edges} == {id(e) for e in edges}
    # with_edge passes the base's tuples and the new edge in (min, max) form
    h = g.with_edge(7, 2)
    assert (2, 7) in h.edges
    assert {id(e) for e in g.edges} <= {id(e) for e in h.edges}


def test_with_edge_and_induced_reject_out_of_range_vertices():
    k5 = complete(5)
    for u, v in ((-1, 2), (2, -1), (0, 5)):
        bad = u if not 0 <= u < 5 else v
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range$"):
            k5.with_edge(u, v)
    with pytest.raises(ValueError, match="^vertex -1 out of range$"):
        k5.induced([-1, 0, 7])
    with pytest.raises(ValueError, match="^vertex 7 out of range$"):
        k5.induced([0, 7])
    sub, labels = k5.induced([4, 0])
    assert labels == [0, 4] and sub.edges == {(0, 1)}
    assert k5.induced([]) == (Graph(0), [])


def test_adjacency_symmetric_and_degree_sum():
    g = gnp(40, 0.2, seed=3)
    for u in range(g.n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)
    assert sum(g.degree(v) for v in range(g.n)) == 2 * len(g.edges)


def test_neighborhood_examples():
    assert neighborhood(complete(3), {0}) == {1, 2}
    assert neighborhood(path_graph(3), {0, 2}) == {1}
    assert neighborhood(cycle_graph(6), {0, 1}) == {5, 2}


def test_neighborhood_disjoint_and_empty():
    g = gnp(30, 0.15, seed=9)
    rng = random.Random(4)
    for _ in range(50):
        s = set(rng.sample(range(g.n), rng.randint(0, 8)))
        nb = neighborhood(g, s)
        assert nb.isdisjoint(s)
    assert neighborhood(g, set()) == set()


def test_neighborhood_out_of_range():
    with pytest.raises(ValueError):
        neighborhood(complete(3), {7})


def test_is_connected_examples():
    assert is_connected(complete(4))
    assert not is_connected(clique_plus_isolated(5, 1))
    assert is_connected(Graph(1))


def test_is_connected_matches_the_distance_search():
    rng = random.Random("connected")
    seen = set()
    for i in range(300):
        n = i if i < 3 else rng.randint(3, 30)
        g = gnp(n, rng.uniform(0.0, 0.3), seed=f"conn:{i}")
        if i % 3 == 0 and n >= 2:  # two copies side by side are never connected
            g = Graph(2 * n, list(g.edges) + [(u + n, v + n) for u, v in g.edges])
        expected = g.n > 0 and min(bfs_distances(g, 0)) >= 0
        assert is_connected(g) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_dense_generators_stop_at_the_work_budget(monkeypatch):
    # 45 = 10 * 9 / 2: the pairs of 10 vertices fit, those of 11 do not
    monkeypatch.setenv("HAMLAB_WORK_BUDGET", "45")
    assert len(complete(10).edges) == 45
    assert gnp(10, 1.0).edges == complete(10).edges
    assert len(complete_bipartite(5, 9).edges) == 45
    assert clique_plus_isolated(10, 100).n == 110
    for build, what in (
        (lambda: complete(11), "complete(11): 55 edges"),
        (lambda: gnp(11, 0.0), "gnp(11, 0.0): 55 edge draws"),
        (lambda: complete_bipartite(5, 10), "complete_bipartite(5, 10): 50 edges"),
        (lambda: clique_plus_isolated(11, 0), "clique_plus_isolated(11, 0): 55 edges"),
    ):
        with pytest.raises(WorkBudgetExceeded, match=re.escape(what)):
            build()


def test_generator_shapes():
    assert len(complete(4).edges) == 6
    g = clique_plus_isolated(5, 1)
    assert g.degree(5) == 0 and g.n == 6
    assert len(complete_bipartite(3, 4).edges) == 12
    assert len(cycle_graph(5).edges) == 5
    assert len(path_graph(5).edges) == 4
    p = petersen()
    assert p.n == 10 and all(p.degree(v) == 3 for v in range(10))


def test_generator_errors():
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        gnp(10, 1.5)
    with pytest.raises(ValueError):
        random_regular(5, 3)  # n*d odd


def test_generators_reject_negative_part_sizes():
    for build in (
        lambda: complete_bipartite(-1, 3),
        lambda: complete_bipartite(3, -1),
        lambda: clique_plus_isolated(-2, 5),
        lambda: clique_plus_isolated(5, -2),
    ):
        with pytest.raises(ValueError, match="part sizes must be non-negative"):
            build()
    assert complete_bipartite(0, 3).n == 3  # an empty part is still a graph


def test_gnp_determinism():
    a = gnp(100, 0.05, seed=7)
    b = gnp(100, 0.05, seed=7)
    assert a.edges == b.edges
    c = gnp(100, 0.05, seed=8)
    assert a.edges != c.edges


def test_random_regular_degrees():
    for d, n in ((3, 20), (4, 15), (6, 24)):
        g = random_regular(n, d, seed=11)
        assert all(g.degree(v) == d for v in range(n))


def test_random_regular_stops_at_the_work_budget(monkeypatch):
    # at d = 9 almost every pairing holds a loop or a multi-edge, so the
    # rejection loop must give up when its stub draws reach the budget; a
    # subprocess, so that a loop without a bound fails the test by its
    # timeout instead of hanging the suite
    monkeypatch.setenv("HAMLAB_WORK_BUDGET", "100000")
    code = (
        "from hamlab import random_regular\n"
        "from hamlab.conditions import WorkBudgetExceeded\n"
        "try:\n"
        "    random_regular(40, 9, seed=0)\n"
        "except WorkBudgetExceeded as exc:\n"
        "    print(exc)\n"
    )
    src = str(pathlib.Path(hamlab.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "random_regular(40, 9)" in proc.stdout
    assert "277 attempts" in proc.stdout


def test_generate_dispatch():
    g = generate("gnp", seed=7, n=50, p=0.1)
    assert g.edges == gnp(50, 0.1, seed=7).edges
    with pytest.raises(ValueError):
        generate("mystery")


def test_edge_list_examples():
    g = load_edge_list("3 2\n0 1\n1 2")
    assert g.edges == path_graph(3).edges
    # a bad edge is named in Graph's words
    with pytest.raises(GraphFormatError, match="^self-loop at vertex 0$"):
        load_edge_list("2 1\n0 0")
    with pytest.raises(GraphFormatError):
        load_edge_list("abc")
    with pytest.raises(GraphFormatError, match=r"^duplicate edge \(0, 1\)$"):
        load_edge_list("3 2\n0 1\n0 1")
    with pytest.raises(GraphFormatError, match=r"^vertex out of range in edge \(0, 5\)$"):
        load_edge_list("3 1\n0 5")
    with pytest.raises(GraphFormatError):
        load_edge_list("3 2\n0 1")


def test_edge_list_header_counts_against_the_work_budget(monkeypatch):
    text = save_edge_list(complete(10))
    monkeypatch.setenv("HAMLAB_WORK_BUDGET", "45")
    assert load_edge_list(text).edges == complete(10).edges
    monkeypatch.setenv("HAMLAB_WORK_BUDGET", "44")
    with pytest.raises(WorkBudgetExceeded, match="10 45: 45 edges exceed"):
        load_edge_list(text)
    # the header alone is refused, before its edge lines are counted or read
    monkeypatch.delenv("HAMLAB_WORK_BUDGET")
    with pytest.raises(WorkBudgetExceeded, match="1000000000 edges"):
        load_edge_list("10 1000000000\n0 1\n")


def test_edge_list_round_trip_corpus():
    # spec invariant: identity on canonical form, 1000 random graphs, n <= 200
    rng = random.Random(12345)
    for i in range(1000):
        n = rng.randint(1, 200)
        p = rng.uniform(0.0, 0.1)
        g = gnp(n, p, seed=f"roundtrip:{i}")
        text = save_edge_list(g)
        again = load_edge_list(text)
        assert again.n == g.n and again.edges == g.edges
        assert save_edge_list(again) == text


def test_path_type():
    p = Path((3, 1, 2))
    assert p.first == 3 and p.last == 2 and len(p) == 3
    assert p.pos[1] == 1
    assert p.reversed().vertices == (2, 1, 3)
    with pytest.raises(ValueError):
        Path((1, 2, 1))


def test_validate_path():
    g = path_graph(4)
    assert validate_path(g, (0, 1, 2, 3))
    assert not validate_path(g, (0, 2))
    assert not validate_path(g, (0, 1, 0))
    assert validate_path(g, (1, 2, 3), endpoints=(3, 1))
    assert not validate_path(g, (1, 2, 3), endpoints=(0, 3))


def test_validate_cycle_examples():
    c5 = cycle_graph(5)
    assert validate_cycle(c5, (0, 1, 2, 3, 4), hamilton=True)
    k4 = complete(4)
    v = validate_cycle(k4, (0, 1, 0, 2))
    assert not v and "repeated" in v.reason
    v = validate_cycle(k4, (0, 1, 2), hamilton=True)
    assert not v and "3" in v.reason
    assert not validate_cycle(cycle_graph(6), (0, 1, 2))  # chord missing
    assert not validate_cycle(c5, (0, 1))


def reference_validate_path(g, vertices, endpoints=None):
    """The per-vertex and per-edge loops `validate_path` ran before its
    min/max and one-pass membership checks."""
    seq = tuple(vertices)
    if not seq:
        return Verdict(False, "empty")
    if len(set(seq)) != len(seq):
        return Verdict(False, "repeated vertex")
    for v in seq:
        if not (0 <= v < g.n):
            return Verdict(False, f"vertex {v} out of range")
    for a, b in zip(seq, seq[1:]):
        if not g.has_edge(a, b):
            return Verdict(False, f"missing edge ({a}, {b})")
    if endpoints is not None and {seq[0], seq[-1]} != set(endpoints):
        return Verdict(False, "wrong endpoints")
    return Verdict(True)


def reference_validate_cycle(g, vertices, hamilton=False):
    """The loops `validate_cycle` ran before, as above."""
    seq = tuple(vertices)
    if len(seq) < 3:
        return Verdict(False, "fewer than 3 vertices")
    if len(set(seq)) != len(seq):
        return Verdict(False, "repeated vertex")
    for v in seq:
        if not (0 <= v < g.n):
            return Verdict(False, f"vertex {v} out of range")
    for a, b in zip(seq, seq[1:] + seq[:1]):
        if not g.has_edge(a, b):
            return Verdict(False, f"missing edge ({a}, {b})")
    if hamilton and len(seq) != g.n:
        return Verdict(False, f"length {len(seq)} != {g.n}")
    return Verdict(True)


def _validation_inputs(rng):
    """Sequences over gnp(12, 0.5) and C_12: cycles and paths of the graph,
    too short ones, repeats, out-of-range ids at several places and random
    walks whose first missing edge falls anywhere."""
    for g in (gnp(12, 0.5, seed=3), cycle_graph(12)):
        ring = tuple(range(12))
        yield g, ring
        yield g, ring[:2]
        yield g, ring[:1]
        yield g, ()
        yield g, (0, 1, 0)
        for bad in (-1, 12, 40):
            for at in (0, 5, 11):
                yield g, ring[:at] + (bad,) + ring[at + 1 :]
        yield g, (12, 3, 13)  # two out-of-range ids: the first is named
        for _ in range(60):
            seq = rng.sample(range(12), rng.randint(1, 12))
            yield g, tuple(seq)
            # a walk of g that is a path or a cycle up to its last step
            walk = [rng.randrange(12)]
            while len(walk) < 12:
                options = [u for u in g.neighbors(walk[-1]) if u not in walk]
                if not options:
                    break
                walk.append(rng.choice(options))
            yield g, tuple(walk)


def test_validation_matches_the_reference_loops():
    rng = random.Random(5)
    verdicts = set()
    for g, seq in _validation_inputs(rng):
        for hamilton in (False, True):
            got = validate_cycle(g, seq, hamilton=hamilton)
            assert got == reference_validate_cycle(g, seq, hamilton=hamilton), seq
            verdicts.add(got.reason.split(" ")[0] if got.reason else "ok")
        ends = (seq[0], seq[-1]) if seq else None
        for endpoints in (None, ends, (0, 11)):
            got = validate_path(g, seq, endpoints)
            assert got == reference_validate_path(g, seq, endpoints), seq
            verdicts.add(got.reason.split(" ")[0] if got.reason else "ok")
    # every outcome was reached, so both the fast checks and the fallback ran
    assert verdicts == {"ok", "empty", "fewer", "repeated", "vertex", "missing", "wrong", "length"}

"""Application procedures against brute-force ground truth."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamlab.graph
from hamlab import (
    FConnSpec,
    Graph,
    clique_plus_isolated,
    complete,
    complete_bipartite,
    cycle_graph,
    cycle_of_length_k,
    edge_key,
    fconnected_pipeline,
    find_hamilton_cycle,
    gnp,
    hamilton_connected_oracle,
    hamilton_path_between,
    hamilton_path_oracle,
    hamiltonian_oracle,
    neighborhood,
    path_graph,
    petersen,
    strip_nonexpanding,
    validate_cycle,
    validate_path,
)
from hamlab import applications
from hamlab.applications import ORACLE_CAP


def permutation_hamiltonian(g):
    """Factorial-time ground truth: any cyclic order with all edges present."""
    if g.n < 3:
        return False
    verts = list(range(1, g.n))
    for perm in itertools.permutations(verts):
        seq = (0,) + perm
        if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1])):
            return True
    return False


def test_oracle_examples():
    assert hamiltonian_oracle(complete(4))[0]
    assert not hamiltonian_oracle(complete_bipartite(2, 3))[0]
    assert not hamiltonian_oracle(petersen())[0]
    ok, cyc = hamiltonian_oracle(cycle_graph(9))
    assert ok and validate_cycle(cycle_graph(9), cyc.vertices, hamilton=True)
    with pytest.raises(ValueError):
        hamiltonian_oracle(complete(21))


def test_oracle_agrees_with_permutation_search():
    rng = random.Random(314)
    for i in range(300):
        n = rng.randint(3, 8)
        g = gnp(n, rng.uniform(0.1, 0.9), seed=f"perm:{i}")
        got, cyc = hamiltonian_oracle(g)
        assert got == permutation_hamiltonian(g)
        if got:
            assert validate_cycle(g, cyc.vertices, hamilton=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(3, 12),
    st.sampled_from([0.15, 0.3, 0.45, 0.6, 0.8]),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
)
def test_heuristic_and_proof_faithful_searches_agree_with_the_oracle(n, p, graph_seed, seed):
    """Each mode returns only Hamilton cycles, so never one on a graph the
    subset-DP oracle rejects."""
    g = gnp(n, p, seed=f"search-oracle:{graph_seed}")
    truth, _ = hamiltonian_oracle(g)
    for mode in ("heuristic", "proof_faithful"):
        res = find_hamilton_cycle(g, mode=mode, budget=500, seed=seed, max_restarts=3)
        if res.found:
            assert truth, f"{mode} claimed a cycle on a non-Hamiltonian graph"
            assert validate_cycle(g, res.cycle.vertices, hamilton=True)
        else:
            assert res.stage


def test_hamilton_path_oracle():
    g = path_graph(5)
    ok, p = hamilton_path_oracle(g, 0, 4)
    assert ok and p.vertices == (0, 1, 2, 3, 4)
    assert not hamilton_path_oracle(g, 0, 2)[0]
    assert hamilton_connected_oracle(complete(6))
    assert not hamilton_connected_oracle(cycle_graph(6))


# Witnesses of the three exact oracles, recorded before the subset DP moved
# from a 2^n table to one bit column per end vertex: the cycle, the u-v paths
# for (0, n - 1) and (n // 2, 1) (None when there is none) and the
# Hamilton-connectivity verdict, per seeded gnp graph.
EXPECTED_ORACLE_WITNESSES = {
    (12, 0.5, "oracle-pin:1"): (
        (0, 11, 10, 7, 5, 9, 8, 1, 6, 4, 2, 3),
        [
            (0, 3, 2, 10, 7, 4, 8, 9, 6, 5, 1, 11),
            (6, 9, 8, 10, 11, 0, 3, 2, 4, 7, 5, 1),
        ],
        True,
    ),
    (13, 0.2, "oracle-pin:neg:13:51"): (
        None,
        [None, None],
        False,
    ),
    (14, 0.35, "oracle-pin:3"): (
        (0, 12, 7, 13, 9, 10, 5, 2, 3, 11, 8, 6, 4, 1),
        [None, (7, 12, 13, 4, 6, 11, 8, 10, 9, 5, 2, 3, 0, 1)],
        False,
    ),
    (15, 0.3, "oracle-pin:4"): (
        None,
        [None, None],
        False,
    ),
    (15, 0.6, "oracle-pin:5"): (
        (0, 11, 13, 12, 14, 8, 7, 9, 6, 5, 10, 4, 3, 2, 1),
        [
            (0, 8, 7, 11, 9, 6, 13, 12, 5, 10, 4, 3, 2, 1, 14),
            (7, 11, 9, 6, 13, 12, 14, 8, 10, 4, 3, 2, 5, 0, 1),
        ],
        True,
    ),
    (16, 0.2, "oracle-pin:neg:16:3"): (
        None,
        [(0, 13, 6, 10, 14, 1, 3, 11, 4, 9, 5, 12, 2, 8, 7, 15), None],
        False,
    ),
    (17, 0.4, "oracle-pin:7"): (
        (0, 13, 14, 16, 15, 11, 12, 7, 9, 3, 10, 8, 6, 2, 5, 4, 1),
        [
            (0, 11, 3, 10, 7, 9, 15, 6, 8, 5, 12, 14, 2, 13, 1, 4, 16),
            (8, 6, 15, 7, 10, 16, 14, 13, 12, 11, 4, 5, 2, 9, 3, 0, 1),
        ],
        True,
    ),
    (18, 0.22, "oracle-pin:8"): (
        (0, 12, 11, 13, 5, 17, 7, 15, 10, 3, 14, 16, 9, 8, 6, 1, 2, 4),
        [
            (0, 10, 7, 15, 9, 16, 14, 3, 12, 11, 8, 6, 4, 2, 1, 13, 5, 17),
            (9, 16, 14, 3, 15, 7, 17, 5, 13, 12, 11, 8, 6, 10, 0, 4, 2, 1),
        ],
        False,
    ),
    (19, 0.2, "oracle-pin:neg:19:11"): (
        None,
        [None, None],
        False,
    ),
    (20, 0.5, "oracle-pin:9"): (
        (0, 14, 16, 15, 17, 19, 13, 10, 7, 9, 12, 8, 6, 18, 5, 4, 1, 11, 2, 3),
        [
            (0, 18, 15, 17, 14, 16, 12, 9, 13, 7, 10, 6, 8, 3, 2, 11, 5, 4, 1, 19),
            (10, 17, 14, 16, 15, 19, 13, 7, 9, 12, 8, 6, 18, 5, 11, 2, 3, 0, 4, 1),
        ],
        True,
    ),
}


def test_oracle_witness_pins():
    for (n, p, seed), (cycle, paths, connected) in EXPECTED_ORACLE_WITNESSES.items():
        g = gnp(n, p, seed=seed)
        ok, cyc = hamiltonian_oracle(g)
        assert (cyc.vertices if ok else None) == cycle
        got = []
        for u, v in ((0, n - 1), (n // 2, 1)):
            ok, path = hamilton_path_oracle(g, u, v)
            got.append(path.vertices if ok else None)
        assert got == paths
        assert hamilton_connected_oracle(g) == connected


def test_oracles_refuse_graphs_over_the_cap(monkeypatch):
    # the refusal must come before the subset DP builds its 2^n table
    def no_dp(*args):
        pytest.fail("the subset DP ran on a graph over the cap")

    monkeypatch.setattr(applications, "_dp_paths_from", no_dp)
    g = cycle_graph(ORACLE_CAP + 1)
    for call in (
        lambda: hamiltonian_oracle(g),
        lambda: hamilton_path_oracle(g, 0, 1),
        lambda: hamilton_connected_oracle(g),
    ):
        with pytest.raises(ValueError, match=f"oracle capped at n={ORACLE_CAP}"):
            call()


def test_hamilton_path_oracle_checks_its_endpoints():
    g = complete(5)
    for u, v, bad in ((0, 9, 9), (9, 0, 9), (0, -1, -1), (-3, 2, -3)):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            hamilton_path_oracle(g, u, v)
    with pytest.raises(ValueError, match="vertex 2 out of range"):
        hamilton_path_oracle(complete(2), 0, 2)
    assert hamilton_path_oracle(g, 0, 4)[0]


def naive_dp_paths_from(g, start):
    """dp[mask] = set bits of the last vertices of paths from `start` that
    visit exactly `mask`, straight from the definition in O(2^n n^2)."""
    dp = [0] * (1 << g.n)
    dp[1 << start] = 1 << start
    for mask in range(1 << g.n):
        for last in range(g.n):
            if not dp[mask] >> last & 1:
                continue
            for v in range(g.n):
                if not mask >> v & 1 and g.has_edge(last, v):
                    dp[mask | 1 << v] |= 1 << v
    return dp


def test_subset_dp_table_matches_the_definition():
    rng = random.Random(4242)
    for i in range(60):
        n = rng.randint(1, 12)
        g = gnp(n, rng.uniform(0.1, 0.9), seed=f"dp:{i}")
        start = rng.randrange(n)
        cols, _ = applications._dp_paths_from(g, start)
        assert len(cols) == n
        # dp[mask] is the set of ends v whose column holds bit `mask`
        dp = [
            sum(1 << v for v in range(n) if cols[v] >> mask & 1)
            for mask in range(1 << n)
        ]
        assert dp == naive_dp_paths_from(g, start)
        assert all(col >> (1 << n) == 0 for col in cols)
        every_pair = all(
            hamilton_path_oracle(g, u, v)[0]
            for u in range(n)
            for v in range(u + 1, n)
        )
        assert hamilton_connected_oracle(g) == every_pair


def test_hamilton_path_between_examples():
    res = hamilton_path_between(complete(5), 0, 3)
    assert res.found
    assert validate_path(complete(5), res.path.vertices, endpoints=(0, 3))
    res = hamilton_path_between(path_graph(3), 0, 2)
    assert res.found and res.path.vertices in {(0, 1, 2), (2, 1, 0)}
    res = hamilton_path_between(path_graph(3), 0, 1, budget=2000)
    assert not res.found
    with pytest.raises(ValueError):
        hamilton_path_between(complete(4), 2, 2)


def test_hamilton_path_between_protects_the_edge():
    rng = random.Random(23)
    exercised = 0
    for i in range(25):
        n = rng.randint(6, 11)
        g = gnp(n, rng.uniform(0.5, 0.9), seed=f"pp:{i}")
        u, v = rng.sample(range(n), 2)
        truth, _ = hamilton_path_oracle(g, u, v) if g.n <= 20 else (None, None)
        res = hamilton_path_between(g, u, v, seed=i)
        if res.found:
            assert validate_path(g, res.path.vertices, endpoints=(u, v))
            assert edge_key(u, v) not in res.broken_edges
            exercised += 1
        else:
            assert not truth, "finder missed an oracle-positive pair"
    assert exercised >= 10


@pytest.mark.parametrize("mode", ["heuristic", "proof_faithful"])
def test_path_search_matches_the_oracle(mode):
    # a path for every oracle-positive pair and for no negative one
    rng = random.Random("path-recall")
    positives = negatives = 0
    for i in range(40):
        n = rng.randint(10, 14)
        g = gnp(n, rng.uniform(0.2, 0.6), seed=f"path-recall:{i}")
        u, v = rng.sample(range(n), 2)
        truth, _ = hamilton_path_oracle(g, u, v)
        res = hamilton_path_between(g, u, v, mode=mode, budget=4000, seed=i, retries=2)
        assert res.found == truth, (i, u, v, res.stage)
        if truth:
            assert validate_path(g, res.path.vertices, endpoints=(u, v))
            assert (res.path.first, res.path.last) == (u, v)
            assert edge_key(u, v) not in res.broken_edges
            assert all(g.has_edge(a, b) for a, b in res.broken_edges)
        positives += truth
        negatives += not truth
    assert positives >= 15 and negatives >= 5


def test_hamilton_path_between_on_two_vertices():
    # H is the path u-x-v, which has no cycle: the edge itself is the path
    res = hamilton_path_between(complete(2), 1, 0)
    assert res.found and res.path.vertices == (1, 0)
    assert res.stats == {"rotations": 0, "restarts": 0, "families_built": 0}
    res = hamilton_path_between(Graph(2), 0, 1)
    assert not res.found and res.stage == "retries_exhausted"


def test_hamilton_path_between_rejects_negative_retries():
    with pytest.raises(ValueError, match="need retries >= 0"):
        hamilton_path_between(complete(5), 0, 1, retries=-1)
    assert hamilton_path_between(complete(5), 0, 1, retries=0).stage == "retries_exhausted"


def test_protected_searches_check_their_endpoints():
    # -1 must not wrap around to vertex n-1
    g = complete(5)
    for u, v, bad in ((-1, 2, -1), (2, -1, -1), (0, 5, 5)):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            hamilton_path_between(g, u, v)


def test_strip_nonexpanding_checks_its_window():
    g = complete(5)
    for v0, bad in (([0, 7], 7), ([0, -2], -2), ([5], 5)):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            strip_nonexpanding(g, v0, 1)


def test_strip_nonexpanding():
    res = strip_nonexpanding(complete(10), range(10), 4)
    assert res.removed == set() and res.trace == [] and res.certified
    res = strip_nonexpanding(clique_plus_isolated(8, 2), range(10), 4)
    assert res.removed == {8, 9} and res.survivors == set(range(8))
    assert res.trace == [([8], 0), ([9], 0)] and res.certified
    # a path peels from its low end, one vertex at a time, until the cap binds
    res = strip_nonexpanding(path_graph(6), range(6), 3)
    assert res.trace == [([0], 1), ([1], 1), ([2], 1)]
    assert res.survivors == {3, 4, 5} and not res.certified
    res = strip_nonexpanding(path_graph(6), [1, 2, 4, 5], 4)
    assert res.trace == [([1], 1), ([2], 0), ([4], 1), ([5], 0)]


def naive_strip(g, v0, cap):
    """The stripping loop walked with `neighborhood` restricted to the window:
    remove the lowest-id vertex with fewer than 2 neighbours left in it."""
    removed, trace = set(), []
    while len(removed) < cap:
        window = set(v0) - removed
        degrees = [(v, len(neighborhood(g, [v]) & window)) for v in sorted(window)]
        low = [(v, nb) for v, nb in degrees if nb < 2]
        if not low:
            break
        v, nb = low[0]
        removed.add(v)
        trace.append(([v], nb))
    return removed, trace, len(removed) < cap


def test_strip_matches_the_definitional_walk():
    rng = random.Random(515)
    bound = 0
    for i in range(200):
        n = rng.randint(4, 14)
        g = gnp(n, rng.uniform(0.1, 0.7), seed=f"strip:{i}")
        v0 = rng.sample(range(n), rng.randint(2, n))
        cap = rng.randint(1, len(v0))
        res = strip_nonexpanding(g, v0, cap)
        removed, trace, certified = naive_strip(g, v0, cap)
        assert (res.removed, res.trace, res.certified) == (removed, trace, certified)
        assert res.survivors == set(v0) - removed
        bound += not certified
    assert bound >= 15


def test_strip_reads_only_the_window(monkeypatch):
    g = gnp(80, 0.05, seed=4)
    v0 = set(range(20, 60))
    expected = naive_strip(g, v0, 30)
    read = []
    neighbors = Graph.neighbors

    def recording_neighbors(self, v):
        read.append(v)
        return neighbors(self, v)

    def no_masks(g):
        raise AssertionError("strip_nonexpanding built the adjacency masks")

    monkeypatch.setattr(Graph, "neighbors", recording_neighbors)
    monkeypatch.setattr(applications, "adjacency_masks", no_masks)
    monkeypatch.setattr(hamlab.graph, "adjacency_masks", no_masks)
    res = strip_nonexpanding(g, v0, 30)
    assert (res.removed, res.trace, res.certified) == expected
    assert set(read) <= v0 and len(read) <= 2 * len(v0)


def test_cycle_of_length_k_cliques():
    g = complete(10)
    for k in range(3, 11):
        res = cycle_of_length_k(g, k, t=5, retries=5)
        assert res.found and len(res.cycle) == k
        assert validate_cycle(g, res.cycle.vertices)
    with pytest.raises(ValueError):
        cycle_of_length_k(g, 2)
    for t in (0, -3):
        with pytest.raises(ValueError, match=r"^need t >= 1$"):
            cycle_of_length_k(g, 5, t=t)
    with pytest.raises(ValueError, match=r"^need retries >= 0$"):
        cycle_of_length_k(g, 5, retries=-3)
    assert cycle_of_length_k(g, 5, retries=0).attempts == 0


def test_cycle_of_length_k_chordless_cycle_fails():
    g = cycle_graph(12)
    res = cycle_of_length_k(g, 6, t=4, retries=3, budget=500)
    assert not res.found


def test_cycle_of_length_k_gnp():
    g = gnp(200, 0.12, seed=9)
    res = cycle_of_length_k(g, 100, t=10, seed=1, retries=10)
    assert res.found and len(res.cycle) == 100
    assert validate_cycle(g, res.cycle.vertices)


def test_gnp_trials_rejects_negative_trials():
    with pytest.raises(ValueError, match="need trials >= 0"):
        applications.gnp_trials(20, 0.5, -2)
    assert applications.gnp_trials(20, 0.5, 0).trials == []


def test_fconnected_pipeline():
    res = fconnected_pipeline(complete(10), FConnSpec.klogk(), seed=1)
    assert res.certified and res.search.found
    # cliques above the enumeration cap: the no-separation short circuit
    # keeps the premise exact, desk thresholds keep the implications finite
    res = fconnected_pipeline(
        complete(30), FConnSpec.klogk(), seed=1, s_small=2, s_big=1
    )
    assert res.certified and res.search.found
    assert len(res.search.cycle) == 30
    res = fconnected_pipeline(cycle_graph(10), FConnSpec.klogk(), seed=1)
    assert not res.certified
    assert res.report.params["premise"] == "fails"
    assert res.search.found  # the cycle itself
    res = fconnected_pipeline(
        complete_bipartite(2, 3), FConnSpec.constant(0), budget=3000, seed=1
    )
    # f == 0 demands nothing, so the premise holds vacuously; the
    # implications rightly fail and so does the search
    assert res.report.params["premise"] == "holds"
    assert not res.certified
    assert not res.search.found
    ok, _ = hamiltonian_oracle(complete_bipartite(2, 3))
    assert not ok

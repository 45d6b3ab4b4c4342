"""Application procedures against brute-force ground truth."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab import (
    FConnSpec,
    Path,
    clique_plus_isolated,
    complete,
    complete_bipartite,
    cycle_graph,
    cycle_of_length_k,
    edge_key,
    extend,
    fconnected_pipeline,
    find_hamilton_cycle,
    gnp,
    gnp_hamilton_schedule,
    hamilton_connected_oracle,
    hamilton_cycle_through_edge,
    hamilton_path_between,
    hamilton_path_oracle,
    hamiltonian_oracle,
    path_graph,
    petersen,
    reconstruct_path,
    small_aware_family,
    small_vertices,
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


def test_protected_proof_faithful_closing():
    # the segment pipeline honors the never-break constraint end to end:
    # the protected edge survives into the cycle and never enters the log
    from hamlab.closing import CloseFailure, close_proof_faithful
    from hamlab.applications import _cycle_to_path_with_edge

    def consecutive(cyc, u, v):
        n = len(cyc)
        pos = {w: i for i, w in enumerate(cyc)}
        i, j = pos[u], pos[v]
        return (i + 1) % n == j or (j + 1) % n == i

    rng_master = random.Random("prot")
    wins = attempts = 0
    for i in range(40):
        rng = random.Random(i)
        n = rng.randint(10, 14)
        g = gnp(n, rng.uniform(0.5, 0.8), seed=f"prot:{i}")
        res = find_hamilton_cycle(g, seed=i)
        if not res.found:
            continue
        u, v = rng.sample(range(n), 2)
        if consecutive(res.cycle.vertices, u, v):
            continue
        g_uv = g.with_edge(u, v)
        spanning = _cycle_to_path_with_edge(res.cycle.vertices, u, v)
        stats = {"rotations": 0, "restarts": 0, "families_built": 0}
        attempts += 1
        out = close_proof_faithful(
            g_uv, Path(spanning), protected_edge=edge_key(u, v), stats=stats
        )
        if isinstance(out, CloseFailure):
            continue
        cyc = out.vertices
        ring = {edge_key(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        assert edge_key(u, v) in ring
        assert edge_key(u, v) not in stats.get("broken_edges", set())
        assert validate_cycle(g_uv, cyc, hamilton=True)
        wins += 1
    assert attempts >= 20 and wins >= attempts * 2 // 3


def test_hamilton_cycle_through_edge():
    cyc = hamilton_cycle_through_edge(complete(4), (0, 1))
    edges = {edge_key(a, b) for a, b in zip(cyc.vertices, cyc.vertices[1:] + cyc.vertices[:1])}
    assert (0, 1) in edges and len(cyc) == 4
    cyc = hamilton_cycle_through_edge(cycle_graph(5), (2, 3))
    assert len(cyc) == 5
    assert hamilton_cycle_through_edge(complete_bipartite(2, 3), (0, 2), budget=3000) is None
    with pytest.raises(ValueError):
        hamilton_cycle_through_edge(complete_bipartite(2, 3), (0, 1))


def test_strip_nonexpanding():
    g = complete(10)
    res = strip_nonexpanding(g, range(10), size_bound=1, ratio=9)
    assert res.removed == set() and res.certified
    g = clique_plus_isolated(8, 2)
    res = strip_nonexpanding(g, range(10), size_bound=2, ratio=2, cap=4)
    assert res.removed == {8, 9}
    assert res.survivors == set(range(8))
    # trace grows monotonically, bounded steps
    seen = set()
    for a_set, _ in res.trace:
        assert len(a_set) <= 2
        assert not (set(a_set) & seen)
        seen |= set(a_set)


def test_cycle_of_length_k_cliques():
    g = complete(10)
    for k in range(3, 11):
        res = cycle_of_length_k(g, k, t=5, retries=5)
        assert res.found and len(res.cycle) == k
        assert validate_cycle(g, res.cycle.vertices)
    with pytest.raises(ValueError):
        cycle_of_length_k(g, 2)


def test_cycle_of_length_k_chordless_cycle_fails():
    g = cycle_graph(12)
    res = cycle_of_length_k(g, 6, t=4, retries=3, budget=500)
    assert not res.found


def test_cycle_of_length_k_gnp():
    g = gnp(200, 0.12, seed=9)
    res = cycle_of_length_k(g, 100, t=10, seed=1, retries=10)
    assert res.found and len(res.cycle) == 100
    assert validate_cycle(g, res.cycle.vertices)


def test_small_aware_family_properties():
    g = gnp(400, 2.2 * math.log(400) / 400, seed=12)
    if not hamiltonian_oracle(complete(3))[0]:  # pragma: no cover
        pytest.skip()
    small = small_vertices(g)
    start = max(range(g.n), key=g.degree)
    p = extend(g, Path((start,)))
    fam = small_aware_family(g, p, small)
    for layer in fam.layers[1:]:
        assert not (set(layer) & small)
    for v in fam.endpoints():
        assert reconstruct_path(fam, v).first == fam.fixed
        # no stored chain ever passes through a small endpoint
        for step in fam.chain_steps(v):
            assert step.new_endpoint not in small


def test_gnp_hamilton_schedule():
    n = 300
    p = (math.log(n) + math.log(math.log(n)) + 8) / n
    wins = 0
    for seed in range(5):
        g = gnp(n, p, seed=f"sched:{seed}")
        from hamlab import is_connected

        if not is_connected(g):
            continue
        res = gnp_hamilton_schedule(g, budget=60000, seed=seed)
        if res.found:
            assert validate_cycle(g, res.cycle.vertices, hamilton=True)
            wins += 1
    assert wins >= 3


def test_gnp_hamilton_schedule_sparse_2000():
    from hamlab import is_connected

    n = 2000
    p = (math.log(n) + math.log(math.log(n)) + 6) / n
    wins = tried = 0
    for seed in range(2):
        g = gnp(n, p, seed=f"big:{seed}")
        if not is_connected(g):
            continue
        tried += 1
        res = gnp_hamilton_schedule(g, budget=120000, seed=seed)
        if res.found:
            assert validate_cycle(g, res.cycle.vertices, hamilton=True)
            wins += 1
    assert tried == 0 or wins == tried


def test_gnp_schedule_disconnected_gate():
    res = gnp_hamilton_schedule(clique_plus_isolated(8, 1), budget=100)
    assert not res.found and res.stage == "connectivity"


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

"""Cycle closing: segments, sigma0, contracted models, both closers."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamlab import (
    CloseFailure,
    Cycle,
    Path,
    SoundnessError,
    Verdict,
    build_contracted,
    close_heuristic,
    close_proof_faithful,
    complete,
    complete_bipartite,
    cycle_graph,
    decompose,
    double_rotation_targets,
    endpoint_family,
    extend,
    find_hamilton_cycle,
    gnp,
    hamiltonian_oracle,
    is_connected,
    path_graph,
    petersen,
    reconstruct_path,
    rotate,
    select_sigma0,
    unbroken_segments,
    validate_cycle,
    validate_path,
)
from hamlab import closing
from hamlab.closing import lift_model_path, model_endpoint_paths
from hamlab.rotation import rotated_runs


def test_decompose_examples():
    p = Path(range(10))
    dec = decompose(p, 2)
    assert [len(s) for s in dec.segments] == [3, 3, 2, 2]
    dec = decompose(Path(range(8)), 4)
    assert all(len(s) == 1 for s in dec.segments)
    with pytest.raises(ValueError):
        decompose(Path(range(5)), 3)


def test_unbroken_segments_zero_rotations():
    p = Path(range(12))
    dec = decompose(p, 3)
    # one run: every segment forward, no base edge broken
    assert unbroken_segments(dec, ((0, 11),)) == (0, 2, 4, 6, 8, 10)


def test_unbroken_segments_one_rotation():
    g = complete(12)
    p = Path(range(12))
    dec = decompose(p, 3)
    rotated = ((0, 5), (11, 6))  # 0..5 then 11 down to 6: pivot 5, broke (5,6)
    assert rotated == rotated_runs(((0, 11),), 5)
    # segments of the base: (0,1)(2,3)(4,5)(6,7)(8,9)(10,11) all survive, the
    # last three reversed and in descending order
    assert unbroken_segments(dec, rotated) == (0, 2, 4, 11, 9, 7)


def test_unbroken_count_bound():
    rng = random.Random(77)
    from hamlab import rotate

    for i in range(100):
        n = rng.randint(10, 24)
        g = gnp(n, rng.uniform(0.4, 0.9), seed=f"unb:{i}")
        p = extend(g, Path((rng.randrange(n),)), rng)
        if len(p) < 8:
            continue
        rho = rng.randint(1, min(4, len(p) // 2))
        dec = decompose(p, rho)
        cur = p
        runs = ((0, len(p) - 1),)
        rotations = 0
        for _ in range(rng.randint(0, rho)):
            q = len(cur)
            pivots = [j for j in range(q - 2) if g.has_edge(cur.last, cur[j])]
            if not pivots:
                break
            i = rng.choice(pivots)
            cur, _ = rotate(g, cur, i)
            runs = rotated_runs(runs, i)
            rotations += 1
        # one broken base edge per run boundary
        assert len(runs) - 1 <= rotations
        assert len(unbroken_segments(dec, runs)) >= 2 * rho - rotations


def test_tau_sequence_counts_match_binomial():
    rng = random.Random(31)
    from hamlab import rotate

    for i in range(100):
        n = rng.randint(10, 20)
        g = gnp(n, rng.uniform(0.5, 0.9), seed=f"binom:{i}")
        p = extend(g, Path((rng.randrange(n),)), rng)
        if len(p) < 8:
            continue
        rho = rng.randint(2, min(4, len(p) // 2))
        dec = decompose(p, rho)
        cur = p
        runs = ((0, len(p) - 1),)
        for _ in range(rng.randint(0, 2)):
            q = len(cur)
            pivots = [j for j in range(q - 2) if g.has_edge(cur.last, cur[j])]
            if not pivots:
                break
            i = rng.choice(pivots)
            cur, _ = rotate(g, cur, i)
            runs = rotated_runs(runs, i)
        layout = unbroken_segments(dec, runs)
        u = len(layout)
        assert len(set(c >> 1 for c in layout)) == u  # a segment appears once
        for tau in range(1, min(u, 3) + 1):
            seqs = list(itertools.combinations(layout, tau))
            assert len(seqs) == math.comb(u, tau)
            assert len(set(seqs)) == len(seqs)


def brute_force_sigma0(layouts, dec):
    """Max |L(sigma)| over all 4 * (2rho)_2 ordered oriented segment pairs."""
    seg_ids = range(len(dec.segments))
    best = 0
    for perm in itertools.permutations(seg_ids, 2):
        for orient in itertools.product((False, True), repeat=2):
            sigma = tuple(zip(perm, orient))
            pairs = {pair for pair, c in layouts.items() if _contains(c, sigma)}
            best = max(best, len(pairs))
    return best


def _contains(layout, sigma):
    oriented = [(c >> 1, bool(c & 1)) for c in layout]
    it = iter(oriented)
    return all(entry in it for entry in sigma)


def test_select_sigma0_matches_full_enumeration():
    rng = random.Random(55)
    done = 0
    for i in range(40):
        n = rng.randint(10, 16)
        g = gnp(n, rng.uniform(0.5, 0.9), seed=f"sig:{i}")
        p = extend(g, Path((rng.randrange(n),)), rng)
        if len(p) < 8 or len(p) < n:
            continue
        rho = rng.randint(2, 4)
        if 2 * rho > len(p):
            continue
        targets = double_rotation_targets(g, p, a_cap=4, total_target=6)
        dec = decompose(p, rho)
        layouts = {}
        for pair in targets.pairs():
            if targets.pair_rotations[pair] > rho:
                continue
            layout = unbroken_segments(dec, targets.pair_runs[pair])
            if len(layout) >= 2:
                layouts[pair] = layout
        if len(layouts) < 2:
            continue
        sigma0, pairs = select_sigma0(layouts)
        assert len(pairs) == brute_force_sigma0(layouts, dec)
        # averaging guarantee: the best sequence beats the mean load
        total = sum(math.comb(len(c), 2) for c in layouts.values())
        denom = 4 * (2 * rho) * (2 * rho - 1)
        assert len(pairs) >= total / denom
        done += 1
    assert done >= 8


def test_select_sigma0_single_record():
    p = Path(range(8))
    dec = decompose(p, 2)
    layouts = {(0, 7): unbroken_segments(dec, ((0, 7),))}
    sigma0, pairs = select_sigma0(layouts)
    assert pairs == {(0, 7)}
    # a layout of one segment holds no ordered pair of segments
    assert select_sigma0({(0, 7): (2,)}) == (None, set())


def test_select_sigma0_identical_records():
    # identical layouts under distinct pairs: the chosen sequence covers all
    p = Path(range(8))
    dec = decompose(p, 2)
    layouts = {(0, i): unbroken_segments(dec, ((0, 7),)) for i in range(1, 5)}
    _, pairs = select_sigma0(layouts)
    assert pairs == {(0, 1), (0, 2), (0, 3), (0, 4)}


def test_build_contracted_shapes():
    g = complete(12)
    dec = decompose(Path(range(12)), 2)  # four 3-vertex segments
    # the spine starts at x on side 1 and at y on side 2
    for side, rev, spine in (
        (1, False, (5, 4, 3)),
        (1, True, (3, 4, 5)),
        (2, False, (3, 4, 5)),
        (2, True, (5, 4, 3)),
    ):
        model = build_contracted(dec, (1, rev), g, side)
        assert model.labels == spine
        assert model.side == side and not model.frozen


def test_build_contracted_interior_chords_only():
    g = complete(12)
    dec = decompose(Path(range(12)), 1)  # two 6-vertex segments
    model = build_contracted(dec, (1, True), g, side=2)
    assert model.labels == (11, 10, 9, 8, 7, 6)
    chords = sorted(e for e in model.spanned.graph.edges if abs(e[0] - e[1]) != 1)
    # G is complete, but neither spine tip (0 or 5) gets a chord
    assert chords == [(1, 3), (1, 4), (2, 4)]


def _model_lifts(g):
    """(lifted path, model, model endpoint) for every witness of every model
    pivot adjacent to its side's anchor, over the pairs of sigma0.

    The stages up to sigma0 are the pipeline's own.  The anchor of side 1 is
    a and that of side 2 is b: the helper vertex w of the augmented model
    stands for the stretch from the model's far end to the anchor, so its
    edge to the pivot lifts to a real edge only when the anchor is adjacent
    to the pivot's real vertex.  Without that condition lifts do fail.
    """
    path = extend(g, Path((0,)))
    targets = double_rotation_targets(g, path, a_cap=closing.A_CAP)
    if not targets.pair_runs:
        return []
    rho = min(max(1, max(targets.pair_rotations.values())), len(path) // 2)
    dec = decompose(path, rho)
    layouts = {}
    for pair in targets.pairs():
        if targets.pair_rotations[pair] > rho:
            continue
        layout = unbroken_segments(dec, targets.pair_runs[pair])
        if len(layout) >= 2:
            layouts[pair] = layout
    sigma0, pairs = select_sigma0(layouts)
    if sigma0 is None:
        return []
    models = (build_contracted(dec, sigma0[0], g, 1), build_contracted(dec, sigma0[1], g, 2))
    out = []
    for a, b in sorted(pairs):
        phat = targets.pair_path((a, b))
        for model, anchor in zip(models, (a, b)):
            if model.frozen:
                continue
            for pm in range(1, len(model.labels) - 1):
                if not g.has_edge(anchor, model.labels[pm]):
                    continue
                witness = model_endpoint_paths(model, pm, budget=closing.CLOSURE_BUDGET)
                for ep, seq in witness.items():
                    out.append((lift_model_path(seq, model, phat), model, ep))
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(12, 40), st.sampled_from([3, 5, 8]), st.integers(0, 2**16))
def test_model_lifts_are_real_paths(n, c, seed):
    g = gnp(n, min(1.0, c * math.log(n) / n), seed=f"lift:{seed}")
    assume(is_connected(g))
    lifts = _model_lifts(g)
    assume(lifts)
    for lifted, model, ep in lifts:
        assert validate_path(g, lifted)
        assert lifted[0] == model.labels[0]
        assert lifted[-1] == model.labels[ep]


def test_close_proof_faithful_k12():
    g = complete(12)
    res = close_proof_faithful(g, Path(range(12)))
    assert isinstance(res, Cycle)
    assert validate_cycle(g, res.vertices, hamilton=True)


def test_close_proof_faithful_c7():
    g = cycle_graph(7)
    res = close_proof_faithful(g, Path(range(7)))
    assert isinstance(res, Cycle)
    assert validate_cycle(g, res.vertices, hamilton=True)


def test_close_proof_faithful_petersen_fails_with_stage():
    g = petersen()
    p = extend(g, Path((0,)))
    res = close_proof_faithful(g, p)
    assert isinstance(res, CloseFailure)
    assert res.stage in {
        "endpoint_families",
        "tau_sequences",
        "sigma0",
        "good_vertices",
        "closing_edge",
        "segments",
    }
    ok, _ = hamiltonian_oracle(g)
    assert not ok


def test_close_proof_faithful_random_positives():
    rng = random.Random(60)
    wins = tried = 0
    for i in range(40):
        n = rng.randint(8, 14)
        g = gnp(n, rng.uniform(0.4, 0.8), seed=f"pf:{i}")
        ok, _ = hamiltonian_oracle(g)
        if not ok:
            continue
        tried += 1
        p = extend(g, Path((rng.randrange(n),)), rng)
        res = close_proof_faithful(g, p)
        if isinstance(res, Cycle):
            assert validate_cycle(g, res.vertices, hamilton=True)
            wins += 1
    assert tried >= 10
    assert wins >= tried // 2  # the pipeline carries real weight


def reference_absorb(g, cycle_seq):
    """The reopened tuple `absorb` returned before it returned a site."""
    members = set(cycle_seq)
    for idx, v in enumerate(cycle_seq):
        for u in sorted(g.neighbors(v)):
            if u not in members:
                return cycle_seq[idx + 1 :] + cycle_seq[: idx + 1] + (u,)
    return None


def test_absorb_site_matches_the_reopened_tuple():
    rng = random.Random("absorb-site")
    sites = 0
    for i in range(400):
        n = rng.randint(3, 16)
        g = gnp(n, rng.uniform(0.05, 0.6), seed=f"site:{i}")
        cycle = tuple(rng.sample(range(n), rng.randint(1, n - 1)))
        site = closing.absorb(g, cycle)
        expected = reference_absorb(g, cycle)
        if expected is None:
            assert site is None
            continue
        idx, u = site
        assert cycle[idx + 1 :] + cycle[: idx + 1] + (u,) == expected
        sites += 1
    assert sites >= 300


def test_close_proof_faithful_absorbs_short_paths(monkeypatch):
    # starting from a low-degree vertex often yields a non-spanning maximal
    # path; the pipeline must close it, absorb an outside vertex, and go again
    import hamlab.closing as closing

    real_absorb = closing.absorb
    calls = [0]

    def counting_absorb(g, seq):
        calls[0] += 1
        return real_absorb(g, seq)

    monkeypatch.setattr(closing, "absorb", counting_absorb)
    rng = random.Random("absorb")
    wins = absorbed = 0
    for i in range(60):
        n = rng.randint(9, 14)
        g = gnp(n, rng.uniform(0.28, 0.45), seed=f"ab:{i}")
        ok, _ = hamiltonian_oracle(g)
        if not ok:
            continue
        start = min(range(n), key=g.degree)
        before = calls[0]
        res = close_proof_faithful(g, extend(g, Path((start,))))
        if isinstance(res, Cycle):
            assert validate_cycle(g, res.vertices, hamilton=True)
            wins += 1
            if calls[0] > before:
                absorbed += 1
    assert wins >= 10
    assert absorbed >= 3  # the absorb-and-restart loop genuinely runs


def test_close_heuristic_examples():
    g = complete(40)
    res = close_heuristic(g, Path((0,)), budget=5000, rng=random.Random(1))
    assert isinstance(res, Cycle) and len(res) == 40
    res = close_heuristic(path_graph(6), Path((0,)), budget=100, rng=random.Random(1))
    assert isinstance(res, CloseFailure) and res.stage == "no_rotation"
    res = close_heuristic(cycle_graph(9), Path((0,)), budget=10, rng=random.Random(1))
    assert isinstance(res, Cycle)


def test_find_hamilton_cycle_modes():
    g = complete(30)
    for mode in ("heuristic", "proof_faithful", "auto"):
        res = find_hamilton_cycle(g, mode=mode, seed=2)
        assert res.found
        assert validate_cycle(g, res.cycle.vertices, hamilton=True)


def test_auto_is_the_heuristic():
    # on the two gnp graphs the pipeline spends tens of thousands of
    # rotations and misses, where the heuristic closes in about 60
    n, budget = 400, 20000
    graphs = [gnp(n, 2 * math.log(n) / n, seed=s) for s in (2, 5)] + [petersen()]
    found = []
    for g in graphs:
        auto = find_hamilton_cycle(g, mode="auto", budget=budget, seed=1)
        heur = find_hamilton_cycle(g, mode="heuristic", budget=budget, seed=1)
        assert (auto.found, auto.stage, auto.stats) == (heur.found, heur.stage, heur.stats)
        if auto.found:
            assert auto.cycle.vertices == heur.cycle.vertices
        assert auto.stats["families_built"] == 0
        assert auto.stats["rotations"] <= budget
        found.append(auto.found)
    assert found == [True, True, False]
    from hamlab import hamilton_path_between

    g = graphs[0]
    auto = hamilton_path_between(g, 3, 17, mode="auto", budget=budget, seed=4)
    heur = hamilton_path_between(g, 3, 17, mode="heuristic", budget=budget, seed=4)
    assert auto.found and auto.path.vertices == heur.path.vertices
    assert auto.stats == heur.stats and auto.stats["families_built"] == 0


def test_find_hamilton_negative_examples():
    res = find_hamilton_cycle(complete_bipartite(5, 6), budget=20000, seed=0)
    assert not res.found
    ok, _ = hamiltonian_oracle(complete_bipartite(5, 6))
    assert not ok
    res = find_hamilton_cycle(petersen(), budget=20000, seed=0)
    assert not res.found
    res = find_hamilton_cycle(path_graph(9), budget=1000, seed=0)
    assert not res.found and res.stage == "min_degree"
    from hamlab import clique_plus_isolated

    res = find_hamilton_cycle(clique_plus_isolated(6, 2), budget=1000, seed=0)
    assert not res.found and res.stage == "connectivity"


def test_negative_budget_is_refused():
    with pytest.raises(ValueError, match="rotation budget must be non-negative"):
        find_hamilton_cycle(cycle_graph(5), budget=-1)
    assert find_hamilton_cycle(cycle_graph(5), budget=0).found


def test_unknown_mode_is_refused():
    from hamlab import gnp_trials, hamilton_path_between

    with pytest.raises(ValueError, match="unknown mode"):
        find_hamilton_cycle(cycle_graph(6), mode="heurstic", budget=100)
    with pytest.raises(ValueError, match="unknown mode"):
        hamilton_path_between(complete(6), 0, 1, mode="heurstic", budget=100)
    with pytest.raises(ValueError, match="unknown mode"):
        gnp_trials(8, 0.5, 1, budget=100, mode="heurstic")


def test_proof_faithful_closes_on_every_good_pivot_and_anchor():
    # guards against a cap on the good pivots or on the b-anchors tried: with
    # six pivots per model and eight b-anchors per a-anchor, only graph seeds
    # 4 and 5 close here, and the others stop at closing_edge
    n = 200
    for s in range(8):
        g = gnp(n, 3 * math.log(n) / n, seed=s)
        res = find_hamilton_cycle(g, mode="proof_faithful", budget=20000, seed=1)
        assert res.found, (s, res.stage)
        assert validate_cycle(g, res.cycle.vertices, hamilton=True)


def test_soundness_gate_fault_injection(monkeypatch):
    # a buggy closer must never leak an invalid cycle through the gate
    import hamlab.closing as closing

    def bogus(g, path, budget=0, rng=None, stats=None):
        return Cycle(range(g.n - 1))  # wrong length, likely invalid edges

    monkeypatch.setattr(closing, "close_heuristic", bogus)
    res = closing.find_hamilton_cycle(
        complete(8), mode="heuristic", budget=50, seed=0, max_restarts=3
    )
    assert not res.found
    assert res.stage == "soundness_gate"


def test_gnp_positive_rate_auto():
    rng = random.Random(61)
    pos = got = 0
    for i in range(60):
        n = rng.randint(6, 13)
        g = gnp(n, rng.uniform(0.2, 0.8), seed=f"rate:{i}")
        ok, _ = hamiltonian_oracle(g)
        res = find_hamilton_cycle(g, mode="auto", budget=50000, seed=i)
        assert not (res.found and not ok), "unsound result"
        if ok:
            pos += 1
            got += res.found
    assert pos >= 15
    assert got == pos


def test_soundness_checks_raise_soundness_error(monkeypatch):
    # a cycle that fails validation is refused by an explicit raise, which
    # `python -O` keeps, in both closers and in path reconstruction
    monkeypatch.setattr(closing, "validate_cycle", lambda g, seq: Verdict(False, "rejected"))
    g = cycle_graph(8)
    with pytest.raises(SoundnessError, match="rejected"):
        close_heuristic(g, Path((0,)))
    with pytest.raises(SoundnessError, match="invalid cycle: rejected"):
        close_proof_faithful(g, Path(range(8)))
    fam = endpoint_family(cycle_graph(5), Path(range(5)), total_target=5)
    fam.runs[1] = fam.runs[4]  # forged: the runs of another endpoint
    with pytest.raises(SoundnessError, match="runs for endpoint 1 give the wrong endpoints"):
        reconstruct_path(fam, 1)

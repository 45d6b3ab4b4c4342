"""Cycle closing: segments, tau-sequences, contracted models, both closers."""

import itertools
import math
import random

import pytest

from hamlab import (
    CloseFailure,
    Cycle,
    Graph,
    Path,
    RotationStep,
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
    extend,
    find_hamilton_cycle,
    gnp,
    hamiltonian_oracle,
    path_graph,
    petersen,
    replay_chain,
    rotate,
    select_sigma0,
    tau_sequences_of,
    unbroken_segments,
    validate_cycle,
)
from hamlab import closing
from hamlab.closing import TauSequence


def test_decompose_examples():
    p = Path(range(10))
    dec = decompose(p, 2)
    assert [len(s) for s in dec.segments] == [3, 3, 2, 2]
    dec = decompose(Path(range(8)), 4)
    assert all(len(s) == 1 for s in dec.segments)
    with pytest.raises(ValueError):
        decompose(Path(range(5)), 3)


def test_decompose_protected_edge():
    p = Path(range(10))
    dec = decompose(p, 2, protected_edge=(2, 3))  # default boundary splits 2|3
    idx = {i for i, seg in enumerate(dec.segments) if 2 in seg or 3 in seg}
    assert len(idx) == 1


def test_unbroken_segments_zero_rotations():
    p = Path(range(12))
    dec = decompose(p, 3)
    rec = unbroken_segments(dec, p, pair=(0, 11), rotations=0)
    assert len(rec.unbroken) == 6
    assert all(not rev for _, rev, _ in rec.unbroken)
    assert rec.broken_p0 == frozenset()


def test_unbroken_segments_one_rotation():
    g = complete(12)
    p = Path(range(12))
    dec = decompose(p, 3)
    rotated = Path((0, 1, 2, 3, 4, 5, 11, 10, 9, 8, 7, 6))  # pivot 5, broke (5,6)
    rec = unbroken_segments(dec, rotated, pair=(0, 6), rotations=1)
    assert rec.broken_p0 == frozenset({(5, 6)})
    # segments of the base: (0,1)(2,3)(4,5)(6,7)(8,9)(10,11) all survive
    assert len(rec.unbroken) == 6
    revs = {seg: rev for seg, rev, _ in rec.unbroken}
    assert revs[0] is False and revs[3] is True and revs[5] is True


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
        rotations = 0
        for _ in range(rng.randint(0, rho)):
            q = len(cur)
            pivots = [j for j in range(q - 2) if g.has_edge(cur.last, cur[j])]
            if not pivots:
                break
            cur, _ = rotate(g, cur, rng.choice(pivots))
            rotations += 1
        rec = unbroken_segments(dec, cur, pair=(cur.first, cur.last), rotations=rotations)
        assert len(rec.broken_p0) <= rotations
        assert len(rec.unbroken) >= 2 * rho - rotations


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
        for _ in range(rng.randint(0, 2)):
            q = len(cur)
            pivots = [j for j in range(q - 2) if g.has_edge(cur.last, cur[j])]
            if not pivots:
                break
            cur, _ = rotate(g, cur, rng.choice(pivots))
        rec = unbroken_segments(dec, cur)
        u = len(rec.unbroken)
        for tau in range(1, min(u, 3) + 1):
            seqs = tau_sequences_of(rec, tau)
            assert len(seqs) == math.comb(u, tau)
            assert len(set(s.entries for s in seqs)) == len(seqs)


def brute_force_sigma0(records, tau, dec):
    """Max |L(sigma)| over all 2^tau * (2rho)_tau ordered oriented sequences."""
    seg_ids = range(len(dec.segments))
    best = 0
    for perm in itertools.permutations(seg_ids, tau):
        for orient in itertools.product((False, True), repeat=tau):
            sigma = tuple(zip(perm, orient))
            pairs = {
                rec.pair
                for rec in records
                if _contains(rec, sigma)
            }
            best = max(best, len(pairs))
    return best


def _contains(rec, sigma):
    oriented = [(seg, rev) for seg, rev, _ in rec.unbroken]
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
        records = []
        for pair, pp in sorted(targets.pair_path.items()):
            if targets.pair_rotations[pair] > rho:
                continue
            rec = unbroken_segments(dec, pp, pair=pair)
            if len(rec.unbroken) >= 2:
                records.append(rec)
        if len(records) < 2:
            continue
        sigma0, pairs = select_sigma0(records, 2)
        assert len(pairs) == brute_force_sigma0(records, 2, dec)
        # averaging guarantee: the best sequence beats the mean load
        total = sum(math.comb(len(r.unbroken), 2) for r in records)
        denom = 4 * (2 * rho) * (2 * rho - 1)
        assert len(pairs) >= total / denom
        done += 1
    assert done >= 8


def test_select_sigma0_single_record():
    p = Path(range(8))
    dec = decompose(p, 2)
    rec = unbroken_segments(dec, p, pair=(0, 7))
    sigma0, pairs = select_sigma0([rec], 2)
    assert pairs == {(0, 7)}
    with pytest.raises(ValueError):
        select_sigma0([rec], 5)


def test_select_sigma0_identical_records():
    # identical layouts under distinct pairs: the chosen sequence covers all
    p = Path(range(8))
    dec = decompose(p, 2)
    records = [unbroken_segments(dec, p, pair=(0, i)) for i in range(1, 5)]
    _, pairs = select_sigma0(records, 2)
    assert pairs == {(0, 1), (0, 2), (0, 3), (0, 4)}


def test_build_contracted_shapes():
    g = complete(12)
    p = Path(range(12))
    dec = decompose(p, 3)  # six 2-vertex segments
    half = TauSequence(((0, False), (2, False)))
    model = build_contracted(dec, half, g, side=1)
    # spine reversed: starts at the last vertex of segment 2
    assert model.labels[0] == dec.segments[2][-1]
    assert model.labels[-1] == dec.segments[0][0]
    assert not model.frozen
    # no chord of G incident to a run tip appears in the model
    l = len(model.labels)
    for u, v in model.spanned.graph.edges:
        if abs(u - v) != 1:
            assert 0 < u < l - 1 and 0 < v < l - 1


def test_build_contracted_interior_chords_only():
    g = complete(12)
    dec = decompose(Path(range(12)), 2)  # four 3-vertex segments
    half = TauSequence(((0, False), (1, False)))
    model = build_contracted(dec, half, g, side=2)
    assert model.labels == tuple(dec.segments[0]) + tuple(dec.segments[1])
    chords = [e for e in model.spanned.graph.edges if abs(e[0] - e[1]) != 1]
    # interiors are model positions 1 and 4; the only chord is between them
    assert chords == [(1, 4)]


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


def test_close_proof_faithful_absorbs_short_paths(monkeypatch):
    # starting from a low-degree vertex often yields a non-spanning maximal
    # path; the pipeline must close it, absorb an outside vertex, and go again
    import hamlab.closing as closing

    real_absorb = closing.absorb
    calls = [0]

    def counting_absorb(g, seq, protected_edge=None):
        calls[0] += 1
        return real_absorb(g, seq, protected_edge)

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


def test_soundness_gate_fault_injection(monkeypatch):
    # a buggy closer must never leak an invalid cycle through the gate
    import hamlab.closing as closing

    def bogus(g, path, budget=0, rng=None, protected_edge=None, stats=None):
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
    # `python -O` keeps, in both closers and in chain replay
    monkeypatch.setattr(closing, "validate_cycle", lambda g, seq: Verdict(False, "rejected"))
    g = cycle_graph(8)
    with pytest.raises(SoundnessError, match="rejected"):
        close_heuristic(g, Path((0,)))
    with pytest.raises(SoundnessError, match="invalid cycle: rejected"):
        close_proof_faithful(g, Path(range(8)), rho=1)
    p = Path(range(5))
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
    _, step = rotate(g, p, 1)
    forged = RotationStep(step.pivot, (0, 1), step.new_endpoint)
    with pytest.raises(SoundnessError, match="breaks another edge"):
        replay_chain(g, p, [forged])

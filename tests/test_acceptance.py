"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance and runtime bound is pinned here.  Criterion 7's dense-random
sweep samples k on a fixed grid across the stated range (every value of k is
exercised on the clique family, where the full range is cheap).
"""

import itertools
import math
import random
import time

import mpmath

from hamlab import (
    FConnSpec,
    Path,
    alpha_value,
    check_expansion,
    check_f_connected,
    check_joined,
    classify_pivots,
    complete,
    cycle_of_length_k,
    edge_key,
    endpoint_closure_oracle,
    endpoint_family,
    extend,
    find_hamilton_cycle,
    gnp,
    hamilton_connected_oracle,
    hamilton_path_between,
    hamiltonian_oracle,
    m_value,
    neighborhood,
    p2_failure_bound,
    process_bad_vertices,
    rotate,
    validate_cycle,
    validate_path,
    SpannedGraph,
)
from hamlab.closing import decompose, select_sigma0, unbroken_segments
from hamlab.rotation import double_rotation_targets, rotated_runs

from chains import replay


def verdict(number, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] acceptance criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_rotation_soundness():
    t0 = time.perf_counter()
    rng = random.Random("acc1")
    pool = []
    while len(pool) < 80:
        n = rng.randint(10, 200)
        g = gnp(n, rng.uniform(1.5, 4.0) * math.log(n) / n, seed=f"acc1:{len(pool)}")
        p = extend(g, Path((rng.randrange(n),)), rng)
        if len(p) >= 5:
            pool.append((g, p))
    done = 0
    while done < 100_000:
        g, p = pool[done % len(pool)]
        q = len(p)
        last = p.last
        # the positions i <= q-3 of the end's neighbours, ascending (some are off the path)
        near = map(p.pos.get, g.neighbors(last))
        pivots = sorted(i for i in near if i is not None and i < q - 2)
        if not pivots:
            pool[done % len(pool)] = (g, p.reversed())
            continue
        i = rng.choice(pivots)
        new, step = rotate(g, p, i)
        assert len(new) == q
        assert new.first == p.first
        assert new.pos.keys() == p.pos.keys()  # same vertex set
        assert validate_path(g, new.vertices)
        back, _ = rotate(g, new, i)
        assert back.vertices == p.vertices  # double-rotation involution
        pool[done % len(pool)] = (g, new)
        done += 1
    elapsed = time.perf_counter() - t0
    verdict(1, elapsed < 10.0, f"1e5 rotations sound, involution holds, {elapsed:.1f}s")


def test_criterion_2_endpoint_family_conformance():
    t0 = time.perf_counter()
    rng = random.Random("acc2")
    for i in range(200):
        n = rng.randint(4, 10)
        # keep the exhaustive closure tractable on the largest sizes
        p_max = 0.9 if n <= 8 else 0.55
        g = gnp(n, rng.uniform(0.2, p_max), seed=f"acc2:{i}")
        p = extend(g, Path((rng.randrange(n),)), rng)
        fam = endpoint_family(g, p, d=rng.choice([3.0, 6.0, 9.0]), total_target=n)
        closure = endpoint_closure_oracle(g, p, max_states=1_500_000)
        assert closure.complete
        for layer in fam.layers:
            assert set(layer) <= closure.endpoints
        base_edges = {edge_key(a, b) for a, b in zip(p.vertices, p.vertices[1:])}
        assert fam.broken_edges <= base_edges
        for v in fam.endpoints():
            redo = replay(g, p, fam.chains[v])
            assert redo.last == v and len(redo) == len(p)
            assert validate_path(g, redo.vertices)
    elapsed = time.perf_counter() - t0
    verdict(2, elapsed < 60.0, f"200-graph corpus conforms, {elapsed:.1f}s")


def test_criterion_3_bad_vertex_bound():
    t0 = time.perf_counter()
    for l in range(5, 16):
        g = complete(l)
        h = SpannedGraph(g, tuple(range(l)))
        # the bound's premise at this scale: disjoint ceil(l/43)-sets joined
        assert check_joined(g, math.ceil(l / 43)).holds
        audit = classify_pivots(h)
        assert len(audit.bad) <= 7 * l / 43
        assert audit.bad == []
        cert = process_bad_vertices(h, audit)
        assert cert.u <= cert.x
        assert 7 * len(cert.u) >= len(cert.x)
        from hamlab.pivots import ext_of

        spine_pos = {v: i for i, v in enumerate(h.spine)}
        nbhd_u = set()
        for v in cert.u:
            nbhd_u |= g.neighbors(v)
        assert nbhd_u <= ext_of(spine_pos, cert.x, h.spine)
        for tr in cert.traces:
            for t, layer in enumerate(tr.w_layers):
                assert len(layer) == 2 ** t
    elapsed = time.perf_counter() - t0
    verdict(3, elapsed < 120.0, f"|R| <= 7l/43 (= empty) for l=5..15, {elapsed:.1f}s")


def test_criterion_4_tau_sequence_counting():
    t0 = time.perf_counter()
    rng = random.Random("acc4")
    records = 0
    while records < 100:
        n = rng.randint(10, 20)
        g = gnp(n, rng.uniform(0.4, 0.9), seed=f"acc4:{records}")
        p = extend(g, Path((rng.randrange(n),)), rng)
        if len(p) < 8:
            continue
        rho = rng.randint(2, min(4, len(p) // 2))
        dec = decompose(p, rho)
        cur = p
        runs = ((0, len(p) - 1),)
        for _ in range(rng.randint(0, 3)):
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
        for tau in range(1, min(u, 4) + 1):
            assert len(set(itertools.combinations(layout, tau))) == math.comb(u, tau)
        records += 1

    # select_sigma0 vs full enumeration over ordered oriented sequences
    matched = 0
    for i in range(60):
        n = rng.randint(10, 16)
        g = gnp(n, rng.uniform(0.5, 0.9), seed=f"acc4b:{i}")
        p = extend(g, Path((rng.randrange(n),)), rng)
        rho = rng.randint(2, 4)
        if len(p) < 2 * rho or len(p) < n:
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
        _, pairs = select_sigma0(layouts)
        best = 0
        for perm in itertools.permutations(range(len(dec.segments)), 2):
            for orient in itertools.product((False, True), repeat=2):
                sigma = tuple(zip(perm, orient))
                hits = set()
                for pair, layout in layouts.items():
                    oriented = [(c >> 1, bool(c & 1)) for c in layout]
                    it = iter(oriented)
                    if all(entry in it for entry in sigma):
                        hits.add(pair)
                best = max(best, len(hits))
        assert len(pairs) == best
        matched += 1
    elapsed = time.perf_counter() - t0
    verdict(
        4,
        matched >= 10 and elapsed < 30.0,
        f"containment counts exact, sigma0 = brute max on {matched} instances, {elapsed:.1f}s",
    )


def test_criterion_5_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random("acc5")
    p_grid = [0.08, 0.15, 0.25, 0.4, 0.6, 0.8]
    positives = found = 0
    for i in range(500):
        n = rng.randint(6, 14)
        p = p_grid[i % len(p_grid)]
        g = gnp(n, p, seed=f"acc5:{i}")
        truth, _ = hamiltonian_oracle(g)
        res = find_hamilton_cycle(g, mode="auto", budget=100_000, seed=i)
        assert not (res.found and not truth), "returned a cycle on a negative instance"
        if res.found:
            assert validate_cycle(g, res.cycle.vertices, hamilton=True)
        if truth:
            positives += 1
            found += res.found
    elapsed = time.perf_counter() - t0
    rate = found / positives if positives else 1.0
    verdict(
        5,
        positives >= 100 and rate >= 0.95 and elapsed < 300.0,
        f"sound on 500 graphs; {found}/{positives} positives found ({rate:.3f}), {elapsed:.0f}s",
    )


def test_criterion_6_gnp_threshold_reproduction():
    t0 = time.perf_counter()
    n = 1000
    p_hi = (math.log(n) + math.log(math.log(n)) + 10) / n
    p_lo = (math.log(n) - 2) / n

    def rate(p, label):
        wins = 0
        for i in range(50):
            g = gnp(n, p, seed=f"acc6:{label}:{i}")
            res = find_hamilton_cycle(g, mode="heuristic", budget=60_000, seed=i)
            if res.found:
                assert validate_cycle(g, res.cycle.vertices, hamilton=True)
                wins += 1
        return wins / 50.0

    hi = rate(p_hi, "hi")
    lo = rate(p_lo, "lo")
    elapsed = time.perf_counter() - t0
    monotone = hi >= lo - 0.15
    verdict(
        6,
        hi >= 0.90 and lo <= 0.10 and monotone and elapsed < 900.0,
        f"success {hi:.2f} at p_hi, {lo:.2f} at p_lo, {elapsed:.0f}s",
    )


def test_criterion_7_pancyclicity():
    t0 = time.perf_counter()
    # cliques: every single k
    for n in (10, 25, 50):
        g = complete(n)
        for k in range(3, n + 1):
            res = cycle_of_length_k(g, k, t=5, retries=5, budget=20_000)
            assert res.found and len(res.cycle) == k
            assert validate_cycle(g, res.cycle.vertices)
    # dense random graphs: k sampled across [60, 540], 10 seeds each
    per_k_ok = True
    for k in range(60, 541, 48):
        wins = 0
        for s in range(10):
            g = gnp(600, 0.1, seed=f"acc7:{s}")
            res = cycle_of_length_k(g, k, t=10, seed=s, retries=20, budget=40_000)
            if res.found:
                assert len(res.cycle) == k
                assert validate_cycle(g, res.cycle.vertices)
                wins += 1
        if wins < 9:
            per_k_ok = False
            break
    elapsed = time.perf_counter() - t0
    verdict(
        7,
        per_k_ok and elapsed < 600.0,
        f"cliques pancyclic for every k; gnp(600,0.1) >= 90% per sampled k, {elapsed:.0f}s",
    )


def test_criterion_8_hamilton_connectedness():
    t0 = time.perf_counter()
    # cliques up to 30: every pair
    for n in (4, 6, 9, 15, 30):
        g = complete(n)
        for u in range(n):
            for v in range(u + 1, n):
                res = hamilton_path_between(g, u, v, budget=30_000, seed=u * n + v)
                assert res.found
                assert validate_path(g, res.path.vertices, endpoints=(u, v))
                assert edge_key(u, v) not in res.broken_edges
    # dense random graphs, oracle-verified Hamilton-connected, n <= 12
    rng = random.Random("acc8")
    verified = 0
    i = 0
    while verified < 3 and i < 60:
        i += 1
        n = rng.randint(10, 12)
        g = gnp(n, 0.6, seed=f"acc8:{i}")
        if not hamilton_connected_oracle(g):
            continue
        verified += 1
        for u in range(n):
            for v in range(u + 1, n):
                res = hamilton_path_between(g, u, v, budget=50_000, seed=i)
                assert res.found, f"pair ({u},{v}) missed on a Hamilton-connected graph"
                assert validate_path(g, res.path.vertices, endpoints=(u, v))
                assert edge_key(u, v) not in res.broken_edges
    elapsed = time.perf_counter() - t0
    verdict(
        8,
        verified == 3 and elapsed < 300.0,
        f"all pairs on cliques and {verified} verified gnp instances, {elapsed:.0f}s",
    )


def test_criterion_9_checker_cross_validation():
    t0 = time.perf_counter()
    rng = random.Random("acc9")

    def naive_expansion(g, s, d):
        for a in range(1, s + 1):
            for combo in itertools.combinations(range(g.n), a):
                if len(neighborhood(g, combo)) < d * a:
                    return False
        return True

    def naive_joined(g, s):
        for a in itertools.combinations(range(g.n), s):
            rest = [v for v in range(g.n) if v not in a]
            for b in itertools.combinations(rest, s):
                if not any(g.has_edge(x, y) for x in a for y in b):
                    return False
        return True

    def naive_fconn(g, f):
        for assignment in itertools.product((0, 1, 2), repeat=g.n):
            a = {v for v in range(g.n) if assignment[v] in (0, 2)}
            b = {v for v in range(g.n) if assignment[v] in (1, 2)}
            if len(a) == g.n or len(b) == g.n:
                continue
            if any(g.has_edge(x, y) for x in a - b for y in b - a):
                continue
            if len(a & b) < f(min(len(a - b), len(b - a))):
                return False
        return True

    from hamlab import (
        clique_plus_isolated,
        complete_bipartite,
        cycle_graph,
        path_graph,
    )

    corpus = [
        complete(5),
        complete(8),
        cycle_graph(8),
        path_graph(7),
        complete_bipartite(3, 4),
        complete_bipartite(4, 4),
        clique_plus_isolated(5, 2),
        clique_plus_isolated(6, 1),
    ]
    for i in range(200):
        n = rng.randint(3, 8)
        corpus.append(gnp(n, rng.uniform(0.1, 0.9), seed=f"acc9:{i}"))
    f = FConnSpec.constant(rng.randint(1, 2))
    for g in corpus:
        s = rng.randint(1, max(1, g.n // 2))
        d = rng.choice([1, 2, 3])
        rep = check_expansion(g, s, d)
        assert rep.holds == naive_expansion(g, s, d)
        if rep.fails:
            w = rep.witness["S"]
            assert len(neighborhood(g, w)) < d * len(w)
        rep = check_joined(g, s)
        assert rep.holds == naive_joined(g, s)
        if rep.fails:
            a, b = rep.witness["A"], rep.witness["B"]
            assert len(a) >= s and len(b) >= s and not set(a) & set(b)
            assert not any(g.has_edge(x, y) for x in a for y in b)
        rep = check_f_connected(g, f)
        assert rep.holds == naive_fconn(g, f)
        if rep.fails:
            a, b = rep.witness["A"], rep.witness["B"]
            assert set(a) | set(b) == set(range(g.n))
            assert not any(g.has_edge(x, y) for x in set(a) - set(b) for y in set(b) - set(a))
            assert len(set(a) & set(b)) < f(min(len(set(a) - set(b)), len(set(b) - set(a))))
    elapsed = time.perf_counter() - t0
    verdict(9, elapsed < 60.0, f"{len(corpus)} instances cross-validated, {elapsed:.0f}s")


def test_criterion_10_scalar_calculators():
    t0 = time.perf_counter()
    mpmath.mp.dps = 40
    rng = random.Random("acc10")

    def mp_m(n, d):
        ln = mpmath.log(n)
        return ln * mpmath.log(mpmath.log(ln)) / (mpmath.log(ln) * mpmath.log(d))

    def mp_alpha(tau):
        return mpmath.mpf(1) / 9 * (4 * mpmath.mpf(tau)) ** (-tau)

    for _ in range(50):
        n = rng.randint(16, 10**9)
        d = rng.uniform(1.1, 500.0)
        got = m_value(n, d)
        want = float(mp_m(n, d))
        assert abs(got - want) <= abs(want) * 1e-12

    for tau in range(1, 51):
        got = alpha_value(tau)
        want = float(mp_alpha(tau))
        assert abs(got - want) <= abs(want) * 1e-12

    for _ in range(50):
        n = rng.randint(20, 10**7)
        d = rng.uniform(1.2, 100.0)
        p = rng.uniform(1e-6, 0.9)
        res = p2_failure_bound(n, p, d)
        s = mpmath.mpf(res.s)
        direct = 2 * mpmath.log(mpmath.binomial(n, s)) + s * s * mpmath.log(1 - mpmath.mpf(p))
        assert abs(res.log_bound - float(direct)) <= abs(float(direct)) * 1e-6
    elapsed = time.perf_counter() - t0
    verdict(10, elapsed < 60.0, f"12-digit scalar agreement, 6-digit log bounds, {elapsed:.0f}s")

"""Condition checkers against naive definitional enumeration."""

import itertools
import math
import random

import pytest

from hamlab import (
    FConnSpec,
    Graph,
    WorkBudgetExceeded,
    alpha_value,
    check_expansion,
    check_f_connected,
    check_gnp_properties,
    check_joined,
    check_conditions,
    clique_plus_isolated,
    complete,
    complete_bipartite,
    cycle_graph,
    fconn_implies_conditions,
    gnp,
    m_value,
    neighborhood,
    p2_failure_bound,
    path_graph,
    small_vertices,
)
from hamlab.conditions import condition_thresholds


# ---------------------------------------------------------------------------
# Naive oracles (straight from the definitions)


def naive_expansion(g, s, d):
    for a in range(1, s + 1):
        for combo in itertools.combinations(range(g.n), a):
            if len(neighborhood(g, combo)) < d * a:
                return False
    return True


def naive_joined(g, s):
    verts = range(g.n)
    for a_size in range(s, g.n + 1):
        for a in itertools.combinations(verts, a_size):
            rest = [v for v in verts if v not in a]
            for b_size in range(s, len(rest) + 1):
                for b in itertools.combinations(rest, b_size):
                    if not any(g.has_edge(u, v) for u in a for v in b):
                        return False
    return True


def naive_joined_fast(g, s):
    # monotone: enough to check |A| = |B| = s
    verts = range(g.n)
    for a in itertools.combinations(verts, s):
        a_set = set(a)
        rest = [v for v in verts if v not in a_set]
        for b in itertools.combinations(rest, s):
            if not any(g.has_edge(u, v) for u in a for v in b):
                return False
    return True


def naive_f_connected(g, f):
    # every assignment of vertices to A-only / B-only / both
    n = g.n
    for assignment in itertools.product((0, 1, 2), repeat=n):
        a = {v for v in range(n) if assignment[v] in (0, 2)}
        b = {v for v in range(n) if assignment[v] in (1, 2)}
        if len(a) == n or len(b) == n:
            continue
        a_only, b_only = a - b, b - a
        if any(g.has_edge(u, v) for u in a_only for v in b_only):
            continue
        k = min(len(a_only), len(b_only))
        if len(a & b) < f(k):
            return False
    return True


# ---------------------------------------------------------------------------
# Scalars


def test_m_value_examples():
    assert m_value(10**6, 12) == pytest.approx(2.044, abs=2e-3)
    with pytest.raises(ValueError):
        m_value(15, 12)
    assert m_value(10**8, 12) > m_value(10**6, 12)


def test_alpha_examples():
    assert alpha_value(1) == pytest.approx(1 / 36)
    assert alpha_value(2) == pytest.approx(1 / 576)
    vals = [alpha_value(t) for t in range(1, 11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        alpha_value(0)


def test_p2_failure_bound_edges():
    n = 10**6
    d = math.log(n) ** 0.1
    p = (math.log(n) + math.log(math.log(n)) + 5) / n
    res = p2_failure_bound(n, p, d)
    # at this scale the binomial dominates: the bound is honest but vacuous
    assert res.vacuous and res.log_bound == pytest.approx(303.2491, abs=1e-3)
    # smaller joined-constants give a genuinely sub-1 bound
    res_tight = p2_failure_bound(n, p, 12, constant=1.0)
    assert res_tight.bound < 1 and not res_tight.vacuous
    res0 = p2_failure_bound(n, 0.0, d)
    assert res0.vacuous and res0.bound >= 1
    res1 = p2_failure_bound(n, 1.0, d)
    assert res1.bound == 0.0


# ---------------------------------------------------------------------------
# Expansion / joined


def test_expansion_examples():
    assert check_expansion(complete_bipartite(3, 4), 1, 3).holds
    rep = check_expansion(cycle_graph(6), 2, 2)
    assert rep.fails
    s = rep.witness["S"]
    assert len(s) == 2 and len(neighborhood(cycle_graph(6), s)) < 4
    rep = check_expansion(complete_bipartite(1, 5), 1, 2)
    assert rep.fails and len(rep.witness["S"]) == 1


def test_joined_examples():
    g = clique_plus_isolated(5, 1)
    assert check_joined(g, 2).holds
    rep = check_joined(g, 1)
    assert rep.fails
    rep = check_joined(cycle_graph(8), 2)
    assert rep.fails
    a, b = rep.witness["A"], rep.witness["B"]
    assert not any(cycle_graph(8).has_edge(u, v) for u in a for v in b)


def test_exact_agrees_with_naive_enumeration():
    rng = random.Random(99)
    for i in range(200):
        n = rng.randint(3, 8)
        g = gnp(n, rng.uniform(0.1, 0.9), seed=f"xval:{i}")
        s = rng.randint(1, max(1, n // 2))
        d = rng.choice([1, 1.5, 2, 3])
        assert check_expansion(g, s, d).holds == naive_expansion(g, s, d)
        assert check_joined(g, s).holds == naive_joined_fast(g, s)


def subsets(items, max_size):
    return itertools.chain.from_iterable(
        itertools.combinations(items, a) for a in range(1, max_size + 1)
    )


def first_failure(combos, fails):
    """The first combo that fails and its 1-based index, else (None, count)."""
    work = 0
    for combo in combos:
        work += 1
        if fails(combo):
            return combo, work
    return None, work


def outside(g, combo):
    """Vertices outside A u N(A), in increasing order."""
    blocked = set(combo) | neighborhood(g, combo)
    return [v for v in range(g.n) if v not in blocked]


def test_witness_and_work_match_the_definitional_walk():
    """Each enumeration reports the first failing set of its subset order (or
    of its seeded draws) and that set's 1-based index as `work`, exactly as a
    walk of the same order with `neighborhood` and `has_edge` finds them."""
    rng = random.Random(808)
    fconn_checked = 0
    for i in range(200):
        n = rng.randint(3, 10)
        g = gnp(n, rng.uniform(0.1, 0.9), seed=f"pin:{i}")
        verts = list(range(n))
        s = rng.randint(1, max(1, n // 2))
        d = rng.choice([0.5, 1, 1.5, 2, 3])
        seed = rng.randrange(1000)
        for mode in ("exact", "sampled"):
            if mode == "exact":
                draws = subsets(verts, s)
            else:
                draw = random.Random(f"expansion:{seed}")
                draws = (draw.sample(verts, draw.randint(1, s)) for _ in range(60))
            combo, work = first_failure(
                draws, lambda c: len(neighborhood(g, c)) < d * len(c)
            )
            rep = check_expansion(g, s, d, mode=mode, samples=60, seed=seed)
            assert (rep.witness, rep.work) == (
                None if combo is None else {"S": sorted(combo)}, work
            )

            if mode == "exact":
                draws = itertools.combinations(verts, s)
            else:
                draw = random.Random(f"joined:{seed}")
                draws = (draw.sample(verts, s) for _ in range(60))
            combo, work = first_failure(draws, lambda c: len(outside(g, c)) >= s)
            rep = check_joined(g, s, mode=mode, samples=60, seed=seed)
            assert (rep.witness, rep.work) == (
                None
                if combo is None
                else {"A": sorted(combo), "B": outside(g, combo)[:s]},
                work,
            )

            small = small_vertices(g)
            big = [v for v in verts if v not in small]
            gd = d / 2
            if mode == "exact":
                draws = subsets(big, s)
            else:
                draw = random.Random(f"gnp-props:{seed}")
                draws = (
                    tuple(draw.sample(big, draw.randint(1, min(s, len(big)))))
                    for _ in range(2000)
                    if big
                )
            combo, work = first_failure(
                draws, lambda c: len(neighborhood(g, c)) < 3 * gd * len(c)
            )
            rep = check_gnp_properties(
                g, d=gd, distance_bound=0, s_small=s, mode=mode, seed=seed
            )
            assert rep.work == math.comb(len(small), 2) + work
            weak = rep.params["sub"]["weak_expansion"]
            if combo is not None:
                assert weak == "fails"
            else:
                assert weak == ("holds" if mode == "exact" else "indeterminate")
            if g.min_degree() < 2:
                assert rep.witness["property"] == "min_degree"
            else:
                assert rep.witness == (
                    None
                    if combo is None
                    else {"property": "weak_expansion", "A": list(combo)}
                )

        # f-connectivity: the first small side S of a refuting separation
        spec = (FConnSpec.constant(1), FConnSpec.constant(2), FConnSpec.affine(1, 0))[i % 3]
        combo, work = first_failure(
            subsets(verts, n // 2),
            lambda c: len(neighborhood(g, c)) < min(spec(len(c)), n - 2 * len(c) + 1),
        )
        if len(g.edges) == n * (n - 1) // 2:
            work = 0  # complete graphs short-circuit
        rep = check_f_connected(g, spec)
        assert (rep.witness, rep.work) == (
            None
            if combo is None
            else {
                "A": sorted(set(combo) | neighborhood(g, combo)),
                "B": [v for v in verts if v not in combo],
            },
            work,
        )

        if n > 8:
            continue
        # implication (i) under a premise that always holds
        f = FConnSpec.constant(0)
        premise = check_f_connected(g, f)
        s_big = rng.randint(1, max(1, n // 2))
        combo, work = first_failure(
            subsets(verts, s),
            lambda c: len(neighborhood(g, c)) < d * len(c)
            and len(c) <= len(outside(g, c)),
        )
        rep = fconn_implies_conditions(g, f, d=d, s_small=s, s_big=s_big)
        if combo is None:
            joined = check_joined(g, s_big)
            expected = (joined.witness and {**joined.witness, "implication": "joined"})
            work += joined.work
        else:
            expected = {"implication": "expansion", "A": list(combo)}
        assert (rep.witness, rep.work) == (expected, premise.work + work)
        fconn_checked += 1
    assert fconn_checked >= 80


def skipped_before(g, items, witness, bound):
    """Does the pruned walk skip a whole block of subsets before `witness`?

    It does when some prefix P that the walk meets before the witness (in
    `combinations` order over the sorted `items`, and not a prefix of the
    witness) has |N(P)| - (a - |P|) >= bound(a), a = |witness|: the walk
    counts that block, or one holding it, without testing it."""
    a = len(witness)
    return any(
        prefix < tuple(witness[:k])
        and len(neighborhood(g, prefix)) - (a - k) >= bound(a)
        for k in range(1, a)
        for prefix in itertools.combinations(items, k)
    )


def dense_with_a_thin_corner(n, p, seed):
    """gnp(n, p) whose last two vertices keep only each other and a common
    set K of n // 3 earlier vertices, and whose vertex n // 2 keeps about
    half of K's size in neighbours.  The thin pair fails expansion late in
    the walk, after the dense vertices' blocks were skipped."""
    g = gnp(n, p, seed=seed)
    rng = random.Random(seed)
    thin = {n - 2, n - 1}
    common = set(rng.sample(range(n - 2), n // 3))
    few = set(rng.sample(range(n - 2), n // 6 + 2)) - {n // 2}
    edges = [(u, v) for u, v in g.edges if not thin & {u, v} and n // 2 not in (u, v)]
    edges += [(n - 2, n - 1)] + [(w, v) for w in thin for v in common]
    edges += [(n // 2, v) for v in few]
    return Graph(n, edges)


def test_pruned_walk_matches_the_flat_walk_on_dense_graphs():
    """On dense graphs the exact walk skips most blocks of subsets by the
    neighbourhood bound; its witness and `work` still match a flat walk of
    `combinations`, including witnesses that lie after a skipped block."""
    rng = random.Random(2024)
    after_skip = {"expansion": 0, "joined": 0, "implication": 0, "weak": 0}
    for i in range(32):
        n = rng.randint(20, 40)
        p = rng.uniform(0.6, 0.95)
        if i % 2:
            g = dense_with_a_thin_corner(n, p, f"thin:{i}")
            d = rng.uniform(n / 6, n / 3 + 1)
        else:
            g = gnp(n, p, seed=f"dense:{i}")
            d = rng.uniform(g.min_degree() / 2, g.min_degree())
        verts = list(range(n))
        s = rng.randint(2, 3)

        def bound(a):
            return d * a

        combo, work = first_failure(
            subsets(verts, s), lambda c: len(neighborhood(g, c)) < bound(len(c))
        )
        rep = check_expansion(g, s, d)
        assert (rep.witness, rep.work) == (
            None if combo is None else {"S": sorted(combo)}, work
        )
        if combo is not None and skipped_before(g, verts, combo, bound):
            after_skip["expansion"] += 1

        combo, work = first_failure(
            itertools.combinations(verts, s), lambda c: len(outside(g, c)) >= s
        )
        rep = check_joined(g, s)
        assert (rep.witness, rep.work) == (
            None if combo is None else {"A": sorted(combo), "B": outside(g, combo)[:s]},
            work,
        )
        if combo is not None and skipped_before(g, verts, combo, lambda a: n - 2 * a + 1):
            after_skip["joined"] += 1

        # implication (i) under a premise that always holds
        if n <= 26:
            f = FConnSpec.constant(0)

            def implication(a):
                return min(d * a, n - 2 * a + 1)

            combo, work = first_failure(
                subsets(verts, s),
                lambda c: len(neighborhood(g, c)) < implication(len(c)),
            )
            rep = fconn_implies_conditions(g, f, d=d, s_small=s, s_big=n)
            premise = check_f_connected(g, f)
            assert rep.params["premise"] == "holds"
            if combo is None:
                assert rep.witness is None
            else:
                assert rep.witness == {"implication": "expansion", "A": list(combo)}
                if skipped_before(g, verts, combo, implication):
                    after_skip["implication"] += 1
            joined_work = 0 if combo is not None else check_joined(g, n).work
            assert rep.work == premise.work + work + joined_work

        # weak expansion over the vertices above a degree threshold
        threshold = sorted(g.degree(v) for v in verts)[rng.randint(0, 2)]
        small = small_vertices(g, threshold)
        big = [v for v in verts if v not in small]
        gd = d / 3
        combo, work = first_failure(
            subsets(big, s), lambda c: len(neighborhood(g, c)) < 3 * gd * len(c)
        )
        rep = check_gnp_properties(g, threshold=threshold, d=gd, distance_bound=0, s_small=s)
        assert rep.work == math.comb(len(small), 2) + work
        assert rep.params["sub"]["weak_expansion"] == ("holds" if combo is None else "fails")
        if combo is not None:
            assert rep.witness == {"property": "weak_expansion", "A": list(combo)}
            if skipped_before(g, big, combo, lambda a: 3 * gd * a):
                after_skip["weak"] += 1
    assert all(count >= 3 for count in after_skip.values()), after_skip


def test_joined_equivalence_with_full_quantifier():
    # the |A| = |B| = s reduction matches the unrestricted definition
    rng = random.Random(5)
    for i in range(25):
        n = rng.randint(4, 7)
        g = gnp(n, rng.uniform(0.2, 0.8), seed=f"quant:{i}")
        s = rng.randint(1, n // 2)
        assert check_joined(g, s).holds == naive_joined(g, s)


def test_joined_monotone_in_s_and_edges():
    rng = random.Random(17)
    for i in range(40):
        n = rng.randint(5, 9)
        g = gnp(n, rng.uniform(0.2, 0.6), seed=f"mono:{i}")
        held = False
        for s in range(1, n // 2 + 1):
            now = check_joined(g, s).holds
            assert now or not held, "joined must be monotone in s"
            held = held or now
        # adding an edge never breaks the joined condition
        s = rng.randint(1, max(1, n // 2))
        before = check_joined(g, s).holds
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if before and non_edges:
            g2 = g.with_edge(*rng.choice(non_edges))
            assert check_joined(g2, s).holds


def test_expansion_monotone_in_d():
    rng = random.Random(23)
    for i in range(30):
        g = gnp(rng.randint(5, 9), rng.uniform(0.3, 0.8), seed=f"dmono:{i}")
        s = rng.randint(1, 2)
        if check_expansion(g, s, 2.0).holds:
            assert check_expansion(g, s, 1.0).holds


def test_budget_refusal_and_sampled_mode():
    g = complete(500)
    with pytest.raises(WorkBudgetExceeded):
        check_expansion(g, 16, 12, budget=10**6)
    rep = check_expansion(g, 16, 12, mode="sampled", samples=50)
    assert rep.verdict == "indeterminate"  # sampling cannot certify holds
    rep = check_expansion(complete_bipartite(1, 30), 2, 5, mode="sampled", samples=500)
    assert rep.fails


def test_paper_conditions_complete_graph():
    rep = check_conditions(complete(50), 12, variant="P1pP2p")
    assert rep.holds
    assert rep.params["sub"]["expansion"] == "holds"


def test_paper_conditions_bipartite_counterexample():
    # strong local expander, joined threshold degenerate, yet not Hamiltonian
    g = complete_bipartite(15, 16)
    rep = check_conditions(g, 12, variant="P1pP2p")
    assert rep.holds
    assert "joined" in rep.params["vacuous"]
    assert rep.params["sub"]["expansion"] == "holds"


def test_paper_conditions_clique_plus_isolated():
    # the paper-shaped P2-but-not-P1 construction at desk scale
    g = clique_plus_isolated(37, 3)
    assert check_joined(g, 4).holds
    rep = check_expansion(g, 1, 2)
    assert rep.fails and rep.witness["S"][0] >= 37  # an isolated vertex


def test_condition_thresholds_values():
    th = condition_thresholds(31, 12, "P1pP2p")
    assert th.s_small == pytest.approx(31 * math.log(12) / (12 * math.log(31)))
    th2 = condition_thresholds(10**6, 12, "P1P2")
    assert th2.s_small == pytest.approx(10**6 / (12 * m_value(10**6, 12)))


# ---------------------------------------------------------------------------
# f-connectivity


def test_f_connected_examples():
    p3 = path_graph(3)
    assert check_f_connected(p3, FConnSpec.constant(1)).holds
    rep = check_f_connected(p3, FConnSpec.constant(2))
    assert rep.fails
    a, b = rep.witness["A"], rep.witness["B"]
    assert sorted(set(a) & set(b)) == [1]
    assert check_f_connected(complete(4), FConnSpec.constant(2)).holds  # vacuous


def test_implication_i_stops_at_half_the_vertices():
    """Sets of more than n/2 vertices cannot fail implication (i), so the
    default s_small = n // 2 gives the verdicts and witnesses of s_small = n
    with less work."""
    rep = fconn_implies_conditions(complete(26), FConnSpec.klogk())
    assert (rep.verdict, rep.params["s_small"], rep.work) == ("holds", 13, 38754757)
    rng = random.Random("s-small")
    fns = [FConnSpec.constant(0), FConnSpec.constant(1), FConnSpec.klogk()]
    verdicts = set()
    for i in range(120):
        n = rng.randint(2, 11)
        g = gnp(n, rng.uniform(0.1, 0.9), seed=f"s-small:{i}")
        f, d = fns[i % 3], rng.choice((0.5, 1.0, 2.0, 12.0))
        rep = fconn_implies_conditions(g, f, d=d)
        full = fconn_implies_conditions(g, f, d=d, s_small=g.n)
        assert (rep.verdict, rep.witness) == (full.verdict, full.witness)
        assert rep.work <= full.work
        if rep.params["premise"] == "holds":
            assert rep.params["s_small"] == n // 2
        verdicts.add(rep.verdict)
    assert verdicts == {"holds", "fails", "indeterminate"}


def test_f_connected_is_bounded_by_the_work_budget(monkeypatch):
    """The subset walk decides by its budget, not by a size cap: C_27 has
    2^26 - 1 sides of size <= 13, within the default 1e8 budget, and the walk
    decides them all (most in skipped blocks, each still counted in `work`),
    while C_28's 154 276 027 sides exceed the budget and are refused before
    walking: the budget counts subsets, not walk steps."""
    monkeypatch.delenv("HAMLAB_WORK_BUDGET", raising=False)
    rep = check_f_connected(cycle_graph(27), FConnSpec.constant(2))
    assert rep.holds and rep.work == 2**26 - 1
    with pytest.raises(WorkBudgetExceeded, match="f-connectivity"):
        check_f_connected(cycle_graph(28), FConnSpec.constant(2))


def test_f_connected_agrees_with_naive():
    rng = random.Random(31)
    fns = [FConnSpec.constant(1), FConnSpec.constant(2), FConnSpec.affine(1, 0)]
    for i in range(60):
        n = rng.randint(3, 7)
        g = gnp(n, rng.uniform(0.2, 0.9), seed=f"fconn:{i}")
        f = rng.choice(fns)
        assert check_f_connected(g, f).holds == naive_f_connected(g, f)


def test_fconn_implications():
    rep = fconn_implies_conditions(complete(10), FConnSpec.klogk())
    assert rep.holds
    # two K5s sharing a vertex: separator of size 1 < f(4)
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(4, 9) for v in range(u + 1, 9)]
    shared = Graph(9, edges)
    rep = check_f_connected(shared, FConnSpec.constant(30))
    assert rep.fails
    rep = fconn_implies_conditions(shared, FConnSpec.constant(30))
    assert rep.verdict == "indeterminate" and rep.params["premise"] == "fails"
    rep = fconn_implies_conditions(cycle_graph(10), FConnSpec.klogk())
    assert rep.params["premise"] == "fails"


# ---------------------------------------------------------------------------
# Small vertices and the sparse-random-graph properties


def test_min_degree_witness_names_a_vertex_and_its_degree():
    rep = check_gnp_properties(path_graph(5))
    assert rep.witness == {"property": "min_degree", "vertex": 0, "degree": 1}
    rep = check_gnp_properties(clique_plus_isolated(4, 2))
    assert rep.witness == {"property": "min_degree", "vertex": 4, "degree": 0}


def test_small_vertices():
    assert small_vertices(complete(5), 2) == set()
    star = complete_bipartite(1, 9)
    assert small_vertices(star, 1) == set(range(1, 10))
    g = gnp(1000, 2 * math.log(1000) / 1000, seed=1)
    expected = {v for v in range(g.n) if g.degree(v) <= math.log(g.n) ** 0.2}
    assert small_vertices(g) == expected


def test_gnp_properties_reports():
    rep = check_gnp_properties(complete(20))
    sub = rep.params["sub"]
    assert sub["min_degree"] == "holds"
    assert sub["small_distance"] == "holds"  # SMALL is empty
    assert rep.params["low_degree_count"] == 0

    rep = check_gnp_properties(path_graph(5))
    assert rep.params["sub"]["min_degree"] == "fails"

    # two low-degree vertices hanging off adjacent hub cliques: distance 3
    k4 = [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    hub = Graph(6, k4 + [(2, 0), (2, 4), (3, 1), (3, 5)])
    rep = check_gnp_properties(hub, threshold=2, d=0.1)
    assert rep.params["sub"]["min_degree"] == "holds"
    assert rep.params["sub"]["small_distance"] == "fails"
    assert rep.witness["distance"] == 3

"""Checkers for the expansion / joined hypotheses and their scalar calculators.

Exact checks enumerate candidate sets inside a work budget (`graph.work_budget`:
default 1e8 subset inspections, overridable via the HAMLAB_WORK_BUDGET
environment variable).  A report's `work` counts every subset decided, whether
tested one by one or skipped within a block by the neighbourhood bound.
Sampled mode only ever refutes: it reports `fails` with a witness or
`indeterminate`, never `holds`.  The P1/P2 and f-connectivity checks walk
their candidate sets with one walker, counting neighbourhoods with adjacency
bitmasks (`graph.adjacency_masks`); every `fails` witness is then re-validated
against the raw definition (`neighborhood`, `has_edge`, `is_separation`)
before it is returned.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .graph import (
    SoundnessError, WorkBudgetExceeded, adjacency_masks, bfs_distances, neighborhood,
    neighborhood_mask, work_budget,
)

HOLDS = "holds"
FAILS = "fails"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    verdict: str
    witness: object = None
    params: dict = field(default_factory=dict)
    work: int = 0
    mode: str = "exact"

    @property
    def holds(self):
        return self.verdict == HOLDS

    @property
    def fails(self):
        return self.verdict == FAILS

    def to_json(self):
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "witness": self.witness,
            "params": self.params,
            "work": self.work,
            "mode": self.mode,
        }


# ---------------------------------------------------------------------------
# Scalar calculators


def m_value(n, d):
    """Threshold normalizer (log n * logloglog n) / (loglog n * log d)."""
    if d <= 1:
        raise ValueError("log d must be positive (d > 1 required)")
    ln = math.log(n)
    if ln <= 0:
        raise ValueError("log n must be positive")
    lln = math.log(ln)
    if lln <= 0:
        raise ValueError("log log n must be positive (n >= 16 required)")
    llln = math.log(lln)
    if llln <= 0:
        raise ValueError("log log log n must be positive (n >= 16 required)")
    return ln * llln / (lln * math.log(d))


def alpha_value(tau):
    """Averaging constant (1/9) * (4*tau)^(-tau) for tau-sequence selection."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    return (1.0 / 9.0) * (4.0 * tau) ** (-float(tau))


@dataclass(frozen=True)
class P2Bound:
    bound: float
    log_bound: float
    s: float
    vacuous: bool


def p2_failure_bound(n, p, d, constant=4130.0):
    """Upper bound C(n,s)^2 * (1-p)^(s^2) on Pr[P2 fails], in log space.

    s is the joined-condition threshold n / (constant * m(n, d)); the binomial
    is evaluated at real s through lgamma.  The bound is vacuous when >= 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    m = m_value(n, d)
    s = n / (constant * m)
    log_binom = (
        math.lgamma(n + 1) - math.lgamma(s + 1) - math.lgamma(n - s + 1)
    )
    if p == 1.0:
        return P2Bound(0.0, -math.inf, s, False)
    log_bound = 2.0 * log_binom + (s * s) * math.log1p(-p)
    bound = math.exp(log_bound) if log_bound < 700 else math.inf
    return P2Bound(bound, log_bound, s, log_bound >= 0.0)


# ---------------------------------------------------------------------------
# Thresholds


@dataclass(frozen=True)
class ConditionThresholds:
    d: float
    s_small: float
    s_big: float


def condition_thresholds(n, d, variant="P1P2"):
    """The size thresholds of the two condition variants, as real numbers."""
    if variant == "P1P2":
        m = m_value(n, d)
        return ConditionThresholds(d=d, s_small=n / (d * m), s_big=n / (4130.0 * m))
    if variant == "P1pP2p":
        ratio = math.log(d) / math.log(n)
        return ConditionThresholds(d=d, s_small=n * ratio / d, s_big=n * ratio / 1035.0)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Expansion (P1-style) and joined (P2-style) checks


def _draws(items, size, mode, budget, samples, stream, what):
    """The candidate sets of one walk over `items`, for `_first_short`.

    `size` is a set size, or a range of them.  Exact mode checks the number of
    subsets of those sizes against the work budget (`what` names the check in
    the error) and returns `(items, sizes)`, which `_first_short` walks by
    size and then lexicographically.  Sampled mode yields `samples` draws from
    the generator seeded with `stream`; for a range it first draws each size
    with `randint`.
    """
    sizes = size if isinstance(size, range) else (size,)
    if mode == "exact":
        cap = work_budget(budget)
        totals = itertools.accumulate(math.comb(len(items), a) for a in sizes)
        if any(total > cap for total in totals):
            raise WorkBudgetExceeded(f"exact {what} check needs > {cap} subset inspections")
        return items, sizes
    if mode == "sampled":
        rng = random.Random(stream)
        draws = range(samples if sizes else 0)  # no draws from an empty size range
        if isinstance(size, range):
            return (rng.sample(items, rng.randint(size[0], size[-1])) for _ in draws)
        return (rng.sample(items, size) for _ in draws)
    raise ValueError(f"unknown mode {mode!r}")


def _first_short(g, draws, bound):
    """The first drawn set S with |N(S)| < bound(|S|), its 1-based index and
    its neighbourhood bitmask; (None, number of draws, None) when none is.

    Exact draws `(items, sizes)` are walked depth first over prefixes, in the
    order of `itertools.combinations` within each size.  A prefix P with r
    items still to add has |N(S)| >= |N(P)| - r for every completion S, since
    N(S) keeps all of N(P) but the added items.  When that already meets the
    bound, the walk counts the block of completions without testing them.
    """
    masks = adjacency_masks(g)
    if not isinstance(draws, tuple):
        work = 0
        for combo in draws:
            work += 1
            nb = neighborhood_mask(masks, combo)
            if nb.bit_count() < bound(len(combo)):
                return combo, work, nb
        return None, work, None
    items, sizes = draws
    m = len(items)
    around_of = [masks[v] for v in items]
    bit_of = [1 << v for v in items]
    chosen = []
    work = 0

    def walk(start, r, around, inside):
        """Complete the prefix `chosen` (masks `around`, `inside`) by r > 0
        of items[start:]; the first short set's neighbourhood, else None."""
        nonlocal work
        for i in range(start, m - r + 1):
            u, b = around | around_of[i], inside | bit_of[i]
            if (u & ~b).bit_count() - r + 1 >= limit:  # a leaf is a block of one
                work += math.comb(m - i - 1, r - 1)
                continue
            chosen.append(items[i])
            if r == 1:
                work += 1
                return u & ~b
            nb = walk(i + 1, r - 1, u, b)
            if nb is not None:
                return nb
            chosen.pop()
        return None

    for a in sizes:
        limit = bound(a)  # read by `walk`
        nb = walk(0, a, 0, 0)
        if nb is not None:
            return tuple(chosen), work, nb
    return None, work, None


def _nonexpanding(g, witness, bound, what):
    """Re-check a witness against the definition: |N(witness)| < bound."""
    if len(neighborhood(g, witness)) >= bound:
        raise SoundnessError(f"{what} witness {witness} expands")


def _combined_verdict(sub):
    """Fails when any sub-check fails, else indeterminate when any is."""
    if FAILS in sub.values():
        return FAILS
    if INDETERMINATE in sub.values():
        return INDETERMINATE
    return HOLDS


def check_expansion(g, s, d, mode="exact", budget=None, samples=2000, seed=0):
    """Does every set S with |S| <= s satisfy |N(S)| >= d*|S|?

    Exact mode enumerates subsets by increasing size (so a failure witness has
    minimal size, lexicographically first).  Sampled mode draws random subsets
    and can only refute.
    """
    if not 1 <= s <= g.n:
        raise ValueError("need 1 <= s <= n")
    params = {"s": s, "d": d}
    draws = _draws(
        range(g.n), range(1, s + 1), mode, budget, samples, f"expansion:{seed}", "expansion"
    )
    combo, work, _ = _first_short(g, draws, lambda a: d * a)
    if combo is not None:
        witness = sorted(combo)
        _nonexpanding(g, witness, d * len(witness), "expansion")
        return ConditionReport("expansion", FAILS, {"S": witness}, params, work, mode)
    verdict = HOLDS if mode == "exact" else INDETERMINATE
    return ConditionReport("expansion", verdict, None, params, work, mode)


def check_joined(g, s, mode="exact", samples=2000, seed=0):
    """Is there an edge between every two disjoint sets of size >= s?

    Implemented via the equivalent form: no A with |A| = s leaves s or more
    vertices outside A u N(A).
    """
    if s < 1:
        raise ValueError("need s >= 1")
    params = {"s": s}
    if s > g.n:
        return ConditionReport("joined", HOLDS, None, params, 0, mode)
    draws = _draws(range(g.n), s, mode, None, samples, f"joined:{seed}", "joined")
    combo, work, nb = _first_short(g, draws, lambda a: g.n - 2 * a + 1)
    if combo is not None:
        a = sorted(combo)
        b = [v for v in range(g.n) if v not in a and not nb >> v & 1][:s]
        if len(b) < s or any(g.has_edge(u, v) for u in a for v in b):
            raise SoundnessError(f"joined witness {a}, {b} is joined")
        return ConditionReport("joined", FAILS, {"A": a, "B": b}, params, work, mode)
    verdict = HOLDS if mode == "exact" else INDETERMINATE
    return ConditionReport("joined", verdict, None, params, work, mode)


def check_conditions(g, d, variant="P1P2", mode="exact", seed=0):
    """Evaluate both paper conditions at the variant's computed thresholds.

    A threshold outside [1, n] makes that sub-check vacuous at this scale; it
    is reported as holding with a `vacuous` marker rather than enumerated.
    """
    th = condition_thresholds(g.n, d, variant)
    s_small = math.floor(th.s_small)
    s_big = math.ceil(th.s_big)
    params = {
        "variant": variant,
        "d": d,
        "s_small": th.s_small,
        "s_big": th.s_big,
        "vacuous": [],
    }
    work = 0
    sub = {}
    witness = None
    if 1.0 <= th.s_small <= g.n:
        rep = check_expansion(g, s_small, d, mode=mode, seed=seed)
        sub["expansion"] = rep.verdict
        work += rep.work
        if rep.fails:
            witness = rep.witness
    else:
        sub["expansion"] = HOLDS
        params["vacuous"].append("expansion")
    if 1.0 <= th.s_big <= g.n:
        rep = check_joined(g, s_big, mode=mode, seed=seed)
        sub["joined"] = rep.verdict
        work += rep.work
        if rep.fails and witness is None:
            witness = rep.witness
    else:
        sub["joined"] = HOLDS
        params["vacuous"].append("joined")
    params["sub"] = sub
    verdict = _combined_verdict(sub)
    return ConditionReport(variant, verdict, witness, params, work, mode)


# ---------------------------------------------------------------------------
# f-connectivity


@dataclass(frozen=True)
class FConnSpec:
    """A connectivity demand f(k) on every separation with smaller side k."""

    name: str
    fn: Callable[[int], float]

    def __call__(self, k):
        return self.fn(k)

    @staticmethod
    def quadratic():
        return FConnSpec("quadratic", lambda k: 2.0 * (k + 1) ** 2)

    @staticmethod
    def klogk():
        return FConnSpec(
            "klogk", lambda k: 12.0 * math.e**12 + (k * math.log(k) if k > 1 else 0.0)
        )

    @staticmethod
    def affine(a, b):
        return FConnSpec(f"affine({a},{b})", lambda k: a * k + b)

    @staticmethod
    def constant(c):
        return FConnSpec(f"constant({c})", lambda k: float(c))

    @staticmethod
    def preset(name):
        if name == "klogk":
            return FConnSpec.klogk()
        if name == "quadratic":
            return FConnSpec.quadratic()
        raise ValueError(f"unknown preset {name!r}")


def is_separation(g, a, b):
    a, b = set(a), set(b)
    if a | b != set(range(g.n)) or len(a) == g.n or len(b) == g.n:
        return False
    return not any(g.has_edge(u, v) for u in a - b for v in b - a)


def check_f_connected(g, f):
    """Exact f-connectivity decision: every separation (A, B) with
    |A \\ B| <= |B \\ A| has |A n B| >= f(|A \\ B|).

    The smaller strict side S = A \\ B of a separation has N(S) inside A n B
    and |S| <= n - |S| - |N(S)|; conversely (S u N(S), V \\ S) is such a
    separation.  So G fails exactly when some nonempty S with |S| <= n/2 has
    |N(S)| < min(f(|S|), n - 2|S| + 1), which the subset walker finds first in
    size-then-lexicographic order.  Complete graphs short-circuit: both strict
    sides of a separation would have to be nonempty and mutually nonadjacent,
    so no separation exists and every f holds vacuously.  Any other graph is
    walked only when its sides of size <= n/2 fit in the work budget.
    """
    params = {"f": f.name}
    if len(g.edges) == g.n * (g.n - 1) // 2:
        return ConditionReport("f-connected", HOLDS, None, params, 0, "exact")
    sizes = range(1, g.n // 2 + 1)
    draws = _draws(range(g.n), sizes, "exact", None, 0, "", "f-connectivity")
    combo, work, nb = _first_short(g, draws, lambda k: min(f(k), g.n - 2 * k + 1))
    if combo is None:
        return ConditionReport("f-connected", HOLDS, None, params, work, "exact")
    a = sorted(set(combo) | {v for v in range(g.n) if nb >> v & 1})
    b = [v for v in range(g.n) if v not in combo]
    k = len(set(a) - set(b))  # |A \ B| <= |B \ A| = n - |A| and |A n B| < f(k)
    if not is_separation(g, a, b) or k > g.n - len(a) or len(set(a) & set(b)) >= f(k):
        raise SoundnessError(f"f-connectivity witness {a}, {b} does not refute")
    return ConditionReport("f-connected", FAILS, {"A": a, "B": b}, params, work, "exact")


def fconn_implies_conditions(g, f, d=12.0, s_small=None, s_big=1):
    """Instance-level check of the two implications behind the f-connectivity
    route to Hamiltonicity.

    (i) every A with |A| <= s_small satisfies |N(A)| >= d|A| or
        |A| > |V \\ (A u N(A))|;
    (ii) no two disjoint sets of size >= s_big miss a connecting edge.

    s_small defaults to n // 2: a set A of more than n/2 vertices satisfies
    (i) in every graph, since n - |A| - |N(A)| < n/2 < |A|.  The
    implications are only asserted when the premise (f-connectivity) holds;
    otherwise the report says the premise failed.
    """
    premise = check_f_connected(g, f)
    params = {"f": f.name, "d": d, "premise": premise.verdict}
    if not premise.holds:
        return ConditionReport(
            "fconn-implications",
            INDETERMINATE,
            premise.witness,
            params,
            premise.work,
            "exact",
        )
    if s_small is None:
        s_small = g.n // 2
    params["s_small"] = s_small
    params["s_big"] = s_big

    def bound(a):  # |N(A)| < d|A| and |A| <= n - |A| - |N(A)|
        return min(d * a, g.n - 2 * a + 1)

    draws = _draws(
        range(g.n), range(1, s_small + 1), "exact", None, 0, "", "implication (i)"
    )
    combo, work, _ = _first_short(g, draws, bound)
    work += premise.work
    if combo is not None:
        _nonexpanding(g, combo, bound(len(combo)), "implication (i)")
        return ConditionReport(
            "fconn-implications",
            FAILS,
            {"implication": "expansion", "A": list(combo)},
            params,
            work,
            "exact",
        )
    joined = check_joined(g, s_big)
    work += joined.work
    if joined.fails:
        witness = dict(joined.witness)
        witness["implication"] = "joined"
        return ConditionReport("fconn-implications", FAILS, witness, params, work, "exact")
    return ConditionReport("fconn-implications", HOLDS, None, params, work, "exact")


# ---------------------------------------------------------------------------
# Random-graph structural properties


def small_vertices(g, threshold=None):
    """Vertices of degree at most the threshold (default (log n)^0.2)."""
    if threshold is None:
        threshold = math.log(g.n) ** 0.2 if g.n >= 2 else 0.0
    return {v for v in range(g.n) if g.degree(v) <= threshold}


def check_gnp_properties(
    g,
    threshold=None,
    d=None,
    distance_bound=250,
    s_small=None,
    mode="exact",
    seed=0,
):
    """Report the four sparse-random-graph properties of the G(n, p) argument:

    (1) min degree >= 2; (2) small vertices pairwise far apart; (3) sets
    avoiding small vertices expand by 3d; (4) few vertices of degree <= 11.
    A failing (1) names the lowest-id vertex of minimum degree and its degree.
    (3) walks the sets of up to `s_small` non-small vertices in `mode`, and
    samples them when an exact walk would exceed the work budget; params
    `mode3` names the walk that ran.  An unknown mode raises ValueError.
    (4) has no cap to be judged against at this scale, so it is reported as
    holding with a `vacuous` marker; params `low_degree_count` holds the count.
    """
    if d is None:
        d = math.log(g.n) ** 0.1 if g.n >= 2 else 1.0
    small = small_vertices(g, threshold)
    params = {"d": d, "threshold": threshold, "distance_bound": distance_bound}
    sub = {}
    witness = None
    work = 0

    sub["min_degree"] = HOLDS if g.min_degree() >= 2 else FAILS
    if sub["min_degree"] == FAILS:
        v = min(range(g.n), key=g.degree)
        witness = {"property": "min_degree", "vertex": v, "degree": g.degree(v)}

    sub["small_distance"] = HOLDS
    ordered = sorted(small)
    for i, u in enumerate(ordered):
        dist = bfs_distances(g, u)
        for v in ordered[i + 1 :]:
            work += 1
            if 0 <= dist[v] < distance_bound:
                sub["small_distance"] = FAILS
                if witness is None:
                    witness = {
                        "property": "small_distance",
                        "pair": [u, v],
                        "distance": dist[v],
                    }
                break
        if sub["small_distance"] == FAILS:
            break

    if s_small is None:
        s_small = max(1, int(g.n ** 0.5) // 4) if g.n >= 4 else 1
    params["s_small"] = s_small
    big = sorted(set(range(g.n)) - small)
    sizes = range(1, min(s_small, len(big)) + 1)
    stream = f"gnp-props:{seed}"
    try:
        draws = _draws(big, sizes, mode, None, 2000, stream, "weak expansion")
    except WorkBudgetExceeded:
        mode = "sampled"
        draws = _draws(big, sizes, mode, None, 2000, stream, "weak expansion")
    combo, walked, _ = _first_short(g, draws, lambda a: 3 * d * a)
    work += walked
    if combo is None:
        sub["weak_expansion"] = HOLDS if mode == "exact" else INDETERMINATE
    else:
        _nonexpanding(g, combo, 3 * d * len(combo), "weak expansion")
        sub["weak_expansion"] = FAILS
        if witness is None:
            witness = {"property": "weak_expansion", "A": list(combo)}
    params["mode3"] = mode

    params["low_degree_count"] = sum(1 for v in range(g.n) if g.degree(v) <= 11)
    sub["low_degree_count"] = HOLDS
    params["vacuous"] = ["low_degree_count"]

    params["sub"] = sub
    params["small"] = sorted(small)
    verdict = _combined_verdict(sub)
    return ConditionReport("gnp-properties", verdict, witness, params, work, mode)

"""Checkers for the expansion / joined hypotheses and their scalar calculators.

Exact checks enumerate candidate sets inside a work budget (default 1e8 subset
inspections, overridable via the HAMLAB_WORK_BUDGET environment variable).
Sampled mode only ever refutes: it reports `fails` with a witness or
`indeterminate`, never `holds`.  Every `fails` witness is re-validated against
the raw definition before it is returned.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from .graph import bfs_distances, neighborhood

DEFAULT_WORK_BUDGET = 10**8
DEFAULT_FCONN_N = 18


class WorkBudgetExceeded(RuntimeError):
    """An exact enumeration would exceed (or did exceed) the work budget."""


def work_budget(explicit=None):
    """The explicit budget, else HAMLAB_WORK_BUDGET, else the default.

    The variable takes a non-negative integer, also in float notation with an
    integral value such as 1e8; anything else raises ValueError.
    """
    if explicit is not None:
        return explicit
    env = os.environ.get("HAMLAB_WORK_BUDGET")
    if env:
        value = _integral(env)
        if value is None or value < 0:
            raise ValueError(
                f"HAMLAB_WORK_BUDGET must be a non-negative integer such as "
                f"100000000 or 1e8, got {env!r}"
            )
        return value
    return DEFAULT_WORK_BUDGET


def _integral(text):
    """The integer `text` spells, directly or as an integral float, or None."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        number = float(text)
    except ValueError:
        return None
    return int(number) if number.is_integer() else None


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
    constants: dict = field(
        default_factory=lambda: {
            "joined": 4130,
            "joined_variant": 1035,
            "good_ratio_denom": 43,
            "min_d": 12,
        }
    )


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


def _subset_count(n, max_size):
    total = 0
    for a in range(1, max_size + 1):
        total += math.comb(n, a)
        if total > 10**18:
            break
    return total


def _subsets(items, max_size):
    """Subsets of 1..max_size members: by size, then lexicographically."""
    return itertools.chain.from_iterable(
        itertools.combinations(items, a) for a in range(1, max_size + 1)
    )


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
    vertices = list(range(g.n))
    work = 0
    params = {"s": s, "d": d}
    if mode == "exact":
        cap = work_budget(budget)
        if _subset_count(g.n, s) > cap:
            raise WorkBudgetExceeded(
                f"exact expansion check needs > {cap} subset inspections"
            )
        combos = _subsets(vertices, s)
    elif mode == "sampled":
        rng = random.Random(f"expansion:{seed}")
        combos = (rng.sample(vertices, rng.randint(1, s)) for _ in range(samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for combo in combos:
        work += 1
        if len(neighborhood(g, combo)) < d * len(combo):
            witness = sorted(combo)
            assert len(neighborhood(g, witness)) < d * len(witness)
            return ConditionReport(
                "expansion", FAILS, {"S": witness}, params, work, mode
            )
    verdict = HOLDS if mode == "exact" else INDETERMINATE
    return ConditionReport("expansion", verdict, None, params, work, mode)


def _joined_witness(g, a_set):
    """Vertices outside A with no neighbor in A."""
    blocked = set(a_set) | neighborhood(g, a_set)
    return [v for v in range(g.n) if v not in blocked]


def check_joined(g, s, mode="exact", budget=None, samples=2000, seed=0):
    """Is there an edge between every two disjoint sets of size >= s?

    Implemented via the equivalent form: no A with |A| = s leaves s or more
    vertices outside A u N(A).
    """
    if s < 1:
        raise ValueError("need s >= 1")
    params = {"s": s}
    work = 0
    if s > g.n:
        return ConditionReport("joined", HOLDS, None, params, work, mode)
    vertices = list(range(g.n))
    if mode == "exact":
        cap = work_budget(budget)
        if math.comb(g.n, s) > cap:
            raise WorkBudgetExceeded(
                f"exact joined check needs > {cap} subset inspections"
            )
        combos = itertools.combinations(vertices, s)
    elif mode == "sampled":
        rng = random.Random(f"joined:{seed}")
        combos = (rng.sample(vertices, s) for _ in range(samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for combo in combos:
        work += 1
        rest = _joined_witness(g, combo)
        if len(rest) >= s:
            a, b = sorted(combo), rest[:s]
            assert not any(g.has_edge(u, v) for u in a for v in b)
            return ConditionReport(
                "joined", FAILS, {"A": a, "B": b}, params, work, mode
            )
    verdict = HOLDS if mode == "exact" else INDETERMINATE
    return ConditionReport("joined", verdict, None, params, work, mode)


def check_conditions(g, d, variant="P1P2", mode="exact", budget=None, seed=0):
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
        rep = check_expansion(g, s_small, d, mode=mode, budget=budget, seed=seed)
        sub["expansion"] = rep.verdict
        work += rep.work
        if rep.fails:
            witness = rep.witness
    else:
        sub["expansion"] = HOLDS
        params["vacuous"].append("expansion")
    if 1.0 <= th.s_big <= g.n:
        rep = check_joined(g, s_big, mode=mode, budget=budget, seed=seed)
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


def _components_of_removal(g, removed):
    comps = []
    seen = set(removed)
    for start in range(g.n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in g.neighbors(v):
                    if u not in seen:
                        seen.add(u)
                        comp.append(u)
                        nxt.append(u)
            frontier = nxt
        comps.append(sorted(comp))
    return comps


def separations(g, max_n=DEFAULT_FCONN_N):
    """Yield every separation (A, B) with |A \\ B| <= |B \\ A|, up to swapping.

    Enumerates separators T = A n B and bipartitions of the components of
    G - T; each component lies wholly on one side, so one representative per
    achievable side-size split suffices for the f-connectivity inequality.
    """
    if g.n > max_n:
        raise WorkBudgetExceeded(f"separation enumeration capped at n={max_n}")
    vertices = list(range(g.n))
    for size in range(g.n - 1):
        for t_combo in itertools.combinations(vertices, size):
            t = set(t_combo)
            comps = _components_of_removal(g, t)
            if len(comps) < 2:
                continue
            # Subset-sum over component sizes, one representative split per
            # achievable smaller-side size.
            reachable = {0: []}
            for idx, comp in enumerate(comps):
                step = {}
                for total, members in reachable.items():
                    cand = total + len(comp)
                    if cand not in reachable and cand not in step:
                        step[cand] = members + [idx]
                reachable.update(step)
            outside = g.n - size
            seen_small = set()
            for total, members in sorted(reachable.items()):
                if total == 0 or total == outside:
                    continue
                small = min(total, outside - total)
                if small in seen_small:
                    continue
                seen_small.add(small)
                side1 = set()
                for idx in members:
                    side1.update(comps[idx])
                side2 = set(vertices) - t - side1
                if len(side1) <= len(side2):
                    a, b = side1 | t, side2 | t
                else:
                    a, b = side2 | t, side1 | t
                yield sorted(a), sorted(b)


def is_separation(g, a, b):
    a, b = set(a), set(b)
    if a | b != set(range(g.n)) or len(a) == g.n or len(b) == g.n:
        return False
    return not any(g.has_edge(u, v) for u in a - b for v in b - a)


def check_f_connected(g, f, max_n=DEFAULT_FCONN_N):
    """Exact f-connectivity decision via separation enumeration.

    Complete graphs short-circuit: both strict sides of a separation would
    have to be nonempty and mutually nonadjacent, so no separation exists and
    every f holds vacuously.
    """
    work = 0
    params = {"f": f.name}
    if len(g.edges) == g.n * (g.n - 1) // 2:
        return ConditionReport("f-connected", HOLDS, None, params, work, "exact")
    for a, b in separations(g, max_n=max_n):
        work += 1
        a_only = set(a) - set(b)
        cut = set(a) & set(b)
        if len(cut) < f(len(a_only)):
            assert is_separation(g, a, b)
            return ConditionReport(
                "f-connected", FAILS, {"A": a, "B": b}, params, work, "exact"
            )
    return ConditionReport("f-connected", HOLDS, None, params, work, "exact")


def fconn_implies_conditions(
    g, f, d=12.0, s_small=None, s_big=None, max_n=DEFAULT_FCONN_N, budget=None
):
    """Instance-level check of the two implications behind the f-connectivity
    route to Hamiltonicity.

    (i) every A with |A| <= s_small satisfies |N(A)| >= d|A| or
        |A| > |V \\ (A u N(A))|;
    (ii) no two disjoint sets of size >= s_big miss a connecting edge.

    The implications are only asserted when the premise (f-connectivity)
    holds; otherwise the report says the premise failed.
    """
    premise = check_f_connected(g, f, max_n=max_n)
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
        s_small = g.n
    if s_big is None:
        s_big = 1
    params["s_small"] = s_small
    params["s_big"] = s_big
    work = premise.work
    cap = work_budget(budget)
    if _subset_count(g.n, s_small) > cap:
        raise WorkBudgetExceeded("implication (i) enumeration over budget")
    for combo in _subsets(range(g.n), s_small):
        work += 1
        a = len(combo)
        nbhd = neighborhood(g, combo)
        if len(nbhd) >= d * a:
            continue
        rest = g.n - a - len(nbhd)
        if a > rest:
            continue
        return ConditionReport(
            "fconn-implications",
            FAILS,
            {"implication": "expansion", "A": list(combo)},
            params,
            work,
            "exact",
        )
    joined = check_joined(g, s_big, budget=budget)
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
    degree_cap=None,
    s_small=None,
    mode="exact",
    budget=None,
    seed=0,
):
    """Report the four sparse-random-graph properties used by the schedule:

    (1) min degree >= 2; (2) small vertices pairwise far apart; (3) sets
    avoiding small vertices expand by 3d; (4) few vertices of degree <= 11.
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
        witness = {"property": "min_degree", "vertex": g.min_degree()}

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
    sub["weak_expansion"] = HOLDS
    cap = work_budget(budget)
    if mode == "exact" and _subset_count(len(big), s_small) > cap:
        mode = "sampled"
    if mode == "exact":
        combos = _subsets(big, s_small)
    else:
        rng = random.Random(f"gnp-props:{seed}")
        combos = (
            tuple(rng.sample(big, rng.randint(1, min(s_small, len(big)))))
            for _ in range(2000)
            if big
        )
    for combo in combos:
        work += 1
        if len(neighborhood(g, combo)) < 3 * d * len(combo):
            sub["weak_expansion"] = FAILS
            if witness is None:
                witness = {"property": "weak_expansion", "A": list(combo)}
            break
    else:
        if mode == "sampled":
            sub["weak_expansion"] = INDETERMINATE
    params["mode3"] = mode

    low = sum(1 for v in range(g.n) if g.degree(v) <= 11)
    params["low_degree_count"] = low
    if degree_cap is None:
        sub["low_degree_count"] = HOLDS
        params.setdefault("vacuous", []).append("low_degree_count")
    else:
        sub["low_degree_count"] = HOLDS if low <= degree_cap else FAILS
        if sub["low_degree_count"] == FAILS and witness is None:
            witness = {"property": "low_degree_count", "count": low}

    params["sub"] = sub
    params["small"] = sorted(small)
    verdict = _combined_verdict(sub)
    return ConditionReport("gnp-properties", verdict, witness, params, work, mode)

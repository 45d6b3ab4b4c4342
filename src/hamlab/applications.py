"""Application procedures: Hamilton paths between prescribed endpoints, cycles
of exact length via stripping and subsampling, the small-vertex-aware sparse
random graph schedule, the f-connectivity pipeline, and the exact subset-DP
Hamiltonicity oracle used as ground truth at desk scale.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field

from .closing import (
    SearchResult,
    absorb,
    close_heuristic,
    close_proof_faithful,
    find_hamilton_cycle,
    new_stats,
)
from .conditions import (
    ConditionReport,
    FConnSpec,
    WorkBudgetExceeded,
    fconn_implies_conditions,
    small_vertices,
    work_budget,
)
from .graph import (
    Cycle,
    Path,
    SoundnessError,
    edge_key,
    is_connected,
    neighborhood,
    validate_cycle,
    validate_path,
)
from .rotation import (
    chain_runs,
    extend,
    layered_family,
    reconstruct_path,
    rotate,
    runs_path,
)

ORACLE_CAP = 20


# ---------------------------------------------------------------------------
# Exact oracles (dynamic program over vertex subsets)


def _adj_masks(g):
    masks = [0] * g.n
    for u in range(g.n):
        for v in g.neighbors(u):
            masks[u] |= 1 << v
    return masks


def _dp_paths_from(g, start):
    """dp[mask] = bitmask of feasible last vertices of paths from `start`."""
    n = g.n
    adj = _adj_masks(g)
    dp = [0] * (1 << n)
    dp[1 << start] = 1 << start
    for mask in range(1 << n):
        ends = dp[mask]
        if not ends or not mask >> start & 1:
            continue
        for v in range(n):
            if mask >> v & 1 or not adj[v] & ends:
                continue
            dp[mask | (1 << v)] |= 1 << v
    return dp, adj


def _dp_backtrack(g, dp, adj, start, last, mask):
    seq = [last]
    while mask != 1 << start:
        prev_mask = mask ^ (1 << seq[-1])
        options = dp[prev_mask] & adj[seq[-1]]
        if not options:
            raise SoundnessError("backtrack lost the trail")
        u = (options & -options).bit_length() - 1
        seq.append(u)
        mask = prev_mask
    seq.reverse()
    return seq


def hamiltonian_oracle(g):
    """Exact Hamiltonicity decision for n <= 20; emits a cycle when positive."""
    if g.n > ORACLE_CAP:
        raise ValueError(f"oracle capped at n={ORACLE_CAP}")
    if g.n < 3:
        return False, None
    if g.min_degree() < 2 or not is_connected(g):
        return False, None
    dp, adj = _dp_paths_from(g, 0)
    full = (1 << g.n) - 1
    closers = dp[full] & adj[0] & ~1
    if not closers:
        return False, None
    last = (closers & -closers).bit_length() - 1
    seq = _dp_backtrack(g, dp, adj, 0, last, full)
    cycle = Cycle(seq)
    verdict = validate_cycle(g, cycle.vertices, hamilton=True)
    if not verdict:
        raise SoundnessError(f"oracle cycle is invalid: {verdict.reason}")
    return True, cycle


def hamilton_path_oracle(g, u, v):
    """Exact u-v Hamilton path decision for n <= 20."""
    if g.n > ORACLE_CAP:
        raise ValueError(f"oracle capped at n={ORACLE_CAP}")
    if u == v:
        raise ValueError("endpoints must differ")
    if g.n == 2:
        return (g.has_edge(u, v), Path((u, v)) if g.has_edge(u, v) else None)
    dp, adj = _dp_paths_from(g, u)
    full = (1 << g.n) - 1
    if not dp[full] >> v & 1:
        return False, None
    seq = _dp_backtrack(g, dp, adj, u, v, full)
    path = Path(seq)
    verdict = validate_path(g, path.vertices, endpoints=(u, v))
    if not verdict:
        raise SoundnessError(f"oracle path is invalid: {verdict.reason}")
    return True, path


def hamilton_connected_oracle(g):
    """True when every vertex pair is joined by a Hamilton path (n <= 20)."""
    if g.n > ORACLE_CAP:
        raise ValueError(f"oracle capped at n={ORACLE_CAP}")
    for u in range(g.n):
        dp, _ = _dp_paths_from(g, u)
        full = (1 << g.n) - 1
        ends = dp[full]
        for v in range(u + 1, g.n):
            if not ends >> v & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Hamilton paths between prescribed endpoints (protected-edge closing)


@dataclass
class PathSearchResult:
    path: Path | None
    stage: str | None
    stats: dict
    broken_edges: set = field(default_factory=set)

    @property
    def found(self):
        return self.path is not None


def _cycle_to_path_with_edge(cycle_seq, u, v):
    """Hamilton path containing edge (u, v), built by the rewiring rule:
    splice (u, v) in and drop the two cycle edges that follow u and v."""
    n = len(cycle_seq)
    pos = {w: i for i, w in enumerate(cycle_seq)}
    i, j = pos[u], pos[v]
    if (i + 1) % n == j or (j + 1) % n == i:
        # already consecutive: rotate the cycle so u, v are the path's ends
        return _strip_protected(cycle_seq, u, v)
    if i > j:
        i, j = j, i
    # walk w_{i+1}..w_j, cross the new chord to w_i, walk back to w_{j+1}
    first = cycle_seq[i + 1 : j + 1]
    second = (
        (cycle_seq[i],)
        + tuple(reversed(cycle_seq[:i]))
        + tuple(reversed(cycle_seq[j + 1 :]))
    )
    return first + second


def hamilton_path_between(g, u, v, mode="auto", budget=100000, seed=0, retries=8):
    """Hamilton path from u to v via the added-edge construction.

    Adds (u, v) when absent, finds a Hamilton cycle of the augmented graph,
    reroutes it into a spanning path that contains (u, v), re-closes under a
    never-break constraint on (u, v), and finally strips the helper edge.
    The broken-edge log of the protected closing is exposed on the result.
    """
    if u == v:
        raise ValueError("endpoints must differ")
    stats = new_stats()
    g_uv = g.with_edge(u, v)
    protected = edge_key(u, v)
    broken_log = set()
    for attempt in range(retries):
        res = find_hamilton_cycle(g_uv, mode=mode, budget=budget, seed=(seed, attempt))
        stats["rotations"] += res.stats["rotations"]
        stats["restarts"] += res.stats["restarts"]
        stats["families_built"] += res.stats["families_built"]
        if not res.found:
            continue
        cycle_seq = res.cycle.vertices
        spanning = _cycle_to_path_with_edge(cycle_seq, u, v)
        verdict = validate_path(g_uv, spanning)
        if not verdict:
            raise SoundnessError(f"opened cycle is not a path: {verdict.reason}")
        pos = {w: i for i, w in enumerate(spanning)}
        if {spanning[0], spanning[-1]} == {u, v}:
            closed = Cycle(spanning)
        else:
            if abs(pos[u] - pos[v]) != 1:
                raise SoundnessError("protected edge must lie on the path")
            closed = _close_protected(
                g_uv, Path(spanning), protected, mode, budget, (seed, attempt),
                stats, broken_log,
            )
        if closed is None:
            continue
        out = _strip_protected(closed.vertices, u, v)
        verdict = validate_path(g, out, endpoints=(u, v))
        if not verdict:
            raise SoundnessError(verdict.reason)
        return PathSearchResult(Path(out), None, stats, broken_log)
    return PathSearchResult(None, "retries_exhausted", stats, broken_log)


def _close_protected(g_uv, spanning, protected, mode, budget, seed, stats, broken_log):
    rng = random.Random(f"protected:{seed}")
    attempts = []
    if mode in ("proof_faithful", "auto"):
        attempts.append("proof_faithful")
    if mode in ("heuristic", "auto"):
        attempts.append("heuristic")
    for kind in attempts:
        local = new_stats()
        if kind == "proof_faithful":
            outcome = close_proof_faithful(
                g_uv, spanning, protected_edge=protected, stats=local
            )
        else:
            outcome = close_heuristic(
                g_uv, spanning, budget=budget, rng=rng,
                protected_edge=protected, stats=local,
            )
        stats["rotations"] += local["rotations"]
        stats["families_built"] += local.get("families_built", 0)
        broken_log.update(local.get("broken_edges", set()))
        if isinstance(outcome, Cycle):
            cyc = outcome.vertices
            closed_edges = {edge_key(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
            if protected not in closed_edges:
                raise SoundnessError("protected edge missing from the closed cycle")
            return outcome
    return None


def _strip_protected(cycle_seq, u, v):
    n = len(cycle_seq)
    pos = {w: i for i, w in enumerate(cycle_seq)}
    i, j = pos[u], pos[v]
    if not ((i + 1) % n == j or (j + 1) % n == i):
        raise SoundnessError(f"{u} and {v} are not adjacent on the cycle")
    k = i if (i + 1) % n == j else j
    return tuple(cycle_seq[k + 1 :] + cycle_seq[: k + 1])


def hamilton_cycle_through_edge(g, e, mode="auto", budget=100000, seed=0):
    """Hamilton cycle containing the edge e (which must be present in g)."""
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    res = hamilton_path_between(g, u, v, mode=mode, budget=budget, seed=seed)
    if not res.found:
        return None
    seq = res.path.vertices
    cycle = Cycle(seq)
    verdict = validate_cycle(g, cycle.vertices, hamilton=True)
    if not verdict:
        raise SoundnessError(f"cycle through the edge is invalid: {verdict.reason}")
    return cycle


# ---------------------------------------------------------------------------
# Stripping non-expanding sets (exact-length cycles)


@dataclass
class StripResult:
    removed: set
    survivors: set
    trace: list  # (sorted A_i, neighborhood size)
    certified: bool
    heuristic: bool


def strip_nonexpanding(g, v0, size_bound, ratio, cap=None, budget=None):
    """Iteratively remove sets A (|A| <= size_bound) whose neighborhood inside
    the shrinking window is below ratio * |A|.

    Exact subset search inside the work budget; a greedy min-degree-seeded
    search takes over beyond it (flagged, and the result is then uncertified).
    Halts when no violating set remains or the removed total reaches `cap`
    (default: size_bound, mirroring the n/t stopping rule).
    """
    v0 = set(v0)
    if cap is None:
        cap = size_bound
    removed = set()
    trace = []
    heuristic = False
    cap_work = work_budget(budget)

    def violating_set(window):
        nonlocal heuristic
        wlist = sorted(window)
        sub, labels = g.induced(wlist)
        total = 0
        for a in range(1, size_bound + 1):
            total += math.comb(len(wlist), a)
            if total > cap_work:
                heuristic = True
                return _greedy_violator(sub, labels, size_bound, ratio)
            for combo in itertools.combinations(range(sub.n), a):
                nb = len(neighborhood(sub, combo))
                if nb < ratio * a:
                    return [labels[i] for i in combo], nb
        return None

    while len(removed) < cap:
        window = v0 - removed
        if not window:
            break
        found = violating_set(window)
        if found is None:
            break
        a_set, nb = found
        removed |= set(a_set)
        trace.append((sorted(a_set), nb))
    certified = not heuristic and len(removed) < cap
    return StripResult(removed, v0 - removed, trace, certified, heuristic)


def _greedy_violator(sub, labels, size_bound, ratio):
    order = sorted(range(sub.n), key=lambda v: (sub.degree(v), v))
    for seed_v in order[: min(len(order), 20)]:
        current = {seed_v}
        while True:
            nb = neighborhood(sub, current)
            if len(nb) < ratio * len(current):
                return [labels[i] for i in sorted(current)], len(nb)
            if len(current) >= size_bound:
                break
            # grow toward the smallest resulting neighborhood
            best, best_nb = None, None
            for cand in sorted(nb):
                trial = len(neighborhood(sub, current | {cand}))
                if best_nb is None or trial < best_nb:
                    best, best_nb = cand, trial
            if best is None:
                break
            current.add(best)
    return None


@dataclass
class KCycleResult:
    cycle: Cycle | None
    attempts: int
    strip: StripResult
    stats: dict

    @property
    def found(self):
        return self.cycle is not None


def cycle_of_length_k(
    g,
    k,
    t=10,
    seed=None,
    retries=20,
    ratio=None,
    size_bound=1,
    budget=30000,
    mode="heuristic",
):
    """Find a cycle of exactly k vertices: choose a window V0 of size k + n/t,
    strip its non-expanding sets, then repeatedly sample k-subsets of the
    survivors and search the induced subgraph for a Hamilton cycle.

    V0 takes the lowest identifiers by default and is sampled uniformly when a
    seed is given.  Each retry draws a fresh subset.
    """
    n = g.n
    if not 3 <= k <= n:
        raise ValueError("need 3 <= k <= n")
    window = min(n, k + max(1, n // t))
    rng = random.Random(f"cycle-k:{seed}")
    if seed is None:
        v0 = set(range(window))
    else:
        v0 = set(rng.sample(range(n), window))
    if ratio is None:
        ratio = 2.0
    strip = strip_nonexpanding(g, v0, size_bound=size_bound, ratio=ratio,
                               cap=max(1, window - k))
    survivors = sorted(strip.survivors)
    stats = new_stats()
    if len(survivors) < k:
        return KCycleResult(None, 0, strip, stats)
    for attempt in range(retries):
        subset = sorted(rng.sample(survivors, k)) if len(survivors) > k else survivors
        sub, labels = g.induced(subset)
        res = find_hamilton_cycle(sub, mode=mode, budget=budget, seed=(seed, attempt))
        stats["rotations"] += res.stats["rotations"]
        stats["restarts"] += res.stats["restarts"]
        stats["families_built"] += res.stats["families_built"]
        if res.found:
            real = [labels[v] for v in res.cycle.vertices]
            cycle = Cycle(real)
            verdict = validate_cycle(g, cycle.vertices)
            if not verdict:
                raise SoundnessError(f"lifted cycle is invalid: {verdict.reason}")
            if len(cycle) != k:
                raise SoundnessError(f"lifted cycle has length {len(cycle)}, not {k}")
            return KCycleResult(cycle, attempt + 1, strip, stats)
    return KCycleResult(None, retries, strip, stats)


# ---------------------------------------------------------------------------
# Small-vertex-aware schedule for sparse random graphs


class _Restart(Exception):
    """A small endpoint was met; the family restarts from the path in args[0]."""


def small_aware_family(
    g,
    path,
    small,
    d=9.0,
    total_target=None,
    max_layers=None,
    max_restarts=1,
    stats=None,
):
    """Endpoint family builder that keeps small vertices out of the layers.

    When a small vertex u would be placed, the path to u is rotated once (u
    has another neighbor on it by the min-degree property) and the family
    restarts from the resulting path, whose endpoint sits at distance two from
    u.  Restarts are bounded; afterwards small vertices are silently dropped.
    When a layer's neighborhood expands by less than d, a stall layer of equal
    size is allowed (sourced from the small members when any exist, so the
    following layer is small-free).  Each layer keeps up to twice its target.
    """
    special_rotations = []  # one per restart

    def admit(ep, step):
        if ep not in small:
            return True
        if len(special_rotations) < max_restarts:
            restart_path = _special_rotation(g, runs_path(base, chain_runs(base, step)))
            if restart_path is not None:
                special_rotations.append(ep)
                raise _Restart(restart_path)
        return False  # drop small endpoints

    def schedule(t, previous):
        nonlocal stalled
        if not stalled and len(neighborhood(g, previous)) < d * len(previous):
            # stall: one equal-size layer, sourced from the small members
            # when any exist so the produced layer is small-free
            stalled = True
            small_previous = [v for v in previous if v in small]
            return small_previous or previous, len(previous), 2 * len(previous)
        stalled = False
        target = math.ceil(len(previous) * d / 3.0)
        return previous, target, 2 * target

    base = path
    while True:
        stalled = False
        try:
            fam = layered_family(
                g,
                base,
                schedule,
                admit=admit,
                total_target=total_target,
                max_layers=max_layers,
                stats=stats,
            )
        except _Restart as restart:
            base = restart.args[0]
            continue
        if any(v in small for layer in fam.layers[1:] for v in layer):
            raise SoundnessError("a small vertex was placed as an endpoint")
        fam.special_rotations = special_rotations
        return fam


def _special_rotation(g, path_to_small):
    """Rotate the path ending at a small vertex once, yielding an endpoint at
    distance two from it; None when no non-predecessor neighbor exists."""
    u = path_to_small.last
    q = len(path_to_small)
    for w in sorted(g.neighbors(u)):
        i = path_to_small.pos.get(w)
        if i is not None and i <= q - 3:
            rotated, _ = rotate(g, path_to_small, i)
            return rotated
    return None


def gnp_hamilton_schedule(
    g,
    threshold=None,
    d=9.0,
    budget=100000,
    seed=0,
    max_restarts=25,
):
    """Hamilton-cycle search whose endpoint families follow the small-aware
    schedule: small vertices trigger one special rotation + restart, stall
    layers bridge expansion shortfalls, and closing uses the family endpoints
    adjacent to the fixed vertex (heuristic fallback on the longest path)."""
    stats = new_stats()
    if g.n < 3:
        return SearchResult(None, "too_small", stats)
    if not is_connected(g):
        return SearchResult(None, "connectivity", stats)
    small = small_vertices(g, threshold)
    for r in range(max_restarts):
        if r > 0 and stats["rotations"] >= budget:
            break
        stats["restarts"] = r
        rng = random.Random(f"gnp-schedule:{seed}:{r}")
        start = rng.randrange(g.n)
        path = extend(g, Path((start,)), rng)
        fam = small_aware_family(g, path, small, d=d, stats=stats)
        stats["families_built"] += 1
        closed = _close_from_family(g, fam, stats)
        if closed is not None:
            seq = closed
            verdict = validate_cycle(g, seq, hamilton=len(seq) == g.n)
            if verdict and len(seq) == g.n:
                return SearchResult(Cycle(seq), None, stats)
            # non-spanning cycle: absorb and fall through to the heuristic
            reopened = absorb(g, seq)
            if reopened is not None:
                path = reopened
        outcome = close_heuristic(
            g, path, budget=max(budget - stats["rotations"], 0), rng=rng, stats=stats
        )
        if isinstance(outcome, Cycle):
            verdict = validate_cycle(g, outcome.vertices, hamilton=True)
            if verdict:
                return SearchResult(outcome, None, stats)
    return SearchResult(None, "budget", stats)


def _close_from_family(g, fam, stats):
    """Close via a family endpoint adjacent to the fixed vertex, if any."""
    fixed = fam.fixed
    for v in sorted(fam.endpoints()):
        if g.has_edge(v, fixed):
            seq = reconstruct_path(fam, v).vertices
            if len(seq) >= 3:
                return seq
    return None


# ---------------------------------------------------------------------------
# f-connectivity pipeline


@dataclass
class FConnPipelineResult:
    report: ConditionReport
    search: SearchResult

    @property
    def certified(self):
        return self.report.holds

    def to_json(self):
        return {"report": self.report.to_json(), "search": self.search.to_json()}


def fconnected_pipeline(
    g, f=None, mode="auto", budget=100000, seed=0, max_n=18,
    s_small=None, s_big=None,
):
    """Check the f-connectivity implications, then search for a Hamilton cycle
    regardless; both outcomes are reported together.  The implication size
    thresholds pass through so larger instances stay enumerable."""
    if f is None:
        f = FConnSpec.klogk()
    try:
        report = fconn_implies_conditions(
            g, f, max_n=max_n, s_small=s_small, s_big=s_big
        )
    except WorkBudgetExceeded:
        report = ConditionReport(
            "fconn-implications", "indeterminate", None, {"f": f.name}, 0, "skipped"
        )
    search = find_hamilton_cycle(g, mode=mode, budget=budget, seed=seed)
    return FConnPipelineResult(report, search)


# ---------------------------------------------------------------------------
# Experiment statistics


@dataclass
class TrialRecord:
    trial: int
    seed: object
    n: int
    p: float
    success: bool
    rotations: int
    ms: float


@dataclass
class ExperimentStats:
    trials: list = field(default_factory=list)

    def success_rate(self):
        if not self.trials:
            return 0.0
        return sum(1 for t in self.trials if t.success) / len(self.trials)

    def aggregate(self):
        rate = self.success_rate()
        k = len(self.trials)
        halfwidth = 1.96 * math.sqrt(rate * (1 - rate) / k) if k else 0.0
        return {
            "trials": k,
            "successes": sum(1 for t in self.trials if t.success),
            "success_rate": rate,
            "ci95": [max(0.0, rate - halfwidth), min(1.0, rate + halfwidth)],
        }


def gnp_trials(n, p, trials, seed=0, budget=60000, mode="heuristic", label="sweep"):
    """Run seeded Hamiltonicity trials on fresh G(n, p) samples."""
    from .graph import gnp

    stats = ExperimentStats()
    for i in range(trials):
        trial_seed = f"{label}:{seed}:{i}"
        g = gnp(n, p, seed=trial_seed)
        t0 = time.perf_counter()
        res = find_hamilton_cycle(g, mode=mode, budget=budget, seed=trial_seed)
        ms = (time.perf_counter() - t0) * 1000.0
        stats.trials.append(
            TrialRecord(i, trial_seed, n, p, res.found, res.stats["rotations"], ms)
        )
    return stats

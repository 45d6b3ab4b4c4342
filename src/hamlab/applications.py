"""Application procedures: Hamilton paths between prescribed endpoints, cycles
of exact length via stripping and subsampling, the f-connectivity pipeline,
and the exact subset-DP Hamiltonicity oracle used as ground truth at desk
scale.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field

from .closing import (
    SearchResult,
    close_heuristic,
    close_proof_faithful,
    find_hamilton_cycle,
    new_stats,
)
from .conditions import (
    ConditionReport,
    WorkBudgetExceeded,
    fconn_implies_conditions,
)
from .graph import (
    Cycle,
    Path,
    SoundnessError,
    adjacency_masks,
    check_vertices,
    edge_key,
    is_connected,
    validate_cycle,
    validate_path,
)

# hamiltonian_oracle(gnp(20, 0.5, seed=1)) takes 0.045 s, median of 7 on a
# 2-CPU Xeon, Python 3.11, and peaks at 30 MB of process RSS (its columns: 20
# ints of 2^20 bits); a 2^20-cell table filled in a Python loop took 0.74-0.81
# s and 21 MB.
ORACLE_CAP = 20


# ---------------------------------------------------------------------------
# Exact oracles (dynamic program over vertex subsets)


def _dp_paths_from(g, start):
    """cols[v] has bit `mask` set when some path from `start` visits exactly
    the vertices of `mask` and ends at v: one 2^n-bit int per end vertex.

    The paths of one more vertex that end at v extend those ending at a
    neighbour of v that miss v, so each layer is the OR of the last layer
    over N(v), cut to the subsets without v and shifted by 2^v to add v: a
    few big-int operations per vertex and layer, no loop over subsets."""
    n = g.n
    adj = adjacency_masks(g)
    size = 1 << n
    without = []  # bit mask of without[v] is set when v is not in mask
    for v in range(n):
        width = 1 << v
        pattern = (1 << width) - 1
        width <<= 1
        while width < size:
            pattern |= pattern << width
            width <<= 1
        without.append(pattern)
    layer = [0] * n
    layer[start] = 1 << (1 << start)
    cols = list(layer)
    for _ in range(n - 1):
        nxt = []
        for v in range(n):
            reach = 0
            for u in g.neighbors(v):
                reach |= layer[u]
            reach = (reach & without[v]) << (1 << v)
            nxt.append(reach)
            cols[v] |= reach
        if not any(nxt):
            break
        layer = nxt
    return cols, adj


def _first_end(cols, candidates, mask):
    """The lowest vertex of the bitmask `candidates` whose column holds
    `mask`, or None."""
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        if cols[v] >> mask & 1:
            return v
        candidates &= candidates - 1
    return None


def _dp_backtrack(cols, adj, start, last, mask):
    seq = [last]
    while mask != 1 << start:
        mask ^= 1 << seq[-1]
        u = _first_end(cols, adj[seq[-1]], mask)
        if u is None:
            raise SoundnessError("backtrack lost the trail")
        seq.append(u)
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
    cols, adj = _dp_paths_from(g, 0)
    full = (1 << g.n) - 1
    last = _first_end(cols, adj[0], full)
    if last is None:
        return False, None
    seq = _dp_backtrack(cols, adj, 0, last, full)
    cycle = Cycle(seq)
    verdict = validate_cycle(g, cycle.vertices, hamilton=True)
    if not verdict:
        raise SoundnessError(f"oracle cycle is invalid: {verdict.reason}")
    return True, cycle


def hamilton_path_oracle(g, u, v):
    """Exact u-v Hamilton path decision for n <= 20."""
    if g.n > ORACLE_CAP:
        raise ValueError(f"oracle capped at n={ORACLE_CAP}")
    check_vertices(g, (u, v))
    if u == v:
        raise ValueError("endpoints must differ")
    cols, adj = _dp_paths_from(g, u)
    full = (1 << g.n) - 1
    if not cols[v] >> full & 1:
        return False, None
    seq = _dp_backtrack(cols, adj, u, v, full)
    path = Path(seq)
    verdict = validate_path(g, path.vertices, endpoints=(u, v))
    if not verdict:
        raise SoundnessError(f"oracle path is invalid: {verdict.reason}")
    return True, path


def hamilton_connected_oracle(g):
    """True when every vertex pair is joined by a Hamilton path (n <= 20)."""
    if g.n > ORACLE_CAP:
        raise ValueError(f"oracle capped at n={ORACLE_CAP}")
    full = (1 << g.n) - 1
    for u in range(g.n - 1):
        cols = _dp_paths_from(g, u)[0]
        if not all(cols[v] >> full & 1 for v in range(u + 1, g.n)):
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
    check_vertices(g, (u, v))
    if u == v:
        raise ValueError("endpoints must differ")
    stats = new_stats()
    g_uv = g.with_edge(u, v)
    protected = edge_key(u, v)
    broken_log = set()
    for attempt in range(retries):
        res = find_hamilton_cycle(g_uv, mode=mode, budget=budget, seed=(seed, attempt))
        _add_counts(stats, res.stats)
        if not res.found:
            continue
        cycle_seq = res.cycle.vertices
        spanning = _cycle_to_path_with_edge(cycle_seq, u, v)
        verdict = validate_path(g_uv, spanning)
        if not verdict:
            raise SoundnessError(f"opened cycle is not a path: {verdict.reason}")
        if {spanning[0], spanning[-1]} != {u, v}:
            # (u, v) is interior: re-close around it, then open it again
            if abs(spanning.index(u) - spanning.index(v)) != 1:
                raise SoundnessError("protected edge must lie on the path")
            closed = _close_protected(
                g_uv, Path(spanning), protected, mode, budget, (seed, attempt),
                stats, broken_log,
            )
            if closed is None:
                continue
            spanning = _strip_protected(closed.vertices, u, v)
        verdict = validate_path(g, spanning, endpoints=(u, v))
        if not verdict:
            raise SoundnessError(verdict.reason)
        return PathSearchResult(Path(spanning), None, stats, broken_log)
    return PathSearchResult(None, "retries_exhausted", stats, broken_log)


def _close_protected(g_uv, spanning, protected, mode, budget, seed, stats, broken_log):
    local = new_stats()
    if mode == "proof_faithful":
        outcome = close_proof_faithful(
            g_uv, spanning, protected_edge=protected, stats=local
        )
    else:
        outcome = close_heuristic(
            g_uv, spanning, budget=budget, rng=random.Random(f"protected:{seed}"),
            protected_edge=protected, stats=local,
        )
    _add_counts(stats, local)
    broken_log.update(local.get("broken_edges", set()))
    if not isinstance(outcome, Cycle):
        return None
    cyc = outcome.vertices
    closed_edges = {edge_key(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
    if protected not in closed_edges:
        raise SoundnessError("protected edge missing from the closed cycle")
    return outcome


def _add_counts(stats, other):
    """Add the search counters of `other` into `stats`."""
    for key in ("rotations", "restarts", "families_built"):
        stats[key] += other[key]


def _strip_protected(cycle_seq, u, v):
    n = len(cycle_seq)
    pos = {w: i for i, w in enumerate(cycle_seq)}
    i, j = pos[u], pos[v]
    if not ((i + 1) % n == j or (j + 1) % n == i):
        raise SoundnessError(f"{u} and {v} are not adjacent on the cycle")
    k = i if (i + 1) % n == j else j
    return tuple(cycle_seq[k + 1 :] + cycle_seq[: k + 1])


# ---------------------------------------------------------------------------
# Stripping non-expanding sets (exact-length cycles)


@dataclass
class StripResult:
    removed: set
    survivors: set
    trace: list  # ([v], neighbours of v left in the window)
    certified: bool


def strip_nonexpanding(g, v0, cap):
    """Peel from the window V0, lowest id first, a vertex with fewer than 2
    neighbours left in the window, until no such vertex is left or `cap`
    vertices are gone.

    This is the stripping of non-expanding sets at set size 1 and ratio 2.
    The result is certified when the cap did not bind, so that every
    survivor keeps 2 neighbours among the survivors.
    """
    v0 = set(v0)
    check_vertices(g, v0)
    window = set(v0)
    left = {v: len(g.neighbors(v) & window) for v in v0}
    # counts only fall, so a vertex below 2 stays below 2 until it is peeled
    low = [v for v, nb in left.items() if nb < 2]
    heapq.heapify(low)
    removed = set()
    trace = []
    while low and len(removed) < cap:
        v = heapq.heappop(low)
        removed.add(v)
        window.discard(v)
        trace.append(([v], left[v]))
        for u in g.neighbors(v) & window:
            left[u] -= 1
            if left[u] == 1:
                heapq.heappush(low, u)
    return StripResult(removed, v0 - removed, trace, len(removed) < cap)


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
    budget=30000,
):
    """Find a cycle of exactly k vertices: choose a window V0 of size k + n/t
    (t >= 1), strip from it, one at a time and lowest id first, at most
    |V0| - k vertices with fewer than 2 neighbours left in it
    (`strip_nonexpanding`), then repeatedly sample k-subsets of the survivors
    and search the induced subgraph for a Hamilton cycle with the heuristic
    search.

    V0 takes the lowest identifiers by default and is sampled uniformly when a
    seed is given.  Each retry draws a fresh subset.
    """
    n = g.n
    if not 3 <= k <= n:
        raise ValueError("need 3 <= k <= n")
    if t < 1:
        raise ValueError("need t >= 1")
    if retries < 0:
        raise ValueError("need retries >= 0")
    window = min(n, k + max(1, n // t))
    rng = random.Random(f"cycle-k:{seed}")
    if seed is None:
        v0 = set(range(window))
    else:
        v0 = set(rng.sample(range(n), window))
    strip = strip_nonexpanding(g, v0, max(1, window - k))
    survivors = sorted(strip.survivors)
    stats = new_stats()
    if len(survivors) < k:
        return KCycleResult(None, 0, strip, stats)
    for attempt in range(retries):
        subset = sorted(rng.sample(survivors, k)) if len(survivors) > k else survivors
        sub, labels = g.induced(subset)
        res = find_hamilton_cycle(
            sub, mode="heuristic", budget=budget, seed=(seed, attempt)
        )
        _add_counts(stats, res.stats)
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


def fconnected_pipeline(g, f, budget=100000, seed=0, s_small=None, s_big=1):
    """Check the f-connectivity implications, then search for a Hamilton cycle
    regardless; both outcomes are reported together.  The implication size
    thresholds pass through so larger instances stay enumerable."""
    try:
        report = fconn_implies_conditions(g, f, s_small=s_small, s_big=s_big)
    except WorkBudgetExceeded:
        report = ConditionReport(
            "fconn-implications", "indeterminate", None, {"f": f.name}, 0, "skipped"
        )
    search = find_hamilton_cycle(g, budget=budget, seed=seed)
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


def gnp_trials(n, p, trials, seed=0, budget=60000, mode="heuristic"):
    """Run seeded Hamiltonicity trials on fresh G(n, p) samples."""
    from .graph import gnp

    if trials < 0:
        raise ValueError("need trials >= 0")
    stats = ExperimentStats()
    for i in range(trials):
        trial_seed = f"sweep:{seed}:{i}"
        g = gnp(n, p, seed=trial_seed)
        res = find_hamilton_cycle(g, mode=mode, budget=budget, seed=trial_seed)
        stats.trials.append(
            TrialRecord(i, trial_seed, n, p, res.found, res.stats["rotations"])
        )
    return stats

"""Good/bad initial-pivot machinery on a graph with a spanning path.

Augmenting H with a helper vertex w adjacent to the far endpoint and to a
pivot models "enter the path via an outside edge at the pivot"; the endpoint
set reachable from the once-rotated start classifies the pivot as good (large
set) or bad.  The processing procedure turns a hypothetical surplus of bad
vertices into a non-expanding set, certificate included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import Graph, Path, SoundnessError, validate_path
from .rotation import closure, rotate, rotated

GOOD_RATIO = 1.0 / 43.0


@dataclass(frozen=True)
class SpannedGraph:
    """A graph together with a designated spanning path (the spine)."""

    graph: Graph
    spine: tuple

    def __post_init__(self):
        if len(self.spine) != self.graph.n:
            raise ValueError("spine must span the graph")
        verdict = validate_path(self.graph, self.spine)
        if not verdict:
            raise ValueError(f"spine is not a path: {verdict.reason}")


@dataclass(frozen=True)
class AugmentedPathGraph:
    """H plus a fresh vertex w joined to the far endpoint and to the pivot."""

    added_vertex: int
    added_edges: tuple
    rotated_start: tuple
    graph: Graph


def augment(h, pivot_index):
    """Build H+ for the pivot at `pivot_index` (0-based spine position).

    Valid pivots sit strictly inside the spine: 1 <= index <= l-2.  The
    rotated start is the spanning path (v1..v_i, w, v_l..v_{i+1}); its
    endpoints are v1 and v_{i+1}.
    """
    spine = h.spine
    l = len(spine)
    if not 1 <= pivot_index <= l - 2:
        raise ValueError(f"pivot index {pivot_index} out of range (1..{l - 2})")
    w = h.graph.n
    pivot = spine[pivot_index]
    added = ((spine[-1], w), (pivot, w))
    graph = Graph(w + 1, list(h.graph.edges) + list(added))
    extended = Path(spine + (w,))
    rotated, _ = rotate(graph, extended, pivot_index)
    return AugmentedPathGraph(w, added, rotated.vertices, graph)


def pivot_endpoint_set(h, pivot_index, budget=200000, stop_at=None):
    """Endpoint set of the pivot's augmented graph, exhaustive unless
    `stop_at` ends the closure early (as `classify_pivots` does).

    Breadth-first closure over spanning paths of H+ reachable from the rotated
    start by rotations with the spine's first vertex fixed, collecting the
    endpoints that are real path vertices: the fixed first vertex is never a
    rotation endpoint, so only w is excluded.
    """
    aug = augment(h, pivot_index)
    return closure(
        aug.graph,
        aug.rotated_start,
        exclude=(aug.added_vertex,),
        stop_at=stop_at,
        budget=budget,
    )


@dataclass
class PivotAudit:
    spine: tuple
    threshold: float
    sizes: dict  # pivot vertex -> endpoint-set size (floor when early-exited)
    good: list
    bad: list  # R, in spine order
    sizes_exact: bool
    cut: list = field(default_factory=list)  # bad only because the budget ran out

    def to_json(self):
        return {
            "l": len(self.spine),
            "threshold": self.threshold,
            "per_pivot_sizes": {str(v): s for v, s in sorted(self.sizes.items())},
            "good": sorted(self.good),
            "bad": list(self.bad),
        }


def classify_pivots(h, threshold_ratio=GOOD_RATIO, budget=200000, early_exit=True):
    """Classify every auditable pivot (spine positions 1..l-2) as good or bad.

    A pivot is bad when its endpoint set is smaller than threshold_ratio * l.
    With early_exit, the closure stops as soon as a pivot is provably good;
    recorded sizes are then lower bounds for good pivots (exact for bad ones).
    A bad pivot whose closure the budget stopped is undecided; `cut` lists
    those.  A budget below 1 would decide no closure, so it raises ValueError.
    """
    if budget < 1:
        raise ValueError("need budget >= 1")
    l = len(h.spine)
    threshold = threshold_ratio * l
    stop_at = math.ceil(threshold) if early_exit else None
    if stop_at is not None and stop_at <= 0:
        stop_at = 1
    sizes = {}
    good, bad, cut = [], [], []
    exact = True
    for idx in range(1, l - 1):
        v = h.spine[idx]
        res = pivot_endpoint_set(h, idx, budget, stop_at)
        sizes[v] = len(res.endpoints)
        if not res.complete:
            exact = False
        if len(res.endpoints) < threshold:
            bad.append(v)
            if not res.complete:
                cut.append(v)
        else:
            good.append(v)
    return PivotAudit(h.spine, threshold, sizes, good, bad, exact, cut)


def ext_of(spine_pos, members, spine):
    """Members together with their left/right spine neighbors."""
    out = set()
    for v in members:
        i = spine_pos[v]
        out.add(v)
        if i > 0:
            out.add(spine[i - 1])
        if i + 1 < len(spine):
            out.add(spine[i + 1])
    return out


@dataclass
class TraceRecord:
    vertex: int
    skipped: bool
    w_layers: list = field(default_factory=list)
    t_final: list = field(default_factory=list)


@dataclass
class ProcessingCertificate:
    u: set
    x: set
    traces: list

    def to_json(self):
        return {
            "U": sorted(self.u),
            "X": sorted(self.x),
            "traces": [
                {
                    "vertex": tr.vertex,
                    "skipped": tr.skipped,
                    "W": [sorted(w) for w in tr.w_layers],
                    "T_final": sorted(tr.t_final),
                }
                for tr in self.traces
            ],
        }


def process_bad_vertices(h, audit):
    """Run the doubling procedure over the bad vertices of the audit.

    For each bad pivot (skipped when its spine successor is already in X) the
    procedure grows endpoint layers W_0, W_1, ... inside the pivot's augmented
    graph, doubling while the fresh neighborhood T_t stays above 5|W_t|, then
    folds W_k into U and all layers plus T_k into X.  The (U, X) certificate
    invariants are asserted after every processed vertex.
    """
    spine = h.spine
    l = len(spine)
    spine_pos = {v: i for i, v in enumerate(spine)}
    hg = h.graph
    u_set, x_set = set(), set()
    traces = []
    for v_bad in audit.bad:
        idx = spine_pos[v_bad]
        successor = spine[idx + 1]
        if successor in x_set:
            traces.append(TraceRecord(v_bad, True))
            continue
        w_vertex = hg.n
        # per-endpoint spanning path of H+ (spine, then w) witnessing W_t
        paths = {successor: rotated(spine + (w_vertex,), idx)}
        w_layers = [[successor]]
        w_union = {successor}
        while True:
            w_t = w_layers[-1]
            blocked = ext_of(spine_pos, w_union | x_set, spine)
            t_t = set()
            for y in w_t:
                for cand in hg.neighbors(y):
                    if cand not in blocked:
                        t_t.add(cand)
            if len(t_t) <= 5 * len(w_t):
                break
            placed = []
            placed_set = set()
            for cand in sorted(t_t):
                if cand == spine[0] or cand == spine[-1]:
                    continue
                # every vertex of T_t has a neighbour in W_t
                seq = paths[min(hg.neighbors(cand).intersection(w_t))]
                i = seq.index(cand)
                if i > len(seq) - 3:
                    raise SoundnessError("pivot adjacent to its endpoint")
                child = rotated(seq, i)
                ep = child[-1]
                if ep in placed_set or ep in w_union or ep in x_set or ep == w_vertex:
                    continue
                placed_set.add(ep)
                placed.append((ep, child))
            if len(placed) < 2 * len(w_t):
                raise SoundnessError("doubling shortfall (internal bug)")
            placed.sort()
            placed = placed[: 2 * len(w_t)]
            layer = []
            for ep, child in placed:
                layer.append(ep)
                paths[ep] = child
            w_layers.append(layer)
            w_union.update(layer)
        final_t = sorted(t_t)
        u_set |= set(w_layers[-1])
        for layer in w_layers:
            x_set |= set(layer)
        x_set |= t_t
        traces.append(TraceRecord(v_bad, False, [list(w) for w in w_layers], final_t))
        _check_ux(hg, spine, spine_pos, u_set, x_set, traces)
    cert = ProcessingCertificate(u_set, x_set, traces)
    _check_ux(hg, spine, spine_pos, u_set, x_set, traces)
    return cert


def _check_ux(hg, spine, spine_pos, u_set, x_set, traces):
    if not u_set <= x_set:
        raise SoundnessError("U is not contained in X")
    ext_x = ext_of(spine_pos, x_set, spine)
    nbhd_u = set()
    for v in u_set:
        nbhd_u |= hg.neighbors(v)
    if not nbhd_u <= ext_x:
        raise SoundnessError("N(U) is not contained in ext(X)")
    if 7 * len(u_set) < len(x_set):
        raise SoundnessError(f"|X| = {len(x_set)} exceeds 7|U| = {7 * len(u_set)}")
    successors = {
        spine[spine_pos[tr.vertex] + 1] for tr in traces
    }
    if not successors <= x_set:
        raise SoundnessError("a bad vertex's successor is not in X")

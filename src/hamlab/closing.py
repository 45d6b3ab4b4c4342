"""Closing a maximum-length path into a Hamilton cycle.

Two routes are provided.  The proof-faithful pipeline runs in auditable
stages: rotate both path ends to collect endpoint pairs, split the base path
into 2*rho segments, pick a tau-sequence of unbroken segments shared by many
pairs, model each half as a contracted path graph (connectors between segments
become single edges, chords incident to segment endpoints are dropped), rotate
inside the models from a good initial pivot, and close with an edge between
the two obtained endpoint sets.  The heuristic route is a plain randomized
rotation loop.  Every cycle either route returns passes validate_cycle; a
non-spanning cycle is reopened through a vertex with an outside neighbor and
the search restarts from the longer path.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from dataclasses import dataclass, field

from .graph import (
    Cycle,
    Graph,
    Path,
    SoundnessError,
    edge_key,
    is_connected,
    validate_cycle,
    validate_path,
)
from .pivots import GOOD_RATIO, SpannedGraph, augment, classify_pivots
# `rotate` stays bound here: bench/tracing.py wraps each module's binding of it
from .rotation import PathBuf, closure, double_rotation_targets, extend, rotate  # noqa: F401

# The proof-faithful pipeline's fixed parameters.  rho, the number of segment
# pairs, is the largest rotation count among the endpoint pairs.
TAU = 2  # tau-sequence length; even, since sigma0 is halved between the sides
A_CAP = 12  # first-stage endpoints a that get a second-stage family
A_FRACTION = 0.5  # share of the ranked first endpoints kept as anchor candidates
ANCHOR_CAP = 8  # anchors tried per side in the closing-edge search
PIVOT_CAP = 6  # good interior pivots kept per model
CLOSURE_BUDGET = 4000  # state budget of each pivot audit and model closure
PROOF_ATTEMPTS = 2  # restarts on which auto mode tries the pipeline first


# ---------------------------------------------------------------------------
# Segment decomposition and tau-sequences


@dataclass(frozen=True)
class SegmentDecomposition:
    base: Path
    rho: int
    segments: tuple  # 2*rho contiguous runs, in base order
    seg_of: tuple  # base position -> index of the segment holding it
    starts: tuple  # base position where each segment starts, then len(base)

    @property
    def count(self):
        return len(self.segments)

    def segment_index_of(self, v):
        i = self.base.pos.get(v)
        if i is None:
            raise KeyError(v)
        return self.seg_of[i]


def decompose(path, rho, protected_edge=None):
    """Split the path into 2*rho contiguous segments of near-equal size.

    Sizes differ by at most one (the first `len % 2rho` segments get the extra
    vertex).  With a protected edge, the boundary that would separate its
    endpoints is shifted by one so the edge lies inside a single segment.
    """
    q = len(path)
    if rho < 1 or 2 * rho > q:
        raise ValueError(f"rho={rho} too large for path of length {q}")
    k = 2 * rho
    size, extra = divmod(q, k)
    bounds = []
    start = 0
    for i in range(k):
        stop = start + size + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    if protected_edge is not None:
        u, v = protected_edge
        pu, pv = path.pos[u], path.pos[v]
        lo = min(pu, pv)
        for i, (a, b) in enumerate(bounds):
            if b == lo + 1 and i + 1 < k:
                # shift the boundary so both endpoints land in segment i+1
                if b - a > 1:
                    bounds[i] = (a, b - 1)
                    bounds[i + 1] = (b - 1, bounds[i + 1][1])
                else:
                    bounds[i] = (a, b + 1)
                    bounds[i + 1] = (b + 1, bounds[i + 1][1])
                break
    bounds = [(a, b) for a, b in bounds if b > a]
    segments = tuple(path.vertices[a:b] for a, b in bounds)
    seg_of = tuple(i for i, (a, b) in enumerate(bounds) for _ in range(a, b))
    starts = tuple(a for a, _ in bounds) + (q,)
    return SegmentDecomposition(path, rho, segments, seg_of, starts)


@dataclass(frozen=True)
class RotatedPathRecord:
    pair: tuple
    rotations: int
    broken_p0: frozenset  # base-path edges absent from the pair path
    unbroken: tuple  # (segment index, reversed?, start position), by appearance


def unbroken_segments(dec, runs, pair=None, rotations=0):
    """Mark which segments survive intact (forward or reversed) on the path
    that `runs` hold over the decomposed base path (see `rotation`).

    A segment survives exactly when it lies inside one run; it is reversed
    when that run is walked downwards (a one-vertex segment never is), and
    it starts at the run's path offset plus the distance from the run's
    start to the segment's first base position on the way, both read from
    `dec.starts`.  The broken base edges are the ones that leave a run at
    its upper end.  A record costs O(runs + rho), not O(n).
    """
    seq = dec.base.vertices
    seg_of, starts = dec.seg_of, dec.starts
    last = len(seq) - 1
    broken = []
    found = []
    offset = 0
    for a, b in runs:
        lo, hi = (a, b) if a <= b else (b, a)
        first, final = seg_of[lo], seg_of[hi]
        if starts[first] < lo:
            first += 1  # the run starts inside this segment
        if starts[final + 1] > hi + 1:
            final -= 1  # the run ends inside this segment
        if hi < last:
            broken.append(edge_key(seq[hi], seq[hi + 1]))
        if a <= b:
            for i in range(first, final + 1):
                found.append((i, False, offset - a + starts[i]))
        else:
            end = offset + a + 1  # base position x is at path position end - 1 - x
            for i in range(final, first - 1, -1):
                found.append((i, starts[i + 1] - starts[i] > 1, end - starts[i + 1]))
        offset += hi - lo + 1
    return RotatedPathRecord(pair, rotations, frozenset(broken), tuple(found))


@dataclass(frozen=True)
class TauSequence:
    """Ordered, oriented list of unbroken segments."""

    entries: tuple  # ((segment index, reversed?), ...)

    def __len__(self):
        return len(self.entries)

    def segment_ids(self):
        return [seg for seg, _ in self.entries]


def tau_sequences_of(record, tau):
    """Every tau-sequence contained in the record (order of appearance kept)."""
    oriented = [(seg, rev) for seg, rev, _ in record.unbroken]
    return [TauSequence(c) for c in itertools.combinations(oriented, tau)]


def select_sigma0(records, tau, must_include=None):
    """Pick the tau-sequence contained in the records of the most distinct
    (a, b) pairs.

    Returns (sigma0, pair set).  A pair counts once however many of its
    records contain the sequence, and ties go to the larger entries.  With
    `must_include`, only sequences using that segment index are considered.
    An entry (seg, rev) is counted as the integer 2*seg + rev, whose order
    is the order of the tuples, and only the winner's pair set is built.
    """
    layouts = {}  # pair -> coded layouts of its records
    for rec in records:
        if len(rec.unbroken) < tau:
            raise ValueError("record has fewer unbroken segments than tau")
        layouts.setdefault(rec.pair, []).append(tuple(2 * s + r for s, r, _ in rec.unbroken))
    combos = itertools.combinations
    counts = collections.Counter()
    for coded in layouts.values():
        seqs = combos(coded[0], tau)
        if len(coded) > 1:
            seqs = set(seqs).union(*(combos(c, tau) for c in coded[1:]))
        if must_include is not None:
            seqs = [e for e in seqs if must_include in (c >> 1 for c in e)]
        counts.update(seqs)
    if not counts:
        return None, set()
    best = max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
    won = {p for p, coded in layouts.items() if any(best in combos(c, tau) for c in coded)}
    return TauSequence(tuple((c >> 1, bool(c & 1)) for c in best)), won


# ---------------------------------------------------------------------------
# Contracted half models


@dataclass
class ContractedModel:
    """Dense path-graph model of one tau-sequence half.

    Model vertex i is position i along the model spine; labels maps it back to
    the real vertex.  Link edges (contracted connectors) are the spine edges
    between consecutive runs; their real expansions depend on the concrete
    pair path and are resolved at lift time.
    """

    spanned: SpannedGraph | None
    labels: tuple
    side: int
    runs: tuple  # oriented real runs, in sigma order (after any contraction)
    frozen: bool = False  # no rotatable structure; endpoint set is the anchor


def _oriented_runs(dec, half):
    runs = []
    for seg_idx, rev in half.entries:
        seg = dec.segments[seg_idx]
        runs.append(tuple(reversed(seg)) if rev else tuple(seg))
    return tuple(runs)


def build_contracted(dec, half, g, side, protected_segment=None):
    """Build the model graph of one half (side 1 starts at x, side 2 at y).

    Consecutive runs are linked last-to-first; chords of G are added only
    between run interiors.  A protected segment is contracted away: it
    disappears from the model (its vertices ride inside a link expansion),
    except that a boundary vertex (x or y) it contains stays as a lone run.
    """
    runs = list(_oriented_runs(dec, half))
    if protected_segment is not None:
        keep = []
        for (seg_idx, rev), run in zip(half.entries, runs):
            if seg_idx != protected_segment:
                keep.append(run)
                continue
            is_last_of_side1 = side == 1 and seg_idx == half.entries[-1][0]
            is_first_of_side2 = side == 2 and seg_idx == half.entries[0][0]
            if is_last_of_side1:
                keep.append((run[-1],))  # x stays
            elif is_first_of_side2:
                keep.append((run[0],))  # y stays
        runs = keep
    if not runs:
        return ContractedModel(None, (), side, (), frozen=True)
    concat = [v for run in runs for v in run]
    spine_real = tuple(reversed(concat)) if side == 1 else tuple(concat)
    labels = spine_real
    index = {v: i for i, v in enumerate(spine_real)}
    l = len(spine_real)
    edges = set()
    for i in range(l - 1):
        edges.add((i, i + 1))
    interiors = set()
    for run in runs:
        interiors.update(run[1:-1])
    for u in interiors:
        for v in g.neighbors(u):
            if v in interiors and index[u] < index[v]:
                edges.add((index[u], index[v]))
    model_graph = Graph(l, edges)
    spanned = SpannedGraph(model_graph, tuple(range(l)))
    frozen = l < 3
    return ContractedModel(spanned, labels, side, tuple(runs), frozen=frozen)


def _run_bounds(model):
    """(first, last) spine positions of each run, in spine order."""
    bounds = []
    offset = 0
    for run in (tuple(reversed(model.runs)) if model.side == 1 else model.runs):
        bounds.append((offset, offset + len(run) - 1))
        offset += len(run)
    return bounds


def _link_expansions(model, phat):
    """Real interior vertices hidden inside each model link edge."""
    expansions = {}
    bounds = _run_bounds(model)
    for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
        u = model.labels[a1]
        v = model.labels[b0]
        pu, pv = phat.pos[u], phat.pos[v]
        lo, hi = (pu, pv) if pu < pv else (pv, pu)
        interior = phat.vertices[lo + 1 : hi]
        if pu < pv:
            expansions[(a1, b0)] = interior
            expansions[(b0, a1)] = tuple(reversed(interior))
        else:
            expansions[(a1, b0)] = tuple(reversed(interior))
            expansions[(b0, a1)] = interior
    return expansions


def _w_block(model, phat):
    """Connector hidden behind the helper vertex w, walking away from v_l."""
    far = model.labels[-1]
    p = phat.pos[far]
    if model.side == 1:
        return tuple(reversed(phat.vertices[:p]))  # toward the a-anchor
    return tuple(phat.vertices[p + 1 :])  # toward the b-anchor


def lift_model_path(model_seq, model, phat):
    """Expand a spanning path of the augmented model back to a real path."""
    labels = model.labels
    l = len(labels)
    w_id = l
    links = _link_expansions(model, phat)
    block = _w_block(model, phat)
    out = [labels[model_seq[0]]]
    for mu, mv in zip(model_seq, model_seq[1:]):
        if mv == w_id:
            if mu == l - 1:
                out.extend(block)
            else:
                out.extend(reversed(block))
        elif mu == w_id:
            out.append(labels[mv])
        elif (mu, mv) in links:
            out.extend(links[(mu, mv)])
            out.append(labels[mv])
        else:
            out.append(labels[mv])
    return out


# ---------------------------------------------------------------------------
# Model closures that remember a witnessing path per endpoint


def _model_link_edges(model):
    """Model spine edges that stand for contracted connectors."""
    bounds = _run_bounds(model)
    return {(a1, b0) for (a0, a1), (b0, b1) in zip(bounds, bounds[1:])}


def model_endpoint_paths(model, pivot_model, budget=4000, log=None):
    """Endpoint -> model spanning path map for rotations from the given pivot.

    Rotations that would break a link edge or a helper-vertex edge are
    skipped: contracted connectors are frozen blocks, so every broken edge
    stays inside a segment and every surviving state lifts to a real path.
    """
    aug = augment(model.spanned, pivot_model)
    forbidden = _model_link_edges(model)
    forbidden |= {edge_key(a, b) for a, b in aug.added_edges}
    return closure(
        aug.graph,
        aug.rotated_start,
        exclude=(aug.added_vertex,),
        forbidden=forbidden,
        budget=budget,
        log=log,
    ).witness


# ---------------------------------------------------------------------------
# Failure reporting


@dataclass
class CloseFailure:
    stage: str
    detail: str = ""
    stats: dict = field(default_factory=dict)

    def to_json(self):
        return {"stage": self.stage, "detail": self.detail, "stats": _stats_json(self.stats)}


def new_stats():
    """Fresh search counters shared by every closing route."""
    return {"rotations": 0, "restarts": 0, "families_built": 0}


def _stats_json(stats):
    return {k: sorted(v) if isinstance(v, set) else v for k, v in stats.items()}


# ---------------------------------------------------------------------------
# Proof-faithful closing


def absorb(g, cycle_seq, protected_edge=None):
    """Reopen a non-spanning cycle at a vertex with an outside neighbor."""
    members = set(cycle_seq)
    m = len(cycle_seq)
    for idx, v in enumerate(cycle_seq):
        if protected_edge is not None:
            succ = cycle_seq[(idx + 1) % m]
            if edge_key(v, succ) == protected_edge:
                continue
        for u in sorted(g.neighbors(v)):
            if u not in members:
                reopened = cycle_seq[idx + 1 :] + cycle_seq[: idx + 1]
                return Path(reopened + (u,))
    return None


def close_proof_faithful(g, p0, protected_edge=None, stats=None):
    """Run the segment/tau-sequence pipeline until a Hamilton cycle closes.

    Returns a Cycle or a CloseFailure naming the first stage whose threshold
    was unmet.  A validated non-spanning cycle is absorbed into a longer path
    and the pipeline restarts from it.
    """
    if stats is None:
        stats = new_stats()
    if g.n < 3:
        return CloseFailure("too_small", stats=stats)
    if not is_connected(g):
        return CloseFailure("connectivity", stats=stats)
    path = extend(g, p0)
    while True:
        result = _pipeline_once(g, path, protected_edge, stats)
        if isinstance(result, CloseFailure):
            return result
        cycle_seq = result
        verdict = validate_cycle(g, cycle_seq)
        if not verdict:
            raise SoundnessError(f"pipeline produced an invalid cycle: {verdict.reason}")
        if len(cycle_seq) == g.n:
            return Cycle(cycle_seq)
        reopened = absorb(g, cycle_seq, protected_edge)
        if reopened is None:
            return CloseFailure("absorption", "no outside neighbor", stats)
        path = extend(g, reopened)


def _pipeline_once(g, path, protected_edge, stats):
    targets = double_rotation_targets(
        g, path, a_cap=A_CAP, protected_edge=protected_edge, stats=stats
    )
    stats["families_built"] += targets.families_built
    if not targets.pair_runs:
        return CloseFailure("endpoint_families", "no endpoint pairs", stats)
    # rho >= 1: the path is maximal in a connected graph on n >= 3 vertices
    rho = min(max(1, max(targets.pair_rotations.values())), len(path) // 2)
    dec = decompose(path, rho, protected_edge=protected_edge)
    protected_segment = None
    if protected_edge is not None:
        protected_segment = dec.segment_index_of(protected_edge[0])
        if dec.segment_index_of(protected_edge[1]) != protected_segment:
            return CloseFailure("segments", "protected edge split", stats)
    records = []
    for pair in targets.pairs():
        r = targets.pair_rotations[pair]
        if r > rho:
            continue
        rec = unbroken_segments(dec, targets.pair_runs[pair], pair=pair, rotations=r)
        if len(rec.unbroken) >= TAU:
            records.append(rec)
    if not records:
        return CloseFailure("tau_sequences", "no record with tau unbroken segments", stats)
    sigma0, pairs = select_sigma0(records, TAU, must_include=protected_segment)
    if sigma0 is None or not pairs:
        return CloseFailure("sigma0", "no tau-sequence shared by any pair", stats)
    half1 = TauSequence(sigma0.entries[: TAU // 2])
    half2 = TauSequence(sigma0.entries[TAU // 2 :])
    model1 = build_contracted(dec, half1, g, 1, protected_segment)
    model2 = build_contracted(dec, half2, g, 2, protected_segment)

    seg_x = dec.segments[half1.entries[-1][0]]
    x = seg_x[0] if half1.entries[-1][1] else seg_x[-1]
    seg_y = dec.segments[half2.entries[0][0]]
    y = seg_y[-1] if half2.entries[0][1] else seg_y[0]

    # rank cutoff replacing the alpha*n/2 membership threshold
    first_counts = collections.Counter(a for a, _ in pairs)
    ranked = sorted(first_counts, key=lambda a: (-first_counts[a], a))
    keep = max(1, math.ceil(len(ranked) * A_FRACTION))
    a_hat_pool = ranked[:keep]

    good1 = _candidate_pivots(model1)
    good2 = _candidate_pivots(model2)
    if good1 is None or good2 is None:
        return CloseFailure("good_vertices", "no good interior pivot", stats)

    found = _search_closing_edge(g, model1, model2, good1, good2, a_hat_pool, pairs, stats)
    if found is None:
        return CloseFailure("closing_edge", "no edge between V1 and V2", stats)
    a_hat, b_hat, side1, side2, z_model1, z_model2 = found
    phat = targets.pair_path((a_hat, b_hat))

    r1 = _side_real_path(model1, side1, z_model1, phat, x)
    r2 = _side_real_path(model2, side2, z_model2, phat, y)
    px, py = phat.pos[x], phat.pos[y]
    if not px < py:
        raise SoundnessError("x must precede y on the pair path")
    p3 = phat.vertices[px : py + 1]
    if not _untouched(p3, phat):
        raise SoundnessError("middle subpath must be untouched")
    cycle_seq = tuple(reversed(r1)) + p3[1:-1] + tuple(r2)
    if set(cycle_seq) != set(phat.vertices):
        raise SoundnessError("the cycle does not cover the pair path")
    if not validate_path(g, r1):
        raise SoundnessError("side-1 lift is not a path")
    if not validate_path(g, r2):
        raise SoundnessError("side-2 lift is not a path")
    return cycle_seq


def _untouched(p3, phat):
    # p3 is taken verbatim from phat, by construction
    return all(phat.pos[v] == phat.pos[p3[0]] + i for i, v in enumerate(p3))


def _candidate_pivots(model):
    """Good model pivots (spine positions) interior to their runs, or None
    when a rotatable side has none.

    A frozen side (fully contracted) has no pivots but is still usable: its
    endpoint set degenerates to the anchor.
    """
    if model.frozen:
        return []
    audit = classify_pivots(model.spanned, GOOD_RATIO, budget=CLOSURE_BUDGET)
    tips = {pos for bound in _run_bounds(model) for pos in bound}
    good = [pm for pm in audit.good if pm not in tips]
    return good[:PIVOT_CAP] if good else None


def _search_closing_edge(g, model1, model2, good1, good2, a_hat_pool, pairs, stats):
    """Find (a_hat, b_hat, model paths, endpoints) with a G-edge V1 x V2."""
    bmap = {}
    for a, b in pairs:
        bmap.setdefault(a, set()).add(b)
    cache1, cache2 = {}, {}
    broken_log = stats.setdefault("broken_edges", set())

    def side_options(model, goods, anchor, cache):
        # real endpoint -> model path, over the good pivots adjacent to the anchor
        if model.frozen:
            return {anchor: None}  # endpoint set degenerates to the anchor
        out = {}
        for pm in goods:
            real_pivot = model.labels[pm]
            if not g.has_edge(anchor, real_pivot):
                continue
            if pm not in cache:
                model_log = set()
                cache[pm] = model_endpoint_paths(
                    model, pm, budget=CLOSURE_BUDGET, log=model_log
                )
                w_id = len(model.labels)
                broken_log.update(
                    edge_key(model.labels[a], model.labels[b])
                    for a, b in model_log
                    if a != w_id and b != w_id
                )
            for ep, seq in cache[pm].items():
                out.setdefault(model.labels[ep], seq)
        return out

    for a_hat in a_hat_pool[:ANCHOR_CAP]:
        v1 = side_options(model1, good1, a_hat, cache1)
        if not v1:
            continue
        for b_hat in sorted(bmap.get(a_hat, ()))[:ANCHOR_CAP]:
            v2 = side_options(model2, good2, b_hat, cache2)
            if not v2:
                continue
            for z1 in sorted(v1):
                for z2 in sorted(v2):
                    if z1 != z2 and g.has_edge(z1, z2):
                        return a_hat, b_hat, v1[z1], v2[z2], z1, z2
    return None


def _side_real_path(model, model_seq, z_real, phat, boundary):
    """Materialize one side: the lifted model path, or the frozen prefix."""
    if model_seq is None:
        # frozen side: the untouched stretch from the boundary to the anchor
        p = phat.pos[boundary]
        if model.side == 1:
            seq = tuple(reversed(phat.vertices[: p + 1]))
        else:
            seq = tuple(phat.vertices[p:])
        if seq[-1] != z_real:
            raise SoundnessError("frozen side does not end at its anchor")
        return list(seq)
    lifted = lift_model_path(model_seq, model, phat)
    if not (lifted[0] == boundary and lifted[-1] == z_real):
        raise SoundnessError("lifted side has the wrong endpoints")
    return lifted


# ---------------------------------------------------------------------------
# Heuristic closing


def close_heuristic(g, path, budget=100000, rng=None, protected_edge=None, stats=None):
    """Randomized rotation loop: extend, close when the endpoints are adjacent,
    absorb when the closed cycle does not span, otherwise rotate (round-robin
    over the two ends, preferring rotations that enable a closing edge).

    The loop works on one `PathBuf`; a vertex tuple is made only when a cycle
    closes."""
    if stats is None:
        stats = new_stats()
    if rng is None:
        rng = random.Random(0)
    if g.n < 3:
        return CloseFailure("too_small", stats=stats)
    buf = PathBuf(g.n, path.vertices)
    buf.extend(g, rng)
    spent = 0
    while True:
        if len(buf) == 1:
            return CloseFailure("no_rotation", "isolated start", stats)
        if g.has_edge(buf.first, buf.last) and len(buf) >= 3:
            cycle_seq = buf.vertices()
            verdict = validate_cycle(g, cycle_seq)
            if not verdict:
                raise SoundnessError(verdict.reason)
            if len(cycle_seq) == g.n:
                return Cycle(cycle_seq)
            reopened = absorb(g, cycle_seq, protected_edge)
            if reopened is None:
                return CloseFailure("absorption", "component exhausted", stats)
            buf.load(reopened.vertices)
            buf.extend(g, rng)
            continue
        if spent >= budget:
            return CloseFailure("budget", f"{spent} rotations", stats)
        moved = False
        for _ in range(2):
            q = len(buf)
            first = buf.first
            candidates = []
            closing = []
            for u in g.neighbors(buf.last):
                i = buf.position(u)
                if i is None or i > q - 3:
                    continue
                succ = buf.at(i + 1)
                if protected_edge is not None and edge_key(u, succ) == protected_edge:
                    continue
                candidates.append(i)
                if g.has_edge(first, succ):
                    closing.append(i)
            if candidates:
                pool = closing if closing else candidates
                broken, _ = buf.rotate(rng.choice(pool))
                spent += 1
                stats["rotations"] += 1
                stats.setdefault("broken_edges", set()).add(broken)
                # round-robin: next rotation works the other end
                buf.extend(g, rng)
                buf.reverse()
                moved = True
                break
            buf.reverse()
        if not moved:
            return CloseFailure("no_rotation", "both ends stuck", stats)


# ---------------------------------------------------------------------------
# Top-level search


@dataclass
class SearchResult:
    cycle: Cycle | None
    stage: str | None
    stats: dict

    @property
    def found(self):
        return self.cycle is not None

    def to_json(self):
        if self.found:
            return {"cycle": list(self.cycle.vertices), "stats": _stats_json(self.stats)}
        return {"stage": self.stage, "stats": _stats_json(self.stats)}


def find_hamilton_cycle(
    g,
    mode="auto",
    budget=100000,
    seed=0,
    max_restarts=None,
):
    """Search for a Hamilton cycle: extend from a seeded random start, close
    per the requested mode, restart with a new start vertex on failure.

    auto mode runs the proof-faithful pipeline on the first `PROOF_ATTEMPTS`
    restarts with a heuristic fallback; the rotation budget is shared across
    all restarts.  Every returned cycle passes the final validation gate.
    """
    stats = new_stats()
    if g.n < 3:
        return SearchResult(None, "too_small", stats)
    if not is_connected(g):
        return SearchResult(None, "connectivity", stats)
    if g.min_degree() < 2:
        return SearchResult(None, "min_degree", stats)
    last_stage = "budget"
    r = 0
    while True:
        if max_restarts is not None and r >= max_restarts:
            break
        if r > 0 and stats["rotations"] >= budget:
            break
        rng = random.Random(f"hamilton:{seed}:{r}")
        start = rng.randrange(g.n)
        path = extend(g, Path((start,)), rng)
        stats["restarts"] = r
        outcome = None
        if mode == "proof_faithful" or (mode == "auto" and r < PROOF_ATTEMPTS):
            outcome = close_proof_faithful(g, path, stats=stats)
        if mode in ("heuristic", "auto") and not isinstance(outcome, Cycle):
            if outcome is not None:
                last_stage = outcome.stage
            remaining = budget - stats["rotations"]
            if remaining > 0 or r == 0:
                outcome = close_heuristic(
                    g, path, budget=max(remaining, 0), rng=rng, stats=stats
                )
        if isinstance(outcome, Cycle):
            verdict = validate_cycle(g, outcome.vertices, hamilton=True)
            if verdict:
                return SearchResult(outcome, None, stats)
            last_stage = "soundness_gate"
        elif isinstance(outcome, CloseFailure):
            last_stage = outcome.stage
        r += 1
    return SearchResult(None, last_stage, stats)

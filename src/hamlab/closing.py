"""Closing a maximum-length path into a Hamilton cycle.

Two routes are provided.  The proof-faithful pipeline runs in auditable
stages: rotate both path ends to collect endpoint pairs, split the base path
into 2*rho segments, pick sigma0, the ordered pair of unbroken segments that
the layouts of the most pairs contain (a tau-sequence with tau = 2), model
each of its halves, one oriented segment, as a path graph that keeps only the
chords between the segment's interior vertices, rotate inside the models from
a good initial pivot, and close with an edge between the two obtained
endpoint sets.  The heuristic route is a plain randomized rotation loop.
Every cycle either route returns passes validate_cycle; a non-spanning cycle
is reopened through a vertex with an outside neighbor and the search restarts
from the longer path.
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

# The search modes of `find_hamilton_cycle`, in the order the CLI lists them.
MODES = ("proof_faithful", "heuristic", "auto")

# The proof-faithful pipeline's fixed parameters.  rho, the number of segment
# pairs, is the largest rotation count among the endpoint pairs.
A_CAP = 12  # first-stage endpoints a that get a second-stage family
# Share of the ranked first endpoints kept as anchor candidates; it bounds the
# closing-edge search's anchor loop.  At 1.0, gnp(400, 3 ln n / n) closes on
# all graph seeds 0-7 rather than six of them, but the proof-pipeline
# benchmark runs about 2.45 times as long.
A_FRACTION = 0.5
CLOSURE_BUDGET = 4000  # state budget of each pivot audit and model closure


# ---------------------------------------------------------------------------
# Segment decomposition and sigma0


@dataclass(frozen=True)
class SegmentDecomposition:
    segments: tuple  # 2*rho contiguous runs, in base order
    seg_of: tuple  # base position -> index of the segment holding it
    starts: tuple  # base position where each segment starts, then len(base)


def decompose(path, rho):
    """Split the path into 2*rho contiguous segments of near-equal size.

    Sizes differ by at most one (the first `len % 2rho` segments get the extra
    vertex).
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
    segments = tuple(path.vertices[a:b] for a, b in bounds)
    seg_of = tuple(i for i, (a, b) in enumerate(bounds) for _ in range(a, b))
    starts = tuple(a for a, _ in bounds) + (q,)
    return SegmentDecomposition(segments, seg_of, starts)


def unbroken_segments(dec, runs):
    """The coded layout of the path that `runs` hold over the decomposed base
    path (see `rotation`): `2*seg + reversed` for each segment that survives
    intact, in order of appearance.

    A segment survives exactly when it lies inside one run; it is reversed
    when that run is walked downwards (a one-vertex segment never is).  Only
    `dec.seg_of` and `dec.starts` are read, so a layout costs O(runs + rho),
    not O(n); the loop takes one branch per run, on its direction.
    """
    seg_of, starts = dec.seg_of, dec.starts
    coded = []
    for a, b in runs:
        if a <= b:
            first, final = seg_of[a], seg_of[b]
            if starts[first] < a:
                first += 1  # the run starts inside this segment
            if starts[final + 1] > b + 1:
                final -= 1  # the run ends inside this segment
            coded.extend(range(2 * first, 2 * final + 1, 2))
        else:
            first, final = seg_of[b], seg_of[a]
            if starts[first] < b:
                first += 1
            if starts[final + 1] > a + 1:
                final -= 1
            for i in range(final, first - 1, -1):
                coded.append(2 * i + (starts[i + 1] - starts[i] > 1))
    return tuple(coded)


def select_sigma0(layouts):
    """Pick the ordered pair of unbroken segments that the coded layouts of
    the most (a, b) pairs contain.

    `layouts` maps each pair to its coded layout, as `unbroken_segments`
    returns it.  Returns ((seg, rev), (seg, rev)) and the set of pairs whose
    layout contains it, or (None, set()) when there is none.  Ties go to the
    larger entries.  An entry (seg, rev) is coded as the integer
    2*seg + rev, whose order is the order of the tuples.  One `Counter`
    counts the ordered pairs of every layout, and only the winner's pair set
    is built: a segment appears at most once in a layout, so the layout holds
    the winner (c1, c2) exactly when c2 follows c1 in it.
    """
    seqs = itertools.chain.from_iterable(itertools.combinations(c, 2) for c in layouts.values())
    counts = collections.Counter(seqs)
    if not counts:
        return None, set()
    c1, c2 = max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
    won = {
        p for p, coded in layouts.items() if c1 in coded and c2 in coded[coded.index(c1) + 1 :]
    }
    return ((c1 >> 1, bool(c1 & 1)), (c2 >> 1, bool(c2 & 1))), won


# ---------------------------------------------------------------------------
# Contracted half models


@dataclass
class ContractedModel:
    """Dense path-graph model of one half of sigma0, an oriented segment.

    Model vertex i is position i along the model spine; labels maps it back to
    the real vertex.  The spine starts at the half's boundary vertex (x on
    side 1, y on side 2); its far end meets the rest of the pair path, which
    the helper vertex w stands for at lift time.
    """

    spanned: SpannedGraph
    labels: tuple
    side: int
    frozen: bool = False  # no rotatable structure; endpoint set is the anchor


def build_contracted(dec, half, g, side):
    """Build the model graph of a half of sigma0, the oriented segment
    `half` = (seg, rev) (side 1 starts at x, side 2 at y).

    The spine is the oriented segment, reversed on side 1 so that it starts
    at x; chords of G are added only between its interior vertices.  A
    segment of fewer than 3 vertices has no interior and gives a frozen
    model.
    """
    seg_idx, rev = half
    seg = dec.segments[seg_idx]
    run = seg[::-1] if rev else seg
    labels = tuple(run[::-1] if side == 1 else run)
    l = len(labels)
    edges = {(i, i + 1) for i in range(l - 1)}
    interior = {v: i for i, v in enumerate(labels[1:-1], 1)}
    for u, i in interior.items():
        for v in g.neighbors(u):
            j = interior.get(v)
            if j is not None and i < j:
                edges.add((i, j))
    spanned = SpannedGraph(Graph(l, edges), tuple(range(l)))
    return ContractedModel(spanned, labels, side, frozen=l < 3)


def lift_model_path(model_seq, model, phat):
    """Expand a spanning path of the augmented model back to a real path:
    each model vertex becomes its label, and the helper vertex w the
    connector behind it, which walks away from v_l on the pair path (toward
    the a-anchor on side 1, the b-anchor on side 2)."""
    labels = model.labels
    l = len(labels)  # the id of w
    p = phat.pos[labels[-1]]
    block = tuple(reversed(phat.vertices[:p])) if model.side == 1 else phat.vertices[p + 1 :]
    out = [labels[model_seq[0]]]
    for mu, mv in zip(model_seq, model_seq[1:]):
        if mv != l:
            out.append(labels[mv])
        elif mu == l - 1:
            out.extend(block)
        else:
            out.extend(reversed(block))
    return out


# ---------------------------------------------------------------------------
# Model closures that remember a witnessing path per endpoint


def model_endpoint_paths(model, pivot_model, budget=4000, log=None):
    """Endpoint -> model spanning path map for rotations from the given pivot.

    Rotations that would break one of the helper vertex's two edges are
    skipped: the connector behind w is a frozen block, so every broken edge
    stays inside the segment and every surviving state lifts to a real path.
    """
    aug = augment(model.spanned, pivot_model)
    return closure(
        aug.graph,
        aug.rotated_start,
        exclude=(aug.added_vertex,),
        forbidden={edge_key(a, b) for a, b in aug.added_edges},
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


def new_stats():
    """Fresh search counters shared by every closing route."""
    return {"rotations": 0, "restarts": 0, "families_built": 0}


def _stats_json(stats):
    return {k: sorted(v) if isinstance(v, set) else v for k, v in stats.items()}


# ---------------------------------------------------------------------------
# Proof-faithful closing


def absorb(g, cycle_seq):
    """The site (idx, u) that reopens a non-spanning cycle into a longer path,
    cycle_seq[idx+1:] + cycle_seq[:idx+1] + (u,), or None when no vertex has
    an outside neighbour.

    idx is the first cycle position whose neighbour set is not a subset of
    the cycle's vertices, and u is its smallest outside neighbour.  Each
    position costs one set test; only the site's outside neighbours are
    compared.
    """
    members = set(cycle_seq)
    for idx, v in enumerate(cycle_seq):
        nb = g.neighbors(v)
        if not nb <= members:
            return idx, min(nb - members)
    return None


def close_proof_faithful(g, p0, stats=None):
    """Run the segment/sigma0 pipeline until a Hamilton cycle closes.

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
        result = _pipeline_once(g, path, stats)
        if isinstance(result, CloseFailure):
            return result
        cycle_seq = result
        verdict = validate_cycle(g, cycle_seq)
        if not verdict:
            raise SoundnessError(f"pipeline produced an invalid cycle: {verdict.reason}")
        if len(cycle_seq) == g.n:
            return Cycle(cycle_seq)
        site = absorb(g, cycle_seq)
        if site is None:
            return CloseFailure("absorption", "no outside neighbor", stats)
        idx, u = site
        path = extend(g, Path(cycle_seq[idx + 1 :] + cycle_seq[: idx + 1] + (u,)))


def _pipeline_once(g, path, stats):
    targets = double_rotation_targets(g, path, a_cap=A_CAP, stats=stats)
    stats["families_built"] += targets.families_built
    if not targets.pair_runs:
        return CloseFailure("endpoint_families", "no endpoint pairs", stats)
    # rho >= 1: the path is maximal in a connected graph on n >= 3 vertices
    rho = min(max(1, max(targets.pair_rotations.values())), len(path) // 2)
    dec = decompose(path, rho)
    layouts = {}  # pair -> coded layout
    for pair in targets.pairs():
        if targets.pair_rotations[pair] > rho:
            continue
        coded = unbroken_segments(dec, targets.pair_runs[pair])
        if len(coded) >= 2:
            layouts[pair] = coded
    if not layouts:
        return CloseFailure("tau_sequences", "no record with tau unbroken segments", stats)
    sigma0, pairs = select_sigma0(layouts)
    if sigma0 is None:
        return CloseFailure("sigma0", "no tau-sequence shared by any pair", stats)
    model1 = build_contracted(dec, sigma0[0], g, 1)
    model2 = build_contracted(dec, sigma0[1], g, 2)
    x, y = model1.labels[0], model2.labels[0]

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
    cycle_seq = tuple(reversed(r1)) + p3[1:-1] + tuple(r2)
    if set(cycle_seq) != set(phat.vertices):
        raise SoundnessError("the cycle does not cover the pair path")
    if not validate_path(g, r1):
        raise SoundnessError("side-1 lift is not a path")
    if not validate_path(g, r2):
        raise SoundnessError("side-2 lift is not a path")
    return cycle_seq


def _candidate_pivots(model):
    """Good model pivots (interior spine positions), or None when a
    rotatable side has none.

    A frozen side, one too short to rotate, has no pivots but is still
    usable: its endpoint set degenerates to the anchor.
    """
    if model.frozen:
        return []
    return classify_pivots(model.spanned, GOOD_RATIO, budget=CLOSURE_BUDGET).good or None


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
            # the endpoint set degenerates to the anchor, reached through w
            return {anchor: tuple(range(len(model.labels) + 1))}
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
                # no logged edge touches w: its two edges are the forbidden set
                broken_log.update(
                    edge_key(model.labels[a], model.labels[b]) for a, b in model_log
                )
            for ep, seq in cache[pm].items():
                out.setdefault(model.labels[ep], seq)
        return out

    for a_hat in a_hat_pool:
        v1 = side_options(model1, good1, a_hat, cache1)
        if not v1:
            continue
        for b_hat in sorted(bmap.get(a_hat, ())):
            v2 = side_options(model2, good2, b_hat, cache2)
            if not v2:
                continue
            for z1 in sorted(v1):
                hits = g.neighbors(z1) & v2.keys()
                if hits:
                    z2 = min(hits)
                    return a_hat, b_hat, v1[z1], v2[z2], z1, z2
    return None


def _side_real_path(model, model_seq, z_real, phat, boundary):
    """Materialize one side by lifting its model path; a frozen side's spine
    and w lift to the untouched stretch from the boundary to the anchor."""
    lifted = lift_model_path(model_seq, model, phat)
    if not (lifted[0] == boundary and lifted[-1] == z_real):
        raise SoundnessError("lifted side has the wrong endpoints")
    return lifted


# ---------------------------------------------------------------------------
# Heuristic closing


def close_heuristic(g, path, budget=100000, rng=None, stats=None):
    """Randomized rotation loop: extend, close when the endpoints are adjacent,
    absorb when the closed cycle does not span, otherwise rotate (round-robin
    over the two ends, preferring rotations that enable a closing edge).

    The loop works on one `PathBuf`, so each step costs about what it
    changes: a rotation rewrites the shorter arc, the candidate scan reads
    the buffer's slots (`PathBuf.candidates`), and an absorption reopens the
    buffer at the site `absorb` finds (`PathBuf.reopen`).  A vertex tuple is
    made only when a cycle closes, for its validation and `absorb`."""
    if stats is None:
        stats = new_stats()
    if rng is None:
        rng = random.Random(0)
    if g.n < 3:
        return CloseFailure("too_small", stats=stats)
    buf = PathBuf(g.n, path.vertices)
    buf.extend(g, rng)
    spent = 0
    broken_edges = None  # stats["broken_edges"], made at the first rotation
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
            site = absorb(g, cycle_seq)
            if site is None:
                return CloseFailure("absorption", "component exhausted", stats)
            buf.reopen(*site)
            buf.extend(g, rng)
            continue
        if spent >= budget:
            return CloseFailure("budget", f"{spent} rotations", stats)
        moved = False
        for _ in range(2):
            candidates, closing = buf.candidates(g)
            if candidates:
                pool = closing if closing else candidates
                broken, _ = buf.rotate(rng.choice(pool))
                spent += 1
                stats["rotations"] += 1
                if broken_edges is None:
                    broken_edges = stats.setdefault("broken_edges", set())
                broken_edges.add(broken)
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

    "auto" is the default name for "heuristic": both run `close_heuristic`
    on every restart, and together their restarts make at most `budget`
    rotations.  "proof_faithful" runs `close_proof_faithful`, which the
    budget checks only between restarts.  Every returned cycle passes the
    final validation gate.
    """
    if budget < 0:
        raise ValueError(f"rotation budget must be non-negative, got {budget}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
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
        if mode == "proof_faithful":
            outcome = close_proof_faithful(g, path, stats=stats)
        else:
            outcome = close_heuristic(
                g, path, budget=budget - stats["rotations"], rng=rng, stats=stats
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

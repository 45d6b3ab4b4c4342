"""Rotation-extension core: single rotations, the mutable path buffer
`PathBuf` and the greedy extension loop on it, two-sided endpoint pairs, and
the rotation engine: `closure`, the one breadth-first search over rotated
vertex tuples, and `layered_family`, the one layered endpoint-family loop,
whose schedule and admission policies come from callers.

Conventions: a path's fixed endpoint is its first vertex; the mobile endpoint
is its last.  Pivot positions are 0-based indices into the path; a rotation at
index i requires an edge from the last vertex to path[i] and 0 <= i <= q-3
(rotating at the predecessor of the endpoint is degenerate and rejected).

Runs: a rotated path is held as its runs over the base path, a tuple of the
maximal stretches (a, b) of consecutive base positions a..b in path order; a
stretch with a > b is walked downwards.  A rotation costs O(runs), and
`runs_path` builds a `Path` only where a caller needs a whole path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import Path, SoundnessError, edge_key


@dataclass(frozen=True)
class RotationStep:
    pivot: int
    broken_edge: tuple
    new_endpoint: int
    parent: "RotationStep | None" = None

    def chain(self):
        """Steps from the base path to this one, in application order."""
        steps = []
        node = self
        while node is not None:
            steps.append(node)
            node = node.parent
        steps.reverse()
        return steps


def rotated(seq, i):
    """The vertex tuple `seq` rotated at position i: the tail after i reversed."""
    return seq[: i + 1] + seq[:i:-1]


def rotate(g, path, pivot_index):
    """Rotate `path` at the given pivot position.

    Returns (new_path, step).  The new path keeps the same vertex set and
    length; the segment after the pivot is reversed and the old endpoint's
    chord to the pivot becomes a path edge.
    """
    seq = path.vertices
    q = len(seq)
    if not 0 <= pivot_index <= q - 3:
        raise ValueError(f"pivot index {pivot_index} out of range for length {q}")
    last = seq[-1]
    pivot = seq[pivot_index]
    if not g.has_edge(last, pivot):
        raise ValueError(f"({last}, {pivot}) is not an edge")
    # the slice of `rotated`, inlined: the heuristic search rotates in a hot loop
    new_seq = seq[: pivot_index + 1] + seq[: pivot_index : -1]
    broken = edge_key(pivot, seq[pivot_index + 1])
    return Path(new_seq), RotationStep(pivot, broken, seq[pivot_index + 1])


def rotated_runs(runs, i):
    """The runs of the path rotated at path position i: the positions after i
    are reversed and the one new junction is merged when it is
    base-contiguous.  i = -1 reverses the whole path (swaps its ends)."""
    offset = 0
    for k, (a, b) in enumerate(runs):
        size = abs(b - a) + 1
        if i < offset + size:
            break
        offset += size
    else:
        raise ValueError(f"path position {i} is past the end of the path")
    step = 1 if b >= a else -1
    x = a + step * (i - offset)  # base position at path position i
    head = list(runs[:k])
    if i >= offset:
        head.append((a, x))
    rest = ([(x + step, b)] if x != b else []) + list(runs[k + 1 :])
    tail = [(d, c) for c, d in reversed(rest)]
    if head and tail and abs(tail[0][0] - head[-1][1]) == 1:
        head[-1] = (head[-1][0], tail.pop(0)[1])
    return tuple(head + tail)


def run_position(runs, p):
    """The path position of base position p."""
    offset = 0
    for a, b in runs:
        if a <= p <= b or b <= p <= a:
            return offset + abs(p - a)
        offset += abs(b - a) + 1
    raise ValueError(f"base position {p} is not on the path")


def chain_runs(base, step):
    """The runs of the base path after the rotation chain ending at `step`
    (None for no rotation)."""
    runs = ((0, len(base) - 1),)
    if step is not None:
        for s in step.chain():
            runs = rotated_runs(runs, run_position(runs, base.pos[s.pivot]))
    return runs


def runs_path(base, runs):
    """The `Path` that `runs` hold over the base path."""
    seq = base.vertices
    out = []
    for a, b in runs:
        out.extend(seq[a : b + 1] if a <= b else seq[b : a + 1][::-1])
    return Path(out)


class PathBuf:
    """Mutable path over the vertices 0..n-1, for loops that rotate, extend
    and reverse one path many times.

    Slots arr[lo:hi] hold the path and pos[v] is the slot of v, or -1 when v
    is off the path.  The path read from arr[lo] up to arr[hi - 1] is the
    logical path (fixed first vertex, mobile last vertex) unless `flip` is
    set, in which case it is read downwards.  A rotation rewrites only the
    slots after the pivot, a reversal only toggles `flip`, and an extension
    writes one slot at either end.  A load starts the path at slot n; as it
    never holds more than n vertices, neither end can run past the 2n slots.
    """

    __slots__ = ("arr", "pos", "lo", "hi", "flip")

    def __init__(self, n, vertices):
        self.arr = [-1] * (2 * n)
        self.pos = [-1] * n
        self.lo = self.hi = n
        self.flip = False
        self.load(vertices)

    def load(self, vertices):
        """Replace the held path by `vertices`, read from the fixed end."""
        pos = self.pos
        for v in self.arr[self.lo : self.hi]:
            pos[v] = -1
        self.lo = self.hi = len(pos)
        self.flip = False
        for v in vertices:
            if pos[v] >= 0:
                raise ValueError("path contains a repeated vertex")
            self._push(v, True)

    def __len__(self):
        return self.hi - self.lo

    @property
    def first(self):
        return self.arr[self.hi - 1] if self.flip else self.arr[self.lo]

    @property
    def last(self):
        return self.arr[self.lo] if self.flip else self.arr[self.hi - 1]

    def at(self, i):
        """The vertex at logical position i."""
        return self.arr[self.hi - 1 - i] if self.flip else self.arr[self.lo + i]

    def position(self, v):
        """The logical position of v, or None when v is off the path."""
        k = self.pos[v]
        if k < 0:
            return None
        return self.hi - 1 - k if self.flip else k - self.lo

    def vertices(self):
        seq = self.arr[self.lo : self.hi]
        if self.flip:
            seq.reverse()
        return tuple(seq)

    def freeze(self):
        return Path(self.vertices())

    def reverse(self):
        """Swap the fixed and the mobile end."""
        self.flip = not self.flip

    def rotate(self, i):
        """Rotate at logical position i, 0 <= i <= q-3, whose vertex the
        caller has checked to be adjacent to the last vertex: the vertices
        after position i are reversed.  Returns (broken edge, new endpoint).
        """
        lo, hi = self.lo, self.hi
        if not 0 <= i <= hi - lo - 3:
            raise ValueError(f"pivot index {i} out of range for length {hi - lo}")
        arr = self.arr
        if self.flip:
            pivot = hi - 1 - i
            a, b = lo, pivot
            new_end = arr[pivot - 1]
        else:
            pivot = lo + i
            a, b = pivot + 1, hi
            new_end = arr[pivot + 1]
        tail = arr[a:b]
        tail.reverse()
        arr[a:b] = tail
        pos = self.pos
        for k, v in enumerate(tail, a):
            pos[v] = k
        return edge_key(arr[pivot], new_end), new_end

    def _push(self, v, high):
        if high:
            self.arr[self.hi] = v
            self.pos[v] = self.hi
            self.hi += 1
        else:
            self.lo -= 1
            self.arr[self.lo] = v
            self.pos[v] = self.lo

    def extend(self, g, rng=None):
        """Greedily extend at both endpoints until neither has an unused
        neighbor, the mobile end first.

        Deterministic (smallest neighbor first) unless an rng is supplied.
        """
        pos = self.pos

        def pick(v):
            options = [u for u in g.neighbors(v) if pos[u] < 0]
            if not options:
                return None
            if rng is None:
                return min(options)
            return rng.choice(options)

        while True:
            nxt = pick(self.last)
            if nxt is not None:
                self._push(nxt, not self.flip)
                continue
            prev = pick(self.first)
            if prev is not None:
                self._push(prev, self.flip)
                continue
            break


def extend(g, path, rng=None):
    """Greedily extend at both endpoints until neither has an unused neighbor.

    Deterministic (smallest neighbor first) unless an rng is supplied.
    """
    buf = PathBuf(g.n, path.vertices)
    buf.extend(g, rng)
    return buf.freeze()


def is_maximal(g, path):
    used = path.pos
    return not any(
        u not in used for end in (path.first, path.last) for u in g.neighbors(end)
    )


@dataclass
class EndpointFamily:
    """Layered endpoint sets S_0..S_t with replayable rotation chains; the
    path to an endpoint is rebuilt from its chain by `reconstruct_path`."""

    base: Path
    fixed: int
    layers: list = field(default_factory=list)
    chains: dict = field(default_factory=dict)  # endpoint -> RotationStep | None
    runs: dict = field(default_factory=dict)  # endpoint -> runs, held as layered_family says
    broken_edges: set = field(default_factory=set)
    schedule: list = field(default_factory=list)
    stopped: str = ""

    def endpoints(self):
        return set(self.chains)

    def chain_steps(self, v):
        step = self.chains[v]
        return step.chain() if step is not None else []

    def rotations_to(self, v):
        return len(self.chain_steps(v))

    def to_json(self):
        return {
            "fixed": self.fixed,
            "layers": [sorted(layer) for layer in self.layers],
            "chains": {
                str(v): [
                    {"pivot": s.pivot, "broken": list(s.broken_edge)}
                    for s in self.chain_steps(v)
                ]
                for v in sorted(self.endpoints())
            },
        }


def _pivot_candidates(g, base, sources, used):
    """Eligible (pivot, source) pairs for growing the next layer.

    A pivot must be a base-path vertex adjacent to some current source whose
    existing base-path neighbors, together with the pivot itself, were never
    endpoints.  This guarantees both base edges at the pivot are intact on the
    source's path, so every rotation breaks an edge of the base path.
    """
    seq = base.vertices
    last = len(seq) - 1
    pairs = []
    seen = set()
    for src in sources:
        for v in g.neighbors(src):
            if v in seen or v in used:
                continue
            i = base.pos.get(v)
            if i is None:
                continue
            left = seq[i - 1] if i > 0 else None
            right = seq[i + 1] if i < last else None
            if (left is not None and left in used) or (
                right is not None and right in used
            ):
                continue
            seen.add(v)
            pairs.append((i, v, src))
    pairs.sort()
    return pairs


def layered_family(
    g,
    base,
    schedule,
    admit=None,
    total_target=None,
    max_layers=None,
    protected_edge=None,
    exclude=None,
    stats=None,
    over=None,
):
    """Grow the layered endpoint family of `base` (fixed first vertex).

    Layer t is grown from the sources, members of the previous layer, that
    `schedule(t, previous layer)` returns together with the layer's target
    and keep size (None keeps every placed endpoint).  Pivots are processed
    in ascending base-path position; an endpoint already used, already
    placed, excluded or fixed is skipped, and `admit(endpoint, step)`, when
    given, decides whether a new one is placed (it may raise to abandon the
    family).  Each layer is sorted by endpoint and trimmed to the keep size.
    The construction stops when the family holds `total_target` endpoints
    (default ceil(n/3)), a layer comes up empty, or `max_layers` is hit.
    The runs of each placed endpoint's path go to `fam.runs`, and a source's
    runs are rotated directly: a candidate pivot is a neighbor of its
    source, the last vertex of the source's path, so every rotation is
    valid.  The runs are held over `base`, or with `over` = (path, runs)
    over that path, starting from `runs`, the runs of `base` over it.
    """
    if total_target is None:
        total_target = math.ceil(g.n / 3)
    q = len(base)
    over_path, start = over if over is not None else (base, ((0, q - 1),))
    seq, pos = over_path.vertices, over_path.pos
    fixed = base.first
    fam = EndpointFamily(base=base, fixed=fixed)
    terminal = base.last
    fam.layers.append([terminal])
    fam.schedule.append(1)
    fam.chains[terminal] = None
    fam.runs[terminal] = start
    used = {terminal}
    if exclude:
        used |= set(exclude)
    t = 0
    while True:
        if len(fam.chains) >= total_target:
            fam.stopped = "target_met"
            break
        if max_layers is not None and t >= max_layers:
            fam.stopped = "max_layers"
            break
        t += 1
        sources, target, keep = schedule(t, fam.layers[-1])
        placed = {}  # endpoint -> (runs, step)
        for _, pivot, src in _pivot_candidates(g, base, sources, used):
            runs = fam.runs[src]
            idx = run_position(runs, pos[pivot])
            if idx > q - 3:
                continue
            new_runs = rotated_runs(runs, idx)
            ep = seq[new_runs[-1][1]]
            broken = edge_key(pivot, ep)
            if broken == protected_edge:
                continue
            if ep in used or ep in placed or ep == fixed:
                continue
            step = RotationStep(pivot, broken, ep, fam.chains[src])
            if admit is not None and not admit(ep, step):
                continue
            placed[ep] = (new_runs, step)
            if stats is not None:
                stats["rotations"] = stats.get("rotations", 0) + 1
                stats.setdefault("broken_edges", set()).add(step.broken_edge)
        if not placed:
            fam.stopped = "empty_layer"
            break
        layer = sorted(placed)[:keep]
        for ep in layer:
            fam.runs[ep], step = placed[ep]
            fam.chains[ep] = step
            fam.broken_edges.add(step.broken_edge)
            used.add(ep)
        fam.layers.append(layer)
        fam.schedule.append(target)
    return fam


def endpoint_family(
    g,
    path,
    d=9.0,
    total_target=None,
    layer_cap=None,
    max_layers=None,
    surplus=2.0,
    protected_edge=None,
    exclude=None,
    stats=None,
    over=None,
):
    """Build the layered endpoint family of a maximal path (fixed first vertex).

    Layer t targets ceil((d/3)^t) endpoints (optionally capped); up to
    `surplus` times the target is retained (None keeps everything).  The
    construction stops when the cumulative endpoint count reaches
    `total_target` (default ceil(n/3)), a layer comes up empty, or
    `max_layers` is hit.  Trimming keeps lowest vertex ids; pivots are
    processed in ascending base-path position; `over` as in `layered_family`.
    """

    def schedule(t, previous):
        target = math.ceil((d / 3.0) ** t)
        if layer_cap is not None:
            target = min(target, layer_cap)
        keep = None if surplus is None else math.ceil(target * surplus)
        return previous, target, keep

    return layered_family(
        g,
        path,
        schedule,
        total_target=total_target,
        max_layers=max_layers,
        protected_edge=protected_edge,
        exclude=exclude,
        stats=stats,
        over=over,
    )


def reconstruct_path(family, v):
    """The path from the fixed vertex to endpoint v, rebuilt from v's rotation
    chain (`replay_chain` also revalidates every rotation in the graph)."""
    if v not in family.chains:
        raise ValueError(f"vertex {v} is not in the family")
    path = runs_path(family.base, chain_runs(family.base, family.chains[v]))
    if path.first != family.fixed or path.last != v:
        raise SoundnessError(f"chain for endpoint {v} gives the wrong endpoints")
    return path


def replay_chain(g, base, steps):
    """Apply a rotation-step chain to a base path, revalidating each rotation."""
    path = base
    for step in steps:
        idx = path.pos[step.pivot]
        path, applied = rotate(g, path, idx)
        if applied.broken_edge != step.broken_edge:
            raise SoundnessError(f"replayed rotation at {step.pivot} breaks another edge")
        if applied.new_endpoint != step.new_endpoint:
            raise SoundnessError(f"replayed rotation at {step.pivot} ends elsewhere")
    return path


@dataclass
class ClosureResult:
    endpoints: set
    complete: bool
    states: int
    witness: dict  # endpoint -> first tuple found ending there


def closure(g, start, *, exclude=(), forbidden=(), stop_at=None, budget, log=None):
    """Breadth-first search over the tuples reachable from the vertex tuple
    `start` by rotations that keep its first vertex fixed.

    Endpoints in `exclude` are not collected; rotations that would break an
    edge in `forbidden` are skipped; broken edges of the accepted rotations
    are added to `log`.  Each collected endpoint keeps the first tuple found
    ending there as its witness.  At most `budget` states are visited: a new
    state beyond it is skipped without being marked seen, and the result is
    then incomplete.  With `stop_at`, the search also stops incomplete at the
    start of the first level that begins with that many endpoints.
    """
    q = len(start)
    seen = {start}
    frontier = [start]
    witness = {}
    if start[-1] not in exclude:
        witness[start[-1]] = start
    states = 1
    complete = True
    while frontier:
        if stop_at is not None and len(witness) >= stop_at:
            complete = False
            break
        nxt = []
        for seq in frontier:
            for u in g.neighbors(seq[-1]):
                # pivot must sit at position <= q-3
                try:
                    i = seq.index(u)
                except ValueError:
                    continue
                if i > q - 3:
                    continue
                if forbidden or log is not None:
                    broken = edge_key(seq[i], seq[i + 1])
                    if broken in forbidden:
                        continue
                child = rotated(seq, i)
                if child in seen:
                    continue
                if states >= budget:
                    complete = False
                    continue
                if log is not None:
                    log.add(broken)
                seen.add(child)
                states += 1
                ep = child[-1]
                if ep not in exclude and ep not in witness:
                    witness[ep] = child
                nxt.append(child)
        frontier = nxt
    return ClosureResult(set(witness), complete, states, witness)


def endpoint_closure_oracle(g, path, fixed=None, max_states=200000):
    """Exact set of endpoints reachable by any rotation sequence (fixed first
    vertex), via breadth-first search over path states with deduplication.

    When the state budget runs out the partial endpoint set is returned with
    complete=False.
    """
    if fixed is not None and path.first != fixed:
        if path.last == fixed:
            path = path.reversed()
        else:
            raise ValueError("fixed vertex is not an endpoint of the path")
    return closure(g, path.vertices, budget=max_states)


@dataclass
class DoubleRotationTargets:
    """First-stage endpoint set A0, per a in A0 the second-stage sets, and
    the runs over the base path of every pair path P(a, b)."""

    base: Path
    a0: list
    bmap: dict
    pair_runs: dict  # (a, b) -> runs of P(a, b), oriented a -> b
    pair_rotations: dict  # (a, b) -> rotation count
    families_built: int = 0

    def pairs(self):
        return sorted(self.pair_runs)

    def pair_path(self, pair):
        """P(a, b) as a `Path` from a to b."""
        return runs_path(self.base, self.pair_runs[pair])


def double_rotation_targets(
    g,
    path,
    d=9.0,
    a_cap=None,
    total_target=None,
    surplus=2.0,
    protected_edge=None,
    stats=None,
):
    """Rotate both path ends in two stages: one family with the first vertex
    fixed, then for each reached endpoint a (up to a_cap) a family of the
    path to a, reversed so that a is fixed, which holds its runs over `path`.
    Records the runs of each P(a, b) and its rotation count.
    """

    def family(p, over=None):
        return endpoint_family(
            g,
            p,
            d=d,
            total_target=total_target,
            surplus=surplus,
            protected_edge=protected_edge,
            stats=stats,
            over=over,
        )

    fam1 = family(path)
    a0 = sorted(fam1.endpoints())
    chosen = a0 if a_cap is None else a0[:a_cap]
    out = DoubleRotationTargets(path, a0, {}, {}, {}, families_built=1)
    for a in chosen:
        runs_a = rotated_runs(fam1.runs[a], -1)  # a first
        rot_a = fam1.rotations_to(a)
        fam2 = family(runs_path(path, runs_a), over=(path, runs_a))
        out.families_built += 1
        bset = sorted(fam2.endpoints())
        out.bmap[a] = bset
        for b in bset:
            out.pair_runs[(a, b)] = fam2.runs[b]
            out.pair_rotations[(a, b)] = rot_a + fam2.rotations_to(b)
    return out

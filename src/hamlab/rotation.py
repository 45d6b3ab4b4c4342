"""Rotation-extension core: single rotations, the mutable path buffer
`PathBuf` and the greedy extension loop on it, two-sided endpoint pairs, and
the rotation engine: `closure`, the one breadth-first search over rotated
paths, and `endpoint_family`, the one layered endpoint-family builder.
`closure` holds each path as a string of vertex codes, chr(v) for vertex v,
so a rotation and a seen-state test run on `str` slices and cached hashes;
it never tries the rotation back to a state's parent, and it returns as soon
as its state budget decides that the result is incomplete.

Conventions: a path's fixed endpoint is its first vertex; the mobile endpoint
is its last.  Pivot positions are 0-based indices into the path; a rotation at
index i requires an edge from the last vertex to path[i] and 0 <= i <= q-3
(rotating at the predecessor of the endpoint is degenerate and rejected).

Runs: a rotated path is held as its runs over the base path, a tuple of the
maximal stretches (a, b) of consecutive base positions a..b in path order; a
stretch with a > b is walked downwards.  A rotation costs O(runs), and
`runs_path` builds a `Path` only where a caller needs a whole path.

`PathBuf` holds one path in a 4n-slot array with an orientation flag.  A
Pósa rotation is a 2-opt move on the cycle the path forms with a virtual
vertex joining its ends, so either arc may be reversed: `PathBuf.rotate`
rewrites the shorter one, the tail in place or the head copied past the
mobile end, at O(min(i + 1, q - 1 - i)) per rotation; `reopen` opens the
path read as a cycle at the same cost.  Head copies move the path along the
array; `load` and a copy or push that would pass an end of the array write
it back at the centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import Path, SoundnessError, edge_key


class RotationStep(NamedTuple):
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
    broken = edge_key(pivot, seq[pivot_index + 1])
    step = RotationStep(pivot, broken, seq[pivot_index + 1])
    return Path(rotated(seq, pivot_index)), step


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


def run_successor(runs, p):
    """The path position of base position p and the base position after it
    on the path (None when p is the last), whose vertex a rotation at p
    makes the new endpoint."""
    offset = 0
    for k, (a, b) in enumerate(runs):
        if a <= p <= b:
            nxt = p + 1 if p != b else None
        elif b <= p <= a:
            nxt = p - 1 if p != b else None
        else:
            offset += abs(b - a) + 1
            continue
        if nxt is None and k + 1 < len(runs):
            nxt = runs[k + 1][0]
        return offset + abs(p - a), nxt
    raise ValueError(f"base position {p} is not on the path")


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

    Slots arr[lo:hi] of a 4n-slot list hold the path and pos[v] is the slot
    of v, or -1 when v is off the path.  The path read from arr[lo] up to
    arr[hi - 1] is the logical path (fixed first vertex, mobile last vertex)
    unless `flip` is set, in which case it is read downwards.

    A rotation at position i rewrites only the shorter of the two arcs it
    separates, O(min(i + 1, q - 1 - i)) slots on a path of q vertices.  When
    the tail after i is no longer than the head 0..i, the tail is reversed in
    place.  Otherwise the head A is copied, reversed, past the mobile end and
    `flip` toggles: the slots then hold [B][rev A], which read downwards is
    A + rev B, the rotated path, and the window has moved i + 1 slots towards
    the old mobile end.  A reversal only toggles `flip`, and an extension
    writes one slot at either end.  `reopen` turns a closed, non-spanning
    cycle into a longer path: the window is cut in two and the shorter part
    moves, unreversed, to the far side of the other, so an absorption costs
    O(min(i + 1, q - 1 - i)) writes, not a reload.  `candidates` reads the
    rotations open at the mobile end straight off the slots and `pos`.

    `load` writes the path at the centre of the buffer.  A head copy, a
    reopen or an extension that would pass either end of the buffer first
    moves the window back to the centre, where a path of at most n vertices
    has 1.5n free slots on each side, more than one copy or push needs.
    Whole-path writes are slice copies plus one loop over `pos`.
    """

    __slots__ = ("arr", "pos", "lo", "hi", "flip")

    def __init__(self, n, vertices):
        self.arr = [-1] * (4 * n)
        self.pos = [-1] * n
        self.lo = self.hi = 2 * n
        self.flip = False
        self.load(vertices)

    def load(self, vertices):
        """Replace the held path by `vertices`, read from the fixed end.  A
        repeated or out-of-range vertex raises `ValueError` and leaves the
        held path as it was."""
        seq = list(vertices)
        if len(set(seq)) != len(seq):
            raise ValueError("path contains a repeated vertex")
        pos = self.pos
        if seq and (min(seq) < 0 or max(seq) >= len(pos)):
            raise ValueError("path contains a vertex out of range")
        pos[:] = [-1] * len(pos)
        self.flip = False
        self._centre(seq)

    def _centre(self, seq):
        """Write `seq` upwards at the centre of the buffer as the window."""
        lo = (len(self.arr) - len(seq)) // 2
        self.lo, self.hi = lo, lo + len(seq)
        self._write(seq, lo)

    def _write(self, seq, a):
        """Write `seq` upwards into the slots from a on, and their `pos`."""
        self.arr[a : a + len(seq)] = seq
        pos = self.pos
        for k, v in enumerate(seq, a):
            pos[v] = k

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
        after position i are reversed, by rewriting the shorter arc as the
        class docstring says.  Returns (broken edge, new endpoint).
        """
        lo, hi = self.lo, self.hi
        if not 0 <= i <= hi - lo - 3:
            raise ValueError(f"pivot index {i} out of range for length {hi - lo}")
        arr = self.arr
        flip = self.flip
        if flip:
            pivot = hi - 1 - i
            new_end = arr[pivot - 1]
        else:
            pivot = lo + i
            new_end = arr[pivot + 1]
        out = edge_key(arr[pivot], new_end), new_end
        h = i + 1  # head arc 0..i; the tail holds the other q - h slots
        if hi - lo - h <= h:
            a, b = (lo, pivot) if flip else (pivot + 1, hi)
            seg = arr[a:b]
        else:
            if (lo if flip else len(arr) - hi) < h:  # no room past the mobile end
                self._centre(arr[lo:hi])
                lo, hi = self.lo, self.hi
            if flip:
                seg = arr[hi - h : hi]
                a = lo - h
                self.lo, self.hi = a, hi - h
            else:
                seg = arr[lo : lo + h]
                a = hi
                self.lo, self.hi = lo + h, hi + h
            self.flip = not flip
        seg.reverse()
        self._write(seg, a)
        return out

    def reopen(self, i, u):
        """Read the held path p as a cycle, open it after logical position i
        and push the off-path vertex u: the path becomes
        p[i+1:] + p[:i+1] + (u,).  The slots below the cut move, unreversed,
        past the top of the window or the slots above it past the bottom,
        whichever is fewer, O(min(i + 1, q - 1 - i)) writes; u goes to the
        mobile end.  A bad i or u raises `ValueError` before anything moves.
        """
        lo, hi = self.lo, self.hi
        q = hi - lo
        if not 0 <= i < q:
            raise ValueError(f"cut position {i} out of range for length {q}")
        if not 0 <= u < len(self.pos) or self.pos[u] >= 0:
            raise ValueError(f"vertex {u} is out of range or on the path")
        arr = self.arr
        k = q - 1 - i if self.flip else i + 1  # slots below the cut
        up = k <= q - k  # they move past the top, else the rest past the bottom
        if (len(arr) - hi if up else lo) < min(k, q - k):  # no room there
            self._centre(arr[lo:hi])
            lo, hi = self.lo, self.hi
        if up:
            seg, a = arr[lo : lo + k], hi
            self.lo, self.hi = lo + k, hi + k
        else:
            seg, a = arr[lo + k : hi], lo - (q - k)
            self.lo, self.hi = a, lo + k
        self._write(seg, a)
        self._push(u, not self.flip)

    def candidates(self, g):
        """The rotations open at the mobile end: the logical positions i of
        its neighbours with i <= q-3, in `g.neighbors` order, and the subset
        of them whose rotation makes an endpoint adjacent to the first
        vertex."""
        arr, pos, lo, hi = self.arr, self.pos, self.lo, self.hi
        if self.flip:  # logical i sits in slot hi-1-i, its successor one below
            first, last = arr[hi - 1], arr[lo]
            kmin, kmax, step, base, sign = lo + 2, hi - 1, -1, hi - 1, -1
        else:
            first, last = arr[lo], arr[hi - 1]
            kmin, kmax, step, base, sign = lo, hi - 3, 1, lo, 1
        near_first = g.neighbors(first)
        out, closing = [], []
        for u in g.neighbors(last):
            k = pos[u]
            if not kmin <= k <= kmax:  # off the path (-1) or too near the end
                continue
            i = sign * (k - base)
            out.append(i)
            if arr[k + step] in near_first:
                closing.append(i)
        return out, closing

    def _push(self, v, high):
        if high:
            if self.hi == len(self.arr):
                self._centre(self.arr[self.lo : self.hi])
            self.arr[self.hi] = v
            self.pos[v] = self.hi
            self.hi += 1
        else:
            if self.lo == 0:
                self._centre(self.arr[self.lo : self.hi])
            self.lo -= 1
            self.arr[self.lo] = v
            self.pos[v] = self.lo

    def extend(self, g, rng=None):
        """Greedily extend at both endpoints until neither has an unused
        neighbor, the mobile end first.

        Deterministic (smallest neighbor first) unless an rng is supplied.
        """
        pos = self.pos
        choose = min if rng is None else rng.choice
        while True:
            options = [u for u in g.neighbors(self.last) if pos[u] < 0]
            if options:
                self._push(choose(options), not self.flip)
                continue
            options = [u for u in g.neighbors(self.first) if pos[u] < 0]
            if options:
                self._push(choose(options), self.flip)
                continue
            break


def extend(g, path, rng=None):
    """Greedily extend at both endpoints until neither has an unused neighbor.

    Deterministic (smallest neighbor first) unless an rng is supplied.
    """
    buf = PathBuf(g.n, path.vertices)
    buf.extend(g, rng)
    return buf.freeze()


@dataclass
class EndpointFamily:
    """Layered endpoint sets S_0..S_t.  Each endpoint's runs over `base`
    rebuild its path (`reconstruct_path`); its rotation chain is the audit
    record of how it was reached."""

    base: Path  # the path the runs are held over
    fixed: int
    layers: list = field(default_factory=list)
    chains: dict = field(default_factory=dict)  # endpoint -> RotationStep | None
    runs: dict = field(default_factory=dict)  # endpoint -> runs over base
    broken_edges: set = field(default_factory=set)
    stopped: str = ""

    def endpoints(self):
        return set(self.chains)


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


def endpoint_family(
    g,
    path,
    d=9.0,
    total_target=None,
    surplus=2.0,
    stats=None,
    over=None,
):
    """Build the layered endpoint family of a maximal path (fixed first vertex).

    Layer t is grown from every member of the previous layer and targets
    ceil((d/3)^t) endpoints; up to `surplus` times the target is retained
    (None keeps everything).  Pivots are processed in ascending base-path
    position; an endpoint already used, already placed or fixed is skipped.
    Each layer is sorted by endpoint and trimmed to its keep size, so trimming
    keeps the lowest vertex ids.  The construction stops when the family holds
    `total_target` endpoints (default ceil(n/3)) or a layer comes up empty.
    A candidate pivot is a neighbor of its source, the last vertex of the
    source's path, so every rotation is valid, and its new endpoint, the
    vertex after the pivot on that path, is read off the source's runs
    (`run_successor`) without rotating.  Only the endpoints a layer keeps
    after its trim get a `RotationStep` and their runs, the source's runs
    rotated, in `fam.runs`; `stats` counts every placed candidate as a
    rotation and its broken edge.  The runs are held over `fam.base`: `path`,
    or with `over` = (other, runs) that other path, starting from `runs`,
    the runs of `path` over it.
    """
    if total_target is None:
        total_target = math.ceil(g.n / 3)
    q = len(path)
    over_path, start = over if over is not None else (path, ((0, q - 1),))
    seq, pos = over_path.vertices, over_path.pos
    fixed = path.first
    fam = EndpointFamily(base=over_path, fixed=fixed)
    terminal = path.last
    fam.layers.append([terminal])
    fam.chains[terminal] = None
    fam.runs[terminal] = start
    used = {terminal}
    t = 0
    while True:
        if len(fam.chains) >= total_target:
            fam.stopped = "target_met"
            break
        t += 1
        target = math.ceil((d / 3.0) ** t)
        keep = None if surplus is None else math.ceil(target * surplus)
        placed = {}  # endpoint -> (source, path position, pivot, broken edge)
        for _, pivot, src in _pivot_candidates(g, path, fam.layers[-1], used):
            idx, nxt = run_successor(fam.runs[src], pos[pivot])
            if idx > q - 3:
                continue
            ep = seq[nxt]
            if ep in used or ep in placed or ep == fixed:
                continue
            placed[ep] = (src, idx, pivot, edge_key(pivot, ep))
        if not placed:
            fam.stopped = "empty_layer"
            break
        if stats is not None:
            stats["rotations"] = stats.get("rotations", 0) + len(placed)
            stats.setdefault("broken_edges", set()).update(c[3] for c in placed.values())
        layer = sorted(placed)[:keep]
        for ep in layer:
            src, idx, pivot, broken = placed[ep]
            fam.runs[ep] = rotated_runs(fam.runs[src], idx)
            fam.chains[ep] = RotationStep(pivot, broken, ep, fam.chains[src])
            fam.broken_edges.add(broken)
            used.add(ep)
        fam.layers.append(layer)
    return fam


def reconstruct_path(family, v):
    """The path from the fixed vertex to endpoint v, rebuilt from v's runs."""
    if v not in family.runs:
        raise ValueError(f"vertex {v} is not in the family")
    path = runs_path(family.base, family.runs[v])
    if path.first != family.fixed or path.last != v:
        raise SoundnessError(f"runs for endpoint {v} give the wrong endpoints")
    return path


@dataclass
class ClosureResult:
    endpoints: set
    complete: bool
    states: int
    witness: dict  # endpoint -> first tuple found ending there


CODE_LIMIT = 0x110000  # `chr`'s range: a closure state codes vertex v as chr(v)


def closure(g, start, *, exclude=(), forbidden=(), stop_at=None, budget, log=None):
    """Breadth-first search over the tuples reachable from the vertex tuple
    `start` by rotations that keep its first vertex fixed.

    Endpoints in `exclude` are not collected; rotations that would break an
    edge in `forbidden` are skipped; broken edges of the accepted rotations
    are added to `log`.  Each collected endpoint keeps the first tuple found
    ending there as its witness.  At most `budget` states are visited: the
    first new state beyond it ends the search, incomplete.  With `stop_at`,
    the search also stops incomplete at the start of the first level that
    begins with that many endpoints.

    A state is a `str` holding chr(v) for each vertex v, so a rotation is
    two slices and each state hashes once; a start vertex outside
    range(CODE_LIMIT) raises `ValueError` before any search.  The codes of
    an endpoint's neighbours are built the first time it ends a state.  A
    state never tries the pivot that made it: that rotation only leads back
    to its parent.  Witnesses are returned as vertex tuples.
    """
    try:
        code = "".join(map(chr, start))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"closure needs vertex ids in range({CODE_LIMIT:#x})") from exc
    lim = len(code) - 2  # a pivot sits at a position below q - 2
    check = bool(forbidden) or log is not None
    near = {}  # endpoint code -> its neighbours' codes, in `g.neighbors` order
    seen = {code}
    frontier = [(code, None)]  # a state and the pivot code that made it
    witness = {}
    if start[-1] not in exclude:
        witness[code[-1]] = code
    states = 1
    while frontier:
        if stop_at is not None and len(witness) >= stop_at:
            return _closure_result(witness, False, states)
        nxt = []
        for seq, back in frontier:
            end = seq[-1]
            codes = near.get(end)
            if codes is None:
                codes = near[end] = [
                    chr(u) for u in g.neighbors(ord(end)) if u < CODE_LIMIT
                ]
            for c in codes:
                if c == back:
                    continue
                i = seq.find(c, 0, lim)
                if i < 0:
                    continue
                if check:
                    a, b = ord(c), ord(seq[i + 1])
                    broken = (a, b) if a < b else (b, a)
                    if broken in forbidden:
                        continue
                child = seq[: i + 1] + seq[:i:-1]
                if child in seen:
                    continue
                if states >= budget:
                    return _closure_result(witness, False, states)
                if log is not None:
                    log.add(broken)
                seen.add(child)
                states += 1
                ep = child[-1]
                if ep not in witness and ord(ep) not in exclude:
                    witness[ep] = child
                nxt.append((child, c))
        frontier = nxt
    return _closure_result(witness, True, states)


def _closure_result(witness, complete, states):
    """The `ClosureResult` of coded witnesses, decoded to vertex tuples."""
    decoded = {}
    for e, seq in witness.items():
        decoded[ord(e)] = tuple(map(ord, seq))
    return ClosureResult(set(decoded), complete, states, decoded)


def endpoint_closure_oracle(g, path, max_states=200000):
    """Exact set of endpoints reachable by any rotation sequence (fixed first
    vertex), via breadth-first search over path states with deduplication.

    When the state budget runs out the partial endpoint set is returned with
    complete=False.
    """
    return closure(g, path.vertices, budget=max_states)


@dataclass
class DoubleRotationTargets:
    """Per pair (a, b) of a first-stage endpoint a and an endpoint b of its
    second-stage family, the runs of P(a, b) over the base path."""

    base: Path
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
            stats=stats,
            over=over,
        )

    def layer_index(fam):
        # an endpoint of layer t has a chain of t rotations
        return {v: t for t, layer in enumerate(fam.layers) for v in layer}

    fam1 = family(path)
    rot1 = layer_index(fam1)
    out = DoubleRotationTargets(path, {}, {}, families_built=1)
    for a in sorted(fam1.endpoints())[:a_cap]:
        runs_a = rotated_runs(fam1.runs[a], -1)  # a first
        fam2 = family(runs_path(path, runs_a), over=(path, runs_a))
        out.families_built += 1
        rot2 = layer_index(fam2)
        for b in sorted(fam2.endpoints()):
            out.pair_runs[(a, b)] = fam2.runs[b]
            out.pair_rotations[(a, b)] = rot1[a] + rot2[b]
    return out

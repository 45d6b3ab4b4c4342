"""PathBuf against the frozen-Path reference: every rotation, extension,
reversal, reopen and reload leaves the buffer holding the same path as
`rotate`, the list-based extension loop, `Path.reversed` and the reopened
tuple give, and `candidates` gives the positions that the old scan gives
over the frozen path."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamlab import Graph, Path, PathBuf, complete, edge_key, extend, rotate

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference_extend(g, path, rng=None):
    """The list-based extension loop that `extend` ran before PathBuf."""
    seq = list(path.vertices)
    used = set(seq)

    def pick(v):
        options = [u for u in g.neighbors(v) if u not in used]
        if not options:
            return None
        if rng is None:
            return min(options)
        return rng.choice(options)

    while True:
        nxt = pick(seq[-1])
        if nxt is not None:
            seq.append(nxt)
            used.add(nxt)
            continue
        prev = pick(seq[0])
        if prev is not None:
            seq.insert(0, prev)
            used.add(prev)
            continue
        break
    return Path(seq)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 14))
    edges = {edge_key(v, draw(st.integers(0, v - 1))) for v in range(1, n)}
    extra = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    edges |= {edge_key(u, v) for u, v in extra if u != v}
    return Graph(n, edges)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["rotate", "extend", "reverse", "load"]),
        st.integers(0, 2**16),
    ),
    max_size=40,
)


def reference_candidates(g, ref):
    """The candidate scan `close_heuristic` ran before `PathBuf.candidates`,
    over the frozen path."""
    q = len(ref)
    candidates, closing = [], []
    for u in g.neighbors(ref.last):
        i = ref.pos.get(u)
        if i is None or i > q - 3:
            continue
        candidates.append(i)
        if g.has_edge(ref.first, ref[i + 1]):
            closing.append(i)
    return candidates, closing


def assert_same(buf, ref):
    assert buf.vertices() == ref.vertices
    assert len(buf) == len(ref)
    assert (buf.first, buf.last) == (ref.first, ref.last)
    assert [buf.at(i) for i in range(len(ref))] == list(ref.vertices)
    positions = {}
    for v in range(len(buf.pos)):
        i = buf.position(v)
        if i is not None:
            positions[v] = i
    assert positions == ref.pos
    assert buf.freeze() == ref


@PROPERTY
@given(connected_graphs(), st.data(), OPS)
def test_pathbuf_follows_the_frozen_reference(g, data, ops):
    start = data.draw(st.integers(0, g.n - 1))
    buf = PathBuf(g.n, (start,))
    ref = Path((start,))
    for kind, arg in ops:
        if kind == "rotate":
            pivots = [
                i for i in range(len(ref) - 2) if g.has_edge(ref.last, ref[i])
            ]
            if not pivots:
                continue
            i = pivots[arg % len(pivots)]
            before = ref
            ref, step = rotate(g, ref, i)
            assert buf.rotate(i) == (step.broken_edge, step.new_endpoint)
            assert_same(buf, ref)
            # rotation is an involution: the old endpoint is adjacent to ref[i]
            assert rotate(g, ref, i)[0] == before
            buf.rotate(i)
            assert_same(buf, before)
            buf.rotate(i)
        elif kind == "extend":
            # one extension in four is the deterministic smallest-first one
            rngs = [None] * 3 if arg % 4 == 0 else [random.Random(arg) for _ in range(3)]
            expected = reference_extend(g, ref, rngs[0])
            assert extend(g, ref, rngs[1]) == expected
            buf.extend(g, rngs[2])
            ref = expected
        elif kind == "reverse":
            buf.reverse()
            ref = ref.reversed()
        else:
            ref = ref.reversed()
            buf.load(ref.vertices)
        assert_same(buf, ref)


def test_pathbuf_rejects_bad_input():
    with pytest.raises(ValueError, match="repeated vertex"):
        PathBuf(4, (0, 1, 0))
    buf = PathBuf(4, (0, 1, 2, 3))
    for i in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            buf.rotate(i)


def test_rejected_reopen_leaves_the_held_path():
    buf = PathBuf(6, (0, 1, 2, 3))
    for flip in (False, True):
        ref = Path((0, 1, 2, 3)) if not flip else Path((3, 2, 1, 0))
        for i, u in ((-1, 4), (4, 4), (0, 2), (0, -1), (0, 6), (3, 0)):
            with pytest.raises(ValueError):
                buf.reopen(i, u)
            assert_same(buf, ref)
        buf.reverse()


def test_rejected_load_leaves_the_held_path():
    buf = PathBuf(5, (0, 1, 2, 3))
    for bad in ((4, 1, 4), (4, 5), (-1, 4)):
        with pytest.raises(ValueError):
            buf.load(bad)
        assert_same(buf, Path((0, 1, 2, 3)))
    buf.rotate(0)  # a head copy moves the window before the next load
    with pytest.raises(ValueError, match="repeated vertex"):
        buf.load((2, 2))
    assert_same(buf, Path((0, 3, 2, 1)))


def rotate_both(g, buf, ref, i, seen):
    """Rotate buf and the reference at i, check them equal and record which
    arc the buffer rewrote, and a head copy that first recentred the path."""
    lo, flip, q = buf.lo, buf.flip, len(buf)
    new, step = rotate(g, ref, i)
    assert buf.rotate(i) == (step.broken_edge, step.new_endpoint)
    assert_same(buf, new)
    if buf.flip == flip:
        # the tail after i was no longer than the head and was reversed in place
        assert q - 1 - i <= i + 1 and buf.lo == lo
        seen.add(("tail", flip))
    else:
        assert q - 1 - i > i + 1
        seen.add(("head", flip))
        if buf.lo != (lo - (i + 1) if flip else lo + i + 1):
            seen.add(("recentre", flip))
    return new


class CountingList(list):
    """A list that counts the slots its item and slice assignments write."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += len(value) if isinstance(key, slice) else 1
        super().__setitem__(key, value)


def reopen_both(buf, ref, i, u, seen):
    """Reopen buf and the reference after i with u, check them equal and the
    slots written, and record which arc moved in which orientation, or at
    which end a reopen found no room and recentred."""
    q, lo, hi, flip = len(ref), buf.lo, buf.hi, buf.flip
    buf.arr = CountingList(buf.arr)
    buf.reopen(i, u)
    writes, buf.arr = buf.arr.writes, list(buf.arr)
    new = Path(ref.vertices[i + 1 :] + ref.vertices[: i + 1] + (u,))
    assert_same(buf, new)
    k = q - 1 - i if flip else i + 1  # slots below the cut
    if k <= q - k:  # they move past the top
        end, room, (a, b) = "top", len(buf.arr) - hi >= k, (lo + k, hi + k)
    else:  # the slots above the cut move past the bottom
        end, room, (a, b) = "bottom", lo >= q - k, (lo - (q - k), lo + k)
    if not room:
        seen.add(("reopen-recentre", end))
    elif (buf.lo, buf.hi) != ((a - 1, b) if flip else (a, b + 1)):
        seen.add(("push", "bottom" if flip else "top"))  # u found no room
    else:
        assert writes <= min(i + 1, q - 1 - i) + 1
        head_moved = (end == "top") != flip  # the head lies below the cut unless flipped
        seen.add(("reopen", "head" if head_moved else "tail", flip))
    return new


def follow(g, start, ops):
    """Apply `ops` to a PathBuf and to the frozen-Path reference, checking
    them equal after every step and the buffer's size.  Returns the layout
    events the buffer went through: each rotation branch and each head copy
    that recentred, with the orientation they started from, a push at
    either end of the buffer that found no room, and the reopen events of
    `reopen_both`."""
    buf = PathBuf(g.n, start)
    ref = Path(start)
    seen = set()
    for kind, arg in ops:
        if kind == "rotate":
            pivots = [i for i in range(len(ref) - 2) if g.has_edge(ref.last, ref[i])]
            if not pivots:
                continue
            i = pivots[arg % len(pivots)]
            before = ref
            ref = rotate_both(g, buf, ref, i, seen)
            assert rotate_both(g, buf, ref, i, seen) == before
            ref = rotate_both(g, buf, before, i, seen)
        elif kind == "extend":
            lo, hi, flip = buf.lo, buf.hi, buf.flip
            rngs = [None] * 2 if arg % 4 == 0 else [random.Random(arg) for _ in range(2)]
            new = reference_extend(g, ref, rngs[0])
            buf.extend(g, rngs[1])
            front = new.pos[ref.first]  # vertices pushed at the fixed end
            back = len(new) - len(ref) - front  # and at the mobile end
            top, bottom = (front, back) if flip else (back, front)
            if hi + top > len(buf.arr):
                seen.add(("push", "top"))
            elif lo - bottom < 0:
                seen.add(("push", "bottom"))
            else:
                assert (buf.lo, buf.hi) == (lo - bottom, hi + top)
            ref = new
        elif kind == "reverse":
            buf.reverse()
            ref = ref.reversed()
        elif kind == "reopen":
            # a path of g: cut anywhere when the ends are adjacent, else after the last
            q = len(ref)
            i = arg % q if q < 3 or g.has_edge(ref.first, ref.last) else q - 1
            off = sorted(u for u in g.neighbors(ref[i]) if u not in ref)
            if not off:
                continue
            ref = reopen_both(buf, ref, i, off[arg // q % len(off)], seen)
        else:
            # a prefix, in either direction: shorter paths leave room to extend
            seq = ref.vertices[: 1 + arg % len(ref)]
            ref = Path(seq[::-1] if arg & 1 else seq)
            buf.load(ref.vertices)
        assert_same(buf, ref)
        assert len(buf.arr) == 4 * g.n
        assert buf.candidates(g) == reference_candidates(g, ref)
    return seen


LAYOUT_EVENTS = {
    ("tail", False),
    ("tail", True),
    ("head", False),
    ("head", True),
    ("recentre", False),
    ("recentre", True),
    ("push", "top"),
    ("push", "bottom"),
    ("reopen", "head", False),
    ("reopen", "head", True),
    ("reopen", "tail", False),
    ("reopen", "tail", True),
    ("reopen-recentre", "top"),
    ("reopen-recentre", "bottom"),
}


@st.composite
def larger_graphs(draw):
    """Connected graphs on up to 60 vertices: a random tree plus random edges."""
    n = draw(st.integers(3, 60))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = {edge_key(v, rng.randrange(v)) for v in range(1, n)}
    for _ in range(n * draw(st.integers(0, 6))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(edge_key(u, v))
    return Graph(n, edges)


# loads are rare, since each one moves the window back to the centre
LONG_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["rotate"] * 6 + ["extend"] * 2 + ["reverse"] * 3 + ["reopen"] * 2 + ["load"]
        ),
        st.integers(0, 2**16),
    ),
    min_size=100,
    max_size=300,
)


# From (0,) on K_12: extend to the whole graph and load a 4-vertex prefix,
# whose centred window has 22 free slots on each side.  Rotating at 0 copies
# the one-vertex head and toggles `flip`, so rotating then reversing moves the
# window one slot up (or down, from the other orientation).  The 23rd such
# pair finds no room and recentres, and 17 more bring the window within reach
# of an extension's 8 pushes.  Then the tail branch in both orientations, and
# the same walk towards the bottom.
#
# Then reopens from a 3-vertex prefix: at i = 0 and i = q - 2, where the head
# and the tail are the shorter arc, in both orientations.  21 drift pairs
# take the 7-vertex window to the top of the buffer, so a reopen at 0 finds
# no room for its one-slot head and recentres; 21 pairs down from the other
# orientation do the same at the bottom.
STEP = [("rotate", 0), ("reverse", 0)]
DRIFT = STEP * 40 + [("extend", 0)]
REOPENS = (
    [("load", 2), ("reopen", 0), ("reopen", 2), ("reverse", 0), ("reopen", 0)]
    + [("reopen", 4), ("reverse", 0)]
    + STEP * 21
    + [("reopen", 0), ("reverse", 0)]
    + STEP * 21
    + [("reopen", 0)]
)
DRIFT_OPS = (
    [("extend", 0), ("load", 3)]
    + DRIFT
    + [("rotate", 9), ("reverse", 0), ("rotate", 9), ("load", 3), ("reverse", 0)]
    + DRIFT
    + REOPENS
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@example(complete(12), 0, DRIFT_OPS)
@given(larger_graphs(), st.integers(0, 2**16), LONG_OPS)
def test_pathbuf_layout_follows_the_frozen_reference(g, start, ops):
    follow(g, (start % g.n,), ops)


def test_drift_ops_reach_every_layout_event():
    assert follow(complete(12), (0,), DRIFT_OPS) == LAYOUT_EVENTS

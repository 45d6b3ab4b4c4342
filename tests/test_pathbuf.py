"""PathBuf against the frozen-Path reference: every rotation, extension,
reversal and reload leaves the buffer holding the same path as `rotate`,
the list-based extension loop and `Path.reversed` give."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab import Graph, Path, PathBuf, edge_key, extend, rotate

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

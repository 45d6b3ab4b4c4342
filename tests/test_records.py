"""Runs and the coded layouts read from them, against whole paths: along
random rotation chains the runs track `rotate` and `Path.reversed`, map each
base position to its path position and to the base position after it on the
path, and stay maximal, and the coded layout read from the runs equals the
one the whole-path computation gives; every pair of a real double rotation
gives that layout too, and a family's rebuilt paths equal its replayed
chains; the runs the families hand over equal their chains folded; the
sigma0 choice counted on coded layouts equals the one made by enumerating
the ordered segment pairs of every layout."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab import (
    Graph,
    Path,
    decompose,
    double_rotation_targets,
    edge_key,
    endpoint_family,
    extend,
    gnp,
    reconstruct_path,
    rotate,
    select_sigma0,
    unbroken_segments,
)
from hamlab.rotation import rotated_runs, run_successor, runs_path

from chains import replay

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference_unbroken_segments(dec, path):
    """The record stage that rebuilt the edge set of the whole path: the
    broken base edges, and the (segment, reversed?, start position) entries
    of the unbroken segments in order of appearance."""
    pos = path.pos
    present = set()
    seq = path.vertices
    for a, b in zip(seq, seq[1:]):
        present.add(edge_key(a, b))
    base_seq = dec.base.vertices
    broken = frozenset(
        e
        for e in (edge_key(a, b) for a, b in zip(base_seq, base_seq[1:]))
        if e not in present
    )
    found = []
    for idx, seg in enumerate(dec.segments):
        positions = [pos[v] for v in seg]
        if len(seg) == 1:
            found.append((idx, False, positions[0]))
            continue
        step = positions[1] - positions[0]
        if abs(step) != 1:
            continue
        if any(b - a != step for a, b in zip(positions, positions[1:])):
            continue
        found.append((idx, step < 0, min(positions[0], positions[-1])))
    found.sort(key=lambda item: item[2])
    return broken, tuple(found)


def coded(found):
    """The coded layout of reference entries: 2*seg + reversed."""
    return tuple(2 * seg + rev for seg, rev, _ in found)


def reference_select_sigma0(layouts, must_include=None):
    """The sigma0 choice that enumerated the ordered segment pairs of every
    layout."""
    counts = {}
    for pair, layout in layouts.items():
        oriented = [(c >> 1, bool(c & 1)) for c in layout]
        for entries in itertools.combinations(oriented, 2):
            if must_include is not None and must_include not in [s for s, _ in entries]:
                continue
            counts.setdefault(entries, set()).add(pair)
    if not counts:
        return None, set()
    return max(counts.items(), key=lambda kv: (len(kv[1]), kv[0]))


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(4, 16))
    edges = {edge_key(v, draw(st.integers(0, v - 1))) for v in range(1, n)}
    extra = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    edges |= {edge_key(u, v) for u, v in extra if u != v}
    return Graph(n, edges)


@st.composite
def base_paths(draw):
    """A graph, a path of at least two vertices in it, rho and maybe a
    protected edge of the path."""
    g = draw(connected_graphs())
    start = draw(st.integers(0, g.n - 1))
    p = extend(g, Path((start,)), random.Random(draw(st.integers(0, 2**16))))
    rho = draw(st.integers(1, len(p) // 2))
    protected = None
    if draw(st.booleans()):
        i = draw(st.integers(0, len(p) - 2))
        protected = edge_key(p[i], p[i + 1])
    return g, p, rho, protected


def check_maximal(runs):
    for (_, b), (c, _) in zip(runs, runs[1:]):
        assert abs(c - b) > 1  # no run continues the one before it


def check_runs(p, runs, cur):
    """`runs` over the base path `p` hold exactly the path `cur`."""
    assert runs_path(p, runs) == cur
    base = p.pos
    for i, v in enumerate(p.vertices):
        k = cur.pos[v]
        nxt = base[cur[k + 1]] if k + 1 < len(cur) else None
        assert run_successor(runs, i) == (k, nxt)
    check_maximal(runs)


def rotation_chain(g, p, protected, moves):
    """Rotate `p` by `moves`, never breaking the protected edge, and track its
    runs alongside.  A move either rotates at a drawn pivot, rotates at a
    pivot whose new edge is one an earlier step broke (when there is one), or
    swaps the fixed end, as the second stage of the double rotation does.
    Returns the path, its runs and the steps."""
    cur = p
    runs = ((0, len(p) - 1),)
    steps = []
    for kind, arg in moves:
        if kind == "reverse":
            cur = cur.reversed()
            runs = rotated_runs(runs, -1)
            check_runs(p, runs, cur)
            continue
        pivots = [
            i
            for i in range(len(cur) - 2)
            if g.has_edge(cur.last, cur[i])
            and edge_key(cur[i], cur[i + 1]) != protected
        ]
        if kind == "readd":
            broken = {s.broken_edge for s in steps}
            pivots = [i for i in pivots if edge_key(cur.last, cur[i]) in broken] or pivots
        if not pivots:
            continue
        i = pivots[arg % len(pivots)]
        cur, step = rotate(g, cur, i)
        runs = rotated_runs(runs, i)
        check_runs(p, runs, cur)
        steps.append(step)
    return cur, runs, steps


MOVES = st.lists(
    st.tuples(st.sampled_from(["rotate", "readd", "reverse"]), st.integers(0, 2**16)),
    max_size=12,
)


@PROPERTY
@given(base_paths(), st.lists(MOVES, min_size=1, max_size=6), st.data())
def test_chain_records_equal_the_whole_path_records(case, chains, data):
    g, p, rho, protected = case
    dec = decompose(p, rho, protected_edge=protected)
    layouts = {}
    for k, moves in enumerate(chains):
        cur, runs, steps = rotation_chain(g, p, protected, moves)
        pair = (cur.first, cur.last) if k % 2 else (k, cur.last)
        broken, found = reference_unbroken_segments(dec, cur)
        assert unbroken_segments(dec, runs) == coded(found)
        # a run boundary breaks exactly one base edge, and a rotation makes at most one
        assert len(broken) == len(runs) - 1 <= len(steps)
        layouts[pair] = coded(found)

    segment = data.draw(st.integers(0, len(dec.segments) - 1))
    protected_segment = dec.segment_index_of(protected[0]) if protected else None
    for must in (None, segment, protected_segment):
        assert select_sigma0(layouts, must) == reference_select_sigma0(layouts, must)


@PROPERTY
@given(base_paths(), st.integers(1, 16))
def test_pair_chains_give_the_whole_path_records(case, total_target):
    g, p, rho, protected = case
    targets = double_rotation_targets(
        g, p, a_cap=4, total_target=total_target, protected_edge=protected
    )
    dec = decompose(p, rho, protected_edge=protected)
    for pair in targets.pairs():
        ppath = targets.pair_path(pair)
        assert (ppath.first, ppath.last) == pair
        runs = targets.pair_runs[pair]
        broken, found = reference_unbroken_segments(dec, ppath)
        assert unbroken_segments(dec, runs) == coded(found)
        assert len(broken) == len(runs) - 1 <= targets.pair_rotations[pair]
    fam = endpoint_family(g, p, total_target=total_target, protected_edge=protected)
    for v in fam.chains:
        assert reconstruct_path(fam, v) == replay(g, p, fam.chains[v])


class Untouchable:
    """Stands in for a vertex tuple that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name}")

    def __getitem__(self, key):
        raise AssertionError(f"read [{key}]")


def test_layouts_read_no_vertex_tuple():
    """The record stage reads only `seg_of` and `starts`: with the base path
    and the segments unreadable it still gives every pair's layout, so it
    touches no vertex tuple and builds no edge key."""
    g = gnp(60, 5 * math.log(60) / 60, seed="layouts:blind")
    p = extend(g, Path((0,)))
    targets = double_rotation_targets(g, p, a_cap=4)
    assert len(targets.pairs()) > 10
    for rho in (1, 3, len(p) // 2):
        dec = decompose(p, rho)
        blind = dataclasses.replace(dec, base=Untouchable(), segments=Untouchable())
        for pair in targets.pairs():
            _, found = reference_unbroken_segments(dec, targets.pair_path(pair))
            assert unbroken_segments(blind, targets.pair_runs[pair]) == coded(found)


def refold(base, runs, step):
    """The chain ending at `step` applied to `runs` over `base`, one rotation
    at a time: the fold the families' hand-off replaced."""
    for s in step.chain() if step is not None else ():
        runs = rotated_runs(runs, run_successor(runs, base.pos[s.pivot])[0])
    return runs


@PROPERTY
@given(base_paths(), st.integers(1, 16))
def test_families_hand_over_the_runs_of_their_chains(case, total_target):
    g, p, _, drawn = case
    whole = ((0, len(p) - 1),)
    for protected in (None, drawn) if drawn else (None,):
        kw = dict(total_target=total_target, protected_edge=protected)
        fam = endpoint_family(g, p, **kw)
        assert fam.runs.keys() == fam.chains.keys()
        for v, step in fam.chains.items():
            assert fam.runs[v] == refold(p, whole, step)
            check_maximal(fam.runs[v])
        targets = double_rotation_targets(g, p, a_cap=4, **kw)
        pairs = targets.pairs()
        assert sorted({a for a, _ in pairs}) == sorted(fam.chains)[:4]
        for a in sorted(fam.chains)[:4]:
            runs_a = rotated_runs(refold(p, whole, fam.chains[a]), -1)
            p_a = runs_path(p, runs_a)
            fam2 = endpoint_family(g, p_a, **kw)
            assert [b for a2, b in pairs if a2 == a] == sorted(fam2.chains)
            for b, step in fam2.chains.items():
                runs = targets.pair_runs[(a, b)]
                assert runs == refold(p, runs_a, step)
                check_maximal(runs)
                ppath = targets.pair_path((a, b))
                assert (ppath.first, ppath.last) == (a, b)
                assert ppath == replay(g, p_a, step)


def record(pair, layout):
    """A pair and its coded layout, given as (seg, rev) entries."""
    return pair, tuple(2 * seg + rev for seg, rev in layout)


F, R = False, True


@pytest.mark.parametrize(
    "records, must, want",
    [
        # ties go to the larger entries, on the segment and then on the flag
        ([record((0, 1), [(2, F), (3, F)]), record((0, 2), [(0, F), (1, F)])],
         None, (((2, F), (3, F)), {(0, 1)})),
        ([record((0, 1), [(2, F), (3, F)]), record((0, 2), [(2, F), (3, R)])],
         None, (((2, F), (3, R)), {(0, 2)})),
        # must_include drops the unfiltered winner, or every sequence
        (
            [record((0, 1), [(0, F), (1, F)]), record((0, 2), [(0, F), (1, F)]),
             record((0, 3), [(1, F), (2, R)])],
            2, (((1, F), (2, R)), {(0, 3)}),
        ),
        ([record((0, 1), [(0, F), (1, F)])], 3, (None, set())),
        # a reversed and a forward entry of one segment are different entries
        (
            [record((0, 1), [(0, F), (1, R)]), record((0, 2), [(0, F), (1, F)]),
             record((0, 3), [(0, F), (1, R)])],
            None, (((0, F), (1, R)), {(0, 1), (0, 3)}),
        ),
        # a layout holds the winner without its entries being adjacent; the
        # same segments out of order or with another flag do not
        (
            [record((0, 1), [(2, F), (5, R), (3, F)]), record((0, 2), [(2, F), (3, F)]),
             record((0, 3), [(0, F), (1, F)]), record((0, 4), [(3, F), (2, F)]),
             record((0, 5), [(2, R), (3, F)])],
            None, (((2, F), (3, F)), {(0, 1), (0, 2)}),
        ),
        # the same with must_include: the unfiltered winner ((1, F), (4, F))
        # is held by three pairs, (0, 1) with an entry between, and the
        # winner filtered on segment 5 by (0, 1) and (0, 6), by (0, 6) with
        # an entry between; (0, 3) holds ((0, F), (5, F)) only out of order
        *(
            (
                [record((0, 1), [(1, F), (5, F), (4, F)]),
                 record((0, 2), [(0, F), (3, F), (5, F)]), record((0, 3), [(5, F), (0, F)]),
                 record((0, 4), [(1, F), (4, F)]), record((0, 5), [(1, F), (4, F)]),
                 record((0, 6), [(1, F), (0, F), (5, F)])],
                must, want,
            )
            for must, want in (
                (None, (((1, F), (4, F)), {(0, 1), (0, 4), (0, 5)})),
                (4, (((1, F), (4, F)), {(0, 1), (0, 4), (0, 5)})),
                (5, (((1, F), (5, F)), {(0, 1), (0, 6)})),
            )
        ),
    ],
)
def test_select_sigma0_edge_cases(records, must, want):
    layouts = dict(records)
    sigma0, pairs = select_sigma0(layouts, must_include=must)
    assert (sigma0, pairs) == reference_select_sigma0(layouts, must_include=must)
    assert (sigma0, pairs) == want
    if sigma0 is not None:
        assert all(type(rev) is bool for _, rev in sigma0)


def test_segment_index_of_matches_the_segments():
    p = Path((3, 0, 7, 1, 5, 2, 6, 4, 8))
    for rho, protected in ((1, None), (2, None), (4, None), (2, (1, 5)), (4, (5, 2))):
        dec = decompose(p, rho, protected_edge=protected)
        for v in p.vertices:
            assert v in dec.segments[dec.segment_index_of(v)]
    with pytest.raises(KeyError):
        dec.segment_index_of(9)

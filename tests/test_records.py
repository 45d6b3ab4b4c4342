"""Runs and the segment records read from them, against whole paths: along
random rotation chains the runs track `rotate` and `Path.reversed`, map base
positions to path positions and stay maximal, and the record read from the
runs equals the record the whole-path computation gives; every pair of a
real double rotation gives that record too, and a family's rebuilt paths
equal its replayed chains; the runs the families hand over equal their
chains folded; the sigma0 choice counted on coded entries equals the one
made by enumerating every record's tau-sequences."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab import (
    Graph,
    Path,
    RotatedPathRecord,
    decompose,
    double_rotation_targets,
    edge_key,
    endpoint_family,
    extend,
    reconstruct_path,
    replay_chain,
    rotate,
    select_sigma0,
    unbroken_segments,
)
from hamlab.closing import TauSequence
from hamlab.rotation import chain_runs, rotated_runs, run_position, runs_path

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference_unbroken_segments(dec, path, pair=None, rotations=0):
    """The record stage that rebuilt the edge set of the whole path."""
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
    return RotatedPathRecord(pair, rotations, broken, tuple(found))


def reference_select_sigma0(records, tau, must_include=None):
    """The sigma0 choice that enumerated the tau-sequences of every record."""
    counts = {}
    for rec in records:
        if len(rec.unbroken) < tau:
            raise ValueError("record has fewer unbroken segments than tau")
        oriented = [(seg, rev) for seg, rev, _ in rec.unbroken]
        for entries in itertools.combinations(oriented, tau):
            seq = TauSequence(entries)
            if must_include is not None and must_include not in seq.segment_ids():
                continue
            counts.setdefault(seq.entries, set()).add(rec.pair)
    if not counts:
        return None, set()
    best = max(counts.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return TauSequence(best[0]), best[1]


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
    for i, v in enumerate(p.vertices):
        assert run_position(runs, i) == cur.pos[v]
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
    records = []
    for k, moves in enumerate(chains):
        cur, runs, steps = rotation_chain(g, p, protected, moves)
        pair = (cur.first, cur.last) if k % 2 else (k, cur.last)
        expected = reference_unbroken_segments(dec, cur, pair=pair, rotations=len(steps))
        assert unbroken_segments(dec, runs, pair=pair, rotations=len(steps)) == expected
        assert len(expected.broken_p0) <= len(steps)
        records.append(expected)

    tau = data.draw(st.integers(1, 3))
    segment = data.draw(st.integers(0, dec.count - 1))
    protected_segment = dec.segment_index_of(protected[0]) if protected else None
    for must in (None, segment, protected_segment):
        if any(len(rec.unbroken) < tau for rec in records):
            with pytest.raises(ValueError):
                select_sigma0(records, tau, must_include=must)
            with pytest.raises(ValueError):
                reference_select_sigma0(records, tau, must_include=must)
            kept = [rec for rec in records if len(rec.unbroken) >= tau]
        else:
            kept = records
        assert select_sigma0(kept, tau, must) == reference_select_sigma0(kept, tau, must)


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
        r = targets.pair_rotations[pair]
        rec = unbroken_segments(dec, targets.pair_runs[pair], pair=pair, rotations=r)
        assert rec == reference_unbroken_segments(dec, ppath, pair=pair, rotations=r)
        assert len(rec.broken_p0) <= r
    fam = endpoint_family(g, p, total_target=total_target, protected_edge=protected)
    for v in fam.chains:
        assert reconstruct_path(fam, v) == replay_chain(g, p, fam.chain_steps(v))


def refold(base, runs, step):
    """The chain ending at `step` applied to `runs` over `base`, one rotation
    at a time: the fold the families' hand-off replaced."""
    for s in step.chain() if step is not None else ():
        runs = rotated_runs(runs, run_position(runs, base.pos[s.pivot]))
    return runs


@PROPERTY
@given(base_paths(), st.integers(1, 16))
def test_families_hand_over_the_runs_of_their_chains(case, total_target):
    g, p, _, drawn = case
    for protected in (None, drawn) if drawn else (None,):
        kw = dict(total_target=total_target, protected_edge=protected)
        fam = endpoint_family(g, p, **kw)
        assert fam.runs.keys() == fam.chains.keys()
        for v, step in fam.chains.items():
            assert fam.runs[v] == chain_runs(p, step)
            check_maximal(fam.runs[v])
        targets = double_rotation_targets(g, p, a_cap=4, **kw)
        assert targets.a0 == sorted(fam.chains)
        assert sorted(targets.bmap) == targets.a0[:4]
        for a in targets.bmap:
            runs_a = rotated_runs(chain_runs(p, fam.chains[a]), -1)
            p_a = runs_path(p, runs_a)
            fam2 = endpoint_family(g, p_a, **kw)
            assert targets.bmap[a] == sorted(fam2.chains)
            for b, step in fam2.chains.items():
                runs = targets.pair_runs[(a, b)]
                assert runs == refold(p, runs_a, step)
                check_maximal(runs)
                ppath = targets.pair_path((a, b))
                assert (ppath.first, ppath.last) == (a, b)
                assert ppath == replay_chain(g, p_a, fam2.chain_steps(b))


def record(pair, layout):
    """A record whose unbroken segments are `layout`, (seg, rev) entries."""
    unbroken = tuple((seg, rev, k) for k, (seg, rev) in enumerate(layout))
    return RotatedPathRecord(pair, 1, frozenset(), unbroken)


F, R = False, True


@pytest.mark.parametrize(
    "records, tau, must, want",
    [
        # a pair with several records counts once: three records of (0, 1)
        # hold ((0, F), (1, F)), but two pairs hold ((2, F), (3, F))
        (
            [record((0, 1), [(0, F), (1, F)]), record((0, 1), [(0, F), (1, F), (4, F)]),
             record((0, 1), [(0, F), (1, F), (5, R)]), record((1, 2), [(2, F), (3, F)]),
             record((1, 3), [(2, F), (3, F)])],
            2, None, (((2, F), (3, F)), {(1, 2), (1, 3)}),
        ),
        # ties go to the larger entries, on the segment and then on the flag
        ([record((0, 1), [(2, F), (3, F)]), record((0, 2), [(0, F), (1, F)])],
         2, None, (((2, F), (3, F)), {(0, 1)})),
        ([record((0, 1), [(2, F), (3, F)]), record((0, 2), [(2, F), (3, R)])],
         2, None, (((2, F), (3, R)), {(0, 2)})),
        # must_include drops the unfiltered winner, or every sequence
        (
            [record((0, 1), [(0, F), (1, F)]), record((0, 2), [(0, F), (1, F)]),
             record((0, 3), [(1, F), (2, R)])],
            2, 2, (((1, F), (2, R)), {(0, 3)}),
        ),
        ([record((0, 1), [(0, F), (1, F)])], 2, 3, (None, set())),
        # a reversed and a forward entry of one segment are different entries
        (
            [record((0, 1), [(0, F), (1, R)]), record((0, 2), [(0, F), (1, F)]),
             record((0, 3), [(0, F), (1, R)])],
            2, None, (((0, F), (1, R)), {(0, 1), (0, 3)}),
        ),
        ([record((0, 1), [(1, F)]), record((0, 2), [(1, R)])],
         1, None, (((1, R),), {(0, 2)})),
        ([record((0, 1), [(1, F), (4, R)]), record((0, 2), [(1, R), (4, R)])],
         1, 1, (((1, R),), {(0, 2)})),
    ],
)
def test_select_sigma0_edge_cases(records, tau, must, want):
    sigma0, pairs = select_sigma0(records, tau, must_include=must)
    assert (sigma0, pairs) == reference_select_sigma0(records, tau, must_include=must)
    entries, want_pairs = want
    assert pairs == want_pairs
    if entries is None:
        assert sigma0 is None
    else:
        assert sigma0.entries == entries
        assert all(type(rev) is bool for _, rev in sigma0.entries)


def test_segment_index_of_matches_the_segments():
    p = Path((3, 0, 7, 1, 5, 2, 6, 4, 8))
    for rho, protected in ((1, None), (2, None), (4, None), (2, (1, 5)), (4, (5, 2))):
        dec = decompose(p, rho, protected_edge=protected)
        for v in p.vertices:
            assert v in dec.segments[dec.segment_index_of(v)]
    with pytest.raises(KeyError):
        dec.segment_index_of(9)

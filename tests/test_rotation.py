"""Rotation engine: single steps, families vs. the brute-force closure and
vs. an eager builder that rotated every candidate before the trim."""

import math
import random

import pytest

from hamlab import (
    Graph,
    Path,
    complete,
    cycle_graph,
    double_rotation_targets,
    edge_key,
    endpoint_closure_oracle,
    endpoint_family,
    extend,
    gnp,
    path_graph,
    random_regular,
    reconstruct_path,
    rotate,
    validate_path,
)
from hamlab import rotation
from hamlab.rotation import (
    EndpointFamily,
    RotationStep,
    rotated_runs,
    run_successor,
    runs_path,
)

from chains import replay


def pentagon():
    # C5 under the labels used throughout: path (0,1,2,3,4), chord (4,0)
    return cycle_graph(5)


def test_rotate_examples():
    # path a-b-c-d-e with chord (e,b): pivot b breaks (b,c)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
    p = Path((0, 1, 2, 3, 4))
    new, step = rotate(g, p, 1)
    assert new.vertices == (0, 1, 4, 3, 2)
    assert step.pivot == 1 and step.broken_edge == (1, 2) and step.new_endpoint == 2

    g2 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)])
    new2, step2 = rotate(g2, Path((0, 1, 2, 3, 4)), 2)
    assert new2.vertices == (0, 1, 2, 4, 3)
    assert step2.broken_edge == (2, 3)


def test_rotate_rejects_bad_pivots():
    g = complete(3)
    with pytest.raises(ValueError):
        rotate(g, Path((0, 1, 2)), 1)  # predecessor of the endpoint
    with pytest.raises(ValueError):
        rotate(g, Path((0, 1, 2)), 2)
    g2 = path_graph(4)
    with pytest.raises(ValueError):
        rotate(g2, Path((0, 1, 2, 3)), 0)  # (3,0) not an edge


def test_rotation_preserves_and_involutes():
    rng = random.Random(7)
    checked = 0
    while checked < 2000:
        n = rng.randint(5, 40)
        g = gnp(n, rng.uniform(0.2, 0.6), seed=f"rot:{checked}")
        start = rng.randrange(n)
        p = extend(g, Path((start,)), rng)
        q = len(p)
        if q < 4:
            continue
        last = p.last
        pivots = [i for i in range(q - 2) if g.has_edge(last, p[i])]
        if not pivots:
            continue
        i = rng.choice(pivots)
        new, step = rotate(g, p, i)
        assert sorted(new.vertices) == sorted(p.vertices)
        assert len(new) == q and new.first == p.first
        assert validate_path(g, new.vertices)
        # involution: rotating again at the same pivot restores the path
        back, _ = rotate(g, new, i)
        assert back.vertices == p.vertices
        checked += 1


def test_extend_examples():
    g = complete(4)
    p = extend(g, Path((0,)))
    assert len(p) == 4
    c5 = pentagon()
    p = extend(c5, Path((0, 1)))
    assert len(p) == 5
    assert extend(c5, p).vertices == p.vertices  # fixed point
    # original path survives as a contiguous run
    g = gnp(30, 0.2, seed=2)
    base = extend(g, Path((5,)))
    seq = "".join(f"[{v}]" for v in extend(g, base).vertices)
    needle = "".join(f"[{v}]" for v in base.vertices)
    rev = "".join(f"[{v}]" for v in reversed(base.vertices))
    assert needle in seq or rev in seq


def test_closure_oracle_examples():
    res = endpoint_closure_oracle(pentagon(), Path((0, 1, 2, 3, 4)))
    assert res.endpoints == {4, 1} and res.complete
    res = endpoint_closure_oracle(complete(4), Path((0, 1, 2, 3)))
    assert res.endpoints == {1, 2, 3}
    res = endpoint_closure_oracle(path_graph(4), Path((0, 1, 2, 3)))
    assert res.endpoints == {3}


def test_closure_oracle_budget_flag():
    res = endpoint_closure_oracle(complete(9), Path(range(9)), max_states=50)
    assert not res.complete and res.states <= 50
    assert res.endpoints  # partial set still returned


def test_endpoint_family_pentagon():
    fam = endpoint_family(pentagon(), Path((0, 1, 2, 3, 4)), total_target=5)
    assert [sorted(layer) for layer in fam.layers] == [[4], [1]]
    assert fam.stopped == "empty_layer"
    assert reconstruct_path(fam, 1).vertices == (0, 4, 3, 2, 1)


def test_endpoint_family_chain_shape():
    fam = endpoint_family(pentagon(), Path((0, 1, 2, 3, 4)), total_target=5)
    assert fam.fixed == 0
    assert fam.layers == [[4], [1]]
    assert fam.chains[4] is None
    (step,) = fam.chains[1].chain()
    assert step.pivot == 0 and step.broken_edge == (0, 1)


def test_endpoint_family_k6_reaches_everything():
    g = complete(6)
    fam = endpoint_family(g, Path(range(6)), d=3.0, total_target=6, surplus=None)
    assert len(fam.layers[1]) >= 1
    assert fam.endpoints() == {1, 2, 3, 4, 5}


def test_family_layers_within_oracle_and_replay():
    rng = random.Random(13)
    for i in range(60):
        n = rng.randint(4, 10)
        g = gnp(n, rng.uniform(0.3, 0.8), seed=f"fam:{i}")
        p = extend(g, Path((rng.randrange(n),)), rng)
        fam = endpoint_family(g, p, d=rng.choice([3.0, 6.0, 9.0]), total_target=n)
        oracle = endpoint_closure_oracle(g, p).endpoints
        assert fam.endpoints() <= oracle
        base_edges = {edge_key(a, b) for a, b in zip(p.vertices, p.vertices[1:])}
        assert fam.broken_edges <= base_edges  # only base-path edges break
        for v in fam.endpoints():
            redo = replay(g, p, fam.chains[v])
            assert redo.vertices == reconstruct_path(fam, v).vertices
            assert redo.last == v and len(redo) == len(p)
            assert validate_path(g, redo.vertices)


def test_family_trims_to_exact_schedule_on_cliques():
    # where expansion covers the growth arithmetic (d >= 12, room in n),
    # surplus=1 trims layer sizes to the exact (d/3)^t targets
    g = complete(60)
    fam = endpoint_family(g, Path(range(60)), d=12.0, total_target=21, surplus=1.0)
    assert fam.stopped == "target_met"
    for t, layer in enumerate(fam.layers[1:], start=1):
        assert len(layer) == 4 ** t  # the layer target ceil((d/3)^t) at d = 12


def test_replayed_regular_graph_families():
    g = random_regular(24, 6, seed=5)
    p = extend(g, Path((0,)))
    fam = endpoint_family(g, p, d=6.0, total_target=10)
    for v in fam.endpoints():
        q = reconstruct_path(fam, v)
        assert validate_path(g, q.vertices)
        assert len(q) == len(p) and q.last == v


def test_reconstruct_errors():
    fam = endpoint_family(pentagon(), Path((0, 1, 2, 3, 4)))
    with pytest.raises(ValueError):
        reconstruct_path(fam, 0)  # fixed endpoint
    with pytest.raises(ValueError):
        reconstruct_path(fam, 3)  # never reached
    assert reconstruct_path(fam, 4).vertices == (0, 1, 2, 3, 4)  # layer zero


def test_double_rotation_targets_k5():
    g = complete(5)
    out = double_rotation_targets(g, Path(range(5)), d=9.0, total_target=5, surplus=None)
    assert {a for a, _ in out.pairs()} == {1, 2, 3, 4}
    for a in range(1, 5):
        assert {b for a2, b in out.pairs() if a2 == a} == set(range(5)) - {a}
    for a, b in out.pairs():
        p = out.pair_path((a, b))
        assert p.first == a and p.last == b
        assert validate_path(g, p.vertices)


def test_double_rotation_targets_c5():
    g = pentagon()
    out = double_rotation_targets(g, Path((0, 1, 2, 3, 4)), total_target=5)
    assert {a for a, _ in out.pairs()} == {4, 1}
    oracle_b4 = endpoint_closure_oracle(g, Path((0, 1, 2, 3, 4)).reversed()).endpoints
    assert {b for a, b in out.pairs() if a == 4} <= oracle_b4
    for a, b in out.pairs():
        p = out.pair_path((a, b))
        assert {p.first, p.last} == {a, b}
        # maximal: neither end has a neighbour off the path
        assert all(u in p.pos for end in (p.first, p.last) for u in g.neighbors(end))
        assert validate_path(g, p.vertices)


def eager_endpoint_family(
    g, path, d=9.0, total_target=None, surplus=2.0, protected_edge=None, stats=None, over=None
):
    """The layered builder that rotated the runs of every placed candidate
    and built its step before the layer was trimmed."""
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
        placed = {}
        for _, pivot, src in rotation._pivot_candidates(g, path, fam.layers[-1], used):
            runs = fam.runs[src]
            idx = run_successor(runs, pos[pivot])[0]
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
    return fam


def family_cases():
    """Seeded gnp graphs with a maximal path each, a protected edge of the
    path on every other graph, and the family options to build with."""
    rng = random.Random(29)
    for i in range(40):
        n = rng.randint(20, 70)
        g = gnp(n, rng.uniform(3.0, 8.0) * math.log(n) / n, seed=f"eager:{i}")
        p = extend(g, Path((rng.randrange(n),)), rng)
        if len(p) < 4:
            continue
        protected = None
        if i % 2:
            k = rng.randrange(len(p) - 1)
            protected = edge_key(p[k], p[k + 1])
        kw = dict(d=rng.choice([6.0, 9.0, 12.0]), surplus=rng.choice([1.0, 2.0]))
        yield g, p, protected, kw


def test_endpoint_family_matches_the_eager_builder():
    trimmed = 0
    for g, p, protected, kw in family_cases():
        kw = dict(kw, total_target=len(p), protected_edge=protected)
        stats, ref_stats = {}, {}
        fam = endpoint_family(g, p, stats=stats, **kw)
        ref = eager_endpoint_family(g, p, stats=ref_stats, **kw)
        cases = [(fam, ref, stats, ref_stats)]
        # second-stage families, held over p from the runs of p_a
        for a in sorted(fam.chains)[:3]:
            runs_a = rotated_runs(fam.runs[a], -1)
            p_a = runs_path(p, runs_a)
            stats, ref_stats = {}, {}
            over = (p, runs_a)
            fam2 = endpoint_family(g, p_a, stats=stats, over=over, **kw)
            ref2 = eager_endpoint_family(g, p_a, stats=ref_stats, over=over, **kw)
            cases.append((fam2, ref2, stats, ref_stats))
        for fam, ref, stats, ref_stats in cases:
            assert fam.layers == ref.layers
            assert fam.chains == ref.chains
            assert fam.runs == ref.runs
            assert fam.broken_edges == ref.broken_edges
            assert fam.stopped == ref.stopped
            assert stats.get("rotations") == ref_stats.get("rotations")
            assert stats.get("broken_edges") == ref_stats.get("broken_edges")
            trimmed += stats.get("rotations", 0) - (len(fam.chains) - 1)
    assert trimmed > 0  # the keep trim binds, so candidates are dropped


def test_runs_are_built_only_for_kept_endpoints(monkeypatch):
    g = gnp(80, 5 * math.log(80) / 80, seed="work-count")
    p = extend(g, Path((0,)))
    fam1 = endpoint_family(g, p)
    calls = []

    def counted(runs, i):
        calls.append(i)
        return real(runs, i)

    real = rotation.rotated_runs
    monkeypatch.setattr(rotation, "rotated_runs", counted)
    stats = {}
    out = double_rotation_targets(g, p, a_cap=4, stats=stats)
    second = out.families_built - 1
    kept = len(fam1.chains) - 1  # the terminal has no rotation
    for a in sorted(fam1.chains)[:4]:
        kept += sum(1 for a2, _ in out.pairs() if a2 == a) - 1
    # one rotation per kept endpoint and one end swap per second-stage family
    assert second == 4
    assert len(calls) == kept + second
    assert calls.count(-1) == second
    assert stats["rotations"] > kept  # an eager builder would rotate more


def chain_length(fam, v):
    step = fam.chains[v]
    return len(step.chain()) if step is not None else 0


def test_pair_rotations_are_the_chain_lengths():
    for g, p, protected, kw in family_cases():
        kw = dict(kw, protected_edge=protected)
        out = double_rotation_targets(g, p, a_cap=4, **kw)
        fam1 = endpoint_family(g, p, **kw)
        assert out.pairs()
        for a in sorted(fam1.chains)[:4]:
            runs_a = rotated_runs(fam1.runs[a], -1)
            fam2 = endpoint_family(g, runs_path(p, runs_a), over=(p, runs_a), **kw)
            for b in fam2.chains:
                want = chain_length(fam1, a) + chain_length(fam2, b)
                assert out.pair_rotations[(a, b)] == want
        assert len(out.pair_rotations) == len(out.pairs())

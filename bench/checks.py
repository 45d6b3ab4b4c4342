"""Output checks that do not rely on hamlab's own validation gate.

Every function here works from a graph's raw edge set, so a bug in the
library's `validate_cycle`/`validate_path` or in its graph queries cannot hide
a bad result.  Each returns None when the output is sound, otherwise a short
reason.
"""

from __future__ import annotations

from hamlab.graph import validate_cycle as lib_validate_cycle
from hamlab.graph import validate_path as lib_validate_path


def edge(u, v):
    """An undirected edge as (min, max)."""
    return (u, v) if u < v else (v, u)


def adjacency(g):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def cycle_problem(g, seq, length=None):
    """Reason `seq` is not a cycle of g with `length` vertices, or None."""
    seq = tuple(seq)
    want = g.n if length is None else length
    if len(seq) != want:
        return f"cycle has {len(seq)} vertices, expected {want}"
    if len(seq) < 3:
        return "cycle shorter than 3"
    if len(set(seq)) != len(seq):
        return "cycle repeats a vertex"
    if any(not (isinstance(v, int) and 0 <= v < g.n) for v in seq):
        return "cycle vertex out of range"
    edges = g.edges
    for a, b in zip(seq, seq[1:] + seq[:1]):
        if edge(a, b) not in edges:
            return f"cycle uses non-edge ({a}, {b})"
    if not lib_validate_cycle(g, seq, hamilton=length is None):
        return "library validator rejects the cycle"
    return None


def path_problem(g, seq, endpoints=None, spanning=True):
    """Reason `seq` is not a (spanning) path of g with these endpoints, or None."""
    seq = tuple(seq)
    if not seq:
        return "empty path"
    if spanning and len(seq) != g.n:
        return f"path has {len(seq)} vertices, expected {g.n}"
    if len(set(seq)) != len(seq):
        return "path repeats a vertex"
    if any(not (isinstance(v, int) and 0 <= v < g.n) for v in seq):
        return "path vertex out of range"
    edges = g.edges
    for a, b in zip(seq, seq[1:]):
        if edge(a, b) not in edges:
            return f"path uses non-edge ({a}, {b})"
    if endpoints is not None and {seq[0], seq[-1]} != set(endpoints):
        return f"path ends at {seq[0]}, {seq[-1]}, expected {sorted(endpoints)}"
    if not lib_validate_path(g, seq, endpoints=endpoints):
        return "library validator rejects the path"
    return None


def hamilton_obstruction(g):
    """A reason g cannot have a Hamilton cycle that needs no search, or None."""
    if g.n < 3:
        return "too_small"
    adj = adjacency(g)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != g.n:
        return "connectivity"
    if min(len(a) for a in adj) < 2:
        return "min_degree"
    return None


def rotate_seq(seq, pivot_index):
    """Posa rotation of a vertex sequence at a pivot position."""
    return seq[: pivot_index + 1] + seq[:pivot_index:-1]


def family_problem(g, base, fam, closure_endpoints):
    """Check an endpoint family: every chain replays, and with an exact
    closure endpoint set, every member lies in it."""
    base_seq = tuple(base.vertices)
    base_edges = {edge(a, b) for a, b in zip(base_seq, base_seq[1:])}
    members = set()
    for layer in fam.layers:
        members.update(layer)
    if closure_endpoints is not None and not members <= set(closure_endpoints):
        return "family endpoint outside the exact closure"
    if not fam.broken_edges <= base_edges:
        return "family broke an edge that is not on the base path"
    edges = g.edges
    for v in members:
        step = fam.chains[v]
        steps = step.chain() if step is not None else []
        seq = base_seq
        for s in steps:
            i = seq.index(s.pivot)
            if edge(seq[-1], s.pivot) not in edges or i > len(seq) - 3:
                return "chain step is not a rotation"
            if edge(s.pivot, seq[i + 1]) != s.broken_edge:
                return "chain step records the wrong broken edge"
            seq = rotate_seq(seq, i)
        if seq[-1] != v or seq[0] != base_seq[0]:
            return "chain replay ends at the wrong vertex"
        problem = path_problem(g, seq, spanning=False)
        if problem:
            return f"chain replay: {problem}"
    return None


def neighborhood_size(adj, members):
    members = set(members)
    out = set()
    for v in members:
        out |= adj[v]
    return len(out - members)


def condition_witness_problem(g, witness, s, d=None):
    """Check a `fails` witness of the expansion check (with d) or of the
    joined check (without d), for set-size threshold s, from scratch."""
    adj = adjacency(g)
    if d is not None:
        s_set = witness["S"]
        if not 1 <= len(s_set) <= s:
            return "expansion witness has the wrong size"
        if neighborhood_size(adj, s_set) >= d * len(s_set):
            return "expansion witness expands"
        return None
    a, b = witness["A"], witness["B"]
    if len(a) < s or len(b) < s or set(a) & set(b):
        return "joined witness sets are too small or overlap"
    if any(v in adj[u] for u in a for v in b):
        return "joined witness sets are joined"
    return None


def certificate_problem(g, spine, good, bad, u, x):
    """Structural checks of a pivot audit (good and bad pivots) and of its
    processing certificate (U, X)."""
    interior = set(spine[1:-1])
    good, bad = set(good), set(bad)
    if good & bad or good | bad != interior:
        return "good and bad pivots do not partition the spine interior"
    pos = {v: i for i, v in enumerate(spine)}

    def ext(members):
        out = set()
        for v in members:
            i = pos[v]
            out.add(v)
            if i > 0:
                out.add(spine[i - 1])
            if i + 1 < len(spine):
                out.add(spine[i + 1])
        return out

    u, x = set(u), set(x)
    if not u <= x or 7 * len(u) < len(x):
        return "certificate sizes violate U <= X, 7|U| >= |X|"
    adj = adjacency(g)
    nb = set()
    for v in u:
        nb |= adj[v]
    if not nb <= ext(x):
        return "N(U) leaves ext(X)"
    return None

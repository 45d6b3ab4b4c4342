"""Immutable graph substrate: named families, path/cycle validation, edge-list IO.

Vertices are dense integers 0..n-1.  All seeded generators use Python's
``random.Random`` (Mersenne Twister with the version-2 string seeding), so a
(family, seed) pair produces the same edge set on every platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class GraphFormatError(ValueError):
    """Edge-list text violated the format contract."""


class SoundnessError(AssertionError):
    """A search built a path or cycle that fails its own validation.

    Raised explicitly, so the check still runs under `python -O`."""


def edge_key(u, v):
    """Normalize an undirected edge to (min, max) form."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph with set-based adjacency queries.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        adj = [set() for _ in range(n)]
        canon = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = edge_key(u, v)
            if e in canon:
                raise ValueError(f"duplicate edge {e}")
            canon.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self.edges = frozenset(canon)
        self._adj = tuple(frozenset(s) for s in adj)

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return v in self._adj[u]

    def min_degree(self):
        return min((len(s) for s in self._adj), default=0)

    def with_edge(self, u, v):
        """Return a copy with edge (u, v) added (no-op if present)."""
        if self.has_edge(u, v):
            return self
        return Graph(self.n, list(self.edges) + [(u, v)])

    def induced(self, vertices):
        """Induced subgraph on `vertices`, relabeled densely in sorted order.

        Returns (subgraph, labels) where labels[i] is the original id of the
        subgraph's vertex i.
        """
        labels = sorted(set(vertices))
        index = {v: i for i, v in enumerate(labels)}
        edges = [
            (index[u], index[v])
            for (u, v) in self.edges
            if u in index and v in index
        ]
        return Graph(len(labels), edges), labels

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


class Path:
    """A sequence of distinct vertices with an O(1) vertex -> position map."""

    __slots__ = ("vertices", "pos")

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        self.pos = {v: i for i, v in enumerate(self.vertices)}
        if len(self.pos) != len(self.vertices):
            raise ValueError("path contains a repeated vertex")

    @property
    def first(self):
        return self.vertices[0]

    @property
    def last(self):
        return self.vertices[-1]

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]

    def __contains__(self, v):
        return v in self.pos

    def reversed(self):
        return Path(reversed(self.vertices))

    def __eq__(self, other):
        return isinstance(other, Path) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Path({list(self.vertices)})"


class Cycle:
    """A cyclic sequence of distinct vertices (closing edge implicit)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle contains a repeated vertex")

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __repr__(self):
        return f"Cycle({list(self.vertices)})"


@dataclass(frozen=True)
class Verdict:
    """Validation outcome; `reason` names the first violated condition."""

    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def validate_path(g, vertices, endpoints=None):
    """Check that `vertices` is a path of g (optionally with given endpoints)."""
    seq = tuple(vertices)
    if not seq:
        return Verdict(False, "empty")
    if len(set(seq)) != len(seq):
        return Verdict(False, "repeated vertex")
    for v in seq:
        if not (0 <= v < g.n):
            return Verdict(False, f"vertex {v} out of range")
    for a, b in zip(seq, seq[1:]):
        if not g.has_edge(a, b):
            return Verdict(False, f"missing edge ({a}, {b})")
    if endpoints is not None and {seq[0], seq[-1]} != set(endpoints):
        return Verdict(False, "wrong endpoints")
    return Verdict(True)


def validate_cycle(g, vertices, hamilton=False):
    """Check that `vertices` is a cycle of g; with hamilton, that it spans."""
    seq = tuple(vertices)
    if len(seq) < 3:
        return Verdict(False, "fewer than 3 vertices")
    if len(set(seq)) != len(seq):
        return Verdict(False, "repeated vertex")
    for v in seq:
        if not (0 <= v < g.n):
            return Verdict(False, f"vertex {v} out of range")
    for a, b in zip(seq, seq[1:] + seq[:1]):
        if not g.has_edge(a, b):
            return Verdict(False, f"missing edge ({a}, {b})")
    if hamilton and len(seq) != g.n:
        return Verdict(False, f"length {len(seq)} != {g.n}")
    return Verdict(True)


def neighborhood(g, s):
    """External neighborhood: vertices outside `s` adjacent to `s`."""
    s = set(s)
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    out = set()
    for v in s:
        out.update(g.neighbors(v))
    return out - s


def is_connected(g):
    return g.n > 0 and min(bfs_distances(g, 0)) >= 0


def bfs_distances(g, source):
    """Distance from source to every vertex; -1 where unreachable."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if dist[u] < 0:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# Named families


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a, b):
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gnp(n, p, seed=0):
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(f"gnp:{seed}")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def random_regular(n, d, seed=0):
    """Pairing (configuration) model with rejection of loops and multi-edges."""
    if d < 0 or d >= n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    rng = random.Random(f"random_regular:{seed}")
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for u, v in zip(stubs[::2], stubs[1::2]):
            if u == v:
                ok = False
                break
            e = edge_key(u, v)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Graph(n, edges)


def clique_plus_isolated(clique_size, isolated_count):
    n = clique_size + isolated_count
    return Graph(
        n, [(u, v) for u in range(clique_size) for v in range(u + 1, clique_size)]
    )


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


FAMILIES = {
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "cycle": cycle_graph,
    "path": path_graph,
    "gnp": gnp,
    "random_regular": random_regular,
    "clique_plus_isolated": clique_plus_isolated,
    "petersen": petersen,
}

_SEEDED = {"gnp", "random_regular"}


def generate(family, seed=0, **params):
    """Build a named family; deterministic per (family, params, seed)."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    if family in _SEEDED:
        return builder(seed=seed, **params)
    return builder(**params)


# ---------------------------------------------------------------------------
# Edge-list text format: "n m" header then m lines "u v" with 0 <= u < v < n.


def save_edge_list(g):
    lines = [f"{g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def load_edge_list(text):
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"malformed header {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"malformed header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative counts in header")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"malformed edge line {ln!r}") from None
        if u == v:
            raise GraphFormatError(f"self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex out of range in {ln!r}")
        e = edge_key(u, v)
        if e in seen:
            raise GraphFormatError(f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return Graph(n, edges)

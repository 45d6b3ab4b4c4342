"""Immutable graph substrate: named families, path/cycle validation, edge-list IO.

Vertices are dense integers 0..n-1.  All seeded generators use Python's
``random.Random`` (Mersenne Twister with the version-2 string seeding), so a
(family, seed) pair produces the same edge set on every platform.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass


class GraphFormatError(ValueError):
    """Edge-list text violated the format contract."""


class SoundnessError(AssertionError):
    """A search built a path or cycle that fails its own validation.

    Raised explicitly, so the check still runs under `python -O`."""


DEFAULT_WORK_BUDGET = 10**8


class WorkBudgetExceeded(RuntimeError):
    """An exact enumeration or a rejection loop would exceed (or did exceed)
    the work budget."""


def work_budget(explicit=None):
    """The explicit budget, else HAMLAB_WORK_BUDGET, else the default.

    The variable takes a non-negative integer, also in float notation with an
    integral value such as 1e8; anything else raises ValueError.
    """
    if explicit is not None:
        return explicit
    env = os.environ.get("HAMLAB_WORK_BUDGET")
    if env:
        value = _integral(env)
        if value is None or value < 0:
            raise ValueError(
                f"HAMLAB_WORK_BUDGET must be a non-negative integer such as "
                f"100000000 or 1e8, got {env!r}"
            )
        return value
    return DEFAULT_WORK_BUDGET


def _integral(text):
    """The integer `text` spells, directly or as an integral float, or None."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        number = float(text)
    except ValueError:
        return None
    return int(number) if number.is_integer() else None


def edge_key(u, v):
    """Normalize an undirected edge to (min, max) form."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph with set-based adjacency queries.

    Immutable after construction; safe to share across threads.

    The iteration order of `neighbors(v)` and `edges` follows the insertion
    order of the input edges (hash-table order after inserting them in that
    order), and the seeded outputs depend on it: `rng.choice` draws from a
    neighbour set, and `induced` walks `edges`.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        edges = list(edges)
        adj = [[] for _ in range(n)]
        # One pass serves input that is all (u, v) tuples with 0 <= u < v < n
        # and no repeat, as gnp, induced and with_edge give: the caller's
        # tuples are kept as they are.  Anything else goes through
        # `_checked_edges`, which canonicalises and names the first bad edge.
        edge_set = None
        for e in edges:
            if type(e) is not tuple:
                break
            u, v = e
            if not 0 <= u < v < n:
                break
            adj[u].append(v)
            adj[v].append(u)
        else:
            edge_set = set(edges)
        if edge_set is None or len(edge_set) != len(edges):
            adj, edge_set = _checked_edges(n, edges)
        # Copying a set built by insertion in input order reproduces the
        # iteration order of the frozensets that set-by-set adds gave; a
        # frozenset built straight from the list orders some sets differently.
        self.edges = frozenset(edge_set)
        self._adj = tuple(frozenset(set(lst)) for lst in adj)

    def neighbors(self, v):
        """Neighbour set of v.  Unchecked (a hot path): v must lie in 0..n-1,
        and a negative v reads vertex n + v."""
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        """Adjacency test.  Unchecked (a hot path): u and v must lie in
        0..n-1, and a negative u reads vertex n + u."""
        return v in self._adj[u]

    def min_degree(self):
        return min((len(s) for s in self._adj), default=0)

    def with_edge(self, u, v):
        """Return a copy with edge (u, v) added (no-op if present)."""
        check_vertices(self, (u, v))
        if self.has_edge(u, v):
            return self
        return Graph(self.n, list(self.edges) + [edge_key(u, v)])

    def induced(self, vertices):
        """Induced subgraph on `vertices`, relabeled densely in sorted order.

        Returns (subgraph, labels) where labels[i] is the original id of the
        subgraph's vertex i.
        """
        labels = sorted(set(vertices))
        check_vertices(self, labels[:1] + labels[-1:])
        index = [-1] * self.n
        for i, v in enumerate(labels):
            index[v] = i
        edges = [
            (a, b)
            for (u, v) in self.edges
            if (a := index[u]) >= 0 and (b := index[v]) >= 0
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


def check_vertices(g, vertices):
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")


def _checked_edges(n, edges):
    """Adjacency lists and edge set of `edges` in (min, max) form, raising
    for the first self-loop, out-of-range vertex or repeat in input order."""
    adj = [[] for _ in range(n)]
    canon = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in edge ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u].append(v)
        adj[v].append(u)
        e = edge_key(u, v)
        if e in canon:
            raise ValueError(f"duplicate edge {e}")
        canon.add(e)
    return adj, canon


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
    fault = _walk_fault(g, seq, seq[1:])
    if fault is not None:
        return fault
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
    fault = _walk_fault(g, seq, seq[1:] + seq[:1])
    if fault is not None:
        return fault
    if hamilton and len(seq) != g.n:
        return Verdict(False, f"length {len(seq)} != {g.n}")
    return Verdict(True)


def _walk_fault(g, seq, nxt):
    """The failed Verdict for the first vertex of `seq` out of range, else for
    the first pair of zip(seq, nxt) that is not an edge; None when there is
    neither.  One min/max and one membership pass decide; the loops that
    name the fault run only on a failure."""
    if 0 <= min(seq) and max(seq) < g.n:
        adj = g._adj
        if all([b in adj[a] for a, b in zip(seq, nxt)]):
            return None
    for v in seq:
        if not (0 <= v < g.n):
            return Verdict(False, f"vertex {v} out of range")
    for a, b in zip(seq, nxt):
        if not g.has_edge(a, b):
            return Verdict(False, f"missing edge ({a}, {b})")
    return None


def neighborhood(g, s):
    """External neighborhood: vertices outside `s` adjacent to `s`."""
    s = set(s)
    check_vertices(g, s)
    out = set()
    for v in s:
        out.update(g.neighbors(v))
    return out - s


def adjacency_masks(g):
    """Neighbour bitmasks: bit v of masks[u] is set when u and v are adjacent."""
    bit = [1 << v for v in range(g.n)]
    return [sum(map(bit.__getitem__, g.neighbors(u))) for u in range(g.n)]


def neighborhood_mask(masks, s):
    """`neighborhood` of the vertices `s` as a bitmask over `masks`, unchecked."""
    inside = around = 0
    for v in s:
        inside |= 1 << v
        around |= masks[v]
    return around & ~inside


def is_connected(g):
    """Whether g has vertices and one component.  The reached set grows one
    frontier at a time by set unions of the frontier's neighbour sets."""
    if g.n == 0:
        return False
    adj = g._adj
    reached, frontier = {0}, (0,)
    while frontier:
        nxt = set()
        for v in frontier:
            nxt |= adj[v]
        nxt -= reached
        reached |= nxt
        frontier = nxt
    return len(reached) == g.n


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


def _check_work(what, work, unit):
    """Refuse a build that would take more than `work_budget()` steps, before
    taking any: `work` counts the edges a builder makes or the pairs gnp
    draws for."""
    budget = work_budget()
    if work > budget:
        raise WorkBudgetExceeded(f"{what}: {work} {unit} exceed the work budget of {budget}")


def _clique_edges(n, what):
    _check_work(what, n * (n - 1) // 2, "edges")
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def complete(n):
    return Graph(n, _clique_edges(n, f"complete({n})"))


def complete_bipartite(a, b):
    if a < 0 or b < 0:
        raise ValueError("part sizes must be non-negative")
    _check_work(f"complete_bipartite({a}, {b})", a * b, "edges")
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
    """G(n, p): one draw per vertex pair, each pair an edge with probability
    p.  WorkBudgetExceeded is raised before drawing when the n(n-1)/2 draws
    would pass `work_budget()`."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    _check_work(f"gnp({n}, {p})", n * (n - 1) // 2, "edge draws")
    draw = random.Random(f"gnp:{seed}").random
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if draw() < p])


def random_regular(n, d, seed=0):
    """Pairing (configuration) model with rejection of loops and multi-edges.

    Each attempt draws n * d stubs; when the next attempt would take the
    draws past `work_budget()`, WorkBudgetExceeded is raised instead."""
    if d < 0 or d >= n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    rng = random.Random(f"random_regular:{seed}")
    budget = work_budget()
    attempts = budget // (n * d) if d else 1
    for _ in range(attempts):
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
    raise WorkBudgetExceeded(
        f"random_regular({n}, {d}) drew no simple pairing in {attempts} attempts; "
        f"one more would pass the work budget of {budget} stub draws"
    )


def clique_plus_isolated(clique_size, isolated_count):
    if clique_size < 0 or isolated_count < 0:
        raise ValueError("part sizes must be non-negative")
    what = f"clique_plus_isolated({clique_size}, {isolated_count})"
    return Graph(clique_size + isolated_count, _clique_edges(clique_size, what))


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
    _check_work(f"edge list with header {n} {m}", m, "edges")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"malformed edge line {ln!r}")
        try:
            edges.append(edge_key(int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError(f"malformed edge line {ln!r}") from None
    try:  # Graph names the first self-loop, out-of-range vertex or repeat
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None

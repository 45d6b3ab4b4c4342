"""Test helper: replay a family's rotation chain with the functional `rotate`.

Its checks are explicit raises: pytest rewrites the asserts of test modules
only, and `python -O` strips those of a helper module."""

from hamlab import rotate


def replay(g, base, step):
    """The path that the rotation chain ending at `step` (None for no
    rotation) makes from `base`, applied one rotation at a time: each step's
    pivot must be adjacent to the current mobile end, and its rotation must
    break the step's edge and end at the step's new endpoint."""
    path = base
    for s in step.chain() if step is not None else ():
        if not g.has_edge(path.last, s.pivot):
            raise AssertionError(f"pivot {s.pivot} is not next to the end")
        path, applied = rotate(g, path, path.pos[s.pivot])
        if applied.broken_edge != s.broken_edge:
            raise AssertionError(f"rotation at {s.pivot} breaks another edge")
        if applied.new_endpoint != s.new_endpoint:
            raise AssertionError(f"rotation at {s.pivot} ends elsewhere")
    return path

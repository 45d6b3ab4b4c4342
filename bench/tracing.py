"""In-memory span tracer for the traced benchmark run.

`Tracer.install()` replaces each measured hamlab function at every module
attribute that binds it (and the generator entries of `graph.FAMILIES`) with a
wrapper that records a span: name, parent span, start and end in integer
nanoseconds, and the index of the benchmark op that caused it.  `Path` and
`Graph` constructions are counted by wrapping the class `__init__`, which
catches every construction whatever name the caller bound the class to.
`uninstall()` restores every original.  An untraced run never installs
anything.

Per-layer metrics are derived from the spans afterwards: a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from hamlab import applications, cli, closing, conditions, graph, pivots, rotation

_ns = time.perf_counter_ns

# (span name, function name, modules whose attribute binds the function)
FUNCTIONS = [
    ("graph.gen", "generate", (graph, cli)),
    ("graph.gen", "gnp", (graph,)),
    ("graph.gen", "random_regular", (graph,)),
    ("graph.validate", "validate_cycle", (graph, closing, applications)),
    ("graph.validate", "validate_path", (graph, closing, applications, pivots)),
    ("rotation.rotate", "rotate", (rotation, closing, pivots, applications)),
    ("rotation.extend", "extend", (rotation, closing, applications)),
    ("rotation.family", "endpoint_family", (rotation,)),
    ("rotation.targets", "double_rotation_targets", (rotation, closing)),
    ("rotation.closure", "endpoint_closure_oracle", (rotation,)),
    ("closing.search", "find_hamilton_cycle", (closing, applications, cli)),
    ("closing.heuristic", "close_heuristic", (closing, applications)),
    ("closing.proof", "close_proof_faithful", (closing, applications)),
    ("closing.unbroken", "unbroken_segments", (closing,)),
    ("closing.sigma0", "select_sigma0", (closing,)),
    ("closing.contract", "build_contracted", (closing,)),
    ("closing.model_paths", "model_endpoint_paths", (closing,)),
    ("pivots.classify", "classify_pivots", (pivots, closing, cli)),
    ("pivots.augment", "augment", (pivots, closing)),
    ("pivots.process", "process_bad_vertices", (pivots, cli)),
    ("applications.oracle", "hamiltonian_oracle", (applications,)),
    ("applications.oracle", "hamilton_path_oracle", (applications,)),
    ("applications.oracle", "hamilton_connected_oracle", (applications,)),
    ("applications.path_between", "hamilton_path_between", (applications, cli)),
    ("applications.cycle_k", "cycle_of_length_k", (applications, cli)),
    ("applications.strip", "strip_nonexpanding", (applications,)),
    ("applications.trials", "gnp_trials", (applications, cli)),
    ("conditions.expansion", "check_expansion", (conditions, cli)),
    ("conditions.joined", "check_joined", (conditions, cli)),
    ("cli.main", "main", (cli,)),
]

CLOSE_STAGES = (
    "absorption",
    "budget",
    "closing_edge",
    "connectivity",
    "endpoint_families",
    "good_vertices",
    "no_rotation",
    "segments",
    "sigma0",
    "tau_sequences",
    "too_small",
)

# span names whose self time is reported, with the metric it is reported as
SELF_TIME_METRICS = {
    "graph.path_build": "graph.path_build_s",
    "graph.graph_build": "graph.graph_build_s",
    "graph.gen": "graph.gen_s",
    "graph.validate": "graph.validate_s",
    "rotation.rotate": "rotation.rotate_s",
    "rotation.extend": "rotation.extend_s",
    "rotation.family": "rotation.family_s",
    "rotation.targets": "rotation.targets_s",
    "closing.heuristic": "closing.heuristic_s",
    "closing.proof": "closing.proof_s",
    "closing.unbroken": "closing.unbroken_s",
    "closing.sigma0": "closing.sigma0_s",
    "closing.contract": "closing.contract_s",
    "closing.model_paths": "closing.model_paths_s",
    "pivots.classify": "pivots.classify_s",
    "pivots.augment": "pivots.augment_s",
    "pivots.process": "pivots.process_s",
    "applications.oracle": "applications.oracle_s",
    "applications.path_between": "applications.path_between_s",
    "applications.cycle_k": "applications.cycle_k_s",
    "applications.strip": "applications.strip_s",
    "applications.trials": "applications.trials_s",
    "conditions.expansion": "conditions.expansion_s",
    "conditions.joined": "conditions.joined_s",
    "cli.main": "cli.self_s",
}

CALL_METRICS = {
    "graph.path_build": "graph.path_builds",
    "graph.graph_build": "graph.graph_builds",
    "rotation.rotate": "rotation.rotate_calls",
    "rotation.extend": "rotation.extend_calls",
    "rotation.family": "rotation.family_calls",
    "closing.proof": "closing.proof_calls",
    "closing.unbroken": "closing.unbroken_calls",
    "pivots.classify": "pivots.classify_calls",
    "pivots.augment": "pivots.augment_calls",
    "applications.oracle": "applications.oracle_calls",
    "cli.main": "cli.main_calls",
}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        # each span: [id, parent id, name, start ns, end ns, op index]
        self.spans = []
        self.counts = Counter()
        self._stack = [-1]
        self._op = -1
        self._in_op = False  # spans are recorded only inside a benchmark op
        self._saved = []

    # -- recording -----------------------------------------------------------

    def begin(self, name):
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1], name, _ns(), 0, self._op])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][4] = _ns()
        self._stack.pop()

    def op(self, index, fn):
        """Run one benchmark op under a root span."""
        self._op = index
        self._in_op = True
        sid = self.begin("bench.op")
        try:
            return fn()
        finally:
            self.end(sid)
            self._in_op = False

    def _wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._in_op:
                return fn(*args, **kwargs)
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new):
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def install(self):
        """Wrap every binding; a binding the library no longer has is skipped
        and named on stderr, so its layer reads low instead of failing."""
        hooks = self._result_hooks()
        for span, fname, modules in FUNCTIONS:
            for mod in modules:
                fn = getattr(mod, fname, None)
                if fn is None:
                    sys.stderr.write(f"bench: trace: {mod.__name__}.{fname} not found\n")
                    continue
                self._patch(mod, fname, self._wrap(span, fn, hooks.get(fname)))
        for family, fn in list(graph.FAMILIES.items()):
            self._patch(graph.FAMILIES, family, self._wrap("graph.gen", fn))
        self._patch_init(graph.Path, "graph.path_build", self._count_path)
        self._patch_init(graph.Graph, "graph.graph_build", None)

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def _patch_init(self, cls, name, after):
        init = cls.__init__
        tracer = self

        def traced_init(obj, *args, **kwargs):
            if not tracer._in_op:
                return init(obj, *args, **kwargs)
            sid = tracer.begin(name)
            try:
                init(obj, *args, **kwargs)
            finally:
                tracer.end(sid)
            if after is not None:
                after(obj)

        self._patch(cls, "__init__", traced_init)

    def _count_path(self, path):
        self.counts["graph.path_vertices_indexed"] += len(path.vertices)

    def _result_hooks(self):
        counts = self.counts

        def search(res, args, kwargs):
            counts["rotation.rotations"] += res.stats.get("rotations", 0)

        def family(fam, args, kwargs):
            counts["rotation.family_endpoints"] += len(fam.endpoints()) - 1

        def targets(res, args, kwargs):
            counts["rotation.target_pairs"] += len(res.pairs())

        def closure(res, args, kwargs):
            counts["rotation.closure_states"] += res.states

        def close(res, args, kwargs):
            stage = getattr(res, "stage", None)
            if stage is not None:
                counts[f"closing.fail_stage.{stage}"] += 1

        def proof(res, args, kwargs):
            close(res, args, kwargs)
            if not hasattr(res, "stage"):
                counts["closing.proof_successes"] += 1

        def classify(audit, args, kwargs):
            counts["pivots.pivots_audited"] += len(audit.good) + len(audit.bad)
            counts["pivots.good"] += len(audit.good)

        def checker(report, args, kwargs):
            counts["conditions.subsets_inspected"] += report.work

        return {
            "find_hamilton_cycle": search,
            "endpoint_family": family,
            "double_rotation_targets": targets,
            "endpoint_closure_oracle": closure,
            "close_heuristic": close,
            "close_proof_faithful": proof,
            "classify_pivots": classify,
            "check_expansion": checker,
            "check_joined": checker,
        }

    # -- analysis ------------------------------------------------------------

    def self_times_ns(self):
        """Total self time per span name, in nanoseconds."""
        child = [0] * len(self.spans)
        for sid, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        for sid, _, name, start, end, _ in self.spans:
            out[name] += end - start - child[sid]
        return dict(out)

    def total_ns(self, name):
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def calls(self):
        return Counter(s[2] for s in self.spans)

    def rotations_under(self, ancestor):
        """rotate spans that have a span called `ancestor` above them."""
        names = [s[2] for s in self.spans]
        parents = [s[1] for s in self.spans]
        hits = 0
        for sid, name in enumerate(names):
            if name != "rotation.rotate":
                continue
            p = parents[sid]
            while p >= 0:
                if names[p] == ancestor:
                    hits += 1
                    break
                p = parents[p]
        return hits

    def write(self, path):
        """Write every span as one line: id parent name start_ns end_ns op."""
        with open(path, "w") as fh:
            fh.write("id parent name start_ns end_ns op\n")
            for sid, parent, name, start, end, op in self.spans:
                fh.write(f"{sid} {parent} {name} {start} {end} {op}\n")


def layer_metrics(tracer, traced_wall_s, untraced_wall_s, extra):
    """Per-layer metrics of one traced pass; `extra` holds benchmark counts."""
    selfs = tracer.self_times_ns()
    calls = tracer.calls()
    counts = tracer.counts
    m = {}
    for span, metric in SELF_TIME_METRICS.items():
        m[metric] = selfs.get(span, 0) / 1e9
    for span, metric in CALL_METRICS.items():
        m[metric] = calls.get(span, 0)
    m["graph.path_vertices_indexed"] = counts["graph.path_vertices_indexed"]
    rotations = counts["rotation.rotations"]
    m["rotation.rotations"] = rotations
    m["rotation.rotations_per_s"] = rotations / untraced_wall_s if untraced_wall_s else 0.0
    family_rotations = tracer.rotations_under("rotation.family")
    m["rotation.family_endpoints_per_rotation"] = (
        counts["rotation.family_endpoints"] / family_rotations if family_rotations else 0.0
    )
    m["rotation.target_pairs"] = counts["rotation.target_pairs"]
    m["rotation.closure_states"] = counts["rotation.closure_states"]
    proof_calls = calls.get("closing.proof", 0)
    m["closing.proof_success_ratio"] = (
        counts["closing.proof_successes"] / proof_calls if proof_calls else 0.0
    )
    for stage in CLOSE_STAGES:
        m[f"closing.fail_stage.{stage}"] = counts[f"closing.fail_stage.{stage}"]
    audited = counts["pivots.pivots_audited"]
    m["pivots.pivots_audited"] = audited
    m["pivots.good_ratio"] = counts["pivots.good"] / audited if audited else 0.0
    positives = extra.get("oracle_positive", 0)
    m["applications.search_recall"] = (
        extra.get("oracle_positive_found", 0) / positives if positives else 0.0
    )
    subsets = counts["conditions.subsets_inspected"]
    m["conditions.subsets_inspected"] = subsets
    checker_s = (selfs.get("conditions.expansion", 0) + selfs.get("conditions.joined", 0)) / 1e9
    m["conditions.subsets_per_s"] = subsets / checker_s if checker_s else 0.0
    m["cli.main_s"] = tracer.total_ns("cli.main") / 1e9
    m["cli.stdout_bytes"] = extra.get("stdout_bytes", 0)
    m["bench.trace_overhead_ratio"] = (
        traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0
    )
    return m

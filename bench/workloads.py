"""The benchmark's four workloads: seeded op lists built in set-up.

An op is one timed call into hamlab's public API (`call`) plus an untimed
check of its output (`check`).  Ops reach hamlab through module attributes
(`closing.find_hamilton_cycle`, `cli.main`, ...) so that the traced run's
wrappers see them; checks use the original functions bound at import time.

Every input is drawn from the workload seed, so one seed always yields the
same op list.  `quick` swaps in a tiny op list for the benchmark's self-tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from hamlab import applications, cli, closing, conditions, pivots, rotation
from hamlab.graph import Graph, Path, generate, gnp, random_regular
from hamlab.rotation import extend as lib_extend

import checks

@dataclass
class Outcome:
    """Checked result of one op.

    status is "ok", "miss" (a search found nothing where the workload measures
    how often it succeeds), or a failure: "wrong" (an output failed a check or
    contradicted an oracle), "no_result" (a search found nothing where a
    result is expected), "exit_code" (the CLI exited with an unexpected code),
    "error" (an exception) or "over_limit" (MemoryError under RLIMIT_AS).
    """

    status: str
    digest: str
    reason: str = ""
    oracle_positive: bool = False
    oracle_found: bool = False
    stdout_bytes: int = 0

    @property
    def failed(self):
        return self.status not in ("ok", "miss")

    @property
    def wrong(self):
        return self.status in ("wrong", "exit_code")


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def sha(seq):
    return hashlib.sha256(" ".join(map(str, seq)).encode()).hexdigest()[:16]


def _fail(label, status, reason):
    return Outcome(status, f"{label} {status}", reason)


# ---------------------------------------------------------------------------
# Input generation


def sparse_p(n):
    """Edge probability (ln n + ln ln n + 3) / n, just above the threshold."""
    return (math.log(n) + math.log(math.log(n)) + 3) / n


def sparse_gnp(n, tag):
    """G(n, sparse_p(n)) conditioned on min degree 2 and connectivity.

    Draws are redrawn under a derived seed until the condition holds, so the
    op list holds only graphs on which a Hamilton cycle search should succeed.
    """
    attempt = 0
    while True:
        g = gnp(n, sparse_p(n), seed=f"{tag}:{attempt}")
        if checks.hamilton_obstruction(g) is None:
            return g
        attempt += 1


def spanned_graph(n, p, tag, rng):
    """A random graph on n vertices that contains a shuffled spanning path."""
    spine = list(range(n))
    rng.shuffle(spine)
    edges = {checks.edge(a, b) for a, b in zip(spine, spine[1:])}
    edges |= set(gnp(n, p, seed=tag).edges)
    return Graph(n, edges), tuple(spine)


# ---------------------------------------------------------------------------
# Search ops


def search_op(label, g, mode, budget, search_seed, expect_cycle):
    """find_hamilton_cycle on g; with expect_cycle a miss is a failed op."""

    def call():
        return closing.find_hamilton_cycle(g, mode=mode, budget=budget, seed=search_seed)

    def check(res):
        rot = res.stats.get("rotations", 0)
        if res.found:
            problem = checks.cycle_problem(g, res.cycle.vertices)
            if problem:
                return _fail(label, "wrong", problem)
            return Outcome("ok", f"{label} found rot={rot} cycle={sha(res.cycle.vertices)}")
        digest = f"{label} stage={res.stage} rot={rot}"
        if not res.stage:
            return _fail(label, "wrong", "search returned neither a cycle nor a stage")
        if checks.hamilton_obstruction(g) is not None:
            return Outcome("ok", digest)
        if expect_cycle:
            return Outcome("no_result", digest, f"no cycle found (stage {res.stage})")
        return Outcome("miss", digest)

    return Op(label, call, check)


def sparse_heuristic(seed, quick):
    """Heuristic search on sparse random graphs just above the threshold."""
    # many mid-size graphs keep a pass's total steady across seeds.  Cubic
    # graphs vary most: one search on random_regular(1000, 3) took 0.5-1.6 s
    # over seeds and alone moved a pass by 25%, so eight at n = 500 stand in
    # for it (0.13 s each, spreading a third of that)
    specs = [("rr", 200), ("gnp", 300)] if quick else (
        [("rr", 500)] * 8 + [("gnp", 4000)] + [("gnp", 2000)] * 4 + [("gnp", 1000)] * 20
    )
    ops = []
    for i, (family, n) in enumerate(specs):
        tag = f"sparse-heuristic:{seed}:{i}"
        if family == "rr":
            g = random_regular(n, 3, seed=tag)
        else:
            g = sparse_gnp(n, tag)
        label = f"{family}({n})#{i}"
        ops.append(search_op(label, g, "heuristic", 100_000, i, expect_cycle=True))
    return ops


def proof_pipeline(seed, quick):
    """Proof-faithful pipeline on gnp(n, c ln n / n), plus the README example."""
    # many ops of moderate cost, so a pass's total spreads little from seed
    # to seed (one op's cost spreads 20-50%; n = 150 spreads most per second
    # of work); c = 3 ops may stop at a named stage (closing_edge), which is
    # not a failure
    specs = [(60, 8)] if quick else (
        [(60, 3), (60, 5), (60, 8)] * 2 + [(80, 3)] * 6 + [(80, 8)] * 4
        + [(80, 5)] * 2 + [(120, 5)]
    )
    ops = []
    for i, (n, c) in enumerate(specs):
        g = gnp(n, c * math.log(n) / n, seed=f"proof-pipeline:{seed}:{i}")
        label = f"proof_faithful gnp({n},{c}ln/n)#{i}"
        ops.append(search_op(label, g, "proof_faithful", 5_000, i, expect_cycle=False))
    if not quick:
        # README example: `hamlab gen --family gnp --n 1000 --p 0.014 --seed 7`
        # then `hamlab hamilton --mode auto --budget 100000 --seed 1`
        g = gnp(1000, 0.014, seed=7)
        ops.append(search_op("auto readme gnp(1000,0.014)", g, "auto", 100_000, 1, True))
    return ops


# ---------------------------------------------------------------------------
# Cross-checks against exact oracles


def oracle_cycle_op(label, g, search_seed):
    def call():
        truth = applications.hamiltonian_oracle(g)
        res = closing.find_hamilton_cycle(g, mode="auto", budget=3_000, seed=search_seed)
        return truth, res

    def check(out):
        (truth, witness), res = out
        if truth:
            problem = checks.cycle_problem(g, witness.vertices)
            if problem:
                return _fail(label, "wrong", f"oracle witness: {problem}")
        digest = f"{label} oracle={truth} found={res.found} rot={res.stats.get('rotations')}"
        if res.found:
            problem = checks.cycle_problem(g, res.cycle.vertices)
            if problem:
                return _fail(label, "wrong", problem)
            if not truth:
                return _fail(label, "wrong", "search found a cycle the oracle denies")
            digest += f" cycle={sha(res.cycle.vertices)}"
        status = "miss" if truth and not res.found else "ok"
        return Outcome(status, digest, oracle_positive=truth, oracle_found=res.found)

    return Op(label, call, check)


def oracle_path_op(label, g, u, v, search_seed):
    def call():
        truth = applications.hamilton_path_oracle(g, u, v)
        res = applications.hamilton_path_between(
            g, u, v, mode="auto", budget=4_000, seed=search_seed, retries=2
        )
        return truth, res

    def check(out):
        (truth, witness), res = out
        if truth:
            problem = checks.path_problem(g, witness.vertices, endpoints=(u, v))
            if problem:
                return _fail(label, "wrong", f"oracle witness: {problem}")
        digest = f"{label} oracle={truth} found={res.found} rot={res.stats.get('rotations')}"
        if res.found:
            problem = checks.path_problem(g, res.path.vertices, endpoints=(u, v))
            if problem:
                return _fail(label, "wrong", problem)
            if not truth:
                return _fail(label, "wrong", "search found a path the oracle denies")
            if checks.edge(u, v) in res.broken_edges:
                return _fail(label, "wrong", "protected edge was broken")
            digest += f" path={sha(res.path.vertices)}"
        status = "miss" if truth and not res.found else "ok"
        return Outcome(status, digest, oracle_positive=truth, oracle_found=res.found)

    return Op(label, call, check)


def family_op(label, g, base, d):
    def call():
        fam = rotation.endpoint_family(g, base, d=d, total_target=g.n)
        closure = rotation.endpoint_closure_oracle(g, base, max_states=5_000)
        return fam, closure

    def check(out):
        fam, closure = out
        # a closure cut short by its state budget proves no membership bound
        bound = closure.endpoints if closure.complete else None
        problem = checks.family_problem(g, base, fam, bound)
        if problem:
            return _fail(label, "wrong", problem)
        layers = [sorted(layer) for layer in fam.layers]
        return Outcome(
            "ok",
            f"{label} layers={layers} closure={sorted(closure.endpoints)} "
            f"states={closure.states} complete={closure.complete}",
        )

    return Op(label, call, check)


def checker_op(label, g, s, d):
    def call():
        return conditions.check_expansion(g, s, d), conditions.check_joined(g, s)

    def check(out):
        expansion, joined = out
        want_work = {
            "expansion": sum(math.comb(g.n, a) for a in range(1, s + 1)),
            "joined": math.comb(g.n, s),
        }
        for rep in (expansion, joined):
            if rep.verdict == "fails":
                d = rep.params.get("d")
                problem = checks.condition_witness_problem(g, rep.witness, s, d)
                if problem:
                    return _fail(label, "wrong", problem)
            elif rep.verdict != "holds":
                return _fail(label, "wrong", f"exact check gave {rep.verdict}")
            elif rep.work != want_work[rep.condition]:
                return _fail(label, "wrong", f"{rep.condition} holds after {rep.work} subsets")
        return Outcome(
            "ok",
            f"{label} expansion={expansion.verdict}:{expansion.work} "
            f"joined={joined.verdict}:{joined.work}",
        )

    return Op(label, call, check)


def pivot_op(label, g, spine):
    h = pivots.SpannedGraph(g, spine)

    def call():
        # exhaustive endpoint sets (no early exit) against a quarter of l
        audit = pivots.classify_pivots(h, threshold_ratio=0.25, budget=2_000, early_exit=False)
        return audit, pivots.process_bad_vertices(h, audit)

    def check(out):
        audit, cert = out
        problem = checks.certificate_problem(g, spine, audit.good, audit.bad, cert.u, cert.x)
        if problem:
            return _fail(label, "wrong", problem)
        return Outcome("ok", f"{label} bad={audit.bad} U={sorted(cert.u)} X={sorted(cert.x)}")

    return Op(label, call, check)


def crosscheck_small(seed, quick):
    """Many seeded ops on tiny inputs, each checked against an exact oracle."""
    rng = random.Random(f"crosscheck-small:{seed}")
    reps = 2 if quick else None
    ops = []

    def tag():
        return f"crosscheck-small:{seed}:{len(ops)}"

    # sizes and densities cycle through fixed grids, so only the graphs
    # themselves depend on the seed
    for i in range(reps or 60):
        # dense graphs, so the subset DP runs in full; every sixth graph is
        # sparse and small, so negative instances appear as well
        n, p = (11 + i % 5, (0.5, 0.6, 0.7)[i % 3]) if i % 6 != 5 else (11, 0.3)
        ops.append(oracle_cycle_op(f"oracle-cycle gnp({n},{p})#{i}", gnp(n, p, seed=tag()), i))
    for i in range(reps or 60):
        n, p = 11 + i % 4, (0.5, 0.65, 0.8)[i % 3]
        u, v = rng.sample(range(n), 2)
        g = gnp(n, p, seed=tag())
        ops.append(oracle_path_op(f"oracle-path gnp({n},{p})#{i} {u}-{v}", g, u, v, i))
    for i in range(reps or 60):
        n, p = 8 + i % 3, (0.4, 0.55, 0.7)[i // 3 % 3]
        g = gnp(n, p, seed=tag())
        base = lib_extend(g, Path((rng.randrange(n),)), rng)
        d = (3.0, 6.0, 9.0)[i % 3]
        ops.append(family_op(f"family gnp({n},{p})#{i}", g, base, d))
    for i in range(reps or 30):
        n, p = 30 + 5 * (i % 4), (0.8, 0.9)[i % 2]
        g = gnp(n, p, seed=tag())
        ops.append(checker_op(f"checkers gnp({n},{p})#{i}", g, 3, (1.5, 2.0, 3.0)[i // 4 % 3]))
    for i in range(reps or 40):
        n, p = 9 + i % 4, (0.15, 0.25, 0.35)[i % 3]
        g, spine = spanned_graph(n, p, tag(), rng)
        ops.append(pivot_op(f"pivots l={n} p={p}#{i}", g, spine))
    return ops


# ---------------------------------------------------------------------------
# CLI ops


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_op(label, argv, judge):
    """One in-process `hamlab` call; judge(code, stdout) returns (status, reason)."""

    def call():
        return run_cli(argv)

    def check(out):
        code, stdout, stderr = out
        digest = f"{label} exit={code} stdout={sha([stdout])}"
        try:
            status, reason = judge(code, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            status, reason = "wrong", f"unparseable output: {exc!r}"
        if status == "ok":
            return Outcome("ok", digest, stdout_bytes=len(stdout))
        return Outcome(status, digest, f"{reason}; stderr={stderr.strip()[:200]}")

    return Op(label, call, check)


def _exit(code, want):
    if code != want:
        return "exit_code", f"exit {code}, expected {want}"
    return None


def judge_path(graph, u, v):
    def judge(code, stdout):
        g = graph()
        g_uv = g.with_edge(u, v)
        want = 1 if checks.hamilton_obstruction(g_uv) else 0
        if code == 1 and want == 0:
            return "no_result", "no u-v Hamilton path found"
        bad = _exit(code, want)
        if bad:
            return bad
        if code == 1:
            return "ok", ""
        seq = [int(tok) for tok in stdout.split()]
        problem = checks.path_problem(g, seq, endpoints=(u, v))
        return ("wrong", problem) if problem else ("ok", "")

    return judge


def judge_cycle_k(graph, k):
    def judge(code, stdout):
        if code == 1:
            return "no_result", "no k-cycle found"
        bad = _exit(code, 0)
        if bad:
            return bad
        problem = checks.cycle_problem(graph(), [int(t) for t in stdout.split()], length=k)
        return ("wrong", problem) if problem else ("ok", "")

    return judge


def judge_sweep(steps, trials):
    def judge(code, stdout):
        bad = _exit(code, 0)
        if bad:
            return bad
        lines = stdout.splitlines()
        rows = lines[1:-1]
        aggregates = json.loads(lines[-1])["aggregates"]
        if lines[0] != "trial,seed,n,p,success,rotations,ms" or len(rows) != steps * trials:
            return "wrong", "sweep CSV has the wrong shape"
        successes = sum(int(row.split(",")[4]) for row in rows)
        if len(aggregates) != steps or successes != sum(a["successes"] for a in aggregates):
            return "wrong", "sweep aggregates disagree with the CSV rows"
        return "ok", ""

    return judge


def judge_hamilton(graph):
    def judge(code, stdout):
        g = graph()
        obstruction = checks.hamilton_obstruction(g)
        payload = json.loads(stdout)
        if obstruction is None and code == 1:
            return "no_result", f"no cycle found (stage {payload.get('stage')})"
        bad = _exit(code, 1 if obstruction else 0)
        if bad:
            return bad
        if code == 1:
            return "ok", ""
        problem = checks.cycle_problem(g, payload["cycle"])
        return ("wrong", problem) if problem else ("ok", "")

    return judge


def judge_pivot_audit(n, spine):
    def judge(code, stdout):
        bad = _exit(code, 0)
        if bad:
            return bad
        payload = json.loads(stdout)
        cert = payload["certificate"]
        problem = checks.certificate_problem(
            generate("complete", n=n), spine, payload["good"], payload["bad"],
            cert["U"], cert["X"],
        )
        return ("wrong", problem) if problem else ("ok", "")

    return judge


def judge_conditions(graph):
    def judge(code, stdout):
        payload = json.loads(stdout)
        if "error" in payload:
            return _exit(code, 2) or ("ok", "")
        want = {"holds": 0, "fails": 1, "indeterminate": 2}[payload["verdict"]]
        bad = _exit(code, want)
        if bad:
            return bad
        if payload["verdict"] != "fails":
            return "ok", ""
        params, witness = payload["params"], payload["witness"]
        g = graph()
        if "S" in witness:
            s, d = math.floor(params["s_small"]), params["d"]
        else:
            s, d = math.ceil(params["s_big"]), None
        problem = checks.condition_witness_problem(g, witness, s, d)
        return ("wrong", problem) if problem else ("ok", "")

    return judge


def cli_apps(seed, quick):
    """In-process `hamlab` CLI calls covering every application entry point."""
    rng = random.Random(f"cli-apps:{seed}")
    ops = []

    def reps(full):
        return 1 if quick else full

    def int_seed():
        return seed * 1000 + len(ops)

    def gnp_source(n, p, s):
        # The CLI builds its own copy inside the op; the judge's copy is built
        # here, in set-up, so the collector freeze after set-up covers it and
        # the full collections that the CLI's garbage sets off during the ops
        # do not walk a heap of every op's graph.
        args = ["--family", "gnp", "--n", str(n), "--p", str(p), "--seed", str(s)]
        g = generate("gnp", seed=s, n=n, p=p)
        return args, lambda: g

    # auto mode runs the proof-faithful pipeline first; at n = 60 its cost
    # spreads least from seed to seed
    for mode, count, n, p in (("heuristic", 40, 300, 0.05), ("auto", 8, 60, 0.15)):
        n, p = (40, 0.3) if quick else (n, p)
        for _ in range(reps(count)):
            s = int_seed()
            src, graph = gnp_source(n, p, s)
            u, v = rng.sample(range(n), 2)
            argv = ["path", *src, "--u", str(u), "--v", str(v), "--mode", mode]
            ops.append(cli_op(f"path {mode} seed={s} {u}-{v}", argv, judge_path(graph, u, v)))
    # the cycle-k ops take most of a pass; 40 of them keep its total steady
    # from seed to seed.  The smallest k is 90: at k = 60 the induced graphs
    # have mean degree 6, most ops retry, and one op in a few dozen runs 15
    # times longer than the rest, which alone moves a pass by 25%.
    for i in range(reps(40)):
        s = int_seed()
        n, p, k = (60, 0.3, 20) if quick else (600, 0.1, (90, 180, 300, 420, 540)[i % 5])
        src, graph = gnp_source(n, p, s)
        argv = ["cycle-k", *src, "--k", str(k)]
        ops.append(cli_op(f"cycle-k k={k} seed={s}", argv, judge_cycle_k(graph, k)))
    for _ in range(reps(5)):
        s = int_seed()
        argv = ["sweep", "--n", "100", "--pmin", "0.04", "--pmax", "0.12", "--steps", "3",
                "--trials", "2", "--seed", str(s), "--budget", "20000", "--jobs", "1"]
        ops.append(cli_op(f"sweep seed={s}", argv, judge_sweep(3, 2)))
    for _ in range(reps(30)):
        s = int_seed()
        src, graph = gnp_source(200, 0.05, s)
        argv = ["hamilton", *src, "--format", "json", "--mode", "heuristic"]
        ops.append(cli_op(f"hamilton seed={s}", argv, judge_hamilton(graph)))
    for i in range(reps(20)):
        n = 6 + i % 7
        spine = list(range(n))
        rng.shuffle(spine)
        argv = ["pivot-audit", "--family", "complete", "--n", str(n),
                "--path", ",".join(map(str, spine))]
        ops.append(cli_op(f"pivot-audit n={n}#{i}", argv, judge_pivot_audit(n, tuple(spine))))
    for i in range(2 if quick else 20):
        # n <= 40 keeps the expansion threshold at set size 2 or less
        n = 24 + 2 * (i % 9)
        if i % 2:
            # `--d` stays at its default here: with `--family gnp` the CLI
            # passes it on to the generator, which rejects it
            s, p = int_seed(), (0.3, 0.4, 0.5)[i // 2 % 3]
            src, graph = gnp_source(n, p, s)
            label = f"check gnp({n},{p}) seed={s}"
        else:
            d = (8, 12)[i // 2 % 2]
            src = ["--family", "complete", "--n", str(n), "--d", str(d)]
            g = generate("complete", n=n)
            graph = lambda g=g: g  # noqa: E731
            label = f"check complete({n}) d={d}"
        argv = ["check", "--conditions", "--variant", "P1pP2p", *src]
        ops.append(cli_op(label, argv, judge_conditions(graph)))
    return ops


BUILDERS = {
    "sparse-heuristic": sparse_heuristic,
    "proof-pipeline": proof_pipeline,
    "crosscheck-small": crosscheck_small,
    "cli-apps": cli_apps,
}


def build(workload, seed, quick=False):
    return BUILDERS[workload](seed, quick)

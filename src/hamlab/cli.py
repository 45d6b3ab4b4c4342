"""Command-line front end.

One binary, subcommand style.  All randomness flows from --seed through
documented stream derivation: a trial's generator is seeded with the string
"<subcommand>:<seed>:<trial index>", so reruns are byte-identical and trials
can be distributed without coordination.

Exit codes: 0 success/holds, 1 negative result, 2 resource limit or
indeterminate, 64 usage error, 70 internal error (a soundness check failed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .conditions import (
    FConnSpec,
    WorkBudgetExceeded,
    check_expansion,
    check_f_connected,
    check_gnp_properties,
    check_joined,
    check_conditions,
)
from .closing import MODES, find_hamilton_cycle
from .applications import (
    cycle_of_length_k,
    fconnected_pipeline,
    gnp_trials,
    hamilton_path_between,
)
from .graph import generate, load_edge_list, save_edge_list
from .pivots import SpannedGraph, classify_pivots, process_bad_vertices

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70  # a soundness check failed: a bug in hamlab, not in the input

SCHEMA = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(path):
    """The argv of a saved invocation; replaying it reproduces the output."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise UsageError(f"unsupported config schema in {path}")
    argv = payload.get("argv")
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise UsageError(f"config {path} needs an argv list of strings")
    return argv


def _save_config(path, argv):
    with open(path, "w") as fh:
        json.dump({"schema": SCHEMA, "argv": argv}, fh, sort_keys=True)
        fh.write("\n")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(payload, out_path):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    _emit(json.dumps(payload, sort_keys=True, default=list) + "\n", out_path)


# generator parameter behind each graph-source flag, per family
_FAMILY_FLAGS = {
    "complete": {"n": "n"},
    "complete_bipartite": {"a": "a", "b": "b"},
    "cycle": {"n": "n"},
    "path": {"n": "n"},
    "gnp": {"n": "n", "p": "p"},
    "random_regular": {"n": "n", "d": "d"},
    "clique_plus_isolated": {"clique": "clique_size", "isolated": "isolated_count"},
    "petersen": {},
}


def _graph_from_args(args):
    """The input graph: an edge-list file, or a named family built from only
    the flags its generator takes (other flags, such as `check --d`, are left
    to the subcommand)."""
    if args.infile:
        with open(args.infile) as fh:
            return load_edge_list(fh.read())
    if not args.family:
        raise UsageError("need --in FILE or --family NAME")
    params = {}
    for flag, name in _FAMILY_FLAGS.get(args.family, {}).items():
        val = getattr(args, flag)
        if val is None:
            raise UsageError(f"--family {args.family} needs --{flag}")
        params[name] = val
    return generate(args.family, seed=args.seed, **params)


def _add_graph_source(p):
    """The flags of every command that reads a graph: its source and --out."""
    p.add_argument("--in", dest="infile", help="edge-list file")
    p.add_argument("--family", help="named family instead of a file")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--clique", type=int)
    p.add_argument("--isolated", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")


@functools.cache
def build_parser():
    """The argument parser, built once per process: `parse_args` keeps no
    state between calls, and each call returns a fresh namespace."""
    parser = _Parser(prog="hamlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="replay a saved run configuration")
    parser.add_argument("--save-config", help="persist this invocation for replay")
    sub = parser.add_subparsers(dest="subcommand", required=False)

    p = sub.add_parser("gen", help="generate a named family to an edge list")
    _add_graph_source(p)

    p = sub.add_parser("check", help="run a condition checker")
    _add_graph_source(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expansion", action="store_true")
    group.add_argument("--joined", action="store_true")
    group.add_argument("--fconn", action="store_true")
    group.add_argument("--conditions", action="store_true")
    group.add_argument("--gnp-props", action="store_true")
    p.add_argument("--s", type=int, help="set-size threshold")
    p.add_argument("--expand-d", type=float, default=2.0, help="expansion factor")
    p.add_argument("--variant", default="P1P2", choices=["P1P2", "P1pP2p"])
    p.add_argument("--preset", default="klogk", choices=["klogk", "quadratic"])
    p.add_argument("--mode", default="exact", choices=["exact", "sampled"])
    p.add_argument("--format", default="json", choices=["json", "text"])

    p = sub.add_parser("hamilton", help="search for a Hamilton cycle")
    _add_graph_source(p)
    p.add_argument("--mode", default="auto", choices=MODES)
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--format", default="text", choices=["json", "text"])

    p = sub.add_parser("path", help="Hamilton path between two vertices")
    _add_graph_source(p)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--mode", default="auto", choices=MODES)
    p.add_argument("--budget", type=int, default=100000)

    p = sub.add_parser("cycle-k", help="cycle of exact length k")
    _add_graph_source(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=10, help="window of k + n // t vertices; t >= 1")
    p.add_argument("--retries", type=int, default=20)
    p.add_argument("--budget", type=int, default=30000)

    p = sub.add_parser("pivot-audit", help="good/bad pivot audit of a spanning path")
    _add_graph_source(p)
    p.add_argument("--path", dest="spine", help="comma-separated spanning path")
    p.add_argument("--ratio", type=float, default=1.0 / 43.0)
    p.add_argument("--budget", type=int, default=200000)

    p = sub.add_parser("sweep", help="G(n,p) success-rate sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pmin", type=float, required=True)
    p.add_argument("--pmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=60000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--mode", default="heuristic", choices=MODES)
    p.add_argument("--out", help="CSV path (aggregate JSON goes to stdout)")

    p = sub.add_parser("fconn-pipeline", help="f-connectivity check + search")
    _add_graph_source(p)
    p.add_argument("--preset", default="klogk", choices=["klogk", "quadratic"])
    p.add_argument("--budget", type=int, default=100000)

    return parser


def cmd_gen(args):
    g = _graph_from_args(args)
    _emit(save_edge_list(g), args.out)
    return EXIT_OK


def cmd_check(args):
    try:
        g = _graph_from_args(args)  # the builders count edges against the budget too
        if args.expansion:
            if args.s is None:
                raise UsageError("--expansion needs --s")
            report = check_expansion(
                g, args.s, args.expand_d, mode=args.mode, seed=args.seed
            )
        elif args.joined:
            if args.s is None:
                raise UsageError("--joined needs --s")
            report = check_joined(g, args.s, mode=args.mode, seed=args.seed)
        elif args.fconn:
            report = check_f_connected(g, FConnSpec.preset(args.preset))
        elif args.conditions:
            d = args.d if args.d is not None else 12
            report = check_conditions(
                g, d, variant=args.variant, mode=args.mode, seed=args.seed
            )
        else:
            report = check_gnp_properties(g, mode=args.mode, seed=args.seed)
    except WorkBudgetExceeded as exc:
        _dump({"error": "work budget exceeded", "detail": str(exc)}, args.out)
        return EXIT_INDETERMINATE
    if args.format == "text":
        _emit(f"{report.condition} {report.verdict}\n", args.out)
    else:
        _dump(report.to_json(), args.out)
    if report.verdict == "holds":
        return EXIT_OK
    if report.verdict == "fails":
        return EXIT_NEGATIVE
    return EXIT_INDETERMINATE


def cmd_hamilton(args):
    g = _graph_from_args(args)
    res = find_hamilton_cycle(g, mode=args.mode, budget=args.budget, seed=args.seed)
    if res.found:
        if args.format == "json":
            _dump(res.to_json(), args.out)
        else:
            _emit(" ".join(map(str, res.cycle.vertices)) + "\n", args.out)
        return EXIT_OK
    _dump(res.to_json(), args.out)
    return EXIT_NEGATIVE


def cmd_path(args):
    g = _graph_from_args(args)
    res = hamilton_path_between(
        g, args.u, args.v, mode=args.mode, budget=args.budget, seed=args.seed
    )
    if res.found:
        _emit(" ".join(map(str, res.path.vertices)) + "\n", args.out)
        return EXIT_OK
    _dump({"stage": res.stage, "stats": res.stats}, args.out)
    return EXIT_NEGATIVE


def cmd_cycle_k(args):
    g = _graph_from_args(args)
    res = cycle_of_length_k(
        g, args.k, t=args.t, seed=args.seed, retries=args.retries, budget=args.budget
    )
    if res.found:
        _emit(" ".join(map(str, res.cycle.vertices)) + "\n", args.out)
        return EXIT_OK
    _dump({"stage": "retries_exhausted", "attempts": res.attempts}, args.out)
    return EXIT_NEGATIVE


def cmd_pivot_audit(args):
    g = _graph_from_args(args)
    if args.spine:
        spine = tuple(int(tok) for tok in args.spine.split(","))
    else:
        spine = tuple(range(g.n))
    h = SpannedGraph(g, spine)
    audit = classify_pivots(h, args.ratio, budget=args.budget)
    if audit.cut:
        detail = f"the budget stopped {len(audit.cut)} pivot closures below the threshold"
        _dump({"error": "work budget exceeded", "detail": detail}, args.out)
        return EXIT_INDETERMINATE
    cert = process_bad_vertices(h, audit)
    payload = audit.to_json()
    payload["certificate"] = cert.to_json()
    _dump(payload, args.out)
    return EXIT_OK


def _sweep_point(config):
    n, p, trials, seed, budget, mode, pi = config
    stats = gnp_trials(n, p, trials, seed=f"{seed}:{pi}", budget=budget, mode=mode)
    agg = stats.aggregate()
    agg["p"] = p
    rows = [
        f"{rec.trial},{rec.seed},{rec.n},{rec.p},{int(rec.success)},"
        f"{rec.rotations},{0.0:.3f}"  # wall time excluded: byte-stable output
        for rec in stats.trials
    ]
    return rows, agg


def cmd_sweep(args):
    if args.steps < 1:
        raise UsageError("--steps must be positive")
    if args.steps == 1:
        grid = [args.pmin]
    else:
        step = (args.pmax - args.pmin) / (args.steps - 1)
        grid = [args.pmin + i * step for i in range(args.steps)]
    configs = [
        (args.n, p, args.trials, args.seed, args.budget, args.mode, pi)
        for pi, p in enumerate(grid)
    ]
    if args.jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(min(args.jobs, len(configs))) as pool:
            results = pool.map(_sweep_point, configs)
    else:
        results = [_sweep_point(c) for c in configs]
    rows = ["trial,seed,n,p,success,rotations,ms"]
    aggregates = []
    for point_rows, agg in results:  # grid order regardless of completion order
        rows.extend(point_rows)
        aggregates.append(agg)
    _emit("\n".join(rows) + "\n", args.out)
    _dump({"aggregates": aggregates}, None)
    return EXIT_OK


def cmd_fconn_pipeline(args):
    g = _graph_from_args(args)
    res = fconnected_pipeline(
        g, FConnSpec.preset(args.preset), budget=args.budget, seed=args.seed
    )
    _dump(res.to_json(), args.out)
    if res.search.found:
        return EXIT_OK
    return EXIT_NEGATIVE


COMMANDS = {
    "gen": cmd_gen,
    "check": cmd_check,
    "hamilton": cmd_hamilton,
    "path": cmd_path,
    "cycle-k": cmd_cycle_k,
    "pivot-audit": cmd_pivot_audit,
    "sweep": cmd_sweep,
    "fconn-pipeline": cmd_fconn_pipeline,
}


def main(argv=None):
    """Run one invocation and return its exit code.

    The parser is built once per process (`build_parser` is cached), so
    repeated in-process calls pay only for parsing their own argv.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        if args.config:
            save_to = args.save_config
            argv = _load_config(args.config)
            args = parser.parse_args(argv)
            args.save_config = save_to or args.save_config
        if args.subcommand is None:
            raise UsageError("a subcommand is required")
        if args.save_config:
            stripped = []
            it = iter(argv)
            for tok in it:
                if tok == "--save-config":
                    next(it, None)
                    continue
                if tok.startswith("--save-config="):
                    continue
                stripped.append(tok)
            _save_config(args.save_config, stripped)
        return COMMANDS[args.subcommand](args)
    except SystemExit as exc:  # --help and --version print, then exit with 0
        return exc.code
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except WorkBudgetExceeded as exc:
        sys.stderr.write(f"work budget exceeded: {exc}\n")
        return EXIT_INDETERMINATE
    except MemoryError as exc:
        sys.stderr.write(f"out of memory: {exc or 'an allocation failed'}\n")
        return EXIT_INDETERMINATE
    except AssertionError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

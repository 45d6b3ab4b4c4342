"""Command-line harness: exit codes, determinism, golden replays."""

import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import hamlab
from hamlab import cli, closing
from hamlab.cli import (
    EXIT_INDETERMINATE,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from hamlab.conditions import is_separation, work_budget
from hamlab.graph import Verdict, cycle_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gen_deterministic(capsys):
    code, out1 = run(capsys, "gen", "--family", "gnp", "--n", "60", "--p", "0.1", "--seed", "7")
    assert code == EXIT_OK
    header = out1.splitlines()[0].split()
    assert header[0] == "60"
    code, out2 = run(capsys, "gen", "--family", "gnp", "--n", "60", "--p", "0.1", "--seed", "7")
    assert out1 == out2
    code, out3 = run(capsys, "gen", "--family", "gnp", "--n", "60", "--p", "0.1", "--seed", "8")
    assert out1 != out3


def test_gen_usage_error(capsys):
    assert main(["gen", "--family", "cycle", "--n", "2"]) == EXIT_USAGE
    # missing required graph source
    assert main(["check", "--joined", "--s", "2"]) == EXIT_USAGE


def test_check_exit_codes(capsys):
    code, out = run(
        capsys, "check", "--joined", "--s", "2",
        "--family", "clique_plus_isolated", "--clique", "5", "--isolated", "1",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "holds" and payload["schema"] == 1

    code, out = run(
        capsys, "check", "--expansion", "--s", "2", "--expand-d", "2",
        "--family", "cycle", "--n", "6",
    )
    assert code == EXIT_NEGATIVE
    payload = json.loads(out)
    assert payload["verdict"] == "fails" and payload["witness"]["S"]

    code, out = run(
        capsys, "check", "--fconn", "--preset", "klogk", "--family", "cycle", "--n", "10",
    )
    assert code == EXIT_NEGATIVE

    code, out = run(
        capsys, "check", "--joined", "--s", "3", "--mode", "sampled",
        "--family", "complete", "--n", "12",
    )
    assert code == EXIT_INDETERMINATE


def test_hamilton_cycle_line(capsys):
    code, out = run(capsys, "hamilton", "--family", "complete", "--n", "25", "--seed", "3")
    assert code == EXIT_OK
    assert len(out.strip().split()) == 25

    code, out = run(
        capsys, "hamilton", "--family", "petersen", "--budget", "5000", "--seed", "0"
    )
    assert code == EXIT_NEGATIVE
    payload = json.loads(out)
    assert "stage" in payload and "stats" in payload

    # proof-faithful failures carry the first unmet pipeline stage
    code, out = run(
        capsys, "hamilton", "--family", "petersen", "--mode", "proof_faithful",
        "--budget", "3000", "--seed", "0",
    )
    assert code == EXIT_NEGATIVE
    payload = json.loads(out)
    assert payload["stage"]

    code, out = run(
        capsys, "hamilton", "--family", "complete", "--n", "10", "--format", "json"
    )
    assert code == EXIT_OK
    assert len(json.loads(out)["cycle"]) == 10


def test_path_subcommand(capsys):
    code, out = run(
        capsys, "path", "--family", "complete", "--n", "8", "--u", "2", "--v", "5"
    )
    assert code == EXIT_OK
    seq = [int(t) for t in out.split()]
    assert len(seq) == 8 and {seq[0], seq[-1]} == {2, 5}


def test_cycle_k_subcommand(capsys):
    code, out = run(
        capsys, "cycle-k", "--family", "complete", "--n", "12", "--k", "7", "--seed", "1"
    )
    assert code == EXIT_OK
    assert len(out.split()) == 7
    for flag, value, message in (
        ("--t", "0", "need t >= 1"),
        ("--t", "-3", "need t >= 1"),
        ("--retries", "-3", "need retries >= 0"),
    ):
        argv = ["cycle-k", "--family", "complete", "--n", "12", "--k", "7", flag, value]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


def test_pivot_audit_subcommand(capsys):
    code, out = run(capsys, "pivot-audit", "--family", "complete", "--n", "8")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["l"] == 8
    assert payload["bad"] == []
    assert payload["certificate"]["U"] == []

    code, out = run(capsys, "pivot-audit", "--family", "path", "--n", "50")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["bad"]) == 48
    cert = payload["certificate"]
    assert 7 * len(cert["U"]) >= len(cert["X"])


def test_budget_cut_pivot_audit_is_indeterminate(capsys):
    # with the default budget all 98 pivots of K_100 are good; at budget 1
    # every closure stops below the threshold, which decides none of them
    code, out = run(capsys, "pivot-audit", "--family", "complete", "--n", "100")
    assert code == EXIT_OK and len(json.loads(out)["good"]) == 98
    code, out = run(
        capsys, "pivot-audit", "--family", "complete", "--n", "100", "--budget", "1"
    )
    assert code == EXIT_INDETERMINATE
    payload = json.loads(out)
    assert payload["error"] == "work budget exceeded"
    assert payload["detail"] == "the budget stopped 98 pivot closures below the threshold"
    assert "certificate" not in payload


def test_sampled_checks_follow_the_seed(tmp_path, capsys):
    edges = tmp_path / "gnp40.txt"
    assert main(["gen", "--family", "gnp", "--n", "40", "--p", "0.15",
                 "--out", str(edges)]) == EXIT_OK
    for flags in (["--joined", "--s", "8"], ["--expansion", "--s", "3"]):
        argv = ["check", "--in", str(edges), *flags, "--mode", "sampled"]
        unseeded = run(capsys, *argv)
        outputs = {seed: run(capsys, *argv, "--seed", str(seed)) for seed in range(4)}
        assert outputs[0] == unseeded
        assert len({out for _, out in outputs.values()}) > 1


def test_sampled_conditions_follow_the_seed(tmp_path, capsys):
    edges = tmp_path / "gnp40.txt"
    assert main(["gen", "--family", "gnp", "--n", "40", "--p", "0.15",
                 "--out", str(edges)]) == EXIT_OK
    argv = ["check", "--in", str(edges), "--conditions", "--d", "2", "--mode", "sampled"]
    unseeded = run(capsys, *argv)
    outputs = {seed: run(capsys, *argv, "--seed", str(seed)) for seed in range(3)}
    assert outputs[0] == unseeded
    witnesses = {json.dumps(json.loads(out)["witness"]) for _, out in outputs.values()}
    assert len(witnesses) > 1


def test_negative_counts_are_usage_errors(capsys):
    for argv, message in (
        (["sweep", "--n", "20", "--pmin", "0.3", "--pmax", "0.5", "--steps", "2",
          "--trials", "-2"], "need trials >= 0"),
        (["pivot-audit", "--family", "path", "--n", "12", "--budget", "-1"],
         "need budget >= 1"),
        (["pivot-audit", "--family", "path", "--n", "12", "--budget", "0"],
         "need budget >= 1"),
    ):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


def test_sweep_rows_and_determinism(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    args = [
        "sweep", "--n", "120", "--pmin", "0.02", "--pmax", "0.08", "--steps", "3",
        "--trials", "4", "--seed", "5", "--out", str(out_csv),
    ]
    code = main(args)
    agg1 = capsys.readouterr().out
    assert code == EXIT_OK
    text1 = out_csv.read_text()
    assert len(text1.strip().splitlines()) == 1 + 3 * 4  # header + rows

    code = main(args)
    agg2 = capsys.readouterr().out
    text2 = out_csv.read_text()
    assert text1 == text2 and agg1 == agg2

    rates = [a["success_rate"] for a in json.loads(agg1)["aggregates"]]
    assert all(b >= a - 0.15 for a, b in zip(rates, rates[1:]))  # monotone sanity


def test_fconn_pipeline_subcommand(capsys):
    code, out = run(
        capsys, "fconn-pipeline", "--family", "cycle", "--n", "10", "--seed", "2"
    )
    assert code == EXIT_OK  # the 10-cycle is found even though the premise fails
    payload = json.loads(out)
    assert payload["report"]["params"]["premise"] == "fails"
    assert payload["search"]["cycle"]


def test_fconn_quadratic_preset(capsys):
    code, out = run(
        capsys, "check", "--fconn", "--preset", "quadratic", "--family", "complete", "--n", "6"
    )
    assert code == EXIT_OK and json.loads(out)["verdict"] == "holds"
    code, out = run(
        capsys, "check", "--fconn", "--preset", "quadratic", "--family", "cycle", "--n", "8"
    )
    assert code == EXIT_NEGATIVE
    witness = json.loads(out)["witness"]
    assert is_separation(cycle_graph(8), witness["A"], witness["B"])
    code, out = run(
        capsys, "fconn-pipeline", "--preset", "quadratic", "--family", "complete", "--n", "6",
        "--seed", "1",
    )
    assert code == EXIT_OK
    report = json.loads(out)["report"]
    assert report["params"]["f"] == "quadratic" and report["verdict"] == "holds"


def test_conditions_joined_subcheck(capsys):
    # at d = 1e9 and n = 300 the P1pP2p joined threshold n ln d / (1035 ln n)
    # is 1.05, so the joined sub-check runs with s = 2; expansion is vacuous
    argv = ["check", "--conditions", "--variant", "P1pP2p", "--d", "1000000000"]
    code, out = run(
        capsys, *argv, "--family", "clique_plus_isolated", "--clique", "298", "--isolated", "2"
    )
    assert code == EXIT_NEGATIVE
    payload = json.loads(out)
    assert payload["verdict"] == "fails" and payload["params"]["vacuous"] == ["expansion"]
    assert payload["params"]["sub"]["joined"] == "fails"
    assert payload["witness"] == {"A": [0, 1], "B": [298, 299]}
    code, out = run(capsys, *argv, "--family", "complete", "--n", "300")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "holds" and payload["work"] == 44850  # C(300, 2)


def test_golden_replay(tmp_path, capsys):
    # three pinned configs replayed twice must produce identical bytes
    configs = [
        ["gen", "--family", "gnp", "--n", "40", "--p", "0.2", "--seed", "11"],
        ["check", "--conditions", "--variant", "P1pP2p", "--family", "complete", "--n", "30"],
        ["hamilton", "--family", "complete", "--n", "12", "--seed", "4"],
    ]
    for argv in configs:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert (code1, out1) == (code2, out2)


def test_saved_config_replays_identically(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    argv = ["--save-config", str(cfg), "gen", "--family", "gnp", "--n", "25",
            "--p", "0.3", "--seed", "9"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    assert code1 == EXIT_OK and cfg.exists()
    code2 = main(["--config", str(cfg)])
    out2 = capsys.readouterr().out
    assert (code1, out1) == (code2, out2)
    # a replay can itself be saved: the replayed argv goes to the new file
    again = tmp_path / "again.json"
    code3 = main(["--config", str(cfg), "--save-config", str(again)])
    assert (code3, capsys.readouterr().out) == (code1, out1)
    assert again.read_text() == cfg.read_text()


def test_version_and_help_return_zero(capsys):
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out == f"{hamlab.__version__}\n"
    for argv in (["--help"], ["hamilton", "--help"]):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: hamlab")


def test_malformed_config_is_a_usage_error(tmp_path, capsys):
    payloads = [
        [1, "gen"],  # not an object
        {"schema": 1},  # no argv
        {"schema": 1, "argv": "gen --family petersen"},  # argv not a list
        {"schema": 1, "argv": []},  # no subcommand
    ]
    for i, payload in enumerate(payloads):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps(payload))
        assert main(["--config", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")


def test_gnp_props_follows_mode(capsys):
    graph = ["--family", "gnp", "--n", "30", "--p", "0.3", "--seed", "3"]
    for mode in ("exact", "sampled"):
        code, out = run(capsys, "check", "--gnp-props", "--mode", mode, *graph)
        assert json.loads(out)["params"]["mode3"] == mode


def test_sweep_starts_no_more_workers_than_points(capsys, monkeypatch):
    import multiprocessing

    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    argv = ["sweep", "--n", "40", "--pmin", "0.2", "--pmax", "0.3", "--steps", "2",
            "--trials", "2", "--seed", "1"]
    outputs = []
    for jobs in ("1", "8", "2"):
        assert main(argv + ["--jobs", jobs]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert started == [2, 2]
    assert outputs[0] == outputs[1] == outputs[2]


def test_edge_list_file_round_trip(tmp_path, capsys):
    target = tmp_path / "g.edges"
    code = main(
        ["gen", "--family", "gnp", "--n", "30", "--p", "0.2", "--seed", "2",
         "--out", str(target)]
    )
    assert code == EXIT_OK
    code, out = run(capsys, "hamilton", "--in", str(target), "--seed", "1")
    assert code in (EXIT_OK, EXIT_NEGATIVE)


def test_env_work_budget(capsys, monkeypatch):
    monkeypatch.setenv("HAMLAB_WORK_BUDGET", "10")
    code, out = run(
        capsys, "check", "--expansion", "--s", "3", "--expand-d", "2",
        "--family", "complete", "--n", "30",
    )
    assert code == EXIT_INDETERMINATE
    payload = json.loads(out)
    assert "error" in payload


def test_gen_random_regular_stops_at_the_work_budget(monkeypatch):
    # a subprocess, so that a rejection loop without a bound fails the test
    # by its timeout instead of hanging the suite
    monkeypatch.setenv("HAMLAB_WORK_BUDGET", "100000")
    src = str(pathlib.Path(hamlab.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hamlab.cli", "gen", "--family", "random_regular",
         "--n", "40", "--d", "9"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_INDETERMINATE
    assert proc.stdout == ""
    assert "work budget exceeded: random_regular(40, 9)" in proc.stderr


def test_env_work_budget_reaches_the_builder_and_the_check(capsys, monkeypatch):
    argv = ("check", "--expansion", "--s", "3", "--expand-d", "2", "--family", "complete",
            "--n", "30")
    # complete(30) has 435 edges; the check then needs 30 + 435 + 4060 subsets
    for budget, what in (("434", "complete(30): 435 edges"), ("435", "exact expansion")):
        monkeypatch.setenv("HAMLAB_WORK_BUDGET", budget)
        code, out = run(capsys, *argv)
        assert code == EXIT_INDETERMINATE
        assert what in json.loads(out)["detail"]


def _gen_child(args, limit_bytes=None):
    """Run `hamlab gen` in a child process at the default work budget, with
    its address space capped at `limit_bytes` when given."""
    src = str(pathlib.Path(hamlab.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "HAMLAB_WORK_BUDGET"}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return subprocess.run(
        [sys.executable, "-m", "hamlab.cli", "gen", *args],
        env=dict(env, PYTHONPATH=src), capture_output=True, text=True, timeout=20,
        preexec_fn=cap if limit_bytes is not None else None,
    )


def test_gen_gnp_refuses_draws_past_the_work_budget():
    # 60000 * 59999 / 2 draws would run for minutes; the timeout fails a
    # generator that starts drawing
    proc = _gen_child(["--family", "gnp", "--n", "60000", "--p", "0"])
    assert proc.returncode == EXIT_INDETERMINATE
    assert proc.stdout == ""
    assert "work budget exceeded: gnp(60000, 0.0): 1799970000 edge draws" in proc.stderr


def test_gen_complete_refuses_edges_past_the_work_budget():
    # about 2e8 edge tuples would need tens of GB; the cap turns an attempt
    # into a MemoryError in the child instead of exhausting the machine
    proc = _gen_child(["--family", "complete", "--n", "20000"], limit_bytes=1 << 30)
    assert proc.returncode == EXIT_INDETERMINATE
    assert "work budget exceeded: complete(20000): 199990000 edges" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_edge_list_past_the_work_budget_exits_2(tmp_path, capsys, monkeypatch):
    target = tmp_path / "g.edges"
    assert main(["gen", "--family", "complete", "--n", "10", "--out", str(target)]) == EXIT_OK
    monkeypatch.setenv("HAMLAB_WORK_BUDGET", "44")
    assert main(["hamilton", "--in", str(target)]) == EXIT_INDETERMINATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("work budget exceeded: edge list with header 10 45")


def test_negative_part_sizes_and_budgets_are_usage_errors(capsys):
    for argv in (
        ["gen", "--family", "complete_bipartite", "--a", "-1", "--b", "3"],
        ["gen", "--family", "clique_plus_isolated", "--clique", "-2", "--isolated", "5"],
        ["hamilton", "--family", "cycle", "--n", "5", "--budget", "-5"],
        ["path", "--family", "complete", "--n", "8", "--u", "2", "--v", "5", "--budget", "-1"],
        ["cycle-k", "--family", "complete", "--n", "8", "--k", "5", "--budget", "-1"],
    ):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    # a zero budget still allows the first closing attempt
    code, out = run(capsys, "hamilton", "--family", "cycle", "--n", "5", "--budget", "0")
    assert code == EXIT_OK and out


def test_memory_error_is_a_one_line_exit_2(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "gen", exhausted)
    code = main(["gen", "--family", "complete", "--n", "4"])
    err = capsys.readouterr().err
    assert code == EXIT_INDETERMINATE
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_env_work_budget_float_notation(capsys, monkeypatch):
    # the README writes the default budget as 1e8
    monkeypatch.setenv("HAMLAB_WORK_BUDGET", "1e8")
    assert work_budget() == 10**8
    monkeypatch.setenv("HAMLAB_WORK_BUDGET", "1e1")
    code, out = run(
        capsys, "check", "--expansion", "--s", "3", "--expand-d", "2",
        "--family", "complete", "--n", "30",
    )
    assert code == EXIT_INDETERMINATE
    assert "error" in json.loads(out)


def test_env_work_budget_rejects_bad_values(capsys, monkeypatch):
    for text in ("-1", "-1e3", "2.5", "1e-3", "ten", "nan", "inf", "1e400"):
        monkeypatch.setenv("HAMLAB_WORK_BUDGET", text)
        with pytest.raises(ValueError, match="HAMLAB_WORK_BUDGET"):
            work_budget()
        code = main(
            ["check", "--expansion", "--s", "3", "--expand-d", "2",
             "--family", "complete", "--n", "30"]
        )
        assert code == EXIT_USAGE
        assert "HAMLAB_WORK_BUDGET" in capsys.readouterr().err


def test_check_conditions_on_gnp_with_d(capsys):
    # --d is the condition parameter here; gnp() must not receive it
    code, out = run(
        capsys, "check", "--family", "gnp", "--n", "20", "--p", "0.5", "--d", "3",
        "--conditions",
    )
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INDETERMINATE)
    assert json.loads(out)["params"]["d"] == 3


def test_path_endpoint_out_of_range_is_usage_error(capsys):
    for u, v in (("-1", "2"), ("0", "5")):
        code = main(["path", "--family", "complete", "--n", "5", "--u", u, "--v", v])
        assert code == EXIT_USAGE
        assert "out of range" in capsys.readouterr().err


def test_family_missing_parameter_is_usage_error(capsys):
    assert main(["gen", "--family", "gnp", "--n", "20"]) == EXIT_USAGE
    assert "--p" in capsys.readouterr().err


def test_soundness_failure_is_internal_error(capsys, monkeypatch):
    # a validator that rejects every cycle trips the closer's soundness check
    monkeypatch.setattr(closing, "validate_cycle", lambda g, seq: Verdict(False, "rejected"))
    code = main(["hamilton", "--family", "complete", "--n", "8", "--mode", "heuristic"])
    assert code == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: rejected\n"


def test_cached_parser_keeps_nothing_between_calls(capsys):
    graph = ["--family", "gnp", "--n", "20", "--p", "0.5"]
    calls = [
        ["check", *graph, "--d", "8", "--conditions"],
        ["check", *graph, "--conditions"],  # --d falls back to 12
        ["check", *graph],  # usage error: no checker chosen
        ["gen", *graph],
    ]

    def call(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in calls:
        build_parser.cache_clear()  # a fresh parser, as in a new process
        alone.append(call(argv))
    build_parser.cache_clear()
    in_turn = [call(argv) for argv in calls]
    assert in_turn == alone
    assert [code for code, _, _ in alone] == [EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_OK]
    assert json.loads(alone[0][1])["params"]["d"] == 8
    assert json.loads(alone[1][1])["params"]["d"] == 12

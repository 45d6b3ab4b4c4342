"""Command-line harness: exit codes, determinism, golden replays."""

import json

import pytest

from hamlab.cli import EXIT_INDETERMINATE, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from hamlab.conditions import work_budget


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


def test_family_missing_parameter_is_usage_error(capsys):
    assert main(["gen", "--family", "gnp", "--n", "20"]) == EXIT_USAGE
    assert "--p" in capsys.readouterr().err

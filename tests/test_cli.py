"""The experiment CLI."""

import argparse
import json
import re

import pytest

import repro.cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (["table1"], ["table2"], ["table2", "--model-check"],
                     ["table3"], ["overhead"], ["roam", "--clock", "hw64"],
                     ["flood", "--rate", "1.0"],
                     ["attest", "--scheme", "hmac-sha1"],
                     ["metrics", "--rounds", "3"],
                     ["fleet-bench", "--size", "12", "--workers", "2",
                      "--json"]):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attest", "--scheme", "rot13"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "0.092" in out and "170.907" in out
        assert "754.032" in out   # 512 KB default

    def test_table1_custom_memory(self, capsys):
        assert main(["table1", "--ram-kb", "64"]) == 0
        assert "attestation of 64 KB" in capsys.readouterr().out

    def test_table2_model_check(self, capsys):
        assert main(["table2", "--model-check"]) == 0
        out = capsys.readouterr().out
        assert "delay, reorder, replay" in out

    def test_table2_model_check_strict(self, capsys):
        assert main(["table2", "--model-check", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "unrestricted adversary" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "5528" in out and "116" in out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "6038" in out and "5.76" in out

    def test_attest_round(self, capsys):
        assert main(["attest", "--ram-kb", "8"]) == 0
        out = capsys.readouterr().out
        assert "trusted=True" in out

    def test_flood_quick(self, capsys):
        assert main(["flood", "--rate", "0.2", "--duration", "10",
                     "--ram-kb", "8"]) == 0
        out = capsys.readouterr().out
        assert "ecdsa-secp160r1" in out

    def test_modelcheck_table(self, capsys):
        assert main(["modelcheck"]) == 0
        out = capsys.readouterr().out
        assert "timestamp+monotonic" in out
        # The monotonic row holds every property.
        row = [line for line in out.splitlines()
               if line.startswith("timestamp+monotonic")][0]
        assert "FAILS" not in row

    def test_swatt_topology(self, capsys):
        assert main(["swatt", "--trials", "3",
                     "--iterations", "2000"]) == 0
        out = capsys.readouterr().out
        assert "direct" in out and "wan" in out

    def test_report_aggregation(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "alpha.txt").write_text("table A\n")
        (results / "beta.txt").write_text("table B\n")
        assert main(["report", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert "## alpha" in out and "table B" in out

    def test_report_to_file(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "alpha.txt").write_text("table A\n")
        output = tmp_path / "report.md"
        assert main(["report", "--results-dir", str(results),
                     "--output", str(output)]) == 0
        assert "table A" in output.read_text()

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", "--results-dir",
                     str(tmp_path / "nope")]) == 1

    def test_attest_json(self, capsys):
        import json
        assert main(["attest", "--ram-kb", "8", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdict"]["trusted"] is True
        assert summary["device"]["profile"] == "roam-hardened"
        assert summary["stats"]["accepted"] == 1
        assert 0 < summary["energy"]["consumed_mj"] < 100

    def test_metrics_to_stdout(self, capsys):
        import json
        assert main(["metrics", "--rounds", "1", "--ram-kb", "8"]) == 0
        captured = capsys.readouterr()
        assert "# OK: registry matches ProverStats" in captured.err
        # stdout carries trace JSONL followed by the registry dump.
        assert '"kind": "request-accepted"' in captured.out
        dump_start = captured.out.index('{\n  "metrics"')
        dump = json.loads(captured.out[dump_start:])
        assert dump["schema"] == "repro.obs.registry/v1"

    def test_fleet_bench_json(self, capsys, tmp_path):
        import json
        out = tmp_path / "BENCH_fleet.json"
        assert main(["fleet-bench", "--size", "8", "--ram-kb", "64",
                     "--sweeps", "1", "--workers", "2", "--json",
                     "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.perf.fleet/v1"
        assert report["reports_identical"] is True
        assert report["equivalence"]["identical"] is True
        assert json.loads(out.read_text()) == report

    def test_metrics_to_files(self, tmp_path):
        import json

        from repro.obs import validate_jsonl_trace, validate_registry_dump
        trace = tmp_path / "trace.jsonl"
        registry = tmp_path / "registry.json"
        assert main(["metrics", "--rounds", "2", "--ram-kb", "8",
                     "--trace-out", str(trace),
                     "--registry-out", str(registry)]) == 0
        assert validate_jsonl_trace(trace.read_text()) == []
        assert validate_registry_dump(
            json.loads(registry.read_text())) == []


#: verb -> (harness module whose ``build_report`` it calls, artefact).
BENCH_VERBS = {
    "fleet-bench": ("repro.perf.fleet", "fleet"),
    "incremental-bench": ("repro.perf.incremental", "incremental"),
    "service-bench": ("repro.perf.service", "service"),
    "snapshot-bench": ("repro.perf.snapshot", "snapshot"),
}

#: (verb, failure) pairs; the fleet report has no gate block.
BENCH_CASES = [(verb, failure) for verb in BENCH_VERBS
               for failure in (None, "gate", "equivalence")
               if not (verb == "fleet-bench" and failure == "gate")]


class TestBenchExitCodes:
    """Every ``*-bench`` verb exits 1 when its gate failed or its
    equivalence block is not clean, with and without ``--json``.
    ``build_report`` is replaced by the checked-in artefact (optionally
    with one verdict flipped), so no benchmark actually runs."""

    @pytest.mark.parametrize("json_mode", [False, True],
                             ids=["table", "json"])
    @pytest.mark.parametrize("verb, failure", BENCH_CASES)
    def test_exit_code_follows_the_verdicts(self, verb, failure, json_mode,
                                            monkeypatch, capsys):
        import importlib

        from tests.conftest import REPO
        module, artefact = BENCH_VERBS[verb]
        report = json.loads((REPO / f"BENCH_{artefact}.json").read_text())
        if failure == "gate":
            report["gate"]["passed"] = False
        elif failure == "equivalence":
            report["equivalence"]["identical"] = False
        monkeypatch.setattr(importlib.import_module(module), "build_report",
                            lambda **kwargs: report)
        argv = [verb] + (["--json"] if json_mode else [])
        assert main(argv) == (0 if failure is None else 1)
        out = capsys.readouterr().out
        if json_mode:
            assert json.loads(out) == report
        else:
            assert "equivalence clean" in out


class TestTypedErrors:
    @pytest.mark.parametrize("argv", [
        ["snapshot", "save", "--size", "0", "--out", "unused.json"],
        ["attest", "--ram-kb", "-1"],
        ["fleet-bench", "--size", "0"],
        ["flood", "--rate", "-5"],
    ], ids=["snapshot-save", "attest", "fleet-bench", "flood"])
    def test_bad_value_prints_error_not_traceback(self, argv, capsys,
                                                  tmp_path, monkeypatch):
        """Typed library errors from bad CLI values end as one
        ``error: ...`` line and exit 1."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: "), err
        assert "Traceback" not in err
        assert not (tmp_path / "unused.json").exists()


class TestCountOptions:
    @pytest.mark.parametrize("argv, option", [
        (["fleet-bench", "--sweeps", "0"], "--sweeps must be >= 1"),
        (["fleet-bench", "--sweeps", "-1"], "--sweeps must be >= 1"),
        (["incremental-bench", "--sweeps", "0"], "--sweeps must be >= 1"),
        (["snapshot-bench", "--rounds", "0"], "--rounds must be >= 1"),
        (["snapshot", "save", "--sweeps", "-1", "--out", "unused.json"],
         "--sweeps must be >= 0"),
        (["snapshot", "restore", "unused.json", "--sweeps", "-2"],
         "--sweeps must be >= 0"),
        (["metrics", "--rounds", "-1"], "--rounds must be >= 0"),
        (["flood", "--duration", "-5"], "--duration must be >= 0"),
    ])
    def test_out_of_range_count_is_one_error_line(self, argv, option,
                                                  capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}"), err
        assert err.count("\n") == 1
        assert not (tmp_path / "unused.json").exists()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One fleet checkpoint and one service checkpoint, as written by
    the CLI, read back as JSON."""
    root = tmp_path_factory.mktemp("saved")
    swarm, service = root / "swarm.json", root / "service.json"
    assert main(["snapshot", "save", "--out", str(swarm), "--size", "2",
                 "--sweeps", "0", "--ram-kb", "8"]) == 0
    assert main(["serve", "--devices", "2", "--tenants", "1",
                 "--backends", "1", "--waves", "1",
                 "--snapshot", str(service)]) == 0
    return {"swarm": json.loads(swarm.read_text()),
            "service": json.loads(service.read_text())}


def _drop(field):
    def mutate(meta):
        del meta["spec"][field]
    return mutate


def _set(field, value):
    def mutate(meta):
        meta["spec"][field] = value
    return mutate


def _replace_spec(meta):
    meta["spec"] = "roam-hardened"


class TestMalformedRebuildSpec:
    @pytest.mark.parametrize("kind, argv, mutate, match", [
        ("swarm", ["snapshot", "restore", "{file}"], _drop("ram_kb"),
         "missing field 'ram_kb'"),
        ("swarm", ["snapshot", "restore", "{file}"], _drop("profile"),
         "missing field 'profile'"),
        ("swarm", ["snapshot", "restore", "{file}"], _set("size", "2"),
         "field 'size' must be int"),
        ("swarm", ["snapshot", "restore", "{file}"], _replace_spec,
         "must be an object, got str"),
        ("swarm", ["snapshot", "save", "--parent", "{file}",
                   "--out", "unused.json"], _replace_spec,
         "must be an object, got str"),
        ("service", ["serve", "--restore", "{file}"], _drop("tenants"),
         "missing field 'tenants'"),
    ], ids=["restore-no-ram_kb", "restore-no-profile", "restore-str-size",
            "restore-str-spec", "save-parent-str-spec", "serve-no-tenants"])
    def test_error_line_not_traceback(self, saved, kind, argv, mutate, match,
                                      capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        document = json.loads(json.dumps(saved[kind]))
        mutate(document["meta"])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main([arg.format(file=path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rebuild spec"), err
        assert match in err
        assert "Traceback" not in err
        assert not (tmp_path / "unused.json").exists()


def _drop_sim(session):
    del session["sim"]


def _bad_nonce(session):
    session["anchor"]["nonces"]["order"] = ["zz"]


class TestHostileCheckpoint:
    @pytest.mark.parametrize("mutate", [_drop_sim, _bad_nonce],
                             ids=["no-sim", "nonce-hex"])
    def test_error_line_not_traceback(self, saved, mutate, capsys,
                                      tmp_path):
        """A checkpoint that passes the schema but fails its restore's
        stage ends as one ``error:`` line and exit 1."""
        document = json.loads(json.dumps(saved["swarm"]))
        mutate(document["state"]["members"][1]["session"])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["snapshot", "restore", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: "), err
        assert err.count("\n") == 1
        assert "Traceback" not in err


def _commands(parser, prefix=()):
    """Every command path a parser registers, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + (name,)
                yield from _commands(sub, prefix + (name,))


def test_usage_block_lists_every_subcommand():
    """The module docstring's usage block names every registered
    subcommand, so it cannot drift from ``build_parser``."""
    usage = repro.cli.__doc__
    commands = list(_commands(build_parser()))
    assert ("snapshot", "bisect") in commands     # nested ones walked
    missing = [" ".join(command) for command in commands
               if not re.search(r"python -m repro " + re.escape(
                   " ".join(command)) + r"(\s|$)", usage, re.M)]
    assert missing == []

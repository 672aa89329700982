"""The command-line interface."""

import pytest

from repro.cli import main
from repro.specs import spec_path


class TestListImplementations:
    def test_lists_all(self, capsys):
        assert main(["list-implementations"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 43
        assert "vanillajs" in out
        assert "problems 8" in out


class TestCheck:
    def test_eggtimer_safety_passes(self, capsys):
        code = main(
            [
                "check", spec_path("eggtimer.strom"),
                "--app", "eggtimer",
                "--property", "safety",
                "--tests", "2",
                "--actions", "15",
                "--subscript", "400",
                "--seed", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "safety: PASSED" in out

    def test_todomvc_faulty_implementation_fails(self, capsys):
        code = main(
            [
                "check", spec_path("todomvc.strom"),
                "--app", "todomvc:polymer",
                "--property", "safety",
                "--tests", "6",
                "--actions", "40",
                "--subscript", "40",
                "--seed", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "safety: FAILED" in out
        assert "counterexample" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", spec_path("eggtimer.strom"), "--app", "nope"])

    def test_unknown_property_rejected(self):
        with pytest.raises(KeyError):
            main(
                [
                    "check", spec_path("eggtimer.strom"),
                    "--app", "eggtimer",
                    "--property", "bogus",
                ]
            )


class TestCompileInspect:
    def test_compile_then_inspect(self, capsys, tmp_path):
        import json

        artifact = str(tmp_path / "egg.qsa")
        code = main(
            ["compile", spec_path("eggtimer.strom"), "-o", artifact]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 check(s): safety, liveness, timeUp" in out

        assert main(["inspect", artifact]) == 0
        header = json.loads(capsys.readouterr().out)
        assert {c["name"] for c in header["checks"]} == {
            "safety", "liveness", "timeUp",
        }
        assert header["artifact_version"] >= 1

    def test_compile_default_output_is_qsa_sibling(self, capsys, tmp_path):
        source = open(spec_path("eggtimer.strom")).read()
        spec_file = tmp_path / "egg.strom"
        spec_file.write_text(source)
        assert main(["compile", str(spec_file)]) == 0
        capsys.readouterr()
        assert (tmp_path / "egg.qsa").exists()

    def test_check_accepts_an_artifact(self, capsys, tmp_path):
        artifact = str(tmp_path / "egg.qsa")
        main(["compile", spec_path("eggtimer.strom"), "-o", artifact])
        capsys.readouterr()
        code = main(
            [
                "check", artifact,
                "--app", "eggtimer",
                "--property", "safety",
                "--tests", "2",
                "--actions", "15",
                "--subscript", "400",
                "--seed", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "safety: PASSED" in out

    def test_inspect_rejects_a_non_artifact(self, tmp_path):
        junk = tmp_path / "junk.qsa"
        junk.write_bytes(b"not an artifact")
        with pytest.raises(SystemExit):
            main(["inspect", str(junk)])


class TestMonitorCheckpointCLI:
    # (part-1 shards, part-2 shards): the checkpoint layout is one file
    # per shard at every width, so a restore may change the width.
    @pytest.mark.parametrize("widths", [(1, 1), (2, 1), (1, 2)],
                             ids=["1-1", "2-1", "1-2"])
    def test_split_run_with_restore_matches_full_run(
        self, capsys, tmp_path, widths
    ):
        from repro.monitor.synth import synth_lines

        lines = list(synth_lines(sessions=8, seed=3))
        cut = len(lines) // 2
        for name, chunk in (("full", lines), ("part1", lines[:cut]),
                            ("part2", lines[cut:])):
            (tmp_path / f"{name}.jsonl").write_text(
                "".join(line + "\n" for line in chunk)
            )
        base = ["monitor", spec_path("eggtimer.strom"),
                "--property", "safety", "--format", "json"]
        ckpt = str(tmp_path / "ckpt")

        import json

        def verdict_lines(out):
            records = [json.loads(line) for line in out.splitlines() if line]
            return [r for r in records if r["event"] == "verdict"]

        def end_event(out):
            records = [json.loads(line) for line in out.splitlines() if line]
            return records[-1]

        assert main(base + ["--input", str(tmp_path / "full.jsonl")]) == 0
        full_out = capsys.readouterr().out

        first, second = widths
        assert main(base + ["--input", str(tmp_path / "part1.jsonl"),
                            "--checkpoint", ckpt,
                            "--shards", str(first)]) == 0
        part1_out = capsys.readouterr().out
        assert main(base + ["--input", str(tmp_path / "part2.jsonl"),
                            "--checkpoint", ckpt, "--restore",
                            "--shards", str(second)]) == 0
        part2_out = capsys.readouterr().out
        # The verdicts across the split are the uninterrupted run's
        # (shards interleave their order, never their content); the
        # trailing monitor_end metrics line differs only in
        # restart-sensitive counters (wall clock, cache warmth).
        resumed = verdict_lines(part1_out) + verdict_lines(part2_out)
        assert resumed
        assert (sorted(resumed, key=lambda r: r["session"])
                == sorted(verdict_lines(full_out), key=lambda r: r["session"]))
        full_end = end_event(full_out)["metrics"]
        resumed_end = end_event(part2_out)["metrics"]
        for key in ("records_ingested", "sessions_started",
                    "sessions_finished", "states_applied", "verdicts"):
            assert resumed_end[key] == full_end[key], key

    def test_restore_without_checkpoint_dir_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", spec_path("eggtimer.strom"), "--restore",
                  "--input", "-"])
        assert excinfo.value.code == 2
        assert "--restore requires --checkpoint DIR" in capsys.readouterr().err


class TestMonitorShardedCLI:
    def test_sharded_run_matches_single_process(self, capsys, tmp_path):
        import json

        from repro.monitor.synth import synth_lines

        lines = list(synth_lines(sessions=12, seed=3, fault_rate=0.2))
        stream = tmp_path / "stream.jsonl"
        stream.write_text("".join(line + "\n" for line in lines))
        base = ["monitor", spec_path("eggtimer.strom"),
                "--property", "safety", "--format", "json",
                "--input", str(stream)]

        def split(out):
            records = [json.loads(line) for line in out.splitlines() if line]
            verdicts = sorted(
                (r["session"], r["verdict"], r["forced"], r["disposition"])
                for r in records if r.get("event") == "verdict"
            )
            assert records[-1]["event"] == "monitor_end"
            return verdicts, records[-1]

        assert main(base) == 0
        single_verdicts, single_end = split(capsys.readouterr().out)
        assert main(base + ["--shards", "2"]) == 0
        sharded_verdicts, sharded_end = split(capsys.readouterr().out)
        # Shards interleave the stream order, never the verdict multiset.
        assert sharded_verdicts == single_verdicts
        assert sharded_end["shards"] == 2
        assert len(sharded_end["shard_metrics"]) == 2
        for key in ("records_ingested", "sessions_started", "verdicts"):
            assert sharded_end["metrics"][key] == single_end["metrics"][key]

    def test_shards_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["monitor", spec_path("eggtimer.strom"), "--input", "-",
                  "--shards", "0"])


class TestMonitorConsole:
    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_lone_surrogate_session_id_prints_escaped(
        self, capsys, tmp_path, shards
    ):
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"session": "\\ud800", "end": true}\n'
                          '{"session": "plain", "end": true}\n')
        code = main(["monitor", spec_path("eggtimer.strom"),
                     "--heartbeat", "0", "--input", str(stream),
                     "--shards", shards])
        out = capsys.readouterr().out
        assert code == 0
        assert "session \\ud800: " in out
        assert "session plain: " in out
        assert "monitored 2 session(s)" in out


class TestAudit:
    def test_audit_named_implementations(self, capsys):
        code = main(
            [
                "audit", "vue", "polymer",
                "--subscript", "40",
                "--tests", "6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "vue" in out and "polymer" in out
        assert "2/2 agree" in out

    def test_audit_jobs_spans_campaigns_identically(self, capsys):
        args = ["audit", "vue", "polymer", "mithril",
                "--subscript", "40", "--tests", "4"]
        code_serial = main(args)
        serial_out = capsys.readouterr().out
        code_pooled = main(args + ["--jobs", "3"])
        pooled_out = capsys.readouterr().out
        assert code_serial == code_pooled == 0
        assert serial_out == pooled_out  # verdict-for-verdict identical

    def test_audit_junit_report_file(self, capsys, tmp_path):
        from xml.etree import ElementTree

        report = tmp_path / "audit.xml"
        code = main(
            [
                "audit", "vue", "polymer",
                "--subscript", "40",
                "--tests", "2",
                "--jobs", "2",
                "--format", "junit",
                "--report-file", str(report),
            ]
        )
        assert code == 0
        root = ElementTree.fromstring(report.read_text(encoding="utf-8"))
        suite_names = [s.get("name") for s in root.iter("testsuite")]
        assert suite_names == ["vue", "polymer"]
        assert root.get("failures") == "1"  # polymer's expected failure
        # The console table still goes to stdout alongside the file.
        assert "2/2 agree" in capsys.readouterr().out

    def test_audit_junit_to_stdout_is_pure_xml(self, capsys):
        from xml.etree import ElementTree

        code = main(
            [
                "audit", "vue",
                "--subscript", "40",
                "--tests", "1",
                "--format", "junit",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        root = ElementTree.fromstring(out)
        assert root.tag == "testsuites"

    def test_report_file_requires_junit_format(self, capsys):
        for argv in (["audit", "vue", "--format", "json",
                      "--report-file", "out.json"],
                     ["check", spec_path("eggtimer.strom"), "--app",
                      "eggtimer", "--report-file", "report.xml"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--report-file only applies to --format junit" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "auto"])
    def test_jobs_must_be_a_positive_int(self, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "vue", "--jobs", jobs])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_min_workers_requires_listen(self, capsys):
        """A TCP-only option without ``--listen`` is a usage error, not
        a local run that silently ignores it."""
        for argv in (["audit", "vue", "--tests", "1", "--min-workers", "2"],
                     ["check", spec_path("eggtimer.strom"), "--app",
                      "eggtimer", "--min-workers", "2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--min-workers only applies with --listen" in \
                capsys.readouterr().err

    def test_audit_json_event_stream(self, capsys):
        import json

        code = main(
            [
                "audit", "vue",
                "--subscript", "40",
                "--tests", "1",
                "--format", "json",
            ]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        ]
        assert records[-1]["event"] == "audit_end"
        assert records[-1]["agreeing"] == 1
        pool = records[-1]["pool"]
        assert pool["tasks_total"] == 1
        assert pool["warm_hits"] + pool["cold_starts"] == 1

    def test_audit_no_reuse_matches_default_output(self, capsys):
        args = ["audit", "vue", "polymer", "--subscript", "40", "--tests", "3"]
        code_warm = main(args)
        warm_out = capsys.readouterr().out
        code_cold = main(args + ["--no-reuse"])
        cold_out = capsys.readouterr().out
        assert code_warm == code_cold == 0
        assert warm_out == cold_out  # warm reuse never changes verdicts


class TestTransportOptions:
    """``--listen`` alone makes ``check``/``audit`` a TCP coordinator;
    without it the batch runs locally."""

    COMMANDS = {
        "check": ["check", spec_path("eggtimer.strom"), "--app", "eggtimer"],
        "audit": ["audit", "vue"],
    }

    def run(self, monkeypatch, command, *extra):
        from repro.api import CampaignSetResult, CheckSession, TcpTransport

        seen = {}

        def check_many(self, targets, *, session=None, **_):
            seen["transport"] = session.transport
            seen["remote"] = [target.remote for target in targets]
            return CampaignSetResult()

        close = TcpTransport.close
        closed = []

        def tracked_close(transport):
            closed.append(transport)
            close(transport)

        monkeypatch.setattr(CheckSession, "check_many", check_many)
        monkeypatch.setattr(TcpTransport, "close", tracked_close)
        assert main(self.COMMANDS[command] + list(extra)) == 0
        return seen, closed

    @pytest.mark.parametrize("command", ["check", "audit"])
    def test_listen_builds_a_tcp_coordinator_and_closes_it(
        self, monkeypatch, command
    ):
        from repro.api import TcpTransport

        seen, closed = self.run(monkeypatch, command, "--listen", "127.0.0.1:0")
        transport = seen["transport"]
        assert isinstance(transport, TcpTransport)
        assert closed == [transport]
        assert all(remote is not None for remote in seen["remote"])

    @pytest.mark.parametrize("command", ["check", "audit"])
    def test_without_listen_the_batch_runs_locally(self, monkeypatch, command):
        seen, closed = self.run(monkeypatch, command)
        assert seen["transport"] is None
        assert seen["remote"] == [None] * len(seen["remote"])
        assert closed == []

    @pytest.mark.parametrize("argv", [
        ["audit", "vue", "--transport", "fork"],
        ["check", spec_path("eggtimer.strom"), "--app", "eggtimer",
         "--transport", "tcp"],
        ["worker", "--connect", "127.0.0.1:1", "--slots", "2"],
    ])
    def test_removed_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestUsageErrors:
    """A usage error found after parsing exits 2 like one argparse
    finds itself; an error in the input a flag names exits 1."""

    @pytest.mark.parametrize("argv, message", [
        (["check", spec_path("eggtimer.strom"), "--app", "eggtimer",
          "--listen", "7311"], "needs HOST:PORT, got '7311'"),
        (["audit", "vue", "--listen", "127.0.0.1:http"],
         "port must be an integer, got 'http'"),
        (["monitor", spec_path("eggtimer.strom"), "--listen",
          "127.0.0.1:70000"], "port out of range: 70000"),
        (["worker", "--connect", ":7311"], "needs HOST:PORT, got ':7311'"),
    ], ids=["check-listen", "audit-listen", "monitor-listen", "connect"])
    def test_malformed_address_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("app", ["nope", "todomvc:nope"])
    def test_unknown_app_exits_2(self, app, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", spec_path("eggtimer.strom"), "--app", app])
        assert excinfo.value.code == 2
        assert f"unknown app {app!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--idle-ttl", "0", "must be positive, got 0"),
        ("--idle-ttl", "-1", "must be positive, got -1"),
        ("--checkpoint-period", "0", "must be positive, got 0"),
        ("--checkpoint-period", "-1", "must be positive, got -1"),
        ("--heartbeat", "-1", "must be positive, or 0 to disable, got -1"),
    ])
    def test_non_positive_monitor_period_exits_2(
        self, flag, value, message, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", spec_path("eggtimer.strom"), "--input", "-",
                  flag, value])
        assert excinfo.value.code == 2
        assert f"{flag}: {message}" in capsys.readouterr().err

    def test_removed_batch_size_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", spec_path("eggtimer.strom"), "--input", "-",
                  "--batch-size", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --batch-size" in \
            capsys.readouterr().err

    def test_a_spec_without_checks_exits_1(self, tmp_path):
        spec = tmp_path / "empty.strom"
        spec.write_text("let ~x = 1;\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", str(spec), "--input", "-"])
        # A message, not a number: the interpreter exits 1.
        assert "defines no check properties" in str(excinfo.value.code)

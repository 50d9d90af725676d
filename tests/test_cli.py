"""CLI tests."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments_and_approaches(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table6" in out
        assert "fig15" in out
        assert "Greedy" in out
        assert "DFS" in out


class TestGenerateAndSolve:
    def test_generate_synthetic(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        code = main([
            "generate", "synthetic", "--out", str(path),
            "--workers", "15", "--tasks", "20", "--seed", "3",
        ])
        assert code == 0
        data = json.loads(path.read_text())
        assert len(data["workers"]) == 15
        assert len(data["tasks"]) == 20
        assert "wrote" in capsys.readouterr().out

    def test_generate_meetup(self, tmp_path):
        path = tmp_path / "m.json"
        assert main([
            "generate", "meetup", "--out", str(path),
            "--workers", "30", "--tasks", "12", "--seed", "3",
        ]) == 0
        data = json.loads(path.read_text())
        assert len(data["workers"]) == 30

    def test_solve_single_batch(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        main(["generate", "synthetic", "--out", str(path),
              "--workers", "15", "--tasks", "20", "--seed", "3"])
        assert main(["solve", str(path), "--approach", "Greedy"]) == 0
        out = capsys.readouterr().out
        assert "Greedy: score=" in out

    def test_solve_platform_mode(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        main(["generate", "synthetic", "--out", str(path),
              "--workers", "15", "--tasks", "20", "--seed", "3"])
        assert main(["solve", str(path), "--approach", "Random",
                     "--batch-interval", "5"]) == 0
        assert "score=" in capsys.readouterr().out


class TestRun:
    def test_run_writes_table(self, tmp_path, capsys):
        out_file = tmp_path / "t.txt"
        assert main(["run", "table6", "--scale", "0.3", "--seed", "3",
                     "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "assignment score" in text
        assert "DFS" in text
        assert text in capsys.readouterr().out

    def test_run_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_run_plot_and_csv(self, tmp_path, capsys):
        csv_file = tmp_path / "t.csv"
        assert main(["run", "table6", "--scale", "0.3", "--seed", "3",
                     "--plot", "--csv", str(csv_file)]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        text = csv_file.read_text()
        assert text.startswith("experiment,parameter,label,approach")
        assert "DFS" in text


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["list", "run", "generate", "lint", "solve", "explain", "report"]
    )
    def test_every_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "usage: dasc" in capsys.readouterr().out

    def test_approach_help_lists_game_percent(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        assert "Game-5%" in capsys.readouterr().out


class TestLoadErrors:
    """Unloadable inputs print one ``error: <path>: <message>`` line, exit 2."""

    def _instance(self, tmp_path, capsys, edit):
        path = tmp_path / "inst.json"
        main(["generate", "synthetic", "--out", str(path),
              "--workers", "4", "--tasks", "3", "--seed", "3"])
        capsys.readouterr()
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        return path

    @staticmethod
    def _cycle(data):
        first, second = data["tasks"][0], data["tasks"][1]
        first["dependencies"] = [second["id"]]
        second["dependencies"] = [first["id"]]

    @pytest.mark.parametrize("command", ["lint", "solve"])
    def test_dependency_cycle(self, tmp_path, capsys, command):
        path = self._instance(tmp_path, capsys, self._cycle)
        assert main([command, str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: {path}: dependency cycle detected: ")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("command", ["lint", "solve"])
    def test_missing_key(self, tmp_path, capsys, command):
        path = self._instance(
            tmp_path, capsys, lambda data: data["workers"][2].pop("skills")
        )
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().out == (
            f"error: {path}: workers[2]: missing required key 'skills'\n"
        )

    @pytest.mark.parametrize("command", ["lint", "solve"])
    def test_unknown_metric(self, tmp_path, capsys, command):
        path = self._instance(
            tmp_path, capsys, lambda data: data.update(metric="roadnet")
        )
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().out == (
            f"error: {path}: unknown distance metric 'roadnet'; expected one of "
            "['euclidean', 'haversine', 'manhattan']\n"
        )

    @pytest.mark.parametrize("command", ["lint", "solve"])
    def test_missing_file(self, tmp_path, capsys, command):
        path = tmp_path / "missing.json"
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().out == (
            f"error: {path}: No such file or directory\n"
        )

    def test_explain_malformed_events(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text("{not json\n")
        assert main(["explain", str(path)]) == 2
        assert capsys.readouterr().out.startswith(f"error: {path}: ")


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["solve", "instance.json"], "--batch-interval", "0"),
            (["solve", "instance.json"], "--batch-interval", "-3"),
            (["solve", "instance.json"], "--batch-interval", "nan"),
            (["run", "fig7"], "--scale", "0"),
            (["run", "fig7"], "--scale", "-1"),
            (["run", "fig7"], "--scale", "nan"),
        ],
    )
    def test_float_options_must_be_positive(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(command + [flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [
            f"dasc {command[0]}: error: argument {flag}: must be > 0, got {value}"
        ]

    @pytest.mark.parametrize("value", ["inf", "Infinity"])
    def test_scale_must_be_finite(self, capsys, value):
        # An infinite scale used to crash the experiment runner with a NaN.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig7", "--scale", value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [
            f"dasc run: error: argument --scale: must be finite, got {value}"
        ]

    def test_float_options_reject_non_numbers(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig7", "--scale", "half"])
        assert exit_info.value.code == 2
        assert "invalid float value: 'half'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--shards", "2"), ("--shard-scheme", "kd")]
    )
    def test_sharding_flags_are_gone(self, capsys, flag, value):
        # Every batch runs on one engine; a stale sharding flag is an
        # error, not silently ignored.
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "instance.json", "--batch-interval", "5", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {flag} {value}" in captured.err


class TestFlightRecorder:
    def _instance(self, tmp_path):
        path = tmp_path / "inst.json"
        main(["generate", "synthetic", "--out", str(path),
              "--workers", "25", "--tasks", "30", "--seed", "3"])
        return str(path)

    def test_solve_events_out_and_replay_check(self, tmp_path, capsys):
        from repro.obs import read_jsonl, validate_events_records

        inst = self._instance(tmp_path)
        events = tmp_path / "ev.jsonl"
        assert main(["solve", inst, "--approach", "Greedy",
                     "--batch-interval", "5", "--events-out", str(events),
                     "--replay-check"]) == 0
        out = capsys.readouterr().out
        assert "replay check: OK" in out
        assert "events ->" in out
        records = read_jsonl(str(events))
        validate_events_records(records)
        assert records[1]["type"] == "run_open"

    def test_infinite_interval_writes_standard_json(self, tmp_path, capsys):
        import json

        from repro.obs import read_jsonl, validate_events_records

        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        inst = self._instance(tmp_path)
        events = tmp_path / "ev.jsonl"
        assert main(["solve", inst, "--approach", "Greedy",
                     "--batch-interval", "inf", "--events-out", str(events),
                     "--replay-check"]) == 0
        assert "replay check: OK" in capsys.readouterr().out
        lines = events.read_text(encoding="utf-8").splitlines()
        assert all(json.loads(line, parse_constant=no_constants) for line in lines)
        records = read_jsonl(str(events))
        validate_events_records(records)
        assert records[1]["type"] == "run_open"
        assert records[1]["batch_interval"] is None

    def test_replay_check_requires_platform_mode(self, tmp_path, capsys):
        inst = self._instance(tmp_path)
        assert main(["solve", inst, "--replay-check"]) == 2
        assert "--batch-interval" in capsys.readouterr().out

    def test_single_batch_events_out(self, tmp_path):
        from repro.obs import read_jsonl, validate_events_records

        inst = self._instance(tmp_path)
        events = tmp_path / "ev.jsonl"
        assert main(["solve", inst, "--approach", "Greedy",
                     "--events-out", str(events)]) == 0
        records = read_jsonl(str(events))
        validate_events_records(records)
        # A standalone single batch journals its one-shot engine's build.
        builds = [r for r in records if r.get("type") == "feas_build"]
        assert [r["mode"] for r in builds] == ["full"]

    def test_explain_single_batch_events_names_the_cause(self, tmp_path, capsys):
        inst = self._instance(tmp_path)
        events = tmp_path / "ev.jsonl"
        assert main(["solve", inst, "--approach", "Game",
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        assert main(["explain", str(events)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: no run_open event found: the file's ")
        assert "standalone single-batch solve" in out
        assert "rerun the solve with --batch-interval" in out

    def test_explain_summary_and_queries(self, tmp_path, capsys):
        inst = self._instance(tmp_path)
        events = tmp_path / "ev.jsonl"
        main(["solve", inst, "--approach", "Greedy", "--batch-interval", "5",
              "--events-out", str(events)])
        capsys.readouterr()
        assert main(["explain", str(events)]) == 0
        out = capsys.readouterr().out
        assert "Greedy" in out and "events:" in out
        assert main(["explain", str(events), "--why-not", "0", "0",
                     "--funnel", "1", "--replay"]) == 0
        out = capsys.readouterr().out
        assert "worker 0 / task 0" in out or "WAS assigned" in out
        assert "funnel" in out and "replayed:" in out

    def test_report_text_and_html(self, tmp_path, capsys):
        inst = self._instance(tmp_path)
        events = tmp_path / "ev.jsonl"
        trace = tmp_path / "tr.jsonl"
        metrics = tmp_path / "me.jsonl"
        main(["solve", inst, "--approach", "Greedy", "--batch-interval", "5",
              "--events-out", str(events), "--trace-out", str(trace),
              "--metrics-out", str(metrics)])
        capsys.readouterr()
        assert main(["report", "--events", str(events), "--trace", str(trace),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "Run: Greedy" in out and "Hottest spans" in out and "Metrics" in out
        html_path = tmp_path / "rep.html"
        assert main(["report", "--events", str(events),
                     "--html", str(html_path)]) == 0
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_generate_and_lint_obs_flags(self, tmp_path, capsys):
        from repro.obs import read_jsonl, validate_trace_records

        path = tmp_path / "inst.json"
        trace = tmp_path / "gen.jsonl"
        assert main(["generate", "synthetic", "--out", str(path),
                     "--workers", "15", "--tasks", "20", "--seed", "3",
                     "--profile", "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-phase latency" in out and "generate.build" in out
        validate_trace_records(read_jsonl(str(trace)))
        lint_trace = tmp_path / "lint.jsonl"
        main(["lint", str(path), "--profile", "--trace-out", str(lint_trace)])
        out = capsys.readouterr().out
        assert "lint.check" in out
        validate_trace_records(read_jsonl(str(lint_trace)))

    def test_run_events_out(self, tmp_path, capsys):
        from repro.explain import split_runs
        from repro.obs import read_jsonl, validate_events_records

        events = tmp_path / "run_ev.jsonl"
        assert main(["run", "table6", "--scale", "0.3", "--seed", "3",
                     "--events-out", str(events)]) == 0
        records = read_jsonl(str(events))
        validate_events_records(records)
        # table6 is a single-batch experiment: its events come from the
        # standalone checker (no platform run_open), so split_runs finds no
        # replayable runs but the journal itself is complete and valid.
        assert any(r.get("type") == "feas_build" for r in records)
        assert split_runs(records) == []

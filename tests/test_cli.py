"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, parse_app_input


class TestParseAppInput:
    @pytest.mark.parametrize(
        "app,label,expected",
        [
            ("circuit", "n50w200", {"nodes": 50, "wires": 200}),
            ("stencil", "1000x500", {"nx": 1000, "ny": 500}),
            ("pennant", "320x90", {"zx": 320, "zy": 90}),
            ("htr", "8x8y9z", {"x": 8, "y": 8, "z": 9}),
            ("maestro", "16x32", {"lf_count": 16, "lf_res": 32}),
        ],
    )
    def test_labels(self, app, label, expected):
        assert parse_app_input(app, label) == expected

    def test_none_keeps_defaults(self):
        assert parse_app_input("pennant", None) == {}

    def test_bad_label_exits(self):
        with pytest.raises(SystemExit):
            parse_app_input("htr", "320x90")


class TestParser:
    def test_tune_defaults(self):
        args = build_parser().parse_args(
            ["tune", "--app", "stencil"]
        )
        assert args.algorithm == "ccd"
        assert args.machine == "shepard"
        assert args.nodes == 1

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--app", "linpack"])

    def test_serve_requires_root(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--root", "state"])
        assert args.host == "127.0.0.1"
        assert args.port == 8432

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "--app", "stencil"])
        assert args.url == "http://127.0.0.1:8432"
        assert args.algorithm == "ccd"
        assert not args.wait
        assert args.checkpoint_every == 10

    def test_submit_execution_flags(self):
        args = build_parser().parse_args(
            [
                "submit",
                "--app",
                "stencil",
                "--no-incremental",
                "--wait",
            ]
        )
        assert args.no_incremental
        assert args.wait

    def test_fuzz_accepts_incremental_invariant(self):
        args = build_parser().parse_args(
            ["fuzz", "--invariant", "incremental"]
        )
        assert args.invariant == ["incremental"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["tune", "--app", "stencil", "--workers", "2"],
            ["tune", "--app", "stencil", "--worker-timeout", "5"],
            ["submit", "--app", "stencil", "--workers", "2"],
            ["fuzz", "--invariant", "parallel"],
        ],
    )
    def test_removed_options_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "shepard" in out and "lassen" in out

    def test_inspect(self, capsys):
        code = main(
            ["inspect", "--app", "circuit", "--input", "n50w200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 tasks, 15 collection arguments" in out
        assert "default mapping" in out

    def test_tune_small(self, capsys, tmp_path):
        code = main(
            [
                "tune",
                "--app",
                "stencil",
                "--input",
                "500x500",
                "--max-suggestions",
                "300",
                "--workdir",
                str(tmp_path / "w"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert (tmp_path / "w" / "report.txt").exists()
        # A workdir always gets telemetry; a trace only with --trace.
        assert (tmp_path / "w" / "telemetry.jsonl").exists()
        assert not (tmp_path / "w" / "trace.json").exists()

    def test_no_spill_tune_survives_an_overflowing_default(self, capsys):
        """Pennant's Figure 8 point overflows the framebuffer under the
        default mapping: with spill off there is no baseline, but the
        tune still runs."""
        code = main(
            [
                "tune",
                "--app",
                "pennant",
                "--input",
                "320x66151",
                "--gen-param",
                "iterations=1",
                "--no-spill",
                "--max-suggestions",
                "120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert (
            "default mapper: out of memory (mapping exceeds memory "
            "capacity: n0.fb0 needs 17.1 GiB of 16.0 GiB); no speedup"
        ) in out
        assert "best mean time" in out

    def test_tune_with_trace_and_trace_subcommand(self, capsys, tmp_path):
        code = main(
            [
                "tune",
                "--app",
                "stencil",
                "--input",
                "200x200",
                "--max-suggestions",
                "150",
                "--workdir",
                str(tmp_path / "w"),
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best-mapping time:" in out
        trace_path = tmp_path / "w" / "trace.json"
        assert trace_path.exists()

        import json

        from repro.obs.trace import validate_chrome_trace

        assert validate_chrome_trace(json.loads(trace_path.read_text())) > 0

        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "breakdown:" in out

    def test_trace_subcommand_rejects_garbage(self, tmp_path):
        bad = tmp_path / "not-a-trace.json"
        bad.write_text('{"foo": 1}')
        with pytest.raises(SystemExit):
            main(["trace", str(bad)])


class TestAnalyzeCommand:
    def test_list_rules_grouped_by_pass(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        # One section per analysis pass, in rule-id order.
        headers = [
            line for line in out.splitlines() if line.startswith("-- ")
        ]
        assert headers == [
            "-- mapping validity (AM0xx)",
            "-- memory feasibility (AM1xx)",
            "-- canonicalization (AM2xx)",
            "-- graph sanitizer (AM3xx)",
            "-- cost bounds (AM4xx)",
            "-- routing & symmetry (AM5xx)",
            "-- workload equivalence (AM6xx)",
        ]
        from repro.analysis import RULES

        for rule_id, rule in RULES.items():
            assert rule_id in out
            assert rule.doc in out

    def test_analyze_with_bounds(self, capsys):
        code = main(
            [
                "analyze",
                "--app",
                "stencil",
                "--input",
                "200x200",
                "--bounds",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The default stencil mapping leaves shepard's CPUs idle.
        assert "AM403" in out

    def test_analyze_bounds_on_mapping_file(self, capsys, tmp_path):
        from repro.apps import make_app
        from repro.machine import shepard
        from repro.mapping.io import save_mapping

        machine = shepard(1)
        app = make_app("stencil", nx=200, ny=200)
        space = app.space(machine)
        mapping = space.default_mapping()
        path = tmp_path / "m.json"
        save_mapping(mapping, path, application=app.graph(machine).name)
        code = main(
            [
                "analyze",
                "--app",
                "stencil",
                "--input",
                "200x200",
                "--bounds",
                "--mapping",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert str(path) in out


class TestTuneBoundPruneFlags:
    def _tune(self, tmp_path, *extra):
        return main(
            [
                "tune",
                "--app",
                "stencil",
                "--input",
                "200x200",
                "--max-suggestions",
                "150",
                "--workdir",
                str(tmp_path / "w"),
                *extra,
            ]
        )

    def test_metrics_out_writes_prometheus_text(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        assert self._tune(tmp_path, "--metrics-out", str(metrics)) == 0
        text = metrics.read_text()
        assert "# TYPE automap_oracle_suggested counter" in text
        assert "automap_oracle_bound_pruned" in text

    def test_no_bound_prune_disables_pruning(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        code = self._tune(
            tmp_path, "--no-bound-prune", "--metrics-out", str(metrics)
        )
        assert code == 0
        text = metrics.read_text()
        assert "automap_oracle_bound_pruned 0.0" in text


class TestGenParams:
    def test_coercion(self):
        from repro.cli import parse_gen_params

        assert parse_gen_params(
            ["layers=8", "noise=0.5", "flag=true", "tag=abc"]
        ) == {"layers": 8, "noise": 0.5, "flag": True, "tag": "abc"}

    def test_malformed_pairs_exit(self):
        from repro.cli import parse_gen_params

        for bad in ["layers", "=3", "2x=5"]:
            with pytest.raises(SystemExit):
                parse_gen_params([bad])

    def test_inspect_generator_with_params(self, capsys):
        code = main(
            [
                "inspect",
                "--app",
                "pipeline",
                "--machine",
                "mirrored",
                "--gen-param",
                "layers=3",
                "--gen-param",
                "parts=2",
            ]
        )
        assert code == 0
        assert "3 tasks" in capsys.readouterr().out

    def test_bad_generator_param_is_clean_error(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "inspect",
                    "--app",
                    "reduction",
                    "--gen-param",
                    "levels=0",
                ]
            )

    def test_label_on_generator_is_clean_error(self):
        with pytest.raises(SystemExit):
            main(["inspect", "--app", "forkjoin", "--input", "n50w200"])

    def test_analyze_generator_on_zoo_machine(self, capsys):
        code = main(
            [
                "analyze",
                "--app",
                "halo",
                "--machine",
                "helix",
                "--nodes",
                "3",
                "--gen-param",
                "parts=1",
                "--bounds",
            ]
        )
        assert code == 0


class TestMachineParams:
    def test_coercion(self):
        from repro.cli import parse_machine_params

        assert parse_machine_params(
            [
                "memory_capacity:n0.sys0=128 GiB",
                "proc_throughput:n0.gpu0=1.5e12",
                "name=shepard-fat",
            ]
        ) == {
            "memory_capacity": {"n0.sys0": "128 GiB"},
            "proc_throughput": {"n0.gpu0": 1.5e12},
            "name": "shepard-fat",
        }

    def test_malformed_pairs_exit(self):
        from repro.cli import parse_machine_params

        for bad in [
            "memory_capacity:n0.sys0",  # no value
            "nokey=1",  # only 'name' takes a bare value
            ":x=1",  # empty section
            "a:=1",  # empty key
        ]:
            with pytest.raises(SystemExit):
                parse_machine_params([bad])

    def test_submit_parser_accepts_machine_params(self):
        args = build_parser().parse_args(
            [
                "submit",
                "--app",
                "stencil",
                "--machine-param",
                "memory_capacity:n0.sys0=128 GiB",
                "--machine-param",
                "name=shepard-fat",
            ]
        )
        assert len(args.machine_param) == 2

    def test_serve_worker_and_cache_flags(self):
        args = build_parser().parse_args(["serve", "--root", "s"])
        assert args.workers == 1
        assert args.cache_max_bytes is None
        args = build_parser().parse_args(
            [
                "serve",
                "--root",
                "s",
                "--workers",
                "4",
                "--cache-max-bytes",
                "64 MiB",
            ]
        )
        assert args.workers == 4
        assert args.cache_max_bytes == "64 MiB"

    def test_fuzz_accepts_equivalence_invariant(self):
        args = build_parser().parse_args(
            ["fuzz", "--invariant", "equivalence"]
        )
        assert args.invariant == ["equivalence"]


class TestEquivalenceCommands:
    def test_analyze_equivalence_reports_slack(self, capsys):
        code = main(
            [
                "analyze",
                "--app",
                "forkjoin",
                "--machine",
                "shepard",
                "--equivalence",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The zoo machine is GiB-scale; the toy footprint is KiB-scale.
        assert "AM601" in out
        assert "footprint bound" in out

    def test_cache_ls_and_purge(self, capsys, tmp_path):
        from repro.service import ResultCache

        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"result.json": b"{}\n"})
        cache.put(
            "b" * 64, {"result.json": b"{}\n", "proof.json": b"{}\n"}
        )
        assert main(["cache", "ls", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "equiv" in out and "run" in out

        assert main(["cache", "purge", "--root", str(tmp_path)]) == 0
        assert "purged 2" in capsys.readouterr().out
        assert main(["cache", "ls", "--root", str(tmp_path)]) == 0
        assert "0 entries" in capsys.readouterr().out

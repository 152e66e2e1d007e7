"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_measure_defaults(self):
        args = build_parser().parse_args(["measure"])
        assert args.scale == "small"
        assert args.variant == "revtr2.0"
        assert args.count == 3

    def test_global_flags(self):
        args = build_parser().parse_args(
            ["--seed", "5", "--scale", "tiny", "measure", "--count", "1"]
        )
        assert args.seed == 5
        assert args.scale == "tiny"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--no-fastpath", "measure"],
            ["serve", "--threaded"],
            ["atlas", "build", "--threaded"],
            ["atlas", "build", "--no-dedup"],
            # `repro top` is the live view, `serve --http` the live
            # raw exposition
            ["stats", "--watch", "1"],
        ],
    )
    def test_retired_switches_are_rejected_not_ignored(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_retired_verb_is_an_invalid_choice(self, capsys):
        # Committed numbers regenerate in place (DESIGN.md,
        # "Evidence"); there is no artifact left for a verb to diff.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["benchdiff", "a.json", "b.json"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCommands:
    def test_measure_runs(self, capsys):
        code = main(
            ["--scale", "tiny", "--seed", "3", "measure", "--count", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reverse traceroute" in out
        assert "AS path" in out

    def test_measure_specific_destination(self, capsys):
        from repro.experiments import Scenario
        from repro.topology import TopologyConfig

        scenario = Scenario(
            config=TopologyConfig.tiny(seed=3), seed=3, atlas_size=20
        )
        dst = scenario.responsive_destinations(1, options_only=True)[0]
        code = main(
            ["--scale", "tiny", "--seed", "3", "measure", "--dst", dst]
        )
        assert code == 0
        assert dst in capsys.readouterr().out

    def test_measure_legacy_variant(self, capsys):
        code = main(
            [
                "--scale", "tiny", "--seed", "3",
                "measure", "--count", "1", "--variant", "revtr1.0",
            ]
        )
        assert code == 0

    def test_asymmetry_runs(self, capsys):
        code = main(
            ["--scale", "tiny", "--seed", "3", "asymmetry",
             "--count", "20"]
        )
        assert code == 0
        assert "Fig 8a" in capsys.readouterr().out

    def test_te_runs(self, capsys):
        code = main(
            ["--scale", "tiny", "--seed", "3", "te", "--count", "20"]
        )
        assert code == 0
        assert "traffic engineering" in capsys.readouterr().out


class TestJsonAndStats:
    def test_measure_json(self, capsys):
        import json

        code = main(
            ["--scale", "tiny", "--seed", "3",
             "measure", "--count", "2", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["measurements"]) == 2
        first = doc["measurements"][0]
        assert {"src", "dst", "status", "hops", "trace"} <= set(first)
        assert first["trace"]["name"] == "revtr.measure"
        assert "revtr_measurements_total" in doc["metrics"]

    def test_measure_metrics_out_and_stats_from(
        self, capsys, tmp_path
    ):
        metrics_file = tmp_path / "metrics.json"
        code = main(
            ["--scale", "tiny", "--seed", "3",
             "measure", "--count", "1",
             "--metrics-out", str(metrics_file)]
        )
        assert code == 0
        assert metrics_file.exists()
        capsys.readouterr()
        code = main(["stats", "--from", str(metrics_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE revtr_measurements_total counter" in out
        assert 'revtr_measurements_total{status="' in out

    def test_stats_from_measure_json_document(self, capsys, tmp_path):
        json_file = tmp_path / "measure.json"
        code = main(
            ["--scale", "tiny", "--seed", "3",
             "measure", "--count", "1", "--json"]
        )
        assert code == 0
        json_file.write_text(capsys.readouterr().out)
        code = main(["stats", "--from", str(json_file)])
        assert code == 0
        assert "probes_sent_total" in capsys.readouterr().out

    def test_stats_fresh_workload(self, capsys):
        code = main(
            ["--scale", "tiny", "--seed", "3", "stats", "--count", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE revtr_measure_duration_seconds histogram" in out
        assert "revtr_measure_duration_seconds_count" in out
        assert 'revtr_measurements_total{status="' in out

    def test_survey_json(self, capsys):
        import json

        code = main(["--seed", "3", "survey", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["surveys"]) == {
            "2016", "2020", "2020-with-2016-vps",
        }
        epoch = doc["surveys"]["2020"]
        assert epoch["probed"] > 0
        assert "fractions" in epoch and "distance_cdf" in epoch


class TestChaosVerb:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.preset == "mixed"
        assert args.requests == 6
        assert args.retry_budget == 8

    def test_chaos_json_runs_and_injects(self, capsys):
        import json

        code = main(
            [
                "--scale", "tiny", "--seed", "7",
                "chaos", "--preset", "loss", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["preset"] == "loss"
        assert doc["faults"]["total"] > 0
        assert "link-loss" in doc["faults"]["by_kind"]
        assert doc["scheduler"]["submitted"] == 6

    def test_chaos_plan_replay_reproduces(self, capsys, tmp_path):
        import json

        plan_path = str(tmp_path / "plan.json")
        code = main(
            [
                "--scale", "tiny", "--seed", "7",
                "chaos", "--preset", "mixed", "--json",
                "--plan-out", plan_path,
            ]
        )
        assert code == 0
        first = json.loads(capsys.readouterr().out)
        code = main(
            [
                "--scale", "tiny", "--seed", "7",
                "chaos", "--plan", plan_path, "--json",
            ]
        )
        assert code == 0
        replayed = json.loads(capsys.readouterr().out)
        # A saved plan replays bit-for-bit: same injections, same
        # degradation, same scheduler outcome.
        assert replayed["preset"] is None
        assert replayed["plan"] == first["plan"]
        assert replayed["faults"] == first["faults"]
        assert replayed["vp_health"] == first["vp_health"]
        assert replayed["engine_retries"] == first["engine_retries"]
        assert replayed["scheduler"] == first["scheduler"]

    def test_chaos_none_preset_is_clean(self, capsys):
        import json

        code = main(
            [
                "--scale", "tiny", "--seed", "7",
                "chaos", "--preset", "none", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["faults"] == {"total": 0, "by_kind": {}}
        assert doc["vp_health"]["quarantines"] == 0


class TestMalformedFilesAreUsageErrors:
    """A file named on the command line that cannot be used is an
    ``error: ...`` line and exit status 2, never a traceback."""

    PLANS = {
        "not-json": "{not json",
        "spec-without-kind": '{"v": 1, "specs": [{"start": 1.0}]}',
        "future-version": '{"v": 99, "specs": []}',
        "unknown-kind": '{"specs": [{"kind": "meteor"}]}',
        "not-an-object": "[1, 2]",
        "specs-not-a-list": '{"specs": 7}',
    }

    @pytest.mark.parametrize("verb", ["chaos", "health"])
    def test_missing_plan_file(self, verb, capsys, tmp_path):
        missing = str(tmp_path / "no-such-plan.json")
        code = main(["--scale", "tiny", verb, "--plan", missing])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err

    @pytest.mark.parametrize("damage", sorted(PLANS))
    def test_unusable_plan_file(self, damage, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(self.PLANS[damage])
        code = main(["--scale", "tiny", "chaos", "--plan", str(plan)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot load fault plan")
        assert captured.out == ""

    def test_spec_without_kind_names_the_field(self):
        from repro.sim.faults import FaultSpec

        with pytest.raises(ValueError, match="'kind'"):
            FaultSpec.from_dict({"start": 1.0})

    @pytest.mark.parametrize("damage", ["missing", "not-gzip", "no-atlas"])
    def test_unusable_atlas_snapshot(self, damage, capsys, tmp_path):
        import gzip
        import json

        path = tmp_path / "atlas.snap"
        argv = ["--scale", "tiny", "--seed", "3", "--atlas-size", "4"]
        if damage == "not-gzip":
            path.write_text("{}")
        elif damage == "no-atlas":
            assert main(argv + ["atlas", "save", "--out", str(path)]) == 0
            with gzip.open(path, "rb") as fh:
                doc = json.loads(fh.read().decode())
            del doc["atlas"]
            with gzip.open(path, "wb") as fh:
                fh.write(json.dumps(doc).encode())
            capsys.readouterr()
        code = main(argv + ["atlas", "load", "--path", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestHealthVerb:
    def test_health_defaults(self):
        args = build_parser().parse_args(["health"])
        assert args.preset == "mixed"
        assert args.requests == 8
        assert args.sample_interval == 15.0

    def test_health_json_reports_correlated_findings(self, capsys):
        import json

        code = main(
            ["--scale", "tiny", "health", "--preset", "mixed", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] in ("healthy", "degraded", "critical")
        assert doc["timeseries"]["samples"] >= 2
        # The mixed chaos preset must surface at least two distinct
        # finding kinds, each citing supporting flight-recorder seqs.
        found = {f["kind"] for f in doc["findings"]}
        assert len(found) >= 2
        for finding in doc["findings"]:
            assert finding["event_seqs"], finding["kind"]
            assert finding["window"][0] is not None
            assert finding["window"][1] >= finding["window"][0]

    def test_health_is_deterministic(self, capsys):
        import json

        argv = ["--scale", "tiny", "health", "--preset", "mixed", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        json.loads(first)

    def test_health_human_output_and_exports(self, capsys, tmp_path):
        import json

        ts_path = tmp_path / "series.json"
        code = main(
            [
                "--scale", "tiny", "health", "--preset", "loss",
                "--timeseries-out", str(ts_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== health:" in out
        series = json.loads(ts_path.read_text())
        assert series["schema_version"] == 1
        assert series["summary"]["samples"] >= 1

    def test_health_none_preset_is_clean(self, capsys):
        import json

        # Forty requests, not the default eight: the four rules that
        # the faulted presets trip stay quiet over a long clean run.
        code = main(
            [
                "--scale", "tiny", "health", "--preset", "none",
                "--requests", "40", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scheduler"]["submitted"] == 40
        assert doc["findings"] == []
        assert doc["status"] == "healthy"


class TestTopAndWatchVerbs:
    def test_top_bounded_frames(self, capsys):
        code = main(
            [
                "--scale", "tiny", "top", "--requests", "4",
                "--frames", "2", "--interval", "0.02",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "== SLO summary ==" in out
        assert "== health:" in out


class TestServeHttp:
    def test_serve_http_endpoint_and_timeseries_out(
        self, capsys, tmp_path
    ):
        import json
        import re
        import threading
        import urllib.request

        ts_path = tmp_path / "series.json"
        scraped = {}

        def scrape(url):
            for path in ("/metrics", "/metrics.json", "/health"):
                with urllib.request.urlopen(url + path, timeout=10) as r:
                    scraped[path] = r.read().decode()

        # --http-hold keeps the endpoint up after the workload; scrape
        # from a helper thread, then let the hold expire.
        def run():
            main(
                [
                    "--scale", "tiny", "serve", "--requests", "2",
                    "--http", "0", "--http-hold", "0.5",
                    "--timeseries-out", str(ts_path),
                ]
            )

        import io
        import sys

        # The URL goes to stderr before the workload runs; capture it
        # by running serve in a thread and polling captured stderr.
        worker = threading.Thread(target=run, daemon=True)
        with capsys.disabled():
            pass
        worker.start()
        url = None
        for _ in range(200):
            err = capsys.readouterr().err
            match = re.search(r"http://[\d.]+:\d+", err)
            if match:
                url = match.group(0)
                break
            worker.join(0.05)
        assert url, "serve never printed the endpoint URL"
        scrape(url)
        worker.join(15)
        assert not worker.is_alive()
        assert "probes_sent_total" in scraped["/metrics"]
        json.loads(scraped["/metrics.json"])
        health = json.loads(scraped["/health"])
        assert health["status"] in ("healthy", "degraded", "critical")
        series = json.loads(ts_path.read_text())
        assert series["summary"]["samples"] >= 1

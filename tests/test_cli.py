"""Tests for the command-line interface."""

import pytest

from repro.cli import SAMPLE_INTERVAL, build_parser, main


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
            ["stats", "--from", "m.json", "--watch", "1"],
            # `health` runs the fault workload and prints the plan
            ["chaos"],
            # `atlas build --out` saves the snapshot
            ["atlas", "save", "--out", "a.snap"],
            # Flags nothing set are the constants they defaulted to;
            # the readers render files `measure` wrote.
            ["serve", "--parallel", "2"],
            ["stats", "--from", "m.json", "--count", "1"],
            ["explain", "--events", "e.jsonl", "--dst", "X"],
            ["top", "--variant", "revtr1.0"],
            ["events", "--from", "e.jsonl", "--max-seconds", "1"],
            # An export is written once, at exit, and read whole.
            ["serve", "--events-rotate", "1000"],
            ["events", "--from", "e.jsonl", "--follow"],
            # `measure` is the paper's engine; `serve` / `health` /
            # `top` are the service, which always amortizes.
            ["measure", "--segment-cache"],
            ["measure", "--coalesce"],
            # One atlas builder, the scenario's own: no shard lanes.
            ["atlas", "build", "--shards", "4"],
        ],
    )
    def test_retired_switches_are_rejected_not_ignored(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err

    @pytest.mark.parametrize(
        "argv", [["stats"], ["explain", "all"], ["events", "--tail", "3"]]
    )
    def test_readers_need_the_file_they_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--scale", "tiny"] + argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: the following arguments are required" in err
        assert "Traceback" not in err

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
        # A measurement is its result record; the decisions behind it
        # are the events `--events-out` writes.
        assert {"src", "dst", "status", "hops"} <= set(first)
        assert "trace" not in first
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

    def test_stats_fresh_workload(self, capsys, tmp_path):
        metrics_file = str(tmp_path / "metrics.json")
        code = main(
            ["--scale", "tiny", "--seed", "3",
             "measure", "--count", "1", "--metrics-out", metrics_file]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["stats", "--from", metrics_file]) == 0
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
        "vps-not-a-list": (
            '{"specs": [{"kind": "vp-outage", "vps": "10.0.0.1"}]}'
        ),
        "routers-not-a-list": (
            '{"specs": [{"kind": "router-filter", "routers": "12"}]}'
        ),
        "link-not-a-pair": (
            '{"specs": [{"kind": "link-loss", "links": [[1, 2, 3]]}]}'
        ),
        "window-not-finite": (
            '{"specs": [{"kind": "router-rate-limit", "window": NaN}]}'
        ),
        "start-not-finite": (
            '{"specs": [{"kind": "link-loss", "start": Infinity}]}'
        ),
        "limit-not-integral": (
            '{"specs": [{"kind": "router-rate-limit", "limit": 1.5}]}'
        ),
        "seed-a-bool": (
            '{"seed": true, "specs": []}'
        ),
    }

    # The verbs that read a fault plan.
    @pytest.mark.parametrize("verb", ["health"])
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
        code = main(["--scale", "tiny", "health", "--plan", str(plan)])
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
            assert main(argv + ["atlas", "build", "--out", str(path)]) == 0
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


class TestChaosVerb:
    """Fault injection, once the ``chaos`` verb, is run by ``health``."""

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["health"])
        assert args.preset == "mixed"
        assert args.plan is None and args.plan_out is None

    def test_chaos_none_preset_is_clean(self, capsys):
        import json

        code = main(
            [
                "--scale", "tiny", "--seed", "7",
                "health", "--preset", "none", "--requests", "6", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["faults"] == {"total": 0, "by_kind": {}}
        assert doc["vp_health"]["quarantines"] == 0


class TestHealthVerb:
    def test_health_defaults(self):
        args = build_parser().parse_args(["health"])
        assert args.preset == "mixed"
        assert args.requests == 8
        assert SAMPLE_INTERVAL == 15.0

    def test_health_json_runs_and_injects(self, capsys):
        import json

        code = main(
            [
                "--scale", "tiny", "--seed", "7",
                "health", "--preset", "loss", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["preset"] == "loss"
        assert doc["plan"]["specs"]
        assert doc["faults"]["total"] > 0
        assert "link-loss" in doc["faults"]["by_kind"]
        assert doc["scheduler"]["submitted"] == 8

    def test_health_plan_replay_reproduces(self, capsys, tmp_path):
        import json

        plan_path = str(tmp_path / "plan.json")
        code = main(
            [
                "--scale", "tiny", "--seed", "7",
                "health", "--preset", "mixed", "--json",
                "--plan-out", plan_path,
            ]
        )
        assert code == 0
        first = json.loads(capsys.readouterr().out)
        code = main(
            [
                "--scale", "tiny", "--seed", "7",
                "health", "--plan", plan_path, "--json",
            ]
        )
        assert code == 0
        replayed = json.loads(capsys.readouterr().out)
        # A saved plan replays bit-for-bit: same injections, same
        # degradation, same scheduler outcome, same findings.
        assert replayed["preset"] is None
        del first["preset"], replayed["preset"]
        assert replayed == first

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
        for line in ("  faults:", "  degradation:", "  vp health:"):
            assert line in out
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

    def test_top_watches_the_front_door(self, capsys):
        # The workload is submitted to the scheduler, so the latency
        # lines only the service and the scheduler feed are filled by
        # the time the last frame is drawn.
        code = main(
            [
                "--scale", "tiny", "top", "--requests", "8",
                "--frames", "0", "--interval", "0.01",
            ]
        )
        assert code == 0
        last = capsys.readouterr().out.split("--- frame")[-1]
        assert "request (end-to-end)" in last
        assert "queue wait (scheduler)" in last
        assert "measurements: 8" in last


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

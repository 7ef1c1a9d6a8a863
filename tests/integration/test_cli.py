"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp in ("fig14", "table6", "fig19"):
            assert exp in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_infer_defaults(self, capsys):
        assert main(["infer", "--prompt-tokens", "256",
                     "--output-tokens", "1"]) == 0
        out = capsys.readouterr().out
        assert "llm.npu" in out
        assert "tok/s" in out

    def test_infer_custom_model(self, capsys):
        assert main(["infer", "--model", "Gemma-2B",
                     "--prompt-tokens", "256", "--output-tokens", "0",
                     "--pruning-rate", "0.5"]) == 0
        assert "Gemma-2B" in capsys.readouterr().out

    def test_run_quick_experiment(self, capsys):
        assert main(["run", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "per-tensor" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "table3", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Figure 8" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExperimentRegistry:
    def test_registry_complete(self):
        # every table and figure of the evaluation section (14) plus the
        # extension ablations, the calibration dashboard, the
        # service-layer experiments (incl. service-batching), fleet-slo,
        # dma-overlap, the critical-path trio (service-critpath,
        # dma-ablation, stage-crossover), and diff-eval
        assert len(EXPERIMENTS) == 35
        paper = [n for n in EXPERIMENTS
                 if n.startswith(("fig", "table"))]
        assert len(paper) == 14

    def test_descriptions_nonempty(self):
        for name, (desc, fn) in EXPERIMENTS.items():
            assert desc
            assert callable(fn)


class TestQuantizeCommand:
    def test_synthetic_quantize_roundtrip(self, tmp_path, capsys):
        import os
        out = os.path.join(tmp_path, "q.npz")
        assert main(["quantize", "--output", out,
                     "--scheme", "llm.npu"]) == 0
        stdout = capsys.readouterr().out
        assert "teacher-agreement" in stdout
        assert os.path.exists(out)

class TestProfileCommand:
    def test_single_inference_profile(self, tmp_path, capsys):
        import json
        import os
        profile_path = os.path.join(tmp_path, "profile.json")
        flame_path = os.path.join(tmp_path, "stacks.txt")
        assert main(["profile", "--prompt-tokens", "64",
                     "--output-tokens", "2",
                     "--profile-out", profile_path,
                     "--flamegraph-out", flame_path]) == 0
        out = capsys.readouterr().out
        assert "Per-processor attribution" in out
        assert "roofline" in out
        with open(profile_path) as f:
            doc = json.load(f)
        assert doc["schema"] == "repro.profile/v1"
        with open(flame_path) as f:
            lines = f.read().splitlines()
        assert lines and all(line.rsplit(" ", 1)[1].isdigit()
                             for line in lines)

    def test_service_profile_experiment(self, capsys):
        assert main(["run", "service-profile"]) == 0
        out = capsys.readouterr().out
        assert "golden service workload" in out
        assert "Energy attribution" in out


class TestBenchCompareCommand:
    def _artifact(self, tmp_path, name, e2e):
        from repro.eval.report import Table
        from repro.obs import make_artifact, save_doc
        table = Table(title="t", columns=["config", "e2e s"])
        table.add_row("baseline", e2e)
        return save_doc(str(tmp_path / f"BENCH_{name}.json"),
                        make_artifact("t", table, env={}).to_dict())

    @pytest.mark.parametrize("path", ["BENCH_critpath.json",
                                      "base/BENCH_critpath.json.gz"])
    def test_explain_stem_ignores_the_gz_suffix(self, path):
        from repro.cli import _artifact_stem
        assert _artifact_stem(path) == "critpath"

    def test_identical_artifacts_pass(self, tmp_path, capsys):
        base = self._artifact(tmp_path, "a", 2.0)
        assert main(["bench-compare", base, base]) == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_regression_fails(self, tmp_path, capsys):
        base = self._artifact(tmp_path, "a", 2.0)
        cand = self._artifact(tmp_path, "b", 2.2)  # +10% > 5% tolerance
        assert main(["bench-compare", base, cand]) == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.out
        assert "FAIL" in captured.err

    def test_loose_tolerance_passes(self, tmp_path):
        base = self._artifact(tmp_path, "a", 2.0)
        cand = self._artifact(tmp_path, "b", 2.2)
        assert main(["bench-compare", "--rel-tol", "0.2",
                     base, cand]) == 0

    def test_unreadable_artifact_is_usage_error(self, tmp_path, capsys):
        base = self._artifact(tmp_path, "a", 2.0)
        assert main(["bench-compare", base,
                     str(tmp_path / "missing.json")]) == 2
        assert "bench-compare" in capsys.readouterr().err

    def test_empty_baseline_dir_is_usage_error(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        candidate = tmp_path / "candidate"
        baseline.mkdir()
        candidate.mkdir()
        assert main(["bench-compare", str(baseline), str(candidate)]) == 2
        assert "no BENCH_*.json artifacts" in capsys.readouterr().err


class TestFleetCommands:
    def test_fleet_writes_valid_artifacts(self, tmp_path, capsys):
        report_path = tmp_path / "fleet_report.json"
        alerts_path = tmp_path / "fleet_alerts.json"
        assert main(["fleet", "--devices", "3", "--seed", "42",
                     "--report-out", str(report_path),
                     "--alerts-out", str(alerts_path)]) == 0
        out = capsys.readouterr().out
        assert "Fleet percentiles" in out
        assert "dev02-budget" in out
        import json
        from repro.eval import FLEET_SCHEMA
        from repro.obs import validate_timeline_doc
        report = json.loads(report_path.read_text())
        assert report["schema"] == FLEET_SCHEMA
        validate_timeline_doc(json.loads(alerts_path.read_text()))

    def test_monitor_writes_valid_timeline(self, tmp_path, capsys):
        alerts_path = tmp_path / "storm_alerts.json"
        assert main(["monitor", "--seed", "42",
                     "--alerts-out", str(alerts_path)]) == 0
        out = capsys.readouterr().out
        assert "burn" in out
        import json
        from repro.obs import validate_timeline_doc
        doc = json.loads(alerts_path.read_text())
        validate_timeline_doc(doc)
        assert any(inc["firing_s"] is not None for inc in doc["incidents"])

    def test_fleet_slo_experiment_runs(self, capsys):
        assert main(["run", "fleet-slo"]) == 0
        out = capsys.readouterr().out
        assert "Fleet percentiles" in out
        assert "SLO compliance" in out


class TestQuantizeCommandCheckpoint:
    def test_checkpoint_workflow(self, tmp_path, capsys):
        # save float checkpoint -> quantize via CLI -> reload
        import os
        from repro.model import build_synthetic_model, tiny_config
        from repro.model.io import save_model, load_model
        from repro.quant import load_quantized
        cfg = tiny_config(n_layers=4)
        float_path = os.path.join(tmp_path, "float.npz")
        q_path = os.path.join(tmp_path, "quant.npz")
        save_model(build_synthetic_model(cfg, seed=5), float_path)
        assert main(["quantize", "--input", float_path,
                     "--output", q_path, "--scheme", "per-tensor"]) == 0
        target = load_model(float_path)
        assert len(load_quantized(target, q_path)) == 4 * 7


class TestCliErrorPaths:
    def test_fleet_zero_devices_is_usage_error(self, capsys):
        assert main(["fleet", "--devices", "0"]) == 2
        err = capsys.readouterr().err
        assert "fleet:" in err
        assert "at least one device" in err

    def test_monitor_bad_fault_rate_is_usage_error(self, capsys):
        assert main(["monitor", "--transient-rate", "2.0"]) == 2
        err = capsys.readouterr().err
        assert "monitor:" in err
        assert "transient_rate" in err

    def test_explain_unknown_request_id(self, capsys):
        assert main(["explain", "99999", "--batched"]) == 2
        err = capsys.readouterr().err
        assert "explain:" in err
        assert "unknown request id" in err

    def test_explain_missing_steplog_file(self, tmp_path, capsys):
        assert main(["explain", "--steplog",
                     str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "explain:" in err
        assert "cannot read" in err

    def test_explain_invalid_steplog_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["explain", "--steplog", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_explain_empty_steplog_doc(self, tmp_path, capsys):
        import json
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({}))
        assert main(["explain", "--steplog", str(path)]) == 2
        assert "expected schema" in capsys.readouterr().err


def _one_line_error(err, command):
    """The error boundary's single ``llmnpu <cmd>: <msg>`` line."""
    assert err.startswith(f"llmnpu {command}: "), err
    assert err.count("\n") == 1, err
    return err


class TestUsageErrorsExitTwo:
    @pytest.mark.parametrize("argv, expect", [
        (["whatif", "--speedup", "nosuch=2"], "matches no captured task"),
        (["whatif", "--reassign", "nosuch=gpu"], "matches no captured task"),
        (["whatif", "--reassign", "sg1=dsp"], "not a processor of"),
        (["whatif", "--speedup", "sg1=nan"], "finite and positive"),
        (["whatif", "--speedup", "sg1=inf"], "finite and positive"),
        (["infer", "--prompt-tokens", "0"], "prompt_tokens must be positive"),
        (["infer", "--prompt-tokens", "100000"], "graph was prepared for"),
        (["profile", "--prompt-tokens", "0"],
         "prompt_tokens must be positive"),
        (["critpath", "--prompt-tokens", "0"],
         "prompt_tokens must be positive"),
    ], ids=" ".join)
    def test_one_line_and_exit_two(self, argv, expect, capsys):
        assert main(argv) == 2
        assert expect in _one_line_error(capsys.readouterr().err, argv[0])


class TestDiffMalformedInput:
    @pytest.fixture(scope="class")
    def critpath(self):
        from repro.core import LlmNpuEngine
        from repro.obs import critical_path, critpath_doc
        engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
        timeline = engine.infer(64, 2).timeline(
            engine.config.decode_backend)
        return critpath_doc([critical_path(timeline, source="request 1")],
                            source="run")

    def _write(self, tmp_path, name, doc):
        import json
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def _broken_steps(self):
        from repro.eval import golden_steplog
        doc = golden_steplog(seed=42, batched=True).to_dict()
        del doc["steps"][0]["items"][0]["end_s"]
        return doc

    def test_self_diff_is_identical(self, critpath, tmp_path, capsys):
        path = self._write(tmp_path, "run.json", critpath)
        assert main(["diff", path, path]) == 0

    def test_critpath_without_paths(self, critpath, tmp_path, capsys):
        import copy
        good = self._write(tmp_path, "good.json", critpath)
        doc = copy.deepcopy(critpath)
        del doc["paths"]
        bad = self._write(tmp_path, "bad.json", doc)
        assert main(["diff", good, bad]) == 2
        err = _one_line_error(capsys.readouterr().err, "diff")
        assert err.startswith(f"llmnpu diff: {bad}: ")
        assert "missing 'paths'" in err

    def test_broken_segment_telescoping(self, critpath, tmp_path, capsys):
        import copy
        doc = copy.deepcopy(critpath)
        doc["paths"][0]["segments"][1]["start_s"] += 1e-6
        doc["paths"][0]["segments"][1]["end_s"] += 1e-6
        bad = self._write(tmp_path, "bad.json", doc)
        good = self._write(tmp_path, "good.json", critpath)
        assert main(["diff", bad, good]) == 2
        err = _one_line_error(capsys.readouterr().err, "diff")
        assert err.startswith(f"llmnpu diff: {bad}: ")
        assert "!= previous end" in err

    def test_steps_with_malformed_item(self, tmp_path, capsys):
        bad = self._write(tmp_path, "steps.json", self._broken_steps())
        assert main(["diff", bad, bad]) == 2
        err = _one_line_error(capsys.readouterr().err, "diff")
        assert "steps[0]: items[0]: missing 'end_s'" in err

    def test_critpath_with_non_numeric_sum(self, critpath, tmp_path,
                                           capsys):
        import copy
        doc = copy.deepcopy(critpath)
        doc["paths"][0]["wait_s"] = "long"
        bad = self._write(tmp_path, "bad.json", doc)
        assert main(["diff", bad, bad]) == 2
        err = _one_line_error(capsys.readouterr().err, "diff")
        assert "malformed repro.critpath/v1 document" in err

    def test_schema_script_reports_the_same_files(self, critpath,
                                                  tmp_path):
        import copy
        import os
        import subprocess
        import sys
        doc = copy.deepcopy(critpath)
        doc["paths"][0]["by_proc"] = []
        script = os.path.join(os.path.dirname(__file__), "..", "..",
                              "scripts", "check_trace_schema.py")
        for bad in (self._write(tmp_path, "cp.json", doc),
                    self._write(tmp_path, "st.json", self._broken_steps())):
            result = subprocess.run([sys.executable, script, bad],
                                    capture_output=True, text=True)
            assert result.returncode == 1
            assert result.stderr.startswith(f"FAIL: {bad}: ")
            assert "Traceback" not in result.stderr


class TestExplainCommand:
    def test_table_mode(self, capsys):
        assert main(["explain", "--batched"]) == 0
        out = capsys.readouterr().out
        assert "Wait attribution" in out
        assert "top blocker" in out

    def test_single_request_narrative(self, capsys):
        assert main(["explain", "7", "--batched"]) == 0
        out = capsys.readouterr().out
        assert "request 00007" in out
        assert "decisions:" in out
        assert "reconciliation:" in out

    def test_steplog_out_roundtrip(self, tmp_path, capsys):
        import json
        from repro.obs import validate_steps_doc
        path = tmp_path / "steps.json"
        assert main(["explain", "--batched",
                     "--steplog-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        validate_steps_doc(doc)
        assert doc["n_steps"] > 0
        # the written file feeds back through --steplog
        assert main(["explain", "7", "--steplog", str(path)]) == 0
        assert "request 00007" in capsys.readouterr().out


ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
BENCH = os.path.join(ROOT, "benchmarks", "results", "json",
                     "BENCH_service_load.json")

#: Every artifact flag: (row id, command line before the flag, flag).
#: ``{tmp}`` is the test's directory, ``{critpath}`` a saved
#: ``repro.critpath/v1`` document for ``diff`` to read.
ARTIFACT_FLAGS = [
    ("profile", ["profile", "--prompt-tokens", "256",
                 "--output-tokens", "2"], "--profile-out"),
    ("trace-metrics", ["trace", "--trace-out", "{tmp}/trace.json"],
     "--metrics-out"),
    ("infer-metrics", ["infer", "--prompt-tokens", "256",
                       "--output-tokens", "2"], "--metrics-out"),
    ("fleet-report", ["fleet", "--devices", "1"], "--report-out"),
    ("fleet-alerts", ["fleet", "--devices", "1"], "--alerts-out"),
    ("monitor-alerts", ["monitor"], "--alerts-out"),
    ("critpath", ["critpath", "--prompt-tokens", "256"], "--critpath-out"),
    ("explain-steplog", ["explain", "--batched"], "--steplog-out"),
    ("diff", ["diff", "{critpath}", "{critpath}"], "--out"),
    ("bench-compare", ["bench-compare", BENCH, BENCH], "--json-out"),
]


@pytest.fixture(scope="module")
def check_file():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "check_trace_schema",
        os.path.join(ROOT, "scripts", "check_trace_schema.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_file


@pytest.fixture(scope="module")
def critpath_input(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("critpath") / "critpath.json")
    assert main(["critpath", "--prompt-tokens", "256",
                 "--critpath-out", path]) == 0
    return path


class TestArtifactRoundTrip:
    """Each artifact flag writes gzip exactly when its path ends in
    ``.gz``, the schema checker accepts the file, and ``load_doc`` reads
    the same document back from either suffix."""

    @pytest.mark.parametrize("argv,flag",
                             [row[1:] for row in ARTIFACT_FLAGS],
                             ids=[row[0] for row in ARTIFACT_FLAGS])
    def test_flag_round_trips_plain_and_gzipped(self, argv, flag, tmp_path,
                                                critpath_input, check_file,
                                                capsys):
        from repro.obs import load_doc
        args = [a.format(tmp=tmp_path, critpath=critpath_input)
                for a in argv]
        docs = []
        for suffix in (".json", ".json.gz"):
            path = str(tmp_path / "out" / f"artifact{suffix}")
            assert main(args + [flag, path]) == 0, capsys.readouterr().err
            with open(path, "rb") as f:
                is_gzip = f.read(2) == b"\x1f\x8b"
            assert is_gzip == suffix.endswith(".gz")
            check_file(path)
            docs.append(load_doc(path))
        assert docs[0] == docs[1]

    def test_bench_compare_reads_gzipped_artifacts(self, tmp_path, capsys):
        import gzip
        import shutil
        copies = []
        for name in ("base", "new"):
            path = str(tmp_path / name / "BENCH_service_load.json.gz")
            os.makedirs(os.path.dirname(path))
            with open(BENCH, "rb") as src, gzip.open(path, "wb") as dst:
                shutil.copyfileobj(src, dst)
            copies.append(path)
        assert main(["bench-compare", *copies]) == 0
        assert "OK:" in capsys.readouterr().out

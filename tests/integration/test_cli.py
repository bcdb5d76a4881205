"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.trace.io import write_trace
from repro.trace.synthetic import loop_nest_trace, zipf_trace


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "demo.din"
    write_trace(zipf_trace(300, 40, seed=0), path)
    return str(path)


class TestStats:
    def test_prints_table(self, trace_file, capsys):
        assert main(["stats", trace_file]) == 0
        out = capsys.readouterr().out
        assert "Benchmark" in out and "Max. Misses" in out


class TestExplore:
    def test_absolute_budget(self, trace_file, capsys):
        assert main(["explore", trace_file, "--budget", "5"]) == 0
        out = capsys.readouterr().out
        assert "K=5" in out
        assert "Depth D" in out

    def test_percent_budget(self, trace_file, capsys):
        assert main(["explore", trace_file, "--percent", "10"]) == 0
        assert "miss budget" in capsys.readouterr().out

    def test_max_depth(self, trace_file, capsys):
        assert main(["explore", trace_file, "--budget", "0", "--max-depth", "8"]) == 0
        out = capsys.readouterr().out
        assert " 16 " not in out


class TestProfileTelemetry:
    def _load_valid_manifest(self, path):
        import json

        from repro.obs import validate_manifest

        document = json.loads(path.read_text())
        validate_manifest(document)
        return document

    def test_explore_profile_writes_valid_manifest(
        self, tmp_path, trace_file, capsys
    ):
        manifest_file = tmp_path / "m.json"
        assert main(
            ["explore", trace_file, "--budget", "5",
             "--profile", str(manifest_file)]
        ) == 0
        captured = capsys.readouterr()
        assert "Depth D" in captured.out  # exploration output intact
        assert "wrote run manifest" in captured.err
        document = self._load_valid_manifest(manifest_file)
        assert document["requested_engine"] == "auto"
        assert document["trace"]["n"] == 300

    def test_explore_profile_keeps_json_stdout_clean(
        self, tmp_path, trace_file, capsys
    ):
        import json

        manifest_file = tmp_path / "m.json"
        assert main(
            ["explore", trace_file, "--budget", "5", "--json",
             "--profile", str(manifest_file)]
        ) == 0
        json.loads(capsys.readouterr().out)  # stdout is pure result JSON
        self._load_valid_manifest(manifest_file)

    def test_profile_prints_phase_tree(self, trace_file, capsys):
        assert main(["profile", trace_file, "--budget", "5"]) == 0
        out = capsys.readouterr().out
        assert "load-trace" in out
        assert "engine:" in out
        assert "prelude:mrct" in out
        assert "postlude:optimal-pairs" in out
        assert "total" in out
        assert "memory:" in out  # tracemalloc sampling on by default

    def test_profile_json_mode(self, trace_file, capsys):
        import json

        from repro.obs import MANIFEST_SCHEMA, validate_manifest

        assert main(
            ["profile", trace_file, "--budget", "5", "--no-memory", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        validate_manifest(document)
        assert document["schema"] == MANIFEST_SCHEMA
        assert document["memory"] == {}

    def test_profile_writes_manifest_file(self, tmp_path, trace_file, capsys):
        manifest_file = tmp_path / "profile.json"
        assert main(
            ["profile", trace_file, "--engine", "parallel",
             "--processes", "2", "-o", str(manifest_file)]
        ) == 0
        document = self._load_valid_manifest(manifest_file)
        assert document["engine"] == "parallel"
        assert document["options"] == {"processes": 2}
        assert "wrote run manifest" in capsys.readouterr().err

    def test_profile_defaults_to_percent_budget(self, trace_file, capsys):
        assert main(["profile", trace_file]) == 0
        out = capsys.readouterr().out
        assert "statistics" in out  # budget derivation shows as a phase


class TestSimulate:
    def test_reports_counters(self, trace_file, capsys):
        assert main(
            ["simulate", trace_file, "--depth", "4", "--assoc", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "non-cold misses" in out
        assert "D=4 A=2" in out

    def test_alternate_replacement(self, trace_file, capsys):
        assert main(
            [
                "simulate", trace_file,
                "--depth", "4", "--assoc", "2", "--replacement", "fifo",
            ]
        ) == 0
        assert "fifo" in capsys.readouterr().out


class TestCompare:
    def test_agreement_reported(self, trace_file, capsys):
        assert main(
            [
                "compare", trace_file,
                "--budget", "5", "--max-depth", "16", "--max-assoc", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "agreement: True" in out
        assert "speedup" in out


class TestEmitAndWorkloads:
    def test_emit_writes_trace(self, tmp_path, capsys):
        out_file = tmp_path / "crc.din"
        assert main(
            ["emit", "crc", "--kind", "data", "--scale", "tiny", "-o", str(out_file)]
        ) == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out

    def test_workloads_table(self, capsys):
        assert main(["workloads", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        for name in ("adpcm", "crc", "ucbqsort"):
            assert name in out
        assert "jpeg" not in out
        assert "MISMATCH" not in out

    def test_workloads_with_extras(self, capsys):
        assert main(["workloads", "--scale", "tiny", "--extras"]) == 0
        out = capsys.readouterr().out
        for name in ("jpeg", "summin", "v42", "whet"):
            assert name in out
        assert "MISMATCH" not in out

    def test_explore_json_output(self, tmp_path, capsys):
        import json

        from repro.core.instance import ExplorationResult
        from repro.trace.io import write_trace
        from repro.trace.synthetic import zipf_trace

        path = tmp_path / "j.din"
        write_trace(zipf_trace(200, 30, seed=5), path)
        assert main(["explore", str(path), "--budget", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rebuilt = ExplorationResult.from_json_dict(payload)
        assert rebuilt.budget == 3
        assert all(m <= 3 for m in rebuilt.misses)


class TestLineSize:
    def test_sweep_table(self, trace_file, capsys):
        assert main(
            ["linesize", trace_file, "--budget", "5", "--lines", "1", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "line-size sweep" in out
        assert "least traffic" in out


class TestCompact:
    def test_writes_stripped_trace(self, tmp_path, trace_file, capsys):
        out_file = tmp_path / "stripped.din"
        assert main(
            ["compact", trace_file, "-o", str(out_file), "--filter-depth", "2"]
        ) == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "depths >= 2" in out


class TestRobustness:
    def test_policy_table(self, trace_file, capsys):
        assert main(["robustness", trace_file, "--percent", "10"]) == 0
        out = capsys.readouterr().out
        assert "fifo" in out and "plru" in out and "random" in out


class TestCost:
    def test_cost_table(self, trace_file, capsys):
        assert main(["cost", trace_file, "--budget", "5"]) == 0
        out = capsys.readouterr().out
        assert "Run energy" in out
        assert "min energy" in out


class TestEmitUnified:
    def test_unified_kind(self, tmp_path, capsys):
        out_file = tmp_path / "u.din"
        assert main(
            ["emit", "crc", "--kind", "unified", "--scale", "tiny",
             "-o", str(out_file)]
        ) == 0
        from repro.trace.io import read_trace
        from repro.trace.reference import AccessKind

        trace = read_trace(out_file)
        kinds = {trace.kind(i) for i in range(len(trace))}
        assert AccessKind.FETCH in kinds
        assert AccessKind.READ in kinds


class TestEmitInstructionKinds:
    def test_instruction_lines_are_labelled_fetch(self, tmp_path, capsys):
        """dinero label 2 marks an instruction fetch (docs/isa.md)."""
        out_file = tmp_path / "crc.inst.din"
        assert main(
            ["emit", "crc", "--kind", "inst", "--scale", "tiny", "-o", str(out_file)]
        ) == 0
        lines = out_file.read_text().splitlines()
        assert lines
        assert all(line.startswith("2 ") for line in lines)

    def test_fetch_labels_leave_the_digest_alone(self):
        from repro.store.keys import trace_digest
        from repro.trace.reference import AccessKind
        from repro.trace.trace import Trace
        from repro.workloads import run_workload_by_name

        inst = run_workload_by_name("crc", scale="tiny").instruction_trace
        assert set(inst.kinds) == {AccessKind.FETCH}
        untyped = Trace(inst.addresses, address_bits=inst.address_bits)
        assert trace_digest(inst) == trace_digest(untyped)


class TestPhases:
    def test_phase_table(self, trace_file, capsys):
        assert main(
            ["phases", trace_file, "--percent", "10", "--phases", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "phase exploration: 3 phases" in out
        assert "Words saved" in out


class TestHierarchy:
    def test_l2_table(self, trace_file, capsys):
        assert main(
            [
                "hierarchy", trace_file,
                "--percent", "10", "--l1-depth", "8",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "L1 (D=8" in out
        assert "optimal L2 instances" in out


class TestConflicts:
    def test_conflict_table(self, trace_file, capsys):
        assert main(["conflicts", trace_file, "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "conflicting rows" in out or "conflict-free" in out

    def test_conflict_free_message(self, tmp_path, capsys):
        from repro.trace.io import write_trace
        from repro.trace.synthetic import loop_nest_trace

        path = tmp_path / "loop.din"
        write_trace(loop_nest_trace(8, 5), path)
        assert main(["conflicts", str(path), "--depth", "8"]) == 0
        assert "conflict-free" in capsys.readouterr().out


class TestCurves:
    def test_capacity_curve_csv(self, trace_file, capsys):
        assert main(["curves", trace_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("capacity_words,misses,depth,associativity")

    def test_associativity_curve_to_file(self, tmp_path, trace_file, capsys):
        out_file = tmp_path / "c.csv"
        assert main(
            ["curves", trace_file, "--depth", "4", "-o", str(out_file)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        assert out_file.read_text().startswith("associativity,misses")


class TestDisasm:
    def test_lists_kernel(self, capsys):
        assert main(["disasm", "crc", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "crc:" in out
        assert "halt" in out
        assert "expected checksum" in out


class TestReport:
    def test_report_to_stdout(self, trace_file, capsys):
        assert main(["report", trace_file]) == 0
        out = capsys.readouterr().out
        assert "# Cache design report" in out
        assert "energy-optimal" in out

    def test_report_to_file(self, tmp_path, trace_file, capsys):
        out_file = tmp_path / "r.md"
        assert main(["report", trace_file, "-o", str(out_file)]) == 0
        assert "wrote report" in capsys.readouterr().out
        assert "## Trace statistics" in out_file.read_text()


class TestPaperExample:
    def test_prints_all_artifacts(self, capsys):
        assert main(["paper-example"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "(D=2, A=3)" in out


class TestCache:
    def test_explore_twice_warm_start_identical_json(
        self, tmp_path, trace_file, capsys
    ):
        import json

        cache_dir = str(tmp_path / "store")
        argv = [
            "explore", trace_file, "--budget", "5", "--json",
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold  # byte-identical result JSON
        json.loads(warm)

    def test_cache_stats_clear_and_prune(self, tmp_path, trace_file, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(
            ["explore", trace_file, "--budget", "5", "--cache-dir", cache_dir]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 4" in out
        for stage in ("histograms", "mrct", "stripped", "zerosets"):
            assert stage in out
        assert main(
            ["cache", "prune", "--cache-dir", cache_dir, "--max-bytes", "1"]
        ) == 0
        assert "evicted 4" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 0 entries" in capsys.readouterr().out

    def test_cache_stats_json(self, tmp_path, trace_file, capsys):
        import json

        cache_dir = str(tmp_path / "store")
        assert main(
            ["explore", trace_file, "--budget", "0", "--cache-dir", cache_dir]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["entries"] == 4
        assert summary["root"] == cache_dir

    def test_env_var_enables_and_no_cache_disables(
        self, tmp_path, trace_file, capsys, monkeypatch
    ):
        cache_dir = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(
            ["explore", trace_file, "--budget", "0", "--no-cache"]
        ) == 0
        assert not cache_dir.exists()
        assert main(["explore", trace_file, "--budget", "0"]) == 0
        assert cache_dir.is_dir()

    def test_profile_manifest_records_store_counters(
        self, tmp_path, trace_file, capsys
    ):
        import json

        cache_dir = str(tmp_path / "store")
        argv = [
            "profile", trace_file, "--budget", "5", "--json", "--no-memory",
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["counters"].get("store_bytes_written", 0) > 0
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["counters"]["store_hits"] > 0

    def test_help_lists_registry_engines(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "serial, parallel, parallel-shm, streaming, vectorized, auto" in out
        assert "bitmask -> serial" in out


class TestParser:
    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_explore_requires_a_budget_flag(self, trace_file):
        with pytest.raises(SystemExit):
            main(["explore", trace_file])


class TestScenarioFlags:
    def test_explore_help_groups_scenario_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["explore", "--help"])
        out = capsys.readouterr().out
        assert "scenario options" in out
        assert "--policy" in out and "--l2-depth" in out
        assert "--cost-model" in out

    def test_fifo_policy_noted_in_the_table(self, trace_file, capsys):
        assert main(
            ["explore", trace_file, "--budget", "5", "--policy", "fifo"]
        ) == 0
        out = capsys.readouterr().out
        assert "policy: fifo" in out
        assert "Depth D" in out

    def test_l2_and_cost_sections_print(self, trace_file, capsys):
        assert main(
            ["explore", trace_file, "--percent", "10",
             "--l2-depth", "8", "--cost-model", "energy"]
        ) == 0
        out = capsys.readouterr().out
        assert "L2 instances behind L1" in out
        assert "cost ranking (energy)" in out

    def test_baseline_json_has_no_scenario_key(self, trace_file, capsys):
        import json

        assert main(
            ["explore", trace_file, "--budget", "5", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert "scenario" not in document

    def test_scenario_json_carries_the_section(self, trace_file, capsys):
        import json

        assert main(
            ["explore", trace_file, "--budget", "5", "--json",
             "--policy", "fifo", "--cost-model", "area"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["scenario"]["policy"] == "fifo"
        assert document["scenario"]["cost"]["model"] == "area"

    def test_bad_l2_depth_fails_cleanly(self, trace_file, capsys):
        assert main(
            ["explore", trace_file, "--budget", "5", "--l2-depth", "3"]
        ) == 1
        assert "explore failed" in capsys.readouterr().err

    def test_stream_materializes_for_scenarios(self, trace_file, capsys):
        assert main(
            ["stream", trace_file, "--budget", "5", "--policy", "fifo"]
        ) == 0
        captured = capsys.readouterr()
        assert "materializing" in captured.err
        assert "policy fifo" in captured.out

    def test_submit_and_stream_expose_the_flags(self, capsys):
        for command in ("submit", "stream"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            out = capsys.readouterr().out
            assert "--policy" in out and "--l2-depth" in out

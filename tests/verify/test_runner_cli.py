"""The verification runner and its CLI, including the acceptance path:
an injected fault must come back as a shrunk (<= 32 reference)
reproducer persisted to the failure corpus and replayed on later runs.
"""

import json
import os

import pytest

from repro.cli import _parse_time_budget, main
from repro.core.instance import CacheInstance, ExplorationResult
from repro.obs import validate_manifest
from repro.verify import REPORT_SCHEMA, VerifyConfig, run_verify
from repro.verify.corpus import load_corpus
from repro.verify.oracle import GridCell


def _bump_tamper(target_engine="vectorized", target_prelude="fast"):
    """Corrupt one engine/prelude combination's last emitted instance."""

    def tamper(cell, result):
        if (
            cell.engine == target_engine
            and cell.prelude == target_prelude
            and len(result.instances) > 1
        ):
            instances = list(result.instances)
            last = instances[-1]
            instances[-1] = CacheInstance(
                depth=last.depth, associativity=last.associativity + 1
            )
            return ExplorationResult(
                budget=result.budget,
                instances=instances,
                misses=list(result.misses),
                trace_name=result.trace_name,
            )
        return result

    return tamper


class TestRunner:
    def test_healthy_run_is_clean(self):
        report = run_verify(VerifyConfig(max_traces=10, laws="rotate"))
        assert report.ok
        assert report.traces == 10
        assert report.stopped_by == "max-traces"
        assert report.grid[0] == "serial/python/cold"
        assert report.cells == 10 * len(report.grid)
        assert report.counters()["verify_traces"] == 10

    def test_time_budget_stops_the_run(self):
        report = run_verify(
            VerifyConfig(time_budget_s=0.001, laws="none")
        )
        assert report.stopped_by == "time-budget"
        assert report.traces >= 1  # always finishes the entry in flight

    def test_anchors_only_when_unbudgeted(self):
        report = run_verify(VerifyConfig(laws="none"))
        assert report.stopped_by == "anchors-done"
        assert report.ok

    def test_report_json_document(self):
        report = run_verify(VerifyConfig(max_traces=3, laws="none"))
        doc = report.to_json_dict()
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["ok"] is True
        assert doc["counters"]["verify_traces"] == 3
        json.dumps(doc)  # serializable


class TestAcceptanceFaultInjection:
    """ISSUE acceptance: injected fault -> shrunk reproducer (<= 32 refs)
    persisted to the failure corpus."""

    def test_injected_fault_yields_persisted_shrunk_reproducer(self, tmp_path):
        report = run_verify(
            VerifyConfig(
                max_traces=8,
                corpus_dir=str(tmp_path),
                laws="none",
                fail_fast=True,
            ),
            tamper=_bump_tamper(),
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "grid"
        assert failure.cell is not None
        assert failure.cell.startswith("vectorized/fast")
        assert failure.shrunk_len is not None
        assert failure.shrunk_len <= 32
        assert failure.shrunk_len <= failure.trace_len
        assert failure.artifact is not None
        # The artifact on disk is the shrunk trace, not the original.
        artifacts = load_corpus(str(tmp_path))
        assert artifacts
        assert any(len(a.trace) == failure.shrunk_len for a in artifacts)

    def test_fixed_bug_replays_clean_and_live_bug_is_recaught(self, tmp_path):
        run_verify(
            VerifyConfig(
                max_traces=8,
                corpus_dir=str(tmp_path),
                laws="none",
                fail_fast=True,
            ),
            tamper=_bump_tamper(),
        )
        assert load_corpus(str(tmp_path))
        # Bug "fixed": the corpus replays first and comes back clean.
        clean = run_verify(
            VerifyConfig(max_traces=1, corpus_dir=str(tmp_path), laws="none")
        )
        assert clean.ok
        assert clean.corpus_replayed == 1
        # Bug still live: the replayed reproducer catches it immediately,
        # without touching the fuzz tail.
        recaught = run_verify(
            VerifyConfig(
                max_traces=1,
                corpus_dir=str(tmp_path),
                laws="none",
                fail_fast=True,
            ),
            tamper=_bump_tamper(),
        )
        assert not recaught.ok

    def test_tampered_reference_is_caught_from_both_sides(self, tmp_path):
        # Corrupt the reference cell itself: every honest cell then
        # disagrees with it (grid), and the simulator cross-check flags
        # the over-provisioned instance (minimality) as well.
        report = run_verify(
            VerifyConfig(
                max_traces=8,
                corpus_dir=str(tmp_path),
                laws="none",
                fail_fast=True,
            ),
            tamper=_bump_tamper("serial", "python"),
        )
        assert not report.ok
        kinds = {failure.kind for failure in report.failures}
        assert "grid" in kinds
        assert kinds & {"simulator", "minimality"}
        assert any(f.artifact is not None for f in report.failures)


class TestCli:
    def test_smoke_run(self, capsys):
        rc = main(["verify", "--smoke", "--no-corpus"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verify:" in out
        assert "8 traces x 12 grid cells" in out  # the full grid
        assert "all cells bit-identical" in out

    def test_json_output(self, capsys):
        rc = main(
            ["verify", "--max-traces", "3", "--no-corpus", "--json",
             "--laws", "none"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["counters"]["verify_traces"] == 3

    def test_report_file_and_profile_manifest(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        manifest_path = tmp_path / "manifest.json"
        rc = main(
            [
                "verify", "--max-traces", "4", "--no-corpus",
                "--laws", "rotate",
                "-o", str(report_path),
                "--profile", str(manifest_path),
            ]
        )
        assert rc == 0
        with open(report_path) as fh:
            report_doc = json.load(fh)
        assert report_doc["ok"] is True
        with open(manifest_path) as fh:
            manifest_doc = json.load(fh)
        validate_manifest(manifest_doc)  # structure + timing invariant
        assert manifest_doc["verify"]["verify_traces"] == 4
        assert manifest_doc["verify"]["verify_failures"] == 0
        assert manifest_doc["engine"] == "verify-grid"

    def test_engine_subset_flags(self, capsys):
        rc = main(
            ["verify", "--max-traces", "2", "--no-corpus", "--laws", "none",
             "--engines", "vectorized", "--preludes", "fast", "--no-warm",
             "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "vectorized/fast/cold" in doc["grid"]
        assert all(not cell.endswith("/warm") for cell in doc["grid"])

    def test_corpus_dir_flag_persists_crashes(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        rc = main(
            ["verify", "--max-traces", "2", "--laws", "none",
             "--corpus-dir", str(corpus)]
        )
        assert rc == 0  # healthy engines: nothing persisted, dir untouched
        assert not load_corpus(str(corpus))


class TestTimeBudgetParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [("90", 90.0), ("60s", 60.0), ("2m", 120.0), ("500ms", 0.5),
         ("1h", 3600.0), (None, None)],
    )
    def test_valid_budgets(self, text, expected):
        assert _parse_time_budget(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "-5", "0", "12q"])
    def test_invalid_budgets_exit(self, text):
        with pytest.raises(SystemExit):
            _parse_time_budget(text)


@pytest.mark.slow
class TestAcceptanceScale:
    """ISSUE acceptance: >= 25 corpus traces through the full grid with
    zero divergences, inside a 60 s budget."""

    def test_25_traces_full_grid_zero_divergences(self):
        report = run_verify(
            VerifyConfig(max_traces=25, time_budget_s=60.0, laws="all")
        )
        assert report.ok, [f.as_dict() for f in report.failures]
        assert report.traces == 25
        assert report.elapsed_s < 60.0
        assert report.cells == 25 * len(report.grid)

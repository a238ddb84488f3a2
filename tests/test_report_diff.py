"""tools/report_diff.py: verify reports compared claim by claim, exit 1 on a flipped pass."""

import importlib.util
import json
from pathlib import Path

import pytest

from cayleymap import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


@pytest.fixture
def report(tmp_path, capsys):
    path = tmp_path / "old.json"
    assert cli.main(["verify", "--suite", "degree", "--trials", "3", "--seed", "0", "--report", str(path)]) == 0
    capsys.readouterr()
    return path


def _edited(report, tmp_path, edit):
    payload = json.loads(report.read_text())
    records = {(r["claim"], r["trial"]): r for s in payload["suites"] for r in s["records"]}
    edit(records)
    path = tmp_path / "new.json"
    path.write_text(json.dumps(payload))
    return path


def test_identical_reports_are_the_zero_diff(report, capsys):
    assert report_diff.main([str(report), str(report)]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("identical, 15 records")


def test_a_moved_residual_is_listed_old_to_new_and_passes(report, tmp_path, capsys):
    def move(records):
        records["sl-fiber-elements", 1]["residual"] = 2.5e-9

    residuals = [r["residual"] for k, r in report_diff.load_records(report).items() if k[1] == "sl-fiber-elements"]
    assert max(residuals) < 2.5e-9 and residuals[1] != 2.5e-9
    assert report_diff.main([str(report), str(_edited(report, tmp_path, move))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("0 pass flag(s) flipped")
    assert lines[1:] == [
        f"  degree/sl-fiber-elements: worst residual {max(residuals)!r} -> 2.5e-09, tolerance 1e-06, 1 of 3 residuals moved"
    ]


def test_a_flipped_pass_flag_exits_1_and_names_the_record(report, tmp_path, capsys):
    def fail(records):
        rec = records["spin-fiber-count", 2]
        rec.update(residual=float("inf"), error="ConvergenceFailure: stalled")
        rec["pass"] = False

    assert report_diff.main([str(report), str(_edited(report, tmp_path, fail))]) == 1
    out = capsys.readouterr().out
    assert "1 pass flag(s) flipped" in out
    assert "degree/spin-fiber-count: worst residual 0.0 -> inf, tolerance 0.5, 1 of 3 residuals moved" in out
    assert "trial 2: pass True -> False (residual 0.0 -> inf)" in out
    assert "trial 2: error None -> 'ConvergenceFailure: stalled'" in out


def test_an_unreadable_report_exits_2(report, tmp_path, capsys):
    assert report_diff.main([str(report), str(tmp_path / "missing.json")]) == 2
    assert "error: FileNotFoundError" in capsys.readouterr().err


def test_two_trees_run_verify_at_each_seed(capsys, monkeypatch):
    # the checkout against itself: one report per tree and seed, and the zero diff; one trial keeps it short
    monkeypatch.setattr(report_diff, "TRIALS", 1)
    assert report_diff.main(["--trees", str(ROOT), str(ROOT), "--seeds", "0", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["seed 0: identical, 44 records", "seed 1: identical, 44 records"]

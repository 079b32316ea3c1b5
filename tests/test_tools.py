"""tools/ab_pairs.py's parsing and summary, on canned perfbench output: no
subprocess and no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _stdout(wall, setup=0.3, rss=40.0, failed=0, correct=True):
    """perfbench run.py's stdout at --trace 0, with its JSON record last."""
    rec = {"correct": correct, "attempted": 16, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return (f'machine {{"nproc": 2}}\nworkload=shadow_step seed=0 passes=8\n'
            f"wall_s = {wall!r} s\nfailed_runs = {failed} of 16 runs attempted\n"
            f"{json.dumps(rec)}\n")


def _pairs(parent_walls, change_walls, **change):
    return [{"parent": ab_pairs.record(_stdout(p)),
             "change": ab_pairs.record(_stdout(c, **change))}
            for p, c in zip(parent_walls, change_walls)]


def _row(lines, name):
    return next(line.split() for line in lines if line.startswith(name + " "))


def test_record_is_the_last_stdout_line():
    rec = ab_pairs.record(_stdout(0.2))
    assert rec["metrics"]["wall_s"] == {"value": 0.2, "unit": "s"}
    for bad in ("", "wall_s = 0.2 s\n", "machine {}\n[1, 2]\n"):
        with pytest.raises(ValueError):
            ab_pairs.record(bad)


def test_summary_reads_medians_iqr_ratio_and_wins():
    lines, ok = ab_pairs.summary(_pairs([0.20, 0.22, 0.24, 0.26], [0.16, 0.18, 0.25, 0.17]))
    assert ok
    # wall_s: parent median 0.23, IQR 0.245 - 0.215; change median 0.175,
    # IQR 0.1975 - 0.1675; ratio 0.175/0.23; the change won pairs 1, 2, 4
    row = _row(lines, "wall_s")
    assert row[1:] == ["0.23", "s", "0.03", "0.175", "s", "0.03", "0.761", "3/4"]
    # equal values win no pair
    assert _row(lines, "setup_s")[-2:] == ["1.000", "0/4"]
    assert _row(lines, "peak_rss_mb")[1:3] == ["40", "MB"]
    assert lines[-2:] == ["parent: 0 failed of 64 runs attempted; 0 of 4 runs not correct",
                          "change: 0 failed of 64 runs attempted; 0 of 4 runs not correct"]


def test_summary_of_one_pair_has_zero_iqr():
    row = _row(ab_pairs.summary(_pairs([0.2], [0.3]))[0], "wall_s")
    assert row[1:] == ["0.2", "s", "0", "0.3", "s", "0", "1.500", "0/1"]


@pytest.mark.parametrize("change", [{"failed": 1}, {"correct": False}],
                         ids=["failed_runs", "not_correct"])
def test_summary_fails_on_a_failed_or_incorrect_run(change):
    lines, ok = ab_pairs.summary(_pairs([0.2, 0.2], [0.1, 0.1], **change))
    assert not ok
    failed, incorrect = (2, 0) if "failed" in change else (0, 2)
    assert lines[-1] == (f"change: {failed} failed of 32 runs attempted; "
                         f"{incorrect} of 2 runs not correct")

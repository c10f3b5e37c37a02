"""tools/pairs.py: the summary of paired benchmark runs, on fixed numbers."""

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import pairs  # noqa: E402

BETTER = {"items_per_s": "higher", "item_p50_ms": "lower"}
BOUND = {"items_per_s": 0.25, "item_p50_ms": 0.25}
PARENT = {"items_per_s": [100, 110, 90, 105, 95], "item_p50_ms": [10, 10, 12, 11, 9]}
CHANGE = {"items_per_s": [120, 125, 115, 118, 130], "item_p50_ms": [10, 9, 11, 12, 8]}


def _pairs():
    return [({m: PARENT[m][i] for m in BETTER}, {m: CHANGE[m][i] for m in BETTER})
            for i in range(5)]


def test_summary_counts_wins_and_judges_the_claim():
    rows = {r["metric"]: r for r in pairs.summary(_pairs(), BETTER, BOUND)}
    items = rows["items_per_s"]
    assert items["parent"] == (95, 100, 105) and items["change"] == (118, 120, 125)
    assert (items["wins"], items["losses"], items["pairs"]) == (5, 0, 5)
    assert items["rel"] == pytest.approx(0.2)
    # 20 more than the parent's median, beyond its interquartile range of 10
    assert items["claim"]
    p50 = rows["item_p50_ms"]
    assert p50["parent"] == (10, 10, 11) and p50["change"] == (9, 10, 11)
    # lower is better: 3 wins, 1 loss and a tie that counts for neither
    assert (p50["wins"], p50["losses"]) == (3, 1)
    assert p50["rel"] == 0 and not p50["claim"]
    assert not items["worse"] and not p50["worse"]


def test_worse_needs_the_median_past_the_bound():
    # medians 100 and 10 with a bound of 25%: 75 and 12.5 are the edges
    parent = {"higher": [95.0, 100.0, 130.0], "lower": [9.0, 10.0, 30.0]}
    for better, change, worse in (("higher", [70.0, 76.0, 200.0], False),
                                  ("higher", [60.0, 74.0, 200.0], True),
                                  ("higher", [150.0, 160.0, 170.0], False),
                                  ("lower", [1.0, 12.4, 12.6], False),
                                  ("lower", [12.0, 12.6, 13.0], True),
                                  ("lower", [5.0, 5.0, 5.0], False)):
        got = pairs.summary([({"x": p}, {"x": c}) for p, c in zip(parent[better], change)],
                            {"x": better}, {"x": 0.25})
        assert (got[0]["bound"], got[0]["worse"]) == (0.25, worse), (better, change)


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    parent = [100.0] * 9 + [104.0]
    for change, claim in (([110.0] * 10, True),
                          ([110.0] * 8 + [90.0] * 2, False),  # 8 of 10 pairs
                          ([100.5] * 10, True),  # the parent's IQR is 0
                          ([99.0] * 10, False)):
        got = pairs.summary([({"x": p}, {"x": c}) for p, c in zip(parent, change)],
                            {"x": "higher"}, {"x": 0.25})
        assert got[0]["claim"] is claim, change


def test_one_pair_has_its_value_as_every_quartile():
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_format_prints_one_line_per_metric():
    lines = pairs.format_rows(pairs.summary(_pairs(), BETTER, BOUND))
    assert len(lines) == 3
    assert lines[1].split() == ["items_per_s", "100", "[95,", "105]", "120", "[118,", "125]",
                                "+20.0%", "5/5", "0", "met", "within", "25%"]
    assert lines[2].split()[-7:] == ["+0.0%", "3/5", "1", "not", "met", "within", "25%"]
    worse = pairs.summary([({"x": 10.0}, {"x": 13.0})], {"x": "lower"}, {"x": 0.25})
    assert pairs.format_rows(worse)[1].split()[-2:] == ["beyond", "25%"]


def test_failures_are_summed_per_side():
    assert pairs.format_failures({"parent": (0, 9120), "change": (3, 9300)}) == (
        "failed items: parent 0 of 9120 (0.00%), change 3 of 9300 (0.03%)")
    assert pairs.format_failures({"parent": (0, 0), "change": (0, 0)}) == (
        "failed items: parent 0 of 0, change 0 of 0")


def test_pairs_alternate_which_side_runs_first(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((str(checkout), workload, seed))
        side = PARENT if str(checkout) == "old" else CHANGE
        # the change fails one item in the pair of seed 41
        failed = int(str(checkout) == "new" and seed == 41)
        return {m: side[m][seed - 40] for m in BETTER}, failed, 100 + seed
    monkeypatch.setattr(pairs, "run", fake_run)
    assert pairs.main(["old", "new", "--workload", "mine", "--pairs", "4", "--seed", "40"]) == 0
    assert calls == [("old", "mine", 40), ("new", "mine", 40), ("new", "mine", 41),
                     ("old", "mine", 41), ("old", "mine", 42), ("new", "mine", 42),
                     ("new", "mine", 43), ("old", "mine", 43)]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "mine: 4 pairs, seeds 40..43"
    assert [line.split()[0] for line in out[2:-1]] == ["items_per_s", "item_p50_ms"]
    assert out[-1] == "failed items: parent 0 of 566 (0.00%), change 1 of 566 (0.18%)"


def test_cached_bytecode_in_either_checkout_stops_the_run(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(pairs, "run", lambda checkout, workload, seed: (
        calls.append(seed) or ({m: PARENT[m][0] for m in BETTER}, 0, 1)))
    sides = [tmp_path / side for side in ("parent", "change")]
    argv = [*map(str, sides), "--workload", "mine", "--pairs", "1", "--seed", "5"]
    for side in sides:
        (side / "src" / "charideals").mkdir(parents=True)
        (side / "perfbench").mkdir()
        (side / "tests" / "__pycache__").mkdir(parents=True)  # src/ and perfbench/ only count
    assert pairs.main(argv) == 0 and calls == [5, 5]
    for side in sides:
        for folder in (side / "src" / "charideals", side / "perfbench"):
            cache = folder / "__pycache__"
            cache.mkdir()
            with pytest.raises(SystemExit, match="^error: cached bytecode would lower setup_s "
                                                 f"on one side; remove {re.escape(str(cache))}"):
                pairs.main(argv)
            cache.rmdir()
    assert calls == [5, 5]


def test_runs_write_no_bytecode_into_the_checkout(tmp_path, monkeypatch):
    # a run that cached the bytecode it imports would stop the next pairs.py
    # on the same checkout, and time every later pair with its compiling spared
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (tmp_path / "src").mkdir()
    (bench / "sibling.py").write_text('RESULT = {"failed": 0, "attempted": 1, "metrics": {}}\n')
    (bench / "run.py").write_text("import json\nimport sibling\nprint(json.dumps(sibling.RESULT))\n")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert pairs.run(tmp_path, "mine", 1) == ({}, 0, 1)
    assert pairs.cached_bytecode(tmp_path) == []

"""The benchmark harness in perfbench/ against the library in src/.

The harness imports, calls and patches library names; running one traced
ideal-chain round here makes an API change that breaks it fail in the
test suite rather than only in the benchmark.
"""

from pathlib import Path

from charideals import ztideal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_ideal_chain_round_traced_and_untraced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    add = ztideal.GroebnerBuilder.add
    out = child.chain(1, 1, True)
    assert out["untraced"]["spans"] and out["traced"]["spans"]
    assert out["untraced"]["errors"] == []
    assert out["traced"]["errors"] == []
    records = out["trace"]["records"]
    assert records["graph_ideals.characteristic_ideal"][0] > 0
    # patched and restored, though the lattice engine makes no call to it
    assert "ztideal.GroebnerBuilder.add" in records
    assert ztideal.GroebnerBuilder.add is add

"""tools/sameout.py: the comparison on fixed outputs, and one command run
end to end in copies of the checkout."""

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import sameout  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_same_results_report_nothing():
    results = {"a": (0, b"C^\n", b""), "b": (1, b"", b"error: x\n")}
    assert sameout.differences(results, dict(results)) == []


def test_each_differing_part_shows_both_sides():
    parent = {"same": (0, b"x\n", b""), "code": (0, b"x\n", b""),
              "streams": (1, b"a\nb\nc\n", b"error: e\n")}
    change = {"same": (0, b"x\n", b""), "code": (3, b"x\n", b""),
              "streams": (1, b"a\nB\nc\n", b"error: e; close matches: f\n")}
    assert sameout.differences(parent, change) == [
        "differs: code",
        "  exit code: parent 0",
        "             change 3",
        "differs: streams",
        "  stdout: parent b'b\\n'",
        "          change b'B\\n'",
        "  stderr: parent b'error: e\\n'",
        "          change b'error: e; close matches: f\\n'",
    ]


def test_a_missing_line_shows_as_empty():
    diff = sameout.differences({"c": (0, b"a\n", b"")}, {"c": (0, b"a\nb\n", b"")})
    assert diff == ["differs: c", "  stdout: parent b''", "          change b'b\\n'"]


def test_labels_are_unique_and_name_the_threads():
    assert sameout.label(["catalog", "emit", " Family-F"], "", "1") == (
        "charideals catalog emit ' Family-F'")
    assert sameout.label(["classify", "-"], "bad lines", "2") == (
        "GRAPHTOOL_THREADS=2 charideals classify - < bad lines")
    assert sameout.label([], "", "1") == "charideals"


def test_one_command_runs_in_each_checkout_without_writing_bytecode(tmp_path, monkeypatch,
                                                                   capsys):
    sides = [tmp_path / side for side in ("parent", "change")]
    for side in sides:
        shutil.copytree(ROOT / "src", side / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    main = sides[1] / "src" / "charideals" / "__main__.py"
    main.write_text(main.read_text(encoding="utf-8").replace(
        "sys.exit(main())", "sys.stderr.write('changed\\n')\n    sys.exit(main())"),
        encoding="utf-8")
    monkeypatch.setattr(sameout, "commands", lambda parent: [
        ("charideals catalog emit diamond", ["catalog", "emit", "diamond"], "", "1")])
    assert sameout.run(sides[0], ["catalog", "emit", "diamond"]) == (0, b"C^\n", b"")
    assert sameout.main([str(sides[0]), str(sides[0])]) == 0
    assert capsys.readouterr().out == "1 commands, 0 differ\n"
    assert sameout.main([str(side) for side in sides]) == 1
    assert capsys.readouterr().out == (
        "differs: charideals catalog emit diamond\n"
        "  stderr: parent b''\n"
        "          change b'changed\\n'\n"
        "1 commands, 1 differ\n")
    assert [p for side in sides for p in side.rglob("__pycache__")] == []


def test_classify_streams_come_from_the_benchmark_inputs():
    streams = sameout.classify_streams(ROOT)
    assert len(streams) == sameout.STREAMS == 10
    assert all(lines and all(isinstance(g6, str) and g6 for g6 in lines) for lines in streams)

"""Command line behaviour: output bytes, exit codes, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubecats
from cubecats.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.err


def run_child(script):
    src = str(Path(cubecats.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_build_twisted_square_dot(capsys):
    code, out, _ = run_cli(capsys, "build", "--kind", "twisted", "--n", "2", "--out", "dot")
    assert code == 0
    assert out == (
        "digraph T2 {\n"
        "  rankdir=LR;\n"
        '  "01";\n'
        '  "00";\n'
        '  "10";\n'
        '  "11";\n'
        '  "00" -> "10" [label="⟨0, 0⟩"];\n'
        '  "01" -> "11" [label="⟨0, 1⟩"];\n'
        '  "01" -> "00" [label="⟨1, 0⟩"];\n'
        '  "10" -> "11" [label="⟨1, 1⟩"];\n'
        "}\n"
    )


def test_build_zero_cube_json(capsys):
    code, out, _ = run_cli(capsys, "build", "--kind", "standard", "--n", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"dimension": 0, "vertices": [""], "edges": [["", ""]]}


def test_build_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "build", "--kind", "twisted", "--n", "3")
    _, second, _ = run_cli(capsys, "build", "--kind", "twisted", "--n", "3")
    assert first == second


def test_build_verify_iso_flag(capsys):
    code, out, err = run_cli(
        capsys, "build", "--kind", "twisted", "--n", "3", "--def", "rec", "--verify-iso"
    )
    assert code == 0
    assert "isomorphic" in err
    json.loads(out)


def test_cli_runs_without_networkx():
    script = (
        'import sys; sys.modules["networkx"] = None\n'
        "from cubecats.cli import main\n"
        'code = main(["check", "--suite", "all", "--max-dim", "2"])\n'
        'code |= main(["build", "--kind", "twisted", "--n", "3", "--verify-iso"])\n'
        "sys.exit(code)\n"
    )
    proc = run_child(script)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_build_usage_errors(capsys):
    code, err = run_cli_error(capsys, "build", "--kind", "standard", "--n", "9")
    assert code == 2
    code, err = run_cli_error(
        capsys, "build", "--kind", "standard", "--n", "5", "--out", "dot"
    )
    assert code == 2
    code, err = run_cli_error(
        capsys, "build", "--kind", "standard", "--n", "2", "--def", "rec", "--out", "dot"
    )
    assert code == 2


def test_homs_bchop_one_one(capsys):
    code, out, _ = run_cli(capsys, "homs", "--cat", "bchop", "1", "1")
    assert code == 0
    assert out.splitlines() == [
        '{"m": 1, "n": 1, "map": ["j0"]}',
        '{"m": 1, "n": 1, "map": ["b0"]}',
        '{"m": 1, "n": 1, "map": ["b1"]}',
    ]


def test_homs_ternary_plain_strings(capsys):
    code, out, _ = run_cli(capsys, "homs", "--cat", "ternary", "1", "1")
    assert code == 0
    assert out.splitlines() == ["0", "1", "*"]


def test_homs_capacity_exit_three(capsys):
    # the frontier of partial maps from the 5-cube outgrows MAX_FRONTIER bytes
    code, out, err = run_cli(capsys, "homs", "--cat", "graphcube", "5", "4")
    assert code == 3
    assert out == ""
    assert "capacity" in err
    # refused before the 2^20-vertex cube is built
    code, out, err = run_cli(capsys, "homs", "--cat", "graphcube", "20", "0")
    assert code == 3
    assert out == ""
    assert "dimension at most 8" in err


def test_compose_ternary_examples(capsys):
    for g, f, want in [
        ("0**", "1*", "00*"),
        ("***", "01*", "01*"),
        ("**", "00", "00"),
        ("0**", "00", "010"),
    ]:
        code, out, _ = run_cli(capsys, "compose", "--cat", "ternary", g, f)
        assert code == 0
        assert out == want + "\n"


def test_compose_untwisted_example(capsys):
    code, out, _ = run_cli(capsys, "compose", "--cat", "untwisted", "0**", "1*")
    assert code == 0
    assert out == "01*\n"


def test_compose_bch_json(capsys):
    g = '{"m": 2, "n": 1, "map": ["j0", "b1"]}'
    f = '{"m": 1, "n": 2, "map": ["j1"]}'
    code, out, _ = run_cli(capsys, "compose", "--cat", "bch", g, f)
    assert code == 0
    assert out == '{"m": 1, "n": 1, "map": ["b1"]}\n'


def test_compose_parse_error_reports_position(capsys):
    code, err = run_cli_error(capsys, "compose", "--cat", "ternary", "0*1", "xy")
    assert code == 2
    assert "position 0" in err


def test_compose_bch_empty_entry_usage_error(capsys):
    g = '{"m": 1, "n": 1, "map": [""]}'
    f = '{"m": 1, "n": 1, "map": ["j0"]}'
    code, err = run_cli_error(capsys, "compose", "--cat", "bch", g, f)
    assert code == 2
    assert "map entry 0: expected j<k> or b<k>, got ''" in err


_NESTED = "[" * 100_000
_BCH_ID = '{"m": 1, "n": 1, "map": ["j0"]}'
# export inputs, written to files named by these keys
_GRAPH_FILES = {
    "NESTED_FILE": _NESTED,
    "STRING_VERTICES": '{"dimension": 1, "vertices": "01", "edges": [["0", "1"]]}',
    "OBJECT_VERTICES": '{"dimension": 1, "vertices": {"0": 1, "1": 2}, "edges": [["0", "1"]]}',
    "BOOL_DIMENSION": '{"dimension": true, "vertices": ["0", "1"], "edges": [["0", "1"]]}',
}


@pytest.mark.parametrize(
    "argv",
    [
        ["compose", "--cat", "bch", '{"m": 1e400, "n": 1, "map": ["j0"]}', _BCH_ID],
        ["compose", "--cat", "bch", _NESTED, _BCH_ID],
        ["export", "--in", "NESTED_FILE"],
        ["compose", "--cat", "bch", '{"m": 1, "n": -1, "map": ["j0"]}', _BCH_ID],
        ["compose", "--cat", "bch", '{"m": 1.7, "n": 1, "map": ["j0"]}', _BCH_ID],
        ["compose", "--cat", "bch", '{"m": true, "n": 1, "map": ["j0"]}', _BCH_ID],
        ["export", "--in", "STRING_VERTICES"],
        ["export", "--in", "OBJECT_VERTICES"],
        ["export", "--in", "BOOL_DIMENSION"],
        ["compose", "--cat", "bch", '{"m": 1, "n": 1, "map": ["j 0"]}', _BCH_ID],
        ["compose", "--cat", "bch", '{"m": 1, "n": 1, "map": ["j+0"]}', _BCH_ID],
        ["compose", "--cat", "bch", '{"m": 1, "n": 1, "map": ["j\u0660"]}', _BCH_ID],
        ["compose", "--cat", "bch", '{"m": 1, "n": 1, "map": ["b0_1"]}', _BCH_ID],
        ["compose", "--cat", "bch", _BCH_ID, '{"m": 0, "n": 1, "map": ""}'],
    ],
    ids=[
        "bch-overflow", "bch-nesting", "export-nesting", "bch-negative", "bch-float", "bch-bool",
        "export-string-vertices", "export-object-vertices", "export-bool-dimension",
        "bch-space", "bch-sign", "bch-arabic-indic-digit", "bch-underscore", "bch-string-map",
    ],
)
def test_malformed_input_usage_error(capsys, tmp_path, argv):
    for name, text in _GRAPH_FILES.items():
        (tmp_path / name).write_text(text)
    code, err = run_cli_error(capsys, *(str(tmp_path / a) if a in _GRAPH_FILES else a for a in argv))
    assert code == 2
    assert err.startswith("usage:")
    assert "Traceback" not in err


def test_compose_dimension_mismatch(capsys):
    # g wants three inputs but f only provides two
    code, err = run_cli_error(capsys, "compose", "--cat", "ternary", "***", "0*")
    assert code == 2


def test_table_ternary(capsys):
    code, out, _ = run_cli(capsys, "table", "--cat", "ternary", "--max-dim", "2")
    assert code == 0
    assert out == "m=0: [1, 2, 4]\nm=1: [1, 3, 8]\nm=2: [1, 3, 9]\n"


def test_table_capacity(capsys):
    # hom(0, 9) has a 512-vertex target, more than uint8 rows can index
    code, out, err = run_cli(capsys, "table", "--cat", "twcubecat", "--max-dim", "9")
    assert code == 3
    assert out == ""
    assert "at most 256 target vertices" in err


def test_check_iso_suite_passes(capsys):
    code, out, err = run_cli(capsys, "check", "--suite", "iso", "--max-dim", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [rep["check"] for rep in lines] == [
        "isomorphism[bchop~graphmeet]",
        "isomorphism[ternary~twgraphdim]",
    ]
    assert all(rep["passed"] for rep in lines)
    assert all("elapsed" not in rep for rep in lines)
    assert "2/2 checks passed" in err


def test_check_stdout_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "check", "--suite", "laws", "--max-dim", "2")
    _, second, _ = run_cli(capsys, "check", "--suite", "laws", "--max-dim", "2")
    assert first == second
    assert len(first.splitlines()) == 9


@pytest.mark.parametrize("max_dim, exit_code", [(3, 0), (4, 0)])
def test_check_all_stdout_matches_golden(capsys, max_dim, exit_code):
    # dimension 3 was recorded before the meet/join and dimension masks
    # became constraints of the hom enumeration, dimension 4 when its last
    # capacity skips went; neither may change
    golden = Path(__file__).parent / "golden" / f"check_all_max_dim_{max_dim}.txt"
    code, out, _ = run_cli(capsys, "check", "--suite", "all", "--max-dim", str(max_dim))
    assert code == exit_code
    assert out.encode() == golden.read_bytes()


def test_check_capacity_skip_exit_three():
    # a new process, so no hom-set cached by another test hides the limit
    proc = run_child(
        "import sys\n"
        "from cubecats import kernels\n"
        "from cubecats.cli import main\n"
        "kernels.MAX_FRONTIER = 2**12\n"
        'sys.exit(main(["check", "--suite", "twisted", "--max-dim", "4"]))\n'
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    skipped = [json.loads(l) for l in proc.stdout.splitlines() if "skipped" in l]
    assert skipped and all(s["skipped"] == "capacity" for s in skipped)
    assert all("bytes, over the limit of 4096" in s["reason"] for s in skipped)


def test_check_rejects_large_dim(capsys):
    code, _ = run_cli_error(capsys, "check", "--max-dim", "5")
    assert code == 2


def test_export_round_trip_identical(tmp_path, capsys):
    code, original, _ = run_cli(capsys, "build", "--kind", "twisted", "--n", "3")
    path = tmp_path / "t3.json"
    path.write_text(original)
    code, out, _ = run_cli(capsys, "export", "--in", str(path), "--out", "json")
    assert code == 0
    assert out == original


def test_export_detects_twisted_cube_for_dot(tmp_path, capsys):
    _, original, _ = run_cli(capsys, "build", "--kind", "twisted", "--n", "2")
    path = tmp_path / "t2.json"
    path.write_text(original)
    _, dot_direct, _ = run_cli(capsys, "build", "--kind", "twisted", "--n", "2", "--out", "dot")
    code, out, _ = run_cli(capsys, "export", "--in", str(path), "--out", "dot")
    assert code == 0
    assert out == dot_direct


def test_export_plain_graph_dot(tmp_path, capsys):
    payload = {"dimension": 1, "vertices": ["0", "1"], "edges": [["1", "0"], ["0", "0"]]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "export", "--in", str(path), "--out", "dot")
    assert code == 0
    assert out == 'digraph G {\n  rankdir=LR;\n  "0";\n  "1";\n  "1" -> "0";\n}\n'


def test_export_unreadable_input_usage_error(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for path in (tmp_path / "missing.json", tmp_path, binary):
        code, err = run_cli_error(capsys, "export", "--in", str(path))
        assert code == 2
        assert f"cannot read {path}" in err


def test_export_invalid_json_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 1, "vertices": ["0"], "edges": [["0", "1"]]}')
    code, err = run_cli_error(capsys, "export", "--in", str(path))
    assert code == 2

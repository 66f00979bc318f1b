"""Command line behaviour: output bytes, exit codes, round trips."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubecats
from cubecats import cli, oracle
from cubecats.cli import main
from cubecats.graphs import CapacityError
from cubecats.rows import CATEGORY_IDS, category_view


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.err


def child_env():
    src = str(Path(cubecats.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_child(script):
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
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
    code, out, err = run_cli(capsys, "build", "--kind", "twisted", "--n", "3", "--verify-iso")
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


@pytest.mark.parametrize("cat_id", CATEGORY_IDS)
def test_homs_prints_the_name_every_report_gives(capsys, cat_id):
    # one name per arrow: homs prints the value a counterexample gives each
    # row, the view's describe through the oracle, a string as it is and
    # any other value as JSON
    view = category_view(cat_id)
    arrows = oracle._Rows(view, range(3))
    for m in range(3):
        for n in range(3):
            code, out, _ = run_cli(capsys, "homs", "--cat", cat_id, str(m), str(n))
            assert code == 0
            names = [arrows.describe(m, n, row) for row in arrows.homs[(m, n)].rows]
            assert out.splitlines() == [
                name if isinstance(name, str) else json.dumps(name) for name in names
            ]


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
    # the same bound for a category that builds no cube
    code, out, err = run_cli(capsys, "homs", "--cat", "ternary", "9", "9")
    assert code == 3
    assert out == ""
    assert "homs lists hom-sets of dimension at most 8" in err


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


def test_compose_bch_refuses_arrows_that_do_not_compose(capsys):
    # f = g = 1 -> 2: g takes one slot, f gives two
    f = '{"m": 1, "n": 2, "map": ["j1"]}'
    code, err = run_cli_error(capsys, "compose", "--cat", "bch", f, f)
    assert code == 2
    assert "cannot compose 1->2 after 1->2" in err


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
    "REPEATED_VERTEX": '{"dimension": 1, "vertices": ["0", "1", "0"], "edges": []}',
    "REPEATED_EDGE": '{"dimension": 1, "vertices": ["0", "1"], "edges": [["0", "1"], ["0", "1"]]}',
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
        ["export", "--in", "REPEATED_VERTEX"],
        ["export", "--in", "REPEATED_EDGE"],
        ["compose", "--cat", "bch", '{"m": 1, "n": 1, "map": ["j 0"]}', _BCH_ID],
        ["compose", "--cat", "bch", '{"m": 1, "n": 1, "map": ["j+0"]}', _BCH_ID],
        ["compose", "--cat", "bch", '{"m": 1, "n": 1, "map": ["j\u0660"]}', _BCH_ID],
        ["compose", "--cat", "bch", '{"m": 1, "n": 1, "map": ["b0_1"]}', _BCH_ID],
        ["compose", "--cat", "bch", _BCH_ID, '{"m": 0, "n": 1, "map": ""}'],
        [
            "compose", "--cat", "bch",
            '{"m": 0, "n": 100000000000000000000, "map": []}', '{"m": 0, "n": 0, "map": []}',
        ],
    ],
    ids=[
        "bch-overflow", "bch-nesting", "export-nesting", "bch-negative", "bch-float", "bch-bool",
        "export-string-vertices", "export-object-vertices", "export-bool-dimension",
        "export-repeated-vertex", "export-repeated-edge",
        "bch-space", "bch-sign", "bch-arabic-indic-digit", "bch-underscore", "bch-string-map",
        "bch-huge-arity",
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
    # an input bound, as for homs: refused before any cube is built
    code, out, err = run_cli(capsys, "table", "--cat", "twcubecat", "--max-dim", "9")
    assert code == 3
    assert out == ""
    assert "dimension at most 8" in err
    # within it the kernel's frontier refuses hom(4, 5); a new process, so
    # the hom-sets listed before it are not kept by this one
    proc = run_child(
        "import sys\n"
        "from cubecats.cli import main\n"
        'sys.exit(main(["table", "--cat", "graphcube", "--max-dim", "5"]))\n'
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "frontier at source vertex" in proc.stderr


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


def test_capacity_skips_carry_their_reports_names():
    # a skip names its check as the report of an unrefused run does, step by step
    proc = run_child(
        "import sys\n"
        "from cubecats import kernels\n"
        "from cubecats.cli import main\n"
        "kernels.MAX_FRONTIER = 2**12\n"
        'sys.exit(main(["check", "--suite", "all", "--max-dim", "3"]))\n'
    )
    assert proc.returncode == 3, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    skipped = [line["check"] for line in lines if "skipped" in line]
    assert len(lines) == 18 and len(skipped) == 7
    assert all(f"SKIP {name}: " in proc.stderr for name in skipped)
    golden = Path(__file__).parent / "golden" / "check_all_max_dim_3.txt"
    unrefused = [json.loads(line)["check"] for line in golden.read_text().splitlines()]
    assert [line["check"] for line in lines] == unrefused


def test_check_laws_skips_one_category(capsys, monkeypatch):
    def refuse(m, n):
        raise CapacityError("graphcube refused")

    def view(cat_id):
        real = category_view(cat_id)
        return dataclasses.replace(real, rows=refuse) if cat_id == "graphcube" else real

    monkeypatch.setattr(cli, "category_view", view)
    code, out, _ = run_cli(capsys, "check", "--suite", "laws", "--max-dim", "2")
    assert code == 3
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["check"] for line in lines] == [f"category_laws[{c}]" for c in CATEGORY_IDS]
    skip = {
        "check": "category_laws[graphcube]", "skipped": "capacity", "reason": "graphcube refused"
    }
    assert lines[2] == skip
    assert all(line["passed"] for line in lines if line is not lines[2])


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


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("kind", ["standard", "twisted"])
def test_export_detects_twisted_cube_for_dot(tmp_path, capsys, kind, n):
    _, original, _ = run_cli(capsys, "build", "--kind", kind, "--n", str(n))
    path = tmp_path / "cube.json"
    path.write_text(original)
    # T^0 = C^0 and T^1 = C^1, and export names them C
    named = "standard" if n < 2 else kind
    _, dot_direct, _ = run_cli(capsys, "build", "--kind", named, "--n", str(n), "--out", "dot")
    code, out, _ = run_cli(capsys, "export", "--in", str(path), "--out", "dot")
    assert code == 0
    assert out == dot_direct


def test_export_names_low_twisted_cubes_standard(tmp_path, capsys):
    # T^0 = C^0 and T^1 = C^1, and export names them C
    for n in (0, 1):
        _, original, _ = run_cli(capsys, "build", "--kind", "twisted", "--n", str(n))
        path = tmp_path / f"t{n}.json"
        path.write_text(original)
        code, out, _ = run_cli(capsys, "export", "--in", str(path), "--out", "dot")
        assert code == 0
        assert out.startswith(f"digraph C{n} {{\n")


def test_export_plain_graph_dot(tmp_path, capsys):
    payload = {"dimension": 1, "vertices": ["0", "1"], "edges": [["1", "0"], ["0", "0"]]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "export", "--in", str(path), "--out", "dot")
    assert code == 0
    assert out == 'digraph G {\n  rankdir=LR;\n  "0";\n  "1";\n  "1" -> "0";\n}\n'


def test_export_dot_refuses_a_five_cube(tmp_path, capsys):
    _, original, _ = run_cli(capsys, "build", "--kind", "standard", "--n", "5")
    path = tmp_path / "c5.json"
    path.write_text(original)
    code, out, err = run_cli(capsys, "export", "--in", str(path), "--out", "dot")
    assert code == 3
    assert out == ""
    assert "dot output is limited to 16 vertices" in err


def test_export_dot_of_a_high_dimension_graph_builds_no_cube(tmp_path, capsys, monkeypatch):
    # two vertices of dimension 9 are drawn as a plain graph, with no 9-cube to compare
    built = []
    monkeypatch.setattr(cli, "standard_cube", built.append)
    monkeypatch.setattr(cli, "twisted_cube", built.append)
    u, v = "0" * 9, "1" * 9
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dimension": 9, "vertices": [u, v], "edges": [[u, v]]}))
    code, out, _ = run_cli(capsys, "export", "--in", str(path), "--out", "dot")
    assert code == 0
    assert built == []
    assert out == f'digraph G {{\n  rankdir=LR;\n  "{u}";\n  "{v}";\n  "{u}" -> "{v}";\n}}\n'


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


def test_closed_stdout_exits_141_without_traceback():
    # the reader takes one line and closes the pipe, as `| head -1` does
    argv = [sys.executable, "-m", "cubecats.cli", "homs", "--cat", "graphcube", "5", "2"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()
    ) as proc:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141, err
    assert err == ""  # no Traceback, and no "Exception ignored" at exit


def test_process_entry_writes_all_output_before_it_exits(tmp_path):
    # stdout to a file is block-buffered: what is not flushed before the
    # entry's os._exit is lost
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    entry = [sys.executable, "-m", "cubecats.cli"]
    out = tmp_path / "check.txt"
    with out.open("wb") as stdout:
        proc = subprocess.run(
            entry + ["check", "--suite", "all", "--max-dim", "3"],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("18/18 checks passed, 0 skipped\n")
    golden = Path(__file__).parent / "golden" / "check_all_max_dim_3.txt"
    assert out.read_bytes() == golden.read_bytes()
    for argv, code, message in [
        (["check", "--max-dim", "9"], 2, "--max-dim must be between 0 and 4"),
        (["homs", "--cat", "graphcube", "9", "9"], 3, "capacity error: "),
    ]:
        proc = subprocess.run(entry + argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr


ONE_OF_EACH_COMMAND = [
    ["build", "--kind", "twisted", "--n", "2"],
    ["homs", "--cat", "bch", "2", "2"],
    ["table", "--cat", "ternary", "--max-dim", "2"],
    ["compose", "--cat", "ternary", "0**", "1*"],
    ["export", "--in", "GRAPH"],
    ["check", "--suite", "twisted", "--max-dim", "1"],
]


def modules_after_main(tmp_path, argv, module):
    """Run main(argv) in a new process; its exit code and stderr end with
    whether module was loaded.  GRAPH in argv names a one-vertex graph file."""
    graph = tmp_path / "g.json"
    graph.write_text('{"dimension": 0, "vertices": [""], "edges": [["", ""]]}')
    argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]
    return run_child(
        "import sys\n"
        "from cubecats.cli import main\n"
        f"code = main({argv!r})\n"
        f"print({module!r} in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )


@pytest.mark.parametrize("argv", ONE_OF_EACH_COMMAND, ids=lambda argv: argv[0])
def test_only_check_loads_the_oracle(tmp_path, argv):
    proc = modules_after_main(tmp_path, argv, "cubecats.oracle")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == str(argv[0] == "check")


@pytest.mark.parametrize(
    "argv",
    ONE_OF_EACH_COMMAND
    + [
        ["check", "--suite", "all", "--max-dim", "3"],
        ["homs", "--cat", "graphmeet", "2", "2"],
        ["table", "--cat", "graphmeet", "--max-dim", "2"],
    ],
    ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv),
)
def test_no_command_loads_numpy_ma(tmp_path, argv):
    # np.unique imports all of numpy.ma, which no listing or check needs
    proc = modules_after_main(tmp_path, argv, "numpy.ma")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"

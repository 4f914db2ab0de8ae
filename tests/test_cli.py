import pytest

from util import one_color_solve
from wfcolor.bench import parse_csv
from wfcolor.cli import main
from wfcolor.coloring import parse_coloring, validate
from wfcolor.dimacs import load_dimacs

K3_TEXT = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def test_color_writes_a_valid_coloring(tmp_path):
    graph_path = tmp_path / "k3.col"
    graph_path.write_text(K3_TEXT)
    out = tmp_path / "k3.coloring"
    rc = main(["color", "--alg", "wfcc", "--input", str(graph_path),
               "--out", str(out)])
    assert rc == 0
    g = load_dimacs(graph_path)
    coloring = parse_coloring(out.read_text(), g.n)
    assert validate(g, coloring).ok
    assert coloring.k == 3


def test_color_to_stdout(tmp_path, capsys):
    graph_path = tmp_path / "k3.col"
    graph_path.write_text(K3_TEXT)
    assert main(["color", "--alg", "dsatur", "--input", str(graph_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(len(line.split()) == 2 for line in lines)


def test_validate_exit_codes(tmp_path, capsys):
    graph_path = tmp_path / "k3.col"
    graph_path.write_text(K3_TEXT)
    good = tmp_path / "good.txt"
    good.write_text("1 1\n2 2\n3 3\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 1\n3 2\n")
    partial = tmp_path / "partial.txt"
    partial.write_text("1 1\n")
    assert main(["validate", "--input", str(graph_path), "--coloring", str(good)]) == 0
    assert "VALID" in capsys.readouterr().out
    assert main(["validate", "--input", str(graph_path), "--coloring", str(bad)]) == 1
    assert "edge" in capsys.readouterr().out
    assert main(["validate", "--input", str(graph_path), "--coloring", str(partial)]) == 1
    assert "uncolored" in capsys.readouterr().out


def test_validate_rejects_a_color_beyond_int32(tmp_path, capsys):
    graph_path = tmp_path / "k3.col"
    graph_path.write_text(K3_TEXT)
    huge = tmp_path / "huge.txt"
    huge.write_text("1 1\n2 2\n3 2147483648\n")
    rc = main(["validate", "--input", str(graph_path), "--coloring", str(huge)])
    assert rc == 2  # a malformed file, not an INVALID (1) coloring
    assert "error: line 3: color 2147483648 out of range" in capsys.readouterr().err


def test_bench_csv_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(["bench", "--alg", "wfcc,ig", "--gen", "crown:4",
               "--reps", "2", "--format", "csv", "--out", str(out)])
    assert rc == 0
    rows = parse_csv(out.read_text())
    assert [(r.algorithm, r.k) for r in rows] == [("wfcc", 2), ("ig", 2)]


def test_bench_markdown_to_stdout(tmp_path, capsys):
    rc = main(["bench", "--alg", "dsatur", "--gen", "crown:3",
               "--reps", "1", "--format", "md"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("| Instance (k*) |")
    assert "| crown_3 |" in out


def test_bench_with_input_file_and_best_known(tmp_path):
    graph_path = tmp_path / "myinst.col"
    graph_path.write_text(K3_TEXT)
    bk = tmp_path / "bk.txt"
    bk.write_text("myinst 3\n")
    out = tmp_path / "rows.csv"
    rc = main(["bench", "--alg", "dsatur", "--input", str(graph_path),
               "--reps", "1", "--best-known", str(bk), "--out", str(out)])
    assert rc == 0
    row = parse_csv(out.read_text())[0]
    assert row.instance == "myinst"
    assert row.best_known == 3


def test_bench_deterministic_k_columns(tmp_path):
    argv = ["bench", "--alg", "wfcc,rlf", "--gen", "gnp:25,0.5",
            "--reps", "2", "--seed", "7", "--format", "csv"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    cols_a = [(r.instance, r.algorithm, r.k, r.restarts)
              for r in parse_csv(out_a.read_text())]
    cols_b = [(r.instance, r.algorithm, r.k, r.restarts)
              for r in parse_csv(out_b.read_text())]
    assert cols_a == cols_b


def test_unreadable_input_is_a_clean_error(tmp_path, capsys):
    rc = main(["bench", "--alg", "wfcc", "--input", str(tmp_path / "nope.col")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_color_rejects_a_vertex_count_past_int32(tmp_path, capsys):
    path = tmp_path / "huge.col"
    path.write_text(f"p edge {10**20} 0")
    rc = main(["color", "--alg", "wfcc", "--input", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1:") and err.count("\n") == 1


def test_bench_refuses_an_invalid_coloring(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("wfcolor.bench.solve", one_color_solve)
    graph_path = tmp_path / "k2.col"
    graph_path.write_text("p edge 2 1\ne 1 2\n")
    rc = main(["bench", "--alg", "wfcc", "--input", str(graph_path),
               "--reps", "1"])
    assert rc == 2  # harness refuses the conflicting coloring
    assert "invalid coloring" in capsys.readouterr().err


def test_random_tie_break_flag(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(["bench", "--alg", "wfcc", "--gen", "gnp:20,0.5", "--reps", "1",
               "--seed", "3", "--tie-break", "random", "--out", str(out)])
    assert rc == 0
    assert parse_csv(out.read_text())[0].k is not None


def test_bench_reaches_hub_graphs(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(["bench", "--alg", "wfcc,dsatur", "--gen", "star:2000",
               "--gen", "ba:300,3", "--reps", "1", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    rows = parse_csv(out.read_text())
    assert [(r.instance, r.algorithm) for r in rows] == [
        ("star_2000", "wfcc"), ("star_2000", "dsatur"),
        ("ba_300_3", "wfcc"), ("ba_300_3", "dsatur")]
    assert rows[0].k == rows[1].k == 2
    assert rows[2].k == rows[3].k  # one pass of DSatur either way


def test_gen_help_names_every_generator(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for spec in ("crown:<n>", "gnp:<n>,<p>", "star:<n>", "ba:<n>,<k>"):
        assert spec in help_text

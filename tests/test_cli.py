import pytest

from util import one_color_solve, read_csv
from wfcolor.baselines import dsatur, iterated_greedy, rlf
from wfcolor.bench import SOLVERS
from wfcolor.cli import main
from wfcolor.coloring import format_coloring, parse_coloring, validate
from wfcolor.dimacs import load_dimacs, save_dimacs
from wfcolor.graph import random_gnp
from wfcolor.wfc import solve

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
    rows = read_csv(out.read_text())
    assert [(r["algorithm"], r["k"]) for r in rows] == [("wfcc", "2"), ("ig", "2")]


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
    row = read_csv(out.read_text())[0]
    assert row["instance"] == "myinst"
    assert row["k_best_known"] == "3"


def test_bench_rejects_a_repeated_best_known_name(tmp_path, capsys):
    bk = tmp_path / "bk.txt"
    bk.write_text("crown_3 2\ncrown_3 3\n")
    rc = main(["bench", "--alg", "dsatur", "--gen", "crown:3", "--reps", "1",
               "--best-known", str(bk)])
    assert rc == 2
    assert capsys.readouterr().err == "error: line 2: 'crown_3' listed twice\n"


def test_bench_deterministic_k_columns(tmp_path):
    argv = ["bench", "--alg", "wfcc,rlf", "--gen", "gnp:25,0.5",
            "--reps", "2", "--seed", "7", "--format", "csv"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    cols_a = [(r["instance"], r["algorithm"], r["k"], r["restarts"])
              for r in read_csv(out_a.read_text())]
    cols_b = [(r["instance"], r["algorithm"], r["k"], r["restarts"])
              for r in read_csv(out_b.read_text())]
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


def test_bench_runs_variants_side_by_side(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["bench", "--alg", ",".join(SOLVERS), "--gen", "gnp:20,0.5",
               "--reps", "1", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out.read_text())
    assert [r["algorithm"] for r in rows] == list(SOLVERS)
    assert all(r["k"] != "NA" for r in rows)
    # restarts belong to the collapse solver's names only
    assert [r["algorithm"] for r in rows if r["restarts"] != "NA"] == [
        "wfcc", "wfcc-random"]
    # the ratios against wfcc always go to stderr
    assert "RLF lowest-id / WFC-C mean time" in capsys.readouterr().err


def test_bench_reaches_hub_graphs(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(["bench", "--alg", "wfcc,dsatur", "--gen", "star:2000",
               "--gen", "ba:300,3", "--reps", "1", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out.read_text())
    assert [(r["instance"], r["algorithm"]) for r in rows] == [
        ("star_2000", "wfcc"), ("star_2000", "dsatur"),
        ("ba_300_3", "wfcc"), ("ba_300_3", "dsatur")]
    assert rows[0]["k"] == rows[1]["k"] == "2"
    assert rows[2]["k"] == rows[3]["k"]  # one pass of DSatur either way


def test_gen_help_names_every_generator(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for spec in ("crown:<n>", "gnp:<n>,<p>", "star:<n>", "ba:<n>,<k>"):
        assert spec in help_text


def test_bench_help_names_every_solver(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    # argparse may wrap the list at a hyphen
    assert ",".join(SOLVERS) in "".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", [
    ["bench", "--gen", "crown:3", "--tie-break", "random"],
    ["bench", "--gen", "crown:3", "--saturation", "count"],
    ["bench", "--gen", "crown:3", "--rlf-tie", "lowest-id"],
    ["bench", "--gen", "crown:3", "--speedups"],
    ["color", "--alg", "wfcc", "--input", "g.col", "--tie-break", "random"],
])
def test_removed_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# the library call each solver name stands for, written out independently
LIBRARY_CALLS = {
    "wfcc": lambda g: solve(g),
    "wfcc-random": lambda g: solve(g, tie_break="random", seed=5),
    "ig": lambda g: iterated_greedy(g),
    "dsatur": lambda g: dsatur(g),
    "dsatur-count": lambda g: dsatur(g, saturation="count"),
    "rlf": lambda g: rlf(g, seed=5),
    "rlf-lowest-id": lambda g: rlf(g, tie_break="lowest-id"),
}


def test_every_solver_name_is_its_library_call(tmp_path):
    assert list(SOLVERS) == list(LIBRARY_CALLS)
    g = random_gnp(60, 0.3, seed=4)
    graph_path = tmp_path / "g.col"
    save_dimacs(g, graph_path)
    got = {}
    for name, call in LIBRARY_CALLS.items():
        out = tmp_path / f"{name}.coloring"
        assert main(["color", "--alg", name, "--input", str(graph_path),
                     "--seed", "5", "--out", str(out)]) == 0
        got[name] = out.read_bytes()
        assert got[name] == format_coloring(call(g).coloring).encode(), name
    # each variant colors this graph differently from its default, so a
    # name bound to the wrong setting would show above
    assert got["wfcc"] != got["wfcc-random"]
    assert got["dsatur"] != got["dsatur-count"]
    assert got["rlf"] != got["rlf-lowest-id"]


@pytest.mark.parametrize("timeout", ["-5", "0", "nan"])
def test_bench_rejects_a_bad_timeout(timeout, capsys):
    rc = main(["bench", "--gen", "crown:3", "--reps", "1",
               "--timeout-ms", timeout])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == "" and "timeout_ms must be > 0" in out.err


def test_bench_rejects_a_negative_seed(capsys):
    # the generator would fail on it too, and blame the spec
    rc = main(["bench", "--gen", "gnp:10,0.5", "--reps", "1", "--seed", "-1"])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "seed must be a non-negative int, got -1" in out.err


def test_bench_rejects_repeated_names(tmp_path, capsys):
    # two files with one stem would share a Markdown row
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "x.col").write_text(K3_TEXT)
    (tmp_path / "b" / "x.col").write_text("p edge 3 0\n")
    for argv in (["--input", str(tmp_path / "a" / "x.col"),
                  str(tmp_path / "b" / "x.col")],
                 ["--gen", "crown:3", "--gen", "crown:3"],
                 ["--gen", "crown:3", "--alg", "wfcc,ig,wfcc"]):
        assert main(["bench", "--reps", "1", "--format", "md", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "named more than once" in out.err

import pytest

from util import one_color_solve, read_csv
from wfcolor.bench import (BenchError, BenchRow, default_best_known,
                           load_best_known, parse_best_known,
                           parse_generator_spec, render_csv,
                           render_markdown, run_bench, speedup_summary)

K3_TEXT = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def _never_called(*_, **__):
    raise AssertionError("a solve ran before the arguments were checked")


def test_config_validation(monkeypatch):
    # every argument is checked up front, before any solve runs
    monkeypatch.setattr("wfcolor.bench.solve", _never_called)
    crown = {"generators": ("crown:3",)}
    for bad in ({"algorithms": (), **crown},
                {"algorithms": ("wfcc",)},
                {"algorithms": ("magic",), **crown},
                {"algorithms": ("wfcc",), "reps": 0, **crown},
                {"algorithms": ("wfcc",), "timeout_ms": 0.0, **crown},
                {"algorithms": ("wfcc",), "seed": -1, **crown},
                {"algorithms": ("wfcc", "wfcc"), **crown},
                {"algorithms": ("wfcc",), "generators": ("crown:3", "crown:3")}):
        with pytest.raises(ValueError):
            run_bench(**bad)


def test_generator_specs():
    name, g = parse_generator_spec("crown:4", seed=0)
    assert name == "crown_4" and g.n == 8
    name, g = parse_generator_spec("gnp:20,0.5", seed=1)
    assert name == "gnp_20_0.5" and g.n == 20
    name, g = parse_generator_spec("star:6", seed=0)
    assert name == "star_6" and g.n == 7 and g.max_degree == 6
    name, g = parse_generator_spec("ba:50,2", seed=1)
    assert name == "ba_50_2" and g.n == 50 and g.m == 96
    # ba draws from the global seed
    assert g.edges() == parse_generator_spec("ba:50,2", seed=1)[1].edges()
    assert g.edges() != parse_generator_spec("ba:50,2", seed=2)[1].edges()
    for bad in ("crown:x", "gnp:20", "ring:5", "gnp:20,2,3", "star:0",
                "star:", "ba:50", "ba:5,5", "ba:5,0", "ba:5,1.5"):
        with pytest.raises(ValueError):
            parse_generator_spec(bad, seed=0)


def test_crown_row_reports_two_colors():
    rows = run_bench(("wfcc",), generators=("crown:4",), reps=3)
    assert len(rows) == 1
    row = rows[0]
    assert row.instance == "crown_4"
    assert row.k == 2
    assert row.restarts == 0
    assert row.reps == 3
    assert row.time_mean_us is not None and row.time_mean_us > 0


def test_two_algorithms_on_a_file(tmp_path):
    path = tmp_path / "k3.col"
    path.write_text(K3_TEXT)
    rows = run_bench(("ig", "dsatur"), instances=(str(path),), reps=1)
    assert [(r.instance, r.algorithm, r.k) for r in rows] == [
        ("k3", "ig", 3), ("k3", "dsatur", 3)]
    assert rows[0].restarts is None


def test_timeout_yields_na_row():
    row = run_bench(("rlf",), generators=("gnp:120,0.5",), reps=5,
                    timeout_ms=1e-6)[0]
    assert row.k is None
    assert row.time_mean_us is None
    assert row.restarts is None


def test_invalid_output_aborts_the_row(tmp_path, monkeypatch):
    # a solver that colors K2 with one color; the harness must refuse to
    # report it
    monkeypatch.setattr("wfcolor.bench.solve", one_color_solve)
    path = tmp_path / "k2.col"
    path.write_text("p edge 2 1\ne 1 2\n")
    with pytest.raises(BenchError):
        run_bench(("wfcc",), instances=(str(path),), reps=1)


def test_best_known_attached_to_rows():
    row = run_bench(("dsatur",), generators=("crown:4",), reps=1,
                    best_known={"crown_4": 2})[0]
    assert row.best_known == 2


def test_rows_are_deterministic_across_runs():
    args = dict(algorithms=("wfcc", "rlf"), generators=("gnp:30,0.5",),
                reps=2, seed=9)
    a = run_bench(**args)
    b = run_bench(**args)
    assert [(r.instance, r.algorithm, r.k, r.restarts) for r in a] == \
           [(r.instance, r.algorithm, r.k, r.restarts) for r in b]


# -- reports ------------------------------------------------------------------

def _sample_row(**overrides):
    base = dict(instance="crown_4", algorithm="wfcc", k=2, best_known=2,
                reps=3, time_mean_us=12.3456, time_median_us=11.0,
                time_stddev_us=0.5, restarts=0, seed=1)
    base.update(overrides)
    return BenchRow(**base)


def test_csv_empty_is_header_only():
    assert render_csv([]) == ("instance,algorithm,k,k_best_known,reps,"
                              "time_mean_us,time_median_us,time_stddev_us,"
                              "restarts,seed\n")


def test_csv_single_row_field_order():
    text = render_csv([_sample_row()])
    assert text.splitlines()[1] == "crown_4,wfcc,2,2,3,12.346,11.000,0.500,0,1"


def test_csv_round_trip():
    rows = [_sample_row(),
            _sample_row(algorithm="rlf", k=None, time_mean_us=None,
                        time_median_us=None, time_stddev_us=None,
                        restarts=None, best_known=None)]
    back = read_csv(render_csv(rows))
    assert [list(r.values()) for r in back] == [
        ["crown_4", "wfcc", "2", "2", "3", "12.346", "11.000", "0.500", "0", "1"],
        ["crown_4", "rlf", "NA", "NA", "3", "NA", "NA", "NA", "NA", "1"]]


def test_markdown_groups_by_instance():
    rows = [_sample_row(), _sample_row(algorithm="ig", k=4, restarts=None)]
    text = render_markdown(rows)
    lines = text.splitlines()
    assert len(lines) == 3  # header, separator, one instance row
    assert lines[0] == ("| Instance (k*) | WFC-C k | WFC-C time (us) "
                        "| IG k | IG time (us) |")
    assert lines[2].startswith("| crown_4 (2) | 2 | 12.346 | 4 | 12.346 |")


def test_markdown_renders_na():
    rows = [_sample_row(k=None, time_mean_us=None, best_known=None)]
    assert "| N/A | N/A |" in render_markdown(rows)


def test_speedup_summary_mentions_ratios():
    rows = [_sample_row(time_mean_us=10.0),
            _sample_row(algorithm="dsatur", time_mean_us=40.0, restarts=None)]
    assert "4.0x" in speedup_summary(rows)


# -- best-known table -----------------------------------------------------------

def test_load_best_known(tmp_path):
    path = tmp_path / "bk.txt"
    path.write_text("dsjc250.5 28\nflat300_28_0 28\n")
    assert load_best_known(path) == {"dsjc250.5": 28, "flat300_28_0": 28}


def test_load_best_known_empty(tmp_path):
    path = tmp_path / "bk.txt"
    path.write_text("")
    assert load_best_known(path) == {}


def test_load_best_known_malformed_line(tmp_path):
    path = tmp_path / "bk.txt"
    path.write_text("dsjc250.5 28\noops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_best_known(path)
    path.write_text("dsjc250.5 twenty\n")
    with pytest.raises(ValueError, match="line 1"):
        load_best_known(path)


def test_parse_best_known_rejects_repeats_and_low_k():
    # each bad line is named, so the CLI's --best-known exits 2 on it
    with pytest.raises(ValueError, match="line 2: 'x' listed twice"):
        parse_best_known("x 5\nx 7\n")
    for text, line in (("y -3", 1), ("# k*\nz 0", 2)):
        with pytest.raises(ValueError, match=f"line {line}: k\\* must be >= 1"):
            parse_best_known(text)
    assert parse_best_known("x 5\ny 1\n") == {"x": 5, "y": 1}


def test_bundled_best_known_values():
    table = default_best_known()
    assert table["dsjc250.5"] == 28
    assert table["le450_15c"] == 15
    assert table["r1000.5"] == 234
    assert table["flat300_28_0"] == 28
    assert table["C4000.5"] == 272

import csv
import io

import pytest

from helpers import T1_TEXT, T2_TEXT, T3_TEXT
from stcheck import cli
from stcheck.bench import CSV_COLUMNS
from stcheck.cli import EXIT_ERROR, EXIT_NO, EXIT_OK, main


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("t1", T1_TEXT), ("t2", T2_TEXT), ("t3", T3_TEXT),
                       ("end", "end")):
        p = tmp_path / f"{name}.st"
        p.write_text(text + "\n")
        paths[name] = str(p)
    return paths


def test_check_subtype(files, capsys):
    assert main(["check", files["t2"], files["t1"]]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "subtype"


def test_check_not_subtype(files, capsys):
    assert main(["check", files["t1"], files["t2"]]) == EXIT_NO
    assert capsys.readouterr().out.strip() == "not-subtype"


def test_check_all_algorithms(files):
    for algo in ("inductive", "memoized", "product", "allpairs"):
        assert main(["check", "--algo", algo,
                     files["t2"], files["t3"]]) == EXIT_OK


def test_check_stats_on_stderr(files, capsys):
    assert main(["check", "--stats", files["t2"], files["t3"]]) == EXIT_OK
    err = capsys.readouterr().err
    stats = dict(line.split("=", 1) for line in err.strip().splitlines())
    assert stats["algorithm"] == "product"
    assert int(stats["product_nodes"]) == 7
    assert int(stats["elapsed_ns"]) >= 0


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.st"
    bad.write_text("rec X .")
    assert main(["check", str(bad), str(bad)]) == EXIT_ERROR
    assert "bad.st" in capsys.readouterr().err


def test_check_missing_file(tmp_path):
    assert main(["check", str(tmp_path / "no.st"),
                 str(tmp_path / "no.st")]) == EXIT_ERROR


def test_equal(files):
    assert main(["equal", files["t1"], files["t1"]]) == EXIT_OK
    assert main(["equal", files["t1"], files["t2"]]) == EXIT_NO


def test_lts_dot(files, capsys):
    assert main(["lts", files["t1"]]) == EXIT_OK
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert dot.count(" -> ") == 5


def test_graph_dot(files, capsys):
    assert main(["graph", files["t2"], files["t3"]]) == EXIT_OK
    assert capsys.readouterr().out.count("[label=\"(") == 7

    assert main(["graph", files["end"], files["end"]]) == EXIT_OK
    assert capsys.readouterr().out.count("[label=\"(") == 2


def test_graph_to_file(files, tmp_path):
    out = tmp_path / "g.dot"
    assert main(["graph", "-o", str(out),
                 files["t2"], files["t3"]]) == EXIT_OK
    assert out.read_text().startswith("digraph")


def test_subterms_counts(files, capsys):
    assert main(["subterms", files["t1"]]) == EXIT_OK
    assert len(capsys.readouterr().out.strip().splitlines()) == 4

    assert main(["subterms", "--flavor", "bu", files["t2"]]) == EXIT_OK
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


def test_bench_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("STCHECK_TIMEOUT_MS", "5000")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--family", "exp", "--kmax", "3",
                 "--algos", "product,memoized", "--csv", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + 3 * 2


def test_bench_stdout(capsys):
    assert main(["bench", "--family", "exp", "--kmax", "2",
                 "--algos", "product"]) == EXIT_OK
    out = capsys.readouterr().out
    assert tuple(next(csv.reader(io.StringIO(out)))) == CSV_COLUMNS


def test_bench_bad_timeout_env(monkeypatch, capsys):
    monkeypatch.setenv("STCHECK_TIMEOUT_MS", "soon")
    assert main(["bench", "--kmax", "1", "--algos", "product"]) == EXIT_ERROR
    assert "STCHECK_TIMEOUT_MS" in capsys.readouterr().err


def test_bench_timeout_below_one_ms(monkeypatch, capsys):
    for value in ("0", "-5"):
        monkeypatch.setenv("STCHECK_TIMEOUT_MS", value)
        assert main(["bench", "--kmax", "2", "--algos", "product"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "STCHECK_TIMEOUT_MS must be at least 1" in captured.err


def test_bench_bad_algo(capsys):
    assert main(["bench", "--kmax", "1", "--algos", "bogus"]) == EXIT_ERROR


def test_bench_kmax_below_one(capsys):
    for kmax in ("0", "-3"):
        assert main(["bench", "--kmax", kmax, "--algos", "product"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--kmax must be at least 1" in captured.err
        assert "Traceback" not in captured.err


def test_check_deep_input(tmp_path, capsys):
    deep = tmp_path / "deep.st"
    deep.write_text("?[end]." * 5000 + "end\n")
    assert main(["check", str(deep), str(deep)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "subtype"


def test_check_deep_recursive_input(tmp_path, capsys):
    deep = tmp_path / "deep.st"
    deep.write_text("rec X . " + "?[end]." * 5000 + "X\n")
    assert main(["check", str(deep), str(deep)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "subtype"


# Past the default recursion limit of 1,000.  Every subterm is printed in
# full, so the listing grows with the square of the depth.
DEEP_SUBTERMS = 1100


def test_subterms_deep_recursive_input(tmp_path, capsys):
    deep = tmp_path / "deep.st"
    deep.write_text("rec X . " + "?[end]." * DEEP_SUBTERMS + "X\n")
    assert main(["subterms", str(deep)]) == EXIT_OK
    # the binder, its unfolding and every suffix of that, and end
    assert len(capsys.readouterr().out.splitlines()) == DEEP_SUBTERMS + 2


def test_check_deep_input_is_an_input_error(files, capsys, monkeypatch):
    # Parsing and the structural operations are iterative, but the
    # depth-first searches (inductive, memoized) recurse, so input past the
    # recursion limit must still end in exit 2.
    def too_deep(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "parse", too_deep)
    assert main(["check", files["t1"], files["t2"]]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("stcheck: error:")
    assert "Traceback" not in err

import csv
import hashlib
import io
import os
import subprocess
import sys

import pytest

from helpers import T1_TEXT, T2_TEXT, T3_TEXT
import stcheck
from stcheck import cli
from stcheck.bench import CSV_COLUMNS, gen_blowup_family
from stcheck.cli import EXIT_ERROR, EXIT_NO, EXIT_OK, main
from stcheck.subterms import sub_top_down
from stcheck.syntax import parse, render


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


def test_equal_stats_are_forward_then_backward(files, capsys):
    def stats(command, left, right):
        assert main([command, "--stats", files[left], files[right]]) \
            in (EXIT_OK, EXIT_NO)
        err = capsys.readouterr().err.splitlines()
        return [line for line in err if not line.startswith("elapsed_ns=")]

    forward, backward = stats("check", "t2", "t3"), stats("check", "t3", "t2")
    assert forward != backward
    assert stats("equal", "t2", "t3") == forward + backward


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


@pytest.mark.parametrize("command", ["lts", "graph", "bench"])
def test_dot_to_unwritable_path_is_an_io_error(files, tmp_path, capsys,
                                               command):
    args = {"lts": [files["t1"], "-o"],
            "graph": [files["t2"], files["t3"], "-o"],
            "bench": ["--kmax", "1", "--algos", "product", "--csv"]}[command]
    # a missing directory, and a directory in place of the file
    for out in (tmp_path / "missing" / "x.out", tmp_path):
        assert main([command, *args, str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"stcheck: error: {out}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_subterms_counts(files, capsys):
    assert main(["subterms", files["t1"]]) == EXIT_OK
    assert len(capsys.readouterr().out.strip().splitlines()) == 4

    # one line per subterm, sorted by its rendered text
    assert main(["subterms", files["t2"]]) == EXIT_OK
    listing = capsys.readouterr().out.splitlines()
    assert listing == sorted(map(render, sub_top_down(parse(T2_TEXT))))

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


@pytest.fixture
def exp_files(tmp_path):
    """The exp k=200 pair, whose searches take tens of milliseconds."""
    paths = []
    for name, t in zip(("left", "right"), gen_blowup_family(200)):
        p = tmp_path / f"{name}.st"
        p.write_text(render(t) + "\n")
        paths.append(str(p))
    return paths


@pytest.mark.parametrize("command", ["check", "equal"])
def test_check_timeout_env_ends_in_exit_2(exp_files, command, monkeypatch,
                                          capsys):
    monkeypatch.setenv("STCHECK_TIMEOUT_MS", "1")
    assert main([command, *exp_files]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "stcheck: error: deadline passed before a verdict\n"


def test_bad_timeout_env_gives_bench_messages(files, monkeypatch, capsys):
    for value in ("soon", "0", "-5"):
        monkeypatch.setenv("STCHECK_TIMEOUT_MS", value)
        assert main(["bench", "--kmax", "1", "--algos", "product"]) == EXIT_ERROR
        bench_err = capsys.readouterr().err
        assert "STCHECK_TIMEOUT_MS" in bench_err
        for args in (["check", files["t2"], files["t1"]],
                     ["equal", files["t1"], files["t1"]]):
            assert main(args) == EXIT_ERROR
            assert capsys.readouterr() == ("", bench_err), (value, args)


def test_timeout_env_leaves_verdicts_unchanged(files, exp_files,
                                               monkeypatch, capsys):
    runs = (["check", files["t2"], files["t1"]],
            ["check", files["t1"], files["t2"]],
            ["check", "--algo", "inductive", files["t2"], files["t3"]],
            ["equal", files["t1"], files["t1"]],
            ["equal", files["t1"], files["t2"]],
            ["check", *exp_files])
    expected = ("subtype\n", "not-subtype\n", "subtype\n", "equal\n",
                "not-equal\n", "subtype\n")
    for env in (None, "600000"):
        if env is None:
            monkeypatch.delenv("STCHECK_TIMEOUT_MS", raising=False)
        else:
            monkeypatch.setenv("STCHECK_TIMEOUT_MS", env)
        for args, out in zip(runs, expected):
            main(args)
            assert capsys.readouterr() == (out, ""), (env, args)


def test_bench_bad_algo(capsys):
    assert main(["bench", "--kmax", "1", "--algos", "bogus"]) == EXIT_ERROR


def test_bench_families_are_the_harness_families(capsys):
    from stcheck import bench
    assert cli.BENCH_FAMILIES == tuple(sorted(bench.FAMILIES))
    # without --kmax, exp runs k = 1 .. DEFAULT_KMAX_INDUCTIVE
    assert main(["bench", "--family", "exp", "--algos", "product"]) == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 1 + bench.DEFAULT_KMAX_INDUCTIVE


# SHA-256 of `stcheck bench` output with its elapsed_ns column removed.  The
# last run passes the inductive cap on exp and names inductive twice.
BENCH_DIGESTS = {
    "--family exp --kmax 6":
        "827708ba3c204526d6ebe9680ade9a296151f2458e1be170fab9214e57992e20",
    "--family random --kmax 6":
        "aa1ee2b8a5a038351fbe9aa71ef3be926393e7bb4981f9fa12b36b189acb591b",
    "--family exp --kmax 14 --algos inductive,product,inductive":
        "e67d946f8dfddec900a7c63b7d11775dc83c495b16fb636fb90bdad58d16dc01",
}


@pytest.mark.parametrize("args", list(BENCH_DIGESTS))
def test_bench_output_is_pinned(args, monkeypatch, capsys):
    monkeypatch.delenv("STCHECK_TIMEOUT_MS", raising=False)
    assert main(["bench", *args.split()]) == EXIT_OK
    elapsed = CSV_COLUMNS.index("elapsed_ns")
    kept = "".join(
        ",".join(field for i, field in enumerate(line.split(","))
                 if i != elapsed) + "\n"
        for line in capsys.readouterr().out.splitlines())
    assert hashlib.sha256(kept.encode()).hexdigest() == BENCH_DIGESTS[args]


def test_bench_kmax_below_one(capsys):
    for kmax in ("0", "-3"):
        assert main(["bench", "--kmax", kmax, "--algos", "product"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--kmax must be at least 1" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("algo", [[], ["--algo", "inductive"],
                                  ["--algo", "memoized"]],
                         ids=["default", "inductive", "memoized"])
def test_check_deep_input(tmp_path, capsys, algo):
    deep = tmp_path / "deep.st"
    deep.write_text("?[end]." * 5000 + "end\n")
    assert main(["check", str(deep), str(deep), *algo]) == EXIT_OK
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
    # No function recurses on the depth of the input (test_no_recursion.py
    # checks that).  The RecursionError handler in cli.main is a last
    # guard: should a deep input still exhaust the stack somewhere, it ends
    # in exit 2, never in a traceback.
    def too_deep(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "parse", too_deep)
    assert main(["check", files["t1"], files["t2"]]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("stcheck: error:")
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["lts", "check", "subterms", "bench"])
def test_stdout_write_failure_is_an_io_error(files, command, buffered):
    args = {
        "lts": ["lts", files["t1"]],
        "check": ["check", files["t2"], files["t1"]],
        "subterms": ["subterms", files["t1"]],
        "bench": ["bench", "--kmax", "2", "--algos", "product"],
    }[command]
    src = os.path.dirname(os.path.dirname(stcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # buffered, the output is still pending at the interpreter's own flush
    # at exit; unbuffered, the first write fails
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "stcheck.cli", *args],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env)
    # exit 2, not 1 (not-subtype) and not 120 (a failed flush at exit)
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith("stcheck: error: ")
    assert len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "lts", "subterms"])
def test_non_utf8_input_is_an_input_error(files, tmp_path, command):
    bad = tmp_path / "bad.st"
    bad.write_bytes(b"end\xff")
    args = {
        "check": ["check", str(bad), files["end"]],
        "lts": ["lts", str(bad)],
        "subterms": ["subterms", str(bad)],
    }[command]
    src = os.path.dirname(os.path.dirname(stcheck.__file__))
    done = subprocess.run([sys.executable, "-m", "stcheck.cli", *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    # exit 2, not 1 (not-subtype)
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith(f"stcheck: error: {bad}: not UTF-8 text")
    assert len(done.stderr.splitlines()) == 1
    assert done.stdout == ""


@pytest.mark.parametrize("command", ["check", "lts", "subterms"])
def test_a_leading_byte_order_mark_is_skipped(files, tmp_path, capsys,
                                              command):
    bom = tmp_path / "bom.st"
    bom.write_bytes(b"\xef\xbb\xbf" + (T1_TEXT + "\n").encode())
    args = {"check": [files["t2"]], "lts": [], "subterms": []}[command]
    results = []
    for path in (files["t1"], str(bom)):
        code = main([command, path, *args])
        results.append((code, capsys.readouterr().out))
    assert results[0] == results[1]
    assert results[0][1]


def test_a_byte_order_mark_after_the_first_character_is_an_error(
        files, tmp_path, capsys):
    bad = tmp_path / "bad.st"
    bad.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfend\n")
    assert main(["check", str(bad), files["end"]]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"stcheck: error: {bad}: 1:1: unexpected character '\\ufeff'\n")

"""Importing the library or the command line loads only what a check
needs: not the benchmark harness, and none of the heavy standard modules
that ``dataclasses`` or ``csv`` pull in.  A command-line check or a
benchmark worker is a fresh process, so it pays for every module it
imports.  These tests name modules only; they time nothing."""

import json
import os
import subprocess
import sys

import pytest

import stcheck

# Each must stay out of sys.modules after the import.
UNNEEDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv",
            "stcheck.bench")


def modules_loaded_by(statement):
    """The modules a fresh interpreter adds to sys.modules while it runs
    *statement*."""
    src = os.path.dirname(os.path.dirname(stcheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("statement", [
    "import stcheck",
    "from stcheck import lts, subtyping, syntax",
    "import stcheck.cli",
])
def test_import_loads_nothing_a_check_does_not_need(statement):
    loaded = modules_loaded_by(statement)
    assert "stcheck.subtyping" in loaded
    assert loaded.isdisjoint(UNNEEDED), sorted(loaded & set(UNNEEDED))

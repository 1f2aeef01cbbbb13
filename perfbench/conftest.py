"""Lets ``python3 -m pytest perfbench`` import stcheck from this checkout's
sources and the benchmark's own modules."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

"""Puts ``src/`` on the import path, for this interpreter and for the
``python -m retrolab`` children that the CLI tests start, so the suite runs
from a fresh checkout without an install or a PYTHONPATH setting."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

"""Keep the test suite from writing bytecode into the tree.

A stale ``__pycache__`` makes a tree start faster than a clean checkout, which
skews any timing taken on it afterwards.  The environment variable carries the
setting into the ``python -m quenchkit`` children that some tests start.
"""

import os
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
# pytest compiled this file, asserts rewritten, into __pycache__ before it
# ran; the root holds no other Python file, so that folder goes whole
shutil.rmtree(Path(__file__).with_name("__pycache__"), ignore_errors=True)

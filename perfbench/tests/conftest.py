"""Put the benchmark modules and the quenchkit sources on the import path.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

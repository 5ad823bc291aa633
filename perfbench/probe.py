"""Host-speed probe: a fixed job shaped like the benchmark's commands.

Run as a fresh child, like every command: it starts an interpreter, imports
numpy, steps a complex two-level system in pure Python (like the RK4
oracle), evaluates 1000-element numpy expressions in a Python loop (like the
per-grid-point coefficient vectors) and writes a 100,000-row CSV with
17 significant digits to the file named by its argument (like the emit
layer), which it then removes.  The benchmark runs it between passes and
scales the passes by it, so that a host slowed or sped up by its neighbours
reports the same figures.  It never imports quenchkit: a change to the
program cannot move it.
"""

import math
import os
import sys

import numpy as np

y0, y1 = 1 + 0j, 0j
for _ in range(60_000):
    a = -0.5j * (0.7 * y0 + 0.3 * y1)
    b = -0.5j * (0.3 * y0 - 0.7 * y1)
    y0 += 1e-4 * a
    y1 += 1e-4 * b

n = np.arange(1.0, 1001.0)
total = 0.0
for g in np.linspace(1.1, 9.9, 2_000):
    b = 2.0 * g * math.sqrt(g) * np.sin(n * np.pi / g) / (np.pi * (g * g - n * n))
    total += float(np.sum(b * b * n * n))

x = np.linspace(0.05, 20.0, 100_000)
lines = [",".join(format(float(v), ".16e") for v in row) for row in zip(x, np.cos(x) * total)]
with open(sys.argv[1], "w", encoding="utf-8", newline="") as fh:
    fh.write("\n".join(lines) + "\n")
os.remove(sys.argv[1])
if not abs(y0) > 0.0:
    raise SystemExit("probe produced nothing")

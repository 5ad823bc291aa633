"""The one entry point: ``python -m quenchkit``, and the ``quenchkit`` console
script via `run`."""

import os
import sys


def run() -> None:
    # quenchkit makes no multithreaded BLAS call, yet OpenBLAS's idle worker
    # thread costs every process about 0.1 s of CPU; set before numpy loads,
    # for this process only.  A value already in the environment wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from quenchkit import cli

    sys.exit(cli.main())


if __name__ == "__main__":
    run()

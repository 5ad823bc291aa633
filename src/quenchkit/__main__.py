"""The one entry point: ``python -m quenchkit``, and the ``quenchkit`` console
script via `run`."""

import gc
import os
import sys


def run() -> None:
    # quenchkit makes no multithreaded BLAS call, yet OpenBLAS's idle worker
    # thread costs every process about 0.1 s of CPU; set before numpy loads,
    # for this process only.  A value already in the environment wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # numpy and the CLI leave about 32,000 objects at import that live until
    # exit.  Import with the collector off, then move them to the permanent
    # generation, so that no collection walks them again, during the command
    # or at exit; what the command itself makes is still collected.
    gc.disable()
    from quenchkit import cli

    gc.freeze()
    gc.enable()
    sys.exit(cli.main())


if __name__ == "__main__":
    run()

"""The ``hitsrank`` command: ``python -m hitsrank`` and the console script."""

import os
import sys

# the variables OpenBLAS reads for its thread count when numpy loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main() -> int:
    """Run the CLI with one BLAS thread unless the caller chose a count.

    A matrix of at most a few hundred teams gains nothing from more, and
    each idle OpenBLAS worker spins for about 0.1 s of CPU before it
    sleeps. One thread also makes the output bits independent of the
    core count.
    """
    if not any(var in os.environ for var in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from hitsrank.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())

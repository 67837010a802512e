"""Traced stand-in for ``python -m riordankit``, used by the cli workload's
traced run.

    PERFBENCH_SPANS=FILE python3 perfbench/launch.py ARGS...

Times ``import riordankit.cli``, installs the tracer's wrappers, calls
``riordankit.cli.main(ARGS)`` and writes the spans to FILE on the way out.
Output and exit code are those of the plain command.
"""

import os
import sys
import time

t0 = time.perf_counter()
import riordankit.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracer  # noqa: E402


def main():
    tr = tracer.Tracer()
    tr.install()
    try:
        return riordankit.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        tr.write(os.environ["PERFBENCH_SPANS"], import_s)


if __name__ == "__main__":
    sys.exit(main())

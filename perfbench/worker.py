"""One worker process of a benchmark run (started by ``run.py``).

Usage::

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Prints the worker's JSON report on standard output.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src"))

import workloads  # noqa: E402  (this file's directory is on sys.path)

if __name__ == "__main__":
    sys.exit(workloads.main(sys.argv[1:]))

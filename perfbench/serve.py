"""Start ``repro serve`` from this checkout's sources.

Usage::

    python3 perfbench/serve.py [--time-fragments] serve NAME=MANIFEST... [FLAGS]

``--time-fragments`` installs the fragment-execution probe (``probes.py``),
so a daemon started with ``--expo-port`` reports per-layer fragment time on
``/metrics.json``.  Everything after it is ``repro``'s own command line.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src"))

import probes  # noqa: E402  (this file's directory is on sys.path)
from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv[:1] == ["--time-fragments"]:
        probes.time_fragments()
        argv = argv[1:]
    sys.exit(main(argv))

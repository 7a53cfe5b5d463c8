"""``python -m repro.bench`` — regenerate every table and figure in one go.

Options::

    python -m repro.bench                 # all experiments, full scale
    python -m repro.bench --scale 0.1     # smaller corpora (quick look)
    python -m repro.bench table3 fig2     # a subset
    python -m repro.bench ledger --output BENCH.json   # the benchmark ledger
                                          # (fixed scales; --scale ignored)
"""

import argparse
import json
import sys
import time

from repro.bench import experiments, ledger
from repro.runtime import DEFAULT_ENGINE, ENGINES


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro.bench")
    parser.add_argument(
        "names",
        nargs="*",
        help="which experiments (table1..table5, rtattr, loadgen, profile, "
        "fig2, fig3, attack, ledger); default all but ledger",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--engine", choices=list(ENGINES), default=DEFAULT_ENGINE,
        help="execution engine for the runtime experiments "
        "(table5, fig2, fig3); see docs/ENGINE.md",
    )
    parser.add_argument(
        "--output", metavar="PATH",
        help="write the benchmark ledger here (BENCH.json, gated by "
        "tools/check_bench.py); only with the 'ledger' experiment",
    )
    args = parser.parse_args(argv)

    runners = {
        "table1": lambda: experiments.run_table1(scale=args.scale),
        "table2": lambda: experiments.run_table2(scale=args.scale),
        "table3": lambda: experiments.run_table3(scale=args.scale),
        "table4": lambda: experiments.run_table4(scale=args.scale),
        "table5": lambda: experiments.run_table5(scale=args.scale,
                                                 engine=args.engine),
        "rtattr": lambda: experiments.run_rt_attribution(scale=args.scale),
        "loadgen": lambda: experiments.run_loadgen_experiment(
            scale=min(args.scale, 0.3)),
        "profile": lambda: experiments.run_profile_experiment(
            scale=min(args.scale, 0.3)),
        "fig2": lambda: experiments.run_fig2_experiment(engine=args.engine),
        "fig3": lambda: experiments.run_fig3_experiment(engine=args.engine),
        "attack": experiments.run_attack_experiment,
        "ledger": ledger.run_ledger,
    }
    names = args.names or [n for n in runners if n != "ledger"]
    unknown = [n for n in names if n not in runners]
    if unknown:
        parser.error("unknown experiments: %s" % ", ".join(unknown))
    if args.output and names != ["ledger"]:
        parser.error("--output writes the ledger: run 'ledger' alone")

    for name in names:
        started = time.perf_counter()
        result = runners[name]()
        if args.output:
            with open(args.output, "w") as f:
                json.dump(result.data, f, indent=2, sort_keys=True)
                f.write("\n")
        print(result.render())
        print("[%s regenerated in %.1fs]" % (name, time.perf_counter() - started))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

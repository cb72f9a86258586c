"""One round of one workload, in a fresh interpreter process.

Run by ``run.py`` (never directly by users): set-up, the timed work, the
output checks, then one JSON object on the last line of stdout.  A fresh
process per round means the tier modules' ``compile()`` memo and the
experiments' result memo (``experiments.common.CACHE``) start empty every
time.

    python3 perfbench/round.py --workload steady --seed 1 --trace 0 \
        --jobs 2 --spool <dir>
"""

import time

START = time.perf_counter()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from layers import Hooks, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--spool", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (a set-up time sample)")
    args = parser.parse_args(argv)

    from repro.exec.fingerprint import engine_fingerprint

    os.makedirs(args.spool, exist_ok=True)
    if os.listdir(args.spool):
        parser.error(f"--spool {args.spool} is not empty")
    workload = WORKLOADS[args.workload](args.seed, args.jobs)
    tally = Tally()
    hooks = Hooks(traced=bool(args.trace), spool_dir=args.spool).install()
    try:
        workload.setup(tally, hooks)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "attempted": tally.attempted,
                              "failed": tally.failed, "reasons": tally.reasons}))
            return 0
        hooks.start_timing()
        began = time.perf_counter()
        workload.timed(tally, hooks)
        ended = time.perf_counter()
        hooks.stop_timing(ended)
        hooks.merge_spool()
        wall_s = ended - began
        host_s = hooks.scaled_wall(wall_s, args.jobs)
        if hooks.traced:
            hooks.harvest()
        workload.check(tally, hooks)
        results = workload.results(hooks)
    finally:
        hooks.uninstall()

    record = {
        "setup_s": setup_s,
        "host_s": host_s,
        "wall_s": wall_s,
        "probe_s": hooks.probe_s,
        "iter_ms": results["iter_ms"],
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "exact": dict(
            results["exact"],
            sim_cycles_per_iter=results["sim_cycles_per_iter"],
            attempted=tally.attempted,
            failed=tally.failed,
        ),
        "fingerprint": engine_fingerprint(),
    }
    if hooks.traced:
        record["layers"] = layer_metrics(
            hooks, wall_s, args.jobs, workload.fuzz_stats(), workload.cache_hits()
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

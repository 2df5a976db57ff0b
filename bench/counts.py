#!/usr/bin/env python3
"""Exactness and field-ratio check of the traced work counts (stdlib only).

    python3 bench/counts.py [--seed 0]

Runs one traced sample of every workload twice, under PYTHONHASHSEED 1 and
2, and flags every integer count, or ratio of counts, that differs between
the two: only counts that repeat exactly can support a count-based claim.
Then prints golod-fp / golod-q for every count, with both bases, so the
field-independence target for the monomial Golod ring can be read directly.
Exits 1 if a count drifts or a sample fails its check.
"""
import argparse
import sys
import time

import run
from tracer import COUNT_METRICS, RATIO_METRICS

EXACT = COUNT_METRICS + list(RATIO_METRICS)
HASH_SEEDS = (1, 2)


def _fmt(value):
    return "%d" % value if isinstance(value, int) else "%.6f" % value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    layers = {}
    bad = 0
    for workload in run.WORKLOADS:
        recs = []
        for hashseed in HASH_SEEDS:
            deadline = time.monotonic() + run.DEADLINE_S
            rec = run.spawn(workload, args.seed, "run", deadline, traced=True, hashseed=hashseed)
            if rec["failed"]:
                print("FAILED  %s under PYTHONHASHSEED=%d" % (workload, hashseed))
                bad += 1
            recs.append(rec["layers"])
        for name in EXACT:
            values = [r[name][0] for r in recs]
            if values[0] != values[1]:
                print("DRIFT   %-12s %-42s %s" % (workload, name, values))
                bad += 1
        layers[workload] = recs[0]
    print("exact counts: %s" % ("all repeat" if not bad else "%d problems" % bad))
    print()
    print("%-42s %14s %14s %8s" % ("count", "golod-fp", "golod-q", "fp/q"))
    fp, q = layers["golod-fp"], layers["golod-q"]
    for name in EXACT:
        a, b = fp[name][0], q[name][0]
        ratio = "%8.3f" % (a / b) if b else "%8s" % "-"
        print("%-42s %14s %14s %s" % (name, _fmt(a), _fmt(b), ratio))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

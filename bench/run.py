#!/usr/bin/env python3
"""Cold-process benchmark of dgdim (stdlib only).

    python3 bench/run.py --workload golod-q --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  Each sample is a fresh interpreter
(bench/child.py) started by this process, one at a time, because dgdim keeps
its syzygy and Gorenstein memos in module globals: a second query in the same
interpreter would be answered from them, while a CLI user pays the cold cost
on every run.  See bench/README.md for the workloads and the metric map.

With ``--trace 0`` samples run until ``--seconds`` have passed (at least one;
for verify-suite at least VERIFY_SEEDS + 1, so every suite seed of the run
is sampled and the first one twice) and the end-to-end metrics are printed.  With
``--trace 1`` one untraced and one traced sample of the same input run and
the per-layer metrics of the traced one are printed.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
WORKLOADS = ("golod-q", "golod-fp", "verify-suite")
SETUP_SAMPLES = 10  # set-up-only interpreters per run, besides the measured ones
VERIFY_SEEDS = 6  # distinct suite seeds in one verify-suite run
DEADLINE_S = 170  # a run must end within 180 s; children past this are killed


class ChildError(RuntimeError):
    """A child interpreter failed before its query ran."""


def spawn(workload, seed, mode, deadline, traced=False, hashseed=None):
    """Run one child; returns its record with setup_s and peak_rss_mb added.

    A traced child writes its spans under .bench_out/ in the checkout.
    The peak resident set is read from the child's own rusage via wait4,
    so the largest earlier child does not carry over into it."""
    env = dict(os.environ)
    # cache bytecode in the checkout, as an installed CLI would have it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str((seed if hashseed is None else hashseed) % 2**32)
    argv = [sys.executable, CHILD, workload, str(seed), mode, str(int(traced))]
    if traced:
        argv.append(os.path.join(ROOT, ".bench_out", "%s-seed%d.spans.json" % (workload, seed)))
    started = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        status, usage = _wait(proc, deadline)
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if code != 0:
        raise ChildError("%s child (%s, seed %d) exited with %d" % (mode, workload, seed, code))
    rec = json.loads(out.decode("utf-8").splitlines()[-1])
    rec["setup_s"] = rec["t_ready"] - started
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if mode == "run":
        rec["wall_s"] = rec["t_done"] - rec["t_query"]
    return rec


def _wait(proc, deadline):
    """Reap the child; kill it first if the run passes its deadline or is
    interrupted, so no child outlives the run."""
    # the child's output is one short line, so the pipe cannot fill up
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                return status, usage
            if time.monotonic() > deadline:
                raise ChildError("child passed the run deadline and was killed")
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise


def sample_seed(workload, seed, index):
    """verify-suite cycles through VERIFY_SEEDS suite seeds, so its runs
    average over inputs and a repeated seed's reports can be compared."""
    return seed + index % VERIFY_SEEDS if workload == "verify-suite" else seed


def measure(workload, seed, seconds, deadline):
    spawn(workload, seed, "setup", deadline)  # writes .pyc files
    setups = [spawn(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    min_samples = VERIFY_SEEDS + 1 if workload == "verify-suite" else 1
    samples = []
    began = time.monotonic()
    while len(samples) < min_samples or time.monotonic() - began < seconds:
        s = sample_seed(workload, seed, len(samples))
        samples.append((s, spawn(workload, s, "run", deadline)))
    records = [rec for _, rec in samples]
    setups += [rec["setup_s"] for rec in records]
    attempted, failed = _tally(samples)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in records), "s", len(records)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB", len(records)),
    }
    return attempted, failed, metrics


def _tally(samples):
    """Operations attempted and failed over (seed, record) pairs; a report
    that differs from an earlier report of the same seed is one more
    failure."""
    attempted = sum(rec["attempted"] for _, rec in samples)
    failed = sum(rec["failed"] for _, rec in samples)
    first = {}
    for seed, rec in samples:
        if "error" in rec:
            print("error: %s" % rec["error"], file=sys.stderr)
        if rec["digest"] is None:
            continue
        if first.setdefault(seed, rec["digest"]) != rec["digest"]:
            attempted += 1
            failed += 1
    return attempted, failed


def measure_traced(workload, seed, deadline):
    plain = spawn(workload, seed, "run", deadline)
    traced = spawn(workload, seed, "run", deadline, traced=True)
    attempted, failed = _tally([(seed, plain), (seed, traced)])
    layers = {name: tuple(pair) for name, pair in traced["layers"].items()}
    layers["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, None)
    return attempted, failed, layers


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac") or name.endswith("_presentation"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # reap children first
    if not os.path.isdir(os.path.join(ROOT, "src", "dgdim")):
        print("error: no dgdim sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            attempted, failed, layers = measure_traced(args.workload, args.seed, deadline)
            rows = [(name, value, unit_of(name), base) for name, (value, base) in layers.items()]
        else:
            attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, deadline)
            rows = [(name, value, unit, n) for name, (value, unit, n) in metrics.items()]
    except ChildError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for name, value, unit, extra in rows:
        if args.trace:
            note = "" if extra is None else "  (base %d)" % extra
        else:
            note = "  (n=%d)" % extra
        print("%-42s %16.6f %-6s%s" % (name, value, unit, note))
    print("%-42s %16.6f %-6s  (%d failed of %d attempted)"
          % ("failed_frac", failed / attempted, "ratio", failed, attempted))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

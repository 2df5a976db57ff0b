"""One cold sample: build a workload's inputs, run its query, check the answer.

    python3 bench/child.py <workload> <seed> <setup|run> <trace 0|1> [spans.json]

bench/run.py starts this script in a fresh interpreter with
``src`` on PYTHONPATH.  It prints one JSON line holding CLOCK_MONOTONIC
stamps (``t_ready`` when the inputs are built, ``t_query`` and ``t_done``
around the query and its check), the operations attempted and failed, and,
when traced, the per-layer metrics; a traced sample also writes its spans
to the optional last argument.  In ``setup`` mode it stops once the
inputs are built.  A failure before the inputs are built exits non-zero; a
failure of the query is reported as a failed operation.
"""
import sys
import time

GOLOD_FIELDS = {"golod-q": "Q", "golod-fp": "Fp:32003"}


def golod_relations(seed):
    """Generators of the ideal (x^2, xy), presented differently per seed.

    Seed 0 is the plain presentation.  Other seeds rescale and recombine the
    generators, may add a redundant multiple and shuffle the list.  The
    reduced Groebner basis, and so the ring, is the same for every seed."""
    if seed == 0:
        return ["x^2", "x*y"]
    import random

    rng = random.Random(seed)
    a, b, c = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 9)
    gens = ["%d*x^2 + %d*x*y" % (a, c), "%d*x*y" % b]
    if rng.random() < 0.5:
        gens.append("%d*x^2*y" % rng.randint(1, 9))
    rng.shuffle(gens)
    return gens


def build(workload, seed):
    """Import dgdim and build the inputs; returns the query as a callable."""
    if workload == "verify-suite":
        from dgdim import cli

        argv = ["verify", "--seed", str(seed), "--field", "Q", "--format", "json"]
        return lambda: run_cli(cli, argv)
    from dgdim import dimensions
    from dgdim.core import make_graded_ring
    from dgdim.dg import build_ring_dg, free_dg_module

    ring = make_graded_ring(GOLOD_FIELDS[workload], ["x", "y"], golod_relations(seed))
    module = free_dg_module(build_ring_dg(ring), [(0, 0)])
    return lambda: dimensions.inj_dim(module)  # looked up late, so a trace sees it


def run_cli(cli, argv):
    """cli.main(argv) with its standard output captured as bytes."""
    import io

    buf = io.BytesIO()
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(buf, encoding="utf-8")
    try:
        code = cli.main(argv)
        sys.stdout.flush()
    finally:
        sys.stdout.detach()
        sys.stdout = saved
    return code, buf.getvalue()


def check(workload, answer):
    """(operations attempted, operations failed, report digest or None)."""
    import hashlib
    import json

    if workload == "verify-suite":
        from dgdim.checks import CHECKS

        code, data = answer
        results = json.loads(data.decode("utf-8"))["results"]
        failed = sum(1 for r in results if r["outcome"] != "pass")
        failed += len(CHECKS) - len(results)
        if code != 0 and failed == 0:
            failed = 1
        return len(CHECKS), failed, hashlib.sha256(data).hexdigest()
    import os

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golod_reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    got = json.loads(json.dumps(answer.to_json()))
    return 1, int(got != reference or answer.finite), None


def main(argv):
    workload, seed, mode, traced = argv[1], int(argv[2]), argv[3], argv[4] == "1"
    query = build(workload, seed)
    out = {"t_ready": time.monotonic()}
    if mode == "run":
        tracer = None
        if traced:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        out["t_query"] = time.monotonic()
        try:
            answer = query()
            out["attempted"], out["failed"], out["digest"] = check(workload, answer)
        except Exception as exc:  # a raising query is a failed operation
            out["attempted"], out["failed"], out["digest"] = 1, 1, None
            out["error"] = "%s: %s" % (type(exc).__name__, exc)
        out["t_done"] = time.monotonic()
        if tracer is not None:
            out["layers"] = tracing.summarise(tracer)
            if len(argv) > 5:
                tracing.dump(tracer, argv[5])
    import json

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Self-test of the benchmark's statistics and tracer.

Run from the repository root::

    python3 perfbench/selftest.py
"""

import random
import statistics

import stats
from run import import_apsrec


def check_tail_never_below_median():
    rng = random.Random(7)
    for n in range(2 * stats.MIN_BEYOND + 1, 400):
        for draw in (rng.random, lambda: rng.lognormvariate(0.0, 1.0), lambda: 1.0):
            samples = [draw() for _ in range(n)]
            value, percentile = stats.tail(samples)
            ordered = sorted(samples)
            rank = percentile / 100.0 * (n - 1)
            assert abs(rank - round(rank)) < 1e-9
            assert ordered[round(rank)] == value
            assert n - 1 - round(rank) >= stats.MIN_BEYOND
            summary = stats.latency_summary(samples, [rng.uniform(1.0, 2.0) for _ in range(n)])
            assert summary["op_tail_s"] >= summary["op_p50_s"] == statistics.median(samples)
            assert summary["op_tail_ref"] >= summary["op_p50_ref"]


def check_too_few_samples_rejected():
    try:
        stats.tail([1.0] * (2 * stats.MIN_BEYOND))
    except ValueError:
        return
    raise AssertionError("a tail from too few samples was accepted")


def check_self_times():
    from tracing import layer_totals

    spans = [
        [0, "cli.main", -1, 0.0, 10.0, 0],
        [0, "forward.synthesize", 0, 1.0, 5.0, 8],
        [0, "quad.points", 1, 2.0, 3.0, 256],
        [0, "plv.recover", 0, 6.0, 9.0, 0],
    ]
    totals, root_s, kernel_elems = layer_totals(spans)
    assert totals["cli.main"]["self_s"] == 3.0
    assert totals["forward.synthesize"]["self_s"] == 3.0
    assert totals["quad.points"]["self_s"] == 1.0
    assert sum(entry["self_s"] for entry in totals.values()) == root_s == 10.0
    assert kernel_elems == 8 * 256


def check_tracer_round_trip():
    import numpy as np
    from apsrec import ArrayConfig, plv

    from tracing import Tracer, layer_totals

    original = plv.recover
    tracer = Tracer()
    tracer.install(0)
    try:
        plv.recover(np.array([1.0, 0.2 + 0.1j, 0.05j]), ArrayConfig(3, 1.0))
    finally:
        tracer.uninstall()
    assert plv.recover is original
    names = [span[1] for span in tracer.spans]
    assert names[0] == "plv.recover" and "gram.assemble" in names and "specfun.j0" in names
    totals, root_s, _ = layer_totals(tracer.spans)
    assert all(entry["self_s"] >= 0.0 for entry in totals.values())
    assert abs(sum(entry["self_s"] for entry in totals.values()) - root_s) < 1e-9
    assert totals["gram.assemble"]["calls"] == 1
    # Cosine block: J0 at |m-n| and m+n on 3x3; sine block: the same on 2x2.
    assert totals["specfun.j0"]["count"] == 2 * 3 * 3 + 2 * 2 * 2


def main():
    import_apsrec()
    for check in (check_tail_never_below_median, check_too_few_samples_rejected,
                  check_self_times, check_tracer_round_trip):
        check()
        print(f"ok {check.__name__}")


if __name__ == "__main__":
    main()

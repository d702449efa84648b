"""Order statistics for op timings. Standard library only."""

import statistics

MIN_BEYOND = 10


def tail(samples):
    """The highest order statistic with at least MIN_BEYOND samples ranked
    above it, and its percentile position 100*k/(n-1).

    Raises:
        ValueError: When there are too few samples for that statistic to
            sit at or above the median (fewer than 2*MIN_BEYOND + 1).
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 1 - MIN_BEYOND
    if n < 2 * MIN_BEYOND + 1:
        raise ValueError(
            f"{n} samples: a tail with {MIN_BEYOND} samples beyond it needs "
            f"at least {2 * MIN_BEYOND + 1}")
    return ordered[k], 100.0 * k / (n - 1)


def latency_summary(op_s, ref_s):
    """Median, tail, and host-normalised op times from paired samples:
    ``op_s[i]`` is an op's wall time, ``ref_s[i]`` the reference kernel
    time measured next to it."""
    if len(op_s) != len(ref_s):
        raise ValueError("op and reference samples must pair up")
    ratios = [o / r for o, r in zip(op_s, ref_s)]
    p50, p50_ref = statistics.median(op_s), statistics.median(ratios)
    (tail_s, tail_pct), (tail_ref, _) = tail(op_s), tail(ratios)
    if not (tail_s >= p50 and tail_ref >= p50_ref):
        raise AssertionError(f"tail below median: {tail_s} < {p50} or {tail_ref} < {p50_ref}")
    return {
        "ops": len(op_s),
        "tail_percentile": tail_pct,
        "ops_per_s": len(op_s) / sum(op_s),
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "op_p50_ref": p50_ref,
        "op_tail_ref": tail_ref,
        "op_mean_ref": sum(op_s) / sum(ref_s),
        "ref_p50_s": statistics.median(ref_s),
    }

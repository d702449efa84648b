"""Benchmark for apsrec: seeded single-client closed loops over three
workloads, with every op's output checked.

Run from the repository root::

    python3 perfbench/run.py --workload snapshot_stream --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics: median, tail and mean op
time in units of a reference kernel timed next to each op, set-up time
and peak memory. ``--trace 1`` runs each input
once traced and once untraced and prints per-layer self times per op
instead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the seed, the environment, wall-clock latency and the
failures. Both, and the spans of a traced run, are also written under
``perfbench/out/``.

The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with an error and prints no result.
"""

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("snapshot_stream", "large_array", "cli_pipeline")
# One BLAS thread: on a 2-vCPU host, two threads more than doubled the
# p90 op time of snapshot_stream.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MAX_LOOP_S = 120.0
SUBPROCESS_TIMEOUT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_apsrec():
    """Import apsrec from this checkout's sources, never from elsewhere."""
    if not (SRC / "apsrec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: apsrec sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import apsrec

    if Path(apsrec.__file__).resolve().parent != SRC / "apsrec":
        raise SystemExit(f"perfbench: imported apsrec from {apsrec.__file__}, not {SRC}")
    return apsrec


def _rng(seed):
    import numpy as np

    return np.random.default_rng(seed)


def warm_up(workload):
    from refkernel import reference_samples

    for _ in range(workload.warmup_ops):
        item = workload.next_input()
        workload.check(item, workload.op(item))
    reference_samples(10)


def setup_probe(args, workdir):
    """Time, in this fresh interpreter, import of apsrec through input
    generation and warm-up."""
    start = time.perf_counter()
    import_apsrec()
    import workloads

    warm_up(workloads.make(args.workload, _rng(args.seed), workdir))
    print(repr(time.perf_counter() - start))


def run_setup_probe(args):
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def blas_info():
    """Config string and live thread count of each OpenBLAS that numpy and
    scipy load."""
    import ctypes

    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libdir.glob("lib*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    found.append({"package": package.__name__,
                                  "config": config().decode(), "threads": threads()})
                    break
    return found


def environment(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Loop:
    """One closed-loop run: ops, the reference kernel next to each, and a
    check of each op's output."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.op_s, self.ref_s = [], []
        self.traced_op_s, self.traced_ref_s = [], []
        self.attempted = 0
        self.failures = Counter()
        self.minflt = 0
        self.utime = self.stime = 0.0
        self.bytes_written = 0
        self.setup_s = []
        self.overhead = []

    def _fail(self, item, exc):
        label = getattr(self.workload, "label", lambda _: self.workload.name)(item)
        self.failures[f"{label}: {type(exc).__name__}: {str(exc)[:200]}"] += 1

    def _measure(self, item, traced):
        """Time one op with the reference kernel next to it, then check its
        output. Returns the op time, or None when the op raised."""
        from refkernel import reference_samples
        from workloads import CheckFailed

        workload = self.workload
        self.attempted += 1
        ref = reference_samples(workload.ref_repeats)
        before = resource.getrusage(resource.RUSAGE_SELF)
        if traced:
            self.tracer.install(self.attempted)
        try:
            start = time.perf_counter()
            result = workload.op(item)
            op = time.perf_counter() - start
        except Exception as exc:  # any exception, a FeasibilityWarning included, fails the op
            self._fail(item, exc)
            return None
        finally:
            if traced:
                self.tracer.uninstall()
        after = resource.getrusage(resource.RUSAGE_SELF)
        if workload.ref_after:
            ref += reference_samples(workload.ref_repeats)
        # The median ignores a kernel call that an interrupt happened to hit.
        ref = statistics.median(ref)
        if traced:
            self.traced_op_s.append(op)
            self.traced_ref_s.append(ref)
            if hasattr(workload, "bytes_written"):
                self.bytes_written += workload.bytes_written()
        else:
            self.op_s.append(op)
            self.ref_s.append(ref)
            self.minflt += after.ru_minflt - before.ru_minflt
            self.utime += after.ru_utime - before.ru_utime
            self.stime += after.ru_stime - before.ru_stime
        try:
            workload.check(item, result)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self._fail(item, exc)
        return op

    def step(self):
        item = self.workload.next_input()
        if self.tracer is None:
            self._measure(item, traced=False)
            return
        # A traced run times each input twice, traced and untraced in
        # alternating order, so the overhead compares the same work.
        first = self.attempted % 4 == 0
        times = {traced: self._measure(item, traced) for traced in (first, not first)}
        if None not in times.values():
            self.overhead.append(times[True] / times[False])

    def run(self, seconds, min_ops, probe=None, probes=0):
        """Step until ``seconds`` have passed and ``min_ops`` untraced ops
        completed. ``probes`` calls of ``probe`` are spread evenly over the
        run, so set-up time samples the same swings of host speed as the
        ops; their own time does not count towards ``seconds``."""
        start = time.perf_counter()
        probe_s = 0.0
        due = [seconds * k / probes for k in range(probes)]
        while True:
            elapsed = time.perf_counter() - start - probe_s
            if due and elapsed >= due[0]:
                due.pop(0)
                begin = time.perf_counter()
                self.setup_s.append(probe())
                probe_s += time.perf_counter() - begin
            elif elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(self.op_s) >= min_ops):
                break
            else:
                self.step()


def end_to_end_metrics(loop):
    import stats

    summary = stats.latency_summary(loop.op_s, loop.ref_s)
    metrics = {
        "op_p50_ref": (summary["op_p50_ref"], "ratio"),
        "op_tail_ref": (summary["op_tail_ref"], "ratio"),
        "op_mean_ref": (summary["op_mean_ref"], "ratio"),
        "setup_s": (statistics.median(loop.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Wall-clock latency as a user sees it. The host's speed swings by up
    # to 1.5x within seconds, so these are recorded next to the result
    # rather than gated; the *_ref metrics carry the same latency in
    # units of the reference kernel.
    units = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "ref_p50_s": "s"}
    details = {
        "ops": summary["ops"],
        "tail_percentile": summary["tail_percentile"],
        "wall": {name: {"value": summary[name], "unit": unit} for name, unit in units.items()},
        "setup_samples_s": loop.setup_s,
        "samples": {"op_s": loop.op_s, "ref_s": loop.ref_s},
    }
    return metrics, details


# Per-layer metric -> (layer, field of tracing.layer_totals, unit). Only
# layers that every workload reaches are metrics; the record line lists
# every layer's self time, calls and work per op, including the forward,
# analysis and cli layers that only cli_pipeline reaches and plv's
# evaluate and negativity that large_array skips.
LAYER_METRICS = {
    "specfun.j0_evals": ("specfun.j0", "count", "count"),
    "specfun.j0_s": ("specfun.j0", "self_s", "s"),
    "gram.blocks_s": ("gram.blocks", "self_s", "s"),
    "gram.factor_s": ("gram.assemble", "self_s", "s"),
    "gram.assemble_calls": ("gram.assemble", "calls", "count"),
    "gram.solve_s": ("gram.solve", "self_s", "s"),
    "plv.recover_self_s": ("plv.recover", "self_s", "s"),
    "core.trig_basis_s": ("core.trig_basis", "self_s", "s"),
    "core.trig_basis_elems": ("core.trig_basis", "count", "count"),
    "quad.points_s": ("quad.points", "self_s", "s"),
}


def per_layer_metrics(loop):
    """Per-op layer self times and counts from the traced ops, process
    counters from the untraced ops of the same run."""
    from tracing import layer_totals

    traced = len(loop.traced_op_s)
    if not loop.overhead:
        raise RuntimeError("a traced run needs inputs whose traced and untraced ops completed")
    totals, root_s, kernel_elems = layer_totals(loop.tracer.spans)
    layers = {
        layer: {field: value / traced for field, value in entry.items()}
        for layer, entry in sorted(totals.items())
    }
    metrics = {
        metric: (layers.get(layer, {field: 0})[field], unit)
        for metric, (layer, field, unit) in LAYER_METRICS.items()
    }
    cpu = loop.utime + loop.stime
    metrics.update({
        "proc.minflt_per_op": (loop.minflt / len(loop.op_s), "count"),
        "proc.sys_cpu_share": (loop.stime / cpu if cpu > 0 else 0.0, "ratio"),
        "host.ref_s": (statistics.median(loop.ref_s + loop.traced_ref_s), "s"),
        "trace.op_s": (sum(loop.traced_op_s) / traced, "s"),
        "trace.coverage": (root_s / sum(loop.traced_op_s), "ratio"),
        "trace.overhead": (statistics.median(loop.overhead), "ratio"),
    })
    details = {
        "traced_ops": traced,
        "layers_per_op": layers,
        "forward_kernel_elems_per_op": kernel_elems / traced,
        "cli_bytes_written_per_op": loop.bytes_written / traced,
    }
    return metrics, details


def run_workload(args):
    import stats

    import_apsrec()
    import workloads
    from apsrec.errors import FeasibilityWarning

    warnings.simplefilter("error", FeasibilityWarning)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, _rng(args.seed), workdir)
        warm_up(workload)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        loop = Loop(workload, tracer)
        if args.trace:
            loop.run(args.seconds, 3)
        else:
            loop.run(args.seconds, 2 * stats.MIN_BEYOND + 1,
                     functools.partial(run_setup_probe, args), SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, details = per_layer_metrics(loop)
        tracer.write(OUT / f"spans-{tag}.json")
    else:
        metrics, details = end_to_end_metrics(loop)
    failed = sum(loop.failures.values())
    samples = details.pop("samples", None)
    record = {
        "environment": environment(args),
        "fail_ratio": failed / loop.attempted,
        "failures": dict(loop.failures),
        **details,
    }
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"record": record, "result": result, "samples": samples}) + "\n",
        encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own interpreter; one combined result line with
    metrics named ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=3 * SUBPROCESS_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"workload {name} failed:\n{done.stderr}")
        record, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_ratio {record['fail_ratio']:.4g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:24s} {entry['value']:.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        for metric, entry in record.get("wall", {}).items():
            print(f"  {metric:24s} {entry['value']:.6g} {entry['unit']} (not gated)")
        if "tail_percentile" in record:
            print(f"  tail at p{record['tail_percentile']:.2f} of {record['ops']} ops")
        for failure, count in record["failures"].items():
            print(f"  failed x{count}: {failure}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        workdir = OUT / f"work-{os.getpid()}"
        try:
            setup_probe(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()

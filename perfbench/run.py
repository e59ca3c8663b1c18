"""decwt benchmark: one command, every metric, and a correctness verdict.

    python3 perfbench/run.py --workload grid-sparse --seed 1 --seconds 20 --trace 0

Workloads: grid-sparse, grid-dense and light (see bench_workloads.WORKLOADS).

``--trace 0`` measures the end-to-end metrics with tracing off. work_per_s,
unit_s.p50 and unit_s.tail are given at a fixed machine speed: each
iteration's times are scaled by REF_SECONDS over the time of a fixed numpy
FFT pair run right after it (bench_workloads.ReferenceKernel), because a
shared host's speed can drift by up to 25% over minutes; the unscaled values
are in the report. setup_s, peak_rss_mb and max_rel_err are as measured.
The JSON carries pass_ratio = 1 - fail_ratio, since a metric may not read
0; fail_ratio is printed above it.

``--trace 1`` measures the per-layer metrics from spans around the public
decwt calls. Untraced and traced iterations alternate; values are per traced
iteration, and trace.overhead compares the two kinds.

Human-readable lines come first, then a JSON line with the environment and
details, and last a JSON line ``{"correct", "attempted", "failed",
"metrics"}``. Files go to perfbench/_work/. Run it from the repository root
(the program is imported from ./src); it exits 2 when the sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("grid-sparse", "grid-dense", "light")
# Pinned before numpy loads, and inherited by the set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "decwt", "__init__.py")):
        print(f"error: decwt sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import bench_workloads as bw

    workdir = os.path.join(HERE, "_work", args.workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, attempted, failed, report, spans = bw.traced(
            args.workload, args.seed, args.seconds, workdir)
        bw.write_json(os.path.join(HERE, "_work", f"spans-{tag}.json"),
                      [dict(zip(("id", "name", "start", "end", "parent", "unit"), s))
                       for s in spans])
    else:
        metrics, attempted, failed, report = bw.end_to_end(
            args.workload, args.seed, args.seconds, workdir)
    report["env"] = bw.environment(args.seed, THREAD_VARS)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    bw.write_json(os.path.join(HERE, "_work", f"result-{tag}.json"),
                  {"report": report, "result": result})

    print(f"decwt benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<42} {report['fail_ratio']:>14.6g} "
          f"({failed} of {attempted} operations)")
    if "unscaled" in report:
        print(f"  unit_s.tail is p{report['unit_s.tail.percentile']:g} of "
              f"{report['unit_s.samples']} units")
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in report["unscaled"].items())
              + f" (reference FFT pair {1000 * report['reference_s']:.4g} ms)")
    print(f"  correct: {'yes' if failed == 0 else 'NO'}")
    for reason in report["failures"]:
        print(f"  failed: {reason}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

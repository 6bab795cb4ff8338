#!/usr/bin/env python3
"""The repository benchmark. Builds the tools from source (Release), runs
one workload (or all three), checks the outputs, and prints one JSON result
line last. See README.md.

  python3 perfbench/run.py --workload fig9_v1 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py                  # every workload, one after another
  python3 perfbench/run.py --self-test      # the benchmark's own checks
"""

import argparse
import json
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

import campaigns  # noqa: E402
import harness  # noqa: E402
import serving  # noqa: E402
import traced  # noqa: E402

WORKLOADS = ("fig9_v1", "fig13_assay", "serve_mixed")


def run_one(tools, workload, seed, seconds, trace, host):
    result = harness.Result(workload, seed, trace)
    harness.log(f"workload {workload} seed {seed} "
                f"{'traced' if trace else 'untraced'}:")
    work = harness.run_dir(workload, seed)
    try:
        if trace:
            traced.run_traced(tools, workload, seed, seconds, work, result)
        elif workload == "serve_mixed":
            serving.run_serve(tools, seed, seconds, work, result)
        else:
            campaigns.run_campaign(tools, workload, seed, seconds, work,
                                   result)
    except (harness.BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        # Counted, so the result line still says what went wrong.
        result.fail(f"{type(error).__name__}: {error}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in result.failures[:20]:
        harness.log(f"  FAILED: {failure}")
    result.save(host)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        tools = harness.build_tools()
    except harness.BenchError as error:
        harness.fatal(str(error))
    if args.self_test:
        import selftest
        sys.exit(selftest.run(tools))

    host = harness.host_fingerprint()
    harness.log(f"host: {json.dumps(host)}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(tools, name, args.seed, args.seconds, bool(args.trace),
                       host) for name in names]
    if len(results) == 1:
        line = results[0].line()
    else:
        line = json.dumps({
            "correct": all(r.correct() for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {f"{r.workload}.{name}": value for r in results
                        for name, value in r.metrics.items()}})
    print(line, flush=True)
    sys.exit(0 if all(r.correct() for r in results) else 1)


if __name__ == "__main__":
    main()

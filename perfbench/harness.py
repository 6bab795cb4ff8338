"""Shared plumbing of the perfbench benchmark: build, process timing,
statistics, the metric catalog and the per-run result record."""

import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# name -> unit. Every end-to-end metric is printed by every untraced run,
# every per-layer metric by every traced run (README.md defines each).
END_TO_END = {
    "runs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "common.stream_ns": "ns",
    "sim.inject_v1_ns": "ns",
    "sim.inject_v2_ns": "ns",
    "sim.inject_fixed_ns": "ns",
    "fault.cell_trials_per_run": "count",
    "sim.faults_per_run": "count",
    "graph.repair_hk_ns": "ns",
    "sim.repair_incremental_ns": "ns",
    "sim.incremental_rebuild_frac": "fraction",
    "sim.reset_ns": "ns",
    "sim.op_eval_us": "us",
    "reconfig.plan_us": "us",
    "assay.schedule_us": "us",
    "fluidics.route_us": "us",
    "sim.op_other_us": "us",
    "sim.query_ms_p50": "ms",
    "sim.query_ms_max": "ms",
    "sim.design_build_ms": "ms",
    "campaign.parse_expand_ms": "ms",
    "campaign.point_ms_p50": "ms",
    "campaign.point_ms_max": "ms",
    "campaign.worker_idle_frac": "fraction",
    "io.sink_ms": "ms",
    "serve.parse_us": "us",
    "serve.format_us": "us",
    "serve.cache_hit_us": "us",
    "serve.inproc_hit_qps": "1/s",
    "serve.store_load_hit_us": "us",
    "serve.store_load_miss_us": "us",
    "serve.store_write_us": "us",
    "serve.mem_hit_frac": "fraction",
    "serve.store_hit_frac": "fraction",
    "serve.computed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


class BenchError(Exception):
    """A failure that leaves no result to print (build, missing tool)."""


def log(line):
    print(line, flush=True)


# -- build -------------------------------------------------------------------


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


class Tools:
    def __init__(self, build):
        self.build = build
        self.campaign = build / "dmfb" / "dmfb_campaign"
        self.serve = build / "dmfb" / "dmfb_serve"
        self.layers = build / "perf_layers"


def build_tools():
    """Configures (once) and builds the tools in Release; refuses any other
    build type, since the figures would not be comparable."""
    build = build_dir()
    build.mkdir(parents=True, exist_ok=True)
    build_log = build / "build.log"
    with open(build_log, "w") as out:
        if not (build / "CMakeCache.txt").exists():
            configure = subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(build),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if configure.returncode != 0:
                (build / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"cmake configure failed; see {build_log}")
        jobs = str(min(4, os.cpu_count() or 1))
        made = subprocess.run(
            ["cmake", "--build", str(build), "-j", jobs, "--target",
             "perf_layers", "dmfb_campaign_cli", "dmfb_serve_cli"],
            stdout=out, stderr=subprocess.STDOUT)
        if made.returncode != 0:
            raise BenchError(f"build failed; see {build_log}")
    build_type = cache_value(build / "CMakeCache.txt", "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"refusing a {build_type or 'untyped'} build: "
                         "figures are only comparable from Release")
    tools = Tools(build)
    for tool in (tools.campaign, tools.serve, tools.layers):
        if not tool.exists():
            raise BenchError(f"missing tool {tool}")
    return tools


def cache_value(cache, key):
    try:
        for line in cache.read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return None


def host_fingerprint():
    model = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "build_type": cache_value(build_dir() / "CMakeCache.txt",
                                  "CMAKE_BUILD_TYPE"),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
    }


# -- processes ---------------------------------------------------------------


class Timed:
    """One finished process: exit status, wall and CPU seconds, peak RSS."""

    def __init__(self, status, wall_s, cpu_s, rss_mb):
        self.status = status
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb


def reap(proc, start, timeout=170):
    """Waits for `proc` with wait4, so the rusage is the tool's own, and
    kills it if it outlives `timeout` seconds."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timed(proc.returncode, time.perf_counter() - start,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_timed(args, stderr_path, stdin_path=None, stdout_path=None):
    """Runs a tool to completion, timed from spawn to reaped exit."""
    with open(stdin_path or os.devnull, "rb") as fin, \
            open(stdout_path or os.devnull, "wb") as fout, \
            open(stderr_path, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in args], stdin=fin,
                                stdout=fout, stderr=ferr)
        return reap(proc, start)


def run_text(args, stdin_text="", timeout=170):
    """Runs a helper (not a timed tool) and returns its stdout, or raises."""
    done = subprocess.run([str(a) for a in args], input=stdin_text,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} failed: "
                         f"{done.stderr.strip()[-400:]}")
    return done.stdout


# -- statistics --------------------------------------------------------------


def median(values):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- results -----------------------------------------------------------------


class Result:
    """What one run reports: operations attempted and failed, the metrics,
    and the reasons for each failure."""

    def __init__(self, workload, seed, traced):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}
        self.notes = {}

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail(self, what):
        """A failed check that is not one of the counted operations."""
        self.failed += 1
        self.failures.append(what)

    def metric(self, name, value, note=""):
        catalog = PER_LAYER if self.traced else END_TO_END
        self.metrics[name] = {"value": float(value), "unit": catalog[name]}
        log(f"  {name} = {value:.6g} {catalog[name]}"
            + (f"  ({note})" if note else ""))

    def note(self, name, value):
        self.notes[name] = value
        log(f"  [{name}] {value}")

    def correct(self):
        catalog = PER_LAYER if self.traced else END_TO_END
        return (self.failed == 0 and self.attempted > 0
                and set(self.metrics) == set(catalog))

    def line(self):
        return json.dumps({"correct": self.correct(),
                           "attempted": self.attempted,
                           "failed": self.failed,
                           "metrics": self.metrics})

    def save(self, host):
        out = build_dir() / "results"
        out.mkdir(parents=True, exist_ok=True)
        record = {"workload": self.workload, "seed": self.seed,
                  "trace": int(self.traced), "host": host,
                  "correct": self.correct(), "attempted": self.attempted,
                  "failed": self.failed, "failures": self.failures,
                  "metrics": self.metrics, "notes": self.notes,
                  "time": time.strftime("%Y-%m-%dT%H:%M:%S")}
        name = f"{self.workload}-seed{self.seed}-trace{int(self.traced)}.json"
        (out / name).write_text(json.dumps(record, indent=1) + "\n")


def run_dir(workload, seed):
    path = build_dir() / "runs" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def fatal(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)

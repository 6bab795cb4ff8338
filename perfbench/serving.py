"""The serve_mixed workload: dmfb_serve under an open-loop query stream."""

import bisect
import gc
import itertools
import json
import os
import random
import select
import selectors
import subprocess
import time

from harness import median, percentile, reap, run_text, run_timed

# Mean arrival rate (Poisson arrivals). Answers leave in submission order,
# so a hit waits while an earlier fresh query computes: about 40 fresh/s x
# 4 ms = 16% of the time at this rate. At 400 q/s that share neared one
# half on a slow host, and p50 jumped between the hit path and the compute
# path from run to run.
RATE_QPS = 200
FRESH_SHARE = 0.2       # queries with a never-seen seed: computed
FRESH_RUNS = 2000
ZIPF_S = 1.1            # popularity skew of the hit share over fig9 points
SLO_MS = 50.0           # latency limit behind slo_miss_frac
THREADS = 2
SETUP_PER_GROUP = 16    # set-up probes per group; 4 groups spread through a run
BURSTS = 4              # saturated batches before and after the stream
BURST_QUERIES = 6 * 81  # fresh queries per batch: each fig9 point 6 times
SEGMENTS = 5            # latency and CPU are medians over stream segments
SAMPLE_FRESH = 16       # answers re-derived in-process per run
SAMPLE_HITS = 4
SAMPLE_BURST = 4
DRAIN_GRACE_S = 30.0
PROBE = (b'{"id": 1, "design": "dtmb2_6", "injector": "bernoulli", '
         b'"param": 0.9, "runs": 1}\n')


class Stream:
    """A generated query stream: wire lines (ids 1..n), due times in
    seconds from the stream's start, and for each query the fig9 point it
    repeats, or -1 for a fresh query."""

    def __init__(self):
        self.lines = []
        self.due = []
        self.point = []

    @property
    def fresh(self):
        return sum(1 for p in self.point if p < 0)


def fig9_lines(tools, seed):
    """The 81 fig9 grid points at `seed` as wire queries (the hit share)."""
    return run_text([tools.layers, "wire", "fig9", "--seed", seed]) \
        .splitlines()


def fresh_query(qid, base, fresh_seed):
    """A fresh query on the design and parameter of the wire query `base`:
    its own seed, v2 draws, the auto engine."""
    fields = json.loads(base)
    return json.dumps({
        "id": qid, "design": fields["design"],
        "primaries": fields["primaries"], "injector": "bernoulli",
        "param": fields["param"], "runs": FRESH_RUNS, "seed": fresh_seed,
        "engine": "auto", "rng_version": "v2"})


def make_stream(hits, seed, seconds, rate=RATE_QPS):
    """Seeded open-loop stream of rate x seconds queries: Poisson arrivals
    conditioned on that count (sorted uniform times), of which exactly
    FRESH_SHARE are fresh (distinct seed, v2 draws, auto engine) and the
    rest Zipf draws over `hits`. The fresh queries cycle through the hit
    points' designs and parameters in shuffled order. Fixing the counts
    and the fresh mix keeps the work per run equal across seeds."""
    rng = random.Random(f"perfbench-serve-{seed}")
    rank_to_point = list(range(len(hits)))
    rng.shuffle(rank_to_point)
    cumulative = list(itertools.accumulate(
        1.0 / (k + 1) ** ZIPF_S for k in range(len(hits))))
    count = max(1, round(rate * seconds))
    due = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    fresh_count = round(FRESH_SHARE * count)
    fresh = set(rng.sample(range(count), fresh_count))
    fresh_bases = [hits[k % len(hits)] for k in range(fresh_count)]
    rng.shuffle(fresh_bases)
    used_seeds = {seed}
    stream = Stream()
    for index, t in enumerate(due):
        qid = index + 1
        if index in fresh:
            fresh_seed = seed
            while fresh_seed in used_seeds:
                fresh_seed = rng.getrandbits(63)
            used_seeds.add(fresh_seed)
            line = fresh_query(qid, fresh_bases.pop(), fresh_seed)
            point = -1
        else:
            rank = bisect.bisect(cumulative, rng.random() * cumulative[-1])
            point = rank_to_point[min(rank, len(hits) - 1)]
            line = f'{{"id": {qid}, ' + hits[point][1:]
        stream.lines.append(line)
        stream.due.append(t)
        stream.point.append(point)
    return stream


def make_burst(hits, seed, count=BURST_QUERIES):
    """Seeded batch of `count` fresh queries with distinct seeds, cycling
    through the hit points' designs and parameters in shuffled order."""
    rng = random.Random(f"perfbench-burst-{seed}")
    bases = [hits[k % len(hits)] for k in range(count)]
    rng.shuffle(bases)
    seeds = set()
    while len(seeds) < count:
        seeds.add(rng.getrandbits(63))
    burst = Stream()
    for qid, (base, fresh_seed) in enumerate(zip(bases, sorted(seeds)),
                                              start=1):
        burst.lines.append(fresh_query(qid, base, fresh_seed))
        burst.due.append(0.0)
        burst.point.append(-1)
    return burst


def strip_id(answer):
    comma = answer.find(",")
    return answer if comma < 0 else answer[comma:]


def answer_problems(stream, answers, reference):
    """Indices of the stream's queries whose answer is missing, out of
    order, an error, or not what the reference says. `reference[k]` is the
    computed answer to fig9 point k; fresh answers are checked for shape."""
    bad = []
    for j, line in enumerate(stream.lines):
        if j >= len(answers):
            bad.append(j)
            continue
        answer = answers[j]
        ok = answer.startswith(f'{{"id": {j + 1}, "yield": ')
        point = stream.point[j]
        if ok and point >= 0:
            ok = strip_id(answer) == strip_id(reference[point])
        elif ok:
            try:
                fields = json.loads(answer)
                ok = (fields["runs"] == FRESH_RUNS
                      and 0 <= fields["successes"] <= FRESH_RUNS
                      and 0.0 <= fields["yield"] <= 1.0)
            except (ValueError, KeyError):
                ok = False
        if not ok:
            bad.append(j)
    return bad


def process_cpu_s(pid):
    """User + system CPU seconds of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def drive(proc, stream, seconds, grace_s=DRAIN_GRACE_S):
    """Open-loop client: writes each query when due, whatever the daemon's
    backlog, and stamps each answer line on arrival. Also reads the
    daemon's CPU time at the start and at each segment boundary. Returns
    (lateness of each send, [(arrival, line)], [cpu seconds]), times in
    seconds from the stream start."""
    payload = [(line + "\n").encode() for line in stream.lines]
    n = len(payload)
    fin, fout = proc.stdin.fileno(), proc.stdout.fileno()
    os.set_blocking(fin, False)
    # select(2) takes a microsecond timeout; epoll and poll round up to
    # whole milliseconds, which would make every send up to 1 ms late.
    selector = selectors.SelectSelector()
    selector.register(fout, selectors.EVENT_READ)
    lateness = []
    arrivals = []
    pending = b""
    partial = b""
    sent = 0
    origin = time.perf_counter() + 0.05
    deadline = origin + (stream.due[-1] if n else 0.0) + grace_s
    marks = [origin + seconds * k / SEGMENTS for k in range(SEGMENTS + 1)]
    cpu = []
    while True:
        now = time.perf_counter()
        if len(cpu) < len(marks) and now >= marks[len(cpu)]:
            cpu.append(process_cpu_s(proc.pid))
        while sent < n and origin + stream.due[sent] <= now:
            pending += payload[sent]
            lateness.append(now - origin - stream.due[sent])
            sent += 1
        if pending:
            try:
                pending = pending[os.write(fin, pending):]
            except BlockingIOError:
                pass
        if sent == n and not pending and not proc.stdin.closed:
            proc.stdin.close()
        if now > deadline:
            break
        wait = origin + stream.due[sent] - now if sent < n else 0.5
        if pending:
            wait = min(wait, 0.001)
        if len(cpu) < len(marks):
            wait = min(wait, marks[len(cpu)] - now)
        eof = False
        for _ in selector.select(max(0.0, wait)):
            chunk = os.read(fout, 1 << 16)
            stamp = time.perf_counter() - origin
            if not chunk:
                eof = True
                break
            *complete, partial = (partial + chunk).split(b"\n")
            arrivals.extend((stamp, line.decode(errors="replace"))
                            for line in complete)
        if eof:
            break
    selector.close()
    return lateness, arrivals, cpu


def setup_probe(tools, store, err_path):
    """Spawn to first answer of a one-run query, on a fresh store."""
    with open(err_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(tools.serve), "--threads", str(THREADS), "--store",
             str(store)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=err)
        proc.stdin.write(PROBE)
        proc.stdin.flush()
        # The timeout keeps a hung daemon from stalling the run.
        if select.select([proc.stdout], [], [], 60)[0]:
            line = proc.stdout.readline()
        else:
            line = b""
            proc.kill()
        elapsed = time.perf_counter() - start
        proc.stdin.close()
        proc.stdout.read()
        timed = reap(proc, start)
        proc.stdout.close()
    ok = timed.status == 0 and line.startswith(b'{"id": 1, "yield": ')
    return ok, elapsed


def sample_indices(stream):
    fresh = [j for j, p in enumerate(stream.point) if p < 0]
    hits = [j for j, p in enumerate(stream.point) if p >= 0]

    def spread(items, k):
        if not items:
            return []
        step = max(1, len(items) // k)
        return items[::step][:k]

    return sorted(spread(fresh, SAMPLE_FRESH) + spread(hits, SAMPLE_HITS))


def run_bursts(tools, burst, work, err, result, walls, first=None):
    """Saturated throughput: the whole burst piped at once into a fresh
    daemon on a fresh store, BURSTS times, each wall (spawn to exit)
    appended to `walls`. Every burst must answer as `first` does, or as
    the first of these. Returns the answers."""
    batch = work / "burst.jsonl"
    batch.write_text("\n".join(burst.lines) + "\n")
    for _ in range(BURSTS):
        name = f"burst{len(walls)}"
        timed = run_timed([tools.serve, "--threads", THREADS, "--store",
                           work / name], err, batch, work / f"{name}.out")
        answers = (work / f"{name}.out").read_text().splitlines()
        bad = answer_problems(burst, answers, [])
        result.op(timed.status == 0 and not bad,
                  f"{name}: exit {timed.status}, {len(bad)} bad or missing "
                  "answers")
        if first is None:
            first = answers
        else:
            result.op(answers == first,
                      f"{name} answers differ from the first burst's")
        walls.append(timed.wall_s)
    return first


def run_serve(tools, seed, seconds, work, result, rate=RATE_QPS,
              burst_queries=BURST_QUERIES):
    hits = fig9_lines(tools, seed)
    stream = make_stream(hits, seed, seconds, rate)
    burst = make_burst(hits, seed, burst_queries)
    store = work / "store"
    err = work / "stderr.txt"

    # Set-up probes in groups spread through the run, so neither a burst
    # of host load nor a slow phase shifts all of them.
    setup = []

    def probe_group():
        gc.collect()
        gc.disable()
        try:
            for _ in range(SETUP_PER_GROUP):
                ok, elapsed = setup_probe(tools, work / f"setup{len(setup)}",
                                          err)
                result.op(ok, f"set-up probe {len(setup)} got no answer")
                setup.append(elapsed)
        finally:
            gc.enable()

    probe_group()

    # Untimed warm pass: computes every fig9 point into the store. Its
    # answers are the reference the timed stream's hits must repeat.
    (work / "warm.jsonl").write_text("\n".join(hits) + "\n")
    warm = run_timed([tools.serve, "--threads", THREADS, "--store", store],
                     err, work / "warm.jsonl", work / "warm.out")
    reference = (work / "warm.out").read_text().splitlines()
    for k in range(len(hits)):
        result.op(warm.status == 0 and k < len(reference)
                  and reference[k].startswith(f'{{"id": {k + 1}, "yield"')
                  , f"warm answer {k + 1} missing or an error")
    if len(reference) < len(hits):
        return
    picks = [0, len(hits) // 3, 2 * len(hits) // 3, len(hits) - 1]
    inproc = run_text([tools.layers, "answer"],
                      "".join(hits[k] + "\n" for k in picks)).splitlines()
    result.op([strip_id(a) for a in inproc]
              == [strip_id(reference[k]) for k in picks],
              "warm answers differ from in-process sim::Session answers")
    probe_group()
    burst_walls = []
    burst_answers = run_bursts(tools, burst, work, err, result, burst_walls)

    # The timed stream, on a fresh daemon over the warm store: a point's
    # first touch reads the store, later touches hit memory.
    stats_path = work / "stats.json"
    with open(err, "ab") as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(tools.serve), "--threads", str(THREADS), "--store",
             str(store), "--stats-json", str(stats_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err_file)
        # A collector pause would make every send behind it late.
        gc.disable()
        try:
            lateness, arrivals, cpu_marks = drive(proc, stream, seconds)
        finally:
            gc.enable()
            if not proc.stdin.closed:
                proc.stdin.close()
            daemon = reap(proc, start, timeout=15)
        proc.stdout.close()
    probe_group()
    run_bursts(tools, burst, work, err, result, burst_walls, burst_answers)
    probe_group()

    answers = [line for _, line in arrivals]
    bad = set(answer_problems(stream, answers, reference))
    for j in range(len(stream.lines)):
        result.op(j not in bad, f"query {j + 1}: bad or missing answer")
    result.op(daemon.status == 0, f"dmfb_serve exit {daemon.status}")

    touched = {p for p in stream.point if p >= 0}
    try:
        stats = json.loads(stats_path.read_text())
        expect = {"answered": len(stream.lines), "computed": stream.fresh,
                  "store_hits": len(touched)}
        for key, value in expect.items():
            result.op(stats.get(key) == value,
                      f"daemon stats {key} = {stats.get(key)}, "
                      f"expected {value}")
    except (OSError, ValueError):
        result.op(False, "daemon wrote no stats json")

    # A sample of stream and burst answers, re-derived in-process.
    picks = [(stream.lines[j], answers[j]) for j in sample_indices(stream)
             if j < len(answers)]
    step = max(1, len(burst.lines) // SAMPLE_BURST)
    picks += [(burst.lines[j], burst_answers[j])
              for j in range(0, len(burst.lines), step)[:SAMPLE_BURST]
              if j < len(burst_answers)]
    inproc = run_text([tools.layers, "answer"],
                      "".join(line + "\n" for line, _ in picks)).splitlines()
    for (line, answer), expected in zip(picks, inproc):
        result.op(answer == expected,
                  f"answer to {line[:40]}... differs from the in-process "
                  "sim::Session answer")

    # Latency and CPU per time segment of the stream; each metric is the
    # median over segments, so a burst of host load shorter than half the
    # run does not move it.
    n = len(stream.lines)
    segments = [[] for _ in range(SEGMENTS)]
    for j in range(min(n, len(arrivals))):
        if j not in bad:
            segment = min(SEGMENTS - 1, int(stream.due[j] * SEGMENTS / seconds))
            segments[segment].append(1e3 * (arrivals[j][0] - stream.due[j]))
    latencies = [x for segment in segments for x in segment]
    segments = [segment for segment in segments if segment]
    p50s = [percentile(segment, 50) for segment in segments]
    p99s = [percentile(segment, 99) for segment in segments]
    marks = [mark for mark in cpu_marks if mark is not None]
    segment_cpu = [b - a for a, b in zip(marks, marks[1:])]
    misses = sum(1 for x in latencies if x > SLO_MS) + (n - len(latencies))
    burst_runs = len(burst.lines) * FRESH_RUNS
    result.metric("runs_per_s", burst_runs / median(burst_walls),
                  f"{len(burst.lines)} fresh queries x {FRESH_RUNS} runs "
                  "piped at once, spawn to exit, median of "
                  + " ".join(f"{x:.3f}" for x in burst_walls) + " s")
    result.metric("cpu_s", SEGMENTS * median(segment_cpu)
                  if segment_cpu else daemon.cpu_s,
                  f"daemon user+sys: {SEGMENTS} x the median segment "
                  f"({' '.join(f'{x:.2f}' for x in segment_cpu)}); "
                  f"{daemon.cpu_s:.2f} s over its whole life")
    result.metric("peak_rss_mb", daemon.rss_mb)
    result.metric("setup_s", median(setup),
                  f"spawn to first answer, median of {len(setup)} in "
                  f"{len(setup) // SETUP_PER_GROUP} groups")
    result.note("latency_p50_ms",
                f"{median(p50s):.4f}: median over {len(segments)} segments "
                f"of ~{len(latencies) // max(1, len(segments))} queries: "
                + " ".join(f"{x:.3f}" for x in p50s))
    result.note("latency_p99_ms", f"{median(p99s):.3f}: median over the "
                "segments: " + " ".join(f"{x:.2f}" for x in p99s))
    result.note("slo_miss_frac", f"{misses / max(1, n):.5f} of {n} queries "
                f"over {SLO_MS} ms (errors and missing answers count)")
    result.note("generator_lateness_ms",
                f"max {1e3 * max(lateness, default=0.0):.3f}, p99 "
                f"{1e3 * percentile(lateness, 99):.3f}")
    result.note("stream", f"{n} queries, {stream.fresh} fresh, "
                f"{len(touched)} distinct hit points")

"""The two campaign workloads: dmfb_campaign timed end to end."""

import hashlib
import time
from dataclasses import dataclass

from harness import ROOT, median, run_timed


@dataclass(frozen=True)
class Campaign:
    builtin: str
    threads: int
    points: int
    runs: int
    # The CSV at the builtin's own seed and run count is checked against
    # the repository's golden file where there is one, else against a
    # sha256 of it.
    golden: str | None = None
    reference_sha256: str | None = None

    @property
    def csv_name(self):
        return self.builtin + ".csv"


CAMPAIGNS = {
    # fig9 has no golden file. The digest was recorded with
    # `dmfb_campaign builtin:fig9 --threads 1 --out csv:DIR` on the commit
    # that added this benchmark; the CSV is the same at any thread count.
    "fig9_v1": Campaign(
        "fig9", 1, 81, 10000, reference_sha256=(
            "8fb94f2bbe032a2fb4acef6a54f2acec865be2c9880d4873c7027e09d8aadc0d"
        )),
    "fig13_assay": Campaign(
        "fig13_operational", 2, 24, 500,
        golden="tests/golden/fig13_operational.csv"),
}

SETUP_REPS = 15
MIN_TIMED_REPS = 3


def campaign_args(tools, campaign, out_dir, seed=None, runs=None):
    args = [tools.campaign, "builtin:" + campaign.builtin,
            "--threads", campaign.threads, "--out", f"csv:{out_dir}"]
    if seed is not None:
        args += ["--seed", seed]
    if runs is not None:
        args += ["--runs", runs]
    return args


def csv_problems(text, campaign, runs):
    """Shape checks of one campaign CSV: one row per grid point, the run
    count asked for, estimates that are proportions."""
    lines = text.splitlines()
    if len(lines) != campaign.points + 1:
        return [f"{len(lines) - 1} rows, expected {campaign.points}"]
    header = lines[0].split(",")
    try:
        col = {name: header.index(name)
               for name in ("runs", "yield", "successes")}
    except ValueError:
        return ["header lacks runs/yield/successes"]
    problems = []
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        try:
            ok = (int(cells[col["runs"]]) == runs
                  and 0.0 <= float(cells[col["yield"]]) <= 1.0
                  and 0 <= int(cells[col["successes"]]) <= runs)
        except (IndexError, ValueError):
            ok = False
        if not ok:
            problems.append(f"row {number} malformed: {line[:80]}")
    return problems


def reference_problem(text, campaign):
    """None when `text` is the campaign's reference CSV (builtin seed and
    run count), else what differs."""
    if campaign.golden:
        if text == (ROOT / campaign.golden).read_text():
            return None
        return f"{campaign.builtin} at its builtin seed != {campaign.golden}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest == campaign.reference_sha256:
        return None
    return (f"{campaign.builtin} at its builtin seed: CSV sha256 {digest} "
            f"!= reference {campaign.reference_sha256}")


def run_campaign(tools, workload, seed, seconds, work, result, runs=None):
    """Times `workload`'s campaign: a reference check at the builtin seed,
    set-up probes (--runs 1), then repetitions at `seed` until `seconds`
    have passed, each CSV checked against the first."""
    campaign = CAMPAIGNS[workload]
    runs = runs or campaign.runs
    out = work / "out"
    err = work / "stderr.txt"
    csv_path = out / campaign.csv_name

    def one(args, what):
        csv_path.unlink(missing_ok=True)
        timed = run_timed(args, err)
        if timed.status != 0 or not csv_path.exists():
            result.op(False, f"{what}: exit {timed.status}, no CSV: "
                      + err.read_text(errors="replace")[-300:])
            return timed, None
        return timed, csv_path.read_text()

    _, text = one(campaign_args(tools, campaign, out), "reference run")
    if text is not None:
        problem = reference_problem(text, campaign)
        result.op(problem is None, problem)

    setup = []

    def probe():
        timed, text = one(campaign_args(tools, campaign, out, seed, 1),
                          "set-up probe")
        if text is not None:
            problems = csv_problems(text, campaign, 1)
            result.op(not problems, f"set-up probe CSV: {problems[:2]}")
            setup.append(timed.wall_s)
        return text is not None

    # One set-up probe after each timed campaign, so a burst of host load
    # cannot shift all of them.
    reps = []
    first = None
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_TIMED_REPS or time.perf_counter() < deadline:
        timed, text = one(campaign_args(tools, campaign, out, seed, runs),
                          "timed campaign")
        if text is None or not probe():
            break
        if first is None:
            first = text
            problems = csv_problems(text, campaign, runs)
            result.op(not problems, f"timed campaign CSV: {problems[:2]}")
        else:
            result.op(text == first, f"repetition {len(reps) + 1} CSV "
                      "differs from the first")
        reps.append(timed)
    while reps and len(setup) < SETUP_REPS and probe():
        pass

    if not reps or not setup:
        return
    walls = [t.wall_s for t in reps]
    total_runs = campaign.points * runs
    result.metric("runs_per_s", total_runs / median(walls),
                  f"{total_runs} runs per campaign over a median wall of "
                  f"{1e3 * median(walls):.0f} ms, n={len(reps)}")
    result.metric("cpu_s", median([t.cpu_s for t in reps]),
                  "user+sys per campaign, median")
    result.metric("peak_rss_mb", max(t.rss_mb for t in reps))
    result.metric("setup_s", median(setup),
                  f"--runs 1 invocation, median of {len(setup)}")

"""The benchmark's own checks, on tiny run budgets: the correctness checks
catch corrupted and missing outputs, and every metric prints with its
unit. Run with `python3 perfbench/run.py --self-test`."""

import json
import shutil

import campaigns
import serving
import traced
from harness import (END_TO_END, PER_LAYER, ROOT, Result, log, run_dir,
                     run_text, run_timed)


def corrupt(line):
    """Flips the last digit of an answer or CSV row."""
    for i in range(len(line) - 1, -1, -1):
        if line[i].isdigit():
            return line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]
    raise ValueError("nothing to corrupt")


def check_serve_checker(tools, check):
    hits = serving.fig9_lines(tools, 1)
    stream = serving.make_stream(hits, 1, 1.0, rate=40)
    reference = run_text([tools.layers, "answer"], "\n".join(hits) + "\n") \
        .splitlines()
    answers = run_text([tools.layers, "answer"],
                       "\n".join(stream.lines) + "\n").splitlines()
    check(serving.answer_problems(stream, answers, reference) == [],
          "in-process answers pass the serve checks")
    hit = next(j for j, p in enumerate(stream.point) if p >= 0)
    fresh = next(j for j, p in enumerate(stream.point) if p < 0)
    for j, kind in ((hit, "hit"), (fresh, "fresh")):
        bad = list(answers)
        bad[j] = bad[j].replace('"yield": ', '"yield": 1', 1) \
            if kind == "fresh" else corrupt(bad[j])
        check(serving.answer_problems(stream, bad, reference) == [j],
              f"a corrupted {kind} answer is caught")
    swapped = list(answers)
    swapped[hit], swapped[hit + 1] = swapped[hit + 1], swapped[hit]
    check(set(serving.answer_problems(stream, swapped, reference))
          == {hit, hit + 1}, "out-of-order answers are caught")
    result = Result("serve_mixed", 1, False)
    for j in range(len(stream.lines)):
        result.op(j not in serving.answer_problems(stream, answers[:-1],
                                                   reference), "missing")
    check(result.failed == 1 and result.attempted == len(stream.lines),
          "a missing answer counts as one failed operation")


def check_campaign_checker(tools, check):
    campaign = campaigns.CAMPAIGNS["fig13_assay"]
    work = run_dir("selftest-csv", 0)
    timed = run_timed(campaigns.campaign_args(tools, campaign, work),
                      work / "stderr.txt")
    text = (work / campaign.csv_name).read_text()
    shutil.rmtree(work, ignore_errors=True)
    check(timed.status == 0
          and campaigns.reference_problem(text, campaign) is None,
          "the reference CSV matches the golden file")
    lines = text.splitlines()
    bad_row = "\n".join(lines[:5] + [corrupt(lines[5])] + lines[6:]) + "\n"
    check(campaigns.reference_problem(bad_row, campaign) is not None,
          "a corrupted campaign CSV is caught by the golden file")
    check(campaigns.reference_problem(bad_row, campaigns.CAMPAIGNS["fig9_v1"])
          is not None, "a CSV that is not fig9's is caught by its digest")
    check(campaigns.csv_problems("\n".join(lines[:-1]) + "\n", campaign,
                                 campaign.runs) != [],
          "a campaign CSV missing a row is caught")
    cells = lines[1].split(",")
    cells[lines[0].split(",").index("yield")] = "1.5"
    check(campaigns.csv_problems("\n".join([lines[0], ",".join(cells)]
                                           + lines[2:]), campaign,
                                 campaign.runs) != [],
          "a campaign CSV with an impossible yield is caught")


def check_metrics_print(tools, check):
    declared = {}
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"]
                    for m in spec["end_to_end"] + spec["per_layer"]}
    except (OSError, ValueError, KeyError):
        check(False, "BENCHMARK.json readable")
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        check(declared.get(name) == unit,
              f"{name} is declared in BENCHMARK.json with unit {unit}")
    for workload in ("fig9_v1", "fig13_assay", "serve_mixed"):
        for trace in (False, True):
            result = Result(workload, 1, trace)
            work = run_dir("selftest-" + workload, int(trace))
            if trace:
                traced.run_traced(tools, workload, 1, 2, work, result)
            elif workload == "serve_mixed":
                serving.run_serve(tools, 1, 2, work, result, rate=100,
                                  burst_queries=40)
            else:
                campaigns.run_campaign(tools, workload, 1, 1, work, result,
                                       runs=20)
            shutil.rmtree(work, ignore_errors=True)
            catalog = PER_LAYER if trace else END_TO_END
            printed = {name: m["unit"] for name, m in result.metrics.items()}
            check(printed == catalog and result.correct(),
                  f"{workload} trace={int(trace)} prints every metric with "
                  f"its unit and passes its checks {result.failures[:3]}")


def run(tools):
    failures = []

    def check(ok, what):
        log(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    check_serve_checker(tools, check)
    check_campaign_checker(tools, check)
    check_metrics_print(tools, check)
    log(f"self-test: {len(failures)} failed")
    return 1 if failures else 0

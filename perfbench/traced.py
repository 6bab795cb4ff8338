"""The traced run: per-layer figures from perf_layers, which replays a
workload's inputs in-process and records spans with obs::TraceRecorder."""

import json
from pathlib import Path

import campaigns
import serving
from harness import PER_LAYER, build_dir, median, run_text, run_timed


def spans(trace):
    """(name, begin_us, end_us) of every balanced B/E pair in the trace."""
    stacks = {}
    out = []
    for event in trace["traceEvents"]:
        phase = event.get("ph")
        if phase == "B":
            stacks.setdefault(event["tid"], []).append(event)
        elif phase == "E":
            begin = stacks[event["tid"]].pop()
            out.append((begin["name"], begin["ts"], event["ts"]))
    return out


def durations_ms(all_spans, name, window):
    """Durations of `name` spans that start inside the `window` span."""
    lo, hi = next((b, e) for n, b, e in all_spans if n == window)
    return [(e - b) / 1e3 for n, b, e in all_spans
            if n == name and lo <= b <= hi]


def run_traced(tools, workload, seed, seconds, work, result):
    """Per-layer figures on `workload`'s inputs at `seed`. The serve layers
    replay the stream serve_mixed's untraced run would send in `seconds`."""
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{workload}-seed{seed}.json"
    stream = serving.make_stream(serving.fig9_lines(tools, seed), seed,
                                 seconds)
    stream_path = work / "stream.jsonl"
    stream_path.write_text("\n".join(stream.lines) + "\n")
    args = [tools.layers, "layers", "--workload", workload, "--seed", seed,
            "--work", work / "layers", "--trace", trace_path,
            "--stream", stream_path]
    figures = json.loads(run_text(args, timeout=170).splitlines()[-1])

    # Answers in order and byte-identical across compute, store and memory;
    # the trace valid and complete.
    failed = int(figures["checks_failed"])
    result.attempted += int(figures["checks_made"])
    result.failed += failed
    if failed:
        result.failures.append(f"in-process: {figures['check_messages']}")

    # The replayed campaign must write the tool's CSV byte for byte.
    if workload in campaigns.CAMPAIGNS:
        campaign = campaigns.CAMPAIGNS[workload]
        out = work / "tool"
        timed = run_timed(campaigns.campaign_args(tools, campaign, out, seed),
                          work / "stderr.txt")
        tool_csv = out / campaign.csv_name
        result.op(timed.status == 0 and tool_csv.exists()
                  and tool_csv.read_bytes()
                  == Path(figures["campaign_csv"]).read_bytes(),
                  "in-process campaign CSV differs from dmfb_campaign's")

    with open(trace_path) as f:
        all_spans = spans(json.load(f))
    query_window = ("perfbench.replay" if workload == "serve_mixed"
                    else "perfbench.campaign")
    queries = durations_ms(all_spans, "session.query", query_window)
    points = durations_ms(all_spans, "campaign.point", "perfbench.campaign")
    result.op(bool(queries) and bool(points),
              "trace lacks session.query or campaign.point spans")
    figures["sim.query_ms_p50"] = median(queries)
    figures["sim.query_ms_max"] = max(queries, default=0.0)
    figures["campaign.point_ms_p50"] = median(points)
    figures["campaign.point_ms_max"] = max(points, default=0.0)

    for name in PER_LAYER:
        result.metric(name, figures[name])
    result.note("trace", f"{trace_path} ({len(all_spans)} spans; "
                f"{len(queries)} session.query, {len(points)} "
                "campaign.point; validated by obs::validate_trace_json)")


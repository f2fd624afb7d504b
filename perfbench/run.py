#!/usr/bin/env python3
"""Serving benchmark for the OVP-encoded paged KV cache.

Builds perfbench/serve_bench against the repository's own library, runs
one workload from perfbench/workloads.json, checks every request's token
stream against a replay of that request alone, and prints every metric
by name with its unit.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload chat-shared --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics BENCHMARK.json lists; --trace 1
reports the per-layer ones, from a traced phase plus a layer replay, and
writes the spans as Chrome trace-event JSON under .bench_out/.  The
build goes to $CARGO_TARGET_DIR (default .bench_build) at the root of
the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

# Set-up is timed in this many fresh processes (plus the measuring run
# itself) and reported as the median.
SETUP_RUNS = 5
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "perfbench-build.log"
    with open(log, "w") as out:
        for cmd in (
            ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(bdir), "--target", "serve_bench", "-j", "4"],
        ):
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if rc != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return bdir / "serve_bench"


def run_bench(exe, spec, extra):
    cmd = [str(exe), "--spec", json.dumps(spec)] + extra
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"serve_bench timed out: {' '.join(extra)}")
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        fail(f"serve_bench exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("serve_bench printed nothing")
    return json.loads(lines[-1])


def phase_e2e(phase, spec):
    """End-to-end numbers of one timed phase (shared by both modes)."""
    reqs = phase["requests"]
    done = M.finished(reqs)
    ttft = [M.ttft_ms(r) for r in done if M.ttft_ms(r) is not None]
    gaps = [g for r in done for g in M.itl_gaps_ms(r)]
    wall = phase["wall_s"]
    gen = sum(len(r["token_times"]) for r in reqs)
    slo = spec["slo"]
    tails = {
        "ttft_ms_p50": M.percentile(ttft, 50),
        "ttft_ms_p90": M.percentile(ttft, 90),
        "itl_ms_p50": M.percentile(gaps, 50),
        "itl_ms_p99": M.percentile(gaps, 99),
    }
    out = {k: v[0] for k, v in tails.items()}
    out["gen_tok_s"] = M.batch_gen_tok_s(reqs) if spec["load"] == "offline" else gen / wall
    out["prompt_tok_s"] = sum(r["prompt"] for r in reqs) / wall
    out["cpu_ms_per_tok"] = M.cpu_ms_per_tok(phase["cpu_s"], reqs)
    out["slo_pct"] = M.slo_pct(reqs, len(reqs), slo["ttft_ms"], slo["itl_ms"])
    out["kv_peak_mib"] = phase["kv_peak_bytes"] / 2**20
    # Which percentile each tail metric actually reports, and over how
    # many samples (metrics.percentile steps a tail down when too few
    # samples lie beyond it).
    samples = {k: (v[1], v[2]) for k, v in tails.items()}
    return out, samples


def diagnostics(raw, spec, seconds, probe_ms):
    phase = raw["timed"]
    reqs = phase["requests"]
    host = raw["host"]
    late = [(r["submit"] - r["due"]) * 1e3 for r in reqs]
    window = seconds / 2 if raw.get("trace") else seconds
    growing = spec["load"] == "open" and M.backlog_growing(phase["backlog"], window)
    return {
        "par.threads": raw["threads"],
        "par.cpu_util": phase["cpu_s"] / phase["wall_s"],
        "host.steal_pct": 100.0 * host["steal_jiffies"] / max(host["total_jiffies"], 1),
        "host.probe_ms": probe_ms,
        "driver.late_ms_max": max(late),
        "driver.backlog_peak": max((n for _, n in phase["backlog"]), default=0),
        "driver.backlog_growing": 1 if growing else 0,
    }


def per_layer(raw, spec, e2e_plain):
    tr = raw["trace"]
    phase = tr["phase"]
    reqs = phase["requests"]
    steps = tr["steps"]  # [start, end, rows, prompt_rows, active]
    rep = tr["replay"]
    svc = tr["service"]
    e2e_traced, _ = phase_e2e(phase, spec)
    queue = [q for q in (M.queue_ms(r) for r in reqs) if q is not None]
    dur = lambda s: (s[1] - s[0]) * 1e3  # noqa: E731
    work = [s for s in steps if s[2] > 0]
    prefill = [dur(s) for s in work if s[3] > 0]
    decode = [dur(s) for s in work if s[3] == 0]
    prompt_rows = sum(r["prompt"] for r in reqs)
    hits, misses = tr["dcache_hits"], tr["dcache_misses"]
    widened = (tr["forward_calls"] * rep["weight_elems"] + tr["head_calls"] * rep["head_elems"]) * 8
    out = {
        "engine.queue_ms_p50": M.percentile(queue, 50)[0],
        "engine.queue_ms_p90": M.percentile(queue, 90)[0],
        "engine.decode_step_ms_p50": statistics.median(decode) if decode else 0.0,
        "engine.prefill_step_ms_p50": statistics.median(prefill) if prefill else 0.0,
        "engine.prefill_step_pct": 100.0 * len(prefill) / max(len(work), 1),
        "engine.active_mean": statistics.mean(s[4] for s in steps),
        "engine.rows_per_step_mean": statistics.mean(s[2] for s in steps),
        "engine.busy_pct": 100.0 * sum(s[1] - s[0] for s in steps) / phase["wall_s"],
        "kv.prefix_hit_pct": 100.0 * tr["shared_rows_skipped"] / prompt_rows,
        "kv.retention_hits": tr["retention_hits"],
        "kv.retention_evictions": tr["retention_evictions"],
        "kv.cow_copy_rows": tr["cow_copy_rows"],
        "kv.ratio_vs_fp32": tr["peak_encoded_bytes"] / tr["peak_fp32_bytes"],
        "kv.pool_peak_blocks": tr["pool_peak_bytes"] / tr["pool_block_bytes"],
        "dcache.hit_pct": 100.0 * hits / max(hits + misses, 1),
        "dcache.decodes_per_row": tr["dcache_rows"] / (tr["tokens_processed"] * tr["layers"]),
        "dcache.evictions": tr["dcache_evictions"],
        "dcache.peak_mib": tr["dcache_peak_bytes"] / 2**20,
        "model.prefill_us_per_row": rep["prefill_us_per_row"],
        "model.decode_us_per_row": rep["decode_us_per_row"],
        "model.head_us_per_row": rep["head_us_per_row"],
        "codec.encode_us_per_row": rep["encode_us_per_row"],
        "codec.decode_us_per_row": rep["decode_row_us"],
        "codec.bytes_per_row": rep["bytes_per_row"],
        "gemm.linear_m1_us": rep["linear_m1_us"],
        "gemm.linear_m32_us": rep["linear_m32_us"],
        "gemm.widened_mib_per_tok": widened / 2**20 / M.offered_tokens(reqs),
        "service.us_per_op_line": svc["us_per_op_line"],
        "service.us_per_token_event": svc["us_per_token_event"],
        "trace.overhead_pct": 100.0 * (e2e_traced["cpu_ms_per_tok"] / e2e_plain["cpu_ms_per_tok"] - 1),
    }
    return out, e2e_traced


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg = json.loads((HERE / "workloads.json").read_text())
    specs = {w["name"]: w for w in cfg["workloads"]}
    if args.workload not in specs:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(specs)})")
    spec = dict(specs[args.workload], model=cfg["model"], model_seed=cfg["model_seed"])
    seed = cfg["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    exe = build()
    setup_runs = [run_bench(exe, spec, ["--setup-only", "--seed", str(seed)])
                  for _ in range(SETUP_RUNS)]
    setups = [r["setup_s"] for r in setup_runs]
    probe_ms = statistics.median(r["probe_ms"] for r in setup_runs)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    extra = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--trace-out", str(out_dir / f"{stem}.trace.json")]
    raw = run_bench(exe, spec, extra)
    setups.append(raw["setup_s"])

    reqs = raw["timed"]["requests"]
    attempted = len(reqs)
    mismatched = raw["check"]["mismatched"]
    ok = len(M.finished(reqs)) - len(mismatched)
    failed = attempted - ok

    e2e, samples = phase_e2e(raw["timed"], spec)
    e2e["ok_pct"] = 100.0 * ok / attempted
    e2e["rss_peak_mib"] = raw["rss_peak_mib"]
    e2e["setup_s"] = statistics.median(setups)
    diag = diagnostics(raw, spec, seconds, probe_ms)

    if args.trace:
        values, e2e_traced = per_layer(raw, spec, e2e)
        values.update(diag)
        listed = bench["per_layer"]
    else:
        values = e2e
        listed = bench["end_to_end"]
    missing = [m["name"] for m in listed if values.get(m["name"]) is None]
    if missing:
        fail(f"no value for {', '.join(missing)} (too few samples?)")

    print(f"workload {args.workload}: seed {seed}, {seconds:g} s, {attempted} requests, "
          f"checked {raw['check']['checked']} streams, {len(mismatched)} mismatched")
    print("  percentiles reported: " + ", ".join(
        f"{k} at p{p:.4g} of n={n}" for k, (p, n) in samples.items() if p is not None))
    for m in listed:
        print(f"  {m['name']:<28} {values[m['name']]:>14.4f} {m['unit']}")
    print("  diagnostics: " + ", ".join(f"{k}={v:.4g}" for k, v in diag.items()))
    if diag["driver.backlog_growing"]:
        print("  WARNING: the backlog was still growing at the end of the arrival window; "
              "this run's rate exceeds the host's capacity and its latencies are not comparable")
    if args.trace:
        print("  tracing overhead (traced phase vs untraced phase of this run):")
        for k in ("ttft_ms_p50", "itl_ms_p50", "gen_tok_s", "cpu_ms_per_tok"):
            a, b = e2e[k], e2e_traced[k]
            print(f"    {k:<16} untraced {a:.4f}  traced {b:.4f}  ({100 * (b / a - 1):+.1f}%)")
        print("  span self time (s):")
        for name, s in raw["trace"]["spans"].items():
            print(f"    {name:<24} n={s['count']:<6.0f} total {s['total_s']:.4f}  self {s['self_s']:.4f}")

    correct = not mismatched and failed == 0 and raw["check"]["checked"] > 0
    record = {"workload": args.workload, "seed": seed, "seconds": seconds, "trace": args.trace,
              "metrics": values, "end_to_end": e2e, "diagnostics": diag,
              "setup_samples_s": setups, "check": raw["check"], "correct": correct,
              # Open-loop validity: generator lateness per request and the
              # pending backlog after every step, (seconds, requests).
              "late_ms": [(r["submit"] - r["due"]) * 1e3 for r in reqs],
              "backlog": raw["timed"]["backlog"]}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in listed}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

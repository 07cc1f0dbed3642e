#!/usr/bin/env python3
"""FireLedger end-to-end and per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady_flo --seed 42 --seconds 30 --trace 0

Builds perfbench/flbench.exe with dune, then simulates the workload once
per sub-seed, each in a fresh process (one domain, no Obs sink), and
prints a readable report followed, as the last line of stdout, by one
JSON object: {"correct", "attempted", "failed", "metrics"}.

  --trace 0  every end-to-end metric (host metrics from untraced runs)
  --trace 1  every per-layer metric, from traced runs paired with
             untraced runs of the same sub-seeds; the two must agree on
             every simulated metric exactly (tracing only observes)

A run with seed s simulates sub-seeds 1000*s + i for i < K, where K is
a fixed function of --seconds (see ITER_SECONDS), so the simulated
metrics are exact functions of (code, seed, seconds). Simulated metrics
and the Gc top heap are interquartile means over the K sub-seeds; host
times are medians over the processes, scaled to a reference host speed
(see REF_SECONDS). Any failed output check makes the run
report "correct": false. The command exits non-zero, printing no
result, when the benchmark cannot be built or a run crashes.

Workload names and reasons, metric units and directions come from
BENCHMARK.json at the repository root; the workload parameters from
flbench itself. This file keeps what BENCHMARK.json has no key for: the
metric definitions and, for each per-layer metric, the end-to-end
metric and workload it should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "flbench.exe")

# Seconds flbench's reference kernel takes on the 2-core x86 box the
# bounds were set on. Host times are reported at that speed: measured
# time x REF_SECONDS / (median reference time of the run). On a shared
# box the same sub-seed's wall time swung 0.18-0.46 s within minutes
# (CPU time swings with it; no PMU to count instructions). The kernel,
# timed in a fresh process just before each simulation, swings with it
# and cancels most of the swing: over 10 runs x 14 durable_restart
# processes, the IQR/median of the run medians was 0.16 raw and 0.08
# scaled (0.19 when the kernel was timed after the simulation, in its
# process).
REF_SECONDS = 0.03
ITER_TIMEOUT = 150

# Host seconds one untraced sub-seed takes on a 2-core x86 box.
# K = max(1, floor(seconds / ITER_SECONDS[workload])).
ITER_SECONDS = {"steady_flo": 1.6, "durable_restart": 2.2, "open_loop_byzantine": 0.5}

# End-to-end metrics (gated), then figures printed in the report but not
# gated: the raw host figures, and user-facing metrics that exist on one
# workload only or can be 0.
DEFINITIONS = {
    "setup_s": "host time of one cold build of the cluster (and source), "
               "median over processes, at reference speed",
    "wall_s": "host time to simulate the fixed span, untraced; median over "
              "processes, at reference speed",
    "peak_heap_mb": "Gc top heap of a process that ran one sub-seed",
    "sim_tps": "definite transactions per simulated second per node in the window",
    "ok_ratio": "1 - failed_ratio",
    "block_lat_p50_ms": "A->final latency of blocks final in the window, every "
                        "counted node",
    "block_lat_p99_ms": "as block_lat_p50_ms, 99th percentile",
    "goodput_tps": "transactions final at the client-facing node 0 per simulated "
                   "second in the window",
    "client_lat_p50_ms": "first submission->final incl. queueing and retries, "
                         "final in the window (open_loop_byzantine); node 0's "
                         "block latency where padding txs are born with their block",
    "client_lat_p99_ms": "as client_lat_p50_ms, 99th percentile",
    "raw_wall_s": "wall_s as measured, before scaling to the reference speed",
    "host_speed": "REF_SECONDS / median reference-kernel time of this run",
    "failed_ratio": "failed operations over attempted: rounds ended nil or "
                    "rescinded; on open_loop_byzantine, txs dropped or evicted "
                    "in the window over txs generated in it",
    "stale_read_ratio": "stale reads over all reads in the window, session "
                        "consistency",
    "recover_ms": "restart -> the victim's definite prefix reaches the tip as "
                  "of the restart",
}
EXTRA_UNITS = {"raw_wall_s": "s", "host_speed": "ratio", "failed_ratio": "ratio",
               "stale_read_ratio": "ratio", "recover_ms": "ms"}

# Per-layer metric -> (end-to-end metric it should move, on which workload).
MOVES = {
    "sim.events": ("wall_s", "steady_flo"),
    "sim.host_ns_per_event": ("wall_s", "steady_flo"),
    "sim.warmup_host_ns_per_event": ("wall_s", "steady_flo"),
    "sim.engine_self_ms": ("wall_s", "steady_flo"),
    "sim.minor_words_per_event": ("wall_s", "steady_flo"),
    "sim.queue_depth_max": ("wall_s", "steady_flo"),
    "sim.promoted_words_per_event": ("wall_s,peak_heap_mb", "durable_restart"),
    "sim.major_collections": ("wall_s,peak_heap_mb", "durable_restart"),
    "sim.slice_cost_growth": ("wall_s,peak_heap_mb", "durable_restart"),
    "sim.node_cpu_util": ("sim_tps,block_lat_p50_ms", "steady_flo"),
    "net.messages_per_block": ("wall_s,block_lat_p50_ms", "steady_flo"),
    "net.bytes_per_tx": ("sim_tps", "steady_flo"),
    "net.dropped": ("recover_ms", "durable_restart"),
    "net.decode_errors": ("ok_ratio", "all"),
    "wire.decode_self_ms": ("wall_s", "steady_flo"),
    "wire.decode_calls": ("wall_s", "steady_flo"),
    "wire.encode_self_ms": ("wall_s", "durable_restart,steady_flo"),
    "wire.encode_calls": ("wall_s", "durable_restart,steady_flo"),
    "crypto.sha256_self_ms": ("wall_s", "steady_flo"),
    "crypto.sha256_calls": ("wall_s", "steady_flo"),
    "crypto.signatures_per_block": ("block_lat_p50_ms", "steady_flo"),
    "crypto.verifications_per_block": ("block_lat_p50_ms", "steady_flo"),
    "consensus.obbc_fast_ratio": ("block_lat_p99_ms,client_lat_p99_ms", "open_loop_byzantine"),
    "consensus.bbc_rounds": ("block_lat_p99_ms,client_lat_p99_ms", "open_loop_byzantine"),
    "consensus.obbc_fallbacks": ("block_lat_p99_ms,client_lat_p99_ms", "open_loop_byzantine"),
    "consensus.pbft_view_changes": ("block_lat_p99_ms,client_lat_p99_ms", "open_loop_byzantine"),
    "fireledger.recoveries_per_s": ("goodput_tps,ok_ratio", "open_loop_byzantine"),
    "fireledger.blocks_rescinded": ("goodput_tps,ok_ratio", "open_loop_byzantine"),
    "fireledger.wrb_nil": ("goodput_tps,ok_ratio", "open_loop_byzantine"),
    "fireledger.catch_ups": ("recover_ms", "durable_restart"),
    "fireledger.pulls": ("recover_ms", "durable_restart"),
    "fireledger.recover_ms": ("recover_ms", "durable_restart"),
    "fireledger.phase_dissemination_p50_ms": ("block_lat_p50_ms", "steady_flo"),
    "fireledger.phase_quorum_wait_p50_ms": ("block_lat_p50_ms", "steady_flo"),
    "fireledger.phase_finality_delay_p50_ms": ("block_lat_p50_ms", "steady_flo"),
    "flo.merge_wait_p50_ms": ("block_lat_p99_ms", "steady_flo"),
    "flo.merge_wait_p99_ms": ("block_lat_p99_ms", "steady_flo"),
    "chain.admit_ns": ("wall_s", "open_loop_byzantine"),
    "chain.backpressured": ("client_lat_p99_ms,ok_ratio", "open_loop_byzantine"),
    "chain.evicted": ("client_lat_p99_ms,ok_ratio", "open_loop_byzantine"),
    "chain.admission_wait_p50_ms": ("client_lat_p99_ms,ok_ratio", "open_loop_byzantine"),
    "chain.admission_wait_p99_ms": ("client_lat_p99_ms,ok_ratio", "open_loop_byzantine"),
    "persist.fsyncs_per_block": ("wall_s,peak_heap_mb", "durable_restart"),
    "persist.bytes_per_block": ("wall_s,peak_heap_mb", "durable_restart"),
    "persist.snapshots": ("wall_s,peak_heap_mb", "durable_restart"),
    "persist.wal_self_ms": ("wall_s,peak_heap_mb", "durable_restart"),
    "persist.restart_host_ms": ("recover_ms,wall_s", "durable_restart"),
    "persist.replayed": ("recover_ms,wall_s", "durable_restart"),
    "persist.torn_discards": ("recover_ms,wall_s", "durable_restart"),
    "load.generated": ("wall_s,client_lat_p99_ms", "open_loop_byzantine"),
    "load.retried_txs": ("wall_s,client_lat_p99_ms", "open_loop_byzantine"),
    "load.note_block_ns": ("wall_s,client_lat_p99_ms", "open_loop_byzantine"),
    "load.note_evicted_ns": ("wall_s,client_lat_p99_ms", "open_loop_byzantine"),
    "load.stale_read_ratio": ("stale_read_ratio", "open_loop_byzantine"),
    "trace.overhead_s": ("wall_s", "all"),
}


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env():
    env = dict(os.environ)
    # One domain, default Gc settings, no shared dune cache outside the
    # checkout.
    for var in ("OCAMLRUNPARAM", "FL_JOBS"):
        env.pop(var, None)
    env["DUNE_CACHE"] = "disabled"
    return env


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    raise BenchError("dune not found on PATH")


def build():
    p = subprocess.run(
        dune_command() + ["build", "--root", ROOT, "--display", "quiet", "./perfbench/flbench.exe"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout)
        raise BenchError("build failed")


def flbench(*args):
    p = subprocess.run(
        [EXE, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=ITER_TIMEOUT,
    )
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise BenchError(f"flbench {' '.join(args)} exited {p.returncode}")
    return json.loads(lines[-1])


def simulate(workload, subseed, trace):
    return flbench(workload, str(subseed), str(trace))


def simulate_timed(workload, subseed):
    """An untraced run, with the reference kernel's times from a fresh
    process started just before it."""
    ref_s = flbench("reference")["ref_s"]
    return dict(simulate(workload, subseed, 0), ref_s=ref_s)


def iqm(xs):
    """Interquartile mean: the mean of the middle half. Per-seed results
    of the Byzantine workload are heavy-tailed; this keeps one outlying
    sub-seed from moving the run's figure."""
    xs = sorted(xs)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def failed_checks(run):
    return [name for name, ok in run["checks"].items() if not ok]


def untraced(workload, subseeds):
    runs = [simulate_timed(workload, s) for s in subseeds]
    # Determinism: the first sub-seed again must repeat every simulated
    # metric exactly.
    again = simulate_timed(workload, subseeds[0])
    problems = [(r["seed"], c) for r in runs for c in failed_checks(r)]
    if again["sim"] != runs[0]["sim"]:
        problems.append((subseeds[0], "simulated metrics did not repeat"))
    sims = [r["sim"] for r in runs]
    procs = runs + [again]
    raw_wall = statistics.median([r["wall_s"] for r in procs])
    speed = REF_SECONDS / statistics.median([t for r in procs for t in r["ref_s"]])
    metrics = {
        "setup_s": speed * statistics.median([r["setup_s"] for r in procs]),
        "wall_s": speed * raw_wall,
        "raw_wall_s": raw_wall,
        "host_speed": speed,
        "peak_heap_mb": iqm([r["peak_heap_mb"] for r in runs]),
    }
    for key in sims[0]:
        if key != "events":
            metrics[key] = iqm([s[key] for s in sims])
    metrics["ok_ratio"] = 1.0 - metrics["failed_ratio"]
    return metrics, len(runs) + 1, problems, runs[0]


def traced(workload, subseeds):
    problems, layers, overheads, first = [], [], [], None
    for s in subseeds:
        u = simulate(workload, s, 0)
        t = simulate(workload, s, 1)
        problems += [(s, c) for c in failed_checks(t)]
        if t["sim"] != u["sim"]:
            diff = [k for k in u["sim"] if u["sim"][k] != t["sim"].get(k)]
            problems.append((s, "tracing changed " + ", ".join(diff)))
        overheads.append(t["wall_s"] - u["wall_s"])
        layers.append(t["layer"])
        first = first or t
    metrics = {}
    for name in MOVES:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(overheads)
        else:
            # A layer the workload does not exercise reports 0.
            metrics[name] = statistics.median([l.get(name, 0.0) for l in layers])
    return metrics, 2 * len(subseeds), problems, first


def print_slices(run):
    warmup_end_ns = run["warmup_end_ns"]
    print(f"slices of sub-seed {run['seed']} (traced; warm-up ends at {warmup_end_ns / 1e6:.0f} ms):")
    print(f"  {'sim_ms':>7} {'host_ms':>9} {'events':>8} {'minor_w/ev':>11} {'promo_w/ev':>11} {'majors':>6}")
    for end, host, ev, minor, promo, majors in run["slices"]:
        tag = "warm" if end <= warmup_end_ns else ""
        print(f"  {end / 1e6:7.0f} {host / 1e6:9.2f} {ev:8d} {minor / max(ev, 1):11.1f} "
              f"{promo / max(ev, 1):11.1f} {majors:6d} {tag}")


def main():
    spec = load_spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description="FireLedger end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(whys))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    k = max(1, int(args.seconds / ITER_SECONDS[args.workload]))
    try:
        build()
        if args.trace == 0:
            subseeds = [1000 * args.seed + i for i in range(k)]
            metrics, attempted, problems, first = untraced(args.workload, subseeds)
        else:
            subseeds = [1000 * args.seed + i for i in range(max(1, k // 2))]
            metrics, attempted, problems, first = traced(args.workload, subseeds)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: {whys[args.workload]}")
    print(f"  {first['params']}")
    print(f"  seed {args.seed} -> sub-seeds {subseeds[0]}..{subseeds[-1]}")
    if args.trace == 0:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        out = {n: {"value": metrics[n], "unit": u} for n, u in units.items()}
        units.update(EXTRA_UNITS)
        for name, unit in units.items():
            if name in metrics:
                print(f"  {name:<20} {metrics[name]:>14.6g} {unit:<6} {DEFINITIONS[name]}")
    else:
        print_slices(first)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, unit in units.items():
            moves, on = MOVES[name]
            print(f"  {name:<40} {metrics[name]:>14.6g} {unit:<6} -> {moves} ({on})")
        out = {n: {"value": metrics[n], "unit": u} for n, u in units.items()}
    for subseed, what in problems:
        print(f"CHECK FAILED: sub-seed {subseed}: {what}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len({subseed for subseed, _ in problems}),
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

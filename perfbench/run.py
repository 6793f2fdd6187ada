#!/usr/bin/env python3
"""Repository benchmark: builds `perfbench` and measures one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The Rust package beside this file is built
in release mode into $CARGO_TARGET_DIR (default `.bench_build`), then
driven one job per fresh process:

* set-up: SETUPS_PER_SEGMENT cold starts before each segment, each in its
  own process; `setup_s` is the median of those before the segments
  used (below). A process's memory layout moves set-up cost
  by tens of percent, so several layouts are averaged, not one pinned;
* measurement: `--seconds` split over SEGMENTS processes run one after
  another, each set up untimed and warmed up first. Each end-to-end
  figure is computed per segment, and the run reports its median over
  the half of the segments during which the hypervisor stole the least
  CPU time (`/proc/stat` steal): the host takes up to ~40% of the CPUs
  in episodes, and fresh processes also average memory-layout effects
  instead of pinning one;
* host speed: the measuring thread runs a fixed reference unit
  (`src/calib.rs`, independent of the KCM code) every 10 ms, and each
  set-up job runs units for 50 ms after its set-up. Every time-based
  end-to-end figure is scaled by NOMINAL_UNIT_S over the units next to
  it, so it reads as on a host of the nominal speed: the host's speed
  swings by up to 2x from second to second, and a change to the program
  moves the workload's times and not the reference's.

With `--trace 0` the last stdout line reports every end-to-end metric of
BENCHMARK.json; with `--trace 1`, every per-layer metric: half the
segments run traced (spans around each call into a layer, written to
`.perfbench_out/`), half untraced, and `trace.overhead_frac` compares
their read latency. Every answer is checked; `failed` counts errors,
BUSY after retries and wrong answers.
"""

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_mix", "serve_kb_rw", "inproc_cycle")
SEGMENTS = 10
SETUPS_PER_SEGMENT = 1
# A round figure near the reference unit's time on the host the
# benchmark was tuned on (a 2-vCPU KVM guest, Intel Xeon): scaled
# figures read as on that host.
NOMINAL_UNIT_S = 100e-6
# Reference units on each side whose median is the host speed at a
# moment: ±3 units, about ±35 ms.
SMOOTH = 3
STEAL_SLACK = 0.02
# Generous per-process limit; a run as a whole must end within 180 s.
PROCESS_TIMEOUT_S = 120
FIDELITY_PINS = (
    "kcm_cpu.instr_per_pass",
    "kcm_cpu.sim_cycles_per_pass",
    "kcm_mem.dcache_hit_ratio",
    "kcm_mem.icache_hit_ratio",
    "kcm_mem.page_faults_per_pass",
)


def fail(why):
    print(f"perfbench: {why}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def pin_to_one_cpu():
    """Runs the job on one CPU. The hypervisor deschedules each vCPU for
    milliseconds at a time; a request that crosses CPUs (client, event
    loop, worker) waits whenever either CPU is out, which cut `serve_mix`
    throughput by up to 70% during steal episodes. On one CPU a request
    waits only for its own. The server's default worker count follows
    the affinity mask (`available_parallelism`)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def job(binary, *args):
    """Runs one perfbench job in a fresh process; returns its JSON line."""
    try:
        out = subprocess.run(
            [binary, *map(str, args)], stdout=subprocess.PIPE, text=True,
            timeout=PROCESS_TIMEOUT_S, preexec_fn=pin_to_one_cpu,
        )
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(map(str, args))}: timed out")
    if out.returncode != 0:
        fail(f"{' '.join(map(str, args))}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def percentile(sorted_values, p):
    """Nearest rank: the smallest sample with at least ceil(p*n) at or below it."""
    rank = -(-int(p * 1000) * len(sorted_values) // 1000)
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def host_speed(segment):
    """Adds the host's speed to a segment: `speed` at each reference unit
    (NOMINAL_UNIT_S over the median of the units around it), `mean_speed`
    over the window, `read_speed` at each read's start (the last unit
    before it), and `active_s`, the window without the units' wall time."""
    units = segment["ref_unit_ns"]
    speed = [NOMINAL_UNIT_S * 1e9 / statistics.median(units[max(i - SMOOTH, 0):i + SMOOTH + 1])
             for i in range(len(units))]
    at = segment["ref_at_ns"]
    segment["mean_speed"] = statistics.fmean(speed)
    segment["read_speed"] = [speed[max(bisect.bisect_right(at, t) - 1, 0)]
                             for t in segment["lat_at_ns"]]
    segment["active_s"] = segment["window_s"] - segment["ref_wall_ns"] / 1e9


def latency_ms(segments, key="lat_ns"):
    lat = sorted(x for s in segments for x in s[key])
    if not lat:
        return 0.0, 0.0, 0
    return percentile(lat, 0.50) / 1e6, percentile(lat, 0.99) / 1e6, len(lat)


def calmest(segments):
    """The segments during which the hypervisor stole little CPU time from
    the machine: every segment within STEAL_SLACK of the least stolen
    share, and at least the calmer half. The host steals up to ~40% of
    the CPUs in episodes of seconds to minutes, and every time-based
    figure moves with it."""
    steals = sorted(s["steal_frac"] for s in segments)
    limit = max(steals[(len(steals) - 1) // 2], steals[0] + STEAL_SLACK)
    return [s for s in segments if s["steal_frac"] <= limit]


def segment_median(segments, figure):
    """The median of one per-segment figure over the calmest segments."""
    return statistics.median(figure(s) for s in calmest(segments))


def p50_ms(s, scaled=True):
    """The median latency of each kind of read (mix case, suite program),
    combined by geometric mean; each read scaled by the host's speed as
    it started. A median taken across a mix of requests with different
    costs sits on a cliff between kinds and jumps with small speed
    changes; per-kind medians do not."""
    by_kind = {}
    speeds = s["read_speed"] if scaled else [1.0] * len(s["lat_ns"])
    for lat, kind, speed in zip(s["lat_ns"], s["lat_kind"], speeds):
        by_kind.setdefault(kind, []).append(lat * speed)
    medians = [percentile(sorted(v), 0.50) / 1e6 for v in by_kind.values()]
    return statistics.geometric_mean(medians)


def end_to_end(plain):
    # The cold starts run just before each segment, so those before the
    # calmest segments saw the same calm host.
    setups = [x for s in calmest(plain) for x in s["setups"]]
    values = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": segment_median(plain, p50_ms),
        "throughput_rps": segment_median(
            plain, lambda s: s["reads"] / s["active_s"] / s["mean_speed"]),
        "cpu_ms_per_req": segment_median(
            plain, lambda s: (s["user_s"] + s["sys_s"] - s["ref_cpu_ns"] / 1e9) * 1e3
            / (s["reads"] + s["writes"]) * s["mean_speed"]),
        "peak_rss_mb": segment_median(plain, lambda s: s["hwm_kb"] / 1024),
        "sim_minstr_per_s": segment_median(
            plain, lambda s: s["instr"] / s["active_s"] / 1e6 / s["mean_speed"]),
    }
    samples = sum(len(s["lat_ns"]) for s in plain)
    steal = ", ".join(f"{s['steal_frac']:.2f}" for s in plain)
    speed = ", ".join(f"{s['mean_speed']:.2f}" for s in plain)
    notes = {
        "query_p50_ms": f"median of {len(calmest(plain))} of {len(plain)} segments "
                        f"(steal {steal}), {samples} samples",
        "throughput_rps": f"scaled by host speed {speed}",
        "setup_s": f"median of {len(setups)} processes before those segments",
    }
    return values, notes


def per_layer(plain, traced):
    ops = sum(s["reads"] + s["writes"] for s in plain)
    # Without the reference units' CPU time, nearly all of it kernel time.
    ref_cpu = sum(s["ref_cpu_ns"] / 1e9 for s in plain)
    cpu = sum(s["user_s"] + s["sys_s"] for s in plain) - ref_cpu
    sys_s = sum(s["sys_s"] for s in plain) - ref_cpu
    values = {
        "proc.minflt_per_req": sum(s["minflt"] for s in plain) / ops,
        "proc.alloc_kb_per_req": sum(s["alloc_bytes"] for s in plain) / 1024 / ops,
        "proc.sys_cpu_frac": max(sys_s, 0.0) / cpu if cpu > 0 else 0.0,
        "kcm_serve.busy": sum(s["layers"].get("kcm_serve.busy", 0) for s in plain + traced),
        "kcm_serve.errors": sum(s["layers"].get("kcm_serve.errors", 0) for s in plain + traced),
    }
    # Span-derived figures and set-up phase timings: mean over the
    # traced segments.
    for name in {k for s in traced for k in s["layers"]} - set(values):
        values[name] = statistics.fmean(s["layers"].get(name, 0.0) for s in traced)
    write_p50, _, _ = latency_ms(plain, "write_lat_ns")
    _, late_p99, _ = latency_ms(plain, "write_late_ns")
    values["kcm_serve.write_p50_ms"] = write_p50
    values["kcm_serve.writer_late_p99_ms"] = late_p99
    # Tails repeat too poorly between runs to gate on (see NOTES.md):
    # reported here, pooled over the untraced segments.
    _, values["tail.query_p99_ms"], _ = latency_ms(plain)
    # Span times are as measured, not scaled, and so are these.
    base_p50 = segment_median(plain, lambda s: p50_ms(s, scaled=False))
    traced_p50 = segment_median(traced, lambda s: p50_ms(s, scaled=False))
    values["trace.base_query_p50_ms"] = base_p50
    values["trace.query_p50_ms"] = traced_p50
    values["trace.overhead_frac"] = traced_p50 / base_p50 - 1 if base_p50 else 0.0
    # The host speed they were measured at:
    values["host.ref_unit_us"] = statistics.median(
        u / 1e3 for s in plain + traced for u in s["ref_unit_ns"])
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    try:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError as e:
        fail(f"BENCHMARK.json: {e}")

    binary = build()
    segments = []
    for k in range(SEGMENTS):
        # Cold starts are spread over the run, so one slow episode of the
        # host cannot catch them all.
        setups = []
        for _ in range(0 if args.trace else SETUPS_PER_SEGMENT):
            s = job(binary, "setup", args.workload, args.seed)
            setups.append(s["setup_s"] * NOMINAL_UNIT_S * 1e9 / statistics.median(s["ref_unit_ns"]))
        mode = "traced" if args.trace and k % 2 == 0 else "plain"
        seed = args.seed * 100 + k
        segment = job(binary, "measure", args.workload, seed, args.seconds / SEGMENTS, mode)
        host_speed(segment)
        segment["setups"] = setups
        segments.append((mode, segment))
    plain = [s for mode, s in segments if mode == "plain"]
    traced = [s for mode, s in segments if mode == "traced"]

    attempted = sum(s["reads"] + s["writes"] for _, s in segments)
    failed = sum(s["failed"] for _, s in segments)
    correct = failed == 0 and attempted > 0
    # The simulator's counters are pinned: every window must report the
    # same ones.
    for pin in FIDELITY_PINS:
        if len({s["layers"].get(pin) for _, s in segments}) != 1:
            correct = False

    if args.trace:
        values, notes = per_layer(plain, traced), {}
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(plain)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # A layer this workload does not touch did no work: 0.
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{args.workload:>14} {m['name']:<38} {value:>14.6g} {m['unit']}{note}")
    print(f"{args.workload:>14} ops={attempted} ops_failed={failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

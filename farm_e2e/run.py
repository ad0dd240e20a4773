#!/usr/bin/env python3
"""End-to-end farm benchmark: real GulfStream deployments, four workloads.

  python3 farm_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 farm_e2e/run.py --print-spec   # the BENCHMARK.json this file defines

Builds farm_e2e/farm_bench together with the repository's libraries from
source under .bench_build/farm_e2e, then runs one process per deployment.
With --trace 0 it repeats the deployment until --seconds are used and
reports the median of every end-to-end metric; with --trace 1 it runs one
measured and one traced (step-attributed) deployment and reports the
per-layer metrics. Progress and a readable table go to stderr; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is 0 only when every correctness check passed.
See farm_e2e/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "farm_e2e")
BINARY_TIMEOUT_S = 170

WORKLOADS = [
    ("oceano_discovery",
     "flat Oceano farm whose admin AMG holds every node, so O(n^2) beacon "
     "handling in discovery dominates the wall time"),
    ("hier_steady",
     "two-level hierarchy with a long steady window: the heartbeat send, "
     "deliver and dispatch path dominates; faults cross DomainUplink to "
     "RootCentral"),
    ("oceano_churn",
     "flat Oceano under rolling fault waves: 2PC view changes, suspicion and "
     "probes, reports and Central ingest beside the heartbeat path"),
    ("real_udp",
     "64 daemons on loopback UDP with wall-clock timers: the only path "
     "through UdpTransport, EventLoop and WallClock"),
]
SIM_WORKLOADS = {"oceano_discovery", "hier_steady", "oceano_churn"}
PHASES = ["discovery", "steady", "fault"]

# (name, unit, bound): bound is the share of the parent's median by which
# the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("discovery_wall_s", "s", 0.25),
    ("steady_wall_s", "s", 0.25),
    ("fault_wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mib", "MiB", 0.1),
    ("discovery_sim_s", "s", 0.15),
    ("detection_p50_ms", "ms", 0.15),
    ("detection_p90_ms", "ms", 0.15),
    ("report_p50_ms", "ms", 0.25),
]

TRACKED_TYPES = ["beacon", "heartbeat", "prepare", "commit",
                 "membership_report", "domain_report"]
BUCKETS = ["gs.discovery", "gs.amg", "gs.fd", "gs.report", "gs.central",
           "gs.central_hier", "net.fault", "gs.send", "net.deliver",
           "gs.dispatch"]

# (name, unit). Counts come from the traced deployment (the measured one
# executes the same events); rates and times from the measured deployment.
PER_LAYER = (
    [(f"sim.events.{p}", "count") for p in PHASES]
    + [(f"sim.events_per_s.{p}", "1/s") for p in PHASES]
    + [("sim.queue_high_water", "count")]
    + [(f"net.frames_sent.{p}", "count") for p in PHASES]
    + [("net.frames_delivered", "count"), ("net.frames_lost", "count"),
       ("net.bytes_sent", "B")]
    + [(f"net.frames_sent.{t}", "count") for t in TRACKED_TYPES]
    + [("net.events_per_delivery", "ratio")]
    + [(f"wire.decoded.{t}", "count") for t in TRACKED_TYPES]
    + [("wire.dropped", "count")]
    + [(f"gs.{n}", "count") for n in
       ["beacons_heard", "views_installed", "twopc_aborts", "hb_misses",
        "probes", "deaths_declared", "reports_sent", "report_retries"]]
    + [(f"central.{n}", "count") for n in
       ["reports_received", "reports_applied", "report_dups", "need_full",
        "failures_committed", "nodes_down"]]
    + [("root.reports_applied", "count"), ("root.need_fulls", "count"),
       ("uplink.reports_sent", "count"), ("uplink.retries", "count")]
    + [("span.view_change_p50_ms", "ms"), ("span.join_p50_ms", "ms"),
       ("span.abandoned", "count"), ("span.open_at_end", "count")]
    + [(f"udp.{n}", "B" if n == "bytes_sent" else "count") for n in
       ["frames_sent", "frames_received", "bytes_sent", "send_errors",
        "recv_unknown"]]
    + [(f"phase.cpu_s.{p}", "s") for p in PHASES]
    + [("farm.converged_s", "s")]
    + [(f"step.{b}.steps", "count") for b in BUCKETS]
    + [(f"step.{b}.self_pct", "%") for b in BUCKETS]
    + [("step.dispatch_residual", "ratio"), ("trace.overhead_ratio", "ratio")]
)


class BenchError(Exception):
    pass


def spec():
    """The BENCHMARK.json contents this benchmark implements."""
    return {
        "command": ["python3", "farm_e2e/run.py"],
        "paths": ["farm_e2e"],
        "run_seconds": 30,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": better(n)}
                      for n, u in PER_LAYER],
    }


def better(name):
    # Throughput rates are the only per-layer metrics where more is better.
    return "higher" if name.startswith("sim.events_per_s.") else "lower"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --- Build ------------------------------------------------------------------


def build():
    """Configures and builds farm_bench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"repository sources not found under {ROOT}/src")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not os.path.isfile(cache):
        step(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "--build", BUILD_DIR, "--target", "farm_bench", "-j", jobs])
    return os.path.join(BUILD_DIR, "farm_bench")


def step(cmd):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"{' '.join(cmd)}: {err}") from err
    if proc.returncode != 0:
        log(proc.stdout[-4000:], proc.stderr[-4000:])
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")


# --- One deployment ---------------------------------------------------------------


def deploy(binary, workload, seed, traced, smoke, settle=True):
    flag = {True: "true", False: "false"}
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--traced={flag[traced]}", f"--smoke={flag[smoke]}",
           f"--settle={flag[settle]}"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} deployment timed out") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr[-4000:])
        raise BenchError(f"{workload} deployment exited {proc.returncode}")
    return json.loads(lines[-1])


# --- Aggregation ------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def phase_time(runs, phase):
    """(wall_s, cpu_s) of one phase over a run's deployments.

    A simulated deployment repeats exactly for its seed and reports its
    phase time per 100 ms chunk of simulated time. Host noise (contention
    for shared caches and memory bandwidth) only ever adds time, so each
    chunk's fastest repetition is its best estimate; the phase time is the
    sum of those. real_udp has no chunks: its phases are set by wall-clock
    timers and take one of a few protocol paths at random (an extra
    election round, a delayed detection), so it takes the mean of the phase
    totals, which moves smoothly with the mix where a median would jump.
    """
    chunks = [r[f"{phase}.chunks"] for r in runs]
    if chunks[0] and all(c[0::3] == chunks[0][0::3] for c in chunks):
        wall = sum(min(col) for col in zip(*[c[1::3] for c in chunks]))
        cpu = sum(min(col) for col in zip(*[c[2::3] for c in chunks]))
        return wall, cpu
    return (statistics.fmean([r[f"{phase}_wall_s"] for r in runs]),
            statistics.fmean([r[f"phase.cpu_s.{phase}"] for r in runs]))


def end_to_end(workload, runs):
    # Sim deployments repeat exactly, so their latency samples are taken
    # once; real_udp pools every deployment's samples.
    sampled = runs if workload not in SIM_WORKLOADS else runs[:1]
    detection = [us for r in sampled for us in r["detection_us"]]
    # A leader co-hosted with its Central delivers the report in place
    # (zero latency); the metric follows reports that crossed the network.
    reports = [us for r in sampled for us in r["report_us"] if us > 0]
    pick = {"peak_rss_mib": median([r["peak_rss_mib"] for r in runs]),
            "discovery_sim_s": statistics.fmean(
                [r["discovery_sim_s"] for r in runs])}
    pick["cpu_s"] = 0.0
    for p in PHASES:
        pick[f"{p}_wall_s"], cpu = phase_time(runs, p)
        pick["cpu_s"] += cpu
    pick["setup_s"] = median([s for r in runs for s in r["setup_s"]])
    pick["detection_p50_ms"] = median(detection) / 1000.0
    pick["detection_p90_ms"] = p90(detection) / 1000.0
    pick["report_p50_ms"] = median(reports) / 1000.0
    info = {"deployments": len(runs), "detections": len(detection),
            "reports": len(reports)}
    return pick, info


def per_layer(workload, measured, traced):
    # Each backend lacks the other's layers: no fabric, event core or step
    # attribution on real_udp, no sockets on the simulator. Those read 0.
    absent = (("udp.",) if workload in SIM_WORKLOADS else
              ("sim.", "net.", "step.", "root.need_fulls"))
    out = {}
    for name, _ in PER_LAYER:
        if name in traced:
            out[name] = traced[name]
        elif name.startswith(absent):
            out[name] = 0
        elif not name.startswith(("sim.events_per_s.", "step.", "trace.")):
            raise BenchError(f"{workload} deployment did not report {name}")
    # Times and rates from the measured deployment, not the traced one.
    for p in PHASES:
        wall = measured[f"{p}_wall_s"]
        events = measured[f"sim.events.{p}"]
        out[f"sim.events_per_s.{p}"] = events / wall if wall > 0 else 0.0
        out[f"phase.cpu_s.{p}"] = measured[f"phase.cpu_s.{p}"]
    for name in ["farm.converged_s", "span.view_change_p50_ms",
                 "span.join_p50_ms"]:
        out[name] = measured[name]
    total = sum(traced.get(f"step.{b}.self_s", 0.0) for b in BUCKETS)
    for b in BUCKETS:
        self_s = traced.get(f"step.{b}.self_s", 0.0)
        out[f"step.{b}.self_pct"] = 100.0 * self_s / total if total > 0 else 0.0
    # Every frame delivered to a daemon is dispatched by one later step; a
    # dispatch that hears a beacon publishes kBeaconHeard and so sits in
    # gs.discovery. What remains are dispatches that traced or replied
    # otherwise (README.md, "Reading the step buckets").
    delivered = out["net.frames_delivered"]
    dispatched = out["step.gs.dispatch.steps"] + out["gs.beacons_heard"]
    out["step.dispatch_residual"] = (
        (delivered - dispatched) / delivered if delivered > 0 else 0.0)
    # Tracing overhead: traced over measured phase wall time on the sim;
    # on real_udp, whose wall time is set by timers, the same ratio of CPU.
    key = "cpu_s" if workload not in SIM_WORKLOADS else None
    t_cost = (traced[key] if key else
              sum(traced[f"{p}_wall_s"] for p in PHASES))
    m_cost = (measured[key] if key else
              sum(measured[f"{p}_wall_s"] for p in PHASES))
    out["trace.overhead_ratio"] = t_cost / m_cost if m_cost > 0 else 0.0
    return out


class Tally:
    """Operations attempted and failed across deployments and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add_run(self, workload, run):
        self.attempted += run["attempted"]
        self.failed += run["failed"]
        self.failures += [f"{workload}: {f}" for f in run["failures"]]

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def same_counts(a, b):
    keys = [f"sim.events.{p}" for p in PHASES] + \
           [f"net.frames_sent.{p}" for p in PHASES]
    return all(a[k] == b[k] for k in keys)


def deployment_seed(workload, seed, k):
    """Seed of a run's k-th deployment.

    Simulated deployments repeat one seed exactly, which the per-chunk
    phase clocks rely on. A real_udp deployment is not repeatable anyway,
    and its seed (start-up skew, victims) picks between protocol paths of
    different speed, so each deployment gets its own seed and the run
    averages over the paths instead of inheriting one seed's luck.
    """
    return seed if workload in SIM_WORKLOADS else seed * 1000 + k


def measure(binary, workload, seed, seconds, trace, smoke=False):
    tally = Tally()
    sim = workload in SIM_WORKLOADS
    if trace:
        measured = deploy(binary, workload, seed, False, smoke)
        traced = deploy(binary, workload, seed, True, smoke)
        tally.add_run(workload, measured)
        tally.add_run(workload, traced)
        if sim:
            tally.check(same_counts(measured, traced),
                        "traced run executed different event/frame counts")
        metrics = per_layer(workload, measured, traced)
        units = dict(PER_LAYER)
        info = {}
    else:
        runs = []
        start = time.monotonic()
        while True:
            # Only the first deployment settles and checks the invariants;
            # the repeats are checked identical to it below.
            runs.append(deploy(binary, workload,
                               deployment_seed(workload, seed, len(runs)),
                               False, smoke, settle=not runs))
            tally.add_run(workload, runs[-1])
            elapsed = time.monotonic() - start
            if smoke or elapsed * (len(runs) + 1) / len(runs) > seconds:
                break
        if sim:
            tally.check(all(same_counts(runs[0], r) and
                            r["detection_us"] == runs[0]["detection_us"]
                            for r in runs),
                        "deployments of one seed were not identical")
        metrics, info = end_to_end(workload, runs)
        units = {n: u for n, u, _ in END_TO_END}
    return {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units},
        "info": info,
        "failures": tally.failures,
    }


def report(workload, result):
    log(f"farm_e2e {workload}: correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"op_fail_ratio={result['failed'] / result['attempted']:.4g}")
    for k, v in result["info"].items():
        log(f"  {k:<28} {v}")
    for name, m in result["metrics"].items():
        log(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for f in result["failures"][:20]:
        log(f"  FAILED: {f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--print-spec", action="store_true")
    args = parser.parse_args()
    if args.print_spec:
        print(json.dumps(spec(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(build(), args.workload, args.seed, args.seconds,
                         args.trace)
    except BenchError as err:
        log(f"farm_e2e: {err}")
        return 2
    report(args.workload, result)
    for m in result["metrics"].values():
        if not math.isfinite(m["value"]):
            log("farm_e2e: non-finite metric")
            return 2
    print(json.dumps({k: result[k] for k in
                      ["correct", "attempted", "failed", "metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

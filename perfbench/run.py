#!/usr/bin/env python3
"""Repository benchmark: the four ROADMAP pipelines end to end, and each
layer from a separate traced run.

    python3 perfbench/run.py --workload theory_sweep --seed 1 \
        --seconds 25 --trace 0

Run from anywhere inside a checkout; it builds the tools from source into
.bench_build/ (Release), prepares the workload's inputs from --seed, and
prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 times the shipped tools (p2p_sweep, p2p_phase, p2p_monitor) as
child processes and reports the end-to-end metrics; --trace 1 runs the
in-process layer runner (perfbench_layers) and reports the per-layer
metrics. perfbench/README.md documents the workloads, the metrics and the
layer -> end-to-end prediction table.
"""

import argparse
import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
TOOLS = os.path.join(BUILD, "repo")
LAYERS = os.path.join(BUILD, "perfbench_layers")
# The sweep and phase workloads run at nproc threads capped at 4, which is
# the tools' own default on a 4-core box.
THREADS = max(1, min(4, os.cpu_count() or 1))
TARGETS = ["p2p_sweep", "p2p_phase", "p2p_monitor", "perfbench_layers"]
# Set-up is repeated and its median reported, so a slow outlier does not
# read as work moved into set-up.
SETUP_REPEATS = 5
# Every timed variant gets at least this many invocations, however long
# one takes.
MIN_ROUNDS = 2
# CPU seconds of the calibration probe (perfbench/probe.cpp) on the
# reference box; end-to-end times are rescaled to a host on which the
# probe takes this long (see perfbench/README.md).
PROBE_REF_S = 0.065
# Probe time after each set-up, as a share of its wall time (the spawner
# uses the same share after each timed invocation).
PROBE_SHARE = 0.25

WORKLOADS = ["theory_sweep", "sim_sweep", "phase_ingest", "monitor_replay"]
PIPELINE_OF = {"theory_sweep": "theory", "sim_sweep": "sim",
               "phase_ingest": "phase", "monitor_replay": "monitor"}
ITEM_OF = {"theory_sweep": "cells", "sim_sweep": "cells",
           "phase_ingest": "rows", "monitor_replay": "events"}

# sim_sweep: the 16x16 default region grid (K=3, mu=1, gamma=1.25), every
# cell on the type-count backend.
SIM_REPLICAS = 4
SIM_HORIZON = 1500
# monitor_replay: Us=50, mu=1, gamma=2 puts the Theorem-1 frontier at
# lambda=100; the schedule goes from 60 to 130 and back, so the verdict
# flips, over ~1.5e6 events.
MONITOR_K = 3
MONITOR_SCHEDULE = "60:1000;130:1000;60:2000"
MONITOR_RATES = ["--us", "50", "--mu", "1", "--gamma", "2"]
MONITOR_WINDOW = 20
MONITOR_EVERY = 1


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def tool_seed(seed):
    # The tools take an int seed.
    return seed % 2147483647


def theory_grid(seed):
    """1000 x 1000 lambda x Us window at K=3, mu=1, gamma=1.25; the seed
    shifts the window by up to one grid step, so every value changes but
    the stable/transient split, and so the work, stays the same."""
    rng = random.Random(f"theory_sweep:{seed}")
    dl = rng.uniform(0.0, 2.5 / 999)
    du = rng.uniform(0.0, 1.5 / 999)
    return (f"lambda={0.5 + dl:.6f}:{3.0 + dl:.6f}:1000;"
            f"us={0.2 + du:.6f}:{1.7 + du:.6f}:1000;k=3;mu=1;gamma=1.25")


# ------------------------------------------------------------------ running

class Invocation:
    def __init__(self, argv):
        self.argv = argv
        self.wall = 0.0
        self.cpu = 0.0
        self.probes = []
        self.probe_checksum = None
        self.rss_mb = 0.0
        self.code = -1
        self.stdout = ""
        self.stderr = ""


def invoke(argv, capture_stdout=False):
    """Runs one child to completion; wall time covers spawn to exit, and
    rss_mb is the child's own peak resident set (wait4's rusage)."""
    inv = Invocation(argv)
    # stderr goes to a file so a chatty child can never block on a pipe
    # while stdout is being read.
    err_path = os.path.join(BUILD, "child.stderr")
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if capture_stdout else subprocess.DEVNULL,
            stderr=err)
        out = proc.stdout.read() if capture_stdout else b""
        _, status, usage = os.wait4(proc.pid, 0)
        inv.wall = time.perf_counter() - t0
        proc.returncode = inv.code = os.waitstatus_to_exitcode(status)
        if capture_stdout:
            proc.stdout.close()
        err.seek(0)
        inv.stderr = err.read().decode(errors="replace")
    inv.rss_mb = usage.ru_maxrss / 1024.0
    inv.stdout = out.decode(errors="replace")
    return inv


def run_checked(argv, what, capture_stdout=False):
    inv = invoke(argv, capture_stdout)
    if inv.code != 0:
        raise BenchError(f"{what} exited {inv.code}: {inv.stderr.strip()}")
    return inv


def probe_fields(result):
    """The probe calls' CPU seconds and checksum from a perfbench_layers
    JSON line; a checksum that differs between calls is never equal to
    itself."""
    return result["probe_cpu_s"], (result["probe_checksum"]
                                    if result["probe_checksums_agree"]
                                    else float("nan"))


def probe(seconds):
    """Runs the calibration probe for `seconds` of wall time."""
    inv = run_checked([LAYERS, "--mode", "probe", "--seconds", f"{seconds}"],
                      "perfbench_layers probe", capture_stdout=True)
    return probe_fields(json.loads(inv.stdout))


def timed(argv):
    """One timed invocation of a tool, spawned through perfbench_layers
    so the child's peak RSS is its own."""
    inv = invoke([LAYERS, "spawn"] + argv, capture_stdout=True)
    if inv.code != 0:
        raise BenchError(f"perfbench_layers spawn exited {inv.code}: "
                         f"{inv.stderr.strip()}")
    result = json.loads(inv.stdout.splitlines()[-1])
    inv.argv = argv
    inv.wall = result["wall_s"]
    inv.cpu = result["cpu_s"]
    inv.probes, inv.probe_checksum = probe_fields(result)
    inv.code = result["code"]
    inv.rss_mb = result["maxrss_kb"] / 1024.0
    return inv


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha1").hexdigest()


def source_digest():
    """sha1 over the sources the benchmark builds: identifies the code a
    result came from where no git commit is available."""
    h = hashlib.sha1()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit_id():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "none"


def build():
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(THREADS),
                  "--target"] + TARGETS)
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(build_log) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed: {' '.join(step)}\n{tail}")


def environment():
    env = json.loads(run_checked([LAYERS, "--mode", "env"], "perfbench_layers",
                                 capture_stdout=True).stdout)
    if env["build_type"] != "Release" or not env["ndebug"]:
        raise BenchError(
            f"refusing a {env['build_type']} build (ndebug={env['ndebug']}): "
            f"the benchmark measures Release builds only; remove {BUILD} "
            "to reconfigure")
    env.update(nproc=os.cpu_count(), threads=THREADS, commit=commit_id(),
               source_sha1=source_digest(),
               loadavg_at_start=list(os.getloadavg()))
    return env


# ------------------------------------------------------------------- checks

class Checker:
    """Counts attempted and failed operations; a failed check is recorded,
    reported on stderr, and makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            log(f"perfbench: FAILED: {what}")
        return ok


def expect(cond, what):
    if not cond:
        raise BenchError(what)


def verdict_tallies(data):
    # Verdict tokens appear in no other column of a grid report.
    return {"stable": data.count(b",positive-recurrent,"),
            "transient": data.count(b",transient,"),
            "borderline": data.count(b",borderline,")}


# ------------------------------------------------------------------ set-up

WORK = os.path.join(BUILD, "work")


def work_dir(name, seed):
    path = os.path.join(WORK, f"{name}-{seed}")
    os.makedirs(path, exist_ok=True)
    return path


def sweep_argv(workload, seed, threads, out):
    sweep = os.path.join(TOOLS, "p2p_sweep")
    if workload == "theory_sweep":
        return [sweep, "--grid", theory_grid(seed), "--theory-only",
                "--threads", str(threads), "--out", out]
    return [sweep, "--replicas", str(SIM_REPLICAS), "--horizon",
            str(SIM_HORIZON), "--seed", str(tool_seed(seed)), "--threads",
            str(threads), "--out", out]


def check_theory_report(path, tally):
    with open(path, "rb") as f:
        data = f.read()
    rows = data.count(b"\n") - 1
    expect(rows == tally["cells"],
           f"theory_sweep report has {rows} rows for {tally['cells']} cells")
    got = verdict_tallies(data)
    want = {k: tally[k] for k in got}
    expect(got == want, f"theory_sweep report tallies {got} differ from "
                        f"direct classify() tallies {want}")


def check_sim_report(path):
    with open(path) as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    expect(len(rows) == 256, f"sim_sweep report has {len(rows)} rows, not 256")
    rep = header.index("replicas")
    backend = header.index("sim_backend")
    expect(all(r[rep] == str(SIM_REPLICAS) for r in rows),
           f"sim_sweep rows must all carry replicas={SIM_REPLICAS}")
    expect(all(r[backend] == "typecount" for r in rows),
           "sim_sweep cells must all run on the type-count backend")


def setup_once(workload, seed, wd):
    """Prepares the workload's inputs and the references its outputs are
    checked against. Returns what the checks need."""
    if workload == "theory_sweep":
        tally = json.loads(run_checked(
            [LAYERS, "--mode", "tally", "--grid", theory_grid(seed)],
            "perfbench_layers tally", capture_stdout=True).stdout)
        ref = os.path.join(wd, "reference.csv")
        run_checked(sweep_argv(workload, seed, THREADS, ref), "p2p_sweep")
        check_theory_report(ref, tally)
        info = {"tally": tally, "digest": file_digest(ref)}
        os.remove(ref)
        return info
    if workload == "sim_sweep":
        ref = os.path.join(wd, "reference.csv")
        run_checked(sweep_argv(workload, seed, THREADS, ref), "p2p_sweep")
        check_sim_report(ref)
        return {"digest": file_digest(ref)}
    if workload == "phase_ingest":
        csv = os.path.join(wd, "input.csv")
        run_checked(sweep_argv("theory_sweep", seed, THREADS, csv),
                    "p2p_sweep")
        with open(csv, "rb") as f:
            rows = f.read().count(b"\n") - 1
        return {"input": csv, "rows": rows}
    if workload == "monitor_replay":
        path = os.path.join(wd, "events.csv")
        inv = run_checked(
            [os.path.join(TOOLS, "p2p_monitor"), "--emit", MONITOR_SCHEDULE,
             "--k", str(MONITOR_K), *MONITOR_RATES, "--seed",
             str(tool_seed(seed)), "--out", path], "p2p_monitor --emit")
        m = EMIT_LINE.search(inv.stderr)
        expect(m is not None, "p2p_monitor --emit printed no event count")
        return {"input": path, "events": int(m.group(1))}
    raise BenchError(f"unknown workload {workload}")


def cpu_seconds():
    """CPU time (user + system) of this process and of every child it has
    waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def setup(workload, seed, checker, repeats=SETUP_REPEATS):
    """Returns the inputs and, per set-up, its CPU seconds and the probe
    calls made after it."""
    wd = work_dir(workload, seed)
    timings = []
    info = None
    for _ in range(repeats):
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        info = setup_once(workload, seed, wd)
        cpu = cpu_seconds() - c0
        probes, checksum = probe(PROBE_SHARE * (time.perf_counter() - t0))
        timings.append({"cpu_s": cpu, "probe_cpu_s": probes,
                        "probe_checksum": checksum})
        checker.op(True, "set-up")
    return info, timings


# ------------------------------------------------------------- end to end

def e2e_variants(workload, seed, wd, info):
    """(label, argv, output paths) per timed variant."""
    if workload in ("theory_sweep", "sim_sweep"):
        return [(label, sweep_argv(workload, seed, t, out), [out])
                for label, t in (("nproc", THREADS), ("1t", 1))
                for out in [os.path.join(wd, f"out_{label}.csv")]]
    if workload == "phase_ingest":
        # p2p_phase reads and ingests on one thread; --threads reaches only
        # the frontier extraction, well under 1% of its time. One variant
        # serves both metrics.
        ppm = os.path.join(wd, "out.ppm")
        summary = os.path.join(wd, "out.json")
        return [("nproc", [
            os.path.join(TOOLS, "p2p_phase"), "--in", info["input"],
            "--ppm", ppm, "--cell-px", "1", "--summary", summary,
            "--threads", str(THREADS)], [ppm, summary])]
    # The monitor is single-threaded: one variant serves both metrics.
    out = os.path.join(wd, "out.jsonl")
    return [("nproc", [os.path.join(TOOLS, "p2p_monitor"), "--k",
                       str(MONITOR_K), "--in", info["input"], "--window",
                       str(MONITOR_WINDOW), "--every", str(MONITOR_EVERY),
                       "--out", out], [out])]


MONITOR_LINE = re.compile(
    r"p2p_monitor: (\d+) events, final status (\w+), (\d+) verdict flip")
EMIT_LINE = re.compile(r"p2p_monitor: emitted (\d+) events")


def check_output(workload, inv, outputs, info):
    """Checks one timed invocation; returns its counts (which must repeat
    exactly) or raises BenchError."""
    expect(inv.code == 0, f"{inv.argv[0]} exited {inv.code}: "
                          f"{inv.stderr.strip()[-500:]}")
    digests = [file_digest(p) for p in outputs]
    counts = {"bytes": sum(os.path.getsize(p) for p in outputs)}
    if workload in ("theory_sweep", "sim_sweep"):
        expect(digests[0] == info["digest"],
               f"{workload} report differs from the set-up reference "
               "(reports must be byte-identical at any --threads)")
        counts["cells"] = (info["tally"]["cells"]
                           if workload == "theory_sweep" else 256)
    elif workload == "phase_ingest":
        with open(outputs[1]) as f:
            cells = json.load(f)["cells"]
        expect(cells == info["rows"], f"p2p_phase ingested {cells} cells; "
                                      f"set-up wrote {info['rows']} rows")
        counts["rows"] = cells
    else:
        m = MONITOR_LINE.search(inv.stderr)
        expect(m is not None, "p2p_monitor printed no summary line")
        events, flips = int(m.group(1)), int(m.group(3))
        expect(events == info["events"],
               f"p2p_monitor processed {events} events; the log holds "
               f"{info['events']}")
        expect(flips > 0, "monitor_replay verdict never flipped")
        with open(outputs[0], "rb") as f:
            lines = f.read().splitlines()
        counts.update(events=events, flips=flips, advisories=len(lines))
    counts["digest"] = "/".join(digests)
    return counts


def golden_monitor_replay(wd):
    """The committed trace must replay to the committed advisories."""
    out = os.path.join(wd, "golden.jsonl")
    exp = os.path.join(ROOT, "experiments")
    run_checked([os.path.join(TOOLS, "p2p_monitor"), "--k", "3", "--in",
                 os.path.join(exp, "monitor_events.csv"), "--window", "40",
                 "--every", "5", "--out", out], "p2p_monitor golden replay")
    with open(out, "rb") as a, open(os.path.join(
            exp, "monitor_advice.jsonl"), "rb") as b:
        expect(a.read() == b.read(), "experiments/monitor_events.csv no "
               "longer replays to experiments/monitor_advice.jsonl")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_e2e(workload, seed, seconds, checker, record):
    info, setups = setup(workload, seed, checker)
    wd = work_dir(workload, seed)
    if workload == "monitor_replay":
        try:
            golden_monitor_replay(wd)
            checker.op(True, "golden replay")
        except BenchError as e:
            checker.op(False, str(e))

    variants = e2e_variants(workload, seed, wd, info)
    samples = {label: [] for label, _, _ in variants}
    probe_sums = {s["probe_checksum"] for s in setups}
    counts_seen = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        # Alternate which variant runs first, so neither always runs on a
        # box warmed (or tired) by the other.
        order = variants if rounds % 2 == 0 else variants[::-1]
        for label, argv, outputs in order:
            if rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
            inv = timed(argv)
            probe_sums.add(inv.probe_checksum)
            try:
                counts = check_output(workload, inv, outputs, info)
            except BenchError as e:
                checker.op(False, str(e))
                continue
            finally:
                # Unlinked before writeback, a 130 MB report never reaches
                # the disk while later invocations are timed.
                for path in outputs:
                    if os.path.exists(path):
                        os.remove(path)
            checker.op(True, label)
            samples[label].append({
                "cpu_s": inv.cpu, "wall_s": inv.wall, "rss_mb": inv.rss_mb,
                "probe_cpu_s": inv.probes})
            counts_seen.append(counts)
        rounds += 1

    if any(c != counts_seen[0] for c in counts_seen):
        checker.op(False, f"{workload} counts differ between invocations: "
                          f"{counts_seen}")
    checker.op(len(probe_sums) == 1, "the calibration probe's checksum "
                                     f"differs between calls: {probe_sums}")
    items = {"theory_sweep": info.get("tally", {}).get("cells"),
             "sim_sweep": 256, "phase_ingest": info.get("rows"),
             "monitor_replay": info.get("events")}[workload]
    one_thread = "1t" if "1t" in samples else "nproc"
    if not samples["nproc"] or not samples[one_thread]:
        raise BenchError(f"{workload}: no invocation succeeded")

    # The host's speed over the run: the mean probe call, like a long tool
    # invocation, adds up the fast swings rather than picking one side.
    probes = [p for s in setups for p in s["probe_cpu_s"]]
    probes += [p for label in samples for s in samples[label]
               for p in s["probe_cpu_s"]]
    to_ref = PROBE_REF_S / statistics.fmean(probes)
    for label in samples:
        for s in samples[label]:
            s["ref_s"] = s["cpu_s"] * to_ref

    def median_of(label, key):
        return statistics.median(s[key] for s in samples[label])

    # Throughput over the whole run, items done / reference seconds spent.
    # Invocation times here spread over 2x in two clusters, and a median
    # jumps between them from run to run; the mean does not.
    def rate(label):
        return items / statistics.fmean(s["ref_s"] for s in samples[label])

    metrics = {
        "items_per_ref_s": (rate("nproc"), "1/s"),
        "items_per_ref_s_1t": (rate(one_thread), "1/s"),
        "peak_rss_mb": (median_of("nproc", "rss_mb"), "MB"),
        "setup_s": (statistics.median(s["cpu_s"] for s in setups) * to_ref,
                    "s"),
    }
    record.update(items=items, item=ITEM_OF[workload],
                  counts=counts_seen[0] if counts_seen else {},
                  to_ref=to_ref, samples=samples, setups=setups)
    q1, q3 = quartiles(probes)
    log(f"perfbench: probe: {len(probes)} calls, mean "
        f"{statistics.fmean(probes):.4f} CPU s (q1 {q1:.4f}, q3 {q3:.4f}); "
        f"1 CPU s = {to_ref:.4f} reference s")
    for label in samples:
        for key in ("ref_s", "cpu_s", "wall_s"):
            values = [s[key] for s in samples[label]]
            q1, q3 = quartiles(values)
            med = statistics.median(values)
            log(f"perfbench: {workload} {label}: {len(values)} runs, "
                f"median {key} {med:.4f} (q1 {q1:.4f}, q3 {q3:.4f}) "
                f"= {items / med:.6g} {ITEM_OF[workload]} per {key[:-2]} s")
    # Wall-clock throughput is what a user waits for, but on a shared host
    # it moves with the neighbours' load; it is printed, not gated.
    wall_rates = {f"wall_items_per_s{'' if label == 'nproc' else '_1t'}":
                  items / median_of(label, "wall_s") for label in samples}
    record.update(wall_rates=wall_rates)
    return metrics, wall_rates


# ------------------------------------------------------------------ traced

def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start_ns"]):
            start = max(c["start_ns"], s["start_ns"])
            end = min(c["end_ns"], s["end_ns"])
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s["end_ns"] - s["start_ns"] - covered)
    return out


def layer_metrics(trace, pipelines):
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name = {}
    for s, self_ns in zip(spans, selfs):
        entry = by_name.setdefault(
            s["name"], {"n": 0, "ns": 0, "self_ns": 0, "count": 0,
                        "durations": []})
        entry["n"] += 1
        entry["ns"] += s["end_ns"] - s["start_ns"]
        entry["self_ns"] += self_ns
        entry["count"] += s["count"]
        entry["durations"].append(s["end_ns"] - s["start_ns"])

    def ns(name):
        return by_name[name]["ns"]

    def count(name):
        return by_name[name]["count"]

    th = pipelines["theory"]["traced"]
    cells = th["theory.cells"]
    classify_ns = ns("core.classify") / count("core.classify")
    fill_ns = ns("engine.fill_cell") / count("engine.fill_cell")
    render_ns = ns("report.render") / cells
    stream = {t: statistics.median(by_name[f"engine.stream_t{t}"]
                                   ["durations"]) for t in range(1, 5)}
    sim = pipelines["sim"]["traced"]
    replica_ms = sorted(d / 1e6 for d in
                        by_name["sim.simulate_replica"]["durations"])
    ph = pipelines["phase"]["traced"]
    read_ns = ns("csv.next_row")
    mon = pipelines["monitor"]["traced"]
    advisories = mon["service.advisories"]
    advising_feeds = by_name["service.feed_advise"]["n"]
    emit_ns = ns("service.advisory_json_line")
    # The batch-timed pass minus the per-event pass's advising feeds.
    quiet_feed_ns = ns("service.feed") - ns("service.feed_advise")
    metrics = {
        "core.classify_ns": (classify_ns, "ns"),
        "engine.cell_setup_ns": (fill_ns - classify_ns, "ns"),
        "report.render_ns": (render_ns, "ns"),
        "report.row_bytes": (count("report.render") / cells, "B"),
        "report.write_mb_per_s": (
            count("report.write_rendered") /
            ((ns("report.write_rendered") + ns("report.finish")) / 1e9) / 1e6,
            "MB/s"),
        "engine.stream_ns": (stream[1] / cells - fill_ns - render_ns, "ns"),
        "engine.speedup_t2": (stream[1] / stream[2], "x"),
        "engine.speedup_t3": (stream[1] / stream[3], "x"),
        "engine.speedup_t4": (stream[1] / stream[4], "x"),
        "engine.speedup_nproc": (stream[1] / stream[THREADS], "x"),
        "sim.typecount_events_per_s": (
            count("sim.typecount_run_until") /
            (ns("sim.typecount_run_until") / 1e9), "1/s"),
        "sim.typecount_events": (sim["sim.typecount_events"], "count"),
        "sim.replica_ms_p50": (statistics.median(replica_ms), "ms"),
        "sim.replica_ms_max": (replica_ms[-1], "ms"),
        "engine.pool_busy_frac": (
            ns("sim.simulate_replica") / (THREADS * ns("engine.pool")),
            "frac"),
        "engine.aggregate_us": (
            ns("engine.aggregate_samples") /
            by_name["engine.aggregate_samples"]["n"] / 1e3, "us"),
        "csv.read_rows_per_s": (ph["phase.rows"] / (read_ns / 1e9), "1/s"),
        "analysis.ingest_rows_per_s": (
            ph["phase.rows"] /
            ((ns("analysis.build_phase_grid") - read_ns) / 1e9), "1/s"),
        "analysis.grid_bytes_per_cell": (
            ph["phase.rss_growth_bytes"] / ph["phase.cells"], "B"),
        "analysis.frontier_ms": (ns("analysis.extract_frontier") / 1e6, "ms"),
        "analysis.frontier_rows": (count("analysis.extract_frontier"),
                                   "count"),
        "analysis.agreement_ms": (ns("analysis.verdict_agreement") / 1e6,
                                  "ms"),
        "analysis.render_ms": (ns("analysis.write_ppm") / 1e6, "ms"),
        "sim.event_parse_ns": (ns("sim.parse_event_line") /
                               mon["monitor.lines"], "ns"),
        "service.feed_ns": (quiet_feed_ns /
                            (mon["monitor.events"] - advising_feeds), "ns"),
        "service.advise_us": ((ns("service.feed_advise") - emit_ns) /
                              count("service.feed_advise") / 1e3, "us"),
        "service.emit_ns": (emit_ns / count("service.advisory_json_line"),
                            "ns"),
        "service.advisories": (advisories, "count"),
        "service.flips": (mon["service.flips"], "count"),
    }
    return metrics, by_name


def run_traced(workload, seed, checker, record):
    """Set-up for all four pipelines, one reference run of each tool, then
    perfbench_layers: a traced pass, then untraced/traced pairs of the
    workload's pipeline."""
    info = {}
    for w in WORKLOADS:
        info[w], _ = setup(w, seed, checker, repeats=1)
    wd = work_dir("trace", seed)

    # The tools' outputs perfbench_layers' must equal byte for byte.
    refs = {"theory": info["theory_sweep"]["digest"],
            "sim": info["sim_sweep"]["digest"]}
    ppm = os.path.join(wd, "reference.ppm")
    run_checked([os.path.join(TOOLS, "p2p_phase"), "--in",
                 info["phase_ingest"]["input"], "--ppm", ppm, "--cell-px",
                 "1", "--summary", os.path.join(wd, "reference.json"),
                 "--threads", str(THREADS)], "p2p_phase")
    refs["phase"] = file_digest(ppm)
    advice = os.path.join(wd, "reference.jsonl")
    mon = info["monitor_replay"]
    run_checked([os.path.join(TOOLS, "p2p_monitor"), "--k", str(MONITOR_K),
                 "--in", mon["input"], "--window", str(MONITOR_WINDOW),
                 "--every", str(MONITOR_EVERY), "--out", advice],
                "p2p_monitor")
    refs["monitor"] = file_digest(advice)
    checker.op(True, "reference runs")

    trace_path = os.path.join(wd, "trace.json")
    inv = invoke([
        LAYERS, "--mode", "trace",
        "--theory-grid", theory_grid(seed), "--sim-replicas",
        str(SIM_REPLICAS),
        "--sim-horizon", str(SIM_HORIZON), "--sim-seed",
        str(tool_seed(seed)), "--phase-csv", info["phase_ingest"]["input"],
        "--monitor-log", mon["input"], "--monitor-k", str(MONITOR_K),
        "--monitor-window", str(MONITOR_WINDOW), "--monitor-every",
        str(MONITOR_EVERY), "--threads", str(THREADS), "--work", wd,
        "--overhead-pipeline", PIPELINE_OF[workload], "--out", trace_path])
    if not checker.op(inv.code == 0, f"perfbench_layers trace exited "
                                     f"{inv.code}: {inv.stderr.strip()}"):
        raise BenchError("the traced run failed")
    with open(trace_path) as f:
        trace = json.load(f)
    pipelines = trace["pipelines"]

    suffix_of = {"theory": ".csv", "sim": ".csv", "phase": ".ppm",
                 "monitor": ".jsonl"}
    overhead = trace["overhead"]
    outputs = [(name, "traced") for name in refs]
    outputs.append((overhead["pipeline"], "untraced"))
    for name, tag in outputs:
        got = file_digest(os.path.join(wd, f"{name}.{tag}{suffix_of[name]}"))
        checker.op(got == refs[name], f"{name} {tag} perfbench_layers "
                                      "output differs from the tool's")
    # Everything but the measurements must repeat between the passes.
    measured = ("wall_s", "phase.rss_growth_bytes")
    a = {k: v for k, v in overhead["untraced"].items() if k not in measured}
    b = {k: v for k, v in pipelines[overhead["pipeline"]]["traced"].items()
         if k not in measured}
    checker.op(a == b, f"{overhead['pipeline']} counters differ between "
                       f"the untraced and traced runs: {a} vs {b}")
    th = pipelines["theory"]["traced"]
    tally = info["theory_sweep"]["tally"]
    checker.op([th["theory.cells"], th["theory.stable"],
                th["theory.transient"], th["theory.borderline"]] ==
               [tally["cells"], tally["stable"], tally["transient"],
                tally["borderline"]],
               "perfbench_layers classify() tallies differ")
    checker.op(pipelines["sim"]["traced"]["sim.replica0_mismatches"] == 0,
               "a bare TypeCountSim did not retrace replica 0")
    ph = pipelines["phase"]["traced"]
    checker.op(ph["phase.cells"] == info["phase_ingest"]["rows"],
               "perfbench_layers ingested a different cell count")
    mt = pipelines["monitor"]["traced"]
    checker.op(mt["monitor.events"] == mon["events"] and
               mt["service.flips"] > 0, "monitor events or flips wrong")

    metrics, by_name = layer_metrics(trace, pipelines)
    metrics["trace.overhead_frac"] = (
        statistics.median(overhead["traced_wall_s"]) /
        statistics.median(overhead["untraced_wall_s"]) - 1, "frac")

    log("perfbench: span self times (traced pass)")
    log(f"  {'span':34} {'spans':>7} {'total ms':>11} {'self ms':>11}")
    for name, e in by_name.items():
        log(f"  {name:34} {e['n']:7d} {e['ns'] / 1e6:11.3f} "
            f"{e['self_ns'] / 1e6:11.3f}")
    spans_file = os.path.join(BUILD, "results",
                              f"{workload}-seed{seed}-trace1.spans.json")
    os.makedirs(os.path.dirname(spans_file), exist_ok=True)
    shutil.move(trace_path, spans_file)
    record.update(trace_file=os.path.relpath(spans_file, ROOT),
                  walls={k: v["traced"]["wall_s"]
                         for k, v in pipelines.items()},
                  overhead=overhead,
                  self_times_ms={k: e["self_ns"] / 1e6
                                 for k, e in by_name.items()},
                  counts={
                      "cells": th["theory.cells"],
                      "report_bytes": th["report.bytes"],
                      "typecount_events": pipelines["sim"]["traced"][
                          "sim.typecount_events"],
                      "rows": ph["phase.rows"],
                      "events": mt["monitor.events"],
                      "advisories": mt["service.advisories"],
                      "flips": mt["service.flips"],
                      "advice_bytes": mt["service.advice_bytes"]})
    return metrics


# --------------------------------------------------------------------- main

def check_repeat(workload, seed, trace, env, record, checker):
    """Counts at one seed must repeat exactly across runs of one build."""
    path = os.path.join(BUILD, "counts",
                        f"{workload}-{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    counts = {"source_sha1": env["source_sha1"], "counts": record["counts"]}
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before["source_sha1"] == env["source_sha1"]:
            checker.op(before["counts"] == counts["counts"],
                       f"counts at seed {seed} changed between runs: "
                       f"{before['counts']} then {counts['counts']}")
            return
    with open(path, "w") as f:
        json.dump(counts, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ["CMakeLists.txt", "src", "tools", "experiments"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"perfbench: {ROOT} is not a checkout of the repository "
                f"(no {needed}); nothing to build")
            return 2
    # Inputs and outputs run to hundreds of MB per run; none outlives it.
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        build()
        env = environment()
        checker = Checker()
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": env}
        info_only = {}
        if args.trace:
            metrics = run_traced(args.workload, args.seed, checker, record)
        else:
            metrics, info_only = run_e2e(args.workload, args.seed,
                                         args.seconds, checker, record)
        check_repeat(args.workload, args.seed, args.trace, env, record,
                     checker)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    error_frac = checker.failed / checker.attempted
    record.update(metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
                  attempted=checker.attempted, failed=checker.failed,
                  error_frac=error_frac, problems=checker.problems)
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(f"  items = {ITEM_OF[args.workload]} on this workload")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:16.6g} {unit}")
    for name, value in info_only.items():
        print(f"  {name:32} {value:16.6g} 1/s (wall clock, not gated)")
    print(f"  {'error_frac':32} {error_frac:16.6g} "
          f"({checker.failed}/{checker.attempted})")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: drives the `heapmd` CLI as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a heapmd source tree.  The first run builds the CLI
and the benchmark's own programs under .bench_build/; every run then
generates its inputs from --seed, measures for --seconds, checks every
output against references computed through the library, and prints one
JSON object as the last line of stdout.  With --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced in-process run.  The exit status is non-zero when a check failed
or a run left something behind.

Every workload runs all three phases -- batch (train/replay/audit of
recorded app traces), capture (a native churn program plain and under
`heapmd capture`, then `replay`) and monitor (`heapmd monitor` following
a paced capture) -- interleaved, so every end-to-end metric is reported
everywhere; the named workload's own phase gets the largest share of the
window.
"""

import argparse
import glob
import json
import math
import os
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
HEAPMD = os.path.join(BUILD, "heapmd", "tools", "heapmd")
CHILD = os.path.join(BUILD, "perfbench", "churn_child")
LAYERS = os.path.join(BUILD, "perfbench", "perfbench_layers")
NPROC = os.cpu_count() or 1

# Iterations of each phase in a window of WINDOW_S seconds (about that
# long on a 4-core host), scaled with --seconds.  The work is counted,
# not timed, so two builds compared on one host collect the same number
# of samples and the tail percentile is the same rung for both.  The
# workload's own phase gets the largest share of the window.
WINDOW_S = 30.0
BEST_OF = 2  # back-to-back runs of each train and audit; the fastest counts
ITERATIONS = {
    "batch_apps": {"batch": 11, "capture": 7, "monitor": 2},
    "capture_churn": {"batch": 6, "capture": 18, "monitor": 2},
}

# Batch inputs: two apps with different heap shapes, each trace
# recorded at the scale that gives about TARGET_EVENTS events, so the
# seed changes a trace's content but not its size.  The exponent is how
# an app's event count grows with --scale.
APPS = (("vpr", 1.65, ("small-leak", "reachable-leak")),
        ("Productivity", 1.35, ("dll-missing-prev", "btree-leaf-unlinked")))
TARGET_EVENTS = 300000
PROBE_SCALE = 0.25
TRAIN_PER_APP = 2 * NPROC  # a multiple of nproc: the pool balances it
CLEAN_PER_APP = 2
# Faulted held-out traces per fault kind.  The replay tail falls among
# the faulted vpr traces, whose replay cost varies 2x with the seed's
# content; more of them make the tail an average over more inputs.
FAULTED_PER_KIND = 3

# Capture inputs: the churn child's shape.
CHURN_THREADS = max(2, NPROC // 2)
CHURN_LIVE = 4000
CHURN_OPS = 15000
CAPTURE_TRAINING = 2
PLAIN_RUNS = 5  # the plain op phase is short: take more samples of it
CAPTURE_BEST_OF = 3  # back-to-back replays of each capture; the fastest counts

# Monitor inputs: a paced run with drift episodes.
PACED_OPS_PER_MS = 6
PACED_MS = 3000
PACED_EPISODES = 24
ROTATE_BYTES = 8192
MONITOR_POLL_MS = 10
SCAN_FRQ = 100
SCRAPE_PERIOD_S = 0.1
CALL_TIMEOUT_S = 60  # a call that hangs is killed and counts as failed


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Failures:
    """Attempted and failed operations, per phase."""

    def __init__(self):
        self.attempted = {}
        self.failed = {}

    def record(self, phase, errors, what):
        self.attempted[phase] = self.attempted.get(phase, 0) + 1
        if errors:
            self.failed[phase] = self.failed.get(phase, 0) + 1
            for error in errors:
                log("FAILED %s: %s: %s" % (phase, what, error))

    def totals(self):
        return sum(self.attempted.values()), sum(self.failed.values())


# ------------------------------------------------------------------ build

def build():
    """Build the CLI (and its shim) and the benchmark programs."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(NPROC)
    steps = []
    heapmd_build = os.path.join(BUILD, "heapmd")
    if not os.path.exists(os.path.join(heapmd_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", heapmd_build])
    steps.append(["cmake", "--build", heapmd_build, "--target",
                  "heapmd_cli", "-j", jobs])
    bench_build = os.path.join(BUILD, "perfbench")
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", bench_build, "-DHEAPMD_SOURCE_DIR=" + ROOT,
                      "-DHEAPMD_BUILD_DIR=" + heapmd_build])
    steps.append(["cmake", "--build", bench_build, "-j", jobs])
    with open(logfile, "w") as out:
        for argv in steps:
            if subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("build step failed: %s (see %s)"
                    % (" ".join(argv), logfile))
                return False
    return True


# ------------------------------------------------------------- processes

def run(argv, cwd):
    """Run one process to completion: (exit code, wall s, stderr, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += "\nkilled after %d s" % CALL_TIMEOUT_S
    return proc.returncode, time.perf_counter() - start, err, out


def run_rusage(argv, cwd):
    """Run and reap with wait4, for the child's own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    out, err = _drain(proc)
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, out.decode(), err.decode()


def _drain(proc):
    """Read both pipes to EOF without reaping (wait4 reaps)."""
    sel = selectors.DefaultSelector()
    bufs = {proc.stdout: [], proc.stderr: []}
    for f in bufs:
        sel.register(f, selectors.EVENT_READ)
    while sel.get_map():
        for key, _ in sel.select():
            chunk = os.read(key.fileobj.fileno(), 65536)
            if chunk:
                bufs[key.fileobj].append(chunk)
            else:
                sel.unregister(key.fileobj)
                key.fileobj.close()
    return b"".join(bufs[proc.stdout]), b"".join(bufs[proc.stderr])


def run_parallel(jobs, cwd):
    """Run (threads, argv) jobs, never more busy threads than NPROC.
    Returns outputs in order; raises on any failure."""
    pending = list(enumerate(jobs))
    running = []
    outputs = [None] * len(jobs)
    busy = 0
    while pending or running:
        while pending and (busy + pending[0][1][0] <= NPROC or not running):
            idx, (threads, argv) = pending.pop(0)
            proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
            running.append((idx, threads, proc))
            busy += threads
        idx, threads, proc = running.pop(0)
        try:
            out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        busy -= threads
        if proc.returncode != 0:
            for _, _, other in running:
                other.kill()
                other.wait()
            raise RuntimeError("setup step failed: %s\n%s"
                               % (" ".join(jobs[idx][1]), err))
        outputs[idx] = out
    return outputs


def recorded_events(stdout):
    return int(stdout.split("recorded ")[1].split()[0])


# ------------------------------------------------------------------ setup

def scale_for(app_exponent, probe_events):
    """The --scale that should give TARGET_EVENTS events."""
    ratio = TARGET_EVENTS / max(probe_events, 1)
    return round(PROBE_SCALE * ratio ** (1.0 / app_exponent), 4)


def setup(seed, d):
    """Generate every input under directory d (paths relative to it) and
    the library references.  Returns a description of the inputs."""
    os.makedirs(d)
    os.makedirs(os.path.join(d, "refs"))
    inp = {"apps": {}, "captrain": [], "montrain": []}

    # App traces: a small probe recording per trace fixes its scale.
    specs = []
    for a, (app, exponent, faults) in enumerate(APPS):
        base = seed * 1000 + a * 100
        for k in range(TRAIN_PER_APP):
            specs.append((app, exponent, "train", base + k, None))
        for k in range(CLEAN_PER_APP):
            specs.append((app, exponent, "clean", base + 50 + k, None))
        for k, fault in enumerate(faults):
            for r in range(FAULTED_PER_KIND):
                specs.append((app, exponent, "fault",
                              base + 60 + k * FAULTED_PER_KIND + r, fault))
    probes = run_parallel(
        [(1, [HEAPMD, "record", "--app", app, "--seed", str(s),
              "--scale", str(PROBE_SCALE), "--out", "probe-%d.trace" % i]
          + (["--fault", f] if f else []))
         for i, (app, _, _, s, f) in enumerate(specs)], d)
    finals = run_parallel(
        [(1, [HEAPMD, "record", "--app", app, "--seed", str(s),
              "--scale", str(scale_for(e, recorded_events(probes[i]))),
              "--out", "%s-%s-%d.trace" % (app, kind, s)]
          + (["--fault", f] if f else []))
         for i, (app, e, kind, s, f) in enumerate(specs)], d)
    for path in glob.glob(os.path.join(d, "probe-*.trace")):
        os.remove(path)
    for i, (app, _, kind, s, f) in enumerate(specs):
        entry = inp["apps"].setdefault(app, {"train": [], "held": []})
        trace = {"path": "%s-%s-%d.trace" % (app, kind, s),
                 "events": recorded_events(finals[i]),
                 "bytes": os.path.getsize(os.path.join(
                     d, "%s-%s-%d.trace" % (app, kind, s)))}
        entry["train" if kind == "train" else "held"].append(trace)

    # Capture and monitor training runs, and a short rotating steady
    # capture (the warm-up and traced input of the once-mode monitor).
    jobs = []
    for k in range(CAPTURE_TRAINING):
        jobs.append((CHURN_THREADS, [
            HEAPMD, "capture", "--out", "captrain-%d.trace" % k, "--",
            CHILD, "churn", str(seed * 1000 + 500 + k), str(CHURN_THREADS),
            str(CHURN_LIVE), str(CHURN_OPS)]))
        inp["captrain"].append("captrain-%d.trace" % k)
    for k in range(2):
        jobs.append((1, [
            HEAPMD, "capture", "--out", "montrain-%d.trace" % k, "--frq",
            str(SCAN_FRQ), "--", CHILD, "steady", str(seed * 1000 + 600 + k),
            str(PACED_OPS_PER_MS), str(PACED_MS), "0", os.devnull]))
        inp["montrain"].append("montrain-%d.trace" % k)
    os.makedirs(os.path.join(d, "steadyseg"))
    jobs.append((1, [
        HEAPMD, "capture", "--out", "steadyseg/seg", "--frq", str(SCAN_FRQ),
        "--rotate-bytes", str(ROTATE_BYTES), "--", CHILD, "steady",
        str(seed * 1000 + 700), str(PACED_OPS_PER_MS), str(PACED_MS // 3),
        "0", os.devnull]))
    run_parallel(jobs, d)
    inp["steadyseg"] = "steadyseg/seg"

    models = []
    for name, traces in (("cap", inp["captrain"]), ("mon", inp["montrain"])):
        models.append((NPROC, [HEAPMD, "train", "--jobs", str(NPROC),
                               "--name", name, "--out", name + ".model"]
                       + [a for t in traces for a in ("--trace", t)]))
    run_parallel(models, d)

    # References through the library.
    plan = []
    for app, entry in inp["apps"].items():
        plan.append("model %s refs/%s.model %s" % (
            app, app, " ".join(t["path"] for t in entry["train"])))
        for t in entry["held"]:
            plan.append("check refs/%s.model %s refs/%s" % (
                app, t["path"], t["path"]))
    plan.append("audit refs/audit.txt " + " ".join(
        t["path"] for _, t in held_traces(inp)))
    with open(os.path.join(d, "refs", "plan"), "w") as f:
        f.write("\n".join(plan) + "\n")
    code, _, err, _ = run([LAYERS, "reference", "refs/plan", str(NPROC)], d)
    if code != 0:
        raise RuntimeError("reference computation failed:\n" + err)
    return inp


# ---------------------------------------------------------------- phases

def held_traces(inp):
    return [(app, t) for app, e in inp["apps"].items() for t in e["held"]]


def load_reference(d, trace):
    with open(os.path.join(d, "refs", trace + ".txt")) as f:
        ref = benchlib.parse_reference(f.read())
    ref["bundles"] = read_texts(sorted(glob.glob(
        os.path.join(d, "refs", trace + "-*.json"))))
    return ref


def read_texts(paths):
    out = []
    for path in paths:
        with open(path) as f:
            out.append(f.read())
    return out


def replay_observed(code, stdout, bundle_dir):
    reports = -1
    for line in stdout.splitlines():
        if line.startswith("replayed ") and " report(s)" in line:
            reports = int(line.split(": ")[1].split()[0])
    return {"exit": code, "reports": reports,
            "bundles": read_texts(sorted(glob.glob(
                os.path.join(bundle_dir, "incident-*.json"))))}


class Phases:
    """The three phases, each accumulating its samples."""

    def __init__(self, d, inp, seed, failures):
        self.d = d
        self.inp = inp
        self.seed = seed
        self.failures = failures
        self.samples = {k: [] for k in (
            "train_rate", "train_rss", "replay_ms", "audit_rate",
            "slowdown", "capture_cmd", "capture_replay_rate",
            "capture_rss", "detect_ms", "monitor_cpu")}
        self.capture_runs = []   # per captured run: parsed details
        self.monitor_runs = []   # per followed run: scrapes, lateness
        self.counter = 0

    def next_id(self):
        self.counter += 1
        return self.counter

    # -------------------------------------------------------------- batch

    def batch(self):
        # Train and audit run BEST_OF times back to back and the fastest
        # counts: the inputs are the same each time, so the slower runs
        # measure a neighbour on the shared host.  Every run is checked.
        # Replays are single: their median is over many samples.
        d = self.d
        events = wall = 0.0
        peak = 0
        for app, entry in self.inp["apps"].items():
            model = "cli-%s.model" % app
            argv = [HEAPMD, "train", "--jobs", str(NPROC), "--name", app,
                    "--out", model]
            for t in entry["train"]:
                argv += ["--trace", t["path"]]
            walls = []
            for _ in range(BEST_OF):
                code, secs, usage, _, err = run_rusage(argv, d)
                errors = [] if code == 0 else ["exit %d: %s" % (code, err)]
                if not errors and not same_file(os.path.join(d, model),
                                                os.path.join(d, "refs",
                                                             app + ".model")):
                    errors.append("model differs from the jobs-1 reference")
                self.failures.record("batch", errors, "train " + app)
                walls.append(secs)
                peak = max(peak, usage.ru_maxrss)
            events += sum(t["events"] for t in entry["train"])
            wall += min(walls)
        self.samples["train_rate"].append(events / wall)
        self.samples["train_rss"].append(peak / 1024.0)

        for app, t in held_traces(self.inp):
            bdir = "bundles-%d" % self.next_id()
            code, secs, err, out = run(
                [HEAPMD, "replay", "--jobs", str(NPROC), "--trace",
                 t["path"], "--model", "cli-%s.model" % app,
                 "--bundle-dir", bdir], d)
            observed = replay_observed(code, out, os.path.join(d, bdir))
            errors = benchlib.check_replay(
                observed, load_reference(d, t["path"]))
            self.failures.record("batch", errors, "replay " + t["path"])
            self.samples["replay_ms"].append(secs * 1000.0)
            shutil.rmtree(os.path.join(d, bdir), ignore_errors=True)

        held = [t for _, t in held_traces(self.inp)]
        argv = [HEAPMD, "audit", "--deep", "1", "--jobs", str(NPROC)]
        for t in held:
            argv += ["--trace", t["path"]]
        with open(os.path.join(d, "refs", "audit.txt")) as f:
            ref_text = f.read()
        with open(os.path.join(d, "refs", "audit.txt.exit")) as f:
            ref_exit = int(f.read())
        walls = []
        for _ in range(BEST_OF):
            code, secs, err, out = run(argv, d)
            errors = []
            if code != ref_exit:
                errors.append("exit %d, expected %d" % (code, ref_exit))
            if out != ref_text:
                errors.append("findings differ from the reference")
            self.failures.record("batch", errors, "audit --deep 1")
            walls.append(secs)
        self.samples["audit_rate"].append(
            sum(t["events"] for t in held) / min(walls))

    # ------------------------------------------------------------ capture

    def capture(self):
        d = self.d
        n = self.next_id()
        child = [CHILD, "churn", str(self.seed * 1000 + n),
                 str(CHURN_THREADS), str(CHURN_LIVE), str(CHURN_OPS)]
        plain_ns = []
        for _ in range(PLAIN_RUNS):
            code, _, err, out = run(child, d)
            plain = parse_kv(out)
            self.failures.record(
                "capture", [] if code == 0 else ["exit %d: %s" % (code, err)],
                "plain child")
            plain_ns.append(plain.get("op_ns", 0))

        trace = "cap-%d.trace" % n
        manifest = "cap-%d.json" % n
        code, secs, err, out = run(
            [HEAPMD, "capture", "--out", trace, "--manifest", manifest,
             "--"] + child, d)
        captured = parse_kv(out)
        errors = [] if code == 0 else ["exit %d: %s" % (code, err)]
        if captured.get("checksum") != plain.get("checksum"):
            errors.append("child output changed under capture")
        self.failures.record("capture", errors, "capture")
        counters = manifest_counters(os.path.join(d, manifest))
        events = counters.get("capture.events_emitted", 0)

        replays = []
        replay_secs = []
        for _ in range(CAPTURE_BEST_OF):
            bdir = "capbundles-%d" % self.next_id()
            code, rsecs, err, out = run(
                [HEAPMD, "replay", "--jobs", str(NPROC), "--trace", trace,
                 "--model", "cap.model", "--bundle-dir", bdir], d)
            replays.append(replay_observed(code, out, os.path.join(d, bdir)))
            replay_secs.append(rsecs)
            shutil.rmtree(os.path.join(d, bdir), ignore_errors=True)
        self.capture_runs.append({
            "trace": trace, "replays": replays,
            "counters": counters, "child": captured})

        # Plain and captured runs of one iteration are seconds apart, so
        # their ratio cancels slow drifts of the host's speed.
        self.samples["slowdown"].append(
            captured.get("op_ns", 0) / max(median(plain_ns), 1))
        self.samples["capture_cmd"].append(secs)
        # The fastest of back-to-back replays of one trace, as in batch.
        self.samples["capture_replay_rate"].append(events / min(replay_secs))
        self.samples["capture_rss"].append(
            captured.get("maxrss_kb", 0) / 1024.0)

    def verify_captures(self):
        """Check every capture replay against the library's verdict on
        the same trace (computed after the timed loop)."""
        if not self.capture_runs:
            return
        plan = ["check cap.model %s refs/%s" % (r["trace"], r["trace"])
                for r in self.capture_runs]
        with open(os.path.join(self.d, "refs", "capplan"), "w") as f:
            f.write("\n".join(plan) + "\n")
        code, _, err, _ = run([LAYERS, "reference", "refs/capplan",
                               str(NPROC)], self.d)
        for r in self.capture_runs:
            for observed in r["replays"]:
                if code != 0:
                    errors = ["reference failed: " + err]
                else:
                    errors = benchlib.check_replay(
                        observed, load_reference(self.d, r["trace"]))
                self.failures.record("capture", errors,
                                     "replay " + r["trace"])

    # ------------------------------------------------------------ monitor

    def monitor(self):
        d = self.d
        n = self.next_id()
        segdir = "seg-%d" % n
        bdir = os.path.join(d, "monbundles-%d" % n)
        os.makedirs(os.path.join(d, segdir))
        late_path = os.path.join(d, "late-%d.txt" % n)
        port = free_port()
        cap_out = open(os.path.join(d, "capture-%d.out" % n), "w")
        mon_out = open(os.path.join(d, "monitor-%d.out" % n), "w")
        start = time.perf_counter()
        cap = subprocess.Popen(
            [HEAPMD, "capture", "--out", segdir + "/seg", "--frq",
             str(SCAN_FRQ), "--rotate-bytes", str(ROTATE_BYTES), "--", CHILD,
             "paced", str(self.seed * 1000 + n), str(PACED_OPS_PER_MS),
             str(PACED_MS), str(PACED_EPISODES), late_path],
            cwd=d, stdout=cap_out, stderr=subprocess.DEVNULL)
        mon = subprocess.Popen(
            [HEAPMD, "monitor", "--segments", segdir + "/seg", "--model",
             "mon.model", "--bundle-dir", bdir, "--poll-ms",
             str(MONITOR_POLL_MS), "--listen", "127.0.0.1:%d" % port],
            cwd=d, stdout=mon_out, stderr=subprocess.DEVNULL)
        scrapes = []
        deadline = start + PACED_MS / 1000.0 + CALL_TIMEOUT_S
        while True:
            wpid, status, usage = os.wait4(mon.pid, os.WNOHANG)
            if wpid == mon.pid:
                break
            if time.perf_counter() > deadline:
                cap.kill()
                mon.kill()
            scrape = scrape_metrics(port)
            if scrape is not None:
                scrapes.append((time.time_ns(), scrape))
            time.sleep(SCRAPE_PERIOD_S)
        wall = time.perf_counter() - start
        mon.returncode = os.waitstatus_to_exitcode(status)
        cap_code = cap.wait()
        cap_out.close()
        mon_out.close()

        with open(os.path.join(d, "capture-%d.out" % n)) as f:
            onsets = [int(line.split()[1]) for line in f
                      if line.startswith("onset_realtime_ns")]
        with open(os.path.join(d, "monitor-%d.out" % n)) as f:
            summary = [line for line in f if line.startswith("monitored ")]
        bundles = sorted(os.stat(p).st_mtime_ns
                         for p in glob.glob(os.path.join(bdir, "*.json")))
        incidents = int(summary[-1].split(": ")[1].split()[0]) \
            if summary else -1
        slack = mtime_granularity_ns()
        errors = []
        if cap_code != 0:
            errors.append("capture exit %d" % cap_code)
        if mon.returncode != 3:
            errors.append("monitor exit %d, expected 3" % mon.returncode)
        if len(onsets) != PACED_EPISODES:
            errors.append("%d onset(s), expected %d"
                          % (len(onsets), PACED_EPISODES))
        errors += benchlib.check_monitor(onsets, bundles, incidents, slack)
        if onsets and any(s.get("heapmd_monitor_incidents_total", 0) > 0
                          for t, s in scrapes if t < onsets[0] - slack):
            errors.append("a scrape before the onset counted incidents")
        self.failures.record("monitor", errors, "monitor follow")

        cpu = usage.ru_utime + usage.ru_stime
        self.samples["monitor_cpu"].append(100.0 * cpu / wall)
        self.samples["detect_ms"] += [
            x / 1e6 for x in benchlib.detect_latencies(onsets, bundles, slack)]
        with open(late_path) as f:
            actual = [int(x) for x in f.read().split()]
        self.monitor_runs.append({
            "segments": segdir + "/seg", "scrapes": scrapes,
            "late_ms": [x / 1e6 for x in benchlib.lateness(actual, 10**6)]})
        shutil.rmtree(bdir, ignore_errors=True)


def same_file(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1].isdigit():
            out[parts[0]] = int(parts[1])
    return out


def manifest_counters(path):
    with open(path) as f:
        doc = json.load(f)
    out = {c["name"]: c["value"] for c in doc.get("counters", [])}
    for entry in doc.get("inputs", []):
        if entry.get("role") == "trace":
            out["manifest.trace_bytes"] = entry.get("bytes", 0)
    return out


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def scrape_metrics(port):
    try:
        with urllib.request.urlopen(
                "http://127.0.0.1:%d/metrics" % port, timeout=0.5) as r:
            text = r.read().decode()
    except OSError:
        return None
    out = {}
    for line in text.splitlines():
        if line.startswith("heapmd_monitor_") and "{" not in line:
            name, _, value = line.partition(" ")
            try:
                out[name] = float(value)
            except ValueError:
                pass
    return out


def mtime_granularity_ns():
    """New files are stamped from the coarse clock; its tick is the
    slack when comparing a bundle's mtime with a fine-grained stamp."""
    try:
        return int(time.clock_getres(getattr(time, "CLOCK_REALTIME_COARSE",
                                             5)) * 1e9)
    except OSError:
        return 10 * 10**6


# ---------------------------------------------------------------- warm-up

def warm_up(d, inp):
    """One untimed invocation of every timed command."""
    app, entry = next(iter(inp["apps"].items()))
    argv = [HEAPMD, "train", "--jobs", str(NPROC), "--name", app,
            "--out", "warm.model"]
    for t in entry["train"]:
        argv += ["--trace", t["path"]]
    steps = [argv,
             [HEAPMD, "replay", "--trace", entry["held"][0]["path"],
              "--model", "warm.model"],
             [HEAPMD, "audit", "--deep", "1", "--trace",
              entry["held"][0]["path"]],
             [CHILD, "churn", "1", str(CHURN_THREADS), str(CHURN_LIVE),
              str(CHURN_OPS)],
             [HEAPMD, "capture", "--out", "warm.trace", "--", CHILD, "churn",
              "1", str(CHURN_THREADS), str(CHURN_LIVE), str(CHURN_OPS)],
             [HEAPMD, "monitor", "--once", "1", "--segments",
              inp["steadyseg"], "--model", "mon.model"]]
    for argv in steps:
        run(argv, d)  # exit codes are checked on the timed calls


# ---------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else None


def end_to_end(s):
    tail = benchlib.tail_percentile(s["replay_ms"])
    if tail is None:
        raise RuntimeError("too few replays for a tail percentile")
    print("replay_tail_ms: p%g of %d samples" % (tail[0], len(s["replay_ms"])))
    return {
        "setup_s": (None, "s"),
        "train_events_per_s": (median(s["train_rate"]), "events/s"),
        "train_peak_rss_mb": (median(s["train_rss"]), "MB"),
        "replay_p50_ms": (median(s["replay_ms"]), "ms"),
        "replay_tail_ms": (tail[1], "ms"),
        "deep_audit_events_per_s": (median(s["audit_rate"]), "events/s"),
        "capture_slowdown_x": (median(s["slowdown"]), "ratio"),
        "capture_cmd_s": (median(s["capture_cmd"]), "s"),
        "capture_replay_events_per_s": (median(s["capture_replay_rate"]),
                                        "events/s"),
        "capture_peak_rss_mb": (median(s["capture_rss"]), "MB"),
        "monitor_detect_ms": (median(s["detect_ms"]), "ms"),
        "monitor_cpu_pct": (median(s["monitor_cpu"]), "%"),
    }


def traced_plan(workload, d, inp, phases):
    """The in-process steps of the workload, in the CLI's order."""
    cap = phases.capture_runs[-1]["trace"]
    seg = phases.monitor_runs[-1]["segments"]
    held = held_traces(inp)
    fault = next(t for app, t in held if "-fault-" in t["path"])
    fault_app = fault["path"].split("-fault-")[0]
    lines = []
    if workload == "batch_apps":
        for app, entry in inp["apps"].items():
            lines.append("train %s t-%s.model %s" % (
                app, app, " ".join(t["path"] for t in entry["train"])))
        for app, t in held:
            lines.append("replay t-%s.model %s" % (app, t["path"]))
        lines.append("audit " + " ".join(t["path"] for _, t in held))
        lines.append("layers " + " ".join(t["path"] for _, t in held))
    else:
        lines.append("train cap t-cap.model " + " ".join(inp["captrain"]))
        lines.append("replay t-cap.model " + cap)
        lines.append("audit " + cap)
        lines.append("layers " + cap)
        # Bundle export needs reports; the faulted app trace has them.
        # Only its diag.bundle spans count (see span_metrics).
        lines.append("bundles refs/%s.model %s" % (fault_app,
                                                    fault["path"]))
    lines.append("monitor mon.model " + seg)
    with open(os.path.join(d, "traceplan"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return "traceplan"


def span_metrics(runs):
    """Per-layer metrics from the traced runs' spans and counters."""
    spans = []
    counters = []
    uncovered = []
    for doc in runs:  # one document per run; parents index into it
        base = len(spans)
        for name, start, end, parent, items in doc["spans"]:
            spans.append((name, start, end,
                          parent + base if parent >= 0 else -1, items))
        counters.append(doc["counters"])
        uncovered.append(benchlib.uncovered(doc["spans"], doc["wall_ns"]))
    selfs = benchlib.self_times(spans)
    roots = []
    for span in spans:
        roots.append(roots[span[3]] if span[3] >= 0 else span[0])

    def dur(i):
        return spans[i][2] - spans[i][1]

    def of(name):
        # A `bundles` step only feeds the bundle-export layer.
        return [i for i, s in enumerate(spans) if s[0] == name and
                (roots[i] != "bundles" or name == "diag.bundle")]

    def ms(idx, scale):
        value = median([dur(i) for i in idx])
        return value / scale if value is not None else None

    def per_item(name):
        idx = of(name)
        items = sum(spans[i][4] for i in idx)
        return sum(dur(i) for i in idx) / items if items else None

    def counter(name):
        vals = [c.get(name, 0) for c in counters]
        return median(vals) if vals else None

    train = of("train")
    pre = [i for i in of("analysis.lint")
           if spans[i][3] >= 0 and spans[spans[i][3]][0] == "train"]
    pools = of("support.pool")
    busy = cap = 0.0
    crit = 0.0
    for p in pools:
        kids = [i for i, s in enumerate(spans) if s[3] == p]
        if not kids:
            continue
        busy += sum(dur(i) for i in kids)
        cap += min(NPROC, len(kids)) * dur(p)
        crit += max(dur(i) for i in kids) / dur(p)
    samples = sorted(dur(i) for i in of("metrics.sample"))
    out = {
        "trace.decode_ns_per_event": (per_item("trace.decode"), "ns"),
        "trace.write_ns_per_event": (per_item("trace.write"), "ns"),
        "analysis.lint_ns_per_event": (per_item("analysis.lint"), "ns"),
        "analysis.preflight_share": (
            sum(dur(i) for i in pre) / sum(dur(i) for i in train), "ratio"),
        "analysis.flow_ns_per_event": (per_item("analysis.flow"), "ns"),
        "analysis.model_lint_us": (ms(of("analysis.model_lint"), 1e3), "us"),
        "runtime.fold_ns_per_event": (per_item("runtime.fold"), "ns"),
        "runtime.heap_update_share": (
            counter("runtime.heap_updates") / counter("runtime.events"),
            "ratio"),
        "heapgraph.update_ns": (per_item("heapgraph.update"), "ns"),
        "heapgraph.peak_vertices": (counter("heapgraph.peak_vertices"),
                                    "count"),
        "heapgraph.peak_edges": (counter("heapgraph.peak_edges"), "count"),
        "metrics.sample_ns_p50": (benchlib.percentile(samples, 50), "ns"),
        "metrics.sample_ns_p99": (benchlib.percentile(samples, 99), "ns"),
        "metrics.samples": (counter("metrics.samples"), "count"),
        "model.build_ms": (ms(of("model.build"), 1e6), "ms"),
        "detector.finalize_us": (ms(of("detector.finalize"), 1e3), "us"),
        "detector.samples_checked": (counter("detector.samples_checked"),
                                     "count"),
        "detector.reports": (counter("detector.reports"), "count"),
        "diag.bundle_save_us": (ms(of("diag.bundle"), 1e3), "us"),
        "support.pool_efficiency": (busy / cap if cap else None, "ratio"),
        "support.critical_path_share": (
            crit / len(pools) if pools else None, "ratio"),
        "monitor.ns_per_event": (per_item("monitor.once"), "ns"),
        "tracing.uncovered_ms": (median(uncovered) / 1e6, "ms"),
    }
    # Self time per layer: where the traced run's wall went.
    table = {}
    for i, s in enumerate(spans):
        table[s[0]] = table.get(s[0], 0) + selfs[i]
    for name, ns in sorted(table.items(), key=lambda kv: -kv[1]):
        print("self %-22s %10.3f ms" % (name, ns / 1e6 / len(runs)))
    print("uncovered wall          %10.3f ms"
          % (median(uncovered) / 1e6))
    return out


def e2e_layer_metrics(phases):
    """Per-layer metrics read off the capture sidecar and the monitor."""
    r = phases.capture_runs[-1]
    c = r["counters"]
    events = c.get("capture.events_emitted", 0) or 1
    passes = c.get("capture.scan_passes", 0) or 1
    m = phases.monitor_runs[-1]
    lags = [s.get("heapmd_monitor_tail_lag_bytes", 0) for _, s in m["scrapes"]]
    last = m["scrapes"][-1][1] if m["scrapes"] else {}
    return {
        "capture.call_ns_p50": (r["child"].get("call_ns_p50"), "ns"),
        "capture.call_ns_p99": (r["child"].get("call_ns_p99"), "ns"),
        "capture.scan_ns_per_pass": (c.get("capture.scan_ns", 0) / passes,
                                     "ns"),
        "capture.scan_words_per_pass": (
            c.get("capture.scan_words", 0) / passes, "count"),
        "capture.events_emitted": (events, "count"),
        "capture.dropped_reentrant_per_event": (
            c.get("capture.dropped_reentrant", 0) / events, "ratio"),
        "capture.peak_live_objects": (c.get("capture.peak_live_objects"),
                                      "count"),
        "capture.trace_bytes_per_event": (
            c.get("manifest.trace_bytes", 0) / events, "bytes"),
        "obsv.publishes_per_event": (
            c.get("capture.segment_publishes", 0) / events, "ratio"),
        "monitor.tail_lag_bytes_p99": (
            benchlib.percentile(lags, 99) if lags else None, "bytes"),
        "monitor.incidents": (
            last.get("heapmd_monitor_incidents_total"), "count"),
        "monitor.samples": (last.get("heapmd_monitor_samples_total"),
                            "count"),
        "loadgen.late_ms_p99": (benchlib.percentile(m["late_ms"], 99), "ms"),
    }


# ------------------------------------------------------------------ main

def leaked_segments(before):
    """Stats segments created during the run whose process is gone (a
    live one belongs to someone else's process)."""
    leaked = []
    for path in set(glob.glob("/dev/shm/heapmd.*")) - before:
        pid = path.rsplit(".", 1)[1]
        if not (pid.isdigit() and os.path.exists("/proc/" + pid)):
            leaked.append(path)
    return sorted(leaked)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(ITERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    shm_before = set(glob.glob("/dev/shm/heapmd.*"))
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    failures = Failures()
    try:
        result = measure(args, work, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    leftovers = []
    leaked = leaked_segments(shm_before)
    if leaked:
        leftovers.append("stats segments %s" % leaked)
    try:
        os.waitpid(-1, os.WNOHANG)
        leftovers.append("a child process")
    except ChildProcessError:
        pass  # no children left
    if os.path.exists(work):
        leftovers.append("work directory " + work)
    failures.record("hygiene", leftovers, "leftovers after the run")

    attempted, failed = failures.totals()
    for phase in sorted(failures.attempted):
        print("%s %s: attempted %d failed %d" % (
            args.workload, phase, failures.attempted[phase],
            failures.failed.get(phase, 0)))
    metrics = {}
    for name, (value, unit) in sorted(result.items()):
        if value is None or (isinstance(value, float) and math.isnan(value)):
            print("absent %s: no sample of it in this run" % name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def interleave(counts):
    """Spread each phase's iterations evenly over the window, so slow
    drifts of the host's speed touch every phase alike."""
    slots = [((k + 0.5) / n, phase) for phase, n in counts.items()
             for k in range(n)]
    return [phase for _, phase in sorted(slots)]


def measure(args, work, failures):
    os.makedirs(work)
    setups = []
    reps = 3 if args.trace == 0 else 1
    for rep in range(reps):
        d = os.path.join(work, "setup-%d" % rep)
        start = time.perf_counter()
        inp = setup(args.seed, d)
        setups.append(time.perf_counter() - start)
        if rep + 1 < reps:
            shutil.rmtree(d)
    log("setup: %s s" % " ".join("%.2f" % x for x in setups))
    warm_up(d, inp)

    phases = Phases(d, inp, args.seed, failures)
    start = time.perf_counter()
    if args.trace == 0:
        counts = {p: max(1, round(n * args.seconds / WINDOW_S))
                  for p, n in ITERATIONS[args.workload].items()}
        spent = dict.fromkeys(counts, 0.0)
        for phase in interleave(counts):
            began = time.perf_counter()
            getattr(phases, phase)()
            spent[phase] += time.perf_counter() - began
        for phase, count in counts.items():
            log("%s: %d iteration(s) in %.2f s" % (phase, count,
                                                   spent[phase]))
        phases.verify_captures()
        result = end_to_end(phases.samples)
        result["setup_s"] = (median(setups), "s")
        return result

    # Traced run: one capture and one followed run for the counters the
    # program exports, then the in-process steps untraced and traced in
    # turn for the rest of the window.
    phases.capture()
    phases.monitor()
    phases.verify_captures()
    plan = traced_plan(args.workload, d, inp, phases)
    walls = {0: [], 1: []}
    docs = []
    while len(docs) < 2 or time.perf_counter() - start < args.seconds:
        for traced in (0, 1):
            out = "spans-%d.json" % len(docs)
            argv = [LAYERS, "trace", plan, str(NPROC), out]
            if not traced:
                argv.append("untraced")
            code, _, err, _ = run(argv, d)
            failures.record("traced", [] if code == 0 else [err],
                            "traced run")
            if code != 0:
                raise RuntimeError(err)
            with open(os.path.join(d, out)) as f:
                doc = json.load(f)
            walls[traced].append(doc["wall_ns"])
            if traced:
                docs.append(doc)
    sizes = sorted(t["bytes"] for e in inp["apps"].values()
                   for t in e["train"])
    print("training traces: %d, %d..%d bytes (median %d)" % (
        len(sizes), sizes[0], sizes[-1], median(sizes)))
    result = span_metrics(docs)
    result.update(e2e_layer_metrics(phases))
    result["tracing.overhead_pct"] = (
        100.0 * (median(walls[1]) / median(walls[0]) - 1.0), "%")
    return result


if __name__ == "__main__":
    sys.exit(main())

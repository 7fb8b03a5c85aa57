#!/usr/bin/env python3
"""End-to-end benchmark of `rlcheck`: the CLI and the `serve` daemon.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <cli-mix|formula-depth> --seed <n> \
        --seconds <s> --trace <0|1>

The script builds `rlcheck` and the benchmark's own helper (`perfbench`,
the Rust package next to this file) in release mode, generates the
workload's inputs from the seed, and drives the real entry points from
outside:

* a CLI leg: one `rlcheck check <file> <formula>` process per input,
  closed loop, one client;
* a serve leg: one `rlcheck serve` daemon on a Unix socket, driven open
  loop by this process over two connections (one submits on schedule, one
  collects replies with `wait`), stepping up a fixed ladder of rates.

Every report is checked (`perfbench verify`): hand-derived verdicts,
Theorem 4.7 consistency and witness replay. A wrong report exits 1.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics, which add the in-process
traced replay (`perfbench trace`) and the daemon's `metrics` verb. An
earlier stdout line records the environment (nproc, rustc, build profile,
commit or source-tree hash).
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import queue
import random
import shutil
import socket
import statistics
import subprocess
import sys
import signal
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# Knobs of the program that would change what is measured; child processes
# never inherit any `RL_*` variable.
SCRUBBED_PREFIX = "RL_"

# The hard kill applied to any CLI check; a check that outlives it counts as
# a timeout.
HARD_KILL_S = 20.0

# rlcheck's exit code when a budget or `--timeout` stops a check.
EXIT_LIMIT = 3

# The CLI leg runs until it holds this many verdict samples, so its p95 has
# at least ten beyond it, even when the host is slow.
MIN_CLI_SAMPLES = 200

# Declared budget of every serve submit; the admission ceiling lets one job
# per pool worker run and queues the rest.
SUBMIT_MAX_STATES = 4_000_000

# Set-ups per run; `setup_s` is their median.
SETUP_REPS = 5

# The CLI leg gets this share of --seconds; the serve leg follows.
CLI_SHARE = 0.3

# The serve leg's reference step offers this many passes at the first rate
# of the workload's ladder; every higher rate gets a step of the workload's
# `rung_s` seconds. Requests come from one stream of passes, each pass in
# its own seeded order, so every step has the pass's composition.
REF_PASSES = 3


def geometric(lo, hi, ratio):
    """A rate ladder from `lo` to at least `hi`, each rung `ratio` times the
    one before."""
    rungs = [float(lo)]
    while rungs[-1] < hi:
        rungs.append(round(rungs[-1] * ratio, 2))
    return rungs


# Per workload: the CLI's per-check `--timeout` (whole seconds), the ladder
# of open-loop rates (checks/s; the first is the reference rate), the rtt p95
# limit of a step and the length of a step above the reference. Each ladder
# starts near half and runs to several times the rate where this program
# misses the limit, so `max_rate_ok` can rise as well as fall.
# formula-depth's checks are heavier and longer-tailed: its steps are longer
# and its limit sits where p95 climbs steeply with the rate, so one step
# decides the miss rather than a plateau of p95 close to the limit.
WORKLOADS = {
    "cli-mix": {"timeout_s": None, "ladder": [25.0] + geometric(70, 700, 1.1), "latency_ms": 250.0, "rung_s": 1.5},
    "formula-depth": {"timeout_s": 1, "ladder": [10.0] + geometric(50, 500, 1.1), "latency_ms": 1000.0, "rung_s": 2.5},
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith(SCRUBBED_PREFIX)}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    if not values:
        return 0.0
    s = sorted(values)
    k = max(0, min(len(s) - 1, math.ceil(q / 100.0 * len(s)) - 1))
    return s[k]


# --------------------------------------------------------------------------
# Build and environment
# --------------------------------------------------------------------------


def cargo_build(env, extra):
    """Builds in release mode and returns {target name: (executable, profile)}."""
    cmd = ["cargo", "build", "--release", "--offline", "--message-format=json-render-diagnostics"]
    proc = subprocess.run(cmd + extra, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: cargo build {' '.join(extra)} failed")
    found = {}
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            found[msg["target"]["name"]] = (msg["executable"], msg["profile"])
    return found


def release_binary(found, name):
    """The artifact `name` of this tree's build; refuses anything but release."""
    if name not in found:
        raise SystemExit(f"perfbench: cargo produced no {name} executable")
    path, profile = found[name]
    if str(profile.get("opt_level")) != "3" or profile.get("debug_assertions"):
        raise SystemExit(f"perfbench: {path} is not a release build ({profile}); refusing")
    if not os.path.isfile(path):
        raise SystemExit(f"perfbench: {path} missing after the build")
    return path, profile


def tree_hash():
    """sha256 over the program's sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "examples"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def environment(env, profile):
    rustc = subprocess.run(["rustc", "-V"], env=env, capture_output=True, text=True).stdout.strip()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "profile": {"opt_level": profile.get("opt_level"), "debug_assertions": profile.get("debug_assertions")},
        "git_commit": commit,
        "tree_sha256": tree_hash(),
    }


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def generate(perfbench, workload, seed, out_dir, env):
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    proc = subprocess.run(
        [perfbench, "gen", workload, str(seed), ROOT, out_dir], env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: gen failed: {proc.stderr.strip()}")
    with open(os.path.join(out_dir, "inputs.json")) as f:
        doc = json.load(f)
    return doc["items"], doc["probe"]


# --------------------------------------------------------------------------
# The serve daemon and its wire protocol
# --------------------------------------------------------------------------


class Conn:
    """One line-JSON connection to the daemon."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def call(self, request):
        self.sock.sendall((json.dumps(request) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    def __init__(self, rlcheck, sock_path, workers, env):
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        self.sock_path = sock_path
        cmd = [
            rlcheck, "serve", "--socket", sock_path, "--jobs", str(workers),
            "--max-inflight-states", str(SUBMIT_MAX_STATES * workers),
            "--queue-cap", "100000",
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        deadline = self.started + 30.0
        while True:
            try:
                # The socket accepts once the daemon listens on it.
                Conn(sock_path).close()
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise SystemExit("perfbench: rlcheck serve did not start")
                time.sleep(0.0005)
        self.ready_s = time.perf_counter() - self.started

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """`shutdown` over the socket; kill if the daemon does not exit."""
        if self.proc.poll() is None:
            try:
                conn = Conn(self.sock_path)
                conn.call({"cmd": "shutdown"})
                conn.close()
            except (OSError, ConnectionError, ValueError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stderr:
            self.proc.stderr.close()


# --------------------------------------------------------------------------
# Legs
# --------------------------------------------------------------------------


class Tally:
    """Everything the legs observed."""

    def __init__(self):
        self.attempted = 0
        self.unexpected = 0  # failures of inputs not built to hit the limit
        self.limit_hits = 0  # over-limit inputs stopped at the limit
        self.outputs = {}  # (id, code, stdout) -> True
        self.check_ms = []  # CLI wall of checks that reached a verdict
        self.cli_wall_by_id = {}
        self.overshoot_ms = []

    def record(self, item, code, stdout):
        """Returns whether the check reached a verdict. Only an over-limit
        input stopped by the limit (exit 3) is a limit hit; any other
        failure, of any input, is unexpected."""
        self.attempted += 1
        failed = code not in (0, 1)
        if failed:
            if item["over_limit"] and code == EXIT_LIMIT:
                self.limit_hits += 1
            else:
                self.unexpected += 1
                log(f"{item['id']} ({item['formula']}) failed with code {code}")
        else:
            self.outputs[(item["id"], code, stdout)] = True
        return not failed

    def record_cli(self, item, code, stdout, wall, timeout_s):
        """A CLI check; a limit hit also gives a guard overshoot sample."""
        if self.record(item, code, stdout):
            self.check_ms.append(wall)
            self.cli_wall_by_id.setdefault(item["id"], []).append(wall)
        elif item["over_limit"] and code == EXIT_LIMIT:
            self.overshoot_ms.append(wall - 1000.0 * timeout_s)


def cli_check(rlcheck, sys_dir, item, timeout_s, env):
    cmd = [rlcheck, "check", os.path.join(sys_dir, item["system"]), item["formula"]]
    if timeout_s:
        cmd += ["--timeout", str(timeout_s)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=HARD_KILL_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        code = -9
    return code, out, (time.perf_counter() - start) * 1000.0


def cli_leg(rlcheck, sys_dir, items, cfg, budget_s, tally, env):
    """Closed loop, one client: whole passes until the time share is used
    and at least MIN_CLI_SAMPLES verdicts are in, or until a pass gets no
    verdict at all."""
    start = time.perf_counter()
    passes = 0
    while True:
        before = len(tally.check_ms)
        for item in items:
            code, out, wall = cli_check(rlcheck, sys_dir, item, cfg["timeout_s"], env)
            tally.record_cli(item, code, out, wall, cfg["timeout_s"])
        passes += 1
        enough = time.perf_counter() - start >= budget_s and len(tally.check_ms) >= MIN_CLI_SAMPLES
        if enough or len(tally.check_ms) == before:
            return passes


def submit_request(item, texts, cfg):
    req = {
        "cmd": "submit",
        "name": item["id"],
        "system": texts[item["system"]],
        "formula": item["formula"],
        "max_states": SUBMIT_MAX_STATES,
    }
    if cfg["timeout_s"]:
        req["timeout_ms"] = int(1000 * cfg["timeout_s"])
    return req


def serve_step(daemon, schedule, texts, cfg, rate, tally):
    """One open-loop step offering `schedule` at `rate` checks/s.

    Requests are due on a fixed schedule; each is timed from when it was due
    to when its `wait` reply arrived (replies are collected in submission
    order on a second connection).
    """
    submitter = Conn(daemon.sock_path)
    collector = Conn(daemon.sock_path)
    pending = queue.Queue()
    records = []  # dicts per request; the collector fills in the reply

    def collect():
        while True:
            rec = pending.get()
            if rec is None:
                return
            try:
                reply = collector.call({"cmd": "wait", "id": rec["job"]})
            except (OSError, ValueError) as e:
                reply = {"code": -3, "output": "", "error": str(e)}
            rec["done"] = time.perf_counter()
            rec["code"] = reply.get("code", -1)
            rec["stdout"] = reply.get("output", "")

    thread = threading.Thread(target=collect)
    thread.start()
    t0 = time.perf_counter() + 0.005
    try:
        for i, item in enumerate(schedule):
            due = t0 + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            reply = submitter.call(submit_request(item, texts, cfg))
            rec = {"item": item, "due": due, "sent": sent, "done": None, "code": None}
            records.append(rec)
            if reply.get("ok") and "id" in reply:
                rec["job"] = reply["id"]
                pending.put(rec)
            else:
                rec["done"] = time.perf_counter()
                rec["code"] = -2  # refused
                rec["stdout"] = ""
        step_end = t0 + len(schedule) / rate
    finally:
        pending.put(None)
        thread.join()
        submitter.close()
        collector.close()

    rtt = []
    missed = 0
    for rec in records:
        if tally.record(rec["item"], rec["code"], rec.get("stdout", "")):
            rtt.append((rec["done"] - rec["due"]) * 1000.0)
        else:
            missed += 1  # a failed or refused request misses any limit
    backlog = sum(1 for r in records if r["sent"] <= step_end < r["done"])
    lag = [(r["sent"] - r["due"]) * 1000.0 for r in records]
    p95 = percentile(rtt + [math.inf] * missed, 95)
    # Little's law: at the latency limit, rate × limit checks are in flight.
    backlog_cap = math.ceil(rate * cfg["latency_ms"] / 1000.0) + 2
    return {
        "rate": rate,
        "requests": len(records),
        "rtt_ms": rtt,
        "p95_ms": p95,
        "backlog_end": backlog,
        "backlog_cap": backlog_cap,
        "lag_ms": lag,
        # The rate the generator actually offered over the step, and the
        # rate the daemon got through it (first due time to last reply).
        "offered_rate": (len(records) - 1) / max(records[-1]["sent"] - records[0]["sent"], 1e-9),
        "throughput": len(records) / max(max(r["done"] for r in records) - t0, 1e-9),
        # At most 1 exactly when the step meets the limit.
        "load": max(p95 / cfg["latency_ms"], backlog / backlog_cap),
    }


def pass_stream(served, seed):
    """Endless passes over `served`, each in its own seeded order."""
    for p in itertools.count():
        order = list(served)
        random.Random(seed * 1000 + p).shuffle(order)
        yield from order


def serve_leg(daemon, items, texts, cfg, seed, tally):
    """The ladder, stopped at the first step that misses the limit. The
    reference step offers REF_PASSES whole passes, each higher step `rung_s`
    seconds of requests; all of them are drawn in turn from one stream of
    passes."""
    served = [item for item in items if not item["over_limit"]]
    stream = pass_stream(served, seed)
    steps = []
    for i, rate in enumerate(cfg["ladder"]):
        count = REF_PASSES * len(served) if i == 0 else max(1, round(cfg["rung_s"] * rate))
        schedule = list(itertools.islice(stream, count))
        step = serve_step(daemon, schedule, texts, cfg, rate, tally)
        steps.append(step)
        log(
            f"serve step {rate}/s x{step['requests']}: p95 {step['p95_ms']:.1f} ms, "
            f"backlog {step['backlog_end']}/{step['backlog_cap']}, load {step['load']:.2f}"
        )
        if step["load"] > 1.0:
            break
    return steps


def max_rate_ok(steps):
    """The rate at which a step's load reaches 1, interpolated geometrically
    between the highest step that met the limit and the first that missed
    (both at the rates the generator actually offered). The crossing lies
    between those two rungs; interpolating it keeps the rung spacing out of
    the run-to-run spread. With no step met, the reference step's
    throughput, which is below its rate; with none missed, the top rung."""
    met = [s for s in steps if s["load"] <= 1.0]
    if not met:
        return steps[0]["throughput"]
    a = met[-1]
    if a is steps[-1]:
        return a["offered_rate"]
    b = steps[steps.index(a) + 1]
    share = (1.0 - a["load"]) / (b["load"] - a["load"])
    return a["offered_rate"] * (b["offered_rate"] / a["offered_rate"]) ** share


# --------------------------------------------------------------------------
# Daemon-side numbers
# --------------------------------------------------------------------------


def daemon_numbers(daemon, perfbench, work, env):
    conn = Conn(daemon.sock_path)
    try:
        prom = conn.call({"cmd": "metrics"}).get("body", "")
        body = conn.call({"cmd": "metrics", "format": "jsonl"}).get("body", "")
    finally:
        conn.close()
    counters = {}
    for line in prom.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("_total"):
            counters[parts[0]] = float(parts[1])
    path = os.path.join(work, "hist.jsonl")
    with open(path, "w") as f:
        f.write(body)
    proc = subprocess.run([perfbench, "hist", path], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: hist failed: {proc.stderr.strip()}")
    return counters, json.loads(proc.stdout)


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def verify(perfbench, gen_dir, tally, env):
    path = os.path.join(gen_dir, "results.jsonl")
    with open(path, "w") as f:
        for item_id, code, stdout in tally.outputs:
            f.write(json.dumps({"id": item_id, "code": code, "stdout": stdout}) + "\n")
    proc = subprocess.run([perfbench, "verify", gen_dir, path], env=env, capture_output=True, text=True)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        report = {"errors": [proc.stderr.strip() or "verify printed nothing"], "triples": {}}
    return proc.returncode == 0 and not report["errors"], report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    cfg = WORKLOADS[args.workload]
    # SIGTERM unwinds like an error, so the daemon is stopped and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in ("Cargo.toml", os.path.join("src", "bin", "rlcheck.rs")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log(f"{need} not found under {ROOT}: this is not a checkout of the program")
            return 2
    os.chdir(ROOT)
    env = child_env()
    found = cargo_build(env, ["--bin", "rlcheck"])
    rlcheck, profile = release_binary(found, "rlcheck")
    found = cargo_build(env, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    perfbench, _ = release_binary(found, "perfbench")
    print(json.dumps({"environment": environment(env, profile), "workload": args.workload, "seed": args.seed}))

    workers = max(1, min(2, len(os.sched_getaffinity(0))))
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    sock_rel = os.path.relpath(os.path.join(work, "d.sock"), ROOT)
    daemon = None
    try:
        # Set-up, five times: generate and write the inputs, then spawn a
        # daemon and wait until its socket accepts. The last daemon serves.
        setups = []
        gen_dir = os.path.join(work, "gen")
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            items, probe = generate(perfbench, args.workload, args.seed, gen_dir, env)
            gen_s = time.perf_counter() - t
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(rlcheck, sock_rel, workers, env)
            setups.append(gen_s + daemon.ready_s)
        sys_dir = os.path.relpath(os.path.join(gen_dir, "systems"), ROOT)
        texts = {}
        for item in items:
            with open(os.path.join(sys_dir, item["system"])) as f:
                texts[item["system"]] = f.read()

        # One discarded invocation per entry point warms the binary and the
        # page cache.
        prime = next(i for i in items if not i["over_limit"])
        cli_check(rlcheck, sys_dir, prime, cfg["timeout_s"], env)
        conn = Conn(daemon.sock_path)
        job = conn.call(submit_request(prime, texts, cfg))
        conn.call({"cmd": "wait", "id": job["id"]})
        conn.close()

        tally = Tally()
        passes = cli_leg(rlcheck, sys_dir, items, cfg, CLI_SHARE * args.seconds, tally, env)
        steps = serve_leg(daemon, items, texts, cfg, args.seed, tally)
        peak_rss = daemon.vm_hwm_mb()
        numbers = daemon_numbers(daemon, perfbench, work, env) if args.trace else None
        daemon.stop()
        daemon = None

        if args.trace and not tally.overshoot_ms:
            # No over-limit check in the pass: time the guard on the probe.
            code, out, wall = cli_check(rlcheck, sys_dir, probe, 1, env)
            tally.record_cli(probe, code, out, wall, 1)

        correct, report = verify(perfbench, gen_dir, tally, env)
        for e in report["errors"][:20]:
            log(f"wrong output: {e}")
        passed = [s for s in steps if s["load"] <= 1.0]
        top = passed[-1] if passed else steps[0]
        ref = steps[0]
        failed_share = (tally.unexpected + tally.limit_hits) / max(1, tally.attempted)
        log(
            f"{passes} CLI passes, {len(tally.check_ms)} CLI samples, {len(steps)} serve steps, "
            f"{tally.attempted} checks, {tally.unexpected} unexpected failures"
        )

        if args.trace == 0:
            metrics = {
                "setup_s": (median(setups), "s"),
                "check_ms_p50": (median(tally.check_ms), "ms"),
                "check_ms_p95": (percentile(tally.check_ms, 95), "ms"),
                "ok_share": (1.0 - failed_share, "ratio"),
                "rtt_ms_p50": (median(ref["rtt_ms"]), "ms"),
                "rtt_ms_p95": (percentile(ref["rtt_ms"], 95), "ms"),
                "max_rate_ok": (max_rate_ok(steps), "checks/s"),
                "peak_rss_mb": (peak_rss, "MiB"),
            }
        else:
            metrics = traced_metrics(perfbench, gen_dir, env, tally, steps, top, numbers)
        result = {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.unexpected,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def traced_metrics(perfbench, gen_dir, env, tally, steps, top, numbers):
    proc = subprocess.run([perfbench, "trace", gen_dir], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: traced replay disagrees with run_check:\n{proc.stderr}")
    t = json.loads(proc.stdout)
    counters, hists = numbers
    run_us = t.pop("per_input_run_us")
    cold = [median(tally.cli_wall_by_id[i]) - us / 1000.0 for i, us in run_us.items() if i in tally.cli_wall_by_id]

    def h(name, q):
        return float(hists.get(name, {}).get(q, 0.0))

    hits = counters.get("rl_opcache_hits_total", 0.0)
    probes = hits + counters.get("rl_opcache_misses_total", 0.0)
    m = {
        "check.run_us": (t["check.run_us"], "us"),
        "cli.cold_overhead_ms": (statistics.mean(cold) if cold else 0.0, "ms"),
        "check.unattributed_pct": (t["check.unattributed_pct"], "%"),
        "format.parse_system_us": (t["format.parse_system_us"], "us"),
        "logic.parse_us": (t["logic.parse_us"], "us"),
        "logic.translate_us": (t["logic.translate_us"], "us"),
        "logic.property_states": (t["logic.property_states"], "count"),
        "logic.negation_spans": (t["logic.negation_spans"], "count"),
        "buchi.behaviors_us": (t["buchi.behaviors_us"], "us"),
        "buchi.behaviors_states": (t["buchi.behaviors_states"], "count"),
        "buchi.intersection_states": (t["buchi.intersection_states"], "count"),
        "core.classical_us": (t["core.classical_us"], "us"),
        "core.relative_liveness_us": (t["core.relative_liveness_us"], "us"),
        "core.relative_safety_us": (t["core.relative_safety_us"], "us"),
        "core.relative_safety_states": (t["core.relative_safety_states"], "count"),
        "core.route.classical": (t["core.route.classical"], "count"),
        "core.route.rel_live": (t["core.route.rel_live"], "count"),
        "core.route.residual": (t["core.route.residual"], "count"),
        "filters.us": (t["filters.us"], "us"),
        "filters.hit_ratio": (t["filters.hit_ratio"], "ratio"),
        "lazy.expanded": (t["lazy.expanded"], "count"),
        "lazy.subsumed": (t["lazy.subsumed"], "count"),
        "opcache.hit_ratio": (hits / probes if probes else 0.0, "ratio"),
        "opcache.resident_bytes": (counters.get("rl_opcache_resident_bytes_total", 0.0), "bytes"),
        "opcache.evictions": (counters.get("rl_opcache_evictions_total", 0.0), "count"),
        "guard.charges": (t["guard.charges"], "count"),
        "guard.overshoot_ms": (statistics.mean(tally.overshoot_ms) if tally.overshoot_ms else 0.0, "ms"),
        "pool.steal_us_p99": (h("pool/steal_us", "p99"), "us"),
        "pool.park_us_p99": (h("pool/park_us", "p99"), "us"),
        "serve.admission_us_p99": (h("serve/admission_us", "p99"), "us"),
        "serve.queue_wait_us_p50": (h("serve/queue_wait_us", "p50"), "us"),
        "serve.queue_wait_us_p99": (h("serve/queue_wait_us", "p99"), "us"),
        "serve.job_wall_us_p50": (h("serve/job_wall_us", "p50"), "us"),
        "serve.job_wall_us_p99": (h("serve/job_wall_us", "p99"), "us"),
        "serve.backlog_end": (float(top["backlog_end"]), "count"),
        "serve.generator_lag_ms_p95": (percentile(steps[0]["lag_ms"], 95), "ms"),
        "obs.overhead_pct": (t["obs.overhead_pct"], "%"),
    }
    return m


if __name__ == "__main__":
    sys.exit(main())

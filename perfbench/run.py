#!/usr/bin/env python3
"""Repository benchmark: cosim_ber, netscale and serve_mix.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cosim_ber --seed 1 --seconds 36 --trace 0

The first run in a checkout builds uwbams_run, uwbams_serve and
perfbench_trace from source into .bench_build/ (perfbench/CMakeLists.txt).
A run repeats the workload until --seconds is used up (at least twice),
checks every output, and prints as its last stdout line one JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload once untraced and once under perfbench_trace and reports the
per-layer metrics. See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORK = os.path.join(BUILD, "work")
UWBAMS_RUN = os.path.join(CMAKE_DIR, "uwbams", "uwbams_run")
UWBAMS_SERVE = os.path.join(CMAKE_DIR, "uwbams", "uwbams_serve")
TRACE = os.path.join(CMAKE_DIR, "perfbench_trace")
GOLDEN_FIG6 = os.path.join(ROOT, "tests", "golden", "fig6_ber.golden_stats.json")
WORKLOADS = ("cosim_ber", "netscale", "serve_mix")

# Environment knobs of the program that would let one run reuse another's
# work or change what runs; every program process starts without them.
ISOLATE_ENV = ("UWBAMS_CACHE", "UWBAMS_SURROGATE", "UWBAMS_MEMO",
               "UWBAMS_FAULT_PLAN", "UWBAMS_CACHE_MAX_MB")

# serve_mix key space: (scenario, seed) pairs of cheap scenarios that all
# succeed cold at --scale=fast. twr_clock and ranging_network (the slowest,
# 0.3-0.4 s, with seeds that fail at fast scale) are left out and coex_ber
# is cut to four seeds, so that lat_p99_ms falls inside the group of 16
# mc_itd/yield_report keys instead of on the edge of a few slow ones (see
# README.md). multiuser_ber is left out too: hits that arrive while it
# computes carried 7 of 17 slow (> 0.8 ms) hits in one repetition.
SERVE_KEYS = (
    [("quickstart", s) for s in range(10)]
    + [("fig4_ac", s) for s in range(10)]
    + [("fig5_transient", s) for s in range(10)]
    + [("model_order", s) for s in range(10)]
    + [("coex_ber", s) for s in range(4)]
    + [("mc_itd", s) for s in range(8)]
    + [("yield_report", s) for s in range(8)]
    + [("channel_explorer", s) for s in range(10)]
    + [("spice_playground", s) for s in range(10)]
)
SERVE_REQUESTS = 1100  # 80 first-touch misses, >= 1000 hits (p99 has 10 beyond)
SERVE_MEM_ENTRIES = 16
ZIPF_S = 1.0


class BenchError(Exception):
    """The benchmark cannot run at all (no sources, build failure)."""


# ------------------------------------------------------------------ build
def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no repository sources next to perfbench/ "
                         "(run from the root of a source checkout)")
    os.makedirs(CMAKE_DIR, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(nproc()),
                      "--target", "uwbams_run", "uwbams_serve_bin",
                      "perfbench_trace"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                raise BenchError("build failed: %s (log: %s)"
                                 % (" ".join(cmd), log_path))


def nproc():
    return len(os.sched_getaffinity(0))


def build_type():
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_rev():
    """git rev when the checkout is a repository, else a digest of the
    sources the build reads."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "examples", "circuits"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


# -------------------------------------------------------------- processes
def program_env(extra=None):
    env = {k: v for k, v in os.environ.items() if k not in ISOLATE_ENV}
    env.update(extra or {})
    return env


def run_process(cmd, log_path, env=None, cwd=None):
    """Runs one program process to completion; returns (wall_s, cpu_s,
    rss_mb, exit_code), with CPU and peak RSS from wait4's rusage."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log,
                             env=env, cwd=cwd)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, p.returncode


def sha256_file(path):
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    v = sorted(values)
    if not v:
        return float("nan")
    rank = min(len(v), max(1, math.ceil(q * len(v) - 1e-9)))
    return v[rank - 1]


# ------------------------------------------------------------- workloads
class Ops:
    """Operation accounting: every checked output is one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def scenario_seed(pins, workload, seed):
    seeds = sorted(int(s) for s in pins[workload])
    return seeds[seed % len(seeds)]


def check_digests(ops, pins_for_seed, out_dir, files):
    for rel in files:
        got = sha256_file(os.path.join(out_dir, rel))
        ops.check(got is not None and got == pins_for_seed.get(rel),
                  "digest mismatch: " + rel)


def cli_step(ops, rep_dir, tag, scenario, args, seed, jobs, env=None):
    """One isolated uwbams_run process; returns its record."""
    out = os.path.join(rep_dir, tag)
    cmd = [UWBAMS_RUN, scenario, "--jobs=%d" % jobs, "--seed=%d" % seed,
           "--out=" + out] + args
    wall, cpu, rss, rc = run_process(cmd, os.path.join(rep_dir, tag + ".log"),
                                     env=env or program_env())
    summary = {}
    try:
        with open(os.path.join(out, scenario, "summary.json")) as f:
            summary = json.load(f)
    except (OSError, ValueError):
        pass
    ok = ops.check(rc == 0 and summary.get("status") == 0,
                   "%s exited %d" % (tag, rc))
    inner = summary.get("wall_seconds", wall) if ok else wall
    return {"tag": tag, "dir": os.path.join(out, scenario), "wall": wall,
            "cpu": cpu, "rss": rss, "overhead": wall - inner,
            "summary": summary}


def fig6_bits(points_csv):
    bits = 0
    with open(points_csv) as f:
        header = f.readline().strip().split(",")
        cols = [i for i, h in enumerate(header) if h.endswith(" bits")]
        for line in f:
            cells = line.strip().split(",")
            bits += sum(int(cells[i]) for i in cols)
    return bits


def cosim_rep(ctx, rep_dir):
    ops, jobs, seed = ctx["ops"], ctx["jobs"], ctx["scenario_seed"]
    pins = ctx["pins"]["cosim_ber"][str(seed)]
    steps = [
        ("fig6_exact", "fig6_ber", ["--scale=fast", "--tier=bit_exact"]),
        ("fig6_stat", "fig6_ber", ["--scale=fast", "--tier=stat_equiv",
                                   "--golden=" + GOLDEN_FIG6]),
        ("agc", "agc_operating_point", ["--scale=fast", "--tier=bit_exact"]),
    ]
    procs = [cli_step(ops, rep_dir, tag, scen, args, seed, jobs)
             for tag, scen, args in steps]
    check_digests(ops, pins, rep_dir,
                  ["fig6_exact/fig6_ber/points.csv",
                   "fig6_exact/fig6_ber/ber_curves.csv",
                   "agc/agc_operating_point/ber_vs_target.csv"])
    bits, fig6_wall = 0, 0.0
    for p in procs[:2]:
        fig6_wall += p["wall"]
        try:
            bits += fig6_bits(os.path.join(p["dir"], "points.csv"))
        except (OSError, ValueError, IndexError):
            ops.check(False, "unreadable points.csv of " + p["tag"])
    wall = sum(p["wall"] for p in procs)
    return {
        "procs": procs,
        "wall_s": wall,
        "cpu_s": sum(p["cpu"] for p in procs),
        "peak_rss_mb": max(p["rss"] for p in procs),
        "lat": [wall * 1e3],
        "miss_lat": [wall * 1e3],  # every process computes its result
        "bits_per_s": bits / fig6_wall,
    }


def netscale_rep(ctx, rep_dir):
    ops, jobs, seed = ctx["ops"], ctx["jobs"], ctx["scenario_seed"]
    pins = ctx["pins"]["netscale"][str(seed)]
    fit = cli_step(ops, rep_dir, "fit", "surrogate_fit", ["--scale=fast"],
                   seed, jobs)
    surrogate = os.path.join(fit["dir"], "surrogate.json")
    net = cli_step(ops, rep_dir, "net", "netscale_static", ["--scale=full"],
                   seed, jobs,
                   env=program_env({"UWBAMS_SURROGATE": surrogate}))
    check_digests(ops, pins, rep_dir,
                  ["fit/surrogate_fit/surrogate.json",
                   "net/netscale_static/positions.csv",
                   "net/netscale_static/rounds.csv"])
    metrics = net["summary"].get("metrics", {})
    tag_rounds = metrics.get("tags", 0) * metrics.get("rounds", 0)
    wall = fit["wall"] + net["wall"]
    return {
        "procs": [fit, net],
        "wall_s": wall,
        "cpu_s": fit["cpu"] + net["cpu"],
        "peak_rss_mb": max(fit["rss"], net["rss"]),
        "lat": [wall * 1e3],
        "miss_lat": [wall * 1e3],  # both processes compute their result
        "tag_rounds_per_s": tag_rounds / net["wall"] if tag_rounds else 0.0,
    }


def serve_requests(seed, n, rep=0):
    """Zipf-skewed request lines of repetition `rep` of a run at `seed`
    (each repetition draws its own, so a run's latencies pool many
    draws rather than one seed's hit placement). Key i of a fixed order that
    alternates scenarios makes its first request (its cold miss) at
    position i * n / len(keys), so which misses queue behind each other
    does not depend on the seed. The other n - len(keys) requests draw
    keys with P(rank r) ~ 1 / r^ZIPF_S over a seeded ranking, each placed
    uniformly after its key's first request."""
    rng = random.Random("%d/%d" % (seed, rep))
    keys = interleaved(SERVE_KEYS)[:n]
    ranked = keys[:]
    rng.shuffle(ranked)
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(len(ranked))]
    first = {k: i * n / len(keys) for i, k in enumerate(keys)}
    events = [(first[k], 0, k) for k in keys]
    for k in rng.choices(ranked, weights=weights, k=max(0, n - len(keys))):
        events.append((rng.uniform(first[k], n), 1, k))
    events.sort()
    return [json.dumps({"schema": "uwbams-serve-v1", "op": "run",
                        "scenario": s, "scale": "fast", "seed": sd},
                       separators=(",", ":"), sort_keys=True)
            for _, _, (s, sd) in events]


def interleaved(keys):
    """Round-robin over scenarios: (a,0) (b,0) (c,0) .. (a,1) (b,1) .."""
    by_scenario = {}
    for k in keys:
        by_scenario.setdefault(k[0], []).append(k)
    out, columns = [], list(by_scenario.values())
    for i in range(max(len(c) for c in columns)):
        out += [c[i] for c in columns if i < len(c)]
    return out


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = b""

    def call(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while True:
            i = self.buf.find(b"\n")
            if i >= 0:
                resp, self.buf = self.buf[:i], self.buf[i + 1:]
                return resp
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk

    def close(self):
        self.sock.close()


def closed_loop(sock_path, lines, records, conns):
    """Sends `lines` over `conns` connections, each sending its next request
    only after its previous response arrived, from one thread (no lock or
    interpreter switch sits inside a timed interval). records[i] becomes
    (latency_s, response bytes)."""
    sel = selectors.DefaultSelector()
    cursor = 0

    def send_next(conn):
        nonlocal cursor
        if cursor >= len(lines):
            sel.unregister(conn.sock)
            return
        conn.index, cursor = cursor, cursor + 1
        conn.t0 = time.perf_counter()
        conn.sock.sendall(lines[conn.index].encode() + b"\n")

    pool = [Conn(sock_path) for _ in range(conns)]
    try:
        for conn in pool:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
            send_next(conn)
        while sel.get_map():
            for key, _ in sel.select():
                conn = key.data
                chunk = conn.sock.recv(1 << 20)
                t1 = time.perf_counter()
                if not chunk:
                    raise ConnectionError("server closed the connection")
                conn.buf += chunk
                i = conn.buf.find(b"\n")
                if i >= 0:
                    records[conn.index] = (t1 - conn.t0, conn.buf[:i])
                    conn.buf = conn.buf[i + 1:]
                    send_next(conn)
    finally:
        for conn in pool:
            conn.close()
        sel.close()


def parse_response(resp):
    """(cache state, result bytes, server wall_seconds) of a successful run
    response, or None. The envelope is {"cache":"..","result":<payload>,
    "schema":"uwbams-serve-v1","status":"ok","wall_seconds":x}."""
    head = b'{"cache":"'
    tail = b',"schema":"uwbams-serve-v1","status":"ok","wall_seconds":'
    if not resp.startswith(head):
        return None
    q = resp.find(b'"', len(head))
    t = resp.rfind(tail)
    r = resp.find(b',"result":', q)
    if q < 0 or t < 0 or r != q + 1:
        return None
    try:
        server_wall = float(resp[t + len(tail):-1])
    except ValueError:
        return None
    return resp[len(head):q].decode(), resp[r + 10:t], server_wall


def request(sock_path, line):
    """One request on a fresh connection; returns the response bytes."""
    conn = Conn(sock_path)
    try:
        return conn.call(line)
    finally:
        conn.close()


def drive_server(ctx, rep_dir, lines):
    """Spawns a fresh uwbams_serve, drives `lines` over the closed loop and
    shuts it down. Returns the per-request records and process facts."""
    os.makedirs(os.path.join(rep_dir, "cache"), exist_ok=True)
    sock_path = os.path.relpath(os.path.join(rep_dir, "serve.sock"))
    records = [None] * len(lines)
    ru = None
    with open(os.path.join(rep_dir, "serve.log"), "wb") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [UWBAMS_SERVE, "--socket=serve.sock", "--cache=cache",
             "--jobs=%d" % ctx["serve_jobs"],
             "--mem-entries=%d" % SERVE_MEM_ENTRIES],
            cwd=rep_dir, stdout=subprocess.DEVNULL, stderr=log,
            env=program_env())
        try:
            while True:
                try:
                    if b'"status":"ok"' in request(
                            sock_path, '{"op":"ping","schema":"uwbams-serve-v1"}'):
                        break
                except OSError:
                    pass
                if (proc.poll() is not None
                        or time.perf_counter() > t_spawn + 60.0):
                    raise BenchError("uwbams_serve did not come up (log: %s)"
                                     % log.name)
                # Set-up is a few ms; a coarse poll would quantize it.
                time.sleep(0.0002)
            setup = time.perf_counter() - t_spawn

            t_first = time.perf_counter()
            closed_loop(sock_path, lines, records, ctx["conns"])
            wall = time.perf_counter() - t_first

            request(sock_path, '{"op":"shutdown","schema":"uwbams-serve-v1"}')
            deadline = time.perf_counter() + 60.0
            while ru is None and time.perf_counter() < deadline:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    ru = usage
                else:
                    time.sleep(0.005)
        finally:
            if ru is None:
                proc.kill()
                _, status, ru = os.wait4(proc.pid, 0)
            # Reaped here, so tell Popen the process is gone.
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {"records": records, "setup": setup, "wall": wall,
            "cpu": ru.ru_utime + ru.ru_stime, "rss": ru.ru_maxrss / 1024.0}


def serve_rep(ctx, rep_dir):
    ops = ctx["ops"]
    lines = serve_requests(ctx["seed"], ctx["requests"], ctx["rep"])
    s = drive_server(ctx, rep_dir, lines)
    lat, hit, miss, wait = [], [], [], []
    first = {}
    for line, rec in zip(lines, s["records"]):
        parsed = parse_response(rec[1]) if rec else None
        if not ops.check(parsed is not None, "request failed: " + line):
            lat.append(float("inf"))  # a failed request misses every limit
            continue
        state, result, server_wall = parsed
        ops.check(first.setdefault(line, result) == result,
                  "result bytes differ from the first response: " + line)
        ms = rec[0] * 1e3
        lat.append(ms)
        if state == "hit":
            hit.append(ms)
        elif state == "miss":
            miss.append(ms)
            wait.append(ms - server_wall * 1e3)
    return {
        "procs": [],
        "lines": lines,
        "wall_s": s["wall"],
        "cpu_s": s["cpu"],
        "setup_s": s["setup"],
        "peak_rss_mb": s["rss"],
        "lat": lat,
        "hit_lat": hit,
        "miss_lat": miss,
        "compute_wait_ms": wait,
    }


REPS = {"cosim_ber": cosim_rep, "netscale": netscale_rep,
        "serve_mix": serve_rep}


def end_to_end(reps):
    """Aggregates repetitions: medians of per-repetition values, latency
    percentiles over the pooled samples of every repetition."""
    def med(key):
        return statistics.median(r[key] for r in reps)

    def pooled(key):
        return [x for r in reps for x in r[key]]

    # CLI workloads: set-up is the sum over a repetition's processes of
    # process wall minus scenario wall, taken as the process count times
    # the median per-process overhead of the run. The server's set-up is
    # spawn to first ping, one per repetition.
    procs = [p for r in reps for p in r["procs"]]
    setup = (len(reps[0]["procs"]) * statistics.median(
        p["overhead"] for p in procs) if procs else med("setup_s"))
    m = {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "setup_s": setup,
        "peak_rss_mb": med("peak_rss_mb"),
        "req_per_s": statistics.median(len(r["lat"]) / r["wall_s"]
                                       for r in reps),
        "lat_p50_ms": statistics.median(pooled("lat")),
        "lat_p99_ms": percentile(pooled("lat"), 0.99),
        "miss_lat_p50_ms": statistics.median(pooled("miss_lat")),
    }
    # Failed requests read as infinite latency; report the run limit.
    for k, v in m.items():
        if v != v or v == float("inf"):
            m[k] = 180e3 if k.endswith("_ms") else 0.0
    return m


# ---------------------------------------------------------------- tracing
def traced(ctx, run_dir, untraced):
    """Runs perfbench_trace for the workload and derives the per-layer
    metrics; cross-checks its deterministic counts against the untraced
    repetition."""
    ops = ctx["ops"]
    wl = ctx["workload"]
    out = os.path.join(run_dir, "trace")
    os.makedirs(out, exist_ok=True)
    cmd = [TRACE, {"cosim_ber": "cosim", "netscale": "netscale",
                   "serve_mix": "serve"}[wl],
           "--seed=%d" % ctx["scenario_seed"],
           "--jobs=%d" % ctx["serve_jobs" if wl == "serve_mix" else "jobs"],
           "--out=" + out]
    if wl == "serve_mix":
        req_file = os.path.join(out, "requests.jsonl")
        with open(req_file, "w") as f:
            f.write("\n".join(untraced["lines"]) + "\n")
        cmd.append("--requests=" + req_file)
    res = subprocess.run(cmd, capture_output=True, text=True,
                         env=program_env())
    if res.returncode != 0:
        raise BenchError("perfbench_trace failed: " + res.stderr.strip())
    t = json.loads(res.stdout.strip().splitlines()[-1])
    ops.attempted += t["attempted"]
    ops.failed += t["failed"]
    if t["failed"]:
        ops.notes.append("perfbench_trace reported %d failed" % t["failed"])
    m = dict(t["metrics"])

    procs = untraced["procs"]
    # The untraced processes' own engine counters (summary.json perf) must
    # add up to what the traced run measured over the same workload: the
    # fig6 and agc work on cosim_ber, none on netscale.
    if procs:
        steps = sum(p["summary"].get("perf", {}).get("transient_steps", -1)
                    for p in procs)
        ops.check(steps == m["spice.workload.steps"],
                  "traced spice.workload.steps differs from summary.json")
    if wl == "cosim_ber":
        names = {"transient_steps": "steps",
                 "newton_iterations": "newton_iters",
                 "factorizations": "factorizations", "solves": "solves",
                 "rejected_steps": "rejected_steps",
                 "fallback_steps": "fallback_steps", "op_solves": "op_solves"}
        for p in procs:
            perf = p["summary"].get("perf", {})
            for k, n in names.items():
                ops.check(perf.get(k) == m["spice.%s.%s" % (p["tag"], n)],
                          "traced spice.%s.%s differs from summary.json"
                          % (p["tag"], n))
    if wl == "netscale":
        pins = ctx["pins"]["netscale"][str(ctx["scenario_seed"])]
        ops.check(sha256_file(os.path.join(out, "surrogate.json"))
                  == pins["fit/surrogate_fit/surrogate.json"],
                  "traced surrogate.json digest mismatch")
        ops.check(procs[1]["summary"].get("metrics", {}).get("toa_draws")
                  == m["net.toa_draws"],
                  "traced net.toa_draws differs from summary.json")

    overhead = [p["overhead"] * 1e3 for p in procs]
    m["runner.process_overhead_ms"] = (statistics.median(overhead) if overhead
                                       else untraced["setup_s"] * 1e3)
    if wl == "serve_mix":
        hits = untraced["hit_lat"]
        m["serve.transport_us"] = (percentile(hits, 0.5) * 1e3
                                   - m["serve.handle_hit_us_p50"])
        m["serve.compute_wait_ms"] = percentile(untraced["compute_wait_ms"],
                                                0.5)
    # Workload-specific throughput and hit latency of the untraced
    # repetition (0 where the workload has no such unit).
    m["bits_per_s"] = untraced.get("bits_per_s", 0.0)
    m["tag_rounds_per_s"] = untraced.get("tag_rounds_per_s", 0.0)
    m["hit_lat_p99_ms"] = (percentile(untraced["hit_lat"], 0.99)
                           if untraced.get("hit_lat") else 0.0)
    m["trace_overhead_s"] = t["wall_s"] - untraced["wall_s"]
    # What this workload's traced run does not measure (the serve metrics
    # on the CLI workloads, for example) reads 0 and is listed on the host
    # line, so a 0 is never mistaken for a measurement.
    ctx["unmeasured"] = sorted(d["name"] for d in ctx["spec"]["per_layer"]
                               if d["name"] not in m)
    for name in ctx["unmeasured"]:
        m[name] = 0.0
    return m


# ------------------------------------------------------------------ main
def load_json(path):
    with open(path) as f:
        return json.load(f)


def run(args):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pins = load_json(args.pins)
    build()
    ctx = {
        "workload": args.workload,
        "spec": spec,
        "ops": Ops(),
        "jobs": nproc(),
        "conns": min(3, nproc()),
        # One core stays free for the connection threads, so hit latency
        # measures the server rather than run-queue waits behind the pool.
        "serve_jobs": max(1, nproc() - 1),
        "pins": pins,
        "scenario_seed": (scenario_seed(pins, args.workload, args.seed)
                          if args.workload in pins else args.seed),
        "seed": args.seed,
        "requests": args.requests,
    }
    # The last run of each workload stays in .bench_build/work/<workload>/:
    # its repetitions are deleted when it ends, its traced run's trace/
    # (spans.jsonl, the requests, surrogate.json) is kept until the next
    # traced run of the workload replaces it.
    run_dir = os.path.join(WORK, args.workload)
    os.makedirs(run_dir, exist_ok=True)
    for name in os.listdir(run_dir):
        if name != "trace" or args.trace:
            shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)
    try:
        reps = []
        t0 = time.perf_counter()
        while True:
            rep_dir = os.path.join(run_dir, "rep%d" % len(reps))
            os.makedirs(rep_dir)
            ctx["rep"] = len(reps)
            reps.append(REPS[args.workload](ctx, rep_dir))
            elapsed = time.perf_counter() - t0
            # At least two repetitions, so every median has two samples;
            # then only as many as still fit in --seconds.
            if args.trace or (len(reps) >= 2 and
                              elapsed * (1 + 1 / len(reps)) > args.seconds):
                break
        if args.trace:
            metrics = traced(ctx, run_dir, reps[0])
            declared = spec["per_layer"]
        else:
            metrics = end_to_end(reps)
            declared = spec["end_to_end"]
    finally:
        for name in os.listdir(run_dir):
            if name.startswith("rep"):
                shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)
        shutil.rmtree(os.path.join(run_dir, "trace", "cache"),
                      ignore_errors=True)

    if set(metrics) != {d["name"] for d in declared}:
        raise BenchError("emitted metrics differ from BENCHMARK.json: %s"
                         % sorted(set(metrics) ^ {d["name"] for d in declared}))
    ops = ctx["ops"]
    for note in ops.notes[:20]:
        print("FAILED: " + note, file=sys.stderr)
    print(json.dumps({"host": {
        "nproc": nproc(), "jobs": ctx["jobs"], "connections": ctx["conns"],
        "build_type": build_type(), "source": source_rev(),
        "workload": args.workload, "seed": args.seed,
        "scenario_seed": ctx["scenario_seed"], "repetitions": len(reps),
        "latency_samples": sum(len(r["lat"]) for r in reps),
        "rep_wall_s": [round(r["wall_s"], 4) for r in reps],
        "trace": args.trace, "unmeasured": ctx.get("unmeasured", [])}}))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }))


def pin(args):
    """Rewrites the pinned bit_exact digests of the scenario seeds already
    listed in the pins file (after a declared baseline change)."""
    build()
    seeds = {wl: sorted(int(s) for s in v)
             for wl, v in load_json(args.pins).items()}
    pins = {}
    files = {
        "cosim_ber": ["fig6_exact/fig6_ber/points.csv",
                      "fig6_exact/fig6_ber/ber_curves.csv",
                      "agc/agc_operating_point/ber_vs_target.csv"],
        "netscale": ["fit/surrogate_fit/surrogate.json",
                     "net/netscale_static/positions.csv",
                     "net/netscale_static/rounds.csv"],
    }
    for wl, rels in files.items():
        pins[wl] = {}
        for seed in seeds[wl]:
            rep_dir = os.path.join(WORK, "pin-%s-%d" % (wl, seed))
            shutil.rmtree(rep_dir, ignore_errors=True)
            os.makedirs(rep_dir)
            ctx = {"ops": Ops(), "jobs": nproc(), "scenario_seed": seed,
                   "pins": {wl: {str(seed): {}}}}
            REPS[wl](ctx, rep_dir)
            if ctx["ops"].failed > len(rels):  # only the digests may fail
                raise BenchError("%s seed %d failed: %s"
                                 % (wl, seed, ctx["ops"].notes))
            pins[wl][str(seed)] = {r: sha256_file(os.path.join(rep_dir, r))
                                   for r in rels}
            shutil.rmtree(rep_dir, ignore_errors=True)
    with open(args.pins, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                    help="pinned artifact digests (default: perfbench/pins.json)")
    ap.add_argument("--requests", type=int, default=SERVE_REQUESTS,
                    help="serve_mix requests per repetition")
    ap.add_argument("--pin", action="store_true",
                    help="re-pin the digests in --pins and exit")
    args = ap.parse_args()
    try:
        if args.pin:
            pin(args)
        elif args.workload:
            run(args)
        else:
            ap.error("--workload is required")
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

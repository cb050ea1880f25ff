#!/usr/bin/env python3
"""The lazylocks benchmark: one command, three workloads.

    python3 lazybench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lazybench/run.py --self-check

Run from anywhere inside a source checkout; the script builds the release
`lazylocks` binary and the benchmark's own probe (lazybench/probe) first,
into $CARGO_TARGET_DIR (default: .bench_build in the checkout).

--trace 0 measures the end-to-end metrics through the user-facing
surfaces: fresh `lazylocks run` processes, or a real `lazylocks serve`
daemon driven over TCP. --trace 1 is the separate traced run that reports
the per-layer metrics. Every operation is checked against
lazybench/expected.json. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See lazybench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Explore workloads: (program, spec) cells, each run to exhaustion.
EXPLORE_LIMIT = 100_000_000
CELLS = {
    "dpor-exhaust": [("coarse-mixed-t5", "dpor(sleep=true)")],
    "lazy-exhaust": [("coarse-mixed-t6", "caching(mode=lazy)"), ("rw-r3-w1", "lazy-dpor")],
}
WORKLOADS = ["dpor-exhaust", "lazy-exhaust", "serve-mix"]

# serve-mix: corpus programs (four of them bug-bearing) crossed with three
# specs. Each round of the job list is a seeded shuffle of all 48 entries;
# a run works through JOBS_PER_SECOND jobs per second of --seconds, a
# fixed amount of work, so the daemon's memory at the end is comparable.
CATALOGUE = [
    "paper-figure1", "coarse-readonly-t3", "coarse-shared-t3-r1", "fine-t3-e2",
    "accounts-fine-ordered2", "accounts-fine-deadlock2", "accounts-fine-deadlock3",
    "buffer-c1-p1x1", "philosophers-naive-3", "philosophers-ordered-3", "rw-r1-w2",
    "lastzero-t2-n2", "dekker", "peterson", "workqueue-w2-i3", "workqueue-w3-i2",
]
SERVE_SPECS = ["dpor(sleep=true)", "caching(mode=lazy)", "lazy-dpor"]
JOB_LIMIT = 5000          # per-job schedule budget; every entry exhausts below it
JOBS_PER_SECOND = 40      # job list length per second of --seconds
CLIENTS = 2               # closed loop: one connection per client at a time
POLL_S = 0.002            # per-client pause before each GET /jobs/<id>
SCRAPE_EVERY = 20         # every 20th request of a client is a GET /metrics
DAEMON_STARTS = 9         # set-up samples per serve run (the last one serves)
SETUP_PROBES = 25         # extra `run --limit 1` spawns per explore run
PROBE_SERVICE_S = 3.0     # serve session length in explore-workload traced runs
PARALLEL_PREFIX = 300_000  # schedules of the parallel-DPOR comparison
TERMINAL = ("done", "failed", "cancelled")


def log(msg):
    print(msg, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def p99(values):
    """Nearest-rank 99th percentile."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, max(0, -(-99 * len(ranked) // 100) - 1))]


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written at the end.

    Disabled, every span is a no-op, so the end-to-end runs pay nothing.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.local = threading.local()
        self.epoch = time.perf_counter()

    def _stack(self):
        if not hasattr(self.local, "stack"):
            self.local.stack = []
        return self.local.stack

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter() - self.epoch,
                           "end": None, "parent": stack[-1] if stack else None,
                           "thread": threading.get_ident()})
        stack.append(idx)
        try:
            yield idx
        finally:
            stack.pop()
            self.spans[idx]["end"] = time.perf_counter() - self.epoch

    def adopt(self, spans, parent, offset):
        """Grafts a probe's spans under `parent`, shifted onto our clock."""
        if not self.enabled:
            return
        base = len(self.spans)
        for s in spans:
            self.spans.append({"name": s["name"], "start": s["start"] + offset,
                               "end": s["end"] + offset,
                               "parent": parent if s["parent"] is None else base + s["parent"],
                               "thread": "probe"})

    def self_times(self):
        """Self time per layer: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        layers = {}
        for i, s in enumerate(self.spans):
            layer = s["name"].split(".")[0].split(":")[0]
            layers[layer] = layers.get(layer, 0.0) + (s["end"] - s["start"]) - child[i]
        return layers


class Ops:
    """Every checked operation of a run and the failures among them."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failures = []

    def record(self, label, errors):
        with self.lock:
            self.attempted += 1
            if errors:
                self.failures.append(f"{label}: {'; '.join(errors)}")


# ------------------------------------------------------------- reference


def load_reference():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)["programs"]


def check_outcome(program, verdict, stats, reference):
    """Errors of one exploration outcome against the pinned reference."""
    ref = reference.get(program)
    if ref is None:
        return [f"no reference for {program}"]
    errors = []
    if verdict != ref["verdict"]:
        errors.append(f"verdict {verdict} != {ref['verdict']}")
    if stats.get("limit_hit"):
        errors.append("limit_hit")
    if stats.get("cancelled"):
        errors.append("cancelled")
    if stats.get("unique_states") != ref["states"]:
        errors.append(f"#states {stats.get('unique_states')} != {ref['states']}")
    chain = [stats.get(k, 0) for k in ("unique_states", "unique_lazy_hbrs", "unique_hbrs",
                                       "schedules")]
    if any(a > b for a, b in zip(chain, chain[1:])):
        errors.append(f"§3 inequality violated: {chain}")
    return errors


# ------------------------------------------------------------- processes


class Env:
    """Build products and scratch directories of one run."""

    def __init__(self, workload, seed):
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.target = target if os.path.isabs(target) else os.path.join(ROOT, target)
        self.lazylocks = os.path.join(self.target, "release", "lazylocks")
        self.probe_bin = os.path.join(self.target, "release", "lazybench-probe")
        self.out = os.path.join(ROOT, ".bench_out")
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "lazylocks-cli"],
                    ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
                     os.path.join(HERE, "probe", "Cargo.toml")]):
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True)
            if r.returncode != 0:
                sys.stderr.write(r.stderr)
                sys.exit(f"build failed: {' '.join(cmd)}")
        os.makedirs(self.out, exist_ok=True)
        os.makedirs(self.work, exist_ok=True)

    def probe(self, tracer, command, args):
        """Runs one probe command; its spans join the trace."""
        with tracer.span(f"probe.{command}") as idx:
            offset = time.perf_counter() - tracer.epoch
            r = subprocess.run([self.probe_bin, command, json.dumps(args)], cwd=ROOT,
                               capture_output=True, text=True)
        if r.returncode != 0:
            sys.exit(f"probe {command} failed: {r.stderr.strip()}")
        doc = json.loads(r.stdout)
        tracer.adopt(doc.get("spans", []), idx, offset)
        return doc


def spawn_run(env, program, spec, limit):
    """One `lazylocks run` process: spawn→exit wall, peak RSS, JSON doc."""
    argv = [env.lazylocks, "run", "--bench", program, "--strategy", spec,
            "--limit", str(limit), "--json"]
    start = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    try:
        doc = json.loads(out)
    except ValueError:
        doc = None
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": p.returncode, "doc": doc}


def check_run(result, program, reference):
    if result["code"] != 0:
        return [f"exit {result['code']}"]
    if result["doc"] is None:
        return ["no JSON outcome"]
    return check_outcome(program, result["doc"]["verdict"], result["doc"]["stats"], reference)


def process_setup_s(result):
    """Process wall time minus the exploration's own reported wall time."""
    return result["wall"] - result["doc"]["stats"]["wall_time_us"] / 1e6


# ------------------------------------------------------------------ HTTP


def http(addr, method, path, body=None):
    """One request on a fresh connection (the daemon closes after each)."""
    data = json.dumps(body).encode() if body is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: {addr[0]}\r\nConnection: close\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n")
    with socket.create_connection(addr, timeout=60) as s:
        s.sendall(head.encode() + data)
        chunks = []
        while True:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, payload


class Daemon:
    """`lazylocks serve` in its crash-safe deployment: journal + corpus."""

    def __init__(self, env, tag):
        d = os.path.join(env.work, f"daemon-{tag}")
        os.makedirs(d, exist_ok=True)
        self.journal = os.path.join(d, "journal.wal")
        argv = [env.lazylocks, "serve", "--addr", "127.0.0.1:0", "--workers", "2",
                "--journal", self.journal, "--corpus", os.path.join(d, "corpus")]
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if "listening on" not in line:
            self.kill()
            sys.exit(f"daemon did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.addr = (host, int(port))

    def status_kb(self, key):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        """POST /shutdown, then wait for the drain."""
        try:
            http(self.addr, "POST", "/shutdown")
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        self.proc.stdout.close()

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class JobList:
    """The seeded job list: `count` jobs, round after round of shuffled
    catalogue entries.

    The seed fixes the order; every round holds each (program, spec) entry
    once, so the list is balanced across the catalogue whatever the seed.
    """

    def __init__(self, seed, sources, count):
        rng = random.Random(seed)
        self.sources = sources
        self.entries = [(p, s) for p in CATALOGUE for s in SERVE_SPECS]
        self.jobs = []
        while len(self.jobs) < count:
            batch = list(self.entries)
            rng.shuffle(batch)
            self.jobs.extend(batch)
        del self.jobs[count:]
        self.lock = threading.Lock()
        self.taken = 0

    def next(self):
        """The next (index, (program, spec)), or None once all are taken."""
        with self.lock:
            if self.taken == len(self.jobs):
                return None
            self.taken += 1
            return self.taken - 1, self.jobs[self.taken - 1]


def job_count(seconds):
    return max(len(CATALOGUE) * len(SERVE_SPECS), round(JOBS_PER_SECOND * seconds))


def serve_session(env, tracer, ops, reference, jobs, seconds, healthz=False):
    """Starts the daemon DAEMON_STARTS times (set-up samples), then drives
    the last one with CLIENTS closed-loop clients through the job list,
    stopping early only if that takes over 4 × `seconds`."""
    setups = []
    for i in range(DAEMON_STARTS - 1):
        d = Daemon(env, f"setup{i}")
        setups.append(d.setup_s)
        d.kill()
    with tracer.span("server.start"):
        daemon = Daemon(env, "serve")
    setups.append(daemon.setup_s)
    addr = daemon.addr

    s = {"latency": [], "submit": [], "status": [], "polls": [], "scrape": [],
         "healthz": [], "catalogue": {}}
    lock = threading.Lock()

    def probe_healthz():
        for _ in range(10):
            with tracer.span("server.healthz"):
                t0 = time.perf_counter()
                status, _ = http(addr, "GET", "/healthz")
                s["healthz"].append(time.perf_counter() - t0)
            ops.record("GET /healthz", [] if status == 200 else [f"status {status}"])

    try:
        if healthz:
            probe_healthz()
        rss_start_kb = daemon.status_kb("VmRSS")
    except OSError:
        daemon.kill()
        raise

    start = time.perf_counter()
    deadline = start + 4 * seconds
    last_done = [start]

    def client():
        requests = [0]

        def call(name, method, path, body=None):
            requests[0] += 1
            if requests[0] % SCRAPE_EVERY == 0:
                with tracer.span("server.scrape"):
                    t0 = time.perf_counter()
                    status, _ = http(addr, "GET", "/metrics")
                    dt = time.perf_counter() - t0
                with lock:
                    s["scrape"].append((t0, dt))
                ops.record("GET /metrics", [] if status == 200 else [f"status {status}"])
                requests[0] += 1
            with tracer.span(name):
                t0 = time.perf_counter()
                status, payload = http(addr, method, path, body)
                return status, payload, time.perf_counter() - t0

        def one_job(program, spec):
            """Submit, poll to a terminal state; the errors and the timings."""
            t0 = time.perf_counter()
            status, payload, submit_dt = call("server.submit", "POST", "/jobs",
                                              {"program": jobs.sources[program], "spec": spec,
                                               "limit": JOB_LIMIT})
            if status != 201:
                return [f"refused: {status} {payload[:200]!r}"], None
            job_id = json.loads(payload)["id"]
            status_dts, detail = [], {}
            while detail.get("state") not in TERMINAL and time.perf_counter() - t0 < 60:
                time.sleep(POLL_S)
                status, payload, dt = call("server.status", "GET", f"/jobs/{job_id}")
                status_dts.append(dt)
                detail = json.loads(payload) if status == 200 else {}
            latency = time.perf_counter() - t0
            if detail.get("state") != "done":
                return [f"job ended {detail.get('state')!r} (HTTP {status})"], None
            result = detail["result"]
            errors = check_outcome(program, result["verdict"], result["stats"], reference)
            return errors, (latency, submit_dt, status_dts, result["stats"]["schedules"])

        while time.perf_counter() < deadline:
            item = jobs.next()
            if item is None:
                break
            index, (program, spec) = item
            try:
                with tracer.span("server.job"):
                    errors, timing = one_job(program, spec)
            except (OSError, ValueError, KeyError, IndexError) as e:
                errors, timing = [f"{type(e).__name__}: {e}"], None
            ops.record(f"job {index} {program} {spec}", errors)
            if errors:
                continue
            latency, submit_dt, status_dts, schedules = timing
            with lock:
                s["latency"].append(latency)
                s["submit"].append(submit_dt)
                s["status"].extend(status_dts)
                s["polls"].append(len(status_dts))
                s["catalogue"].setdefault((program, spec), schedules)
                last_done[0] = max(last_done[0], time.perf_counter())

    try:
        with tracer.span("server.session"):
            threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if healthz:
            probe_healthz()
        s["setup_s"] = median(setups)
        s["elapsed"] = last_done[0] - start
        s["hwm_mb"] = daemon.status_kb("VmHWM") / 1024.0
        s["rss_growth_mb"] = (daemon.status_kb("VmRSS") - rss_start_kb) / 1024.0
        s["journal_bytes"] = os.path.getsize(daemon.journal)
    finally:
        with tracer.span("server.shutdown"):
            daemon.stop()
    return s


def catalogue_sources(env, tracer):
    return env.probe(tracer, "sources", {"names": CATALOGUE})


def log_job_list(env, workload, seed, jobs):
    path = os.path.join(env.out, f"{workload}-seed{seed}-jobs.json")
    with open(path, "w") as f:
        json.dump([{"index": i, "program": p, "spec": s} for i, (p, s) in enumerate(jobs.jobs)],
                  f)
    log(f"job list ({len(jobs.jobs)} jobs, {jobs.taken} run, seed {seed}) logged to "
        f"{os.path.relpath(path, ROOT)}")


# ------------------------------------------------------------ end to end


def explore_e2e(env, workload, seconds, ops, reference):
    cells = CELLS[workload]
    setups = []
    first_program, first_spec = cells[0]
    for _ in range(SETUP_PROBES):
        r = spawn_run(env, first_program, first_spec, 1)
        if r["code"] == 0 and r["doc"]:
            setups.append(process_setup_s(r))
    passes = []
    start = time.perf_counter()
    target = None
    while target is None or len(passes) < target:
        wall, rss, schedules = 0.0, 0.0, 0
        for program, spec in cells:
            r = spawn_run(env, program, spec, EXPLORE_LIMIT)
            errors = check_run(r, program, reference)
            ops.record(f"run {program} {spec}", errors)
            wall += r["wall"]
            rss = max(rss, r["rss_mb"])
            if not errors:
                schedules += r["doc"]["stats"]["schedules"]
                setups.append(process_setup_s(r))
            log(f"  {program} {spec}: {r['wall']:.3f} s, {r['rss_mb']:.1f} MB, "
                f"{'ok' if not errors else errors}")
        passes.append((wall, rss, schedules))
        if target is None:
            target = max(1, round(seconds / (time.perf_counter() - start)))
    walls = [p[0] for p in passes]
    return {
        "verdict_s": median(walls),
        "schedules": median([p[2] for p in passes]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p[1] for p in passes]),
        "job_p50_ms": median(walls) * 1e3,
        "job_p99_ms": p99(walls) * 1e3,
        "jobs_per_s": len(walls) / sum(walls),
    }


def serve_e2e(env, seed, seconds, ops, reference):
    tracer = Tracer(False)
    jobs = JobList(seed, catalogue_sources(env, tracer), job_count(seconds))
    s = serve_session(env, tracer, ops, reference, jobs, seconds)
    log_job_list(env, "serve-mix", seed, jobs)
    missing = [e for e in jobs.entries if e not in s["catalogue"]]
    if missing:
        ops.record("catalogue coverage", [f"{len(missing)} entries never completed"])
    lat = s["latency"]
    return {
        "verdict_s": median(lat),
        "schedules": sum(s["catalogue"].values()),
        "setup_s": s["setup_s"],
        "peak_rss_mb": s["hwm_mb"],
        "job_p50_ms": median(lat) * 1e3,
        "job_p99_ms": p99(lat) * 1e3,
        "jobs_per_s": len(lat) / s["elapsed"] if s["elapsed"] > 0 else 0.0,
    }


# ---------------------------------------------------------------- traced


def core_cells(workload):
    if workload == "serve-mix":
        return [(p, s, JOB_LIMIT) for p in CATALOGUE for s in SERVE_SPECS]
    return [(p, s, EXPLORE_LIMIT) for p, s in CELLS[workload]]


def traced_run(env, workload, seed, seconds, ops, reference):
    tracer = Tracer(True)
    m = {}
    with tracer.span("bench.run"):
        cells = core_cells(workload)

        # The untraced reference: one pass of `lazylocks run` processes.
        untraced_wall, untraced_explore = 0.0, 0.0
        with tracer.span("process.untraced_pass"):
            for program, spec, limit in cells:
                r = spawn_run(env, program, spec, limit)
                errors = check_run(r, program, reference)
                ops.record(f"run {program} {spec}", errors)
                if not errors:
                    untraced_wall += r["wall"]
                    untraced_explore += r["doc"]["stats"]["wall_time_us"] / 1e6

        serving = workload == "serve-mix"
        core = env.probe(tracer, "core", {
            "cells": [{"bench": p, "spec": s, "limit": lim, "rounds": 1 if serving else 2}
                      for p, s, lim in cells],
            "seed": seed, "min_ms": 20 if serving else 200})
        for c in core["cells"]:
            d = c["default"]
            ops.record(f"probe {c['bench']} {c['spec']} default",
                       check_outcome(c["bench"], d["verdict"], d, reference))
            for name, collects_states in (("engine", False), ("states", True), ("hbr", False),
                                          ("lazy_hbr", False)):
                r = c[name]
                errors = [] if r["verdict"] == d["verdict"] else [f"verdict {r['verdict']}"]
                if r["limit_hit"]:
                    errors.append("limit_hit")
                if collects_states and r["unique_states"] != d["unique_states"]:
                    errors.append("#states differs")
                ops.record(f"probe {c['bench']} {c['spec']} {name}", errors)
        core_metrics(m, core, untraced_wall - untraced_explore, len(cells))

        par = env.probe(tracer, "parallel", {"bench": "coarse-mixed-t5",
                                             "limit": PARALLEL_PREFIX})
        m["core.parallel_dpor_ratio_w1"] = par["ratio_w1"] or 0.0
        m["core.parallel_dpor_ratio_w2"] = par["ratio_w2"] or 0.0

        sources = catalogue_sources(env, tracer)
        svc = env.probe(tracer, "service", {
            "dir": env.work,
            "jobs": [{"name": p, "source": sources[p], "spec": s, "limit": JOB_LIMIT}
                     for p in CATALOGUE for s in SERVE_SPECS]})
        for j in svc["jobs"]:
            o = j["outcome"]
            ops.record(f"probe drive {j['name']} {j['spec']}",
                       check_outcome(j["name"], o["verdict"], o, reference))
        service_metrics(m, svc)

        # The daemon: untraced then traced on serve-mix, a short traced
        # session elsewhere.
        if serving:
            quiet = serve_session(env, Tracer(False), ops, reference,
                                  JobList(seed, sources, job_count(seconds / 2)), seconds / 2)
        length = seconds if serving else PROBE_SERVICE_S
        s = serve_session(env, tracer, ops, reference,
                          JobList(seed, sources, job_count(length)), length, healthz=True)
        server_metrics(m, s)

        if serving:
            untraced_p50 = median(quiet["latency"])
            m["bench.tracing_overhead_pct"] = 100 * (median(s["latency"]) - untraced_p50) / (
                untraced_p50 or 1)
        else:
            # The first in-process default run follows the untraced pass.
            traced = sum(c["round_walls"]["default"][0] for c in core["cells"])
            m["bench.tracing_overhead_pct"] = 100 * (traced - untraced_explore) / (
                untraced_explore or 1)

    path = os.path.join(env.out, f"{workload}-seed{seed}-spans.json")
    with open(path, "w") as f:
        json.dump(tracer.spans, f)
    log(f"spans ({len(tracer.spans)}) written to {os.path.relpath(path, ROOT)}")
    log("self time per layer (s): " + ", ".join(
        f"{k}={v:.3f}" for k, v in sorted(tracer.self_times().items())))
    for c in core["cells"]:
        d = c["default"]
        log(f"  {c['bench']} {c['spec']}: default {d['wall_s']:.4f} s, engine "
            f"{c['engine']['wall_s']:.4f} s, leaf replay {c['replay']['total_s']:.4f} s, "
            f"schedules {d['schedules']}, lazy classes {d['unique_lazy_hbrs']}")
    return m


def core_metrics(m, core, process_s, processes):
    """Core-layer metrics from `probe core`; `process_s` is the untraced
    processes' wall time outside their own reported exploration time."""
    cs = core["cells"]
    tot = lambda f: sum(f(c) for c in cs)
    # Every time is the fastest round's (see the probe's `core_cell`).
    leaf_of = lambda name: tot(lambda c: c[name]["wall_s"] - c["engine"]["wall_s"])
    default = tot(lambda c: c["default"]["wall_s"])
    engine = tot(lambda c: c["engine"]["wall_s"])
    leaf = leaf_of("default")
    replay = tot(lambda c: c["replay"]["total_s"])
    schedules = tot(lambda c: c["default"]["schedules"]) or 1
    m["core.engine_s"] = engine
    m["core.leaf_accounting_s"] = leaf
    m["core.leaf_replay_s"] = replay
    m["core.leaf_share"] = leaf / default if default else 0.0
    m["core.leaf_estimate_gap"] = abs(leaf - replay) / leaf if leaf else 0.0
    for name in ("states", "hbr", "lazy_hbr"):
        m[f"core.leaf_{name}_s"] = leaf_of(name)
    suite_s = core["suite_build_ms"] / 1e3
    # The traced run splits the exploration into engine and leaf
    # accounting; what the untraced processes spent outside exploration
    # and outside the suite build is the unattributed remainder.
    m["core.unattributed_s"] = process_s - suite_s * processes
    m["core.steps_per_schedule"] = tot(lambda c: c["default"]["frames_pooled"]) / schedules
    m["core.events_per_schedule"] = tot(lambda c: c["default"]["events"]) / schedules
    m["core.races_per_schedule"] = tot(lambda c: c["default"]["events_compared"]) / schedules
    m["core.sleep_prunes"] = tot(lambda c: c["default"]["sleep_prunes"])
    m["core.cache_prunes"] = tot(lambda c: c["default"]["cache_prunes"])
    m["core.redundancy_lazy"] = max(
        c["default"]["schedules"] / max(1, c["default"]["unique_lazy_hbrs"]) for c in cs)
    m["core.redundancy_regular"] = max(
        c["default"]["schedules"] / max(1, c["default"]["unique_hbrs"]) for c in cs)
    m["core.fingerprint_set_entries"] = tot(
        lambda c: c["default"]["unique_states"] + c["default"]["unique_hbrs"]
        + c["default"]["unique_lazy_hbrs"])
    # Per-call costs: mean over the workload's distinct programs.
    micro = list({c["bench"]: c["micro"] for c in cs}.values())
    mean = lambda k: sum(x[k] for x in micro) / len(micro)
    for metric, key in (("runtime.step_ns", "step_ns"),
                        ("runtime.assign_from_ns", "assign_from_ns"),
                        ("runtime.state_fingerprint_ns", "state_fingerprint_ns"),
                        ("hbr.apply_regular_ns", "apply_regular_ns"),
                        ("hbr.apply_lazy_ns", "apply_lazy_ns"),
                        ("hbr.trace_fingerprint_regular_ns", "trace_fingerprint_regular_ns"),
                        ("hbr.trace_fingerprint_lazy_ns", "trace_fingerprint_lazy_ns"),
                        ("hbr.assign_from_ns", "engine_assign_from_ns"),
                        ("hbr.absorb_ns", "absorb_ns"),
                        ("clock.join_ns", "join_ns")):
        m[metric] = mean(key)
    m["suite.build_ms"] = core["suite_build_ms"]
    base = tot(lambda c: c["obs"]["base_s"]) or 1e-9
    m["obs.metrics_overhead_pct"] = 100 * (tot(lambda c: c["obs"]["metrics_s"]) - base) / base
    m["obs.profile_overhead_pct"] = 100 * (tot(lambda c: c["obs"]["profile_s"]) - base) / base


def service_metrics(m, svc):
    jobs = svc["jobs"]
    n = len(jobs)
    total_bytes = sum(j["doc_bytes"] for j in jobs)
    m["model.parse_us"] = sum(j["parse_us"] for j in jobs) / n
    m["trace.drive_us"] = sum(j["drive_us"] for j in jobs) / n
    m["trace.result_doc_bytes"] = total_bytes / n
    m["trace.json_emit_ns_per_byte"] = sum(
        j["emit_ns_per_byte"] * j["doc_bytes"] for j in jobs) / total_bytes
    m["trace.json_parse_ns_per_byte"] = sum(
        j["parse_ns_per_byte"] * j["doc_bytes"] for j in jobs) / total_bytes
    m["trace.durable_write_us"] = sum(j["durable_write_us"] for j in jobs) / n


def server_metrics(m, s):
    done = len(s["latency"]) or 1
    scrapes = [dt for _, dt in sorted(s["scrape"])]
    # Mean, not median: a request either waits out the accept loop's sleep
    # or not, and the median of such a mix jumps between the two modes.
    m["server.healthz_ms"] = sum(s["healthz"]) / max(1, len(s["healthz"])) * 1e3
    m["server.submit_ms_p50"] = median(s["submit"]) * 1e3
    m["server.submit_ms_p99"] = p99(s["submit"]) * 1e3
    m["server.status_ms_p50"] = median(s["status"]) * 1e3
    m["server.polls_per_job"] = sum(s["polls"]) / done
    m["server.scrape_ms_first"] = median(scrapes[:3]) * 1e3
    m["server.scrape_ms_last"] = median(scrapes[-3:]) * 1e3
    m["server.overhead_ms"] = median(s["latency"]) * 1e3 - m["trace.drive_us"] / 1e3
    m["server.rss_mb_per_1k_jobs"] = s["rss_growth_mb"] * 1000 / done
    m["server.journal_bytes_per_job"] = s["journal_bytes"] / done


# ------------------------------------------------------------------ main


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    env = Env(workload, seed)
    env.build()
    reference = load_reference()
    ops = Ops()
    try:
        if trace:
            values = traced_run(env, workload, seed, seconds, ops, reference)
        elif workload == "serve-mix":
            values = serve_e2e(env, seed, seconds, ops, reference)
        else:
            values = explore_e2e(env, workload, seconds, ops, reference)
    finally:
        shutil.rmtree(env.work, ignore_errors=True)
    return values, ops


def report(values, ops, trace):
    spec = benchmark_spec()
    metrics = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    for f in ops.failures[:20]:
        log(f"FAILED {f}")
    error_rate = len(ops.failures) / max(1, ops.attempted)
    log(f"error_rate = {error_rate:.4f} ({len(ops.failures)} of {ops.attempted} operations)")
    out = {}
    for name, m in metrics.items():
        value = float(values[name])
        out[name] = {"value": value, "unit": m["unit"]}
        log(f"{name:34s} {value:16.6f} {m['unit']}")
    print(json.dumps({"correct": not ops.failures, "attempted": max(1, ops.attempted),
                      "failed": len(ops.failures), "metrics": out}), flush=True)


def self_check():
    """A doctored reference must make operations fail; the true one not."""
    reference = load_reference()
    doctored = {k: dict(v, states=v["states"] + 1) for k, v in reference.items()}
    ok = True
    for ref, expect_failures in ((reference, False), (doctored, True)):
        ops = Ops()
        env = Env("self-check", 0)
        env.build()
        try:
            r = spawn_run(env, "rw-r3-w1", "lazy-dpor", EXPLORE_LIMIT)
            ops.record("run rw-r3-w1 lazy-dpor", check_run(r, "rw-r3-w1", ref))
            tracer = Tracer(False)
            jobs = JobList(0, catalogue_sources(env, tracer), job_count(1.0))
            serve_session(env, tracer, ops, ref, jobs, 1.0)
        finally:
            shutil.rmtree(env.work, ignore_errors=True)
        rate = len(ops.failures) / max(1, ops.attempted)
        good = (rate > 0) == expect_failures
        ok &= good
        log(f"{'doctored' if expect_failures else 'pinned'} reference: error_rate {rate:.3f} "
            f"over {ops.attempted} operations -> {'ok' if good else 'WRONG'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    os.chdir(ROOT)
    if a.self_check:
        sys.exit(0 if self_check() else 1)
    if not a.workload:
        ap.error("--workload is required")
    values, ops = run(a.workload, a.seed, a.seconds, a.trace)
    report(values, ops, a.trace)


if __name__ == "__main__":
    main()

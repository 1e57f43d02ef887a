#!/usr/bin/env python3
"""The repository benchmark: three workloads over icfp-sim, each printing
its end-to-end metrics (--trace 0) or its per-layer metrics (--trace 1)
as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a source checkout. The first run builds icfp-sim
and perfbench-driver into .bench_build/ (CMake, from source); every run
works in a fresh directory under .bench_work/ and removes it at exit.
The system under test gets 2 worker threads; load comes from this one
process with at most one client connection. See perfbench/METRICS.md for
what each metric means and which layer moves it.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

import pblib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
JOBS = 2  # worker threads of the system under test

TAIL_BENCHES = ["art", "mcf", "graph.bfs", "graph.chase", "kv.cold"]

# Sweep workloads. A pass replays the whole grid once; the pass count is
# fixed per run (seconds / nominal_pass_s), so every run does the same
# work whatever the speed of the build under test. Each of the `procs`
# driver processes makes one timed set-up.
SWEEPS = {
    "fig5-cold": dict(benches=pblib.FIG5_BENCHES, cores=pblib.FIG5_CORES,
                      insts=200000, jobs=JOBS, procs=14, nominal_pass_s=0.8),
    "icfp-tail": dict(benches=TAIL_BENCHES, cores=["in-order", "icfp"],
                      insts=200000, jobs=1, procs=24, nominal_pass_s=0.4),
}
# service-mix: the request sequence is fixed, and its replay work scales
# with the instruction budget (~1 s of sequence per 1600 insts). A run
# drives DAEMONS fresh daemons in turn, each through the whole sequence
# at 1/DAEMONS of the budget: like the sweep processes, each daemon
# samples the host once.
SERVICE_INSTS_PER_S = 1600
SERVICE_DAEMONS = 2
# Handshake samples per slot; the slots are before, between and after
# the daemons' sequences, so setup_s samples the host at several times.
SERVICE_SETUP_REPS = 15
WORKLOADS = list(SWEEPS) + ["service-mix"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def note(line):
    """A human-readable result line (stdout, before the JSON line)."""
    print(line, flush=True)


class Run:
    """One benchmark invocation: its work directory and its tallies."""

    def __init__(self, name):
        os.makedirs(WORK, exist_ok=True)
        self.dir = os.path.join(WORK, f"{name}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def fail(self, count, why):
        self.failed += count
        log(f"FAILED ({count}): {why}")


# ------------------------------------------------------------------ build

def build():
    """Configure once, then (re)build the two targets the runs use."""
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=out, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "icfp-sim", "perfbench-driver"], stdout=out, check=True)


def tool(name):
    # icfp-sim is built by the repository's own CMakeLists, which the
    # benchmark package adds as the "icfp" subdirectory.
    sub = "icfp" if name == "icfp-sim" else ""
    return os.path.join(BUILD, sub, name)


def clean_env():
    env = dict(os.environ)
    for var in ("ICFP_TRACE_DIR", "ICFP_TRACE_DIR_MAX_MB", "ICFP_SWEEP_JOBS",
                "ICFP_FAULT_INJECT", "ICFP_BENCH_INSTS"):
        env.pop(var, None)
    return env


def driver(args, timeout=170):
    """Run perfbench-driver; returns (exit code, last-line JSON or None).
    A timeout reads as exit code -1."""
    try:
        proc = subprocess.run([tool("perfbench-driver")] + args,
                              stdout=subprocess.PIPE, env=clean_env(),
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        return -1, None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines \
        else None
    return proc.returncode, result


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def read(path):
    with open(path) as f:
        return f.read()


# -------------------------------------------------------- sweep workloads

def check_grid_csv(run, text, benches, cores, insts, label):
    """Rows must be exactly benches × cores, each replaying the budget."""
    rows = pblib.parse_sweep_csv(text)
    want = [(b, c) for b in benches for c in cores]
    got = [(r["bench"], r["core"]) for r in rows]
    bad = sum(1 for r in rows
              if int(r["instructions"]) != insts or int(r["cycles"]) <= 0)
    if got != want:
        run.fail(len(want), f"{label}: grid rows do not match the grid")
    elif bad:
        run.fail(bad, f"{label}: {bad} rows with a wrong budget or cycles")
    return rows


def sweep_args(spec, run, passes, tag):
    """perfbench-driver arguments for one process of a sweep workload."""
    return ["sweep", "--benches", ",".join(spec["benches"]),
            "--cores", ",".join(spec["cores"]),
            "--insts", str(spec["insts"]), "--jobs", str(spec["jobs"]),
            "--passes", str(passes), "--csv", run.path(f"{tag}.csv")]


def fig5_fidelity(run):
    """Fidelity of this build against Figure 5 — a property of the
    simulator, not of a workload: the non-fig5 workloads compute the
    fig5 grid once, outside their timed section."""
    spec = SWEEPS["fig5-cold"]
    code, _ = driver(sweep_args(spec, run, 1, "fig5"))
    run.attempted += len(spec["benches"]) * len(spec["cores"])
    if code != 0:
        run.fail(len(spec["benches"]) * len(spec["cores"]),
                 f"fig5 fidelity sweep exited {code}")
        return None
    text = read(run.path("fig5.csv"))
    rows = check_grid_csv(run, text, spec["benches"], spec["cores"],
                          spec["insts"], "fig5 fidelity sweep")
    note(f"artifact fig5-grid sha256={digest(text)}")
    return pblib.fidelity_err_pp(rows)


def run_sweep(name, run, seconds, trace):
    """Run a sweep workload's set-ups and timed passes.

    The passes are spread over spec["procs"] driver processes, one
    set-up each: on a shared host replay speed differs between processes
    (perfbench/METRICS.md, "Host noise"), so a run samples several. A
    traced run is one process whose passes alternate untraced and
    traced."""
    spec = SWEEPS[name]
    procs = 1 if trace else spec["procs"]
    passes = max(procs, round(seconds / spec["nominal_pass_s"]))
    cells = len(spec["benches"]) * len(spec["cores"])
    run.attempted += cells * passes
    res = {"setup_s": [], "pass_s": [], "traced_pass_s": [], "cell_s": [],
           "peak_rss_kb": 0, "passes": passes}
    csvs = []
    for i in range(procs):
        tag = f"sweep{i}"
        args = sweep_args(spec, run, passes * (i + 1) // procs -
                          passes * i // procs, tag)
        if trace:
            args += ["--trace", run.path("sweep.trace.json")]
        code, out = driver(args)
        if code != 0:
            run.fail(cells * passes, f"perfbench-driver sweep exited {code}")
            return None
        res["setup_s"].append(out["setup_s"])
        for key in ("pass_s", "traced_pass_s", "cell_s"):
            res[key] += out[key]
        res["peak_rss_kb"] = max(res["peak_rss_kb"], out["peak_rss_kb"])
        if out["mismatched_passes"]:
            run.fail(cells * out["mismatched_passes"],
                     "replay passes disagree with the process's first pass")
        if out["generations"] != len(spec["benches"]):
            run.fail(cells, "set-up did not generate every trace")
        csvs.append(read(run.path(f"{tag}.csv")))
    text = csvs[0]
    rows = check_grid_csv(run, text, spec["benches"], spec["cores"],
                          spec["insts"], name)
    for other in csvs[1:]:
        if other != text:
            differing = sum(1 for a, b in zip(text.splitlines(),
                                              other.splitlines()) if a != b)
            run.fail(max(1, differing),
                     "driver processes disagree on the grid's CSV")
    note(f"artifact {name} sha256={digest(text)}")
    res["rows"] = rows
    return res


def sweep_end_to_end(name, run, seconds):
    res = run_sweep(name, run, seconds, trace=False)
    if res is None:
        return None
    # Every pass replays the same traces, so a slower pass is host
    # interference, not work; the fastest pass is the steadiest estimate
    # of the grid's cost (perfbench/METRICS.md, "Host noise").
    wall = min(res["pass_s"])
    insts = sum(int(r["instructions"]) for r in res["rows"])
    cells = len(res["rows"])
    p50, tail, pct, count = pblib.miss_summary(
        pblib.cell_latencies(res["cell_s"], cells))
    fidelity = pblib.fidelity_err_pp(res["rows"]) \
        if name == "fig5-cold" else fig5_fidelity(run)
    note(f"{name}: {res['passes']} passes, pass walls "
         + " ".join(f"{x:.3f}" for x in res["pass_s"]))
    note(f"{name}: miss = one grid cell's replay, fastest of "
         f"{res['passes']} passes; "
         f"miss_tail_s = p{pct:.1f} of {count} cells")
    if fidelity is None:
        return None
    return {
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "wall_s": (wall, "s"),
        "sim_minsts_per_s": (insts / wall / 1e6, "Minsts/s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "fidelity_err_pp": (fidelity, "pp"),
        "miss_p50_s": (p50, "s"),
        "miss_tail_s": (tail, "s"),
    }


# -------------------------------------------------------------- service

class Daemon:
    """`icfp-sim serve` on a Unix socket in the run directory.

    It runs without --trace-dir and --cache-dir: both disk tiers fsync
    every write, and a run wrote ~1 GB of traces, so their timing was
    the shared disk's rather than the program's (service-mix wall spread
    0.15 against 0.08 for the sweeps in the same runs). The trace
    store's write path is timed per layer instead (TraceStore::store in
    the traced walk)."""

    def __init__(self, run, tag, job_trace_dir=None):
        self.sock = os.path.relpath(run.path(f"{tag}.sock"))
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        cmd = [tool("icfp-sim"), "serve", "--socket", self.sock,
               "--jobs", str(JOBS)]
        if job_trace_dir:
            os.makedirs(job_trace_dir, exist_ok=True)
            cmd += ["--job-trace-dir", job_trace_dir]
        self.log = open(run.path(f"{tag}.log"), "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=self.log,
                                     env=clean_env())

    def connect(self, deadline_s=20.0):
        """Poll until the daemon answers its hello; returns the client
        and the seconds from spawn to that first handshake."""
        limit = time.perf_counter() + deadline_s
        while True:
            try:
                client = Client(self.sock)
                return client, time.perf_counter() - self.started
            except (ConnectionError, FileNotFoundError, OSError):
                if self.proc.poll() is not None or \
                        time.perf_counter() > limit:
                    raise
                time.sleep(0.0005)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, drain=True):
        """SIGTERM and wait for the drain; a daemon that served nothing
        has nothing to drain, so @p drain False kills it at once (a
        drain waits out the accept loop's 100 ms poll)."""
        if self.proc.poll() is None and not drain:
            self.proc.kill()
            self.proc.wait()
        elif self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Client:
    """A minimal NDJSON client of the service protocol."""

    def __init__(self, path, timeout_s=120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        try:
            self.sock.connect(path)
            self.buf = b""
            self.hello = self.read()
        except BaseException:
            self.sock.close()
            raise
        if self.hello.get("type") != "hello":
            self.sock.close()
            raise ConnectionError("no hello from the daemon")

    def read(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def send(self, frame):
        self.sock.sendall(json.dumps(frame, separators=(",", ":")).encode()
                          + b"\n")

    def close(self):
        self.sock.close()


def submit(client, request, trace):
    """Submit one grid and wait for it; returns (result frame or None,
    job id, error text)."""
    frame = {"type": "submit", "suite": "nonspec",
             "benches": request["benches"], "cores": request["cores"],
             "insts": request["insts"], "format": "csv", "wait": 1}
    if request.get("seed") is not None:
        frame["seed"] = request["seed"]
    if trace:
        frame["trace"] = 1
    client.send(frame)
    ack = client.read()
    if ack.get("type") != "submitted":
        return None, None, f"{ack.get('type')}: {ack}"
    result = client.read()
    if result.get("type") != "result":
        return None, ack.get("job"), f"{result.get('type')}: {result}"
    return result, ack.get("job"), ""


def client_span(name, start, end, **args):
    """A Chrome-trace X event of the benchmark's own client side."""
    return {"name": name, "ph": "X", "ts": int(start * 1e6),
            "dur": int((end - start) * 1e6),
            "args": dict({"parent": "0", "thread": "0"},
                         **{k: str(v) for k, v in args.items()})}


def serve_sequence(run, tag, requests, trace=False):
    """Spawn a daemon, drive @p requests through one connection, stop it.

    Returns a dict with the per-request latencies, classes and payloads
    (None for a failed request), the timed wall, the daemon's VmHWM and,
    traced, client spans, its metrics scrape and its job traces (each
    event tagged with the request it served). A daemon that dies fails
    every request it did not answer."""
    job_dir = run.path(f"{tag}-jobs") if trace else None
    daemon = Daemon(run, tag, job_dir)
    out = {"lat": [None] * len(requests), "cls": [None] * len(requests),
           "payload": [None] * len(requests), "spans": [], "scrape": {},
           "job_traces": [], "wall_s": 0.0, "peak_rss_mb": 0.0}
    job_request = {}
    answered = 0
    try:
        client, handshake = daemon.connect()
        out["spans"].append(client_span("service.handshake", 0.0, handshake))
        t0 = time.perf_counter()
        for i, request in enumerate(requests):
            start = time.perf_counter()
            try:
                result, job, error = submit(client, request, trace)
            except (OSError, ValueError) as e:
                result, job, error = None, None, str(e)
            end = time.perf_counter()
            answered += 1
            job_request[job] = i
            if result is None:
                run.fail(1, f"request {i} failed: {error}")
                if daemon.proc.poll() is not None:
                    break
                continue
            out["lat"][i] = end - start
            out["cls"][i] = pblib.classify(result)
            out["payload"][i] = result.get("payload", "")
            out["spans"].append(client_span(
                "ServiceClient.submit", start, end, id=f"c{i}", req=i,
                job=job, cached=result.get("cached", 0)))
        out["wall_s"] = time.perf_counter() - t0
        out["peak_rss_mb"] = daemon.peak_rss_mb()
        if trace:
            client.send({"type": "metrics", "format": "json",
                         "scope": "local"})
            out["scrape"] = json.loads(client.read()["payload"])
        client.close()
    except (OSError, ValueError) as e:
        log(f"service session ended: {e}")
    finally:
        daemon.stop()
    if answered < len(requests):
        run.fail(len(requests) - answered,
                 f"daemon {tag} ended before answering every request")
    for name in sorted(os.listdir(job_dir)) if job_dir else []:
        job = int(name.split("-")[1].split(".")[0])
        events = json.loads(read(os.path.join(job_dir, name)))
        for e in events["traceEvents"]:
            e.setdefault("args", {})["req"] = str(job_request.get(job))
        out["job_traces"].append(events)
    return out


def handshakes(run, reps):
    """Seconds from daemon spawn to first successful handshake, @p reps
    times (a fresh daemon each time)."""
    times = []
    for i in range(reps):
        daemon = Daemon(run, f"setup{i}")
        try:
            client, elapsed = daemon.connect()
            client.close()
            times.append(elapsed)
        finally:
            daemon.stop(drain=False)
    return times


def check_service(run, sequences, label):
    """Every artifact must equal a direct in-process sweep of its grid
    (computed now, after the timed window), so repeats equal the first
    answer. @p sequences is [(requests, serve_sequence output)]."""
    grids = {}
    for requests, _ in sequences:
        for request in requests:
            grids.setdefault(pblib.grid_key(request), f"g{len(grids)}")
    with open(run.path("grids.txt"), "w") as f:
        for (benches, cores, insts, seed), name in grids.items():
            f.write(f"{name} {benches} {cores} {insts} "
                    f"{'-' if seed is None else seed}\n")
    os.makedirs(run.path("ref"), exist_ok=True)
    code, _ = driver(["ref", "--grids", run.path("grids.txt"),
                      "--out-dir", run.path("ref"), "--jobs", str(JOBS)])
    if code != 0:
        run.fail(sum(len(r) for r, _ in sequences),
                 f"reference sweeps exited {code}")
        return
    bad = 0
    payloads = []
    for requests, out in sequences:
        for request, payload in zip(requests, out["payload"]):
            ref = read(run.path("ref", grids[pblib.grid_key(request)] +
                                ".csv"))
            bad += payload is not None and payload != ref
            payloads.append(payload or "")
    if bad:
        run.fail(bad, f"{label}: {bad} artifacts differ from the direct "
                 "sweep of their grid")
    note(f"artifact {label} sha256={digest(''.join(payloads))}")


def service_end_to_end(run, seed, seconds):
    insts = int(SERVICE_INSTS_PER_S * seconds / SERVICE_DAEMONS)
    setup = handshakes(run, SERVICE_SETUP_REPS)
    lat, cls, payloads, sequences = [], [], [], []
    wall = rss = 0.0
    for d in range(SERVICE_DAEMONS):
        requests = pblib.service_requests(seed * SERVICE_DAEMONS + d, insts)
        run.attempted += len(requests)
        out = serve_sequence(run, f"timed{d}", requests)
        sequences.append((requests, out))
        lat += out["lat"]
        cls += out["cls"]
        payloads += out["payload"]
        wall += out["wall_s"]
        rss = max(rss, out["peak_rss_mb"])
        setup += handshakes(run, SERVICE_SETUP_REPS)
    check_service(run, sequences, "service-mix")
    fidelity = fig5_fidelity(run)
    misses = [t for t, c in zip(lat, cls) if c == "miss"]
    hits = sum(1 for c in cls if c == "hit")
    replayed = sum(int(r["instructions"])
                   for payload, c in zip(payloads, cls) if c == "miss"
                   for r in pblib.parse_sweep_csv(payload))
    tail = pblib.tail_percentile(misses)
    if tail is None or fidelity is None:
        run.fail(1, "too few completed misses to report a tail")
        return None
    note(f"service-mix: {SERVICE_DAEMONS} daemons x "
         f"{len(lat) // SERVICE_DAEMONS} requests at {insts} insts, "
         f"{len(misses)} misses, {hits} hits, wall {wall:.3f} s")
    note(f"service-mix: miss_tail_s = p{tail[1]:.1f} of {tail[2]} misses")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "sim_minsts_per_s": (replayed / wall / 1e6, "Minsts/s"),
        "peak_rss_mb": (rss, "MB"),
        "fidelity_err_pp": (fidelity, "pp"),
        "miss_p50_s": (statistics.median(misses), "s"),
        "miss_tail_s": (tail[0], "s"),
    }


# ------------------------------------------------------------ traced run

def span_events(path):
    return json.loads(read(path))["traceEvents"]


def sum_us(events, name, **match):
    return sum(e["dur"] for e in events
               if e.get("ph") == "X" and e["name"] == name and
               all(e["args"].get(k) == v for k, v in match.items()))


def durations_us(events, name):
    return [e["dur"] for e in events
            if e.get("ph") == "X" and e["name"] == name]


def walk_metrics(run, benches, seeds, insts):
    """Per-layer metrics from one layer walk over @p benches."""
    args = ["walk", "--benches", ",".join(benches), "--insts", str(insts),
            "--jobs", str(JOBS), "--store", run.path("walk-store"),
            "--csv", run.path("walk.csv"),
            "--trace", run.path("walk.trace.json")]
    if seeds:
        args += ["--seeds", ",".join(str(s) for s in seeds)]
    run.attempted += len(benches) * len(pblib.ALL_CORES)
    code, res = driver(args)
    if code != 0:
        run.fail(len(benches) * len(pblib.ALL_CORES),
                 f"perfbench-driver walk exited {code}")
        return {}, []
    events = span_events(run.path("walk.trace.json"))
    rows = check_grid_csv(run, read(run.path("walk.csv")), benches,
                          pblib.ALL_CORES, insts, "layer walk")
    mb = 1024.0 * 1024.0
    m = {}
    build_s = sum_us(events, "buildWorkload") / 1e6
    interp_s = sum_us(events, "Interpreter::run") / 1e6
    m["workloads.build_s"] = (build_s, "s")
    m["workloads.image_mb"] = (res["image_bytes"] / mb, "MB")
    m["isa.interp_s"] = (interp_s, "s")
    m["isa.interp_minsts_per_s"] = (res["insts"] / interp_s / 1e6,
                                    "Minsts/s")
    m["isa.trace_mb"] = (res["trace_bytes"] / mb, "MB")
    m["trace_io.encode_s"] = (sum_us(events, "writeTrace") / 1e6, "s")
    m["trace_io.decode_s"] = (sum_us(events, "readTrace") / 1e6, "s")
    m["trace_io.file_mb"] = (res["file_bytes"] / mb, "MB")
    m["trace_store.store_s"] = (sum_us(events, "TraceStore::store") / 1e6,
                                "s")
    m["trace_store.load_s"] = (sum_us(events, "TraceStore::load") / 1e6,
                               "s")
    cycles = {(r["bench"], r["core"]): int(r["cycles"]) for r in rows}
    for core in pblib.ALL_CORES:
        secs = sum_us(events, "simulate", core=core) / 1e6
        total = sum(cycles[(b, core)] for b in benches)
        m[f"replay.{core}.s"] = (secs, "s")
        m[f"replay.{core}.ns_per_cycle"] = (secs * 1e9 / total, "ns")
        m[f"replay.{core}.cycles"] = (total, "count")
        if core != "in-order":
            m[f"replay.{core}.speedup_pct"] = (pblib.geomean_speedup_pct(
                [cycles[(b, "in-order")] / cycles[(b, core)]
                 for b in benches]), "%")
    icfp = [r for r in rows if r["core"] == "icfp"]
    base = [r for r in rows if r["core"] == "in-order"]
    rally_insts = sum(int(r["rally_insts"]) for r in icfp)
    m["icfp.host_ns_per_rally_inst"] = (
        m["replay.icfp.s"][0] * 1e9 / max(1, rally_insts), "ns")
    m["icfp.rally_per_sliced"] = (
        rally_insts / max(1, sum(int(r["sliced_insts"]) for r in icfp)),
        "ratio")
    m["icfp.rally_passes"] = (sum(int(r["rally_passes"]) for r in icfp),
                              "count")
    m["mem.l2_miss_ki"] = (
        1000.0 * sum(int(r["l2_misses"]) for r in base) /
        sum(int(r["instructions"]) for r in base), "1/kinst")
    m["mem.l2_mlp"] = (statistics.mean(float(r["l2_mlp"]) for r in icfp),
                       "ratio")
    cells = durations_us(events, "simulate")
    m["sweep.straggler_frac"] = (max(cells) / sum(cells), "share")
    m["report.emit_s"] = (sum_us(events, "sweepCsv") / 1e6, "s")
    return m, events


def service_metrics(run, out, setup):
    """The service layers' per-layer metrics from one traced sequence."""
    hits = [lat for lat, cls in zip(out["lat"], out["cls"]) if cls == "hit"]
    spans = [e for t in out["job_traces"] for e in t["traceEvents"]
             if e.get("ph") == "X"]
    scrape = out["scrape"]

    def med_ms(name):
        values = [e["dur"] for e in spans if e["name"] == name]
        return statistics.median(values) / 1e3 if values else 0.0

    requests = sum(1 for cls in out["cls"] if cls)
    return {
        "service.handshake_ms": (statistics.median(setup) * 1e3, "ms"),
        "server.queue_wait_ms": (med_ms("queue_wait"), "ms"),
        "server.cache_probe_ms": (med_ms("cache_probe"), "ms"),
        "result_cache.hit_ms": (
            statistics.median(hits) * 1e3 if hits else 0.0, "ms"),
        "result_cache.hit_frac": (len(hits) / max(1, requests), "share"),
        "service.generations": (scrape.get("icfp_trace_generations", 0),
                                "count"),
        "service.replays": (scrape.get("icfp_replays", 0), "count"),
    }, spans


def write_chrome_trace(run, name, groups):
    """One Chrome-trace JSON (opens in Perfetto) holding every span of
    the traced run: @p groups is [(process label, events)]."""
    events = []
    for pid, (label, group) in enumerate(groups, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        for e in group:
            if e.get("ph") == "X":
                events.append(dict(e, pid=pid))
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", f"{name}.trace.json")
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
    note(f"chrome trace: {os.path.relpath(path, ROOT)}")
    table = pblib.self_times(events)
    note(f"{'span':34} {'count':>6} {'total ms':>11} {'self ms':>11}")
    for span, (count, total, own) in sorted(table.items(),
                                            key=lambda kv: -kv[1][2]):
        note(f"{span:34} {count:6d} {total / 1e3:11.2f} {own / 1e3:11.2f}")


def sweep_traced(name, run, seconds):
    spec = SWEEPS[name]
    res = run_sweep(name, run, seconds, trace=True)
    if res is None:
        return None
    sweep_events = span_events(run.path("sweep.trace.json"))
    walk, walk_events = walk_metrics(run, spec["benches"], None,
                                     spec["insts"])
    grid = {"benches": ",".join(spec["benches"]),
            "cores": ",".join(spec["cores"]), "insts": spec["insts"],
            "seed": None}
    run.attempted += 2
    setup = handshakes(run, 3)
    out = serve_sequence(run, "probe", [grid, grid], trace=True)
    service, job_spans = service_metrics(run, out, setup)
    m = dict(walk)
    m.update(service)
    m["sweep.gen_wall_s"] = (statistics.median(
        durations_us(sweep_events, "setup")) / 1e6, "s")
    m["sweep.replay_wall_s"] = (statistics.median(
        durations_us(sweep_events, "sweep.replay")) / 1e6, "s")
    # Each traced pass directly follows an untraced one; the median of
    # the pairs' ratios cancels host drift between the two.
    m["trace_overhead_frac"] = (statistics.median(
        t / u for t, u in zip(res["traced_pass_s"], res["pass_s"])) - 1.0,
        "share")
    write_chrome_trace(run, name, [("perfbench-driver sweep", sweep_events),
                                   ("perfbench-driver walk", walk_events),
                                   ("perfbench service client", out["spans"]),
                                   ("icfp-sim serve jobs", job_spans)])
    return m


def service_traced(run, seed, seconds):
    insts = int(SERVICE_INSTS_PER_S * seconds / SERVICE_DAEMONS)
    requests = pblib.service_requests(seed, insts)
    run.attempted += 2 * len(requests)
    setup = handshakes(run, 3)
    plain = serve_sequence(run, "plain", requests)
    traced = serve_sequence(run, "traced", requests, trace=True)
    check_service(run, [(requests, traced)], "service-mix traced")
    service, job_spans = service_metrics(run, traced, setup)
    family_seeds = {}
    for request in requests:
        family_seeds.setdefault(request["benches"], request["seed"])
    benches, seeds = [], []
    for family, wseed in family_seeds.items():
        for bench in family.split(","):
            benches.append(bench)
            seeds.append(wseed)
    walk, walk_events = walk_metrics(run, benches, seeds, insts)
    m = dict(walk)
    m.update(service)
    new_seed = set()
    for i, request in enumerate(requests):
        if all(r["seed"] != request["seed"] for r in requests[:i]):
            new_seed.add(str(i))
    m["sweep.gen_wall_s"] = (statistics.median(
        e["dur"] for e in job_spans if e["name"] == "trace_gen" and
        e["args"]["req"] in new_seed) / 1e6, "s")
    m["sweep.replay_wall_s"] = (statistics.median(
        [e["dur"] for e in job_spans if e["name"] == "replay"]) / 1e6, "s")
    m["trace_overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0,
                                "share")
    write_chrome_trace(run, "service-mix",
                       [("perfbench-driver walk", walk_events),
                        ("perfbench service client", traced["spans"]),
                        ("icfp-sim serve jobs", job_spans)])
    return m


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    run = Run(opts.workload)
    try:
        if opts.workload == "service-mix":
            metrics = service_traced(run, opts.seed, opts.seconds) \
                if opts.trace else \
                service_end_to_end(run, opts.seed, opts.seconds)
        elif opts.trace:
            metrics = sweep_traced(opts.workload, run, opts.seconds)
        else:
            metrics = sweep_end_to_end(opts.workload, run, opts.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if metrics is None:
        run.failed = max(run.failed, 1)
        metrics = {}
    fail_frac = run.failed / max(1, run.attempted)
    note(f"fail_frac {fail_frac:.6f} share ({run.failed} of "
         f"{run.attempted} operations)")
    for key, (value, unit) in metrics.items():
        note(f"{opts.workload} {key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

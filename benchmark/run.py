#!/usr/bin/env python3
"""The repo benchmark: jsq file throughput and jsqd latency/capacity.

Run from anywhere inside a checkout:

  python3 benchmark/run.py --workload svc_small --seed 7 --seconds 20
  python3 benchmark/run.py --workloads paper_files,svc_large --trace
  python3 benchmark/run.py --pin        # rewrite workloads/pins.json

It builds jsq and jsqd (Release) from the checkout, generates the
inputs for the seed, runs the workload, checks every answer against the
pinned or DOM-baseline reference, and prints one
`workload metric value unit` line per metric.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, and the spans go to .bench_build/trace.json.
See benchmark/README.md for the workloads and metric definitions.
"""
import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
WL_DIR = os.path.join(BENCH_DIR, "workloads")
PINS = os.path.join(WL_DIR, "pins.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1
MIB = 1 << 20
DATASETS = ["TT", "BB", "GMD", "NSPL", "WM", "WP"]

# Inputs.  16 MiB per paper dataset keeps one jsq run in the 8-50 ms
# range, so a run repeats every (query, mode) pair 15+ times.
PAPER_BYTES = 16 * MIB
CHUNK_BYTES = 65536
LARGE_BODY, LARGE_BODIES = MIB, 4
SMALL_POOL, SMALL_MAX, SMALL_RECORDS = 256 * 1024, 4096, 48
MULTI_BODY, MULTI_BODIES = 256 * 1024, 4
MULTI_SETS = {"multi_tt": "TT", "multi_wm": "WM"}
DOC_BODY, DOC_BODIES = MIB, 4

# Frozen service loads: the fixed open-loop rate (about 40% of max_rps
# at the default seed, so a host running at half speed still keeps up)
# and the p99 limit max_rps must meet (at least 2x the p99 seen at the
# fixed rate).
SERVICE = {
    "svc_large": {"rate": 460.0, "limit_ms": 10.0},
    "svc_small": {"rate": 9600.0, "limit_ms": 10.0},
    "svc_multi": {"rate": 95.0, "limit_ms": 40.0},
}
WORKLOADS = ["paper_files"] + list(SERVICE)
JSQD_ARGS = ["--shards", "1", "--workers", "2"]


class BenchError(Exception):
    """The benchmark cannot produce a result (exit 1, no JSON line)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


# --- Build ----------------------------------------------------------------

def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no jsonski source tree at {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(WORK, "build.log")
    cmds = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    with open(logfile, "a") as out:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(logfile) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed ({' '.join(targets)}):\n{tail}")


def exe(name):
    sub = {"jsq": "jsonski/examples", "jsqd": "jsonski/examples"}.get(name, "")
    return os.path.join(BUILD, sub, name)


# --- CPU placement -----------------------------------------------------------

_CPUS = sorted(os.sched_getaffinity(0))


def cpu_plan():
    """(server cpus, client cpus): the first two and the next two of the
    CPUs this process started with, when it has four; else all, shared."""
    if len(_CPUS) >= 4:
        return _CPUS[:2], _CPUS[2:4]
    return _CPUS, _CPUS


def csv(cpus):
    return ",".join(str(c) for c in cpus)


class on_server_cpus:
    """Run this process, and the jsq children it spawns, on the server
    CPUs for the scope (posix_spawn children inherit the affinity)."""

    def __enter__(self):
        self.saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpu_plan()[0])

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self.saved)


# --- Inputs and references --------------------------------------------------

def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(MIB), b""):
            h.update(block)
    return h.hexdigest()


class Inputs:
    """Generated inputs of one seed, cached by seed and generator build."""

    def __init__(self, seed):
        self.seed = seed
        gen_id = sha256(exe("bench_inputs"))[:12]
        base = os.path.join(WORK, "inputs")
        self.dir = os.path.join(base, f"seed-{seed}-{gen_id}")
        os.makedirs(self.dir, exist_ok=True)
        os.utime(self.dir)
        # Keep this seed and the most recently used other one.
        others = sorted((d for d in os.listdir(base)
                         if os.path.join(base, d) != self.dir),
                        key=lambda d: os.path.getmtime(os.path.join(base, d)))
        for d in others[:-1]:
            shutil.rmtree(os.path.join(base, d), ignore_errors=True)
        self.pins = None
        if seed == DEFAULT_SEED and os.path.exists(PINS):
            with open(PINS) as f:
                self.pins = json.load(f)
        self.digests = self._load("digests.json")
        self.refs = self._load("refs.json")

    def _load(self, name):
        path = os.path.join(self.dir, name)
        if os.path.exists(path):
            with open(path) as f:
                return json.load(f)
        return {}

    def _save(self, name, data):
        tmp = os.path.join(self.dir, name + ".tmp")
        with open(tmp, "w") as f:
            json.dump(data, f, indent=0, sort_keys=True)
        os.replace(tmp, os.path.join(self.dir, name))

    def rel(self, path):
        return os.path.relpath(path, self.dir)

    def generated(self, kind, ds, nbytes, sub):
        """A src/gen file: kind 'large' (one record) or 'small' (NDJSON)."""
        ext = "json" if kind == "large" else "ndjson"
        path = os.path.join(self.dir, f"{ds}-{kind}-{nbytes}-{sub}.{ext}")
        rel = self.rel(path)
        if rel not in self.digests or not os.path.exists(path):
            gen_seed = self.seed * 1000 + sub + 1
            subprocess.run([exe("bench_inputs"), kind, ds, str(nbytes),
                            str(gen_seed), path + ".tmp"], check=True)
            os.replace(path + ".tmp", path)
            self.digests[rel] = sha256(path)
            self._save("digests.json", self.digests)
        if self.pins is not None:
            pinned = self.pins["digests"].get(rel)
            if pinned != self.digests[rel]:
                raise BenchError(
                    f"src/gen output drifted: {rel} has digest "
                    f"{self.digests[rel][:16]}, pinned {str(pinned)[:16]}; "
                    "inputs of the default seed must not change")
        return path

    def derived(self, name, data):
        """A file cut from generated inputs (its references are pinned)."""
        path = os.path.join(self.dir, name)
        if not os.path.exists(path):
            with open(path + ".tmp", "wb") as f:
                f.write(data)
            os.replace(path + ".tmp", path)
        return path

    def counts(self, jobs):
        """Reference count per (mode, path, query) job."""
        keys = [f"{m}\t{self.rel(p)}\t{q}" for m, p, q in jobs]
        if self.pins is not None:
            missing = [k for k in keys if k not in self.pins["refs"]]
            if missing:
                raise BenchError(f"no pinned reference for {missing[0]!r}")
            return [self.pins["refs"][k] for k in keys]
        todo = sorted({(m, p, q) for (m, p, q), k in zip(jobs, keys)
                       if k not in self.refs}, key=lambda j: (j[1], j[0]))
        if todo:
            text = "".join(f"{m}\t{p}\t{q}\n" for m, p, q in todo)
            out = subprocess.run([exe("bench_inputs"), "count"], input=text,
                                 capture_output=True, text=True)
            if out.returncode:
                raise BenchError(f"reference counts failed: {out.stderr}")
            for (m, p, q), n in zip(todo, out.stdout.split()):
                self.refs[f"{m}\t{self.rel(p)}\t{q}"] = int(n)
            self._save("refs.json", self.refs)
        return [self.refs[k] for k in keys]


def paper_queries():
    rows = []
    with open(os.path.join(WL_DIR, "queries.tsv")) as f:
        next(f)
        for line in f:
            qid, ds, large, small = line.rstrip("\n").split("\t")
            rows.append({"id": qid, "ds": ds, "large": large,
                         "small": None if small == "-" else small})
    return rows


def query_set(name):
    with open(os.path.join(WL_DIR, name + ".txt")) as f:
        return [q for q in f.read().splitlines() if q]


# --- paper_files: jsq over whole files -------------------------------------

def paper_combos(inp):
    """Every (mode, query) jsq invocation with its expected count."""
    large = {ds: inp.generated("large", ds, PAPER_BYTES, 0) for ds in DATASETS}
    small = {ds: inp.generated("small", ds, PAPER_BYTES, 0) for ds in DATASETS}
    combos = []
    for q in paper_queries():
        f = large[q["ds"]]
        combos.append({"mode": "whole", "id": q["id"], "file": f,
                       "args": ["-c", q["large"], f], "job": ("doc", f, q["large"])})
        combos.append({"mode": "chunked", "id": q["id"], "file": f,
                       "args": ["--chunk-bytes", str(CHUNK_BYTES), "-c", q["large"], f],
                       "job": ("doc", f, q["large"])})
        if q["small"]:
            nd = small[q["ds"]]
            combos.append({"mode": "records", "id": q["id"], "file": nd,
                           "args": ["-r", "-c", q["small"], nd],
                           "job": ("records", nd, q["small"])})
    for c, n in zip(combos, inp.counts([c["job"] for c in combos])):
        c["expect"] = n
        c["bytes"] = os.path.getsize(c["file"])
    return combos


class Spawner:
    """posix_spawn + wait4: wall time and peak RSS of one child."""

    def __init__(self):
        self.out = os.path.join(WORK, "jsq.out")
        self.err = os.path.join(WORK, "jsq.err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        self.actions = [(os.POSIX_SPAWN_OPEN, 1, self.out, flags, 0o644),
                        (os.POSIX_SPAWN_OPEN, 2, self.err, flags, 0o644)]

    def run(self, argv):
        t0 = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, os.environ,
                             file_actions=self.actions)
        _, status, ru = os.wait4(pid, 0)
        t1 = time.perf_counter_ns()
        with open(self.out) as f:
            out = f.read()
        return t0, t1, os.waitstatus_to_exitcode(status), ru.ru_maxrss, out


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def merge(self, attempted, failed, errors):
        self.attempted += int(attempted)
        self.failed += int(failed)
        self.errors += list(errors)[: max(0, 5 - len(self.errors))]


def run_combos(combos, seconds, min_rounds, tally, seed, spans=None):
    """Closed loop, one jsq at a time, whole rounds in a seeded order."""
    sp = Spawner()
    jsq = exe("jsq")
    walls = [[] for _ in combos]
    rss = [0 for _ in combos]
    rng = random.Random(seed)
    order = list(range(len(combos)))
    rounds, busy = 0, 0.0
    t_end = time.monotonic() + seconds
    while rounds < min_rounds or time.monotonic() < t_end:
        rng.shuffle(order)
        for i in order:
            c = combos[i]
            t0, t1, code, maxrss, out = sp.run([jsq] + c["args"])
            ok = code == 0 and out.strip() == str(c["expect"])
            tally.add(ok, f"jsq {c['mode']} {c['id']}: exit {code}, "
                          f"output {out.strip()[:40]!r}, expected {c['expect']}")
            walls[i].append((t1 - t0) / 1e9)
            rss[i] = max(rss[i], maxrss)
            busy += (t1 - t0) / 1e9
            if spans is not None:
                spans.append(("cli.jsq", t0, t1, len(spans), -1, i))
        rounds += 1
    return walls, rss, rounds * len(combos) / busy


def paper_setup(tally, reps=21):
    """Wall of `jsq -e` on every Table 5 query: spawn + plan."""
    sp = Spawner()
    qs = ",".join(q["large"] for q in paper_queries())
    walls = []
    for _ in range(reps):
        t0, t1, code, _, out = sp.run([exe("jsq"), "-e", qs])
        tally.add(code == 0 and bool(out), f"jsq -e: exit {code}")
        walls.append((t1 - t0) / 1e9)
    return statistics.median(walls)


def paper_metrics(combos, walls, rss, rate):
    med = [statistics.median(w) for w in walls]
    return {
        "gbps": geomean([c["bytes"] / m / 1e9 for c, m in zip(combos, med)]),
        "p50_ms": geomean(med) * 1e3,
        "p95_ms": geomean([percentile(w, 95) for w in walls]) * 1e3,
        "max_rps": rate,
        "peak_rss_mb": max(r for c, r in zip(combos, rss)
                           if c["mode"] == "chunked") / 1024,
    }


def run_paper_files(inp, seconds, trace, tally, seed, spans):
    combos = paper_combos(inp)
    with on_server_cpus():
        setup = paper_setup(tally)
        run_combos(combos, 0, 1, tally, seed)  # warm the page cache
        if not trace:
            walls, rss, rate = run_combos(combos, seconds, 3, tally, seed)
            m = paper_metrics(combos, walls, rss, rate)
            m["setup_s"] = setup
            return m, {}
        plain = run_combos(combos, seconds / 2, 2, tally, seed)
        traced = run_combos(combos, seconds / 2, 2, tally, seed, spans)
    base = paper_metrics(combos, *plain)["p50_ms"]
    with_trace = paper_metrics(combos, *traced)["p50_ms"]
    return {}, {"trace.overhead_pct": 100 * (with_trace / base - 1),
                "diag.p99_ms": geomean([percentile(w, 99) for w in traced[0]]) * 1e3}


# --- Service workloads ---------------------------------------------------------

class Manifest:
    def __init__(self):
        self.bodies = []
        self.reqs = []

    def body(self, path):
        if path not in self.bodies:
            self.bodies.append(path)
        return self.bodies.index(path)

    def add(self, path, header, expect, frames=False, per_query=None,
            lines=(), label="req"):
        self.reqs.append((self.body(path), frames, expect, per_query, label,
                          header, list(lines)))

    def write(self, path):
        with open(path, "w") as f:
            for b in self.bodies:
                f.write(f"body {b}\n")
            for body, frames, expect, pq, label, header, lines in self.reqs:
                pqs = "-" if pq is None else ",".join(map(str, pq))
                f.write(f"req {body} {int(frames)} {expect} {pqs} {label}\n")
                f.write(f"hdr {header}\n")
                for line in lines:
                    f.write(f"line {line}\n")
        return path


def tiny_body(inp):
    return inp.derived("empty.json", b"{}")


def service_requests(name, inp):
    """(requests, setup requests) of one service workload, unshuffled.

    A request is (body path, header, expected jobs, frames, lines);
    setup sends each distinct query set once on a tiny body."""
    reqs, sets = [], []
    if name == "svc_large":
        for q in paper_queries():
            bodies = [inp.generated("large", q["ds"], LARGE_BODY, 10 + k)
                      for k in range(LARGE_BODIES)]
            for b in bodies:
                reqs.append((b, f"jsq/1 {q['large']} count", [q["large"]], False, []))
            sets.append((f"jsq/1 {q['large']} count", [q["large"]], []))
    elif name == "svc_small":
        for ds in DATASETS:
            qs = [q["small"] for q in paper_queries() if q["ds"] == ds and q["small"]]
            pool = inp.generated("small", ds, SMALL_POOL, 50)
            with open(pool, "rb") as f:
                recs = [r for r in f.read().split(b"\n") if 0 < len(r) <= SMALL_MAX]
            if not recs:
                continue  # GMD records are 20-150 KiB: not small requests
            for i, rec in enumerate(recs[:SMALL_RECORDS]):
                body = inp.derived(f"small-{ds}-{i}.json", rec)
                for q in qs:
                    reqs.append((body, f"jsq/1 {q}", [q], True, []))
            for q in qs:
                sets.append((f"jsq/1 {q}", [q], []))
    elif name == "svc_multi":
        for set_name, ds in MULTI_SETS.items():
            qs = query_set(set_name)
            head = f"jsq/1 {qs[0]} queries={len(qs) - 1}"
            lines = [f"query={q}" for q in qs[1:]]
            for k in range(MULTI_BODIES):
                b = inp.generated("large", ds, MULTI_BODY, 20 + k)
                reqs.append((b, head, qs, True, lines))
            sets.append((head, qs, lines))
    tiny = tiny_body(inp)
    setup = [(tiny, h, qs, False, lines) for h, qs, lines in sets]
    return reqs, setup


def build_manifest(reqs, inp, path, seed=None):
    jobs = [("doc", b, q) for b, _, qs, _, _ in reqs for q in qs]
    counts = iter(inp.counts(jobs))
    m = Manifest()
    for b, header, qs, frames, lines in reqs:
        per = [next(counts) for _ in qs]
        m.add(b, header, sum(per), frames, per if len(qs) > 1 else None, lines)
    if seed is not None:
        random.Random(seed).shuffle(m.reqs)
    return m.write(path)


class Jsqd:
    """A jsqd on the server CPUs; stopped and reaped on exit."""

    def __init__(self):
        server_cpus, _ = cpu_plan()
        self.proc = subprocess.Popen(
            [exe("jsqd")] + JSQD_ARGS, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, server_cpus))
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise BenchError(f"jsqd did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

    def vm_hwm_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for jsqd")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def client(mode, args, timeout):
    _, client_cpus = cpu_plan()
    cmd = [exe("bench_client"), mode, "--cpus", csv(client_cpus)] + args
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if out.returncode:
        raise BenchError(f"bench_client {mode} failed: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def scrape(port):
    out = subprocess.run([exe("bench_client"), "stats", "--port", str(port)],
                         capture_output=True, text=True, timeout=30)
    stats = {}
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and line.startswith("jsonski_server_"):
            stats[parts[0][len("jsonski_server_"):]] = float(parts[1])
    return stats


def load_phases(seconds):
    """Phase lengths in ms: warm-up, fixed rate, capacity, each of the
    client's 5 bisection probes."""
    s = seconds * 1000
    return {"warmup-ms": 0.1 * s, "fixed-ms": 0.3 * s,
            "capacity-ms": 0.1 * s, "probe-ms": 0.1 * s}


def run_service(name, inp, seconds, trace, tally, seed, spans_file):
    cfg = SERVICE[name]
    reqs, setup_reqs = service_requests(name, inp)
    manifest = build_manifest(reqs, inp, os.path.join(WORK, f"{name}.manifest"), seed)
    setup_manifest = build_manifest(setup_reqs, inp,
                                    os.path.join(WORK, f"{name}.setup.manifest"))
    server_cpus, _ = cpu_plan()
    metrics, layer = {}, {}
    timeout = 60 + 2 * seconds
    if not trace:
        st = client("setup", ["--manifest", setup_manifest, "--reps", "9",
                              "--server-cpus", csv(server_cpus), "--", exe("jsqd")]
                    + JSQD_ARGS, timeout)
        tally.merge(st["attempted"], st["failed"], st["errors"])
        metrics["setup_s"] = statistics.median(st["setup_s"])
    with Jsqd() as d:
        common = ["--port", str(d.port), "--manifest", manifest,
                  "--limit-ms", str(cfg["limit_ms"]),
                  "--fixed-rate", str(cfg["rate"])]
        ph = load_phases(seconds)
        if not trace:
            r = client("load", common + [a for k, v in ph.items()
                                         for a in ("--" + k, str(v))], timeout)
        else:
            # Untraced, then traced, at the fixed rate: the overhead base.
            half = (seconds * 1000 - ph["warmup-ms"]) / 2
            r = client("load", common + ["--warmup-ms", str(ph["warmup-ms"]),
                                         "--fixed-ms", str(half)], timeout)
            t = client("load", common + ["--fixed-ms", str(half),
                                         "--trace", spans_file], timeout)
            tally.merge(t["attempted"], t["failed"], t["errors"])
        tally.merge(r["attempted"], r["failed"], r["errors"])
        stats = scrape(d.port)
        hwm_kb = d.vm_hwm_kb()
    misses = sum(r[p]["plan_misses"] for p in ("fixed", "capacity") if p in r)
    if misses:
        tally.add(False, f"{misses} plan-cache misses after warm-up")
    if trace:
        f = t["fixed"]
        layer.update({
            "trace.overhead_pct": 100 * (f["p50_ms"] / r["fixed"]["p50_ms"] - 1),
            "service.plan_hit_ratio": plan_hit_ratio(stats),
            "service.bytes_out_per_req": f["bytes_out"] / max(1, f["attempted"]),
            "loadgen.lateness_p99_us": f["late_p99_ms"] * 1e3,
            "diag.p99_ms": f["p99_ms"],
        })
        return metrics, layer
    metrics.update({
        "gbps": r["fixed"]["bytes_in"] / r["fixed"]["attempted"]
                / r["fixed"]["p50_ms"] / 1e6,
        "p50_ms": r["fixed"]["p50_ms"],
        "p95_ms": r["fixed"]["p95_ms"],
        "max_rps": r["max_rps"],
        "peak_rss_mb": hwm_kb / 1024,
    })
    if r["fixed"]["p99_ms"] > cfg["limit_ms"]:
        log(f"{name}: fixed-rate p99 {r['fixed']['p99_ms']:.3f} ms exceeds "
            f"the {cfg['limit_ms']} ms limit")
    return metrics, layer


# --- Traced per-layer suite ------------------------------------------------

def read_spans(path, source):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        spans = json.load(f)
    for s in spans:
        s["source"] = source
    return spans


def self_times(spans):
    """Per span name: total duration minus the time its children cover."""
    child_ns = {}
    for s in spans:
        if s["parent"] >= 0:
            key = (s["source"], s["parent"])
            child_ns[key] = child_ns.get(key, 0) + s["end_ns"] - s["start_ns"]
    out = {}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child_ns.get((s["source"], s["id"]), 0)
        out[s["name"]] = out.get(s["name"], 0) + max(0, own)
    return out


def plan_hit_ratio(stats):
    hits, misses = stats.get("plan_cache_hits", 0), stats.get("plan_cache_misses", 0)
    return hits / max(1.0, hits + misses)


def probe_leg(inp, combos, all_spans):
    """bench_layers over the paper inputs and the multi sets.

    Returns (metrics, chunked seconds per query); both empty when the
    probe cannot be built or run, so its failure drops only its own
    metrics."""
    plan = os.path.join(WORK, "layers.plan")
    with open(plan, "w") as f:
        for c in combos:
            if c["mode"] in ("chunked", "records"):
                kind = "large" if c["mode"] == "chunked" else "small"
                f.write(f"{kind}\t{c['id']}\t{c['file']}\t{c['expect']}\t{c['args'][-2]}\n")
        for set_name, ds in MULTI_SETS.items():
            bodies = [inp.generated("large", ds, MULTI_BODY, 20 + k)
                      for k in range(MULTI_BODIES)]
            f.write(f"set\t{set_name}\t{','.join(bodies)}\n")
            for q in query_set(set_name):
                f.write(f"setq\t{set_name}\t{q}\n")
    try:
        build(["bench_layers"])
        trace_out = os.path.join(WORK, "layers.trace.json")
        cpu = cpu_plan()[0][:1]
        out = subprocess.run([exe("bench_layers"), plan, trace_out],
                             capture_output=True, text=True, timeout=150,
                             preexec_fn=lambda: os.sched_setaffinity(0, cpu))
        if out.returncode:
            raise BenchError(out.stderr.strip())
        result = json.loads(out.stdout.strip().splitlines()[-1])
        all_spans += read_spans(trace_out, "layers")
        return result["metrics"], result["direct_chunked_s"]
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log(f"layer probe unavailable, its metrics are missing: {e}")
        return {}, {}


def cli_leg(inp, combos, probe, tally, seed):
    """The jsq process around the engine: spawn, input read, RSS."""
    with on_server_cpus():
        sp = Spawner()
        tiny = tiny_body(inp)
        spawn = []
        for _ in range(21):
            t0, t1, code, _, out = sp.run([exe("jsq"), "-c", "$.a", tiny])
            tally.add(code == 0 and out.strip() == "0", "jsq -c $.a on {}")
            spawn.append((t1 - t0) / 1e9)
        walls, rss, _ = run_combos(combos, 0, 3, tally, seed)
    spawn_s = statistics.median(spawn)
    layer = {"cli.spawn_ms": spawn_s * 1e3,
             "cli.whole_rss_mb": max(r for c, r in zip(combos, rss)
                                     if c["mode"] == "whole") / 1024}
    for mode in ("whole", "chunked", "records"):
        layer[f"cli.{mode}_gbps"] = geomean(
            [c["bytes"] / statistics.median(w) / 1e9
             for c, w in zip(combos, walls) if c["mode"] == mode])
    for c, w in zip(combos, walls):
        gbps = probe.get(f"ski.resident_gbps.{c['id']}")
        if c["mode"] == "whole" and gbps:
            resident_s = c["bytes"] / (gbps * 1e9)
            layer[f"cli.input_ms.{c['id']}"] = (
                statistics.median(w) - spawn_s - resident_s) * 1e3
    return layer


def service_leg(inp, combos, tally):
    """The 12 paper (query, file) pairs through a fresh jsqd, 3 times
    each and one at a time, then the doc= request type on 1 MiB bodies.

    Returns (metrics, spans, stats page, seq result)."""
    queries = paper_queries()
    files = {c["id"]: c["file"] for c in combos if c["mode"] == "whole"}
    svc = [(files[q["id"]], f"jsq/1 {q['large']} count", [q["large"]], False, [])
           for q in queries] * 3
    svc_manifest = build_manifest(svc, inp, os.path.join(WORK, "service_leg.manifest"))
    doc_bodies = [inp.generated("large", "TT", DOC_BODY, 30 + k) for k in range(DOC_BODIES)]
    q = queries[0]["large"]
    counts = inp.counts([("doc", b, q) for b in doc_bodies])
    doc = Manifest()
    # The first doc= pass over each body misses the index cache, the
    # next two hit it; the last two passes stream the same bodies.
    for label, doc_flag in (("doc_miss", True), ("doc_hit", True), ("doc_hit", True),
                            ("doc_stream", False), ("doc_stream", False)):
        for k, (b, n) in enumerate(zip(doc_bodies, counts)):
            flag = f" doc=b{k}" if doc_flag else ""
            doc.add(b, f"jsq/1 {q} count{flag}", n, label=label)
    doc_manifest = doc.write(os.path.join(WORK, "doc_leg.manifest"))
    spans_file = os.path.join(WORK, "service_leg.trace.json")
    with Jsqd() as d:
        s = client("seq", ["--port", str(d.port), "--manifest", svc_manifest,
                           "--trace", spans_file], 120)
        tally.merge(s["attempted"], s["failed"], s["errors"])
        stats = scrape(d.port)
        dl = client("seq", ["--port", str(d.port), "--manifest", doc_manifest], 60)
        tally.merge(dl["attempted"], dl["failed"], dl["errors"])
    layer = {f"service.{label}_ms": dl["median_ms"][label]
             for label in ("doc_hit", "doc_miss", "doc_stream")}
    return layer, read_spans(spans_file, "service_leg"), stats, s


def span_median(spans, name, scale):
    d = [s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name]
    return statistics.median(d) / scale


def layer_suite(name, inp, tally, seed, all_spans):
    """Per-layer metrics every traced run reports (README: layer table)."""
    combos = paper_combos(inp)
    probe, direct = probe_leg(inp, combos, all_spans)
    layer = dict(probe)
    layer.update(cli_leg(inp, combos, probe, tally, seed))
    svc, leg, stats, seq = service_leg(inp, combos, tally)
    layer.update(svc)
    all_spans += leg
    if direct:
        queries = paper_queries()
        per_query = {}
        for s in leg:
            if s["name"] == "client.request":
                qid = queries[s["req"] % len(queries)]["id"]
                per_query.setdefault(qid, []).append((s["end_ns"] - s["start_ns"]) / 1e9)
        layer["service.request_over_direct"] = geomean(
            [statistics.median(v) / direct[qid] for qid, v in per_query.items()])
    if name == "paper_files":
        # No service traffic of its own: the service leg stands in.
        layer.update({"service.plan_hit_ratio": plan_hit_ratio(stats),
                      "service.bytes_out_per_req": seq["bytes_out"] / max(1, seq["attempted"]),
                      "loadgen.lateness_p99_us": 0.0})
        service_spans = leg
    else:
        service_spans = [s for s in all_spans if s["source"] == "client"]
    layer.update({"service.connect_us": span_median(service_spans, "client.connect", 1e3),
                  "service.first_byte_us": span_median(service_spans, "client.wait", 1e3),
                  "service.body_send_ms": span_median(service_spans, "client.send", 1e6)})
    return layer


# --- Main ---------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    tally = Tally()
    inp = Inputs(seed)
    runner_spans, all_spans = [], []
    spans_file = os.path.join(WORK, "client.trace.json")
    if os.path.exists(spans_file):
        os.remove(spans_file)
    if name == "paper_files":
        metrics, layer = run_paper_files(inp, seconds, trace, tally, seed, runner_spans)
    else:
        metrics, layer = run_service(name, inp, seconds, trace, tally, seed, spans_file)
    if trace:
        all_spans += [{"name": n, "start_ns": a, "end_ns": b, "id": i,
                       "parent": p, "req": r, "source": "runner"}
                      for n, a, b, i, p, r in runner_spans]
        all_spans += read_spans(spans_file, "client")
        layer.update(layer_suite(name, inp, tally, seed, all_spans))
        with open(os.path.join(WORK, "trace.json"), "w") as f:
            json.dump({"workload": name, "seed": seed, "nproc": os.cpu_count(),
                       "kernel": os.uname().release, "spans": all_spans}, f)
        for span, ns in sorted(self_times(all_spans).items()):
            log(f"{name} self_ms.{span} {ns / 1e6:.3f} ms")
        metrics = layer
    if tally.errors:
        for e in tally.errors:
            log(f"{name}: failed: {e}")
    return metrics, tally


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--workloads", help="comma-separated list (default: all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"])
    ap.add_argument("--pin", action="store_true",
                    help="regenerate workloads/pins.json for the default seed")
    args = ap.parse_args()
    names = [args.workload] if args.workload else (
        args.workloads.split(",") if args.workloads else WORKLOADS)
    for n in names:
        if n not in WORKLOADS:
            ap.error(f"unknown workload {n}")
    trace = args.trace == "1"

    # Nothing in the environment may steer the programs under test.
    for k in [k for k in os.environ if k.startswith("JSONSKI_")]:
        del os.environ[k]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    try:
        build(["jsq", "jsqd", "bench_client", "bench_inputs"])
        if args.pin:
            return pin()
        with open(SPEC) as f:
            spec = json.load(f)
        expected = spec["per_layer" if trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in expected}
        server_cpus, client_cpus = cpu_plan()
        log(f"nproc {os.cpu_count()}, kernel {os.uname().release}, "
            f"jsq/jsqd on cpus {csv(server_cpus)}, client on {csv(client_cpus)}")
        total = Tally()
        result = {}
        for n in names:
            metrics, tally = run_workload(n, args.seed, args.seconds, trace)
            total.merge(tally.attempted, tally.failed, tally.errors)
            for k in sorted(set(units) - set(metrics)):
                log(f"{n}: metric {k} is missing")
            for k in sorted(metrics):
                unit = units.get(k, "?")
                print(f"{n} {k} {metrics[k]:.6g} {unit}")
                key = k if len(names) == 1 else f"{n}.{k}"
                result[key] = {"value": metrics[k], "unit": unit}
            print(f"{n} attempted {tally.attempted} count")
            print(f"{n} failed {tally.failed} count")
    except BenchError as e:
        log(f"benchmark: {e}")
        return 1
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": result}))
    return 0


def pin():
    """Pin digests and reference counts of every default-seed input."""
    if os.path.exists(PINS):
        os.remove(PINS)
    inp = Inputs(DEFAULT_SEED)
    inp.refs = {}
    paper_combos(inp)
    for name in SERVICE:
        reqs, setup = service_requests(name, inp)
        build_manifest(reqs + setup, inp, os.path.join(WORK, "pin.manifest"))
    layer_inputs = [inp.generated("large", "TT", DOC_BODY, 30 + k) for k in range(DOC_BODIES)]
    inp.counts([("doc", b, paper_queries()[0]["large"]) for b in layer_inputs])
    with open(PINS, "w") as f:
        json.dump({"seed": DEFAULT_SEED, "digests": inp.digests, "refs": inp.refs},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"pinned {len(inp.digests)} inputs and {len(inp.refs)} reference counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())

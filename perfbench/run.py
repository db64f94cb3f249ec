#!/usr/bin/env python3
"""Serving benchmark for `olp serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds `olp` and the benchmark's helper
(`perfbench/olpbench.exe`) from source with dune, starts the servers as
separate `olp serve` processes (default flags apart from addresses and
data directories), drives them from one separate load-generator process
with at most two connections, checks every answer, and prints every
metric by name and unit.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.
With --trace 1 the run is split in an untraced and a traced half, and
then the traced half's requests are replayed in-process through the
library layers (`olpbench replay`); the metrics are the per-layer ones.
Everything the run writes stays under `.perfbench-run/` in the checkout.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import layers  # noqa: E402
import workload  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-run")
OLP = os.path.join(ROOT, "_build", "default", "bin", "olp.exe")
HELPER = os.path.join(ROOT, "_build", "default", "perfbench", "olpbench.exe")

# Workload shapes (see BENCHMARK.json for why each was chosen).
COLD_OBJECTS = 300
COLD_MIN_VISITS = 100  # rss_peak_mb is sampled after this many visits
WRITE_OBJECTS = 100
WRITE_CACHED = 75  # objects warmed before the writes; the rest stay cold
PREFILL_PAIRS = 1000  # add/remove pairs in the pre-filled log
WRITE_PAIRS = 5000  # add/remove pairs in the write script, cycled


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} in {ROOT}: run from a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/olp.exe",
         "./perfbench/olpbench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout[-4000:])


# ---------------------------------------------------------------- client


class Client:
    """A blocking line client used for set-up (load, warm-up, stats)."""

    def __init__(self, path, wait=20.0):
        end = time.monotonic() + wait
        while True:
            try:
                self.sock = socket.socket(socket.AF_UNIX)
                self.sock.connect(path)
                break
            except OSError:
                self.sock.close()
                if time.monotonic() > end:
                    fail(f"cannot connect to {path}")
                time.sleep(0.005)
        self.f = self.sock.makefile("rwb")

    def call(self, req):
        line = req if isinstance(req, str) else json.dumps(req)
        self.f.write(line.encode() + b"\n")
        self.f.flush()
        resp = self.f.readline()
        if not resp:
            fail(f"server closed the connection on {line[:80]}")
        return json.loads(resp)

    def ok(self, req):
        r = self.call(req)
        if r.get("status") != "ok":
            fail(f"set-up request failed: {r}")
        return r

    def close(self):
        self.f.close()
        self.sock.close()


class Server:
    def __init__(self, name, args):
        self.sock = f"{name}.sock"
        self.log = open(f"{name}.log", "w")
        self.proc = subprocess.Popen([OLP, "serve", "--socket", self.sock] + args,
                                     stdout=self.log, stderr=subprocess.STDOUT)

    def stop(self):
        if self.proc.poll() is None:
            try:
                c = Client(self.sock, wait=1.0)
                c.call({"op": "shutdown"})
                c.close()
            except (OSError, SystemExit, ValueError):
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


SERVERS = []



def spawn(name, args):
    s = Server(name, args)
    SERVERS.append(s)
    return s


def stop_all():
    while SERVERS:
        SERVERS.pop().stop()


# ------------------------------------------------------------ workloads


def write_script(path, lines):
    with open(path, "w") as f:
        for verb, expect, req in lines:
            f.write(workload.script_line(verb, expect, req) + "\n")


def warm(client, names):
    for obj in names:
        client.ok(workload.request("query", obj=obj, lit="flag(a)"))
        r = client.ok(workload.request("models", obj=obj, kind="stable"))
        if r.get("count") != workload.STABLE_MODELS:
            fail(f"warm-up: {obj} has {r.get('count')} stable models")


class Workload:
    """An in-memory server loaded with the seeded KB; `warm` lists the
    viewpoints queried and enumerated during set-up.  Set-up is repeated
    `setups` times and its median reported, so that one slow spawn does
    not decide setup_s; the last set-up is the one measured."""

    objects = 0
    setups = 3

    def __init__(self, seed):
        self.kb = workload.Kb(seed, self.objects)
        self.warm = []
        with open("kb.olp", "w") as f:
            f.write(self.kb.source())

    def prepare(self):
        pass

    def setup(self):
        srv = spawn("p", [])
        c = Client(srv.sock)
        c.ok({"op": "load", "src": self.kb.source()})
        warm(c, self.warm)
        c.close()
        self.primary = srv


class ColdViews(Workload):
    name = "cold-views"
    objects = COLD_OBJECTS
    setups = 9  # a set-up takes well under 0.1 s, so spawn jitter shows

    def __init__(self, seed):
        super().__init__(seed)
        self.scripts = ["cold.tsv"]
        write_script("cold.tsv", workload.cold_script(self.kb, seed))

    def conns(self):
        return ([f"{self.primary.sock},cold.tsv,once:{3 * COLD_MIN_VISITS}"],
                {"hwm_at": 3 * COLD_MIN_VISITS})


class DurableWrites(Workload):
    name = "durable-writes"
    objects = WRITE_OBJECTS

    def __init__(self, seed):
        super().__init__(seed)
        self.warm, cold = workload.split_cached(self.kb.names(), seed,
                                                WRITE_CACHED)
        self.scripts = ["writes.tsv"]
        write_script("writes.tsv",
                     workload.write_script(self.kb, seed, self.warm, cold,
                                           WRITE_PAIRS))
        # the pre-filled log is written by a throwaway server, so it is
        # exactly the history a primary records; no snapshot is taken,
        # so recovery replays every record
        srv = spawn("prefill", ["--data-dir", "prefilled", "--no-fsync"])
        c = Client(srv.sock)
        c.ok({"op": "load", "src": self.kb.source()})
        for _, _, req in workload.prefill_script(self.kb, seed, PREFILL_PAIRS):
            c.ok(req)
        c.close()
        stop_all()

    def prepare(self):
        for d in ("pd", "rd"):
            shutil.rmtree(d, ignore_errors=True)
        shutil.copytree("prefilled", "pd")

    def setup(self):
        t0 = time.monotonic()
        srv = spawn("p", ["--data-dir", "pd", "--replicate-on", "r.sock"])
        rep = spawn("q", ["--data-dir", "rd", "--replica-of", "r.sock"])
        c = Client(srv.sock)
        warm(c, self.warm)
        seq = c.ok({"op": "stats"})["server"]["persist_seq"]
        c.close()
        rc = Client(rep.sock)
        while True:
            r = rc.ok({"op": "stats"})
            if r.get("replication", {}).get("last_applied", -1) >= seq:
                break
            if time.monotonic() - t0 > 60:
                fail("replica did not catch up")
            time.sleep(0.002)
        rc.close()
        self.primary, self.replica, self.seq = srv, rep, seq

    def conns(self):
        return ([f"{self.primary.sock},writes.tsv,cycle",
                 f"{self.replica.sock},-,poll"],
                {"base_seq": self.seq})


WORKLOADS = {w.name: w for w in (ColdViews, DurableWrites)}


# ---------------------------------------------------------------- runs


def helper(args):
    r = subprocess.run([HELPER] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        fail(f"olpbench {args[0]} failed:\n{r.stdout[-4000:]}")


def load(w, seconds, out, trace=None):
    conns, extra = w.conns()
    args = ["load", "--seconds", str(seconds), "--out", out,
            "--hwm", f"{w.primary.proc.pid}:{extra.get('hwm_at', 0)}"]
    for c in conns:
        args += ["--conn", c]
    if "base_seq" in extra:
        args += ["--base-seq", str(extra["base_seq"])]
    if trace:
        args += ["--trace", trace]
    helper(args)
    with open(out) as f:
        return json.load(f)


def pct(xs, q):
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(round(q / 100 * len(s))) - 1))]


def summarize(res):
    """End-to-end figures from one load-generator result."""
    m = {}
    attempted = failed = 0
    for verb, v in res["verbs"].items():
        attempted += v["attempted"]
        failed += v["failed"]
        lat = v["lat_us"]
        if lat:
            for q in (50, 90, 95):
                m[f"{verb}_p{q}_us"] = pct(lat, q)
            m[f"{verb}_n"] = len(lat)
    vis = res["visible_ms"]
    if vis:
        for q in (50, 90, 95):
            m[f"replica_visible_p{q}_ms"] = pct(vis, q)
        m["replica_visible_n"] = len(vis)
    # every rate over its own connection's elapsed time
    m["ops_per_s"] = sum(c["ops"] / c["elapsed_s"] for c in res["conns"]
                         if c["elapsed_s"] > 0)
    m["rss_peak_mb"] = res["hwm_kb"] / 1024
    m["client_busy_ratio"] = res["cpu_s"] / res["wall_s"]
    m["failed_ratio"] = failed / max(1, attempted)
    errors = [e for v in res["verbs"].values() for e in v["errors"]]
    return m, attempted, failed, errors


UNITS = {"s": "s", "us": "us", "ms": "ms", "mb": "MB"}


def unit_of(name):
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_n"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return UNITS.get(name.rsplit("_", 1)[-1], "count")


def declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[key]]


def setup_all(w, times):
    for k in range(times):
        if k:
            stop_all()
        w.prepare()
        t0 = time.monotonic()
        w.setup()
        yield time.monotonic() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.chdir(WORK)
    try:
        w = WORKLOADS[a.workload](a.seed)
        if a.trace:
            list(setup_all(w, 1))
            result = traced(w, a)
        else:
            setups = list(setup_all(w, w.setups))
            res = load(w, a.seconds, "load.json")
            stop_all()
            m, attempted, failed, errors = summarize(res)
            m["setup_s"] = statistics.median(setups)
            result = report(m, attempted, failed, errors, "end_to_end")
    finally:
        stop_all()
    print(json.dumps(result))


def report(m, attempted, failed, errors, key):
    """Print every figure by name and unit; return the JSON result with
    the metrics BENCHMARK.json declares under [key]."""
    units = dict(declared("end_to_end") + declared("per_layer"))
    for name in sorted(m):
        print(f"{name:36s} {m[name]:16.4f} {units.get(name, unit_of(name))}")
    for e in errors[:10]:
        print(f"error: {e}")
    metrics = {}
    for name, unit in declared(key):
        if name not in m:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": m[name], "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(w, a):
    # both halves send the same script from its start, each on a fresh
    # set-up, so traced and untraced figures cover the same requests
    half = a.seconds / 2
    plain = load(w, half, "untraced.json")
    stop_all()
    list(setup_all(w, 1))
    tr = load(w, half, "traced.json", trace="client-spans.jsonl")
    stop_all()
    sent = tr["conns"][0]["ops"]
    if sent == 0:
        fail("the traced half sent no requests")
    args = ["replay", "--kb", "kb.olp", "--script", w.scripts[0],
            "--count", str(sent),
            "--seconds", str(half), "--probe", "probe.tsv",
            "--spans", "spans.jsonl", "--out", "replay.json"]
    shutil.rmtree("replay-pd", ignore_errors=True)
    if isinstance(w, DurableWrites):
        shutil.copytree("prefilled", "replay-pd")
    else:
        os.makedirs("replay-pd")
    args += ["--data-dir", "replay-pd"]
    with open("warm.txt", "w") as f:
        f.write("\n".join(w.warm) + "\n")
    args += ["--warm", "warm.txt"]
    write_script("probe.tsv", workload.probe_script(w.kb, a.seed))
    helper(args)
    m, attempted, failed, errors = layers.per_layer(
        plain, tr, "replay.json", "spans.jsonl", summarize)
    print(f"spans: {os.path.join(WORK, 'spans.jsonl')} "
          f"(client spans: {os.path.join(WORK, 'client-spans.jsonl')})")
    return report(m, attempted, failed, errors, "per_layer")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
fails unless each run names every declared metric with its declared
unit, checks every answer (failed == 0, so failed_ratio is 0), and
prints the verb metrics of the verbs the workload sends.  Then copies
only BENCHMARK.json and the benchmark's files into an empty directory
and checks that the benchmark refuses to run there: non-zero exit and no
result line.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# verb metrics each workload must print (beside setup_s, ops_per_s,
# rss_peak_mb and failed_ratio, which every workload prints)
VERB_METRICS = {
    "cold-views": ["query", "models", "prefer"],
    "durable-writes": ["query", "models", "write", "replica_visible"],
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def check_run(bench, workload, trace):
    r = run(["--workload", workload, "--seed", "7", "--seconds", "2",
             "--trace", str(trace)])
    where = f"{workload} --trace {trace}"
    if r.returncode != 0:
        return [f"{where}: exit {r.returncode}: {r.stderr[-2000:]}"]
    lines = r.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        problems.append(f"{where}: {res['failed']} of {res['attempted']} "
                        f"failed:\n{r.stdout[-2000:]}")
    key = "per_layer" if trace else "end_to_end"
    for m in bench[key]:
        got = res["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{where}: metric {m['name']} missing")
        elif got["unit"] != m["unit"] or not isinstance(got["value"],
                                                        (int, float)):
            problems.append(f"{where}: metric {m['name']} reads {got}")
    if not trace:
        printed = {ln.split()[0] for ln in lines[:-1] if ln.strip()}
        want = ["setup_s", "ops_per_s", "rss_peak_mb", "failed_ratio"]
        for v in VERB_METRICS[workload]:
            want += [f"{v}_p50_{'ms' if v == 'replica_visible' else 'us'}",
                     f"{v}_p90_{'ms' if v == 'replica_visible' else 'us'}"]
        problems += [f"{where}: {w} not printed" for w in want
                     if w not in printed]
    return problems


def check_bare_directory(workload):
    bare = os.path.join(ROOT, ".perfbench-run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare)
        if r.returncode == 0 or '"metrics"' in r.stdout:
            return [f"bare directory: exit {r.returncode}, output {r.stdout!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems += check_run(bench, w["name"], trace)
            print(f"checked {w['name']} --trace {trace}", flush=True)
    problems += check_bare_directory(bench["workloads"][0]["name"])
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

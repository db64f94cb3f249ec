"""Per-layer figures of a traced run, from the replay's span file.

A span is {"id", "name", "start", "end", "parent", "req"}; a layer's
self time is its spans' durations minus the part their child spans
cover.  See replay.ml for which library call each span wraps.
"""

import json
import statistics

# span name prefix -> layer, longest prefix first
LAYERS = ["server.wire", "server.engine", "kb.session", "kb.store", "ground",
          "core.vfix", "core.stable", "solve", "prefer", "inc", "persist",
          "replica"]

SPAN_MEDIANS = [
    "server.wire.decode", "server.wire.encode", "server.engine.query",
    "server.engine.models", "server.engine.prefer", "server.engine.write",
    "kb.session.lookup", "kb.session.write", "kb.store.to_program",
    "kb.store.copy", "ground.gop", "core.vfix.lfp", "core.stable.search",
    "solve.flat.compile", "solve.kernel.search", "prefer.compile",
    "prefer.search", "inc.reground", "inc.repair", "persist.append",
    "persist.wait_durable", "persist.recover", "replica.pull",
    "replica.apply"]

SAMPLE_MEDIANS = [
    "server.wire.response_bytes", "ground.atoms", "ground.rules",
    "core.stable.nodes", "solve.kernel.nodes", "solve.kernel.conflicts",
    "persist.bytes_per_write", "replica.records_per_pull"]

SCALARS = ["kb.session.hit_ratio", "kb.session.kept_ratio",
           "inc.fallback_ratio", "gc.minor_words_per_op",
           "gc.major_collections"]

VERBS = ["query", "models", "prefer", "write"]


def layer_of(name):
    for layer in LAYERS:
        if name.startswith(layer + ".") or name == layer:
            return layer
    return "harness"


def per_layer(plain, traced, replay_path, spans_path, summarize):
    with open(replay_path) as f:
        rep = json.load(f)
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    p, p_att, p_fail, p_err = summarize(plain)
    t, t_att, t_fail, t_err = summarize(traced)
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + dur[s["id"]]
    by_name = {}
    self_ms = {layer: 0.0 for layer in LAYERS + ["harness"]}
    for s in spans:
        by_name.setdefault(s["name"], []).append(dur[s["id"]] * 1e6)
        self_ms[layer_of(s["name"])] += (dur[s["id"]] - child.get(s["id"], 0.0)) * 1e3

    m = {}
    for name in SPAN_MEDIANS:
        if name in by_name:
            m[name + "_us"] = statistics.median(by_name[name])
    for name in SAMPLE_MEDIANS + [f"trace.residual_{v}_us" for v in VERBS]:
        if rep.get(name):
            m[name] = statistics.median(rep[name])
    for name in SCALARS:
        m[name] = rep[name]
    for layer, ms in self_ms.items():
        m[f"self.{layer}_ms"] = ms

    # transport: untraced end-to-end median minus the traced
    # decode + handle + encode of the same verb
    in_process = {}
    by_id = {s["id"]: s for s in spans}
    kids = {}
    for s in spans:
        if s["parent"] is not None and by_id[s["parent"]]["name"] == "request":
            kids.setdefault(s["parent"], []).append(s)
    for ks in kids.values():
        verb = next((k["name"].split(".")[-1] for k in ks
                     if k["name"].startswith("server.engine.")), None)
        if verb:
            in_process.setdefault(verb, []).append(
                sum(dur[k["id"]] for k in ks) * 1e6)
    for v in ("query", "models"):
        if f"{v}_p50_us" in p and v in in_process:
            m[f"server.daemon.transport_{v}_us"] = (
                p[f"{v}_p50_us"] - statistics.median(in_process[v]))
    m["client.busy_ratio"] = t["client_busy_ratio"]
    # tracing overhead over the same script range: both halves start the
    # script from its beginning, so compare their common prefix
    p_lat, t_lat = ([] if "query" not in r["verbs"]
                    else r["verbs"]["query"]["lat_us"]
                    for r in (plain, traced))
    k = min(len(p_lat), len(t_lat))
    if k == 0:
        raise SystemExit("perfbench: a half sent no query, so the tracing "
                         "overhead cannot be measured")
    m["trace.overhead_ratio"] = (statistics.median(t_lat[:k])
                                 / statistics.median(p_lat[:k]))

    attempted = p_att + t_att + rep["attempted"]
    failed = p_fail + t_fail + rep["failed"]
    return m, attempted, failed, p_err + t_err + rep["errors"]

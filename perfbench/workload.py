"""Seeded knowledge bases and request scripts for the olp serve benchmark.

The KB follows the object reading of the paper's Section 5: a `cwa`
object of default negative facts, a `base` object below it with shared
defaults, and objects `o<i>` below `base`, each a viewpoint with its own
exceptions.  Every expected answer is known by construction:

* `c<i>_<L>` (the end of o<i>'s private derivation chain) is true;
* `flag(a)` is false where o<i> asserts its mark (the exception fires),
  true elsewhere;
* `hot(b)` is undefined in the least model (the named default `d` and
  exception `nd` in `base` defeat each other) and false when queried
  with `"prefer":"compiled"` (the KB declares `prefer nd > d`);
* four even negative loops give 2^4 = 16 stable models;
* `w` is false by the `cwa` default unless a written rule `w :- ...` on
  the viewpoint (or above it) overrules it.
"""

import json
import random

LOOPS = 4
STABLE_MODELS = 2 ** LOOPS
MARKS = 8


def chain_end(i, length):
    return f"c{i}_{length}"


class Kb:
    """A generated KB: `objects` maps name -> (chain length, marked)."""

    def __init__(self, seed, n_objects):
        rng = random.Random(f"kb-{seed}-{n_objects}")
        self.objects = {}
        for i in range(n_objects):
            length = rng.randint(40, 60)
            marked = rng.random() < 0.5
            self.objects[f"o{i}"] = (length, marked)

    def names(self):
        return list(self.objects)

    def source(self):
        out = ["component cwa {"]
        out += [f"  -mark{j}." for j in range(MARKS)]
        out += [f"  -p{k}. -q{k}." for k in range(LOOPS)]
        out += ["  -cold(a).", "  -w.", "}"]
        out.append("component base extends cwa {")
        out += ["  item(a). item(b). cold(b).", "  flag(X) :- item(X)."]
        out += [f"  p{k} :- -q{k}. q{k} :- -p{k}." for k in range(LOOPS)]
        out += ["  d : hot(X) :- item(X).",
                "  nd : -hot(X) :- item(X), cold(X).", "}"]
        for i, (name, (length, marked)) in enumerate(self.objects.items()):
            j = i % MARKS
            out.append(f"component {name} extends base {{")
            out.append(f"  -flag(X) :- item(X), mark{j}.")
            if marked:
                out.append(f"  mark{j}.")
            out.append(f"  c{i}_0.")
            out += [f"  c{i}_{k} :- c{i}_{k - 1}." for k in range(1, length + 1)]
            out.append("}")
        out.append("prefer nd > d.")
        return "\n".join(out) + "\n"

    def index(self, name):
        return int(name[1:])

    def read_lits(self, name):
        """(literal, expected plain value, expected preferred value)."""
        i = self.index(name)
        length, marked = self.objects[name]
        flag = "false" if marked else "true"
        return [(chain_end(i, length), "true", "true"),
                ("flag(a)", flag, flag),
                ("hot(b)", "undefined", "false")]


def request(op, **fields):
    return json.dumps(dict(op=op, **fields), separators=(",", ":"))


def query_line(kb, obj, rng, prefer=False):
    lit, plain, preferred = rng.choice(kb.read_lits(obj))
    if prefer:
        return ("prefer", {"value": preferred},
                request("query", obj=obj, lit=lit, prefer="compiled"))
    return ("query", {"value": plain}, request("query", obj=obj, lit=lit))


def models_line(obj, w=None):
    expect = {"count": STABLE_MODELS}
    if w is not None:
        expect["every"] = "w" if w else "-w"
    return ("models", expect, request("models", obj=obj, kind="stable"))


def write_rule(kb, obj):
    i = kb.index(obj)
    length, _ = kb.objects[obj]
    return f"w :- {chain_end(i, length)}."


def script_line(verb, expect, req):
    return f"{verb}\t{json.dumps(expect, separators=(',', ':'))}\t{req}"


def cold_script(kb, seed):
    """Each viewpoint once, in seeded order: query, models, preferred
    query."""
    rng = random.Random(f"cold-{seed}")
    names = kb.names()
    rng.shuffle(names)
    out = []
    for obj in names:
        out.append(query_line(kb, obj, rng))
        out.append(models_line(obj))
        out.append(query_line(kb, obj, rng, prefer=True))
    return out


def split_cached(names, seed, k):
    rng = random.Random(f"split-{seed}")
    names = list(names)
    rng.shuffle(names)
    return names[:k], names[k:]


def write_script(kb, seed, cached, cold, pairs, reads="mixed"):
    """Add/remove pairs of `w :- <chain end>.`, each write followed by a
    read-after-write.  Three quarters land on a cached viewpoint and are
    read back there (w is true after the add, false after the remove);
    one quarter land on an object no cached view sees, and a cached
    viewpoint is read instead (w stays false)."""
    rng = random.Random(f"writes-{seed}-{len(cached)}-{len(cold)}")
    out = []
    for _ in range(pairs):
        if rng.random() < 0.75:
            target = reader = rng.choice(cached)
        else:
            target, reader = rng.choice(cold), rng.choice(cached)
        rule = write_rule(kb, target)
        for add in (True, False):
            if add:
                out.append(("write", {}, request("add_rule", obj=target,
                                                 rule=rule)))
            else:
                out.append(("write", {"removed": True},
                            request("remove_rule", obj=target, rule=rule)))
            w = add and target == reader
            if rng.random() < 0.7 or reads == "query":
                out.append(("query", {"value": "true" if w else "false"},
                            request("query", obj=reader, lit="w")))
            else:
                out.append(models_line(reader, w))
    return out


def prefill_script(kb, seed, pairs):
    """The pre-filled log: add/remove pairs that leave the KB unchanged."""
    rng = random.Random(f"prefill-{seed}")
    names = kb.names()
    out = []
    for _ in range(pairs):
        obj = rng.choice(names)
        rule = write_rule(kb, obj)
        out.append(("write", {}, request("add_rule", obj=obj, rule=rule)))
        out.append(("write", {"removed": True},
                    request("remove_rule", obj=obj, rule=rule)))
    return out


def probe_script(kb, seed):
    """Writes and preferred queries the traced replay runs on workloads
    that never send them, so every layer is measured on every workload:
    eight add/remove pairs on four objects (reads are queries, so the
    repaired least model is exercised) and three preferred queries."""
    names = kb.names()
    out = write_script(kb, seed, names[:4], names[4:8], 8, reads="query")
    rng = random.Random(f"probe-{seed}")
    out += [query_line(kb, obj, rng, prefer=True) for obj in names[:3]]
    return out

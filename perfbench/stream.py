"""The seeded `qc` query stream and the checks on its outputs.

Inputs are generated here with stdlib code only, so no change to the
library can alter the workload.  Word classes are walked on Z with
permutations stored as dicts (identity or base matching off the dict):

- reduced words of permutations on [1, 5],
- involution words of involutions on [1, 7],
- fpf-involution words of fpf involutions on [1, 8],

each of length at most 8, with n in {3, 4} factors.

Carrier cost grows steeply with length and varies several-fold inside
one (flavor, length) stratum, so queries that build a carrier pick their
target by stratified, low-discrepancy sampling: each stratum's targets
are sorted by carrier size, and its k-th use in a run takes the quantile
frac(u + k * PHI) for a seeded offset u.  Any run then covers every
stratum's size range evenly, which keeps run-to-run totals and tails
steady while the seed still changes every input.
"""

from __future__ import annotations

import json
import random
from math import comb

MAX_LEN = 8
NS = (3, 4)
WINDOW = {"reduced": 5, "involution": 7, "fpf": 8}
CLI_FLAVOR = {"reduced": "eg", "involution": "oeg", "fpf": "speg"}
RELATION = {"reduced": "K", "involution": "O", "fpf": "Sp"}
FLAVORS = ("reduced", "involution", "fpf")
PHI = 0.6180339887498949


# ---------------------------------------------------------------------------
# Word classes on Z

def _base(i, flavor):
    if flavor == "fpf":
        return i + 1 if i % 2 else i - 1
    return i


def _img(z, i, flavor):
    return z.get(i, _base(i, flavor))


def _step(z, a, flavor):
    """The target after appending letter a, or None when a is a descent."""
    za, zb = _img(z, a, flavor), _img(z, a + 1, flavor)
    if za > zb:
        return None
    new = dict(z)
    if flavor == "reduced" or (flavor == "involution" and za == a and zb == a + 1):
        new[a], new[a + 1] = zb, za
        return new
    swap = {a: a + 1, a + 1: a}
    for x in {a, a + 1, za, zb}:
        y = _img(z, swap.get(x, x), flavor)
        new[x] = swap.get(y, y)
    return new


def _key(z, flavor):
    return frozenset((i, v) for i, v in z.items() if v != _base(i, flavor))


def target(word, flavor):
    """The canonical target of a word of the class, or None."""
    z = {}
    for a in word:
        z = _step(z, a, flavor)
        if z is None:
            return None
    return _key(z, flavor)


def cycles_text(key, flavor):
    """CLI cycle notation for a target; fpf targets list the whole window."""
    z = dict(key)
    if flavor == "fpf":
        pairs = sorted({tuple(sorted((i, _img(z, i, flavor))))
                        for i in range(1, WINDOW["fpf"] + 1)})
        return "".join(f"({a},{b})" for a, b in pairs)
    seen, out = set(), []
    for i in sorted(z):
        if i in seen:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = z[j]
        out.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(out) or "1"


def descents(w):
    return tuple(i for i in range(len(w) - 1) if w[i] > w[i + 1])


def carrier_size(words, n):
    """Vertices of the n-fold factorization carrier of a word class.

    A word with d descents cuts into n strictly increasing factors in
    C(len + n-1-d, n-1-d) ways: one cut at each descent, and the other
    n-1-d cuts anywhere, repeats allowed.
    """
    total = 0
    for w in words:
        free = n - 1 - len(descents(w))
        if free >= 0:
            total += comb(len(w) + free, free)
    return total


def populations():
    """{(flavor, length): [(key, words)]} for every target on its window."""
    out = {}
    for flavor in FLAVORS:
        layer = {frozenset(): ({}, [()])}
        for length in range(1, MAX_LEN + 1):
            nxt = {}
            for z, words in layer.values():
                for a in range(1, WINDOW[flavor]):
                    z2 = _step(z, a, flavor)
                    if z2 is not None:
                        entry = nxt.setdefault(_key(z2, flavor), (z2, []))
                        entry[1].extend(w + (a,) for w in words)
            layer = nxt
            out[flavor, length] = sorted(
                ((key, words) for key, (_, words) in nxt.items()),
                key=lambda kw: sorted(kw[0]))
    return out


def random_word(rng, flavor, length, max_descents=None):
    """A walk through the class, each letter drawn among the ascents of the
    prefix's target; redrawn until it has at most max_descents descents."""
    while True:
        z, w = {}, []
        for _ in range(length):
            a = rng.choice([a for a in range(1, WINDOW[flavor])
                            if _img(z, a, flavor) < _img(z, a + 1, flavor)])
            z = _step(z, a, flavor)
            w.append(a)
        if max_descents is None or len(descents(w)) <= max_descents:
            return tuple(w)


def factorization_text(w, n, rng):
    """Cut w at its descents, then add cuts at random until there are n
    strictly increasing factors (some possibly empty)."""
    cuts = [i + 1 for i in descents(w)]
    while len(cuts) < n - 1:
        cuts.append(rng.randint(0, len(w)))
    cuts.sort()
    bounds = [0] + cuts + [len(w)]
    return "".join("(" + "".join(map(str, w[a:b])) + ")"
                   for a, b in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# Stream

class _Sampler:
    """Stratified low-discrepancy choice of carrier targets."""

    def __init__(self, rng):
        self.rng = rng
        self.pops = populations()
        self.strata = {}

    def pick(self, flavor, length, n, min_size=0):
        """(key, carrier size) for the next use of the stratum."""
        stratum = (flavor, length, n, min_size)
        if stratum not in self.strata:
            cands = sorted(
                (size, sorted(key), key)
                for key, words in self.pops[flavor, length]
                if (size := carrier_size(words, n)) >= min_size)
            self.strata[stratum] = [cands, self.rng.random(), 0]
        entry = self.strata[stratum]
        cands, u, k = entry
        entry[2] += 1
        size, _, key = cands[int((u + k * PHI) % 1.0 * len(cands))]
        return key, size


def _crystals(s, flavor, length, n):
    key, size = s.pick(flavor, length, n)
    base = ["crystal", cycles_text(key, flavor), "--flavor", CLI_FLAVOR[flavor],
            "--n", str(n)]
    meta = dict(n=n, length=length, size=size)
    return [dict(argv=base, kind="crystal-dot", **meta),
            dict(argv=base + ["--json"], kind="crystal-json", **meta)]


def _cap(s, flavor, length, n, as_json):
    key, size = s.pick(flavor, length, n, min_size=2)
    argv = ["crystal", cycles_text(key, flavor), "--flavor", CLI_FLAVOR[flavor],
            "--n", str(n), "--cap", str(s.rng.randint(1, size - 1))]
    if as_json:
        argv.append("--json")
    return [dict(argv=argv, kind="cap", length=length)]


def _expand(s, flavor, length, n):
    key, _ = s.pick(flavor, length, n, min_size=1)
    argv = ["expand", cycles_text(key, flavor), "--flavor", flavor, "--n", str(n)]
    return [dict(argv=argv, kind="expand", length=length)]


def _insert(rng, flavor, length, as_json):
    if flavor == "hm":
        w = tuple(rng.randint(1, 7) for _ in range(length))
        argv = ["insert", "".join(map(str, w)), "--flavor", "hm"]
    else:
        n = rng.choice(NS)
        w = random_word(rng, flavor, length, max_descents=n - 1)
        argv = ["insert", factorization_text(w, n, rng),
                "--flavor", CLI_FLAVOR[flavor]]
    if as_json:
        argv.append("--json")
    return [dict(argv=argv, kind="insert-json" if as_json else "insert-text",
                 length=length)]


def _bump(rng, flavor, length):
    while True:
        w = random_word(rng, flavor, length)
        dels = [target(w[:i] + w[i + 1:], flavor) for i in range(len(w))]
        marks = [i for i, t in enumerate(dels)
                 if t is not None and dels.count(t) == 1]
        if marks:
            break
    pi = dels[rng.choice(marks)]
    argv = ["bump", "".join(map(str, w)), cycles_text(pi, flavor),
            "--flavor", flavor]
    return [dict(argv=argv, kind="bump", length=length, word=list(w),
                 flavor=flavor)]


def _class(rng, flavor, length):
    w = random_word(rng, flavor, length)
    argv = ["class", "".join(map(str, w)), "--relation", RELATION[flavor]]
    return [dict(argv=argv, kind="class", length=length, word=list(w),
                 flavor=flavor)]


def _cycle(s, c):
    """One cycle of the mix, as units in a seeded order.

    No record of how `qc` is used exists, so the mix is a coverage choice,
    not a guess at traffic: each command runs once per combination of its
    options and of the input length, the axis its cost grows with.  Other
    input properties (the target, the number of factors of an insert) are
    drawn from the seed.

      crystal  flavor x length 1-8 x n, DOT and --json on one carrier   96
      expand   flavor x length 1-8 x n                                  48
      insert   eg/oeg/speg/hm x length 1-8 x (text, --json)             64
      bump     flavor x length 2-8 (a bump needs two letters)           21
      class    relation x length 1-8                                    24
      capped   flavor x n x (DOT, --json), length cycling over cycles   12

    The capped crystal is the refusal path, which the workload keeps to a
    small share; its length steps through 1-8 from cycle to cycle.
    """
    rng = s.rng
    lengths = range(1, MAX_LEN + 1)
    units = [_crystals(s, f, length, n)
             for f in FLAVORS for length in lengths for n in NS]
    units += [_expand(s, f, length, n)
              for f in FLAVORS for length in lengths for n in NS]
    units += [_insert(rng, f, length, as_json)
              for f in ("reduced", "involution", "fpf", "hm")
              for length in lengths for as_json in (False, True)]
    units += [_bump(rng, f, length) for f in FLAVORS for length in lengths[1:]]
    units += [_class(rng, f, length) for f in FLAVORS for length in lengths]
    combos = [(f, n, as_json) for f in FLAVORS for n in NS
              for as_json in (False, True)]
    units += [_cap(s, f, 1 + (c + k) % MAX_LEN, n, as_json)
              for k, (f, n, as_json) in enumerate(combos)]
    rng.shuffle(units)
    return [q for unit in units for q in unit]


def generate(seed, reps):
    """The queries of a run: one cycle for each of reps repetitions.

    The samplers continue across cycles, so a longer run extends a shorter
    one with the same seed.
    """
    s = _Sampler(random.Random(seed))
    return [_cycle(s, c) for c in range(reps)]


# ---------------------------------------------------------------------------
# Output checks

def _dot_components(text):
    """[vertices, edges] of each digraph block of a DOT output."""
    comps = []
    for line in text.splitlines():
        if line.startswith("digraph "):
            comps.append([0, 0])
        elif " -> " in line:
            comps[-1][1] += 1
        elif line.startswith("  v"):
            comps[-1][0] += 1
    return comps


def _json_components(data):
    """[vertices, edges] of each weakly connected component."""
    parent = list(range(len(data["vertices"])))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, _, y in data["edges"]:
        parent[find(x)] = find(y)
    comps = {}
    for v in range(len(parent)):
        comps.setdefault(find(v), [0, 0])[0] += 1
    for x, _, _ in data["edges"]:
        comps[find(x)][1] += 1
    return sorted(comps.values())


def check(query, code, out, dot=None):
    """Whether one query's exit code and stdout satisfy its invariants.

    dot is the stdout of the DOT query for the same carrier; a crystal-json
    output is checked against it and against the carrier size counted here.
    """
    kind = query["kind"]
    if kind == "cap":
        return code == 3 and out == ""
    if code != 0:
        return False
    if kind == "crystal-dot":
        return out.endswith("\n")
    if kind == "insert-text":
        lines = out.splitlines()
        trace = lines[-1].split()
        return (lines[0] == "P:" and "Q:" in lines and trace[0] == "trace:"
                and len(trace) == 1 + query["length"])
    data = json.loads(out)
    if kind == "crystal-json":
        comps = _json_components(data)
        return (len(data["vertices"]) == query["size"]
                == sum(c[0] for c in comps)
                and len(data["weights"]) == query["size"]
                and all(len(wt) == query["n"] and sum(wt) == query["length"]
                        for wt in data["weights"])
                and dot is not None and comps == sorted(_dot_components(dot)))
    if kind == "insert-json":
        return (data["P"]["shape"] == data["Q"]["shape"]
                and sum(data["P"]["shape"]) == query["length"]
                == len(data["trace"]))
    if kind == "bump":
        w, v = tuple(query["word"]), tuple(data["result"])
        return (data["word"] == query["word"] and len(v) == len(w)
                and descents(v) == descents(w)
                and target(v, query["flavor"]) is not None)
    if kind == "class":
        want = target(query["word"], query["flavor"])
        return query["word"] in data and all(
            target(v, query["flavor"]) == want for v in data)
    if kind == "expand":
        coeffs = data["coefficients"]
        return bool(coeffs) and all(
            type(c) is int and c > 0
            and sum(map(int, shape.split(","))) == query["length"]
            for shape, c in coeffs.items())
    return False

"""Runtime tracer for the library's layers.

Wraps library functions in a running process: each listed function's
defining-module attribute, every other module binding of the same object
(`from X import f` copies the reference), and module-level dicts holding
it (dispatch tables such as `insertion._INSERTERS`).  A span records a
call's name, start, end and parent span; spans are folded into per-(name,
parent) totals when they close, because a bump run opens millions of them.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time

PKG = "queercrystals"

# span name -> the functions it covers, as "module.attribute[.attribute]"
SPANS = {
    "permwords.word_to_permutation": ["permwords.word_to_permutation"],
    # factorization_crystal reaches the enumerators without enumerate_words,
    # so the word-enumeration layer covers all four entry points.
    "permwords.enumerate_words": [
        "permwords.enumerate_words", "permwords.reduced_words",
        "permwords.involution_words", "permwords.fpf_involution_words"],
    "permwords.equivalence_class": ["permwords.equivalence_class"],
    "bumping.bump": ["bumping.bump"],
    "bumping.decompose_bump": ["bumping.decompose_bump"],
    "bumping.bump_factorization": ["bumping.bump_factorization"],
    "insertion.split_word": ["insertion.split_word"],
    "insertion.insert": ["insertion.insert"],
    "insertion.eg_insert": ["insertion.eg_insert"],
    "insertion.oeg_insert": ["insertion.oeg_insert"],
    "insertion.speg_insert": ["insertion.speg_insert"],
    "insertion.hm_insert": ["insertion.hm_insert"],
    "crystals.factorization_crystal": ["crystals.factorization_crystal"],
    "crystals.fac_ops": [
        "crystals.fac_f", "crystals.fac_e", "crystals.fac_fq_o",
        "crystals.fac_eq_o", "crystals.fac_fq_sp", "crystals.fac_eq_sp"],
    "crystals.shtab_ops": [
        "crystals.shtab_f", "crystals.shtab_e", "crystals.shtab_fqbar",
        "crystals.shtab_eqbar"],
    "crystals.word_ops": [
        "crystals.word_f", "crystals.word_e", "crystals.word_fqbar",
        "crystals.word_eqbar"],
    "crystals.axioms_report": ["crystals.axioms_report"],
    "crystals.is_quasi_isomorphism": ["crystals.is_quasi_isomorphism"],
    "crystals.Crystal.components": ["crystals.Crystal.components"],
    "crystals.Crystal.to_dot": ["crystals.Crystal.to_dot"],
    "crystals.Crystal.to_json": ["crystals.Crystal.to_json"],
    "tableaux.dual_equiv": ["tableaux.dual_equiv"],
    "tableaux.semistandard_shifted_tableaux": [
        "tableaux.semistandard_shifted_tableaux"],
    "tableaux.standard_shifted_tableaux": ["tableaux.standard_shifted_tableaux"],
    "symchar.character": ["symchar.character"],
    "symchar.expand": ["symchar.expand"],
    "cli.main": ["cli.main"],
}

# count name -> function counted without a span
COUNTS = {
    "permwords.Permutation.init": "permwords.Permutation.__init__",
    "permwords.FpfInvolution.init": "permwords.FpfInvolution.__init__",
    "bumping.bump_chain": "bumping.bump_chain",
}

# cached function -> metric suffixes, read from cache_info()
CACHES = {
    "permwords.involution_target": ("hit_ratio",),
    "permwords.fpf_target": ("hit_ratio",),
    "tableaux.semistandard_shifted_tableaux": ("hit_ratio",),
    "symchar.schurp_poly": ("hit_ratio",),
    "verify._p_tableau": ("hit_ratio", "entries"),
    "verify._q_tableau": ("hit_ratio", "entries"),
}
WORD_CACHES = ("_reduced_cache", "_involution_cache", "_fpf_cache")


def _resolve(path):
    mod, *attrs = path.split(".")
    owner = sys.modules[f"{PKG}.{mod}"]
    for a in attrs[:-1]:
        owner = getattr(owner, a)
    return owner, attrs[-1]


def _rebind(orig, wrapper):
    """Point every binding of orig inside the package at wrapper."""
    for name, mod in list(sys.modules.items()):
        if not (name == PKG or name.startswith(PKG + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapper


class Tracer:
    """Installs wrappers on construction; read results with report()."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = [["", 0.0]]   # [span name, time covered by children]
        self.spans = {}            # (name, parent) -> [calls, total s, self s]
        self.counts = {name: 0 for name in COUNTS}
        self.extra = {"bump.moved": 0, "push_steps": 0, "split.hits": 0,
                      "vertices_max": 0}
        self.originals = {}
        for name, paths in SPANS.items():
            observe = {"bumping.bump": self._bump,
                       "insertion.split_word": self._split,
                       "crystals.factorization_crystal": self._crystal}.get(name)
            for path in paths:
                self._install(path, self._span(name, observe))
        for name, path in COUNTS.items():
            self._install(path, self._count(name))

    def _install(self, path, make):
        owner, attr = _resolve(path)
        orig = vars(owner)[attr]
        wrapper = make(orig)
        for a in ("cache_info", "cache_clear"):
            if hasattr(orig, a):
                setattr(wrapper, a, getattr(orig, a))
        self.originals[path] = orig
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(orig, wrapper)

    def _span(self, name, observe):
        stack, spans, clock = self.stack, self.spans, self.clock

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = [name, 0.0]
                parent = stack[-1]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    parent[1] += dur
                    rec = spans.get((name, parent[0]))
                    if rec is None:
                        rec = spans[name, parent[0]] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]
                if observe is not None:
                    observe(args, result)
                return result
            return wrapper
        return make

    def _count(self, name):
        counts = self.counts
        observe = self._chain if name == "bumping.bump_chain" else None

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            return wrapper
        return make

    def _bump(self, args, result):
        if tuple(args[0]) != result:
            self.extra["bump.moved"] += 1

    def _chain(self, chain):
        if chain is not None:
            self.extra["push_steps"] += len(chain) - 1

    def _split(self, args, result):
        if result:
            self.extra["split.hits"] += 1

    def _crystal(self, args, result):
        self.extra["vertices_max"] = max(self.extra["vertices_max"], len(result))

    def report(self):
        """Per-layer metrics: {name: (value, unit)}, edges: [[name, parent,
        calls, total_s, self_s]]."""
        calls, self_s = {}, {}
        for (name, _), (n, _, s) in self.spans.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out["permwords.Permutation.init.calls"] = (
            self.counts["permwords.Permutation.init"], "count")
        out["permwords.FpfInvolution.init.calls"] = (
            self.counts["permwords.FpfInvolution.init"], "count")
        bumps = calls.get("bumping.bump", 0)
        out["bumping.bump.moved_ratio"] = (
            self.extra["bump.moved"] / bumps if bumps else 0.0, "ratio")
        out["bumping.push_steps"] = (self.extra["push_steps"], "count")
        splits = calls.get("insertion.split_word", 0)
        out["insertion.split_word.hit_ratio"] = (
            self.extra["split.hits"] / splits if splits else 0.0, "ratio")
        out["crystals.factorization_crystal.vertices_max"] = (
            self.extra["vertices_max"], "count")
        for path, kinds in CACHES.items():
            owner, attr = _resolve(path)
            info = self.originals.get(path, getattr(owner, attr)).cache_info()
            looked = info.hits + info.misses
            if "hit_ratio" in kinds:
                out[f"{path}.hit_ratio"] = (
                    info.hits / looked if looked else 0.0, "ratio")
            if "entries" in kinds:
                out[f"{path}.entries"] = (info.currsize, "count")
        permwords = sys.modules[f"{PKG}.permwords"]
        out["permwords.word_cache.entries"] = (
            sum(len(getattr(permwords, c)) for c in WORD_CACHES), "count")
        edges = [[name, parent, n, total, s]
                 for (name, parent), (n, total, s) in sorted(self.spans.items())]
        return out, edges

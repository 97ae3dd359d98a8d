"""Benchmark of the queercrystals verifier and `qc` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
src/.  Each repetition runs in a fresh interpreter, one at a time, because
every `qc` invocation pays the cold module caches.  One untimed process
first writes the bytecode caches; short set-up probes are interleaved with
the repetitions.

Workloads (see README.md for why each was chosen):
  verify-bump     bump-properties, conjecture-ib-bound, conjecture-fb-bound
  verify-crystal  the other ten verify targets
  queries         a seeded closed-loop stream of one-shot `qc` commands

The number of repetitions follows from --seconds and a fixed nominal
repetition time, so both sides of a comparison do the same work.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first
repetition untraced and then traced, and prints the per-layer metrics.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stream
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden-seed0.json"
TRACE_OUT = ROOT / ".perfbench-out"

# Check counts of every target at default bounds.  A target that is not ok,
# or that does a different number of checks, has failed.
EXPECTED_CHECKS = {
    "crystal-axioms": 758, "eg-fibers": 157, "oeg-fibers": 124,
    "speg-fibers": 99, "q-morphism-O": 124, "q-morphism-Sp": 99,
    "bump-properties": 68325, "dual-equivalence": 3995,
    "reduction-lemma": 435, "supersymmetry": 73, "schurP-positivity": 81,
    "conjecture-ib-bound": 23951, "conjecture-fb-bound": 16771,
}
BUMP_TARGETS = ("bump-properties", "conjecture-ib-bound", "conjecture-fb-bound")
WORKLOADS = {
    "verify-bump": BUMP_TARGETS,
    "verify-crystal": tuple(t for t in EXPECTED_CHECKS if t not in BUMP_TARGETS),
    "queries": None,
}
# Run seconds budgeted per repetition, with its probes and checks.  Fixed,
# so both sides of a comparison run the same repetitions.
NOMINAL_REP_S = {"verify-bump": 10.0, "verify-crystal": 6.0, "queries": 2.5}
MIN_REPS = 3
PROBES_PER_REP = 3
DEADLINE_S = 170.0


def per_layer_names():
    """Every per-layer metric, in report order."""
    names = []
    for span in tracer.SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += ["permwords.Permutation.init.calls",
              "permwords.FpfInvolution.init.calls",
              "bumping.bump.moved_ratio", "bumping.push_steps",
              "insertion.split_word.hit_ratio",
              "crystals.factorization_crystal.vertices_max"]
    for path, kinds in tracer.CACHES.items():
        names += [f"{path}.{k}" for k in kinds]
    names.append("permwords.word_cache.entries")
    for target in EXPECTED_CHECKS:
        names += [f"verify.{target}.s", f"verify.{target}.checks"]
    names.append("trace.overhead_s")
    return names


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")
        for var in ("QC_VERTEX_CAP", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)
        self.setup = []

    def spawn(self, job):
        """Run one worker and record its set-up time; returns its query
        records [(exit code, seconds, stdout)] and its summary."""
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(WORKER)], input=json.dumps(job).encode(),
            stdout=subprocess.PIPE, cwd=ROOT, env=self.env,
            timeout=max(1.0, self.deadline - start))
        if proc.returncode != 0:
            raise SystemExit(f"worker exited with {proc.returncode}")
        out, records, pos = proc.stdout, [], 0
        while out.startswith(b"Q ", pos):
            nl = out.index(b"\n", pos)
            _, code, dt, size = out[pos:nl].split()
            end = nl + 1 + int(size)
            records.append((int(code), float(dt), out[nl + 1:end].decode()))
            pos = end
        summary = json.loads(out[pos:])
        self.setup.append(summary["setup_done"] - start)
        return records, summary

    def probe(self):
        self.spawn({})


class Tally:
    """Operations attempted and failed, and the latency of each query."""

    def __init__(self, golden=None):
        self.attempted = self.failed = 0
        self.latencies = []
        self.golden = golden
        self.digests = []

    def targets(self, rows):
        for name, ok, checks, _ in rows:
            self.attempted += 1
            self.failed += not (ok and checks == EXPECTED_CHECKS[name])

    def queries(self, queries, records, offset):
        """Check records against the stream starting at position offset of
        the run's query list."""
        dot = None
        for k, (query, (code, dt, out)) in enumerate(zip(queries, records)):
            digest = [code, hashlib.sha256(out.encode()).hexdigest()]
            try:
                ok = stream.check(query, code, out, dot)
            except (ValueError, KeyError, IndexError, TypeError):
                ok = False      # malformed output
            if self.golden is not None:
                ok = ok and digest == self.golden[offset + k]
            self.digests.append(digest)
            dot = out if query["kind"] == "crystal-dot" else None
            self.attempted += 1
            self.failed += not ok
            self.latencies.append(dt)
        missing = len(queries) - len(records)
        self.attempted += missing
        self.failed += missing


def run_rep(runner, tally, workload, queries, offset=0, trace=False):
    """One workload process; returns its summary with wall_s set to the
    workload's own time (for queries, the sum of query latencies)."""
    if queries is None:
        job = {"targets": list(WORKLOADS[workload]), "trace": trace}
    else:
        job = {"queries": [q["argv"] for q in queries], "trace": trace}
    records, summary = runner.spawn(job)
    if queries is None:
        tally.targets(summary["targets"])
    else:
        tally.queries(queries, records, offset)
        summary["wall_s"] = sum(dt for _, dt, _ in records)
    return summary


def tail(samples):
    """(percentile, value): the highest of p90, p95, p99 and p99.9 with at
    least ten samples beyond it (nearest rank), or the maximum when even p90
    has fewer."""
    xs = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0):
        rank = math.ceil(pct / 100 * len(xs))
        if len(xs) - rank >= 10:
            return pct, xs[rank - 1]
    return 100.0, xs[-1]


def print_mix(queries, latencies):
    """Each query kind's share of the run's queries and of their summed
    latency, per band of input length, so that what the end-to-end figures
    weight can be read off."""
    bands = ((1, 4), (5, 6), (7, 8))
    count, spent = {}, {}
    for query, dt in zip(queries, latencies):
        band = next(i for i, (_, hi) in enumerate(bands) if query["length"] <= hi)
        key = query["kind"], band
        count[key] = count.get(key, 0) + 1
        spent[key] = spent.get(key, 0.0) + dt
    print("query mix, % of queries / % of summed latency, by length "
          + " | ".join(f"{lo}-{hi}" for lo, hi in bands))
    for kind in dict.fromkeys(q["kind"] for q in queries):
        cells = [f"{100 * count.get((kind, b), 0) / len(latencies):5.1f} /"
                 f"{100 * spent.get((kind, b), 0.0) / sum(latencies):5.1f}"
                 for b in range(len(bands))]
        print(f"  {kind:13}" + " | ".join(cells))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, tally, workload, streams, reps):
    """An operation is one `qc` command on queries and one repetition (a cold
    session over the workload's targets) on the verify workloads.  Wall time
    and memory are medians over repetitions; latency percentiles are over all
    operations of the run."""
    walls, rss = [], []
    for r in range(reps):
        for _ in range(PROBES_PER_REP):
            runner.probe()
        summary = run_rep(runner, tally, workload,
                          streams[r] if streams else None,
                          sum(map(len, streams[:r])) if streams else 0)
        walls.append(summary["wall_s"])
        rss.append(summary["rss_kb"] / 1024)
    ops = tally.latencies if streams else walls
    if streams:
        print_mix([q for s in streams for q in s], ops)
    pct, tail_s = tail(ops)
    print(f"{workload}: {reps} repetitions, {len(ops)} operation latencies, "
          f"tail = p{pct:g}; {len(runner.setup)} set-up samples")
    return {
        "setup_s": metric(statistics.median(runner.setup), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "query_p50_ms": metric(1000 * statistics.median(ops), "ms"),
        "query_tail_ms": metric(1000 * tail_s, "ms"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
        "ok_ratio": metric(1 - tally.failed / tally.attempted, "ratio"),
    }


def traced(runner, tally, workload, streams, seed):
    queries = streams[0] if streams else None
    plain = run_rep(runner, tally, workload, queries)
    summary = run_rep(runner, tally, workload, queries, trace=True)
    metrics = {name: metric(value, unit)
               for name, (value, unit) in summary["trace"].items()}
    rows = {name: (checks, s) for name, _, checks, s in plain.get("targets", ())}
    for target in EXPECTED_CHECKS:
        checks, s = rows.get(target, (0, 0.0))
        metrics[f"verify.{target}.s"] = metric(s, "s")
        metrics[f"verify.{target}.checks"] = metric(checks, "count")
    metrics["trace.overhead_s"] = metric(summary["wall_s"] - plain["wall_s"], "s")
    TRACE_OUT.mkdir(exist_ok=True)
    spans = TRACE_OUT / f"spans-{workload}-seed{seed}.json"
    spans.write_text(json.dumps(
        {"columns": ["name", "parent", "calls", "total_s", "self_s"],
         "spans": summary["edges"]}, indent=1))
    print(f"{workload}: traced one repetition; spans in {spans.relative_to(ROOT)}")
    return {name: metrics[name] for name in per_layer_names()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the seed-0 query digests instead of "
                         "comparing against them")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "queercrystals" / "cli.py").is_file():
        sys.exit(f"no queercrystals sources under {ROOT / 'src'}")

    runner = Runner(time.monotonic() + DEADLINE_S)
    reps = max(MIN_REPS, round(args.seconds / NOMINAL_REP_S[args.workload]))
    if args.write_golden and (args.workload != "queries" or args.seed != 0
                              or args.trace):
        ap.error("--write-golden records the seed-0 queries run: "
                 "use --workload queries --seed 0 --trace 0")
    streams = None
    golden = None
    if args.workload == "queries":
        streams = stream.generate(args.seed, reps)
        if args.seed == 0 and not args.write_golden:
            golden = json.loads(GOLDEN.read_text())
            if sum(map(len, streams)) > len(golden):
                sys.exit(f"{GOLDEN.name} covers {len(golden)} queries, fewer "
                         f"than the run's {sum(map(len, streams))}")
    runner.probe()          # untimed: writes the bytecode caches
    runner.setup.clear()
    tally = Tally(golden)
    if args.trace:
        metrics = traced(runner, tally, args.workload, streams, args.seed)
    else:
        metrics = end_to_end(runner, tally, args.workload, streams, reps)
    if args.write_golden:
        GOLDEN.write_text(json.dumps(tally.digests) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

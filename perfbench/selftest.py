"""Self-test of the tracer.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout, that:
- after the tracer is installed no module of the package still binds an
  unwrapped original of a traced function, in an attribute or a dict;
- every span and count records at least one call on some workload;
- bumping records no call on verify-crystal;
- every count and ratio repeats exactly across two traced runs of each
  workload (seed 0, first repetition).
Takes about two minutes.  Exits 1 with the failed checks listed.
"""

from __future__ import annotations

import sys
import time

import run
import stream
import tracer

BUMPING = ("bumping.bump.calls", "bumping.decompose_bump.calls",
           "bumping.bump_factorization.calls", "bumping.push_steps")


def stale_bindings():
    """(module, attribute) pairs still holding an original function."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import queercrystals.cli  # noqa: F401

    t = tracer.Tracer()
    originals = {id(f): path for path, f in t.originals.items()}
    stale = []
    for name, mod in sys.modules.items():
        if not name.startswith(tracer.PKG):
            continue
        for attr, value in vars(mod).items():
            values = value.values() if isinstance(value, dict) else [value]
            stale += [(name, attr, originals[id(v)]) for v in values
                      if id(v) in originals]
    return stale


def traced_counts(workload):
    runner = run.Runner(time.monotonic() + 600)
    tally = run.Tally()
    queries = stream.generate(0, 1)[0] if workload == "queries" else None
    summary = run.run_rep(runner, tally, workload, queries, trace=True)
    if tally.failed:
        raise SystemExit(f"{workload}: {tally.failed} operations failed")
    return {name: value for name, (value, unit) in summary["trace"].items()
            if unit in ("count", "ratio")}


def main():
    problems = [f"unwrapped binding {m}.{a} of {p}"
                for m, a, p in stale_bindings()]
    runs = {}
    for workload in run.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        runs[workload] = first
        problems += [f"{workload}: {k} differs ({first[k]} vs {second[k]})"
                     for k in first if first[k] != second[k]]
        print(f"{workload}: traced twice", flush=True)
    names = [f"{span}.calls" for span in tracer.SPANS]
    names += ["permwords.Permutation.init.calls",
              "permwords.FpfInvolution.init.calls", "bumping.push_steps"]
    problems += [f"{name} never called" for name in names
                 if not any(counts[name] for counts in runs.values())]
    problems += [f"verify-crystal: {name} = {runs['verify-crystal'][name]}"
                 for name in BUMPING if runs["verify-crystal"][name]]
    for p in problems:
        print("FAIL", p)
    print("tracer self-test:", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

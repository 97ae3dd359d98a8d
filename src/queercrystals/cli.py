"""Command-line interface.

Exit codes: 0 pass, 1 theorem failure, 2 bad input, 3 resource cap,
4 conjecture counterexample.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys

from .bumping import bump_chain
from .crystals import (
    VertexCapExceeded,
    factorization_crystal,
    shifted_tableau_crystal,
)
from .insertion import Factorization, insert
from .permwords import (
    FLAVORS,
    FpfInvolution,
    Permutation,
    equivalence_class,
    get_flavor,
    insertion_flavor,
    word_target,
)
from .symchar import expand, stanley_poly
from .verify import TARGETS, run_target

EXIT_PASS = 0
EXIT_THEOREM_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_CONJECTURE = 4


class InputError(ValueError):
    pass


def parse_word(text):
    text = text.strip()
    if not text:
        return ()
    if re.fullmatch(r"-?\d+([,\s]+-?\d+)*", text) and re.search(r"[,\s]", text):
        return tuple(int(tok) for tok in re.split(r"[,\s]+", text))
    if re.fullmatch(r"\d+", text):
        return tuple(int(ch) for ch in text)
    raise InputError(f"cannot parse word {text!r}")


def parse_factorization(text):
    """Parenthesized groups like (4)(23)(12), with () an empty factor."""
    text = text.strip()
    if not text:
        return Factorization(())
    if not re.fullmatch(r"(\([^()]*\))+", text):
        raise InputError(f"cannot parse factorization {text!r}")
    groups = re.findall(r"\(([^()]*)\)", text)
    try:
        return Factorization(tuple(parse_word(g) for g in groups))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def parse_cycles(text):
    groups = re.findall(r"\(([^()]+)\)", text.strip())
    if not groups and text.strip() not in ("1", "id", ""):
        raise InputError(f"cannot parse cycles {text!r}")
    cycles = []
    for g in groups:
        try:
            cycles.append(tuple(int(tok) for tok in re.split(r"[,\s]+", g.strip())))
        except ValueError:
            raise InputError(f"cannot parse cycle ({g})") from None
    return cycles


def parse_permutation(text, flavor):
    cycles = parse_cycles(text)
    try:
        if flavor == "fpf":
            return FpfInvolution(cycles)
        pi = Permutation.from_cycles(cycles)
        if flavor == "involution" and not pi.is_involution():
            raise InputError(f"{text} is not an involution")
        return pi
    except ValueError as exc:
        raise InputError(str(exc)) from None


def cmd_insert(args):
    flavor = args.flavor
    if flavor == "hm":
        data = parse_word(args.input)
        res = insert(data, "hm")
    else:
        data = parse_factorization(args.input)
        try:
            res = insert(data, flavor)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    if args.json:
        print(json.dumps(res.to_json(), sort_keys=True))
    else:
        print("P:")
        print(res.P.pretty())
        print("Q:")
        print(res.Q.pretty())
        print("trace:", " ".join("col" if c else "row" for c in res.column_inserted))
    return EXIT_PASS


def cmd_crystal(args):
    if args.shape:
        shape = tuple(int(p) for p in args.shape.split(","))
        crys = shifted_tableau_crystal(args.n, shape)
    else:
        flavor = insertion_flavor(args.flavor).name
        pi = parse_permutation(args.perm, flavor)
        crys = factorization_crystal(pi, flavor, args.n)
    if len(crys) > args.cap:
        raise VertexCapExceeded(
            f"carrier has {len(crys)} vertices, above the cap {args.cap}")
    if args.json:
        print(json.dumps(crys.to_json(), sort_keys=True))
    else:
        sys.stdout.write(crys.to_dot())
    return EXIT_PASS


def cmd_bump(args):
    flavor = args.flavor
    w = parse_word(args.word)
    pi = parse_permutation(args.perm, flavor)
    if word_target(w, flavor) is None:
        raise InputError(f"{w} is not in the {flavor} word class")
    chain = bump_chain(w, pi, flavor)
    trace = [[list(w), None]] if chain is None else [
        [list(mw.word), mw.mark] for mw in chain
    ]
    print(json.dumps({
        "word": list(w),
        "result": trace[-1][0],
        "chain": trace,
    }))
    return EXIT_PASS


def cmd_expand(args):
    flavor = args.flavor
    pi = parse_permutation(args.perm, flavor)
    p = stanley_poly(pi, flavor, args.n)
    basis = get_flavor(flavor).basis
    coeffs = expand(p, basis)
    out = {",".join(map(str, shape)): c for shape, c in sorted(coeffs.items())}
    print(json.dumps({"character": str(p), "basis": basis, "coefficients": out},
                     sort_keys=True))
    return EXIT_PASS


def cmd_class(args):
    w = parse_word(args.word)
    cls = equivalence_class(w, args.relation)
    print(json.dumps(sorted(list(v) for v in cls)))
    return EXIT_PASS


def cmd_verify(args):
    signature = inspect.signature(TARGETS[args.target])
    bounds = {}
    for flag, name in (("maxlen", "max_len"), ("n", "n")):
        value = getattr(args, flag)
        if value is None:
            continue
        try:
            signature.bind(**{name: value})
        except TypeError:
            raise InputError(
                f"verify {args.target} does not accept --{flag}") from None
        bounds[name] = value
    res = run_target(args.target, **bounds)
    print(res.summary())
    if res.ok:
        return EXIT_PASS
    return EXIT_CONJECTURE if res.conjecture else EXIT_THEOREM_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qc",
        description="Crystals of factorized involution words: insertion, "
                    "bumping, characters, and a theorem verifier.")
    sub = parser.add_subparsers(dest="command", required=True)
    insertions = tuple(flav.insertion for flav in FLAVORS.values())

    p = sub.add_parser("insert", help="run an insertion algorithm")
    p.add_argument("input", help="factorization like '(4)(23)(12)', or a word for hm")
    p.add_argument("--flavor", choices=insertions + ("hm",), default="oeg")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_insert)

    p = sub.add_parser("crystal", help="emit a crystal graph")
    p.add_argument("perm", nargs="?", default="", help="cycles like (1,3)(2,5)")
    p.add_argument("--flavor", choices=insertions, default="oeg")
    p.add_argument("--shape", help="strict partition like 3,1 for a tableau crystal")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_crystal)

    p = sub.add_parser("bump", help="run a Little bump and print the chain")
    p.add_argument("word")
    p.add_argument("perm", help="cycles of the bump target")
    p.add_argument("--flavor", choices=tuple(FLAVORS), default="involution")
    p.set_defaults(fn=cmd_bump)

    p = sub.add_parser("expand", help="Schur/Schur-P expansion of a Stanley polynomial")
    p.add_argument("perm")
    p.add_argument("--flavor", choices=tuple(FLAVORS), default="involution")
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("class", help="list a Coxeter-Knuth equivalence class")
    p.add_argument("word")
    p.add_argument("--relation", default="O",
                   choices=tuple(flav.relation for flav in FLAVORS.values()))
    p.set_defaults(fn=cmd_class)

    p = sub.add_parser("verify", help="run a theorem-verification target")
    p.add_argument("target", choices=sorted(TARGETS))
    p.add_argument("--maxlen", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cap", None) is None and args.command == "crystal":
        from .crystals import vertex_cap

        args.cap = vertex_cap()
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VertexCapExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RuntimeError as exc:  # an internal invariant of a theorem broke
        print(f"theorem failure: {exc}", file=sys.stderr)
        return EXIT_THEOREM_FAIL


if __name__ == "__main__":
    sys.exit(main())

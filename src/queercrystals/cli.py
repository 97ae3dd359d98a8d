"""Command-line interface.

Exit codes: 0 pass, 1 theorem failure, 2 bad input, 3 resource cap,
4 conjecture counterexample, 141 output pipe closed by its reader.
"""

import argparse
import json
import os
import re
import sys
from functools import cache

from .bumping import bump_chain
from .crystals import (
    factorization_crystal,
    factorization_crystal_size,
    factorization_weights,
    shifted_tableau_crystal,
    shifted_tableau_crystal_size,
)
from .insertion import Factorization, insert
from .permwords import (
    DEFAULT_VERTEX_CAP,
    FLAVORS,
    VertexCapExceeded,
    equivalence_class,
    get_flavor,
    insertion_flavor,
)
from .symchar import expand, polynomial_str
from .tableaux import is_strict_partition
from .verify import TARGETS, run_target, target_bounds

EXIT_PASS = 0
EXIT_THEOREM_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_CONJECTURE = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports it


class InputError(ValueError):
    pass


def natural(text):
    """An integer >= 0: the type of every bound option."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def parse_word(text):
    text = text.strip()
    if not text:
        return ()
    if re.fullmatch(r"-?\d+([,\s]+-?\d+)*", text) and re.search(r"[,\s]", text):
        return tuple(int(tok) for tok in re.split(r"[,\s]+", text))
    if re.fullmatch(r"\d+", text):
        return tuple(int(ch) for ch in text)
    if re.fullmatch(r"-\d+", text):
        return (int(text),)
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
    """Cycle groups like (1,3) (2,5), or an identity word: "", "1" or "id"."""
    if not re.fullmatch(r"\s*(1|id|(\([^()]+\)\s*)*)\s*", text):
        raise InputError(f"cannot parse cycles {text!r}")
    cycles = []
    for g in re.findall(r"\(([^()]+)\)", text):
        try:
            cycles.append(tuple(
                int(tok) for tok in re.split(r"\s*,\s*|\s+", g.strip())))
        except ValueError:
            raise InputError(f"cannot parse cycle ({g})") from None
    return cycles


def parse_shape(text):
    try:
        shape = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse shape {text!r}") from None
    if not is_strict_partition(shape):
        raise InputError(f"shape {text} is not a strict partition")
    return shape


def parse_permutation(text, flavor):
    flav = get_flavor(flavor)
    cycles = parse_cycles(text)
    try:
        pi = type(flav.identity).from_cycles(cycles)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    need = flav.invalid(pi)
    if need:
        raise InputError(f"{text} is not {need}")
    return pi


def cmd_insert(args):
    flavor = args.flavor
    parse = parse_word if flavor == "hm" else parse_factorization
    data = parse(args.input)
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


def check_cap(size, cap):
    if size > cap:
        raise VertexCapExceeded(
            f"carrier has {size} vertices, above the cap {cap}")


def env_cap():
    """QC_VERTEX_CAP, or DEFAULT_VERTEX_CAP when it is unset; a value that
    is not an integer >= 0 is bad input."""
    text = os.environ.get("QC_VERTEX_CAP")
    if text is None:
        return DEFAULT_VERTEX_CAP
    try:
        return natural(text)
    except ValueError:
        raise InputError(
            f"QC_VERTEX_CAP={text!r} is not an integer >= 0") from None


def cmd_crystal(args):
    cap = env_cap() if args.cap is None else args.cap
    if args.shape is not None:
        if args.perm is not None:
            raise InputError("a target cannot be given together with --shape")
        if args.flavor:
            raise InputError("--flavor cannot be given together with --shape")
        shape = parse_shape(args.shape)
        check_cap(shifted_tableau_crystal_size(args.n, shape), cap)
        crys = shifted_tableau_crystal(args.n, shape)
    else:
        flavor = insertion_flavor(args.flavor or "oeg").name
        pi = parse_permutation(args.perm or "", flavor)
        # refused before the build, so that the cap bounds the work done
        check_cap(factorization_crystal_size(pi, flavor, args.n), cap)
        crys = factorization_crystal(pi, flavor, args.n)
    if args.json:
        print(json.dumps(crys.to_json(), sort_keys=True))
    else:
        sys.stdout.write(crys.to_dot())
    return EXIT_PASS


def cmd_bump(args):
    flavor = args.flavor
    w = parse_word(args.word)
    pi = parse_permutation(args.perm, flavor)
    try:
        chain = bump_chain(w, pi, flavor)
    except ValueError as exc:  # w is not in the flavor's word class
        raise InputError(str(exc)) from None
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
    check_cap(factorization_crystal_size(pi, flavor, args.n), env_cap())
    p = factorization_weights(pi, flavor, args.n)
    basis = get_flavor(flavor).basis
    try:
        coeffs = expand(p, basis)
    except ValueError as exc:  # a carrier's character always expands
        raise RuntimeError(
            f"the character of {pi} has no {basis} expansion: {exc}") from None
    out = {",".join(map(str, shape)): c for shape, c in sorted(coeffs.items())}
    print(json.dumps({"character": polynomial_str(p), "basis": basis,
                      "coefficients": out}, sort_keys=True))
    return EXIT_PASS


def cmd_class(args):
    w = parse_word(args.word)
    cls = equivalence_class(w, args.relation, env_cap())
    print(json.dumps(sorted(list(v) for v in cls)))
    return EXIT_PASS


def verify_bounds():
    """{bound: its option} over the bounds of every verify target: the
    option is the bound's name with "_" dropped, --maxlen for max_len."""
    return {name: name.replace("_", "")
            for target in TARGETS for name in target_bounds(target)}


def cmd_verify(args):
    accepted = target_bounds(args.target)
    bounds = {}
    for name, option in verify_bounds().items():
        value = getattr(args, option)
        if value is None:
            continue
        if name not in accepted:
            raise InputError(f"verify {args.target} does not accept --{option}")
        bounds[name] = value
    res = run_target(args.target, **bounds)
    print(res.summary())
    if res.ok:
        return EXIT_PASS
    return EXIT_CONJECTURE if res.conjecture else EXIT_THEOREM_FAIL


@cache
def build_parser():
    """The qc parser, built on the first call and shared by every later one.

    Parsing keeps no state between calls: each parse_args returns a new
    Namespace.  set_defaults(fn=cmd_*) binds the command functions once, when
    the parser is built; the functions read the module globals they use
    (bump_chain, run_target, target_bounds) when they run, and env_cap
    reads the environment variable QC_VERTEX_CAP at each call.
    """
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
    p.add_argument("perm", nargs="?", help="cycles like (1,3)(2,5)")
    p.add_argument("--flavor", choices=insertions, default=None,
                   help="insertion of the carrier's target (default oeg)")
    p.add_argument("--shape", help="strict partition like 3,1 for a tableau crystal")
    p.add_argument("--n", type=natural, default=3)
    p.add_argument("--cap", type=natural, default=None)
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
    p.add_argument("--n", type=natural, default=4)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("class", help="list a Coxeter-Knuth equivalence class")
    p.add_argument("word")
    p.add_argument("--relation", default="O",
                   choices=tuple(flav.relation for flav in FLAVORS.values()))
    p.set_defaults(fn=cmd_class)

    p = sub.add_parser("verify", help="run a theorem-verification target")
    p.add_argument("target", choices=sorted(TARGETS))
    for option in verify_bounds().values():
        p.add_argument(f"--{option}", type=natural, default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        # a reader that closed the pipe shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # drop the unwritten output, so that the flush at exit cannot fail
        # again, and report no theorem failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VertexCapExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RuntimeError as exc:  # an internal invariant of a theorem broke
        print(f"theorem failure: {exc}", file=sys.stderr)
        return EXIT_THEOREM_FAIL

"""Command-line front end.

Every invocation prints exactly one JSON report document on standard
output, so constructions pipe into checks.  Exit codes: 0 when the
command succeeds (and any checked property holds), 1 when a checked
property fails, 2 on a malformed command line, invalid input, violated
preconditions, or exceeded budgets.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from contextlib import nullcontext

from . import __version__
from .block import (BlockCode, min_distance_block, nu_optimal_sets,
                    singleton_bound_block)
from .conv import (DEFAULT_DISTANCE_BUDGET, DISTANCES, MINORS, ConvCode,
                   distance_bounds, distance_profile, embedding_preserves_L,
                   field_L_index, is_mdp, is_polynomial_gamma_basis,
                   is_reverse_mdp, L_index, optimal_cd_bound, read_code)
from .constructions import (DEFAULT_SEARCH_BUDGET, EXHAUSTIVE, RANDOM,
                            ToeplitzSpec, binomial_encoder,
                            extract_mdp_blocks, is_gamma_superregular,
                            is_reverse_gamma_superregular,
                            lift_from_residue_field, search_superregular)
from .errors import (BudgetExceeded, ChainCodesError, CrossCheckFailed,
                     InvalidParams, NuNotDividingK, UsageError)
from .fields import prime_power_split
from .linalg import RingMatrix, shape_of, shape_parameters, standard_form
from .rings import GaloisRing, TruncatedPolyRing, make_ring, zmod

SCHEMA = "chaincodes-report/1"

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INVALID = 2


# ---------------------------------------------------------------------------
# input plumbing

def parse_ring(text):
    """Ring from a short name (z121, gr(11,2,5), tp(4,2), f9), inline
    JSON descriptor, or a path to a JSON descriptor file."""
    text = text.strip()
    if text.startswith("{"):
        return make_ring(json.loads(text))
    m = re.fullmatch(r"[zZ](\d+)", text)
    if m:
        return zmod(int(m.group(1)))
    m = re.fullmatch(r"[gG][rR]\((\d+),(\d+),(\d+)\)", text)
    if m:
        return GaloisRing(*map(int, m.groups()))
    m = re.fullmatch(r"[tT][pP]\((\d+),(\d+)\)", text)
    if m:
        return TruncatedPolyRing(*map(int, m.groups()))
    m = re.fullmatch(r"[fF](\d+)", text)
    if m:
        p, s = prime_power_split(int(m.group(1)))
        return GaloisRing(p, 1, s)
    try:
        with open(text) as fh:
            return make_ring(json.load(fh))
    except OSError as exc:
        raise InvalidParams(f"cannot interpret ring {text!r}: {exc}")


def load_json(path):
    with nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidParams(f"{path} does not hold a JSON object")
    return obj


def load_code_json(path):
    """Code JSON, or the one a report document wraps under results.code."""
    obj = load_json(path)
    if "results" in obj and isinstance(obj["results"], dict) \
            and "code" in obj["results"]:
        obj = obj["results"]["code"]
    return obj


def load_code(path):
    return ConvCode.from_json(load_code_json(path))


def load_matrix(path):
    return RingMatrix.from_json(load_json(path))


def load_toeplitz(path):
    """The Toeplitz matrix of a file holding its first row or the matrix."""
    obj = load_json(path)
    if "first_row" in obj:
        spec, A = ToeplitzSpec.from_json(obj), None
    else:
        A = RingMatrix.from_json(obj)  # its entries are coerced already
        spec = ToeplitzSpec._make((A.ring, A.row(0) if A.rows else ()))
    if not spec.size or A is not None and A.rows != A.cols:
        raise InvalidParams("Toeplitz matrix file must be square and "
                            "nonempty")
    if A is not None and spec.materialize() != A:
        raise InvalidParams("matrix is not upper-triangular Toeplitz")
    return spec


class Report:
    def __init__(self, argv):
        self.started = time.monotonic()
        self.doc = {"schema": SCHEMA, "version": __version__,
                    "command": argv, "results": {}, "warnings": []}

    def warn(self, msg):
        self.doc["warnings"].append(msg)

    def emit(self, exit_code):
        self.doc["timing_seconds"] = round(
            time.monotonic() - self.started, 3)
        json.dump(self.doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return exit_code


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_ring(args, report):
    ring = parse_ring(args.ring)
    res = report.doc["results"]
    res["ring"] = ring.descriptor()
    res["nu"] = ring.nu
    res["q"] = ring.q
    res["size"] = ring.size()
    res["gamma"] = ring.element_to_json(ring.gamma)
    if ring.q <= 64:
        res["transversal"] = [ring.element_to_json(t)
                              for t in sorted(ring.representatives())]
    return EXIT_HOLDS


def cmd_check(args, report):
    res = report.doc["results"]
    if args.property == "gamma-basis":
        _, _, encoder = read_code(load_code_json(args.code))
        verdict = is_polynomial_gamma_basis(encoder)
        res["gamma-basis"] = verdict
        return EXIT_HOLDS if verdict else EXIT_FAILS
    code = load_code(args.code)
    if args.property == "delay-free":
        verdict = code.delay_free()
        res["delay-free"] = verdict
    elif args.property == "reduced":
        verdict = code.reduced()
        res["reduced"] = verdict
    else:
        pred = is_mdp if args.property == "mdp" else is_reverse_mdp
        methods = [MINORS, DISTANCES] if args.method == "both" \
            else [args.method]
        verdicts = {m: pred(code, method=m, budget=args.budget)
                    for m in methods}
        if len(set(verdicts.values())) > 1:
            raise CrossCheckFailed(
                f"minors verdict {verdicts[MINORS]} disagrees with "
                f"distances verdict {verdicts[DISTANCES]}")
        res[args.property] = verdicts
        verdict = verdicts[methods[0]]
    return EXIT_HOLDS if verdict else EXIT_FAILS


# argparse cannot make an option required for some kinds only
CONSTRUCT_NEEDS = {"binomial": ("--n", "--k", "--delta", "--p"),
                   "lift": ("--field-code", "--ring"),
                   "superregular": ("--matrix", "--n", "--k", "--L")}


def cmd_construct(args, report):
    res = report.doc["results"]
    missing = [opt for opt in CONSTRUCT_NEEDS[args.kind]
               if getattr(args, opt[2:].replace("-", "_")) is None]
    if missing:
        args.usage_error(f"construct {args.kind} needs {', '.join(missing)}")
    if args.kind == "lift":
        encoder = load_code(args.field_code).encoder
    elif args.kind == "binomial":
        encoder, warnings = binomial_encoder(args.n, args.k, args.delta,
                                             args.p)
        for w in warnings:
            report.warn(w)
    else:
        spec = load_toeplitz(args.matrix)
        if spec.ring.nu != 1:
            raise InvalidParams(
                "block extraction expects a matrix over a nu=1 ring")
        encoder = extract_mdp_blocks(spec, n=args.n, k=args.k, L=args.L)
    if args.ring is None:
        code = ConvCode(encoder.ring, encoder.n, encoder)
    else:
        code = lift_from_residue_field(encoder, parse_ring(args.ring))
    res["code"] = code.to_json()
    res["n"] = code.n
    res["k"] = code.k
    res["delta"] = code.delta
    return EXIT_HOLDS


def cmd_distances(args, report):
    res = report.doc["results"]
    code = load_code(args.code)
    ring = code.ring
    n, k = code.n, code.k
    profile = distance_profile(code, args.max_j, budget=args.budget)
    res["profile"] = list(profile)
    try:
        res["optimal_bounds"] = bounds = [optimal_cd_bound(j, n, k, ring.nu)
                                          for j in range(args.max_j + 1)]
        res["saturated"] = [d == b for d, b in zip(profile, bounds)]
    except NuNotDividingK as exc:
        report.warn(str(exc))
    try:
        res["L"] = L_index(n, k, code.delta, ring.nu)
    except (NuNotDividingK, InvalidParams) as exc:
        report.warn(str(exc))
    return EXIT_HOLDS


def cmd_bounds(args, report):
    res = report.doc["results"]
    b = distance_bounds(args.n, args.k, args.delta, args.nu,
                        max_j=args.max_j)
    res["L"] = b.L
    res["N"] = b.N
    res["column_distance_bounds"] = list(b.per_j)
    res["generalized_singleton"] = b.generalized_singleton
    res["field_L"] = field_L_index(args.n, args.k, args.delta) \
        if args.n > args.k else None
    if args.n > args.k:
        res["embedding_preserves_L"] = embedding_preserves_L(
            args.n, args.k, args.delta)
    return EXIT_HOLDS


def cmd_blockcode(args, report):
    res = report.doc["results"]
    A = load_matrix(args.matrix)
    if args.what == "shape":
        res["shape"] = list(shape_of(A))
    elif args.what == "params":
        shape = shape_of(A)
        res["parameters"] = list(shape_parameters(shape))
        res["gamma_dimension"] = sum(shape)
        if sum(shape):
            res["nu_optimal_sets"] = [list(t) for t in nu_optimal_sets(
                sum(shape), A.ring.nu)]
    elif args.what == "standard-form":
        S, perm = standard_form(A)
        res["standard_form"] = S.to_json()
        res["column_permutation"] = list(perm)
    elif args.what == "mindist":
        code = BlockCode(A)
        if not code.k:
            raise InvalidParams("the code is {0}: it has no minimum distance")
        res["min_distance"] = d = min_distance_block(code, budget=args.budget)
        res["singleton_bound"] = bound = singleton_bound_block(
            code.n, code.k, code.ring.nu)
        res["is_mds"] = d == bound
    return EXIT_HOLDS


def cmd_search(args, report):
    res = report.doc["results"]
    ring = parse_ring(args.ring)
    hits = search_superregular(args.ell, ring, strategy=args.strategy,
                               seed=args.seed, budget=args.budget,
                               reverse=args.reverse)
    res["count"] = len(hits)
    res["hits"] = [h.to_json() for h in hits[:args.max_hits]]
    if len(hits) > args.max_hits:
        report.warn(f"only the first {args.max_hits} of {len(hits)} "
                    f"hits are listed")
    # re-verify the first hit with cross-checked determinant paths
    if hits:
        check = is_reverse_gamma_superregular if args.reverse \
            else is_gamma_superregular
        if not check(hits[0], cross_check=True):
            raise CrossCheckFailed("first hit fails the cross-checked "
                                   "re-verification")
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """Writes the usual usage text to stderr, then raises UsageError so
    that a malformed command line still gets its JSON report."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise UsageError(message)


def non_negative(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return int(text)


def build_parser():
    parser = _Parser(
        prog="chaincodes",
        description="Construct and verify MDP and reverse-MDP "
                    "convolutional codes over finite chain rings.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ring", help="describe a chain ring")
    p.add_argument("--ring", required=True)
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("check", help="verify a code property")
    p.add_argument("property", choices=["mdp", "reverse-mdp", "delay-free",
                                        "reduced", "gamma-basis"])
    p.add_argument("--code", required=True,
                   help="code JSON file, or - for standard input")
    p.add_argument("--method", choices=[MINORS, DISTANCES, "both"],
                   default="minors")
    p.add_argument("--budget", type=non_negative,
                   default=DEFAULT_DISTANCE_BUDGET)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="build a code")
    p.add_argument("kind", choices=["lift", "binomial", "superregular"])
    p.add_argument("--field-code", help="code JSON over a nu=1 ring (lift)")
    p.add_argument("--matrix", help="Toeplitz matrix JSON (superregular)")
    p.add_argument("--ring", help="target ring for lifting")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--p", type=int, help="prime for the binomial encoder")
    p.add_argument("--L", type=int, help="block count minus one "
                                         "(superregular extraction)")
    p.set_defaults(func=cmd_construct, usage_error=p.error)

    p = sub.add_parser("distances", help="column distance profile")
    p.add_argument("--code", required=True)
    p.add_argument("--max-j", type=non_negative, required=True)
    p.add_argument("--budget", type=non_negative,
                   default=DEFAULT_DISTANCE_BUDGET)
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("bounds", help="distance bounds from parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--max-j", type=non_negative, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("blockcode", help="block-code computations")
    p.add_argument("what", choices=["shape", "standard-form", "params",
                                    "mindist"])
    p.add_argument("--matrix", required=True)
    p.add_argument("--budget", type=non_negative,
                   default=DEFAULT_DISTANCE_BUDGET)
    p.set_defaults(func=cmd_blockcode)

    p = sub.add_parser("search", help="search superregular matrices")
    p.add_argument("what", choices=["superregular"])
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--strategy", choices=[EXHAUSTIVE, RANDOM],
                   default=EXHAUSTIVE)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=non_negative,
                   default=DEFAULT_SEARCH_BUDGET)
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--max-hits", type=non_negative, default=20)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    report = Report(argv)
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args, report)
    except (ChainCodesError, AssertionError, OSError, ValueError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, BudgetExceeded):
            error["requested"] = exc.requested
            error["allowed"] = exc.allowed
        report.doc["results"]["error"] = error
        return report.emit(EXIT_INVALID)
    return report.emit(code)


if __name__ == "__main__":
    sys.exit(main())

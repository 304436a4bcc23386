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

def parse_int(text):
    """int(text), with a numeral longer than Python converts (4,300 digits)
    reported as InvalidParams; json reads every JSON integer through it."""
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidParams(f"a numeral of {len(text)} digits is too long to "
                            f"convert") from exc


def parse_ring(text):
    """Ring from a short name (z121, gr(11,2,5), tp(4,2), f9), inline
    JSON descriptor, or a path to a JSON descriptor file."""
    text = text.strip()
    if text.startswith("{"):
        return make_ring(json.loads(text, parse_int=parse_int))
    m = re.fullmatch(r"[zZ](\d+)", text)
    if m:
        return zmod(parse_int(m.group(1)))
    m = re.fullmatch(r"[gG][rR]\((\d+),(\d+),(\d+)\)", text)
    if m:
        return GaloisRing(*map(parse_int, m.groups()))
    m = re.fullmatch(r"[tT][pP]\((\d+),(\d+)\)", text)
    if m:
        return TruncatedPolyRing(*map(parse_int, m.groups()))
    m = re.fullmatch(r"[fF](\d+)", text)
    if m:
        p, s = prime_power_split(parse_int(m.group(1)))
        return GaloisRing(p, 1, s)
    try:
        with open(text) as fh:
            return make_ring(json.load(fh, parse_int=parse_int))
    except OSError as exc:
        raise InvalidParams(f"cannot interpret ring {text!r}: {exc}")


def load_json(path):
    with nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        obj = json.load(fh, parse_int=parse_int)
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


# ---------------------------------------------------------------------------
# subcommand handlers: each fills in the report's results and warnings
# and returns the exit code

def cmd_ring(args, res, warnings):
    ring = parse_ring(args.ring)
    res["ring"] = ring.descriptor()
    res["nu"] = ring.nu
    res["q"] = ring.q
    res["size"] = ring.size()
    res["gamma"] = ring.element_to_json(ring.gamma)
    if ring.q <= 64:
        res["transversal"] = [ring.element_to_json(t)
                              for t in sorted(ring.representatives())]
    return EXIT_HOLDS


def cmd_check(args, res, warnings):
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


def cmd_construct(args, res, warnings):
    if args.kind == "lift":
        # read, not built: over a field the lift's own refusals, of nu > 1
        # and of an encoder that is not reduced, cover a code's validation
        _, _, encoder = read_code(load_code_json(args.field_code))
    elif args.kind == "binomial":
        encoder, found = binomial_encoder(args.n, args.k, args.delta, args.p)
        warnings.extend(found)
    else:
        spec = load_toeplitz(args.matrix)
        if spec.ring.nu != 1:
            raise InvalidParams(
                "block extraction expects a matrix over a nu=1 ring")
        encoder = extract_mdp_blocks(spec, n=args.n, k=args.k, L=args.L)
    code = lift_from_residue_field(
        encoder, encoder.ring if args.ring is None else parse_ring(args.ring))
    res["code"] = code.to_json()
    res["n"] = code.n
    res["k"] = code.k
    res["delta"] = code.delta
    return EXIT_HOLDS


def cmd_distances(args, res, warnings):
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
        warnings.append(str(exc))
    try:
        res["L"] = L_index(n, k, code.delta, ring.nu)
    except (NuNotDividingK, InvalidParams) as exc:
        warnings.append(str(exc))
    return EXIT_HOLDS


def cmd_bounds(args, res, warnings):
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


def cmd_blockcode(args, res, warnings):
    A = RingMatrix.from_json(load_json(args.matrix))
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


def cmd_search(args, res, warnings):
    ring = parse_ring(args.ring)
    hits = search_superregular(args.ell, ring, strategy=args.strategy,
                               seed=args.seed, budget=args.budget,
                               reverse=args.reverse)
    res["count"] = len(hits)
    res["hits"] = [h.to_json() for h in hits[:args.max_hits]]
    if len(hits) > args.max_hits:
        warnings.append(f"only the first {args.max_hits} of {len(hits)} "
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

    kinds = sub.add_parser("construct", help="build a code").add_subparsers(
        dest="kind", required=True)
    lift = kinds.add_parser("lift")
    lift.add_argument("--field-code", required=True,
                      help="code JSON over a nu=1 ring (lift)")
    binomial = kinds.add_parser("binomial")
    for opt in ("--n", "--k", "--delta"):
        binomial.add_argument(opt, type=int, required=True)
    binomial.add_argument("--p", type=int, required=True,
                          help="prime for the binomial encoder")
    superregular = kinds.add_parser("superregular")
    superregular.add_argument("--matrix", required=True,
                              help="Toeplitz matrix JSON (superregular)")
    for opt in ("--n", "--k"):
        superregular.add_argument(opt, type=int, required=True)
    superregular.add_argument("--L", type=int, required=True,
                              help="block count minus one "
                                   "(superregular extraction)")
    for p in (lift, binomial, superregular):
        p.add_argument("--ring", required=p is lift,
                       help="target ring for lifting")
        p.set_defaults(func=cmd_construct)

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
    started = time.monotonic()
    doc = {"schema": SCHEMA, "version": __version__, "command": argv,
           "results": {}, "warnings": []}
    try:
        args = build_parser().parse_args(argv)
        exit_code = args.func(args, doc["results"], doc["warnings"])
    except (ChainCodesError, AssertionError, OSError, ValueError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, BudgetExceeded):
            error["requested"] = exc.requested
            error["allowed"] = exc.allowed
        doc["results"]["error"] = error
        exit_code = EXIT_INVALID
    doc["timing_seconds"] = round(time.monotonic() - started, 3)
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

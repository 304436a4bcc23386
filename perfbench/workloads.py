"""Seeded workloads of the chaincodes benchmark.

Each workload has a ``setup`` that builds every ring and field it needs,
a ``schedule`` that turns a seed into a deterministic prologue (a list of
plain-data tasks that only traced runs decide, once, before the rounds)
followed by an endless sequence of rounds of such tasks, all rounds of one
workload with the same count and kinds of tasks in the same order, so
that only the drawn inputs differ between rounds, and a ``run`` that
decides one task through the public API of ``chaincodes`` and checks the
verdict against an independent oracle or a golden value.  A failed check raises
:class:`Mismatch`; the checks are explicit comparisons, never ``assert``,
so they also hold under ``python -O``.

Library functions are always reached through their module
(``conv.is_mdp``), never imported by name, so that the traced run, which
replaces module attributes, sees every call the benchmark makes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path

from chaincodes import constructions, conv, linalg, rings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mismatch(Exception):
    """A verdict disagreed with its oracle or golden value."""


def check(ok, what):
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# shared oracles

def recheck_superregular(spec):
    """Number of proper minors that are not units, decided twice: by the
    residue-field determinant and by the valuation of the exact ring
    determinant.  The two must agree on every minor."""
    ring = spec.ring
    A = spec.materialize()
    nonunits = 0
    for I, J in constructions.proper_index_pairs(spec.size):
        sub = A.submatrix([i - 1 for i in I], [j - 1 for j in J])
        unit = linalg.residue_determinant(sub) != ring.residue.zero
        check(unit == (ring.valuation(linalg.determinant(sub)) == 0),
              f"determinant paths disagree on {I}x{J} of {spec.first_row}")
        nonunits += not unit
    return nonunits


def random_encoder(rng, field, n, k, m, low=0):
    """Coefficient matrices (m+1 lists of k x n residue codes, each code
    drawn from low..q-1) of a reduced, delay-free encoder with every row
    of degree m."""
    while True:
        coeffs = [[[rng.randrange(low, field.q) for _ in range(n)]
                   for _ in range(k)] for _ in range(m + 1)]
        if all(linalg.field_rank(field, blk) == k
               for blk in (coeffs[0], coeffs[m])):
            return coeffs


def poly_matrix(ring, coeffs):
    """PolyMatrix over a nu = 1 ring from residue-field codes."""
    entry = ring.residue.coords if isinstance(ring, rings.GaloisRing) else int
    return conv.PolyMatrix(
        ring, [linalg.RingMatrix(ring, [[entry(c) for c in row]
                                        for row in blk]) for blk in coeffs],
        k=len(coeffs[0]), n=len(coeffs[0][0]))


def distance_checks(code, profile, n, k, delta):
    """Profile against the per-j and generalized Singleton bounds, and
    monotone saturation."""
    nu = code.ring.nu
    params = linalg.parameters_of(code.encoder.coefficient(0))
    singleton = conv.generalized_singleton_bound(n, k, delta, nu)
    bounds = [conv.column_distance_bound(j, n, params, k)
              for j in range(len(profile))]
    for j, (d, b) in enumerate(zip(profile, bounds)):
        check(d <= b, f"d_{j}={d} exceeds the column-distance bound {b}")
        check(d <= singleton, f"d_{j}={d} exceeds Singleton {singleton}")
        if d == b:
            check(all(profile[i] == bounds[i] for i in range(j)),
                  f"saturation at j={j} is not monotone: {profile}")


# ---------------------------------------------------------------------------
# minors-ext

# criterion-10 (7,2,4) encoder over F_11^5: coefficient i holds
# (entries c, power of alpha); alpha is the class of z.
CRIT10 = (
    (((1, 2, 3, 4, 5, 6, 7), 0), ((1,) * 7, 0)),
    (((1, 8, 5, 9, 4, 7, 2), 1), ((1, 4, 9, 5, 3, 3, 5), 0)),
    (((1, 10, 1, 1, 1, 10, 10), 4), ((1, 5, 4, 3, 9, 9, 3), 2)),
)


def setup_minors_ext():
    return {"F5": rings.GaloisRing(11, 1, 5), "R5": rings.GaloisRing(11, 2, 5),
            "F2": rings.GaloisRing(11, 1, 2), "R2": rings.GaloisRing(11, 2, 2)}


# (n, k, delta) of the codes over F_11^5.  Random codes over a field this
# large are MDP but for a vanishing share, so each shape enumerates all its
# subsets at a cost that hardly depends on the inputs: about 0.065 s for
# (6,1,2), 0.26 s for (4,2,2) and 1.9 s for (4,1,3) (2-vCPU Xeon), and
# every (5,2,2) code over F_11^2 takes less than 0.04 s.
EXT_SHAPES = {"ext612": (6, 1, 2), "ext422": (4, 2, 2), "ext413": (4, 1, 3)}
# One round: four (5,2,2) codes over F_11^2, nine (6,1,2), six (4,2,2) and
# one (4,1,3) code over F_11^5.  The median falls inside the (6,1,2)
# codes and the tail, with five tasks a round beyond it, inside the
# (4,2,2) codes, whatever the seed and however many rounds a run decides.
MINORS_ROUND = ("sq522", "ext612", "ext422", "ext612", "ext612", "ext422",
                "sq522", "ext612", "ext422", "ext612", "ext413", "ext612",
                "ext422", "sq522", "ext612", "ext422", "ext612", "ext422",
                "sq522", "ext612")


def schedule_minors_ext(rng, ctx):
    """Prologue: criterion 10 and two (4,1,3) codes over F_11^2.  Rounds:
    MINORS_ROUND, each code drawn afresh."""
    f5, f2 = ctx["F5"].residue, ctx["F2"].residue
    yield [("crit10", None)] + [("sq413", random_encoder(rng, f2, 4, 1, 3))
                                for _ in range(2)]
    while True:
        rnd = []
        for kind in MINORS_ROUND:
            if kind == "sq522":
                rnd.append((kind, random_encoder(rng, f2, 5, 2, 1)))
            else:
                n, k, delta = EXT_SHAPES[kind]
                rnd.append((kind, random_encoder(rng, f5, n, k, delta // k)))
        yield rnd


def _crit10_coeffs(field):
    alpha = field.from_coords((0, 1, 0, 0, 0))
    return [[[field.mul(c % 11, field.pow(alpha, e)) if c % 11 else 0
              for c in row] for row, e in blk] for blk in CRIT10]


def run_minors_ext(ctx, kind, payload):
    field_ring, lift_ring = ((ctx["F5"], ctx["R5"])
                             if kind == "crit10" or kind.startswith("ext")
                             else (ctx["F2"], ctx["R2"]))
    coeffs = (_crit10_coeffs(field_ring.residue) if kind == "crit10"
              else payload)
    G = poly_matrix(field_ring, coeffs)
    field_code = conv.ConvCode(field_ring, G.n, G)
    via_field = conv.is_mdp(field_code, conv.MINORS)
    lifted = constructions.lift_from_residue_field(G, lift_ring)
    via_lift = conv.is_mdp(lifted, conv.MINORS)
    check(via_field == via_lift,
          f"{kind}: field verdict {via_field} but lift verdict {via_lift}")
    if kind == "crit10":
        check(via_field, "criterion-10 code is not MDP")
    return via_field


# ---------------------------------------------------------------------------
# distances-zp2

README_CODE = ([[1, 2, 1], [11, 22, 11]], [[1, 3, 4], [11, 33, 44]])


def setup_distances_zp2():
    return {"F2": rings.zmod(2), "Z4": rings.zmod(4),
            "F3": rings.zmod(3), "Z9": rings.zmod(9),
            "F11": rings.zmod(11), "Z121": rings.zmod(121),
            "F4": rings.TruncatedPolyRing(4, 1),
            "TP": rings.TruncatedPolyRing(4, 2)}


# (field ring, lift ring, largest j, lowest residue code drawn).  The Z121
# codes have no zero entry, so d_0 = n and each decides the whole profile
# and both MDP checks at one cost; with zeros allowed, the 40 % or so with
# d_0 < n exit early at half the cost, and the tail, which falls among the
# Z121 codes, would move with the seed's share of them.
DISTANCE_KINDS = {
    "z4": ("F2", "Z4", 3, 0),
    "z9": ("F3", "Z9", 3, 0),
    "z121": ("F11", "Z121", 1, 1),
    "tp42": ("F4", "TP", 2, 0),
}
# One round of (kind, n, m), with L <= j so that is_mdp by distances stays
# inside the profile's range: nine Z4 codes (about 0.01-0.025 s each,
# 2-vCPU Xeon), eight (3,1,1) tp(4,2) codes (0.15-0.18 s), two (2,1,1) Z9
# codes (0.25-0.31 s), six Z121 codes (0.5-0.6 s) and the README code.  The
# median falls in the middle of the tp(4,2) codes and the tail, with five
# tasks a round beyond it, inside the Z121 codes.
DISTANCE_ROUND = (("tp42", 3, 1), ("z4", 2, 1), ("z121", 3, 1),
                  ("tp42", 3, 1), ("z4", 3, 1), ("z9", 2, 1),
                  ("tp42", 3, 1), ("z4", 3, 2), ("z121", 3, 1),
                  ("tp42", 3, 1), ("z4", 2, 1), ("readme", 0, 0),
                  ("tp42", 3, 1), ("z4", 3, 1), ("z121", 3, 1),
                  ("z4", 3, 2), ("tp42", 3, 1), ("z9", 2, 1),
                  ("z121", 3, 1), ("z4", 2, 1), ("tp42", 3, 1),
                  ("z4", 3, 1), ("z121", 3, 1), ("tp42", 3, 1),
                  ("z4", 3, 2), ("z121", 3, 1))


def schedule_distances_zp2(rng, ctx):
    """No prologue; rounds of DISTANCE_ROUND, each code drawn afresh."""
    yield []
    while True:
        rnd = []
        for kind, n, m in DISTANCE_ROUND:
            if kind == "readme":
                rnd.append((kind, None))
                continue
            field_name, _, _, low = DISTANCE_KINDS[kind]
            rnd.append((kind, random_encoder(rng, ctx[field_name].residue,
                                             n, 1, m, low)))
        yield rnd


def run_distances_zp2(ctx, kind, payload):
    if kind == "readme":
        ring = ctx["Z121"]
        code = conv.ConvCode(ring, 3, conv.PolyMatrix(
            ring, [linalg.RingMatrix(ring, blk) for blk in README_CODE]))
        max_j, k, delta = 1, 2, 2
    else:
        field_name, lift_name, max_j, _ = DISTANCE_KINDS[kind]
        G = poly_matrix(ctx[field_name], payload)
        code = constructions.lift_from_residue_field(G, ctx[lift_name])
        k, delta = code.k, code.k * G.degree
    n = code.n
    profile = [conv.column_distance(code, j) for j in range(max_j + 1)]
    if kind == "readme":
        check(profile == [3, 5], f"README profile {profile} != [3, 5]")
    distance_checks(code, profile, n, k, delta)
    by_distances = conv.is_mdp(code, conv.DISTANCES)
    by_minors = conv.is_mdp(code, conv.MINORS)
    check(by_distances == by_minors,
          f"{kind}: distances say {by_distances}, minors say {by_minors}")
    return tuple(profile), by_minors


# ---------------------------------------------------------------------------
# superregular

GOLDEN_FIRST_ROW = (1, 2, 1, 1, 3, 4)
# the reversed golden matrix has exactly four proper minors divisible by 11
# over Z11 and Z121, so it is superregular but not reverse superregular
GOLDEN_REVERSE_NONUNITS = 4


def setup_superregular():
    return {"Z11": rings.zmod(11), "Z13": rings.zmod(13),
            "Z121": rings.zmod(121)}


def schedule_superregular(rng, ctx):
    """No prologue; each round decides twice the goldens, the extraction
    and six searches."""
    yield []
    while True:
        rnd = []
        for _ in range(2):
            rnd += [("golden", "Z11"), ("golden", "Z121"), ("extract", None)]
            for ring_name in ("Z11", "Z13", "Z121"):
                for ell in (4, 5):
                    rnd.append(("search", (ring_name, ell,
                                           rng.randrange(2 ** 31),
                                           SEARCH_BUDGET[ell])))
        yield rnd


SEARCH_BUDGET = {4: 150, 5: 200}


def run_superregular(ctx, kind, payload):
    if kind == "search":
        ring_name, ell, seed, budget = payload
        hits = constructions.search_superregular(
            ell, ctx[ring_name], strategy=constructions.RANDOM, seed=seed,
            budget=budget, reverse=True)
        for spec in hits:
            check(recheck_superregular(spec) == 0
                  and recheck_superregular(spec.reversed_spec()) == 0,
                  f"search hit {spec.first_row} is not reverse superregular")
        return len(hits)
    if kind == "golden":
        spec = constructions.ToeplitzSpec(ctx[payload], GOLDEN_FIRST_ROW)
        forward = constructions.is_gamma_superregular(spec, cross_check=False)
        reverse = constructions.is_reverse_gamma_superregular(
            spec, cross_check=False)
        check(forward and not reverse,
              f"golden over {payload}: superregular {forward}, "
              f"reverse {reverse}; expected True, False")
        check(recheck_superregular(spec) == 0,
              "golden matrix has a non-unit proper minor")
        got = recheck_superregular(spec.reversed_spec())
        check(got == GOLDEN_REVERSE_NONUNITS,
              f"reversed golden matrix has {got} non-unit proper minors")
        return forward, reverse
    # the (3,1,1) code extracted from the golden matrix, lifted to Z121
    spec = constructions.ToeplitzSpec(ctx["Z11"], GOLDEN_FIRST_ROW)
    G = constructions.extract_mdp_blocks(spec, n=3, k=1, L=1)
    code = constructions.lift_from_residue_field(G, ctx["Z121"])
    ring = ctx["Z121"]
    check([[list(r) for r in c.data] for c in code.encoder.coeffs]
          == [[[ring.coerce(x) for x in row] for row in blk]
              for blk in README_CODE],
          "extracted code differs from the README code")
    by_minors = conv.is_reverse_mdp(code, conv.MINORS)
    by_distances = conv.is_reverse_mdp(code, conv.DISTANCES)
    check(by_minors and by_distances,
          f"extracted code reverse-MDP: minors {by_minors}, "
          f"distances {by_distances}; expected True, True")
    return by_minors


# ---------------------------------------------------------------------------
# cli-session

def _ring_json(p, r):
    return {"family": "galois", "p": p, "r": r, "s": 1, "modulus": [0, 1],
            "convention": "digits"}


T6_Z11 = {"ring": _ring_json(11, 1), "first_row": list(GOLDEN_FIRST_ROW)}
# rows (1,0,2,4) and 3*(0,1,2,1) over Z9: the gamma-basis has three rows,
# 3*(1,0,2,4) + 2*(0,3,6,3) = (3,6,0,0) has weight 2 and no nonzero word
# has weight 1, so d = 2 < 4 - ceil(3/2) + 1 = 3; the matrix is already in
# standard form
Z9_MATRIX = {"ring": _ring_json(3, 2), "rows": 2, "cols": 4,
             "entries": [1, 0, 2, 4, 0, 3, 6, 3]}
SEARCH_CLI_BUDGET = 200


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_cli_session():
    return {"env": cli_env(), "code": None, "runner": None}


# Invocations of about 0.1 s (2-vCPU Xeon); `ring gr(11,2,5)` takes over
# 2 s and the others 0.3-0.4 s.  A round is the session, the session again
# without `ring gr(11,2,5)`, and the quick invocations a third time:
# eighteen quick tasks, eight of 0.3-0.4 s and one of over 2 s.  The
# median then falls at about the 78th percentile of the quick tasks, not
# at their top, where a few slow process starts would move it, and the
# tail, with five tasks a round beyond it, in the middle of the eight.
QUICK_CLI = ("ring_small", "construct", "blockcode", "bounds")


def schedule_cli_session(rng, ctx):
    """No prologue; rounds as above, only the search seeds vary."""
    yield []
    while True:
        yield (_cli_session(rng)
               + [task for task in _cli_session(rng) if task[0] != "ring"]
               + [task for task in _cli_session(rng)
                  if task[0] in QUICK_CLI])


def _cli_session(rng):
    seed = str(rng.randrange(2 ** 31))
    return [
        ("ring_small", (["ring", "--ring", "tp(4,2)"], None,
                        {"nu": 2, "q": 4, "size": 16, "gamma": [0, 1],
                         "transversal": [[0, 0], [1, 0], [2, 0],
                                         [3, 0]]})),
        ("construct", (["construct", "superregular", "--matrix", "-",
                        "--n", "3", "--k", "1", "--L", "1",
                        "--ring", "z121"], T6_Z11,
                       {"n": 3, "k": 2, "delta": 2})),
        ("ring", (["ring", "--ring", "gr(11,2,5)"], None,
                  {"nu": 2, "q": 11 ** 5, "size": 11 ** 10,
                   "gamma": [11, 0, 0, 0, 0]})),
        ("check", (["check", "mdp", "--code", "-", "--method", "both"],
                   "code", {"mdp": {"minors": True, "distances": True}})),
        ("blockcode", (["blockcode", "mindist", "--matrix", "-"],
                       Z9_MATRIX, {"min_distance": 2,
                                   "singleton_bound": 3,
                                   "is_mds": False})),
        ("check", (["check", "reverse-mdp", "--code", "-",
                    "--method", "both"], "code",
                   {"reverse-mdp": {"minors": True,
                                    "distances": True}})),
        ("construct", (["construct", "binomial", "--n", "3", "--k", "1",
                        "--delta", "1", "--p", "7", "--ring", "z49"],
                       None, {"n": 3, "k": 2, "delta": 2})),
        ("distances", (["distances", "--code", "-", "--max-j", "1"],
                       "code", {"profile": [3, 5],
                                "saturated": [True, True], "L": 1})),
        ("blockcode", (["blockcode", "standard-form", "--matrix", "-"],
                       Z9_MATRIX, {"standard_form": Z9_MATRIX,
                                   "column_permutation": [0, 1, 2, 3]})),
        ("search", (["search", "superregular", "--ell", "5", "--ring",
                     "z13", "--strategy", "random", "--seed", seed,
                     "--budget", str(SEARCH_CLI_BUDGET), "--reverse",
                     "--max-hits", str(SEARCH_CLI_BUDGET)], None, {})),
        ("bounds", (["bounds", "--n", "3", "--k", "2", "--delta", "2",
                     "--nu", "2"], None,
                    {"L": 1, "N": 0, "column_distance_bounds": [3, 5],
                     "generalized_singleton": 6, "field_L": 3,
                     "embedding_preserves_L": False})),
    ]


def _encoder_entries(code_json):
    return [blk["entries"] for blk in code_json["encoder"]["coeffs"]]


def _check_binomial(res):
    """(3,1,1) binomial encoder over F_7 lifted to Z49: coefficient i has
    binom(5, 3i + 2 + a - b) mod 7 at row a, column b (1-based), stacked
    with its multiple by 7."""
    layers = []
    for i in range(2):
        row = [comb(5, 3 * i + 3 - b) % 7 for b in range(1, 4)]
        layers.append(row + [7 * x for x in row])
    check(res["code"]["ring"] == _ring_json(7, 2)
          and _encoder_entries(res["code"]) == layers,
          f"binomial encoder {_encoder_entries(res['code'])} != {layers}")


def _check_search(res):
    hits = res["hits"]
    check(res["count"] == len(hits), "search listed fewer hits than found")
    z13 = rings.zmod(13)
    for hit in hits:
        spec = constructions.ToeplitzSpec(z13, tuple(hit["first_row"]))
        check(recheck_superregular(spec) == 0
              and recheck_superregular(spec.reversed_spec()) == 0,
              f"search hit {hit['first_row']} is not reverse superregular")


def cli_command(ctx, argv):
    """Plain `python -m chaincodes.cli`, or the tracing runner."""
    if ctx["runner"] is None:
        return [sys.executable, "-m", "chaincodes.cli", *argv]
    return [sys.executable, ctx["runner"], *argv]


def run_cli_session(ctx, kind, payload):
    """One fresh CLI process.  Its wall time is stored in ctx["wall"] and
    its standard error in ctx["stderr"]; the checks run after the clock
    stops."""
    argv, stdin, golden = payload
    if stdin == "code":
        check(ctx["code"] is not None, "no constructed code to check")
        stdin = ctx["code"]
    elif stdin is not None:
        stdin = json.dumps(stdin)
    start = time.perf_counter()
    proc = subprocess.run(cli_command(ctx, argv), input=stdin,
                          capture_output=True, text=True, cwd=str(ROOT),
                          env=ctx["env"], timeout=120)
    ctx["wall"] = time.perf_counter() - start
    ctx["stderr"] = proc.stderr
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        raise Mismatch(f"{argv[0]}: stdout is not exactly one JSON document")
    res = doc.get("results", {})
    check(proc.returncode == 0,
          f"{' '.join(argv[:2])} exited {proc.returncode}: {res}")
    got = {key: res.get(key) for key in golden}
    check(got == golden, f"{' '.join(argv[:2])}: {got} != {golden}")
    if argv[:2] == ["construct", "superregular"]:
        check(res["code"]["ring"] == _ring_json(11, 2)
              and _encoder_entries(res["code"])
              == [[x for row in blk for x in row] for blk in README_CODE],
              "constructed code differs from the README code")
        ctx["code"] = proc.stdout
    elif argv[:2] == ["construct", "binomial"]:
        _check_binomial(res)
    elif kind == "search":
        _check_search(res)
    return res.get("count", True)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    setup: object
    schedule: object
    run: object
    # True when a task's time is the wall time of its child process
    process_wall: bool = False


WORKLOADS = {
    "minors-ext": Workload(setup_minors_ext, schedule_minors_ext,
                           run_minors_ext),
    "distances-zp2": Workload(setup_distances_zp2, schedule_distances_zp2,
                              run_distances_zp2),
    "superregular": Workload(setup_superregular, schedule_superregular,
                             run_superregular),
    "cli-session": Workload(setup_cli_session, schedule_cli_session,
                            run_cli_session, process_wall=True),
}

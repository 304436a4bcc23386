import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from chaincodes import (GaloisRing, TruncatedPolyRing, constructions, linalg,
                        zmod)
from chaincodes.constructions import (EXHAUSTIVE, RANDOM, ROWS_EXAMPLE,
                                      ROWS_FORMULA, ToeplitzSpec,
                                      binomial_bound, binomial_encoder,
                                      binomial_field_large_enough,
                                      extract_mdp_blocks, is_gamma_superregular,
                                      is_proper, is_reverse_gamma_superregular,
                                      lift_from_residue_field, lift_matrix,
                                      proper_index_pairs, search_superregular,
                                      stack_gamma_layers)
from chaincodes.conv import MINORS, ConvCode, PolyMatrix, is_mdp, \
    is_reverse_mdp
from chaincodes.errors import (BadCounts, BudgetExceeded, CrossCheckFailed,
                               DependentRows, InvalidParams, NotSuperregular,
                               SizeMismatch)
from chaincodes.linalg import (RingMatrix, is_gamma_generator_sequence,
                               is_gamma_linearly_independent)
from oracles import (proper_index_pairs_by_generator,
                     superregular_minor_valuations)


def M(ring, rows):
    return RingMatrix(ring, rows)


@pytest.fixture(scope="module")
def z11():
    return zmod(11)


@pytest.fixture(scope="module")
def z121():
    return zmod(121)


@pytest.fixture(scope="module")
def toeplitz6(z11):
    return ToeplitzSpec(z11, (1, 2, 1, 1, 3, 4))


# ------------------------------------------------------- Toeplitz basics

def test_materialize(z11):
    A = ToeplitzSpec(z11, (1, 2, 3)).materialize()
    assert [[e[0] for e in row] for row in A.data] == \
        [[1, 2, 3], [0, 1, 2], [0, 0, 1]]


def test_json_round_trip(toeplitz6):
    clone = ToeplitzSpec.from_json(toeplitz6.to_json())
    assert clone == toeplitz6


def test_is_proper():
    assert is_proper((1, 3), (2, 3))
    assert not is_proper((2, 3), (1, 3))
    with pytest.raises(SizeMismatch):
        is_proper((1,), (1, 2))
    with pytest.raises(SizeMismatch):
        is_proper((2, 1), (1, 2))


def test_proper_index_pair_counts():
    assert sum(1 for _ in proper_index_pairs(3)) == 13
    assert sum(1 for _ in proper_index_pairs(6)) == 428


def test_proper_index_pairs_are_built_once_in_generator_order():
    for ell in range(1, 8):
        pairs = proper_index_pairs(ell)
        assert pairs == tuple(proper_index_pairs_by_generator(ell)), ell
        assert proper_index_pairs(ell) is pairs


# ------------------------------------------------------- superregularity

def test_example_matrix_superregular(toeplitz6, z121):
    # residue and exact-ring determinant paths are cross-checked inside
    assert is_gamma_superregular(toeplitz6)
    assert is_gamma_superregular(ToeplitzSpec(z121, (1, 2, 1, 1, 3, 4)))


def test_example_matrix_not_reverse_superregular(toeplitz6):
    # the coefficient-reversed matrix has vanishing proper minors, e.g.
    # rows (1,2,4) x columns (2,5,6) of (4,3,1,1,2,1) has determinant -11
    assert not is_gamma_superregular(toeplitz6.reversed_spec())
    assert not is_reverse_gamma_superregular(toeplitz6)
    vals = superregular_minor_valuations(toeplitz6.reversed_spec())
    bad = [pair for pair, v in vals.items() if v > 0]
    assert ((1, 2, 4), (2, 5, 6)) in bad
    assert len(bad) == 4


def test_walk_matches_minor_oracle():
    # entries are mostly units, so that many verdicts are decided deep in
    # the walk; half the rows are grown one entry at a time while they stay
    # superregular, so their first non-unit minor involves the last column
    rng = random.Random(606)
    rings = [zmod(7), zmod(11), zmod(13), zmod(121), GaloisRing(2, 2, 2),
             TruncatedPolyRing(4, 2)]
    for ring in rings:
        els = list(ring.elements())
        units = [e for e in els if ring.valuation(e) == 0]
        verdicts = {True: 0, False: 0}
        grown = (ring.one,)
        for trial in range(120):
            if trial % 2:
                first = grown = grown + tuple(
                    rng.choice(units) for _ in range(max(1, 3 - len(grown))))
            else:
                first = (ring.one,) + tuple(
                    rng.choice(units if rng.random() < 0.9 else els)
                    for _ in range(2 + trial // 2 % 4))
            spec = ToeplitzSpec(ring, first)
            want = all(v == 0 for v in
                       superregular_minor_valuations(spec).values())
            assert is_gamma_superregular(spec, cross_check=False) == want, \
                (ring, first)
            verdicts[want] += 1
            if first is grown and (not want or len(grown) == 6):
                grown = (ring.one,)
        assert min(verdicts.values()) >= 15, (ring, verdicts)


def test_walk_visits_each_proper_pair_with_first_row_one_once(
        monkeypatch, toeplitz6):
    # a node clears its column unless it is in the last column, so on a
    # superregular matrix the clears count the pairs with i_1 = 1, j_s < 6
    calls = []
    clear = constructions.field_clear_column

    def counting(field, rows, start, prow, c):
        calls.append(c)
        clear(field, rows, start, prow, c)

    monkeypatch.setattr(constructions, "field_clear_column", counting)
    assert is_gamma_superregular(toeplitz6, cross_check=False)
    assert len(calls) == sum(1 for I, J in proper_index_pairs(6)
                             if I[0] == 1 and J[-1] < 6) == 90


@pytest.mark.parametrize("first, fake_det", [((1, 2, 1), 0),
                                             ((1, 0, 1), 1)])
def test_cross_check_reads_ring_determinants(monkeypatch, z11, first,
                                             fake_det):
    # the ring path goes through linalg.determinant, so a determinant that
    # disagrees with the residue field in either direction is caught
    monkeypatch.setattr(linalg, "determinant",
                        lambda A: z11.coerce(fake_det))
    spec = ToeplitzSpec(z11, first)
    assert is_gamma_superregular(spec, cross_check=False) is (fake_det == 0)
    with pytest.raises(CrossCheckFailed):
        is_gamma_superregular(spec, cross_check=True)


def test_superregular_iff_residue_superregular(z121, z11):
    rng = random.Random(29)
    for _ in range(40):
        first = (1,) + tuple(rng.randrange(121) for _ in range(3))
        ring_spec = ToeplitzSpec(z121, first)
        res_spec = ToeplitzSpec(z11, tuple(a % 11 for a in first))
        assert is_gamma_superregular(ring_spec) == \
            is_gamma_superregular(res_spec)


# ------------------------------------------------------- layer stacking

def test_stack_gamma_layers_identity(zmod_ring=zmod(4)):
    ring = zmod_ring
    out = stack_gamma_layers(RingMatrix.identity(ring, 2), (2, 2))
    assert [[e[0] for e in row] for row in out.data] == \
        [[1, 0], [0, 1], [2, 0], [0, 2]]


def test_stack_gamma_layers_errors():
    z4 = zmod(4)
    I2 = RingMatrix.identity(z4, 2)
    with pytest.raises(BadCounts):
        stack_gamma_layers(I2, (2,))
    with pytest.raises(BadCounts):
        stack_gamma_layers(I2, (2, 1))
    with pytest.raises(BadCounts):
        stack_gamma_layers(I2, (0, 2))
    with pytest.raises(BadCounts):
        stack_gamma_layers(M(z4, [[1, 0]]), (1, 1))
    with pytest.raises(DependentRows):
        stack_gamma_layers(M(z4, [[2, 0], [0, 1]]), (1, 1))


def test_stack_output_is_gamma_basis_random():
    rng = random.Random(61)
    checked = 0
    for ring in (zmod(4), zmod(9), TruncatedPolyRing(4, 2)):
        els = list(ring.elements())
        done = 0
        while done < 70:
            A = M(ring, [[rng.choice(els) for _ in range(2)]
                         for _ in range(2)])
            counts = tuple(sorted(rng.randint(1, 2) for _ in range(2)))
            try:
                out = stack_gamma_layers(A, counts)
            except DependentRows:
                continue
            assert is_gamma_generator_sequence(out)
            assert is_gamma_linearly_independent(out)
            done += 1
        checked += done
    assert checked >= 200


# ------------------------------------------------------- lifting

def test_lift_matrix(z11, z121):
    lifted = lift_matrix(M(z11, [[1, 10], [0, 5]]), z121)
    assert [[e[0] for e in row] for row in lifted.data] == \
        [[1, 10], [0, 5]]


def test_lift_matrix_rejects_residue_mismatch(z11):
    with pytest.raises(InvalidParams):
        lift_matrix(M(z11, [[1]]), zmod(9))


def test_lift_from_residue_field_layers(z11, z121):
    Gt = PolyMatrix(z11, [M(z11, [[1, 2, 1]]), M(z11, [[1, 3, 4]])])
    C = lift_from_residue_field(Gt, z121)
    assert C.k == 2 and C.delta == 2
    got = [[[e[0] for e in row] for row in c.data] for c in C.encoder.coeffs]
    assert got == [[[1, 2, 1], [11, 22, 11]], [[1, 3, 4], [11, 33, 44]]]
    assert is_reverse_mdp(C)


# ------------------------------------------------------- binomial encoders

def test_binomial_encoder_values():
    enc, warnings = binomial_encoder(3, 1, 1, 11)
    assert [[e[0] for e in m.data[0]] for m in enc.coeffs] == \
        [[10, 5, 1], [1, 5, 10]]
    assert len(warnings) == 1  # 11 is below the sufficient field size
    enc7, _ = binomial_encoder(3, 1, 1, 7)
    assert [[e[0] for e in m.data[0]] for m in enc7.coeffs] == \
        [[3, 5, 1], [1, 5, 3]]


def test_binomial_encoder_rejects_bad_params():
    with pytest.raises(InvalidParams):
        binomial_encoder(3, 2, 3, 11)  # k does not divide delta
    with pytest.raises(InvalidParams):
        binomial_encoder(2, 2, 2, 11)  # k = n


def test_binomial_bound_exact():
    assert binomial_bound(3, 1, 1) == 200
    assert binomial_field_large_enough(3, 1, 1, 211)
    assert not binomial_field_large_enough(3, 1, 1, 199)


@pytest.mark.parametrize("n, k, delta", [(3, 2, 3), (2, 2, 2), (3, 0, 0),
                                          (3, 1, -1)])
def test_binomial_bound_and_field_size_reject_bad_params(n, k, delta):
    with pytest.raises(InvalidParams):
        binomial_bound(n, k, delta)
    with pytest.raises(InvalidParams):
        binomial_field_large_enough(n, k, delta, 211)


def test_binomial_field_size_is_p_above_the_bound():
    for n, k, delta in ((3, 1, 1), (4, 2, 2), (5, 2, 4), (4, 1, 2)):
        bound = binomial_bound(n, k, delta)
        assert binomial_field_large_enough(n, k, delta, bound + 1)
        assert not binomial_field_large_enough(n, k, delta, bound)


def binomial_field_code(n, k, delta, p):
    Fp = GaloisRing(p, 1, 1)
    enc, _ = binomial_encoder(n, k, delta, p)
    coeffs = [M(Fp, [[e[0] for e in row] for row in m.data])
              for m in enc.coeffs]
    return ConvCode(Fp, n, PolyMatrix(Fp, coeffs))


def test_binomial_codes_are_reverse_mdp():
    # the sufficient field size (200 here) is far from strict: small
    # primes often work, and over 211 the construction is guaranteed
    for p in (7, 13, 211):
        field_code = binomial_field_code(3, 1, 1, p)
        assert is_reverse_mdp(field_code)
        lifted = lift_from_residue_field(field_code.encoder,
                                         GaloisRing(p, 2, 1))
        assert is_reverse_mdp(lifted)


def test_binomial_code_can_fail_below_bound():
    # over F_11 an admissible minor (10*10 - 1*1 = 99) vanishes
    assert not is_mdp(binomial_field_code(3, 1, 1, 11), MINORS)


# ------------------------------------------------------- block extraction

def test_extract_blocks_example_rows(toeplitz6, z121):
    Gt = extract_mdp_blocks(toeplitz6, n=3, k=1, L=1, rows=ROWS_EXAMPLE)
    got = [[[e[0] for e in row] for row in c.data] for c in Gt.coeffs]
    assert got == [[[1, 2, 1]], [[1, 3, 4]]]
    lifted = lift_from_residue_field(Gt, z121)
    assert is_mdp(lifted, MINORS)
    assert is_reverse_mdp(lifted)


def test_extract_blocks_formula_rows(toeplitz6):
    # the alternative row convention picks blocks whose admissible minors
    # are not all units on this matrix, so the assertion must be disabled
    Gt = extract_mdp_blocks(toeplitz6, n=3, k=1, L=1, rows=ROWS_FORMULA,
                            assert_minors=False)
    got = [[[e[0] for e in row] for row in c.data] for c in Gt.coeffs]
    assert got == [[[0, 0, 1]], [[2, 1, 1]]]
    with pytest.raises(NotSuperregular):
        extract_mdp_blocks(toeplitz6, n=3, k=1, L=1, rows=ROWS_FORMULA)


def test_extract_blocks_size_check(toeplitz6):
    with pytest.raises(SizeMismatch):
        extract_mdp_blocks(toeplitz6, n=3, k=2, L=1)


def test_extract_blocks_requires_superregular(z11):
    spec = ToeplitzSpec(z11, (1, 0, 0, 0, 0, 0))
    with pytest.raises(NotSuperregular):
        extract_mdp_blocks(spec, n=3, k=1, L=1)


def test_extraction_checks_minors_without_the_superregular_check(z11):
    # with the Toeplitz check off, the admissible minors of the extracted
    # matrix still refuse a matrix that is not superregular
    spec = ToeplitzSpec(z11, (1, 0, 0, 0, 0, 0))
    with pytest.raises(NotSuperregular):
        extract_mdp_blocks(spec, n=3, k=1, L=1, check_superregular=False)
    Gt = extract_mdp_blocks(spec, n=3, k=1, L=1, check_superregular=False,
                            assert_minors=False)
    assert Gt.degree == 0
    assert [[e[0] for e in row] for row in Gt.coefficient(0).data] == \
        [[1, 0, 0]]


# ------------------------------------------------------- search

def test_search_exhaustive_f2():
    hits = search_superregular(2, zmod(2), strategy=EXHAUSTIVE)
    assert [h.first_row for h in hits] == [((1,), (1,))]
    assert search_superregular(3, zmod(2), strategy=EXHAUSTIVE) == []


def test_search_exhaustive_budget():
    with pytest.raises(BudgetExceeded) as exc:
        search_superregular(6, zmod(11), strategy=EXHAUSTIVE, budget=10)
    assert (exc.value.requested, exc.value.allowed) == (11 ** 5, 10)


def test_search_random_requires_seed(z11):
    with pytest.raises(InvalidParams):
        search_superregular(3, z11, strategy=RANDOM)


def test_search_random_reverse(z11):
    hits = search_superregular(3, z11, strategy=RANDOM, seed=1, budget=60,
                               reverse=True)
    assert len(hits) == 36
    for spec in hits[:5]:
        assert is_reverse_gamma_superregular(spec)
    # deterministic under the seed
    again = search_superregular(3, z11, strategy=RANDOM, seed=1, budget=60,
                                reverse=True)
    assert [h.first_row for h in again] == [h.first_row for h in hits]


def _distinct_draws(ell, ring, seed, budget):
    """The tails of `budget` seeded draws, each the first time it is
    drawn."""
    rng = random.Random(seed)
    els = list(ring.elements())
    tails = []
    for _ in range(budget):
        tail = tuple(rng.choice(els) for _ in range(ell - 1))
        if tail not in tails:
            tails.append(tail)
    return tails


@pytest.mark.parametrize("ell, ring, seed, budget", [
    (3, zmod(11), 1, 60), (4, zmod(13), 5, 150), (4, zmod(121), 9, 150),
    (3, GaloisRing(2, 2, 2), 2, 100), (3, TruncatedPolyRing(4, 2), 3, 80)],
    ids=repr)
def test_search_candidates_are_the_distinct_draws_or_all_tails(ell, ring,
                                                                seed, budget):
    for reverse in (False, True):
        check = is_reverse_gamma_superregular if reverse \
            else is_gamma_superregular
        want = [(ring.one,) + t for t in _distinct_draws(ell, ring, seed,
                                                          budget)
                if check(ToeplitzSpec(ring, (ring.one,) + t))]
        hits = search_superregular(ell, ring, strategy=RANDOM, seed=seed,
                                   budget=budget, reverse=reverse)
        assert [h.first_row for h in hits] == want
        if ring.size() ** (ell - 1) <= 400:
            want = [(ring.one,) + t
                    for t in product(ring.elements(), repeat=ell - 1)
                    if check(ToeplitzSpec(ring, (ring.one,) + t))]
            hits = search_superregular(ell, ring, reverse=reverse)
            assert [h.first_row for h in hits] == want


# determinant is patched to a non-unit, so the ring path disagrees with the
# residue path on the unit minor [1]; python -O must not silence that
CROSS_CHECK_UNDER_O = """
import contextlib, io, json
from chaincodes import linalg, zmod
from chaincodes.cli import main
from chaincodes.constructions import ToeplitzSpec, is_gamma_superregular
from chaincodes.errors import CrossCheckFailed
ring = zmod(11)
linalg.determinant = lambda A: ring.zero
try:
    is_gamma_superregular(ToeplitzSpec(ring, (1, 2, 1)), cross_check=True)
    raised = False
except CrossCheckFailed:
    raised = True
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["search", "superregular", "--ell", "3", "--ring", "z11"])
print(json.dumps({"debug": __debug__, "raised": raised, "exit": code,
                  "error": json.loads(out.getvalue())["results"]["error"]}))
"""


def test_cross_checks_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", CROSS_CHECK_UNDER_O],
                          capture_output=True, text=True, env=env,
                          check=True)
    got = json.loads(proc.stdout)
    assert got["debug"] is False
    assert got["raised"] is True
    assert got["exit"] == 2
    assert got["error"]["type"] == "CrossCheckFailed"

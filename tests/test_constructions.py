import json
import os
import random
import subprocess
import sys
from itertools import product
from math import comb
from pathlib import Path

import pytest

from chaincodes import (GaloisRing, TruncatedPolyRing, constructions, linalg,
                        residue_ring, zmod)
from chaincodes.constructions import (EXHAUSTIVE, RANDOM, ToeplitzSpec,
                                      binomial_bound, binomial_encoder,
                                      extract_mdp_blocks, is_gamma_superregular,
                                      is_proper, is_reverse_gamma_superregular,
                                      lift_from_residue_field, lift_matrix,
                                      proper_index_pairs, search_superregular,
                                      stack_gamma_layers)
from chaincodes.conv import MINORS, ConvCode, PolyMatrix, gamma_degree, \
    is_mdp, is_reduced, is_reverse_mdp
from chaincodes.errors import (BadCounts, BudgetExceeded, CrossCheckFailed,
                               DependentRows, InvalidParams, NotReduced,
                               NotSuperregular, SizeMismatch)
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


def test_toeplitz_spec_is_an_immutable_value(z11, toeplitz6):
    spec = ToeplitzSpec(ring=z11, first_row=[12, 2, 1, 1, 3, 4])
    assert spec.first_row == ((1,), (2,), (1,), (1,), (3,), (4,))
    assert spec == toeplitz6 and hash(spec) == hash(toeplitz6)
    assert spec != ToeplitzSpec(z11, (1, 2, 1, 1, 3, 5))
    assert spec.size == 6
    with pytest.raises(AttributeError):
        spec.first_row = ()


@pytest.mark.parametrize("obj", [{}, {"ring": {"family": "galois", "p": 11,
                                              "r": 1, "s": 1}},
                                 {"ring": [1], "first_row": [1]}])
def test_toeplitz_from_malformed_json_is_invalid_params(obj):
    with pytest.raises(InvalidParams):
        ToeplitzSpec.from_json(obj)


def test_json_round_trip(toeplitz6):
    clone = ToeplitzSpec.from_json(toeplitz6.to_json())
    assert clone == toeplitz6


@pytest.mark.parametrize("ring", [
    zmod(9), GaloisRing(2, 2, 2), GaloisRing(3, 2, 2),
    TruncatedPolyRing(4, 2), TruncatedPolyRing(2, 3)], ids=repr)
def test_json_round_trips_over_every_ring_family(ring):
    # through json text, entries of several coordinates come back as lists
    # and each object reads its ring from its own descriptor
    rng = random.Random(repr(ring))
    elements = list(ring.elements())
    A = RingMatrix(ring, [rng.choices(elements, k=3) for _ in range(2)])
    spec = ToeplitzSpec(ring, rng.choices(elements, k=4))
    field = residue_ring(ring)
    units = [e for e in field.elements() if any(e)]
    encoder = PolyMatrix(field, [
        M(field, [rng.choices(list(field.elements()), k=3)]),
        M(field, [rng.choices(units, k=3)])])
    code = lift_from_residue_field(encoder, ring)
    assert code.k == ring.nu

    def again(obj):
        return json.loads(json.dumps(obj.to_json()))

    assert RingMatrix.from_json(again(A)) == A
    assert ToeplitzSpec.from_json(again(spec)) == spec
    clone = ConvCode.from_json(again(code))
    assert (clone.ring, clone.n, clone.encoder) == \
        (code.ring, code.n, code.encoder)


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


def test_the_empty_toeplitz_matrix_has_no_minor(z11, z121):
    # proper_index_pairs(0) is empty, so every proper minor is a unit
    assert proper_index_pairs(0) == ()
    for ring in (z11, z121):
        empty = ToeplitzSpec(ring, ())
        for cross_check in (False, True):
            assert is_gamma_superregular(empty, cross_check=cross_check)
            assert is_reverse_gamma_superregular(empty,
                                                 cross_check=cross_check)


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
    field = toeplitz6.ring.residue
    clear = field.walk_clear

    def counting(rows, start, prow, c):
        calls.append(c)
        clear(rows, start, prow, c)

    monkeypatch.setattr(field, "walk_clear", counting)
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


def test_walk_projects_the_first_row_only(monkeypatch):
    # the walk's residue rows come from the ell projected entries of the
    # first row; only the cross-check reads the ring matrix
    z121 = zmod(121)
    real, projected = z121.project, []

    def counting(a):
        projected.append(a)
        return real(a)

    monkeypatch.setattr(z121, "project", counting)
    monkeypatch.setattr(ToeplitzSpec, "materialize", None)
    spec = ToeplitzSpec(z121, (1, 2, 1, 1, 3))
    assert is_gamma_superregular(spec, cross_check=False)
    assert projected == list(spec.first_row)


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


def test_lift_matrix_rejects_residue_mismatch(z11, z121):
    with pytest.raises(InvalidParams):
        lift_matrix(M(z11, [[1]]), zmod(9))
    # a source with nu > 1 is refused, not projected
    with pytest.raises(InvalidParams, match="nu=1"):
        lift_matrix(M(z121, [[12]]), zmod(1331))


def test_lift_from_residue_field_refuses_a_source_with_nu_above_1(z121):
    # projecting would turn the entry 12 into 1; the refusal comes before
    # the source is checked for reducedness
    G = PolyMatrix(z121, [M(z121, [[1, 12, 1]]), M(z121, [[1, 3, 4]])])
    with pytest.raises(InvalidParams, match="nu=1"):
        lift_from_residue_field(G, zmod(1331))
    not_reduced = PolyMatrix(z121, [M(z121, [[1, 12], [2, 24]])])
    with pytest.raises(InvalidParams, match="nu=1"):
        lift_from_residue_field(not_reduced, zmod(1331))


def test_lift_from_residue_field_refuses_an_encoder_that_is_not_reduced():
    # rows (1, 1 + z) and (0, z) over Z5: the leading rows are (0, 1) twice
    z5 = zmod(5)
    G = PolyMatrix(z5, [M(z5, [[1, 1], [0, 0]]), M(z5, [[0, 1], [0, 1]])])
    with pytest.raises(NotReduced):
        lift_from_residue_field(G, zmod(25))


def test_lift_from_residue_field_layers(z11, z121):
    Gt = PolyMatrix(z11, [M(z11, [[1, 2, 1]]), M(z11, [[1, 3, 4]])])
    C = lift_from_residue_field(Gt, z121)
    assert C.k == 2 and C.delta == 2
    got = [[[e[0] for e in row] for row in c.data] for c in C.encoder.coeffs]
    assert got == [[[1, 2, 1], [11, 22, 11]], [[1, 3, 4], [11, 33, 44]]]
    assert is_reverse_mdp(C)


@pytest.mark.parametrize("ring", [
    zmod(8), zmod(9), GaloisRing(2, 2, 2), GaloisRing(3, 2, 2),
    TruncatedPolyRing(4, 2), TruncatedPolyRing(2, 3)], ids=repr)
def test_lift_blocks_are_gamma_layers_of_the_lifted_coefficients(ring):
    # block i is lift(G~_i), gamma lift(G~_i), ..., layer by layer
    rng = random.Random(24)
    field = residue_ring(ring)
    els = list(field.elements())
    powers = [ring.one]
    while len(powers) < ring.nu:
        powers.append(ring.mul(powers[-1], ring.gamma))
    lifted = 0
    while lifted < 6:
        kt = 1 + lifted % 2
        n = rng.randint(kt + 1, 3)
        Gt = PolyMatrix(field, [M(field, [[rng.choice(els) for _ in range(n)]
                                          for _ in range(kt)])
                                for _ in range(rng.randint(1, 3))], k=kt, n=n)
        if not is_reduced(Gt):
            continue
        C = lift_from_residue_field(Gt, ring)
        assert (C.k, C.encoder.degree) == (ring.nu * kt, Gt.degree)
        for Gi, block in zip(Gt.coeffs, C.encoder.coeffs, strict=True):
            assert block.data == tuple(
                tuple(ring.mul(g, ring.lift(field.project(e))) for e in row)
                for g in powers for row in Gi.data)
        lifted += 1


@pytest.mark.parametrize("ring", [
    zmod(4), zmod(9), zmod(27), zmod(121), GaloisRing(2, 2, 2),
    TruncatedPolyRing(4, 2), TruncatedPolyRing(2, 3)], ids=repr)
def test_a_lift_is_known_to_be_reduced(ring, monkeypatch):
    # the lift keeps the reducedness its field encoder proved: the code's
    # answers are the encoder's, and neither reduced() nor delta decides
    # it again
    from chaincodes import conv
    rng = random.Random(25)
    field = residue_ring(ring)
    els = list(field.elements())
    calls = []
    real = conv.is_reduced

    def counting(G):
        calls.append(G)
        return real(G)

    lifted = 0
    while lifted < 4:
        kt = 1 + lifted % 2
        n = rng.randint(kt + 1, 3)
        Gt = PolyMatrix(field, [M(field, [[rng.choice(els) for _ in range(n)]
                                          for _ in range(kt)])
                                for _ in range(rng.randint(1, 2))], k=kt, n=n)
        if None in map(Gt.row_degree, range(kt)) or not is_reduced(Gt):
            continue
        monkeypatch.setattr(conv, "is_reduced", counting)
        C = lift_from_residue_field(Gt, ring)
        answers = C.reduced(), C.delta
        monkeypatch.setattr(conv, "is_reduced", real)
        assert calls == []
        assert answers == (is_reduced(C.encoder), gamma_degree(C.encoder))
        assert answers == (True, ring.nu * sum(Gt.row_degrees()))
        lifted += 1


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


@pytest.mark.parametrize("p", [4, 9])
def test_binomial_encoder_rejects_a_prime_power(p):
    with pytest.raises(InvalidParams, match=f"p={p}"):
        binomial_encoder(3, 1, 1, p)


def test_binomial_bound_exact():
    assert binomial_bound(3, 1, 1) == 200
    # the encoder warns exactly when p does not exceed the bound
    assert binomial_encoder(3, 1, 1, 211)[1] == []
    assert "200" in binomial_encoder(3, 1, 1, 199)[1][0]


@pytest.mark.parametrize("n, k, delta", [(3, 2, 3), (2, 2, 2), (3, 0, 0),
                                          (3, 1, -1)])
def test_binomial_bound_and_field_size_reject_bad_params(n, k, delta):
    with pytest.raises(InvalidParams):
        binomial_bound(n, k, delta)
    with pytest.raises(InvalidParams):
        binomial_encoder(n, k, delta, 211)


def test_binomial_field_size_is_p_above_the_bound():
    # p > bound is the exact comparison p^2 > b^(2e) e^e, also for the odd
    # e of (4, 1, 2), where the bound is the floor of an irrational number
    for n, k, delta, odd in ((3, 1, 1, False), (4, 2, 2, False),
                             (5, 2, 4, False), (4, 1, 2, True)):
        m = delta // k
        M = m * n + n - k
        b, e = comb(M, M // 2), k * (m + delta // (n - k) + 1)
        assert e % 2 == odd
        bound = binomial_bound(n, k, delta)
        for p in (bound - 1, bound, bound + 1):
            assert (p > bound) == (p ** 2 > b ** (2 * e) * e ** e)


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
    Gt = extract_mdp_blocks(toeplitz6, n=3, k=1, L=1)
    got = [[[e[0] for e in row] for row in c.data] for c in Gt.coeffs]
    assert got == [[[1, 2, 1]], [[1, 3, 4]]]
    lifted = lift_from_residue_field(Gt, z121)
    assert is_mdp(lifted, MINORS)
    assert is_reverse_mdp(lifted)


def test_extract_blocks_size_check(toeplitz6):
    with pytest.raises(SizeMismatch):
        extract_mdp_blocks(toeplitz6, n=3, k=2, L=1)


@pytest.mark.parametrize("first_row, n, k, L", [
    ((1,), 0, 0, -2), ((1,), 3, -1, 0), ((1, 2, 1, 1, 3, 4), 1, 2, 2),
    ((1, 2, 1, 1, 3, 4), 3, 1, -1), ((), 1, 0, 0), ((), 0, 1, 1)],
    ids=lambda x: f"ell={len(x)}" if isinstance(x, tuple) else str(x))
def test_extract_blocks_needs_1_le_k_le_n_and_L_ge_0(z11, first_row, n, k,
                                                      L):
    # checked before the size check and any walk: (L+1)(n+k-1) matches
    # the first three rows, and is 0 for the empty ones
    with pytest.raises(InvalidParams, match="1 <= k <= n and L >= 0"):
        extract_mdp_blocks(ToeplitzSpec(z11, first_row), n=n, k=k, L=L)


def test_extract_blocks_requires_superregular(z11):
    spec = ToeplitzSpec(z11, (1, 0, 0, 0, 0, 0))
    with pytest.raises(NotSuperregular):
        extract_mdp_blocks(spec, n=3, k=1, L=1)


def test_extraction_checks_minors_without_the_superregular_check(
        z11, monkeypatch):
    # with the Toeplitz check passed over, the admissible minors of the
    # extracted matrix still refuse a matrix that is not superregular
    spec = ToeplitzSpec(z11, (1, 0, 0, 0, 0, 0))
    monkeypatch.setattr(constructions, "is_gamma_superregular",
                        lambda spec, cross_check: True)
    with pytest.raises(NotSuperregular):
        extract_mdp_blocks(spec, n=3, k=1, L=1)
    monkeypatch.setattr(constructions, "_minors_condition",
                        lambda field, rows, L, n, k0: True)
    Gt = extract_mdp_blocks(spec, n=3, k=1, L=1)
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


@pytest.mark.parametrize("strategy", [EXHAUSTIVE, RANDOM])
def test_search_needs_a_positive_ell(z11, strategy):
    with pytest.raises(InvalidParams, match="ell >= 1"):
        search_superregular(0, z11, strategy=strategy, seed=1)


def test_search_random_requires_seed(z11):
    with pytest.raises(InvalidParams):
        search_superregular(3, z11, strategy=RANDOM)
    with pytest.raises(InvalidParams, match="unknown strategy 'greedy'"):
        search_superregular(3, z11, strategy="greedy", seed=1)


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
    (3, GaloisRing(2, 2, 2), 2, 100), (3, TruncatedPolyRing(4, 2), 3, 80),
    (1, zmod(13), 4, 5), (1, TruncatedPolyRing(4, 2), 6, 3)],
    ids=repr)
def test_search_candidates_are_the_distinct_draws_or_all_tails(
        ell, ring, seed, budget, monkeypatch):
    coerced = []
    real = type(ring).coerce
    monkeypatch.setattr(type(ring), "coerce",
                        lambda self, x: coerced.append(x) or real(self, x))

    def unlisted(self):
        raise AssertionError("a random search listed the ring")

    def searched(**kwargs):
        # the tails are canonical elements: no candidate, nor its reverse,
        # is coerced again during a search; a random one draws element
        # indices and never lists R
        before = len(coerced)
        with monkeypatch.context() as patch:
            if kwargs.get("strategy") == RANDOM:
                patch.setattr(type(ring), "elements", unlisted)
            hits = search_superregular(ell, ring, reverse=reverse, **kwargs)
        assert len(coerced) == before
        return hits

    for reverse in (False, True):
        check = is_reverse_gamma_superregular if reverse \
            else is_gamma_superregular
        want = [(ring.one,) + t for t in _distinct_draws(ell, ring, seed,
                                                          budget)
                if check(ToeplitzSpec(ring, (ring.one,) + t))]
        hits = searched(strategy=RANDOM, seed=seed, budget=budget)
        assert [h.first_row for h in hits] == want
        if ring.size() ** (ell - 1) <= 400:
            want = [(ring.one,) + t
                    for t in product(ring.elements(), repeat=ell - 1)
                    if check(ToeplitzSpec(ring, (ring.one,) + t))]
            hits = searched()
            assert [h.first_row for h in hits] == want


def test_random_search_over_a_ring_of_more_than_2_63_elements(monkeypatch):
    # F_2[u]/(u^70) has 2^70 elements: no list of them, nor a range of
    # their indices, fits; element i is the 70 bits of i, the highest first
    ring = TruncatedPolyRing(2, 70)
    monkeypatch.setattr(type(ring), "elements", None)
    rng = random.Random(3)
    draws = [rng.randrange(2 ** 70) for _ in range(4)]
    want = [(ring.one, tuple(i >> (69 - b) & 1 for b in range(70)))
            for i in draws]
    want = [row for row in want if is_gamma_superregular(
        ToeplitzSpec(ring, row))]
    hits = search_superregular(2, ring, strategy=RANDOM, seed=3, budget=4)
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


def at_depth(frames, call):
    """call() from `frames` nested calls down, as a deep caller makes it."""
    return call() if frames == 0 else at_depth(frames - 1, call)


def test_the_superregularity_walk_depth_is_bounded():
    # the leading minors of a first row that starts with 1 are units, so
    # the walk takes ell pivots: 256 answer from 256 frames down, under
    # Python's default recursion limit, and more are refused before any
    # walk, draw or matrix
    z5 = zmod(5)
    assert at_depth(256, lambda: is_gamma_superregular(
        ToeplitzSpec(z5, [1] * 256), cross_check=False)) is False
    assert at_depth(256, lambda: search_superregular(
        256, z5, strategy=RANDOM, seed=1, budget=3)) == []
    for call in (
            lambda: is_gamma_superregular(ToeplitzSpec(z5, [1] * 257)),
            lambda: search_superregular(257, z5, strategy=RANDOM, seed=1,
                                        budget=1),
            lambda: search_superregular(10 ** 9, z5, strategy=RANDOM,
                                        seed=1, budget=1),
            # 5^299 candidates fit the budget; the depth is checked next
            lambda: search_superregular(300, z5, budget=10 ** 400),
            lambda: extract_mdp_blocks(ToeplitzSpec(z5, [1] * 1200), n=600,
                                       k=1, L=1)):
        with pytest.raises(InvalidParams, match="walk depth limit 256"):
            call()
    # an exhaustive search checks its budget first
    with pytest.raises(BudgetExceeded) as exc:
        search_superregular(3000, zmod(121), budget=10)
    assert exc.value.requested == "121^2999"

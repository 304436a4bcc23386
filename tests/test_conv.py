import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, product
from fractions import Fraction
from math import ceil, comb
from pathlib import Path
from types import SimpleNamespace

import pytest

from chaincodes import GaloisRing, zmod
from chaincodes.cli import main
from chaincodes.conv import (DISTANCES, MAX_BOUNDS_J, MAX_WALK_DEPTH, MINORS,
                             ConvCode, DistanceBounds, PolyMatrix,
                             column_distance,
                             column_distance_bound,
                             distance_bounds, distance_profile,
                             embedding_preserves_L, field_L_index,
                             gamma_degree, generalized_singleton_bound,
                             is_delay_free, is_free_code, is_mdp,
                             is_polynomial_gamma_basis, is_reduced,
                             is_reverse_mdp, L_index,
                             leading_coefficient_matrix, optimal_cd_bound,
                             reverse_encoder, sliding_matrix,
                             _minors_condition, _normalised_weights,
                             _walk_rows)
from chaincodes.errors import (BudgetExceeded, CodeLoadError, InvalidParams,
                               NotDelayFree, NotReduced, NuNotDividingK,
                               PreconditionViolated, UnequalRowDegrees,
                               ZeroRow, check_budget)
from chaincodes.linalg import (RingMatrix, gamma_dimension,
                               is_gamma_generator_sequence,
                               is_gamma_linearly_independent, parameters_of)
from chaincodes.rings import TruncatedPolyRing, residue_ring
from oracles import (CountingField, column_distance_oracle,
                     field_rows_independent_by_stacking, message_weights,
                     minors_condition_oracle, optimal_cd_bound_by_cases,
                     polynomial_gamma_basis_by_stacking, socle_message_weights,
                     stacked_independence)


def M(ring, rows):
    return RingMatrix(ring, rows)


def PM(ring, coeff_rows, k=None, n=None):
    return PolyMatrix(ring, [M(ring, c) for c in coeff_rows], k=k, n=n)


@pytest.fixture(scope="module")
def z4():
    return zmod(4)


@pytest.fixture(scope="module")
def z121():
    return zmod(121)


@pytest.fixture(scope="module")
def code322(z121):
    # (3, 2, 2) gamma-encoder over Z/121
    G = PM(z121, [[[1, 2, 1], [11, 22, 11]],
                  [[1, 3, 4], [11, 33, 44]]])
    return ConvCode(z121, 3, G)


# ------------------------------------------------------------ basic objects

def test_polymatrix_trims_and_degrees(z4):
    G = PM(z4, [[[1, 1]], [[0, 0]]])
    assert G.degree == 0
    assert G.row_degree(0) == 0
    Z = PolyMatrix(z4, [], k=1, n=2)
    assert Z.degree == -1
    with pytest.raises(ZeroRow):
        Z.row_degrees()


def test_polymatrix_refuses_an_explicit_shape_its_coefficients_lack(
        z4, capsys, tmp_path):
    A = M(z4, [[1, 1]])
    for k, n in ((2, None), (None, 3), (5, 2), (1, 9)):
        with pytest.raises(ValueError, match=f"k={k}, n={n}"):
            PolyMatrix(z4, [A], k=k, n=n)
    # a zero coefficient matrix is trimmed, but its shape still counts
    with pytest.raises(ValueError):
        PolyMatrix(z4, [A, M(z4, [[0, 0], [0, 0]])], k=1, n=2)
    with pytest.raises(ValueError):
        PolyMatrix(z4, [M(z4, [[0, 0]])], k=2, n=2)
    assert PolyMatrix(z4, [A], k=1, n=2) == PolyMatrix(z4, [A])
    assert PolyMatrix(z4, [M(z4, [[0, 0]])], k=1, n=2).degree == -1
    # with no explicit shape: coefficients of two shapes or rings, and a
    # zero matrix, which has no shape of its own
    for coeffs in ([A, M(z4, [[1], [1]])], [A, M(zmod(8), [[1, 1]])]):
        with pytest.raises(ValueError, match="matrices disagree"):
            PolyMatrix(z4, coeffs)
    # a trailing zero block of another shape too, as a call and in a code
    # file, which `check mdp` used to decide as the 1 x 2 code alone
    trailing = [A, RingMatrix.zeros(z4, 3, 1)]
    with pytest.raises(ValueError, match="matrices disagree"):
        PolyMatrix(z4, trailing)
    path = tmp_path / "trailing.json"
    path.write_text(json.dumps({"ring": z4.descriptor(), "n": 2, "encoder": {
        "coeffs": [c.to_json() for c in trailing]}}))
    assert main(["check", "mdp", "--code", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["results"]["error"] == {
        "type": "CodeLoadError", "message": "coefficient matrices disagree"}
    with pytest.raises(ValueError, match="needs explicit k, n"):
        PolyMatrix(z4, [M(z4, [[0, 0]])])
    # a coefficient over another ring, zero ones too, before the trailing
    # ones are trimmed; Z4 under the Teichmueller convention is another ring
    for other in (zmod(8), zmod(4, convention="teichmuller")):
        for coeffs in ([A, M(other, [[0, 0]])], [M(other, [[0, 0]])]):
            with pytest.raises(ValueError, match="matrices disagree"):
                PolyMatrix(z4, coeffs, k=1, n=2)
    assert repr(PolyMatrix(z4, [A])) == "PolyMatrix(1x2, deg=0)"


def test_leading_coefficient_matrix(z4):
    G = PM(z4, [[[1, 1], [2, 2]], [[1, 0], [2, 0]]])
    lcm = leading_coefficient_matrix(G)
    assert [[e[0] for e in row] for row in lcm.data] == [[1, 0], [2, 0]]
    with pytest.raises(ZeroRow, match="row 1 is zero"):
        leading_coefficient_matrix(PM(z4, [[[1, 1], [0, 0]]]))


def test_sliding_matrix_shape(code322):
    S = sliding_matrix(code322.encoder, 1)
    assert (S.rows, S.cols) == (4, 6)
    assert [e[0] for e in S.row(0)] == [1, 2, 1, 1, 3, 4]
    assert [e[0] for e in S.row(2)] == [0, 0, 0, 1, 2, 1]


# ------------------------------------------------------------ predicates

def test_reduced_uses_transversal_coefficients(z4):
    # leading matrix [[1,0],[2,0]] admits no vanishing T-combination
    G = PM(z4, [[[1, 1], [2, 2]], [[1, 0], [2, 0]]])
    assert is_reduced(G)


def test_not_reduced_detected():
    z9 = zmod(9, convention="teichmuller")  # T = {0, 1, 8}
    G = PM(z9, [[[0], [0]], [[1], [8]]])   # rows z and 8z
    assert not is_reduced(G)
    with pytest.raises(NotReduced):
        gamma_degree(G)


def test_free_but_not_delay_free(z4):
    G = PM(z4, [[[0, 0]], [[1, 1]]])  # single row (z, z)
    assert is_free_code(G)
    assert not is_delay_free(G)


def test_delay_free_but_not_free(z4):
    G = PM(z4, [[[2, 0]]])  # torsion row
    assert is_delay_free(G)
    assert not is_free_code(G)


def test_gamma_generator_sequence_with_dependent_rows(z4):
    # stacked constant-block rows of a degenerate encoder: a generator
    # sequence that is not gamma-linearly independent (zero rows)
    A = M(z4, [[1, 1, 1, 1, 1, 1], [2, 2, 2, 2, 2, 2], [0, 0, 0, 0, 0, 0],
               [0, 0, 0, 1, 1, 1], [0, 0, 0, 2, 2, 2], [0, 0, 0, 0, 0, 0]])
    assert is_gamma_generator_sequence(A)
    assert not is_gamma_linearly_independent(A)


def test_polynomial_gamma_basis(code322, z4):
    assert is_polynomial_gamma_basis(code322.encoder)
    # duplicated row is dependent
    bad = PM(z4, [[[1, 1], [1, 1]]])
    assert not is_polynomial_gamma_basis(bad)


def test_convcode_rejects_non_basis(z4):
    with pytest.raises(ValueError):
        ConvCode(z4, 2, PM(z4, [[[1, 1], [1, 1]]]))


def test_convcode_needs_the_ring_and_length_of_its_encoder(z4):
    G = PM(z4, [[[1, 1], [2, 2]]])
    for ring, n in ((z4, 3), (zmod(8), 2)):
        with pytest.raises(ValueError, match="does not match ring or length"):
            ConvCode(ring, n, G)
    assert repr(ConvCode(z4, 2, G)) == "ConvCode(n=2, k=2, ring=Z_4)"


def test_delay_free_encoder_is_not_stacked(code322, z4, monkeypatch):
    # independence of a delay-free encoder is read off the gamma-dimension
    # of G_0; the k(m+1)-row stack is built only for an encoder that is not
    # delay-free
    from chaincodes import conv
    sizes = []
    real = conv.is_gamma_linearly_independent

    def recording(A):
        sizes.append(A.rows)
        return real(A)

    monkeypatch.setattr(conv, "is_gamma_linearly_independent", recording)
    assert is_polynomial_gamma_basis(code322.encoder)
    assert sizes == []
    G = PM(z4, [[[0, 0], [0, 0]], [[1, 1], [2, 2]]])
    sizes.clear()
    assert is_polynomial_gamma_basis(G)
    assert sizes == [4]
    assert not is_delay_free(G)


def test_degree_0_encoders_are_decided_by_their_pivots(z4, monkeypatch):
    # (1, 0), (2, 0), (2, 0) over Z4 pass the generator walk: gamma times
    # each row is 0 or a later row.  G_0 is then a gamma-generator
    # sequence, independent exactly when its pivots give nu - e summing to
    # k = 3; they sum to 2, and no independence oracle runs
    from chaincodes import conv
    from chaincodes.block import BlockCode

    def refused(A):
        raise AssertionError("the pivot count decides a degree-0 encoder")

    monkeypatch.setattr(conv, "is_gamma_linearly_independent", refused)
    generator = M(z4, [[1, 0], [2, 0], [2, 0]])
    assert is_gamma_generator_sequence(generator)
    assert not is_polynomial_gamma_basis(PM(z4, [generator.data]))
    code = BlockCode(generator)
    assert code.source == generator
    assert code.encoder == M(z4, [[1, 0], [2, 0]])


def test_field_generator_half_stacks_no_tail(monkeypatch):
    # at nu = 1 gamma kills every row, so no tail of later rows is stacked;
    # the one stack is that of all k rows at shifts t <= (k - 1) deg G.
    # The walk stacks through linalg, the independence half through conv
    from chaincodes import conv, linalg
    z5 = zmod(5)
    rng = random.Random(404)
    coeffs = [[[rng.randrange(5) for _ in range(5)] for _ in range(4)]
              for _ in range(3)]
    coeffs[0][3] = [0] * 5  # row 3 starts at z: not delay-free
    G = PM(z5, coeffs)
    assert G.degree == 2 and not is_delay_free(G)
    stacked = []
    real = conv._shifted_rows

    def counting(S, k, row_idx, shifts):
        out = real(S, k, row_idx, shifts)
        stacked.append(out.rows)
        return out

    monkeypatch.setattr(conv, "_shifted_rows", counting)
    monkeypatch.setattr(linalg, "_shifted_rows", counting)
    assert is_polynomial_gamma_basis(G) == \
        field_rows_independent_by_stacking(G)
    assert stacked == [4 * 7]


def test_exact_encoders_skip_the_generator_walk(code322, monkeypatch):
    # at nu = 1, or with every entry of valuation >= nu - 1, each gamma g_i
    # is 0, so the rows are a gamma-generator sequence with no walk
    from chaincodes import conv
    walked = []
    real = conv._gamma_multiples_in_later_rows

    def counting(S, k, shifts):
        walked.append(S.ring)
        return real(S, k, shifts)

    monkeypatch.setattr(conv, "_gamma_multiples_in_later_rows", counting)
    z11, z121 = zmod(11), code322.ring
    ConvCode(z11, 3, PM(z11, [[[1, 2, 1]], [[1, 3, 4]]]))
    ConvCode(z121, 3, PM(z121, [[[11, 22, 11]], [[11, 33, 44]]]))
    assert walked == []
    assert is_polynomial_gamma_basis(code322.encoder)
    assert walked == [z121]


def random_encoder(ring, rng):
    """A k x n encoder of degree 0..2 with sparse entries; in about half of
    them each row after the first is gamma times the row above it with
    probability 0.6."""
    els = list(ring.elements())
    k, m = rng.randint(1, 3), rng.randint(0, 2)
    n = rng.randint(k, k + 2)
    density = rng.choice((0.4, 0.8, 1.0))
    layered = rng.random() < 0.5
    chained = [layered and rng.random() < 0.6 for _ in range(k)]

    def entry():
        if rng.random() >= density:
            return ring.zero
        e = rng.choice(els)
        return ring.mul(ring.gamma, e) if rng.random() < 0.4 else e

    coeffs = []
    for _ in range(m + 1):
        rows = [[entry() for _ in range(n)] for _ in range(k)]
        for i in range(1, k):
            if chained[i]:
                rows[i] = [ring.mul(ring.gamma, e) for e in rows[i - 1]]
        coeffs.append(M(ring, rows))
    return PolyMatrix(ring, coeffs, k=k, n=n)


@pytest.mark.parametrize("ring", [
    zmod(4), zmod(9), zmod(27), TruncatedPolyRing(4, 2), GaloisRing(2, 2, 2)],
    ids=repr)
def test_delay_free_lemma_and_stacked_decision(ring):
    # a delay-free encoder is independent on the whole stack, and the
    # verdict matches the decision on the bounded stack alone
    rng = random.Random(1414)
    verdicts = Counter()
    for _ in range(120):
        G = random_encoder(ring, rng)
        delay_free = is_delay_free(G)
        if delay_free:
            assert stacked_independence(G)
        verdict = is_polynomial_gamma_basis(G)
        assert verdict == polynomial_gamma_basis_by_stacking(G)
        verdicts[delay_free, verdict] += 1
    assert verdicts[True, True] >= 5 and verdicts[True, False] >= 5, verdicts


def test_three_rows_in_f5_z_squared_are_not_a_gamma_basis():
    # rows of degree 1 over Z5 whose dependency needs digits of degree 2
    # (its digits are the 2 x 2 minors); not delay-free
    z5 = zmod(5)
    G = PM(z5, [[[1, 4], [4, 1], [2, 4]], [[3, 4], [0, 4], [0, 3]]])
    assert not is_delay_free(G)
    assert stacked_independence(G)  # shifts t <= deg G miss it
    assert not field_rows_independent_by_stacking(G)
    assert not is_polynomial_gamma_basis(G)
    with pytest.raises(ValueError):
        ConvCode(z5, 2, G)


def test_gamma_times_the_three_f5_rows_is_not_a_gamma_basis():
    # 5 G over Z25, G the rows above: every entry has valuation nu - 1,
    # so the rows are decided as their division by 5 over F_5
    z25 = zmod(25)
    G = PM(z25, [[[5, 20], [20, 5], [10, 20]], [[15, 20], [0, 20], [0, 15]]])
    assert not is_delay_free(G)
    assert stacked_independence(G)  # shifts t <= deg G miss it
    assert not is_polynomial_gamma_basis(G)
    with pytest.raises(ValueError):
        ConvCode(z25, 2, G)


@pytest.mark.xfail(strict=True, reason=(
    "at nu > 1 an encoder that is not delay-free, and not in "
    "gamma^(nu-1) R[z]^n, is still decided on shifts t <= deg G; stacking "
    "to shifts t <= 2, or to any top up to 8, says False"))
def test_z9_rows_that_need_deeper_digits_are_not_a_gamma_basis():
    z9 = zmod(9)
    G = PM(z9, [[[3, 1], [0, 3], [3, 6], [0, 0]],
                [[2, 7], [6, 6], [3, 6], [6, 0]]])
    assert not is_polynomial_gamma_basis(G)


def delay_row(G, a):
    """G with row a multiplied by z."""
    zero = [G.ring.zero] * G.n
    return PolyMatrix(G.ring, [M(G.ring, [
        (G.coefficient(t - 1).row(i) if t else zero) if i == a
        else G.coefficient(t).row(i) for i in range(G.k)])
        for t in range(G.degree + 2)], k=G.k, n=G.n)


@pytest.mark.parametrize("ring", [
    zmod(2), zmod(3), zmod(5), TruncatedPolyRing(4, 1)], ids=repr)
def test_field_encoders_match_the_stacking_oracle(ring):
    # over a field the stack to shift (k - 1) deg G decides independence;
    # the oracle stacks one shift further, to k deg G
    rng = random.Random(2020)
    els = list(ring.elements())
    verdicts, wider = Counter(), 0
    for _ in range(150):
        k, m = rng.randint(1, 4), rng.randint(0, 2)
        n = rng.randint(max(1, k - 1), k + 1)
        G = PolyMatrix(ring, [M(ring, [[rng.choice(els) for _ in range(n)]
                                       for _ in range(k)])
                              for _ in range(m + 1)], k=k, n=n)
        if rng.random() < 0.4:
            G = delay_row(G, rng.randrange(k))
        verdict = is_polynomial_gamma_basis(G)
        assert verdict == field_rows_independent_by_stacking(G), G.coeffs
        delay_free = is_delay_free(G)
        verdicts[k > n, delay_free, verdict] += 1
        wider += stacked_independence(G) and not verdict
    assert verdicts[True, False, True] == 0, verdicts
    assert verdicts[False, False, True] >= 5, verdicts
    assert verdicts[False, False, False] >= 5, verdicts
    assert verdicts[True, False, False] >= 5, verdicts
    assert wider >= 1, verdicts


@pytest.mark.parametrize("ring", [
    zmod(4), zmod(8), zmod(25), TruncatedPolyRing(2, 2), GaloisRing(2, 2, 2)],
    ids=repr)
def test_gamma_multiples_of_field_encoders_get_the_field_verdict(ring):
    # G = gamma^(nu-1) H, H the lift of a random encoder H-bar over the
    # residue field: G is a gamma-basis exactly when H-bar is one
    F, g = residue_ring(ring), ring.gamma_power(ring.nu - 1)
    rng = random.Random(28)
    els = list(F.elements())
    verdicts = Counter()
    for _ in range(80):
        k, m = rng.randint(1, 3), rng.randint(0, 2)
        n = rng.randint(max(1, k - 1), k + 1)
        H = PolyMatrix(F, [M(F, [[rng.choice(els) for _ in range(n)]
                                 for _ in range(k)])
                           for _ in range(m + 1)], k=k, n=n)
        if rng.random() < 0.4:
            H = delay_row(H, rng.randrange(k))
        G = PolyMatrix(ring, [M(ring, [
            [ring.mul(g, ring.lift(F.project(x))) for x in row]
            for row in c.data]) for c in H.coeffs], k=k, n=n)
        verdict = is_polynomial_gamma_basis(H)
        assert is_polynomial_gamma_basis(G) == verdict, H.coeffs
        verdicts[is_delay_free(H), verdict] += 1
    assert verdicts[True, True] >= 5, verdicts
    assert verdicts[False, True] >= 5, verdicts
    assert verdicts[False, False] >= 5, verdicts


@pytest.mark.parametrize("ring", [
    zmod(4), zmod(8), zmod(9), zmod(27), TruncatedPolyRing(4, 2),
    GaloisRing(2, 2, 2)], ids=repr)
def test_sliding_matrix_of_a_validated_encoder_is_a_generator_sequence(ring):
    # the fact that licenses the minors criterion, which validation proves
    # (see _minors_condition): S_L of every gamma-basis encoder
    rng = random.Random(1515)
    validated = refused = 0
    for _ in range(200):
        G = random_encoder(ring, rng)
        try:
            ConvCode(ring, G.n, G)
        except ValueError:
            refused += 1
            continue
        validated += 1
        for L in range(3):
            assert is_gamma_generator_sequence(sliding_matrix(G, L)), \
                (G.coeffs, L)
    assert validated >= 10 and refused >= 10, (validated, refused)


def test_g0_of_a_validated_encoder_decides_delay_freeness():
    # the generator half of validation makes G_0 a gamma-generator
    # sequence, so delay-free is gamma_dimension(G_0) == k
    rng = random.Random(1616)
    verdicts = Counter()
    for ring in (zmod(4), zmod(8), zmod(9), zmod(27), TruncatedPolyRing(4, 2),
                 GaloisRing(2, 2, 2), TruncatedPolyRing(2, 3)):
        validated = 0
        for _ in range(200):
            G = random_encoder(ring, rng)
            if rng.random() < 0.3:
                # z times row a delays the row and keeps the verdict
                a, zero = rng.randrange(G.k), [ring.zero] * G.n
                G = PolyMatrix(ring, [M(ring, [
                    (G.coefficient(t - 1).row(i) if t else zero) if i == a
                    else G.coefficient(t).row(i) for i in range(G.k)])
                    for t in range(G.degree + 2)], k=G.k, n=G.n)
            try:
                C = ConvCode(ring, G.n, G)
            except ValueError:
                continue
            G_0 = G.coefficient(0)
            assert is_gamma_generator_sequence(G_0), G.coeffs
            delay_free = is_delay_free(G)
            assert delay_free == (gamma_dimension(G_0) == G.k), G.coeffs
            assert C.delay_free() == delay_free
            verdicts[delay_free] += 1
            validated += 1
        assert validated >= 5, ring
    assert verdicts[True] >= 100 and verdicts[False] >= 50, verdicts


def test_degree_zero_encoder_past_the_oracle_budget():
    # the rows after the first project to zero; a T-digit search of their
    # span for gamma * (1, 1, 0, ..., 0) would lift 11^7 candidates
    z121 = zmod(121)
    G = PM(z121, [[[1, 1, 0, 0, 0, 0, 0]]
                  + [[11 if j == i else 0 for j in range(7)]
                     for i in range(7)]])
    assert (G.k, G.n, G.degree) == (8, 7, 0)
    assert is_polynomial_gamma_basis(G)
    assert ConvCode(z121, 7, G).delta == 0


# ------------------------------------------------------------ distances

def test_column_distances_322(code322):
    assert column_distance(code322, 0) == 3
    assert column_distance(code322, 1) == 5
    assert distance_profile(code322, 1) == (3, 5)


def test_column_distance_needs_delay_free(z4):
    G = PM(z4, [[[0, 0], [0, 0]], [[1, 1], [2, 2]]])  # rows (z,z), (2z,2z)
    C = ConvCode(z4, 2, G)
    for j in (0, 1, 0):
        with pytest.raises(NotDelayFree):
            column_distance(C, j)


def test_column_distance_budget(code322):
    C = ConvCode(code322.ring, code322.n, code322.encoder)
    for _ in range(2):  # before and after d_1 is known
        with pytest.raises(BudgetExceeded) as exc:
            column_distance(C, 1, budget=10)
        # the budget counts every message, not only the unit-normalised ones
        assert (exc.value.requested, exc.value.allowed) == (14520, 10)
        assert column_distance(C, 1) == 5


def test_a_code_reduces_its_g0_once_beyond_validation(code322, monkeypatch):
    # one pivot pass over [G_0 | ... | G_m], placed before validation,
    # decides the delay-free half of validation, delay-freeness, the
    # constant-block parameters and the socle heads
    from chaincodes import conv, linalg
    G = code322.encoder
    passes = []
    real = linalg._pivot_rows

    def counting(A, width=None):
        if [row[:G.n] for row in A.data] == list(G.coefficient(0).data):
            passes.append(width)
        return real(A, width)

    monkeypatch.setattr(linalg, "_pivot_rows", counting)
    monkeypatch.setattr(conv, "_pivot_rows", counting)
    C = ConvCode(G.ring, G.n, G)
    assert passes == [G.n]
    assert is_mdp(C, MINORS) and is_mdp(C, DISTANCES)
    assert passes == [G.n]
    # the public check reduces G_0 alone, through the same decision
    assert is_polynomial_gamma_basis(G) and passes == [G.n, None]


@pytest.mark.parametrize("ring", [zmod(9), zmod(121), GaloisRing(2, 2, 2)],
                         ids=repr)
def test_a_lift_is_built_with_one_pivot_pass(ring, monkeypatch):
    # gamma times a lifted row t is the next layer's row gamma t, or zero,
    # so validation stacks nothing and the constructor's pass over
    # [G_0 | ... | G_m] is the only reduction of any matrix
    from chaincodes import conv, linalg
    from chaincodes.constructions import lift_from_residue_field
    F = residue_ring(ring)
    G = PM(F, [[[1, 1, 1]], [[0, 1, 2]]])
    passes = []
    real = linalg._pivot_rows

    def counting(A, width=None):
        passes.append((A.rows, width))
        return real(A, width)

    monkeypatch.setattr(linalg, "_pivot_rows", counting)
    monkeypatch.setattr(conv, "_pivot_rows", counting)
    C = lift_from_residue_field(G, ring)
    assert C.k == ring.nu and passes == [(ring.nu, 3)]


def test_each_column_distance_is_walked_once(monkeypatch):
    from chaincodes import conv
    from chaincodes.constructions import lift_from_residue_field
    walked = []
    real = conv._walk_rows

    def counting(C, j):
        walked.append(j)
        return real(C, j)

    monkeypatch.setattr(conv, "_walk_rows", counting)
    z2 = zmod(2)
    # the lift to Z4 of the binary (2,1,1) encoder (1, 1) + (0, 1) z: L = 2
    C = lift_from_residue_field(PM(z2, [[[1, 1]], [[0, 1]]]), zmod(4))
    assert L_index(C.n, C.k, C.delta, C.ring.nu) == 2
    assert distance_profile(C, 2) == (2, 3, 3)
    assert walked == [0, 1, 2]
    # d_2 = 3 < (n - k0)(2 + 1) + 1 = 4, read from the memo
    assert not is_mdp(C, DISTANCES)
    assert distance_profile(C, 2) == (2, 3, 3)
    assert walked == [0, 1, 2]
    assert [column_distance_oracle(C, j) for j in range(3)] == [2, 3, 3]


def random_poly_matrix(ring, k, n, m, rng):
    els = list(ring.elements())
    return PolyMatrix(ring, [M(ring, [[rng.choice(els) for _ in range(n)]
                                      for _ in range(k)])
                             for _ in range(m + 1)], k=k, n=n)


def gamma_multiples(layers):
    """The rows gamma^e B(z) of each (e, B) in `layers`, in that order."""
    ring, n = layers[0][1].ring, layers[0][1].n
    return PolyMatrix(ring, [M(ring, [
        [ring.mul(ring.gamma_power(e), x) for x in row]
        for e, B in layers for row in B.coefficient(i).data])
        for i in range(max(B.degree for _, B in layers) + 1)],
        k=sum(B.k for _, B in layers), n=n)


ORACLE_WORK = 2 * 10 ** 5  # largest messages x rows x columns of S_j


def oracle_weights(C):
    """(j, [(u, weight of u S_j) for every message u]) for j <= 3 while
    the oracle's work stays within ORACLE_WORK."""
    q = C.ring.q
    for j in range(4):
        messages = (q ** C.k - 1) * q ** (j * C.k)
        if messages * (j + 1) ** 2 * C.k * C.n > ORACLE_WORK:
            return
        yield j, list(message_weights(C, j))


def full_walk(C, j):
    """The Gray walk with block row 0 of S_j as its k heads."""
    S = sliding_matrix(C.encoder, j)
    return _normalised_weights(C.ring, [direct_steps(C.ring, row)
                                        for row in S.data], C.k, S.cols)


def assert_walk_matches_oracle(C, j, weights):
    """The Gray walk visits exactly the messages whose first nonzero digit
    is 1, whatever the rows: the same multiset of weights."""
    normalised = Counter(w for u, w in weights
                         if next(t for t in u if t) == 1)
    assert Counter(full_walk(C, j)) == normalised, j


def assert_matches_oracle(C):
    """On a gamma-basis the normalised minimum is the column distance,
    both when the code walks it and when it remembers it; the walk over
    the socle heads visits the (q^s - 1)/(q - 1) q^(jk) messages of the
    heads-by-tails oracle and reaches the minimum over all messages."""
    known = list(oracle_weights(C))
    for _ in range(2):
        for j, weights in known:
            assert column_distance(C, j) == min(w for _, w in weights), j
    q, s = C.ring.q, len(C._pivots)
    for j, weights in known:
        assert_walk_matches_oracle(C, j, weights)
        headed = Counter(_normalised_weights(C.ring, *_walk_rows(C, j)))
        assert headed == Counter(socle_message_weights(C, j)), j
        assert sum(headed.values()) == (q ** s - 1) // (q - 1) * q ** (j * C.k)
        assert min(headed) == column_distance_oracle(C, j), j
    return len(known)


@pytest.mark.parametrize("ring", [
    zmod(8), zmod(27),                             # digit transversal
    GaloisRing(2, 2, 2), GaloisRing(3, 2, 2),      # Teichmueller
    TruncatedPolyRing(4, 2), TruncatedPolyRing(9, 2),
    TruncatedPolyRing(2, 3)], ids=repr)
def test_column_distance_matches_oracle(ring):
    from chaincodes.constructions import lift_from_residue_field
    rng = random.Random(2024)
    field = residue_ring(ring)
    lifted = 0
    while lifted < 4:  # lifts of k~ = 1 and k~ = 2 field encoders
        kt = 1 + lifted % 2
        G = random_poly_matrix(field, kt, rng.randint(kt + 1, 3),
                               rng.randint(1, 2), rng)
        if G.degree >= 1 and is_delay_free(G) and is_reduced(G):
            assert_matches_oracle(lift_from_residue_field(G, ring))
            lifted += 1
    direct = 0
    while direct < 3:
        # gamma-layers of a row over the whole ring, not over T
        base = random_poly_matrix(ring, 1, rng.randint(2, 3), 1, rng)
        G = gamma_multiples([(e, base) for e in range(ring.nu)])
        if G.degree == 1 and is_delay_free(G):
            assert_matches_oracle(ConvCode(ring, G.n, G))
            direct += 1
    for _ in range(3):
        # rows that need not be a gamma-generator sequence, on which a walk
        # with a wrong delta no longer permutes the same codewords
        C = stand_in(random_poly_matrix(ring, 1, 3, 1, rng))
        for j, weights in oracle_weights(C):
            assert_walk_matches_oracle(C, j, weights)


@pytest.mark.parametrize("ring", [zmod(8), TruncatedPolyRing(2, 3)],
                         ids=repr)
def test_socle_walk_on_codes_with_mixed_parameters(ring):
    # gamma-layers gamma^e b(z), ..., gamma^(nu-1) b(z) of one or two random
    # rows over the ring from random first exponents e: validated
    # delay-free codes whose G_0 has parameters such as (1, 1, 0)
    rng = random.Random(5)
    params, checked = Counter(), 0
    while len(params) < 5 or sum(params.values()) < 16:
        n, layers = rng.randint(2, 3), []
        for _ in range(rng.randint(1, 2)):
            base = random_poly_matrix(ring, 1, n, 1, rng)
            layers += [(e, base)
                       for e in range(rng.randrange(ring.nu), ring.nu)]
        G = gamma_multiples(layers)
        try:
            C = ConvCode(ring, n, G)
        except ValueError:  # not a gamma-basis
            continue
        if C.delay_free():
            checked += assert_matches_oracle(C)
            params[parameters_of(G.coefficient(0))] += 1
    assert {(1, 1, 0), (0, 1, 1), (1, 0, 1)} <= set(params), params
    assert checked >= 40


def stand_in(G):
    """What the walk and the oracle read of a code, for rows that ConvCode
    need not accept."""
    return SimpleNamespace(ring=G.ring, n=G.n, k=G.k, encoder=G)


def test_socle_walk_cuts_and_pads_the_row_steps():
    from chaincodes.constructions import lift_from_residue_field
    z9 = zmod(9)
    g = [[[1, 2, 4]], [[5, 0, 7]], [[2, 8, 1]]]
    cut = ConvCode(z9, 3, PM(z9, [[row[0], [3 * e for e in row[0]]]
                                  for row in g]))
    padded = lift_from_residue_field(PM(zmod(2), [[[1, 1]], [[0, 1]]]),
                                     zmod(4))
    # the steps of [G_0 | G_1 | G_2] are cut to S_0 and S_1 and fit S_2,
    # those of [G_0 | G_1] are padded to S_2 and S_3; both walks have
    # s = 1 head for k = 2 rows
    assert (cut._rows.cols, padded._rows.cols) == (9, 4)
    assert len(cut._pivots) == len(padded._pivots) == 1
    assert assert_matches_oracle(cut) == 3
    assert assert_matches_oracle(padded) == 4


def test_row_steps_are_built_once_per_code(z121):
    from chaincodes import conv
    C = ConvCode(z121, 3, PM(z121, [[[1, 2, 1], [11, 22, 11]],
                                    [[1, 3, 4], [11, 33, 44]]]))
    assert C._steps is None
    assert distance_profile(C, 1) == (3, 5)
    table = C._steps
    assert len(table[0]) == len(C._pivots) + C.k
    assert column_distance(C, 2) >= 5
    assert is_mdp(C, DISTANCES)
    assert C._steps is table
    R = conv._reversed_code(C)
    assert R._steps is None
    assert is_reverse_mdp(C, DISTANCES)
    reversed_table = R._steps
    assert len(reversed_table[0]) == len(R._pivots) + R.k
    assert is_reverse_mdp(C, DISTANCES)
    assert C._steps is table and R._steps is reversed_table


def test_column_distance_rejects_negative_j(code322):
    C = ConvCode(code322.ring, code322.n, code322.encoder)
    for known in ([], [0, 1]):
        for j in known:
            column_distance(C, j)
        with pytest.raises(InvalidParams):
            column_distance(C, -1)
        with pytest.raises(InvalidParams):
            distance_profile(C, -1)
        assert sorted(C._distances) == known
    assert distance_profile(C, 0) == (3,)


def test_the_zero_code_has_no_column_distance(z4):
    C = ConvCode(z4, 2, PolyMatrix(z4, [], k=0, n=2))
    assert C.delay_free()
    with pytest.raises(InvalidParams):
        column_distance(C, 0)
    assert C._distances == {}


def early_stop_codes(ring, rng):
    """Seeded validated delay-free codes over `ring`: two lifts of k~ = 1
    field encoders and four gamma-layered codes with random first
    exponents, as in test_socle_walk_on_codes_with_mixed_parameters."""
    from chaincodes.constructions import lift_from_residue_field
    field, codes = residue_ring(ring), []
    while len(codes) < 2:
        G = random_poly_matrix(field, 1, rng.randint(2, 3), rng.randint(1, 2),
                               rng)
        if G.degree >= 1 and is_delay_free(G):
            codes.append(lift_from_residue_field(G, ring))
    while len(codes) < 6:
        n, layers = rng.randint(2, 3), []
        for _ in range(rng.randint(1, 2)):
            base = random_poly_matrix(ring, 1, n, rng.randint(1, 2), rng)
            layers += [(e, base)
                       for e in range(rng.randrange(ring.nu), ring.nu)]
        try:
            C = ConvCode(ring, n, gamma_multiples(layers))
        except ValueError:  # not a gamma-basis
            continue
        if C.delay_free():
            codes.append(C)
    return codes


def assert_distances_in_any_order(C):
    """column_distance equals the oracle when d_0, d_1, ... are asked in
    order (each walk may stop at the d_(j-1) before it), when each j is
    asked cold (from the top down, so the floor is 1), and when asked
    again; returns the oracle's profile."""
    known = {j: min(w for _, w in weights) for j, weights in oracle_weights(C)}
    down = sorted(known, reverse=True)
    in_order = ConvCode(C.ring, C.n, C.encoder)
    cold = ConvCode(C.ring, C.n, C.encoder)
    for _ in range(2):
        assert [column_distance(in_order, j) for j in known] == [
            known[j] for j in known]
        assert [column_distance(cold, j) for j in down] == [
            known[j] for j in down]
    return tuple(known.values())


@pytest.mark.parametrize("ring", [
    zmod(4), zmod(9), zmod(27), GaloisRing(2, 2, 2),
    TruncatedPolyRing(4, 2), TruncatedPolyRing(2, 3)], ids=repr)
def test_column_distance_stops_at_the_remembered_floor(ring):
    rng = random.Random(25)
    profiles = [assert_distances_in_any_order(C)
                for C in early_stop_codes(ring, rng)]
    # some profile repeats a distance, where the in-order walk stops at
    # the floor it remembers
    assert any(p[j] == p[j - 1] for p in profiles for j in range(1, len(p)))


def test_the_walk_stops_at_d_j_minus_1(monkeypatch):
    from chaincodes import conv
    from chaincodes.constructions import lift_from_residue_field
    G = PM(zmod(2), [[[1, 1]], [[0, 1]]])
    lifted = lift_from_residue_field(G, zmod(4))
    assert assert_distances_in_any_order(lifted) == (2, 3, 3, 3)
    yielded = []
    real = conv._normalised_weights

    def counting(*args):
        for weight in real(*args):
            yielded.append(weight)
            yield weight

    monkeypatch.setattr(conv, "_normalised_weights", counting)
    q, s, k = lifted.ring.q, len(lifted._pivots), lifted.k
    full = (q ** s - 1) // (q - 1) * q ** (2 * k)
    in_order = ConvCode(lifted.ring, lifted.n, lifted.encoder)
    assert distance_profile(in_order, 1) == (2, 3)
    yielded.clear()
    assert column_distance(in_order, 2) == 3
    assert yielded[-1] == 3 and len(yielded) < full
    # asked cold, d_2 = 3 is above the floor 1: the whole walk
    cold = ConvCode(lifted.ring, lifted.n, lifted.encoder)
    yielded.clear()
    assert column_distance(cold, 2) == 3
    assert len(yielded) == full


def direct_steps(ring, row):
    """Row's Gray steps, each t e's coordinates found afresh: for t < q - 1,
    the nonzero additive coordinates of (reps[t+1] - reps[t]) row."""
    reps = ring.representatives()
    _, coords = ring.additive_coords()
    d = len(coords(ring.zero))
    return [[(p * d + i, x, p) for p, e in enumerate(row)
             for i, x in enumerate(coords(ring.mul(t, e))) if x]
            for t in map(ring.sub, reps[1:], reps)]


@pytest.mark.parametrize("ring", [
    zmod(4), zmod(9), zmod(121),                   # digit transversal
    GaloisRing(2, 2, 2), GaloisRing(3, 2, 2),      # Teichmueller
    TruncatedPolyRing(4, 2), TruncatedPolyRing(2, 3)], ids=repr)
def test_row_steps_share_one_list_per_distinct_difference(ring):
    # _walk_rows builds each j's lists from the code's shared table; they
    # are the direct steps of the rows shifted by b blocks and cut to S_j
    reps = ring.representatives()
    diffs = list(map(ring.sub, reps[1:], reps))
    digits = isinstance(ring, GaloisRing) and ring.s == 1
    for C in early_stop_codes(ring, random.Random(25)):
        column_distance(C, 0)
        table, n = C._steps, C.n
        heads = [[ring.mul(ring.gamma_power(ring.nu - 1 - e), x) for x in row]
                 for row, e, _ in C._pivots]
        assert [list(row) for row in table[0]] == heads + [
            list(row) for row in C._rows.data]
        assert table[1] == diffs
        for j in range(3):
            walk, s, length = _walk_rows(C, j)
            assert C._steps is table
            assert (s, length) == (len(heads), (j + 1) * n)
            shifted = [(0, row) for row in heads] + [
                (b, row) for b in range(1, j + 1) for row in C._rows.data]
            assert len(walk) == len(shifted)
            for (b, row), steps in zip(shifted, walk):
                cut = ([ring.zero] * (b * n) + list(row))[:length]
                assert steps == direct_steps(ring, cut)
                for a, c in combinations(range(len(diffs)), 2):
                    assert (steps[a] is steps[c]) == (diffs[a] == diffs[c])
                if digits:  # every difference is 1: the row has one list
                    assert len({id(step) for step in steps}) == 1


def test_convcode_refuses_rows_the_walk_would_misread():
    # delay-free, but not a gamma-basis: the unit normalisation misses
    # the minimum on these rows, and ConvCode refuses them
    z27 = zmod(27)
    G = PM(z27, [[[24, 25], [2, 4]], [[19, 19], [14, 4]]])
    assert is_delay_free(G) and not is_polynomial_gamma_basis(G)
    with pytest.raises(ValueError):
        ConvCode(z27, 2, G)
    C = stand_in(G)
    assert (min(full_walk(C, 0)), column_distance_oracle(C, 0)) == (2, 1)


def test_column_distance_matches_oracle_on_readme_code(code322):
    rev = ConvCode(code322.ring, code322.n, reverse_encoder(code322))
    for C in (code322, rev):
        for j in (0, 1):
            assert column_distance(C, j) == column_distance_oracle(C, j)


def test_column_distances_nondecreasing_random(z4):
    z9 = zmod(9)
    rng = random.Random(41)
    checked = 0
    for ring in (z4, z9):
        els = list(ring.elements())
        for _ in range(200):
            k, n = rng.randint(1, 2), rng.randint(2, 3)
            m = rng.randint(0, 1)
            try:
                G = PolyMatrix(ring, [M(ring, [[rng.choice(els)
                                                for _ in range(n)]
                                               for _ in range(k)])
                                      for _ in range(m + 1)], k=k, n=n)
            except ValueError:
                continue
            if G.degree < 0 or not is_delay_free(G):
                continue
            try:
                C = ConvCode(ring, n, G)
            except ValueError:  # not a gamma-basis
                continue
            prof = distance_profile(C, 2)
            assert list(prof) == sorted(prof)
            # gamma-encoders never beat the column-distance bound
            params = parameters_of(G.coefficient(0))
            for j, dj in enumerate(prof):
                assert dj <= column_distance_bound(j, n, params, k)
            checked += 1
    assert checked >= 10


# ------------------------------------------------------------ bounds

def test_generalized_singleton_bound():
    assert generalized_singleton_bound(3, 2, 2, 2) == 6
    assert generalized_singleton_bound(3, 2, 2, 1) == 5
    with pytest.raises(InvalidParams):
        generalized_singleton_bound(0, 2, 2, 2)


def test_generalized_singleton_bound_matches_the_rational_formula():
    for n in range(2, 9):
        for k in range(1, n):
            for delta in range(13):
                for nu in range(1, 5):
                    f = delta // k
                    frac = Fraction(k, nu) * (f + 1) - Fraction(delta, nu)
                    assert generalized_singleton_bound(n, k, delta, nu) == \
                        n * (f + 1) - ceil(frac) + 1, (n, k, delta, nu)


def test_distance_bounds_is_an_immutable_value():
    b = distance_bounds(3, 2, 2, 2)
    assert b == DistanceBounds(L=1, N=0, per_j=(3, 5),
                               generalized_singleton=6)
    assert hash(b) == hash(distance_bounds(3, 2, 2, 2))
    assert b != DistanceBounds(L=1, N=0, per_j=(3, 5),
                               generalized_singleton=7)
    with pytest.raises(AttributeError):
        b.L = 2


def test_optimal_cd_bound_322():
    assert optimal_cd_bound(0, 3, 2, 2) == 3
    assert optimal_cd_bound(1, 3, 2, 2) == 5


def test_optimal_cd_bound_needs_nu_to_divide_k_beyond_j_0():
    # the Z4 code 2(1 + z, 1) has the profile 2, 3, 3, 3, above the formula
    # at j = 2; j = 0 stays the block Singleton bound
    z4 = zmod(4)
    C = ConvCode(z4, 2, PM(z4, [[[2, 2]], [[2, 0]]]))
    assert distance_profile(C, 3) == (2, 3, 3, 3)
    assert optimal_cd_bound(0, 2, 1, 2) == 2
    for j in (1, 2, 3):
        with pytest.raises(NuNotDividingK):
            optimal_cd_bound(j, 2, 1, 2)
    assert optimal_cd_bound(2, 4, 2, 2) == (4 - 1) * 3 + 1


def test_column_distance_bound_two_cases():
    # j <= nu and j > nu branches with params (1, 0)
    assert column_distance_bound(0, 3, (1, 0), 2) == 3
    assert column_distance_bound(1, 3, (1, 0), 2) == 5
    assert column_distance_bound(3, 3, (1, 0), 2) == 9
    assert column_distance_bound(3, 3, (1, 0), 2) == optimal_cd_bound(3, 3,
                                                                      2, 2)
    with pytest.raises(InvalidParams):
        column_distance_bound(-1, 3, (1, 0), 2)


def test_L_indices():
    assert L_index(3, 2, 2, 2) == 1
    assert L_index(7, 4, 8, 2) == 2
    with pytest.raises(NuNotDividingK):
        L_index(3, 3, 2, 2)
    assert field_L_index(3, 2, 2) == 3
    assert field_L_index(7, 2, 4) == 2
    assert not embedding_preserves_L(3, 2, 2)
    assert embedding_preserves_L(7, 2, 4)


@pytest.mark.parametrize("n, k, delta, nu", [(2, 4, 3, 2), (1, 2, 0, 2),
                                              (1, 4, 1, 2), (3, 3, 0, 1)])
def test_L_index_needs_n_above_k_over_nu(n, k, delta, nu):
    with pytest.raises(InvalidParams):
        L_index(n, k, delta, nu)
    with pytest.raises(InvalidParams):
        distance_bounds(n, k, delta, nu)


def test_mdp_of_the_full_code_is_invalid():
    # k = nu * n: the whole of Z4 as a code of length 1, with no L
    z4 = zmod(4)
    C = ConvCode(z4, 1, PolyMatrix(z4, [RingMatrix(z4, [[1], [2]])]))
    assert C.delay_free() and C.reduced()
    for pred in (is_mdp, is_reverse_mdp):
        for method in (MINORS, DISTANCES):
            with pytest.raises(InvalidParams):
                pred(C, method=method)


def test_distance_bounds_struct():
    b = distance_bounds(3, 2, 2, 2)
    assert b.L == 1 and b.N == 0
    assert b.per_j == (3, 5)
    assert b.generalized_singleton == 6


# ------------------------------------------------------------ MDP

def test_mdp_322_both_methods(code322):
    assert code322.delay_free() and code322.reduced()
    assert code322.delta == 2
    assert is_mdp(code322, DISTANCES)
    assert is_mdp(code322, MINORS)
    with pytest.raises(ValueError, match="unknown method 'rank'"):
        is_mdp(code322, "rank")


def test_reverse_mdp_322(code322):
    assert is_reverse_mdp(code322)
    rev = reverse_encoder(code322)
    assert [[e[0] for e in row] for row in rev.coefficient(0).data] == \
        [[1, 3, 4], [11, 33, 44]]


def test_reverse_mdp_by_distances_never_uses_minors(code322, monkeypatch):
    from chaincodes import conv

    def no_minors(*args, **kwargs):
        raise AssertionError("minors used by the distances method")

    monkeypatch.setattr(conv, "_minors_condition", no_minors)
    assert is_reverse_mdp(code322, DISTANCES)


def test_reversed_code_is_kept_and_walked_once(z121, monkeypatch):
    from chaincodes import conv
    C = ConvCode(z121, 3, PM(z121, [[[1, 2, 1], [11, 22, 11]],
                                    [[1, 3, 4], [11, 33, 44]]]))
    walked, validated = [], []
    real_walk, real_basis = conv._walk_rows, conv._is_gamma_basis

    def counting_walk(code, j):
        walked.append((code is C, j))
        return real_walk(code, j)

    def counting_basis(G, pivots):
        validated.append(G)
        return real_basis(G, pivots)

    monkeypatch.setattr(conv, "_walk_rows", counting_walk)
    monkeypatch.setattr(conv, "_is_gamma_basis", counting_basis)
    assert is_reverse_mdp(C, MINORS)
    assert walked == [] and validated == [reverse_encoder(C)]
    assert is_reverse_mdp(C, DISTANCES)
    assert is_reverse_mdp(C, DISTANCES)
    L = L_index(C.n, C.k, C.delta, z121.nu)
    assert walked == [(True, j) for j in range(L + 1)] + \
        [(False, j) for j in range(L + 1)]
    assert validated == [reverse_encoder(C)]


# the README code is MDP; with G_1 = (1, 1, 1; 11, 11, 11) it is not
MINORS_UNDER_O = """
import json
from chaincodes import zmod
from chaincodes.conv import MINORS, ConvCode, PolyMatrix, is_mdp
from chaincodes.linalg import RingMatrix
z121 = zmod(121)
G_0 = RingMatrix(z121, [[1, 2, 1], [11, 22, 11]])
verdicts = [is_mdp(ConvCode(z121, 3, PolyMatrix(z121, [
    G_0, RingMatrix(z121, G_1)])), MINORS)
            for G_1 in ([[1, 3, 4], [11, 33, 44]], [[1, 1, 1], [11, 11, 11]])]
print(json.dumps({"debug": __debug__, "verdicts": verdicts}))
"""


# the same two codes by column distances: the README code's are (3, 5)
DISTANCES_UNDER_O = """
import json
from chaincodes import zmod
from chaincodes.conv import (DISTANCES, ConvCode, PolyMatrix,
                             distance_profile, is_mdp)
from chaincodes.linalg import RingMatrix
z121 = zmod(121)
G_0 = RingMatrix(z121, [[1, 2, 1], [11, 22, 11]])
codes = [ConvCode(z121, 3, PolyMatrix(z121, [G_0, RingMatrix(z121, G_1)]))
         for G_1 in ([[1, 3, 4], [11, 33, 44]], [[1, 1, 1], [11, 11, 11]])]
print(json.dumps({"debug": __debug__,
                  "profile": distance_profile(codes[0], 1),
                  "verdicts": [is_mdp(C, DISTANCES) for C in codes]}))
"""


def run_under_python_O(source):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", source],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


def test_minors_verdicts_under_python_O():
    assert run_under_python_O(MINORS_UNDER_O) == {"debug": False,
                                                  "verdicts": [True, False]}


def test_distance_verdicts_under_python_O():
    assert run_under_python_O(DISTANCES_UNDER_O) == {
        "debug": False, "profile": [3, 5], "verdicts": [True, False]}


# the Z9 block code of the CLI session: 3 (1, 0, 2, 4) + 2 (0, 3, 6, 3) =
# (3, 6, 0, 0) has weight 2, no nonzero word has weight 1, and the
# Singleton bound is 3
BLOCK_UNDER_O = """
import json
from chaincodes import zmod
from chaincodes.block import BlockCode, is_mds, min_distance_block
from chaincodes.linalg import RingMatrix
code = BlockCode(RingMatrix(zmod(9), [[1, 0, 2, 4], [0, 3, 6, 3]]))
print(json.dumps({"debug": __debug__, "min_distance": min_distance_block(code),
                  "is_mds": is_mds(code)}))
"""


def test_block_distance_under_python_O():
    assert run_under_python_O(BLOCK_UNDER_O) == {
        "debug": False, "min_distance": 2, "is_mds": False}


def test_mdp_preconditions(z4, z121):
    # nu does not divide k
    C1 = ConvCode(z4, 2, PM(z4, [[[2, 2]]]))  # torsion row, k=1
    with pytest.raises(PreconditionViolated):
        is_mdp(C1)
    # not delay-free
    G = PM(z121, [[[0, 0], [0, 0]], [[1, 2], [11, 22]]])
    C2 = ConvCode(z121, 2, G)
    with pytest.raises(PreconditionViolated):
        is_mdp(C2)
    # constant-block parameters (0, 2), not (1, 0)
    C3 = ConvCode(z4, 2, PM(z4, [[[2, 0], [0, 2]]]))
    with pytest.raises(PreconditionViolated, match="parameters"):
        is_mdp(C3)
    # delay-free, but the leading rows are (1, 1) twice
    z5 = zmod(5)
    C4 = ConvCode(z5, 2, PM(z5, [[[1, 0], [0, 1]], [[1, 1], [1, 1]]]))
    with pytest.raises(PreconditionViolated, match="not reduced"):
        is_mdp(C4)


def test_reverse_encoder_requires_a_reduced_encoder():
    # rows (1, 1 + z) and (0, z): the leading rows are (0, 1) twice
    z5 = zmod(5)
    C = ConvCode(z5, 2, PM(z5, [[[1, 1], [0, 0]], [[0, 1], [0, 1]]]))
    with pytest.raises(NotReduced):
        reverse_encoder(C)


def test_reverse_encoder_requires_equal_row_degrees(z121):
    G = PM(z121, [[[1, 2, 1], [11, 22, 11], [0, 1, 1], [0, 11, 11]],
                  [[1, 3, 4], [11, 33, 44], [0, 0, 0], [0, 0, 0]]])
    C = ConvCode(z121, 3, G)
    with pytest.raises(UnequalRowDegrees):
        reverse_encoder(C)


def random_field_encoder(p, k, n, m, rng):
    """A random reduced delay-free encoder over F_p, or None."""
    F = GaloisRing(p, 1, 1)
    els = list(F.elements())
    for _ in range(50):
        try:
            G = PolyMatrix(F, [M(F, [[rng.choice(els) for _ in range(n)]
                                     for _ in range(k)])
                               for _ in range(m + 1)], k=k, n=n)
        except ValueError:
            continue
        if G.degree == m and is_delay_free(G) and is_reduced(G):
            return F, G
    return None, None


def test_distances_and_minors_agree_on_random_lifts():
    # both halves of is_reverse_mdp, the reversed code's by its own
    # preconditions, walk and minors, over GR(p,2,1) and tp(p,2)
    from chaincodes.constructions import lift_from_residue_field
    rng = random.Random(99)
    verdicts = Counter()
    checked = 0
    while checked < 200:
        p = rng.choice([2, 3])
        n, m = rng.choice([2, 3]), rng.choice([1, 2])
        if checked >= 100:  # (2,1,1) and (3,1,1) codes over F_3: some MDP
            p, m = 3, 1
        F, G = random_field_encoder(p, 1, n, m, rng)
        if G is None:
            continue
        for ring in (GaloisRing(p, 2, 1), TruncatedPolyRing(p, 2)):
            C = lift_from_residue_field(G, ring)
            for pred in (is_mdp, is_reverse_mdp):
                verdict = pred(C, DISTANCES)
                assert verdict == pred(C, MINORS), (ring, G.coeffs)
                verdicts[pred.__name__, verdict] += 1
        checked += 1
    assert min(verdicts.values()) >= 10 and len(verdicts) == 4, verdicts


def test_field_lift_mdp_round_trip():
    from chaincodes.constructions import lift_from_residue_field
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        p = rng.choice([2, 3, 11])
        n, m = rng.choice([2, 3]), rng.choice([1, 2])
        F, G = random_field_encoder(p, 1, n, m, rng)
        if G is None:
            continue
        field_code = ConvCode(F, n, G)
        lifted = lift_from_residue_field(G, GaloisRing(p, 2, 1))
        assert is_mdp(field_code, MINORS) == is_mdp(lifted, MINORS)
        checked += 1


def random_sparse_matrix(ring, rows, cols, density, rng):
    els = list(ring.elements())
    return [[rng.choice(els) if rng.random() < density else ring.zero
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("ring", [
    GaloisRing(3, 1, 1), GaloisRing(2, 1, 2),      # fields
    GaloisRing(3, 1, 2),                           # odd p: neg is no copy
    zmod(4), zmod(9), GaloisRing(2, 2, 2),         # Galois rings
    GaloisRing(3, 2, 2),
    TruncatedPolyRing(2, 2), TruncatedPolyRing(4, 2)], ids=repr)
def test_minors_condition_matches_oracle(ring):
    # L <= 3, k0 <= 3 and k0 - 1 <= n <= k0 + 3, so need = (L + 1) k0 runs
    # from 1 up, a bound falls on the last position (k0 = 1) or only on the
    # one before it (k0 = 2), and n < k0 leaves no admissible column
    rng = random.Random(505)
    nu = ring.nu
    verdicts, needs, k0s, empty = Counter(), set(), set(), 0
    # verdicts of the trials with more nonzero projected rows than
    # positions: the general step takes their next-to-last position too
    many_rows = Counter()
    for trial in range(150):
        L, k0 = rng.randint(0, 3), rng.randint(1, 3)
        n = k0 - 1 if trial % 10 == 0 and k0 > 1 else rng.randint(k0, k0 + 3)
        # keep the oracle's enumeration small
        while comb((L + 1) * n, (L + 1) * k0) > 1000:
            L -= 1
        density = rng.choice((0.3, 0.7, 1.0, 1.0))
        if trial % 2:
            # sliding matrix of k0 rows and their gamma-layers
            base = [M(ring, random_sparse_matrix(ring, k0, n, density, rng))
                    for _ in range(rng.randint(1, L + 1))]
            coeffs = [M(ring, [[ring.mul(ring.gamma_power(layer), e)
                                for e in row]
                               for layer in range(nu) for row in b.data])
                      for b in base]
            S = sliding_matrix(PolyMatrix(ring, coeffs, k=nu * k0, n=n), L)
        else:
            # rows that need not be layer-closed, nu times as many as the
            # selected columns
            S = M(ring, random_sparse_matrix(ring, (L + 1) * k0 * nu,
                                             (L + 1) * n, density, rng))
        rows = S.residue_rows()
        verdict = _minors_condition(ring.residue, rows, L, n, k0)
        assert verdict == minors_condition_oracle(S, L, n, k0), trial
        if n < k0:
            empty += 1
        else:
            verdicts[verdict] += 1
            needs.add((L + 1) * k0)
            k0s.add(k0)
            if sum(map(any, rows)) > (L + 1) * k0:
                many_rows[verdict] += 1
    assert min(verdicts[True], verdicts[False]) >= 15, verdicts
    assert {1, 2, 3, 4}.issubset(needs) and max(needs) >= 6, needs
    assert k0s == {1, 2, 3} and empty >= 2, (k0s, empty)
    # a field has only `need` rows; a ring with nu >= 2 draws nu times more
    if nu > 1:
        assert sum(many_rows.values()) >= 20 and len(many_rows) == 2, \
            many_rows


def _leaf_cases(F):
    """(name, residue-code rows, L, n, k0, verdict) whose walk starts at
    its last two positions; a, b, f are nonzero and a != b."""
    a, b, f = 3, 7, 5
    x, y = 2, 9
    fx, fy = F.mul(f, x), F.mul(f, y)
    return [
        ("(0,a) then (0,b)", [[1, 0, 0], [1, a, b]], 0, 3, 2, False),
        ("(a,0) then (b,0)", [[a, b, 1], [0, 0, 1]], 0, 3, 2, False),
        ("proportional", [[x, 1, fx], [y, 0, fy]], 0, 3, 2, False),
        ("independent", [[a, 0, x], [0, b, y]], 0, 3, 2, True),
        ("x = -f*y", [[F.neg(fy), 1, 0], [y, 0, 1]], 0, 3, 2, True),
        ("zero last column", [[1, 0, 0], [0, 1, 0]], 0, 3, 2, False),
        ("zero first column", [[0, 1, 0], [0, 0, 1]], 0, 3, 2, False),
        # only (t', t) with t >= n = 2 are admissible: the proportional
        # columns 0 and 1 are never selected together
        ("proportional before the bound", [[0, 0, 1, 1], [a, b, 0, 1]],
         1, 2, 1, True),
        ("proportional across the bound", [[x, 1, fx, 0], [y, 1, fy, 1]],
         1, 2, 1, False),
        ("three rows", [[1, 0, a], [0, 1, b], [1, 1, x]], 0, 3, 2, True),
        ("three rows, proportional", [[1, 0, f], [0, 1, 0],
                                      [a, 1, F.mul(f, a)]], 0, 3, 2, False),
    ]


@pytest.mark.parametrize("ring", [GaloisRing(11, 1, 2), GaloisRing(3, 1, 3),
                                  GaloisRing(2, 1, 4), zmod(11)], ids=repr)
def test_minors_condition_leaf_cases(ring):
    F = ring.residue
    for name, codes, L, n, k0, expected in _leaf_cases(F):
        S = M(ring, [[ring.lift(c) for c in row] for row in codes])
        verdict = _minors_condition(F, S.residue_rows(), L, n, k0)
        assert verdict == minors_condition_oracle(S, L, n, k0) == expected, \
            name


@pytest.mark.parametrize("rows, verdict, d0", [
    ([[0, 1, 1], [1, 0, 1], [1, 2, 3], [2, 0, 2]], True, 2),
    ([[0, 1, 1], [1, 0, 0], [1, 2, 2], [2, 0, 0]], False, 1)])
def test_minors_leaf_of_three_rows_on_a_validated_code(rows, verdict, d0,
                                                       monkeypatch):
    # a non-standard gamma-basis over Z4 of degree 0: two pivots with
    # e = 0, so L = 0 and need = 2, and three nonzero projected rows, more
    # than the two-row leaf of the last two positions takes
    z4 = zmod(4)
    C = ConvCode(z4, 3, PM(z4, [rows]))
    assert [e for _, e, _ in C._pivots] == [0, 0]
    assert L_index(C.n, C.k, C.delta, z4.nu) == 0
    F, walked, ratios, clears = z4.residue, [], [], []
    walk_codes, walk_ratio = F.walk_codes, F.walk_ratio
    walk_clear = F.walk_clear

    def counting_codes(row):
        walked.append(row)
        return walk_codes(row)

    def counting_ratio(x, y):
        ratios.append((x, y))
        return walk_ratio(x, y)

    def counting_clear(rows, start, prow, c):
        clears.append(c)
        return walk_clear(rows, start, prow, c)

    monkeypatch.setattr(F, "walk_codes", counting_codes)
    monkeypatch.setattr(F, "walk_ratio", counting_ratio)
    monkeypatch.setattr(F, "walk_clear", counting_clear)
    assert is_mdp(C, MINORS) == verdict
    # the general step takes the next-to-last position, so the two-row
    # leaf is never entered
    assert len(walked) == 3 and ratios == [] and clears, \
        (walked, ratios, clears)
    assert is_mdp(C, DISTANCES) == verdict
    assert column_distance(C, 0) == column_distance_oracle(C, 0) == d0


def test_two_row_leaf_makes_one_walk_ratio_per_column():
    # every column nonzero and of its own ratio: the sweep sees them all,
    # and keys each column with x != 0 by one log difference, with no
    # field product or inverse; (0, y) is keyed -1 with no call
    F = CountingField(GaloisRing(11, 1, 2).residue)
    rows = [[1, 0, 1, 2, 3, 5, 7], [0, 1, 1, 1, 1, 1, 1]]
    assert _minors_condition(F, rows, 0, 7, 2)
    assert F.calls["walk_ratio"] == 6, F.calls
    assert not F.calls["mul"] and not F.calls["inv"], F.calls


# ------------------------------------------------------------ serialization

def test_json_round_trip(code322):
    obj = code322.to_json()
    clone = ConvCode.from_json(obj)
    assert clone.encoder == code322.encoder
    assert clone.n == code322.n and clone.ring == code322.ring


def test_json_claimed_mismatch(code322):
    obj = code322.to_json()
    obj["claimed"]["delta"] = 3
    with pytest.raises(CodeLoadError):
        ConvCode.from_json(obj)
    obj["claimed"]["delta"] = 2
    obj["claimed"]["k"] = 3
    with pytest.raises(CodeLoadError):
        ConvCode.from_json(obj)


def test_delta_runs_the_reducedness_check_once(code322, monkeypatch):
    from chaincodes import conv
    calls = []
    real = conv.is_reduced

    def counting(G):
        calls.append(G)
        return real(G)

    monkeypatch.setattr(conv, "is_reduced", counting)
    C = ConvCode(code322.ring, code322.n, code322.encoder)
    assert [C.delta for _ in range(4)] == [2] * 4
    assert C.to_json()["claimed"]["delta"] == 2
    assert len(calls) == 1


def test_loaded_code_decides_reducedness_once(code322, monkeypatch):
    # read_code checks the claimed delta, and the loaded code keeps the
    # reducedness that check decided
    from chaincodes import conv
    calls = []
    real = conv.is_reduced

    def counting(G):
        calls.append(G)
        return real(G)

    obj = json.loads(json.dumps(code322.to_json()))
    monkeypatch.setattr(conv, "is_reduced", counting)
    C = ConvCode.from_json(obj)
    assert is_mdp(C) and C.delta == 2
    assert len(calls) == 1
    del obj["claimed"]["delta"]
    calls.clear()
    C = ConvCode.from_json(obj)
    assert calls == []
    assert is_mdp(C) and C.delta == 2
    assert len(calls) == 1


def test_delta_of_unreduced_encoder_raises_every_time():
    # rows (1, z) and (0, z): a gamma-basis over Z3 (determinant z), whose
    # leading coefficient rows (0, 1) and (0, 1) are dependent
    z3 = zmod(3)
    C = ConvCode(z3, 2, PM(z3, [[[1, 0], [0, 0]], [[0, 1], [0, 1]]]))
    assert not C.reduced()
    for _ in range(2):
        with pytest.raises(NotReduced):
            C.delta


def test_optimal_cd_bound_is_the_two_branch_formula():
    # one expression gives the two-branch value on every input it accepts,
    # and for nu | k the bound of the parameters (k/nu, 0, ..., 0)
    accepted = 0
    for n, k, nu, j in product(range(1, 12), range(1, 12), range(1, 5),
                               range(9)):
        try:
            bound = optimal_cd_bound(j, n, k, nu)
        except (InvalidParams, NuNotDividingK):
            continue
        accepted += 1
        assert bound == optimal_cd_bound_by_cases(j, n, k, nu), (j, n, k, nu)
        if k % nu == 0:
            assert bound == column_distance_bound(
                j, n, (k // nu,) + (0,) * (nu - 1), k), (j, n, k, nu)
    assert accepted == 1675
    # ceil(k / nu) is exact past 2^53: n - k + 1 at j = 0
    big = 10 ** 17 + 1
    assert optimal_cd_bound(0, 2 * big, big, 1) == big + 1
    assert optimal_cd_bound(1, 2 * big, 2 * big, 2) == 2 * big + 1
    with pytest.raises(InvalidParams):
        optimal_cd_bound(0, big - 1, big, 1)


def spaced_code(delta):
    """The (2, 1) Z5 code of G_0 = (1, 1) and G_delta = (1, 2), with zero
    coefficients between them: L = 2 delta."""
    z5 = zmod(5)
    return ConvCode(z5, 2, PM(z5, [[[1, 1]]] + [[[0, 0]]] * (delta - 1)
                              + [[[1, 2]]]))


def at_depth(frames, call):
    """call() from `frames` nested calls down, as a deep caller makes it."""
    return call() if frames == 0 else at_depth(frames - 1, call)


def test_the_minors_walk_depth_is_bounded():
    # (L + 1) k0 = 255 is walked, from 256 frames down, under Python's
    # default recursion limit; 1,201 is refused before any row is built
    C = spaced_code(127)
    assert (L_index(2, 1, 127, 1) + 1) * 1 == 255 <= MAX_WALK_DEPTH
    assert at_depth(256, lambda: is_mdp(C, MINORS)) in (True, False)
    with pytest.raises(InvalidParams, match="walk depth limit 256"):
        is_mdp(spaced_code(600), MINORS)


def test_distance_bounds_are_listed_up_to_a_limit():
    b = distance_bounds(3, 2, 2, 2, max_j=MAX_BOUNDS_J)
    assert len(b.per_j) == MAX_BOUNDS_J + 1
    for max_j, delta in ((MAX_BOUNDS_J + 1, 2), (10 ** 9, 2),
                         (None, 10 ** 30)):
        with pytest.raises(InvalidParams, match="bounds are listed up to"):
            distance_bounds(3, 2, delta, 2, max_j=max_j)


# column_distance of j = 10^9 under a 1 GiB address-space limit: the budget
# gate compares bit lengths, so no power of 5 that wide is built
FAR_PAST_THE_BUDGET = """
import json, resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from chaincodes import zmod
from chaincodes.conv import ConvCode, PolyMatrix, column_distance
from chaincodes.errors import BudgetExceeded
from chaincodes.linalg import RingMatrix
z5 = zmod(5)
C = ConvCode(z5, 2, PolyMatrix(z5, [RingMatrix(z5, [[1, 1]]),
                                    RingMatrix(z5, [[1, 2]])]))
start = time.monotonic()
try:
    column_distance(C, 10 ** 9)
except BudgetExceeded as exc:
    print(json.dumps({"requested": exc.requested, "message": str(exc),
                      "seconds": time.monotonic() - start}))
"""


def test_column_distance_far_past_the_budget_raises_at_once():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = json.loads(subprocess.run(
        [sys.executable, "-c", FAR_PAST_THE_BUDGET], capture_output=True,
        text=True, env=env, check=True, timeout=20).stdout)
    # (q^k - 1) q^(jk) with q = 5, k = 1, j = 10^9
    assert out["requested"] == "5^1000000001 - 5^1000000000"
    assert out["message"] == (
        "5^1000000001 - 5^1000000000 weight evaluations for column distance "
        "j=1000000000 exceed the budget 10000000")
    assert out["seconds"] < 1


def test_the_budget_gate_writes_every_amount_python_can_print():
    # an amount of up to WRITTEN_BITS bits is reported as the int, a wider
    # one as the exact text base^exponent, whether bit lengths or the built
    # int decide it
    def requested(*args, **kwargs):
        with pytest.raises(BudgetExceeded) as exc:
            check_budget("things", *args, **kwargs)
        error = exc.value
        assert str(error) == (f"{error.requested} things exceed the budget "
                              f"{error.allowed}")
        return error.requested

    assert requested(3, 2, 0) == 9
    assert requested(11, 3, 10, minus=2) == 11 ** 3 - 11 ** 2
    assert requested(2, 13000, 2 ** 13000 - 1) == 2 ** 13000
    check_budget("things", 2, 13000, 2 ** 13000)
    check_budget("things", 2, 14100, 10 ** 4299)  # 2^14100 < 10^4245
    check_budget("things", 1, 10 ** 9, 1)
    check_budget("things", 0, 10 ** 9, 0)
    assert requested(3, 13000, 10 ** 4000) == "3^13000"  # 20,605 bits
    assert requested(121, 2999, 10) == "121^2999"
    assert requested(5, 10 ** 9 + 1, 10, minus=10 ** 9) == \
        "5^1000000001 - 5^1000000000"

import random
from collections import Counter

import pytest

from chaincodes import GaloisRing, zmod
from chaincodes.conv import (DISTANCES, MINORS, ConvCode, PolyMatrix,
                             column_distance, column_distance_bound,
                             distance_bounds, distance_profile,
                             embedding_preserves_L, field_L_index,
                             gamma_degree, generalized_singleton_bound,
                             is_delay_free, is_free_code, is_mdp,
                             is_polynomial_gamma_basis, is_reduced,
                             is_reverse_mdp, L_index,
                             leading_coefficient_matrix, optimal_cd_bound,
                             reverse_encoder, sliding_matrix,
                             _minors_condition, _normalised_weights)
from chaincodes.errors import (BudgetExceeded, CodeLoadError, InvalidParams,
                               NotDelayFree, NotReduced, NuNotDividingK,
                               PreconditionViolated, UnequalRowDegrees,
                               ZeroRow)
from chaincodes.linalg import (RingMatrix, is_gamma_generator_sequence,
                               is_gamma_linearly_independent, parameters_of)
from chaincodes.rings import TruncatedPolyRing, residue_ring
from oracles import (column_distance_oracle, message_weights,
                     minors_condition_oracle)


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


def test_leading_coefficient_matrix(z4):
    G = PM(z4, [[[1, 1], [2, 2]], [[1, 0], [2, 0]]])
    lcm = leading_coefficient_matrix(G)
    assert [[e[0] for e in row] for row in lcm.data] == [[1, 0], [2, 0]]


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


def test_each_column_distance_is_walked_once(monkeypatch):
    from chaincodes import conv
    from chaincodes.constructions import lift_from_residue_field
    walked = []
    real = conv._normalised_weights

    def counting(C, j):
        walked.append(j)
        return real(C, j)

    monkeypatch.setattr(conv, "_normalised_weights", counting)
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


def assert_walk_matches_oracle(C, j, weights):
    """The Gray walk visits exactly the messages whose first nonzero digit
    is 1, whatever the rows: the same multiset of weights."""
    normalised = Counter(w for u, w in weights
                         if next(t for t in u if t) == 1)
    assert Counter(_normalised_weights(C, j)) == normalised, j


def assert_matches_oracle(C):
    """On a gamma-basis the normalised minimum is the column distance,
    both when the code walks it and when it remembers it."""
    known = list(oracle_weights(C))
    for _ in range(2):
        for j, weights in known:
            assert column_distance(C, j) == min(w for _, w in weights), j
    for j, weights in known:
        assert_walk_matches_oracle(C, j, weights)


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
        G = base
        for layer in range(1, ring.nu):
            G = G.stack(base.scalar_mul(ring.gamma_power(layer)))
        if G.degree == 1 and is_delay_free(G):
            assert_matches_oracle(ConvCode(ring, G.n, G))
            direct += 1
    for _ in range(3):
        # rows that need not be a gamma-generator sequence, on which a walk
        # with a wrong delta no longer permutes the same codewords
        C = ConvCode(ring, 3, random_poly_matrix(ring, 1, 3, 1, rng),
                     validate=False)
        for j, weights in oracle_weights(C):
            assert_walk_matches_oracle(C, j, weights)


def test_column_distance_checks_an_unvalidated_encoder_once(code322,
                                                           monkeypatch):
    from chaincodes import conv
    calls = []
    real = conv.is_polynomial_gamma_basis

    def counting(G, budget=None):
        calls.append(G)
        return real(G, budget)

    monkeypatch.setattr(conv, "is_polynomial_gamma_basis", counting)
    assert distance_profile(code322, 1) == (3, 5)
    assert calls == []  # validation witnessed it
    C = ConvCode(code322.ring, code322.n, code322.encoder, validate=False)
    assert distance_profile(C, 1) == (3, 5)
    assert len(calls) == 1
    # delay-free, but not a gamma-basis: the unit normalisation would
    # miss the minimum on these rows
    z27 = zmod(27)
    G = PM(z27, [[[24, 25], [2, 4]], [[19, 19], [14, 4]]])
    C = ConvCode(z27, 2, G, validate=False)
    assert is_delay_free(G)
    assert (min(_normalised_weights(C, 0)), column_distance_oracle(C, 0)) \
        == (2, 1)
    for j in (0, 1, 0):
        with pytest.raises(PreconditionViolated):
            column_distance(C, j)
    assert len(calls) == 2


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
            if not is_polynomial_gamma_basis(G):
                continue
            C = ConvCode(ring, n, G, validate=False)
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


def test_optimal_cd_bound_322():
    assert optimal_cd_bound(0, 3, 2, 2) == 3
    assert optimal_cd_bound(1, 3, 2, 2) == 5


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
    real_walk, real_basis = conv._normalised_weights, \
        conv.is_polynomial_gamma_basis

    def counting_walk(code, j):
        walked.append((code is C, j))
        return real_walk(code, j)

    def counting_basis(G, budget=None):
        validated.append(G)
        return real_basis(G, budget=budget)

    monkeypatch.setattr(conv, "_normalised_weights", counting_walk)
    monkeypatch.setattr(conv, "is_polynomial_gamma_basis", counting_basis)
    assert is_reverse_mdp(C, DISTANCES)
    assert is_reverse_mdp(C, DISTANCES)
    L = L_index(C.n, C.k, C.delta, z121.nu)
    assert walked == [(True, j) for j in range(L + 1)] + \
        [(False, j) for j in range(L + 1)]
    assert validated == [reverse_encoder(C)]


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
    from chaincodes.constructions import lift_from_residue_field
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        p = rng.choice([2, 3])
        n, m = rng.choice([2, 3]), rng.choice([1, 2])
        F, G = random_field_encoder(p, 1, n, m, rng)
        if G is None:
            continue
        C = lift_from_residue_field(G, GaloisRing(p, 2, 1))
        assert is_mdp(C, DISTANCES) == is_mdp(C, MINORS)
        checked += 1


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
    zmod(4), zmod(9), GaloisRing(2, 2, 2),         # Galois rings
    TruncatedPolyRing(2, 2), TruncatedPolyRing(4, 2)], ids=repr)
def test_minors_condition_matches_oracle(ring):
    rng = random.Random(505)
    nu = ring.nu
    verdicts = Counter()
    for trial in range(100):
        L, k0 = rng.choice((0, 0, 1, 1, 2)), rng.randint(1, 2)
        n = rng.randint(k0, k0 + 2)
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
            # rows that need not be layer-closed
            S = M(ring, random_sparse_matrix(ring, (L + 1) * k0 * nu,
                                             (L + 1) * n, density, rng))
        verdict = _minors_condition(S, L, n, k0, assert_genseq=False)
        assert verdict == minors_condition_oracle(S, L, n, k0), trial
        verdicts[verdict] += 1
    assert min(verdicts[True], verdicts[False]) >= 15, verdicts


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

    def counting(G, budget=None):
        calls.append(G)
        return real(G, budget)

    monkeypatch.setattr(conv, "is_reduced", counting)
    C = ConvCode(code322.ring, code322.n, code322.encoder)
    assert [C.delta for _ in range(4)] == [2] * 4
    assert C.to_json()["claimed"]["delta"] == 2
    assert len(calls) == 1


def test_delta_of_unreduced_encoder_raises_every_time():
    z9 = zmod(9, convention="teichmuller")  # T = {0, 1, 8}
    C = ConvCode(z9, 1, PM(z9, [[[0], [0]], [[1], [8]]]),  # rows z and 8z
                 validate=False)
    for _ in range(2):
        with pytest.raises(NotReduced):
            C.delta

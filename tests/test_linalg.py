import random
from itertools import product

import pytest

from chaincodes import GaloisRing, TruncatedPolyRing, zmod
from chaincodes.block import BlockCode
from chaincodes.conv import ConvCode, PolyMatrix, is_polynomial_gamma_basis
from chaincodes.errors import BudgetExceeded, NotSquare, ZeroMatrix
from chaincodes.fields import get_field
from chaincodes import linalg
from chaincodes.linalg import (RingMatrix, determinant,
                               diagonal_exponents, diagonal_reduction,
                               field_echelon, field_left_kernel, field_rank,
                               gamma_basis,
                               gamma_dimension, gamma_span_solve,
                               gamma_standard_form,
                               is_gamma_generator_sequence,
                               is_gamma_linearly_independent,
                               module_solve_left, parameters_of,
                               residue_determinant, shape_of, standard_form)
from oracles import (determinant_by_elimination, field_echelon_by_row_update,
                     gamma_standard_form_by_clearing,
                     generator_sequence_by_enumeration,
                     independent_by_enumeration, is_unit_determinant, matmul)


@pytest.fixture(scope="module")
def z4():
    return zmod(4)


@pytest.fixture(scope="module")
def z9():
    return zmod(9)


def M(ring, rows):
    return RingMatrix(ring, rows)


def random_matrix(ring, m, n, rng):
    els = list(ring.elements())
    return M(ring, [[rng.choice(els) for _ in range(n)] for _ in range(m)])


# --------------------------------------------------------------- matrices

def test_outside_entries_are_coerced():
    z121 = zmod(121)
    assert RingMatrix(z121, [[-1, 200]]).data == (((120,), (79,)),)


def test_ragged_rows_hash_repr_and_a_non_square_residue_determinant(z4):
    with pytest.raises(ValueError, match="ragged rows"):
        RingMatrix(z4, [[1, 2], [3]])
    A = RingMatrix(z4, [[1, 2, 3]])
    assert hash(A) == hash(RingMatrix(z4, [[5, 6, 7]])) and len({A, A}) == 1
    assert repr(A) == "RingMatrix(Z_4, 1x3)"
    with pytest.raises(NotSquare):
        residue_determinant(A)


def test_derived_matrices_equal_coerced_ones():
    # submatrix and matmul keep the canonical entries without coercing
    # them again
    rng = random.Random(77)
    for ring in (zmod(8), GaloisRing(2, 2, 2), TruncatedPolyRing(4, 2)):
        A = random_matrix(ring, 3, 4, rng)
        B = random_matrix(ring, 4, 2, rng)
        for got in (A.submatrix([2, 0], [1, 3]),
                    A.submatrix(range(A.rows), [3, 1]), matmul(A, B),
                    A.submatrix([], [0, 1])):
            again = RingMatrix(ring, [list(row) for row in got.data],
                               cols=got.cols)
            assert got == again
            assert (got.rows, got.cols) == (again.rows, again.cols)


def library_built_matrices(ring, rng, monkeypatch):
    """Every matrix the library builds from canonical entries without
    coercing them again, on seeded inputs over `ring`."""
    from chaincodes import conv, linalg
    from chaincodes.constructions import (ToeplitzSpec, extract_mdp_blocks,
                                          lift_from_residue_field,
                                          lift_matrix, stack_gamma_layers)
    from chaincodes.rings import residue_ring
    els = list(ring.elements())
    A = random_matrix(ring, 3, 4, rng)
    while A.is_zero():
        A = random_matrix(ring, 3, 4, rng)
    G = conv.PolyMatrix(ring, [random_matrix(ring, 2, 3, rng)
                               for _ in range(2)], k=2, n=3)
    yield RingMatrix.identity(ring, 3)
    yield RingMatrix.zeros(ring, 2, 3)
    yield G.coefficient(5)
    yield conv.leading_coefficient_matrix(G)
    yield conv.sliding_matrix(G, 2)
    yield conv._shifted_rows(conv.sliding_matrix(G, 2), 2, range(2), range(2))
    yield from diagonal_reduction(A)[1:]
    yield gamma_basis(A)
    yield standard_form(A)[0]
    yield gamma_standard_form(A)[0]
    tails = []
    real = linalg.module_solve_left

    def recording(tail, target):
        tails.append(tail)
        return real(tail, target)

    # gamma * (1, 1, 0, 0) is the sum of two later rows, not one of them,
    # so the tail after the first row is passed to module_solve_left
    layers = [[1, 1, 0, 0]] + [[ring.gamma_power(e) if j == c else ring.zero
                                for j in range(4)]
                               for e in range(1, ring.nu) for c in (0, 1)]
    monkeypatch.setattr(linalg, "module_solve_left", recording)
    assert is_gamma_generator_sequence(M(ring, layers))
    monkeypatch.undo()
    assert tails
    yield from tails
    spec = ToeplitzSpec(ring, [rng.choice(els) for _ in range(6)])
    yield spec.materialize()
    # two units make a superregular 2 x 2 Toeplitz matrix
    units = [e for e in els if ring.valuation(e) == 0]
    yield from extract_mdp_blocks(ToeplitzSpec(ring, [rng.choice(units),
                                                      rng.choice(units)]),
                                  n=2, k=1, L=0).coeffs
    square = random_matrix(ring, 3, 3, rng)
    while diagonal_exponents(square) != (0, 0, 0):
        square = random_matrix(ring, 3, 3, rng)
    yield stack_gamma_layers(square, range(3 - ring.nu + 1, 4))
    field = residue_ring(ring)
    yield lift_matrix(random_matrix(field, 2, 3, rng), ring)
    Gt = conv.PolyMatrix(field, [random_matrix(field, 1, 3, rng)
                                 for _ in range(2)], k=1, n=3)
    while not (conv.is_reduced(Gt) and Gt.degree == 1):
        Gt = conv.PolyMatrix(field, [random_matrix(field, 1, 3, rng)
                                     for _ in range(2)], k=1, n=3)
    yield from lift_from_residue_field(Gt, ring).encoder.coeffs


@pytest.mark.parametrize("ring", [zmod(8), GaloisRing(3, 2, 2),
                                  TruncatedPolyRing(4, 2)], ids=repr)
def test_library_built_matrices_equal_coerced_ones(ring, monkeypatch):
    # a bare int or an unreduced coordinate that skipped coercion would
    # differ from its coerced copy
    rng = random.Random(88)
    built = 0
    for got in library_built_matrices(ring, rng, monkeypatch):
        assert got == RingMatrix(ring, got.data, cols=got.cols)
        assert got.rows == len(got.data)
        built += 1
    assert built >= 18


# --------------------------------------------------------------- reduction

def test_diagonal_reduction_identity_plus_gamma(z4):
    exps, L, R = diagonal_reduction(M(z4, [[1, 0], [0, 2]]))
    assert exps == (0, 1)


def test_diagonal_reduction_rank_one(z4):
    exps, _, _ = diagonal_reduction(M(z4, [[2, 2], [2, 2]]))
    assert exps == (1,)


REDUCTION_RINGS = [zmod(8), zmod(27), GaloisRing(2, 2, 2), GaloisRing(3, 3, 1),
                   TruncatedPolyRing(4, 2), TruncatedPolyRing(2, 3)]


def sparse_matrix(ring, m, n, rng):
    """m x n with zero, unit and gamma-multiple entries mixed."""
    els = list(ring.elements())
    density = rng.choice((0.3, 0.7, 1.0))
    return M(ring, [[(ring.mul(ring.gamma, rng.choice(els))
                      if rng.random() < 0.3 else rng.choice(els))
                     if rng.random() < density else ring.zero
                     for _ in range(n)] for _ in range(m)])


def test_reduction_transforms_are_consistent():
    # L*A*R = diag(gamma^e), L and R of unit determinant, on random, tall,
    # rank-deficient and zero matrices
    rng = random.Random(7)
    for ring in REDUCTION_RINGS:
        cases = [RingMatrix.zeros(ring, 2, 3), RingMatrix.zeros(ring, 3, 1)]
        cases += [sparse_matrix(ring, rng.randint(1, 4), rng.randint(1, 4),
                                rng) for _ in range(12)]
        for _ in range(4):
            n = rng.randint(1, 3)
            cases.append(sparse_matrix(ring, n + rng.randint(1, 2), n, rng))
        for _ in range(4):
            # the third row is the first plus c times the second
            A = sparse_matrix(ring, 2, rng.randint(3, 4), rng)
            c = rng.choice(list(ring.elements()))
            cases.append(M(ring, list(A.data) + [[
                ring.add(a, ring.mul(c, b)) for a, b in zip(*A.data)]]))
        deficient = 0
        for A in cases:
            m, n = A.rows, A.cols
            exps, L, R = diagonal_reduction(A)
            D = matmul(matmul(L, A), R)
            for i in range(m):
                for j in range(n):
                    want = (ring.gamma_power(exps[i])
                            if i == j and i < len(exps) else ring.zero)
                    assert D.entry(i, j) == want, (A.data, exps)
            assert (L.rows, L.cols, R.rows, R.cols) == (m, m, n, n)
            assert is_unit_determinant(L)
            assert is_unit_determinant(R)
            assert list(exps) == sorted(exps)
            deficient += len(exps) < min(m, n)
        assert deficient >= 6, ring


@pytest.mark.parametrize("ring", REDUCTION_RINGS, ids=repr)
def test_exponents_match_the_reduction(ring):
    rng = random.Random(31)
    for _ in range(40):
        A = sparse_matrix(ring, rng.randint(1, 5), rng.randint(1, 5), rng)
        exps = diagonal_exponents(A)
        assert exps == diagonal_reduction(A)[0]
        assert shape_of(A) == tuple(sum(1 for e in exps if e <= i)
                                    for i in range(ring.nu))
        assert gamma_dimension(A) == sum(ring.nu - e for e in exps)


def test_shape_and_parameters(z4):
    A = M(z4, [[1, 0], [0, 2]])
    assert shape_of(A) == (1, 2)
    assert gamma_dimension(A) == 3
    assert parameters_of(A) == (1, 1)
    B = M(z4, [[2, 2], [2, 2]])
    assert shape_of(B) == (0, 1)
    assert gamma_dimension(B) == 1
    assert parameters_of(B) == (0, 1)


def test_shape_zero_matrix(z4):
    assert shape_of(RingMatrix.zeros(z4, 2, 3)) == (0, 0)
    assert gamma_dimension(RingMatrix.zeros(z4, 2, 3)) == 0


# --------------------------------------------------------------- span/oracle

def test_gamma_span_solve_hit(z4):
    A = M(z4, [[1, 1], [0, 2]])
    t = gamma_span_solve(A, [z4.coerce(1), z4.coerce(3)])
    assert t == ((1,), (1,))  # (1,1) + (0,2) = (1,3)


def test_gamma_span_solve_miss(z4):
    A = M(z4, [[1, 1], [0, 2]])
    assert gamma_span_solve(A, [z4.coerce(3), z4.coerce(1)]) is None


def test_independent_oracle_basic(z4):
    assert is_gamma_linearly_independent(M(z4, [[1, 1], [2, 2]]))
    assert not is_gamma_linearly_independent(M(z4, [[2, 0], [2, 0]]))


def test_zero_row_is_dependent(z4):
    assert not is_gamma_linearly_independent(M(z4, [[1, 0], [0, 0]]))


def test_generator_sequence_predicate(z4):
    good = M(z4, [[1, 1], [2, 2]])
    assert is_gamma_generator_sequence(good)
    # gamma * first row is not in the span of the later rows here
    bad = M(z4, [[1, 0], [0, 2]])
    assert not is_gamma_generator_sequence(bad)


def test_methods_agree_on_generator_sequences(z4, z9):
    from chaincodes import TruncatedPolyRing
    rng = random.Random(11)
    for ring in (z4, z9, TruncatedPolyRing(4, 2)):
        for _ in range(500):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            A = random_matrix(ring, m, n, rng)
            B = gamma_basis(A)
            if B.rows == 0:
                continue
            assert (independent_by_enumeration(B)
                    == (gamma_dimension(B) == B.rows)
                    == is_gamma_linearly_independent(B))


def layer_closed(A):
    """Whether gamma times each row is zero or literally a later row, the
    shape of matrices stacked from gamma-layers."""
    ring = A.ring
    for i, row in enumerate(A.data):
        g = tuple(ring.mul(ring.gamma, e) for e in row)
        if any(e != ring.zero for e in g) and g not in A.data[i + 1:]:
            return False
    return True


def test_generator_sequence_that_is_not_layer_closed(z4):
    # gamma * (1, 1) = (2, 0) + (0, 2) is a T-combination of the later
    # rows but not literally one of them, and the projection has a kernel
    A = M(z4, [[1, 1], [2, 0], [0, 2]])
    assert is_gamma_generator_sequence(A) and not layer_closed(A)
    assert field_left_kernel(z4.residue, A.residue_rows())
    assert independent_by_enumeration(A)
    assert gamma_dimension(A) == A.rows
    assert is_gamma_linearly_independent(A)


@pytest.mark.parametrize("ring", [zmod(4), zmod(9), TruncatedPolyRing(4, 2)],
                         ids=repr)
def test_deciders_agree_off_the_layer_closed_shortcut(ring):
    # generator sequences that are not layer-closed, found by enumeration
    rng = random.Random(12)
    gamma, zero = ring.gamma, ring.zero
    verdicts = []
    while len(verdicts) < 200:
        m, n = rng.randint(2, 4), rng.randint(1, 3)
        A = random_matrix(ring, m, n, rng)
        if (any(ring.mul(gamma, e) != zero for e in A.data[-1])
                or layer_closed(A)
                or not field_left_kernel(ring.residue, A.residue_rows())
                or not generator_sequence_by_enumeration(A)):
            continue
        verdict = independent_by_enumeration(A)
        assert verdict == (gamma_dimension(A) == A.rows)
        assert verdict == is_gamma_linearly_independent(A)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


# the rings of the seeded generator-sequence comparison
GENSEQ_RINGS = [zmod(4), zmod(8), zmod(9), zmod(27), TruncatedPolyRing(4, 2),
                GaloisRing(2, 2, 2), TruncatedPolyRing(2, 3)]


def mixed_sequences(ring, seed, count=150):
    """Seeded matrices: one or two random rows followed by their
    gamma-multiples, layer by layer, then up to three edits that add a later
    row to an earlier one, scale a row by a random element or swap two
    rows, so that both verdicts occur and so do generator sequences that
    are not layer-closed."""
    rng = random.Random(seed)
    els = list(ring.elements())
    for _ in range(count):
        n = rng.randint(1, 3)
        layer = [[rng.choice(els) for _ in range(n)]
                 for _ in range(rng.randint(1, 2))]
        rows = []
        for _ in range(ring.nu):
            rows += layer
            layer = [[ring.mul(ring.gamma, e) for e in row] for row in layer]
        for _ in range(rng.randint(0, 3)):
            i, j = sorted(rng.randrange(len(rows)) for _ in range(2))
            kind = rng.randrange(3)
            if kind == 0:
                rows[i] = [ring.add(x, y) for x, y in zip(rows[i], rows[j])]
            elif kind == 1:
                c = rng.choice(els)
                rows[i] = [ring.mul(c, e) for e in rows[i]]
            else:
                rows[i], rows[j] = rows[j], rows[i]
        yield M(ring, rows)


@pytest.mark.parametrize("ring", GENSEQ_RINGS, ids=repr)
def test_generator_sequence_matches_enumeration(ring):
    kinds = set()
    for A in mixed_sequences(ring, 13):
        verdict = generator_sequence_by_enumeration(A)
        assert is_gamma_generator_sequence(A) == verdict, A.data
        kinds.add((verdict, layer_closed(A)))
    assert kinds == {(True, True), (True, False), (False, False)}


def delay_free_encoders(ring, seed, count=20):
    """Seeded gamma-bases over R[z] of degree 1 to 3: rows h_1(z), ...,
    h_k0(z) whose constant terms have independent projections, then gamma
    times them, layer by layer, with one later row times 1 or z added to
    an earlier one in about half of them (a unimodular row operation)."""
    rng = random.Random(seed)
    els = list(ring.elements())
    field = ring.residue
    made = 0
    while made < count:
        k0, m = rng.randint(1, 2), rng.randint(1, 2)
        n = k0 + rng.randint(0, 1)
        layer = [[[rng.choice(els) for _ in range(n)] for _ in range(k0)]
                 for _ in range(m + 1)]
        if field_rank(field, M(ring, layer[0]).residue_rows()) < k0:
            continue
        coeffs = []
        for h in layer:
            rows = []
            for b in range(ring.nu):
                g = ring.gamma_power(b)
                rows += [[ring.mul(g, e) for e in row] for row in h]
            coeffs.append(rows)
        if rng.random() < 0.5 and len(coeffs[0]) > 1:
            i = rng.randrange(len(coeffs[0]) - 1)
            j = rng.randrange(i + 1, len(coeffs[0]))
            t = rng.randint(0, 1)
            coeffs.append([[ring.zero] * n for _ in coeffs[0]])
            for d in range(len(coeffs) - 1 - t, -1, -1):
                coeffs[d + t][i] = [ring.add(x, y) for x, y in
                                    zip(coeffs[d + t][i], coeffs[d][j])]
        made += 1
        yield PolyMatrix(ring, [M(ring, c) for c in coeffs])


@pytest.mark.parametrize("ring", GENSEQ_RINGS, ids=repr)
def test_generator_sequence_check_enumerates_nothing(ring, monkeypatch):
    mats = list(mixed_sequences(ring, 13))
    expected = [generator_sequence_by_enumeration(A) for A in mats]
    encoders = list(delay_free_encoders(ring, 13))

    def boom(*args):
        raise AssertionError("the generator-sequence check enumerated")

    monkeypatch.setattr(linalg, "iter_span", boom)
    monkeypatch.setattr(linalg, "_lifted_solution", boom)
    assert [is_gamma_generator_sequence(A) for A in mats] == expected
    # the same walk validates delay-free encoders with no enumeration
    for G in encoders:
        assert is_polynomial_gamma_basis(G), G.coeffs
        assert ConvCode(ring, G.n, G).delay_free()


def test_generator_sequence_past_the_oracle_budget():
    # the rows after the first project to zero, so a search of their
    # T-span for gamma * (1, 1, 0, ..., 0) would lift 11^7 candidates
    z121 = zmod(121)
    A = M(z121, [[1, 1, 0, 0, 0, 0, 0]]
          + [[11 if j == i else 0 for j in range(7)] for i in range(7)])
    tail = A.submatrix(range(1, 8), range(7))
    with pytest.raises(BudgetExceeded) as exc:
        gamma_span_solve(tail, [z121.mul(z121.gamma, e) for e in A.row(0)])
    assert exc.value.requested == 11 ** 7 == 19487171
    assert is_gamma_generator_sequence(A)
    assert is_gamma_linearly_independent(A)
    code = BlockCode(A)
    assert code.k == 8 and code.encoder is A


def test_span_solve_over_the_oracle_budget(z4, monkeypatch):
    # residue rows that are all zero leave a kernel of dimension 1 or 2
    monkeypatch.setattr(linalg, "ORACLE_BUDGET", 1)
    two = z4.coerce(2)
    # not even in the row module: answered without enumeration
    assert gamma_span_solve(M(z4, [[2, 2]]), [two, z4.zero]) is None
    with pytest.raises(BudgetExceeded) as exc:
        gamma_span_solve(M(z4, [[2, 0], [0, 2]]), [two, two])
    assert (exc.value.requested, exc.value.allowed) == (4, 1)


def test_independence_over_the_oracle_budget(z4, monkeypatch):
    monkeypatch.setattr(linalg, "ORACLE_BUDGET", 1)
    # gamma * last row != 0: not a generator sequence, so enumerated
    with pytest.raises(BudgetExceeded) as exc:
        is_gamma_linearly_independent(M(z4, [[1, 0], [1, 0]]))
    assert (exc.value.requested, exc.value.allowed) == (2, 1)
    # a generator sequence is decided by gamma-dimension within any budget
    assert not is_gamma_linearly_independent(M(z4, [[2, 0], [2, 0]]))
    assert is_gamma_linearly_independent(M(z4, [[1, 1], [2, 0], [0, 2]]))


def _row_module(A):
    """Every u*A over u in R^m, by brute force."""
    ring = A.ring
    out = set()
    for u in product(list(ring.elements()), repeat=A.rows):
        acc = [ring.zero] * A.cols
        for c, row in zip(u, A.data):
            acc = [ring.add(x, ring.mul(c, e)) for x, e in zip(acc, row)]
        out.add(tuple(acc))
    return out


@pytest.mark.parametrize("ring", [zmod(4), zmod(8), zmod(9),
                                  GaloisRing(2, 2, 2), TruncatedPolyRing(4, 2),
                                  TruncatedPolyRing(2, 3)], ids=repr)
def test_module_solve_left_matches_the_enumerated_row_module(ring):
    rng = random.Random(41)
    els = list(ring.elements())
    members = 0
    for trial in range(50):
        m, n = trial % 4, rng.randint(1, 3)
        A = random_matrix(ring, m, n, rng) if m else \
            RingMatrix(ring, [], cols=n)
        if rng.random() < 0.3 and m:
            # gamma multiples make torsion rows
            A = M(ring, [[ring.mul(ring.gamma, e) for e in row]
                         for row in A.data])
        module = _row_module(A)
        listed = list(module)
        for _ in range(7):
            if rng.random() < 0.5:
                target = list(rng.choice(listed))
            else:
                target = [rng.choice(els) for _ in range(n)]
            got = module_solve_left(A, target)
            assert got == (tuple(target) in module), (A.data, target)
            members += got
    assert 0 < members < 350


# --------------------------------------------------------------- gamma-basis

def test_gamma_basis_row_vector(z4):
    B = gamma_basis(M(z4, [[1, 1]]))
    assert [[e[0] for e in row] for row in B.data] == [[1, 1], [2, 2]]


def test_gamma_basis_torsion_row(z4):
    B = gamma_basis(M(z4, [[2, 0]]))
    assert [[e[0] for e in row] for row in B.data] == [[2, 0]]


def test_gamma_basis_invariants(z4, z9):
    rng = random.Random(3)
    for ring in (z4, z9):
        for _ in range(20):
            A = random_matrix(ring, rng.randint(1, 3), rng.randint(1, 3), rng)
            B = gamma_basis(A)
            assert B.rows == gamma_dimension(A)
            if B.rows:
                assert is_gamma_generator_sequence(B)
                assert is_gamma_linearly_independent(B)
                # every original row lies in the T-span of the basis
                for row in A.data:
                    assert gamma_span_solve(B, list(row)) is not None


# --------------------------------------------------------------- forms

def test_standard_form_pattern_z9(z9):
    S, perm = standard_form(M(z9, [[3, 3], [3, 6]]))
    assert [[e[0] for e in row] for row in S.data] == [[3, 0], [0, 3]]
    assert sorted(perm) == [0, 1]


def tp23(*coeffs):
    """The element sum coeffs[i] * u^i of F_2[u]/(u^3)."""
    return tuple(coeffs) + (0,) * (3 - len(coeffs))


# (ring, A, S, perm); Z9 and Z27 entries are residues
STANDARD_FORM_GOLDENS = {
    "first pivot outside column 0": (
        zmod(9), [[3, 1, 6], [6, 4, 3]],
        [[1, 3, 6], [0, 3, 6]], (1, 0, 2)),
    "back-clearing at level 0": (
        zmod(27), [[1, 2, 5], [1, 3, 7]],
        [[1, 0, 1], [0, 1, 2]], (0, 1, 2)),
    "back-clearing at level 1": (
        zmod(27), [[3, 6, 15, 9], [6, 3, 21, 3], [0, 0, 9, 18]],
        [[3, 0, 15, 6], [0, 3, 18, 18], [0, 0, 9, 0]], (0, 3, 2, 1)),
    "later pivot in a lower column": (
        zmod(9), [[3, 1, 0], [6, 4, 1], [3, 0, 3]],
        [[1, 0, 3], [0, 1, 3], [0, 0, 3]], (1, 2, 0)),
    "rank-deficient": (
        TruncatedPolyRing(2, 3),
        [[tp23(0, 1), tp23(1, 1), tp23(0, 0, 1)],
         [tp23(0, 1), tp23(0, 0, 1), tp23(1, 1)],
         [tp23(0, 1, 1), tp23(1, 1), tp23(0, 1)]],
        [[tp23(1), tp23(), tp23(0, 1, 1)],
         [tp23(), tp23(1), tp23(0, 1, 1)]], (1, 2, 0)),
    "wide": (
        zmod(9), [[3, 6, 1, 0, 4], [0, 3, 2, 3, 1]],
        [[1, 0, 6, 6, 3], [0, 1, 6, 0, 6]], (2, 4, 0, 1, 3)),
}


@pytest.mark.parametrize("case", STANDARD_FORM_GOLDENS)
def test_standard_form_goldens(case):
    ring, rows, want, perm = STANDARD_FORM_GOLDENS[case]
    S, got_perm = standard_form(M(ring, rows))
    assert S == M(ring, want)
    assert got_perm == perm


def test_standard_form_zero_matrix_raises(z4):
    with pytest.raises(ZeroMatrix):
        standard_form(RingMatrix.zeros(z4, 2, 2))


def test_standard_form_pattern_random(z4, z9):
    rng = random.Random(19)
    for ring in (z4, z9):
        for _ in range(25):
            A = random_matrix(ring, rng.randint(1, 4), rng.randint(1, 4), rng)
            if A.is_zero():
                continue
            S, perm = standard_form(A)
            levels = [ring.valuation(S.entry(i, i)) for i in range(S.rows)]
            assert levels == sorted(levels)
            for i in range(S.rows):
                # diagonal entry is exactly gamma^level
                assert S.entry(i, i) == ring.gamma_power(levels[i])
                for j in range(S.rows):
                    if j == i:
                        continue
                    if j < i or levels[j] == levels[i]:
                        # below the diagonal and same-level pivot columns
                        # are clear
                        assert S.entry(i, j) == ring.zero
                # the whole row is divisible by gamma^level
                for j in range(S.cols):
                    assert ring.valuation(S.entry(i, j)) >= levels[i]
            # row modules agree: same shape, and rows span each other
            assert shape_of(S) == shape_of(A)


def test_gamma_standard_form_row_vector(z4):
    G, perm = gamma_standard_form(M(z4, [[1, 1]]))
    assert [[e[0] for e in row] for row in G.data] == [[1, 1], [2, 2]]
    assert perm == (0, 1)


def test_gamma_standard_form_invariants(z4, z9):
    rng = random.Random(23)
    for ring in (z4, z9):
        for _ in range(20):
            A = random_matrix(ring, rng.randint(1, 3), rng.randint(1, 3), rng)
            if A.is_zero():
                continue
            G, perm = gamma_standard_form(A)
            assert G.rows == gamma_dimension(A)
            assert is_gamma_generator_sequence(G)
            assert is_gamma_linearly_independent(G)
            # spans the permuted original rows
            P = A.submatrix(range(A.rows), perm)
            for row in P.data:
                assert gamma_span_solve(G, list(row)) is not None


def test_gamma_standard_form_matches_direct_clearing():
    rng = random.Random(29)
    rings = (zmod(2), zmod(5), GaloisRing(2, 1, 2), zmod(4), zmod(9),
             zmod(9, convention="teichmuller"), zmod(121),
             GaloisRing(2, 2, 2), GaloisRing(3, 2, 2),
             TruncatedPolyRing(2, 2), TruncatedPolyRing(4, 2), zmod(8),
             zmod(27, convention="teichmuller"), TruncatedPolyRing(3, 3),
             zmod(16))
    compared = 0
    for ring in rings:
        for _ in range(240):
            A = sparse_matrix(ring, rng.randint(1, 4), rng.randint(1, 5), rng)
            if A.is_zero():
                with pytest.raises(ZeroMatrix):
                    gamma_standard_form(A)
                continue
            G, perm = gamma_standard_form(A)
            H, want = gamma_standard_form_by_clearing(A)
            assert (G.data, G.cols, perm) == (H.data, H.cols, want), A.data
            compared += 1
    assert compared >= 3000


# --------------------------------------------------------------- determinant

def test_determinant_examples():
    z8 = zmod(8)
    assert determinant(M(z8, [[1, 2], [3, 4]])) == (6,)
    assert determinant(M(z8, [[1, 2], [3, 5]])) == (7,)
    assert is_unit_determinant(M(z8, [[1, 2], [3, 5]]))
    assert not is_unit_determinant(M(z8, [[1, 2], [3, 4]]))


@pytest.mark.parametrize("m", [8, 9, 121])
def test_determinant_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    ring = zmod(m)
    rng = random.Random(m)
    seen = set()
    for size in range(1, 6):
        for trial in range(12):
            rows = [[rng.randrange(m) for _ in range(size)]
                    for _ in range(size)]
            if trial % 4 == 0 and size > 1:
                # a repeated row: singular
                rows[-1] = list(rows[0])
            elif trial % 4 == 1:
                # a row times the prime: determinant not a unit
                rows[0] = [ring.p * x % m for x in rows[0]]
            expected = int(sympy.Matrix(rows).det()) % m
            (got,) = determinant(M(ring, rows))
            assert got == expected, (m, rows)
            seen.add("zero" if got == 0 else
                     "unit" if got % ring.p else "non-unit")
    assert seen == {"zero", "unit", "non-unit"}


def test_determinant_requires_square(z4):
    with pytest.raises(NotSquare):
        determinant(M(z4, [[1, 2, 3], [0, 1, 2]]))


def test_determinant_multiplicative(z4, z9):
    rng = random.Random(31)
    for ring in (z4, z9):
        for _ in range(25):
            n = rng.randint(1, 3)
            A = random_matrix(ring, n, n, rng)
            B = random_matrix(ring, n, n, rng)
            assert determinant(matmul(A, B)) == ring.mul(determinant(A),
                                                         determinant(B))
            # residue path commutes with projection
            assert residue_determinant(A) == ring.project(determinant(A))


def test_determinant_galois_ring():
    gr = GaloisRing(2, 2, 2)
    xi = gr.teichmuller_generator()
    A = M(gr, [[xi, gr.one], [gr.one, xi]])
    d = determinant(A)
    assert d == gr.sub(gr.mul(xi, xi), gr.one)
    assert is_unit_determinant(A) == (gr.valuation(d) == 0)


# rings of every kind the determinant kernels meet: Z8, Z9, Z121, GR(9,2)
# with the extension field F_9 as residue, GR(8,3) and F_4[u]/(u^2)
DET_RINGS = [zmod(8), zmod(9), zmod(121), GaloisRing(3, 2, 2),
             GaloisRing(2, 3, 3), TruncatedPolyRing(4, 2)]


def seeded_square_matrices(ring, seed, sizes=range(7), per_size=16):
    """Square matrices of the given sizes: random ones, and ones with a
    zero first column, a first column of non-units, a repeated row
    (singular) and a row times gamma (a determinant that is not a unit)."""
    rng = random.Random(seed)
    els = list(ring.elements())
    for size in sizes:
        for trial in range(per_size):
            rows = [[rng.choice(els) for _ in range(size)]
                    for _ in range(size)]
            kind = trial % 5
            if size and kind == 0:
                for row in rows:
                    row[0] = ring.zero
            elif size and kind == 1:
                for row in rows:
                    row[0] = ring.mul(ring.gamma, row[0])
            elif size > 1 and kind == 2:
                rows[-1] = list(rows[0])
            elif size and kind == 3:
                rows[0] = [ring.mul(ring.gamma, x) for x in rows[0]]
            yield M(ring, rows)


@pytest.mark.parametrize("ring", DET_RINGS, ids=repr)
def test_determinant_equals_elimination_to_the_empty_block(ring):
    seen = set()
    for A in seeded_square_matrices(ring, 41):
        d = determinant(A)
        assert d == determinant_by_elimination(A), A.data
        if A.rows:
            v = ring.valuation(d)
            seen.add("unit" if v == 0 else "zero" if v == ring.nu
                     else "non-unit")
    assert seen == {"zero", "unit", "non-unit"}


@pytest.mark.parametrize("ring", DET_RINGS, ids=repr)
def test_residue_determinant_equals_the_echelon_determinant(ring):
    field = ring.residue
    dets = set()
    for A in seeded_square_matrices(ring, 43):
        d = residue_determinant(A)
        assert d == field_echelon(field, A.residue_rows())[2], A.data
        dets.add(d == field.zero)
    assert dets == {True, False}


@pytest.mark.parametrize("m", [8, 9, 121])
def test_determinant_paths_are_independent(m, monkeypatch):
    ring = zmod(m)
    mats = list(seeded_square_matrices(ring, m, range(1, 6), 5))
    residue = [field_echelon(ring.residue, A.residue_rows())[2]
               for A in mats]
    exact = [determinant_by_elimination(A) for A in mats]

    def boom(*args):
        raise AssertionError("the other determinant path was read")

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "determinant", boom)
        assert [residue_determinant(A) for A in mats] == residue
    # over s = 1 the unit inverse is one pow, so nothing of the ring
    # determinant projects to the residue field
    monkeypatch.setattr(ring, "project", boom)
    monkeypatch.setattr(linalg, "field_echelon", boom)
    assert [determinant(A) for A in mats] == exact


# --------------------------------------------------------------- field core

# residue fields F_2, F_3, F_4, F_9 as the fields of nu = 1 Galois rings
FIELD_RINGS = [(2, 1), (3, 1), (2, 2), (3, 2)]


def field_combination(field, coeffs, rows, width):
    out = [0] * width
    for c, row in zip(coeffs, rows):
        for j in range(width):
            out[j] = field.add(out[j], field.mul(c, row[j]))
    return out


def random_field_rows(field, m, n, rng):
    """Random m x n rows; about half the time one row is a combination of
    the others, so that rank deficiency is common over every field."""
    els = list(field.elements())
    rows = [[rng.choice(els) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.5:
        coeffs = [rng.choice(els) for _ in range(m - 1)]
        rows[rng.randrange(m)] = field_combination(field, coeffs,
                                                   rows[:m - 1], n)
    return rows


def brute_span(field, rows, n):
    return {tuple(field_combination(field, coeffs, rows, n))
            for coeffs in product(field.elements(), repeat=len(rows))}


@pytest.mark.parametrize("p, h", [(2, 1), (11, 1), (2, 2), (3, 2), (11, 2),
                                  (5, 3)])
def test_field_echelon_matches_the_plain_row_update(p, h):
    # on walk codes, for square and non-square rows and pivots cut to a
    # width, as field_left_kernel asks
    field = get_field(p, h)
    rng = random.Random(100 * p + h)
    for _ in range(60):
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        rows = random_field_rows(field, m, n, rng)
        for width in (None, rng.randint(0, n)):
            got = field_echelon(field, rows, width)
            assert got == field_echelon_by_row_update(field, rows, width)


@pytest.mark.parametrize("p,s", FIELD_RINGS)
def test_field_core_against_brute_force(p, s):
    ring = GaloisRing(p, 1, s)
    field = ring.residue
    rng = random.Random(1000 * p + s)
    top = 4 if field.q <= 4 else 3
    for _ in range(30):
        m, n = rng.randint(1, top), rng.randint(1, top)
        rows = random_field_rows(field, m, n, rng)
        span = brute_span(field, rows, n)
        rank = field_rank(field, rows)
        assert field.q ** rank == len(span)
        kernel = field_left_kernel(field, rows)
        assert len(kernel) == m - rank
        for vec in kernel:
            assert len(vec) == m
            assert field_combination(field, vec, rows, n) == [0] * n
        if kernel:
            assert field_rank(field, kernel) == len(kernel)
        # a residue solution, through gamma_span_solve on the nu = 1 ring:
        # its digits project to x
        lifted = M(ring, [[ring.lift(c) for c in row] for row in rows])
        for target in (rows[rng.randrange(m)],
                       [rng.choice(list(field.elements())) for _ in range(n)]):
            digits = gamma_span_solve(lifted, [ring.lift(c) for c in target])
            if tuple(target) in span:
                assert digits is not None
                x = [ring.project(d) for d in digits]
                assert field_combination(field, x, rows, n) == list(target)
            else:
                assert digits is None
        if m == n:
            det = residue_determinant(lifted)
            assert (det != field.zero) == (rank == n)


def _t_words(A):
    """(sum t_i * row_i, t) for every t in T^m, summed entry by entry with
    the ring's own add and mul."""
    ring = A.ring
    for t in product(ring.representatives(), repeat=A.rows):
        acc = [ring.zero] * A.cols
        for ti, row in zip(t, A.data):
            for j, e in enumerate(row):
                acc[j] = ring.add(acc[j], ring.mul(ti, e))
        yield tuple(acc), t


@pytest.mark.parametrize("ring", [zmod(4), zmod(8), zmod(9),
                                  GaloisRing(2, 2, 2), TruncatedPolyRing(4, 2)],
                         ids=repr)
def test_span_and_independence_match_enumerated_T_combinations(ring):
    rng = random.Random(17)
    reps = ring.representatives()
    zero_row = (ring.zero,) * 3
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = random_matrix(ring, m, n, rng)
        if rng.random() < 0.3:
            # a gamma multiple of a row: the projection gains a kernel
            A = M(ring, list(A.data) + [[ring.mul(ring.gamma, e)
                                         for e in A.data[0]]])
        words = list(_t_words(A))
        span = {word for word, _ in words}
        nontrivial_zero = any(word == zero_row[:n]
                              and any(t != ring.zero for t in digits)
                              for word, digits in words)
        assert is_gamma_linearly_independent(A) == (not nontrivial_zero)
        for _ in range(4):
            target = [rng.choice(list(ring.elements())) for _ in range(n)]
            if rng.random() < 0.5:
                target = list(rng.choice(list(span)))
            t = gamma_span_solve(A, target)
            assert (t is not None) == (tuple(target) in span)
            if t is not None:
                assert all(d in reps for d in t)
                assert linalg.t_combination(ring, t, A.data, n) == target


def test_t_combination_sums_the_digit_multiples(z9):
    assert linalg.t_combination(z9, (), (), 2) == [z9.zero, z9.zero]
    A = M(z9, [[1, 3], [2, 0]])
    assert linalg.t_combination(z9, (z9.coerce(2), z9.coerce(1)), A.data,
                                2) == [z9.coerce(4), z9.coerce(6)]

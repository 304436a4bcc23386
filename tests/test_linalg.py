import random
from itertools import product

import pytest

from chaincodes import GaloisRing, TruncatedPolyRing, zmod
from chaincodes.errors import MethodPreconditionViolated, NotSquare, ZeroMatrix
from chaincodes import linalg
from chaincodes.linalg import (ORACLE, SHAPE_FAST, RingMatrix,
                               determinant, diagonal_exponents,
                               diagonal_reduction, field_echelon,
                               field_left_kernel, field_rank,
                               field_solve_left, gamma_basis,
                               gamma_dimension, gamma_span_solve,
                               gamma_standard_form,
                               is_gamma_generator_sequence,
                               is_gamma_linearly_independent,
                               parameters_of, residue_determinant, shape_of,
                               standard_form)
from oracles import determinant_by_elimination, is_unit_determinant


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


def test_derived_matrices_equal_coerced_ones():
    # submatrix, select_columns, stack, scalar_mul and matmul keep the
    # canonical entries without coercing them again
    rng = random.Random(77)
    for ring in (zmod(8), GaloisRing(2, 2, 2), TruncatedPolyRing(4, 2)):
        A = random_matrix(ring, 3, 4, rng)
        B = random_matrix(ring, 4, 2, rng)
        c = rng.choice(list(ring.elements()))
        for got in (A.submatrix([2, 0], [1, 3]), A.select_columns([3, 1]),
                    A.stack(A), A.scalar_mul(c), A.matmul(B),
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
    yield conv._expansion_matrix(G, range(2), range(2), 3)
    yield from diagonal_reduction(A)[1:]
    yield gamma_basis(A)
    yield standard_form(A)[0]
    yield gamma_standard_form(A)[0]
    tails = []
    real = linalg.gamma_span_solve

    def recording(tail, target, budget=None):
        tails.append(tail)
        return real(tail, target, budget)

    monkeypatch.setattr(linalg, "gamma_span_solve", recording)
    is_gamma_generator_sequence(gamma_basis(A))
    monkeypatch.undo()
    yield from tails
    spec = ToeplitzSpec(ring, [rng.choice(els) for _ in range(6)])
    yield spec.materialize()
    yield from extract_mdp_blocks(spec, n=3, k=1, L=1,
                                  check_superregular=False,
                                  assert_minors=False).coeffs
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
    yield from lift_from_residue_field(Gt, ring,
                                       validate=False).encoder.coeffs


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


def test_reduction_transforms_are_consistent(z4, z9):
    rng = random.Random(7)
    for ring in (z4, z9):
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = random_matrix(ring, m, n, rng)
            exps, L, R = diagonal_reduction(A)
            D = L.matmul(A).matmul(R)
            for i in range(m):
                for j in range(n):
                    want = (ring.gamma_power(exps[i])
                            if i == j and i < len(exps) else ring.zero)
                    assert D.entry(i, j) == want
            assert is_unit_determinant(L)
            assert is_unit_determinant(R)
            assert list(exps) == sorted(exps)


@pytest.mark.parametrize("ring", [
    zmod(8), zmod(27), GaloisRing(2, 2, 2), GaloisRing(3, 3, 1),
    TruncatedPolyRing(4, 2), TruncatedPolyRing(2, 3)], ids=repr)
def test_exponents_without_transforms_match_the_reduction(ring):
    rng = random.Random(31)
    els = list(ring.elements())
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice((0.3, 0.7, 1.0))
        A = M(ring, [[rng.choice(els) if rng.random() < density
                      else ring.zero for _ in range(n)] for _ in range(m)])
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


def test_shape_fast_requires_generator_sequence(z4):
    bad = M(z4, [[1, 0], [0, 2]])
    with pytest.raises(MethodPreconditionViolated):
        is_gamma_linearly_independent(bad, method=SHAPE_FAST)


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
            assert (is_gamma_linearly_independent(B, method=ORACLE)
                    == is_gamma_linearly_independent(B, method=SHAPE_FAST))


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
            P = A.select_columns(perm)
            for row in P.data:
                assert gamma_span_solve(G, list(row)) is not None


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
            assert determinant(A.matmul(B)) == ring.mul(determinant(A),
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
        for target in (rows[rng.randrange(m)],
                       [rng.choice(list(field.elements())) for _ in range(n)]):
            x = field_solve_left(field, rows, target)
            if tuple(target) in span:
                assert x is not None
                assert field_combination(field, x, rows, n) == list(target)
            else:
                assert x is None
        if m == n:
            det = residue_determinant(M(ring, [[ring.lift(c) for c in row]
                                               for row in rows]))
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

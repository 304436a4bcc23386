import random

import pytest

from chaincodes import zmod
from chaincodes.block import (BlockCode, is_mds, min_distance_block,
                              nu_optimal_sets, singleton_bound_block)
from chaincodes.errors import BudgetExceeded, InvalidParams
from chaincodes.linalg import RingMatrix


def M(ring, rows):
    return RingMatrix(ring, rows)


@pytest.fixture(scope="module")
def z4():
    return zmod(4)


def test_block_code_expands_generator(z4):
    code = BlockCode(M(z4, [[1, 1]]))
    assert code.k == 2
    assert [[e[0] for e in row] for row in code.encoder.data] == \
        [[1, 1], [2, 2]]
    assert code.shape() == (1, 1)
    assert code.parameters() == (1, 0)


def test_block_code_keeps_gamma_basis(z4):
    gen = M(z4, [[1, 1], [2, 2]])
    code = BlockCode(gen)
    assert code.encoder is gen


def test_codeword_count_and_min_distance(z4):
    code = BlockCode(M(z4, [[1, 1]]))
    words = set(code.codewords())
    assert len(words) == z4.q ** code.k == 4
    assert min_distance_block(code) == 2


def test_min_distance_budget(z4):
    code = BlockCode(M(z4, [[1, 1]]))
    with pytest.raises(BudgetExceeded) as exc:
        min_distance_block(code, budget=2)
    assert (exc.value.requested, exc.value.allowed) == (4, 2)


def test_singleton_bound_block():
    assert singleton_bound_block(2, 2, 2) == 2
    assert singleton_bound_block(5, 3, 2) == 4
    with pytest.raises(InvalidParams):
        singleton_bound_block(1, 3, 1)
    with pytest.raises(InvalidParams):
        singleton_bound_block(3, 0, 2)


def test_repetition_code_is_mds(z4):
    assert is_mds(BlockCode(M(z4, [[1, 1]])))


def test_min_distance_never_beats_singleton(z4):
    rng = random.Random(13)
    els = list(z4.elements())
    z9 = zmod(9)
    for ring in (z4, z9):
        els = list(ring.elements())
        for _ in range(30):
            m, n = rng.randint(1, 2), rng.randint(2, 4)
            gen = M(ring, [[rng.choice(els) for _ in range(n)]
                           for _ in range(m)])
            if gen.is_zero():
                continue
            code = BlockCode(gen)
            d = min_distance_block(code)
            assert d <= singleton_bound_block(code.n, code.k, ring.nu)


def test_nu_optimal_sets_small():
    assert nu_optimal_sets(4, 2) == [(2, 0)]
    assert nu_optimal_sets(3, 2) == [(1, 1)]
    assert nu_optimal_sets(5, 3) == [(1, 1, 0)]
    assert nu_optimal_sets(0, 3) == [(0, 0, 0)]


def test_nu_optimal_sets_16_5():
    got = nu_optimal_sets(16, 5)
    assert set(got) == {(3, 0, 0, 0, 1), (2, 1, 0, 1, 0), (2, 0, 2, 0, 0),
                        (1, 2, 1, 0, 0), (0, 4, 0, 0, 0)}
    assert got == sorted(got)


def test_nu_optimal_sets_invariants():
    rng = random.Random(17)
    for _ in range(25):
        k, nu = rng.randint(1, 12), rng.randint(1, 4)
        sets = nu_optimal_sets(k, nu)
        assert sets, f"no tuples for k={k}, nu={nu}"
        target = -(-k // nu)
        for tup in sets:
            assert len(tup) == nu
            assert sum(c * (nu - i) for i, c in enumerate(tup)) == k
            assert sum(tup) == target


def test_nu_optimal_sets_rejects_bad_input():
    with pytest.raises(InvalidParams):
        nu_optimal_sets(-1, 2)
    with pytest.raises(InvalidParams):
        nu_optimal_sets(3, 0)

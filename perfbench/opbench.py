"""Per-operation timings of the field and ring layers.

Each operation runs over a fixed operand stream drawn from the seed; the
reported figure is the median over a few repeats of the time per call,
loop overhead included, so it moves with the arithmetic and not with the
mix of any workload.
"""

from __future__ import annotations

import random
import statistics
import time

from chaincodes import fields, rings

STREAM = 20000
REPEATS = 5


def _per_call(fn, operands):
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for a, b in operands:
            fn(a, b)
        samples.append((time.perf_counter() - start) / len(operands))
    return statistics.median(samples)


def _per_call_unary(fn, operands):
    return _per_call(lambda a, _b: fn(a), [(a, None) for a in operands])


def measure(seed):
    """{metric name: value} for the fields.* and rings.* operation rows."""
    rng = random.Random(seed)
    f115 = fields.get_field(11, 5)
    f13 = fields.get_field(13)
    z121 = rings.zmod(121)
    tp42 = rings.TruncatedPolyRing(4, 2)
    gr1215 = rings.GaloisRing(11, 2, 5)

    def pairs(draw):
        return [(draw(), draw()) for _ in range(STREAM)]

    def ext():
        return rng.randrange(1, f115.q)

    def coords(modulus, length):
        return lambda: tuple(rng.randrange(modulus) for _ in range(length))

    units = [(u,) for u in (rng.randrange(121) for _ in range(STREAM))
             if u % 11]
    return {
        "fields.ext_add_ns": 1e9 * _per_call(f115.add, pairs(ext)),
        "fields.ext_mul_ns": 1e9 * _per_call(f115.mul, pairs(ext)),
        "fields.prime_mul_ns": 1e9 * _per_call(
            f13.mul, pairs(lambda: rng.randrange(13))),
        "rings.zmod_add_ns": 1e9 * _per_call(z121.add,
                                             pairs(coords(121, 1))),
        "rings.tp_add_ns": 1e9 * _per_call(tp42.add, pairs(coords(4, 2))),
        "rings.gr_mul_ns": 1e9 * _per_call(gr1215.mul,
                                           pairs(coords(121, 5))),
        "rings.invert_unit_us": 1e6 * _per_call_unary(z121.invert_unit,
                                                      units),
    }

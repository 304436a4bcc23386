"""Timing spans around the public functions of chaincodes.

The spans are recorded from the benchmark's side: :class:`Tracer` replaces
each function named in ``TRACED`` by a timing wrapper in every chaincodes
module that holds it (``conv`` imports ``field_rank`` by name, for
example), and puts the originals back when it is closed.  A span's self
time is its duration minus the durations of the traced spans it encloses.
Counts of the work a call implies are taken from its arguments by the
hooks below, outside the timed interval, with formulas that the
benchmark's self-tests compare against direct enumeration.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import comb

# every module named in TRACED must be loaded before a Tracer opens
from chaincodes import constructions, conv, fields, linalg  # noqa: F401

TRACED = {
    "chaincodes.linalg": ("field_rank", "determinant", "residue_determinant",
                          "diagonal_reduction", "gamma_span_solve",
                          "is_gamma_linearly_independent"),
    "chaincodes.conv": ("is_polynomial_gamma_basis", "column_distance",
                        "is_mdp"),
    "chaincodes.constructions": ("search_superregular",
                                 "is_gamma_superregular",
                                 "is_reverse_gamma_superregular",
                                 "lift_from_residue_field",
                                 "extract_mdp_blocks"),
}
EXT_BUILD = "fields.ExtField"


# ---------------------------------------------------------------------------
# count formulas (work implied by the inputs, without enumerating it)

def messages(q, k, j):
    """Messages column_distance(C, j) enumerates: (q^k - 1) * q^(jk)."""
    return (q ** k - 1) * q ** (j * k)


def admissible_subsets(L, n, k0):
    """Column subsets t_1 < ... < t_m, m = (L+1)k0, of the L-th sliding
    matrix with t_{s*k0+1} > s*n (1-based) for s = 1..L."""
    total, need = (L + 1) * n, (L + 1) * k0
    # ways[t]: valid prefixes of the current length whose last column is t
    ways = [1] * total
    for c in range(1, need):
        lo = (c // k0) * n if c % k0 == 0 and 1 <= c // k0 <= L else 0
        acc, nxt = 0, [0] * total
        for t in range(total):
            if t >= lo:
                nxt[t] = acc
            acc += ways[t]
        ways = nxt
    return sum(ways)


def proper_minors(ell):
    """Proper (I, J) pairs of an ell x ell Toeplitz matrix.  Reading the
    positions 1..ell in order, each joins I, J, both or neither, and
    |I| >= |J| on every prefix: Motzkin paths with two kinds of level
    step, counted by Catalan(ell+1); the empty pair is dropped."""
    return comb(2 * ell + 2, ell + 1) // (ell + 2) - 1


def _count_messages(counts, args, kwargs, result):
    C, j = args[0], args[1] if len(args) > 1 else kwargs["j"]
    counts["conv.messages"] += messages(C.ring.q, C.k, j)


def _count_subsets(counts, args, kwargs, result):
    C = args[0]
    method = args[1] if len(args) > 1 else kwargs.get("method", conv.MINORS)
    if method == conv.MINORS:
        # is_mdp returned, so the encoder is reduced and its gamma-degree
        # is the sum of its row degrees
        nu = C.ring.nu
        L = conv.L_index(C.n, C.k, sum(C.encoder.row_degrees()), nu)
        counts["conv.column_subsets"] += admissible_subsets(L, C.n, C.k // nu)


def _count_minors(counts, args, kwargs, result):
    counts["constructions.proper_minors"] += proper_minors(args[0].size)


def _count_hits(counts, args, kwargs, result):
    counts["constructions.hits"] += len(result)


HOOKS = {
    "conv.column_distance": _count_messages,
    "conv.is_mdp": _count_subsets,
    "constructions.is_gamma_superregular": _count_minors,
    "constructions.search_superregular": _count_hits,
}


class Tracer:
    """Context manager that wraps the traced functions while it is open.

    ``spans[name]`` is ``[calls, total_s, self_s]``; ``edges[(parent,
    name)]`` counts calls of ``name`` made directly inside a ``parent``
    span; ``counts`` holds the hook counts."""

    def __init__(self):
        self.spans = {}
        self.edges = Counter()
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def __enter__(self):
        try:
            for modname, names in TRACED.items():
                module = sys.modules[modname]
                short = modname.rsplit(".", 1)[1]
                for fname in names:
                    original = getattr(module, fname)
                    wrapper = self._wrap(f"{short}.{fname}", original)
                    for holder in _chaincodes_modules():
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._patch(holder, attr, wrapper)
            ext = fields.ExtField
            self._patch(ext, "__init__", self._wrap(EXT_BUILD, ext.__init__))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges, counts = self._stack, self.edges, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    # --- results, also carried across processes as JSON ------------------

    def dump(self):
        return {"spans": self.spans,
                "edges": [[p, c, n] for (p, c), n in self.edges.items()],
                "counts": dict(self.counts)}

    def merge(self, dumped):
        for name, (calls, total, own) in dumped["spans"].items():
            stats = self.spans.setdefault(name, [0, 0.0, 0.0])
            stats[0] += calls
            stats[1] += total
            stats[2] += own
        for parent, child, n in dumped["edges"]:
            self.edges[(parent, child)] += n
        self.counts.update(dumped["counts"])


def _chaincodes_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "chaincodes" or name.startswith("chaincodes."))]

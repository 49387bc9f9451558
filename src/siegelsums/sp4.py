"""Sp4(Z) bottom rows: coset enumeration, symplectic completion, and the
per-modulus phase tables of the Kloosterman sums.

A pair of integer 2x2 matrices (C, D) is the bottom block-row of some
element of Sp4(Z) exactly when C D^T is symmetric and the 2x4 block
(C D) has coprime 2x2 minors.  The Kloosterman sums in :mod:`expsums` run
over such D modulo the lattice C * Lambda of symmetric translates, with
det C != 0; this module enumerates canonical representatives and, for
each, solves for a completion (A, B) making the full 4x4 block matrix
symplectic.  The completion is that integer solve alone: it returns the
tuple (A, B), accepts a singular C, and raises CompletionError exactly
when (C, D) is not a bottom row.

Phase tables are built only for moduli in Smith form diag(c1, c2).  With
U C V = diag(c1, c2) (U, V unimodular), multiplying an element of Sp4(Z)
by diag(U^-T, U) on the left and diag(V, V^-T) on the right maps the
cosets of C one-to-one onto those of diag(c1, c2), and each summand of
K(Q, T; C) onto the summand of K(U Q U^T, V^T T V; diag(c1, c2)).  The
table of C is therefore its Smith form's table composed with that
integer linear change of the form coordinates, or, equivalently, its
Smith form's table read at the changed forms (``coset_data`` and
``expsums.kloosterman_factored``, both through ``smith_class``).  A scalar
Smith form takes its table from Kitaoka's closed form (``_pI_grid``),
every other one from the enumeration, which also checks the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matcore import (
    IntMat2,
    SingularModulusError,
    conjugation_map,
    elementary_divisors,
    solve_integer_system,
    unit_inverses,
)


class CompletionError(ValueError):
    """Raised when (C, D) is not a symplectic bottom row."""


def minor_gcd(c: IntMat2, d: IntMat2) -> int:
    """gcd of the six 2x2 minors of the 2x4 block (C D)."""
    cols = [(c.a, c.c), (c.b, c.d), (d.a, d.c), (d.b, d.d)]
    g = 0
    for i in range(4):
        for j in range(i + 1, 4):
            g = math.gcd(g, cols[i][0] * cols[j][1] - cols[i][1] * cols[j][0])
    return g


def complete_to_symplectic(c: IntMat2, d: IntMat2) -> tuple[IntMat2, IntMat2]:
    """Some (A, B) with [[A, B], [C, D]] in Sp4(Z), C singular or not.

    The unknowns z = (a1, a2, a3, a4, b1, b2, b3, b4) solve, exactly over
    the integers, the six linear conditions A^T D - C^T B = I, A^T C and
    B^T D symmetric.  These are M^T J M = J for the 4x4 block matrix M,
    so a solution exists exactly when (C, D) is a bottom row, and
    CompletionError is raised otherwise.  Completions differ by
    A -> A + S C, B -> B + S D with S symmetric."""
    rows = [
        # (A^T D)_11 - (C^T B)_11 = 1
        [d.a, 0, d.c, 0, -c.a, 0, -c.c, 0],
        # (A^T D)_12 - (C^T B)_12 = 0
        [d.b, 0, d.d, 0, 0, -c.a, 0, -c.c],
        # (A^T D)_21 - (C^T B)_21 = 0
        [0, d.a, 0, d.c, -c.b, 0, -c.d, 0],
        # (A^T D)_22 - (C^T B)_22 = 1
        [0, d.b, 0, d.d, 0, -c.b, 0, -c.d],
        # (A^T C)_12 - (A^T C)_21 = 0
        [c.b, -c.a, c.d, -c.c, 0, 0, 0, 0],
        # (B^T D)_12 - (B^T D)_21 = 0
        [0, 0, 0, 0, d.b, -d.a, d.d, -d.c],
    ]
    z = solve_integer_system(rows, [1, 0, 0, 1, 0, 0])
    if z is None:
        raise CompletionError("not a symplectic bottom row")
    return IntMat2(z[0], z[1], z[2], z[3]), IntMat2(z[4], z[5], z[6], z[7])


def enumerate_bottom_cosets(c: IntMat2) -> list[IntMat2]:
    """One D per coset of {(C, D) bottom pair} modulo D ~ D + C*S, S symmetric.

    The coset key is the symmetric rational P = C^{-1} D reduced to entries
    in [0, 1); representatives are emitted in lexicographic order of the
    numerator triple of P, so the output order is deterministic.  It solves
    no completion and caches nothing; ``coset_data`` memoizes the tables.
    """
    det = c.det()
    if det == 0:
        raise SingularModulusError("singular modulus")
    n = abs(det)
    out = []
    for p11 in range(n):
        for p12 in range(n):
            for p22 in range(n):
                # D = C P with P = [[p11, p12], [p12, p22]] / n
                e11 = c.a * p11 + c.b * p12
                if e11 % n:
                    continue
                e12 = c.a * p12 + c.b * p22
                if e12 % n:
                    continue
                e21 = c.c * p11 + c.d * p12
                if e21 % n:
                    continue
                e22 = c.c * p12 + c.d * p22
                if e22 % n:
                    continue
                d = IntMat2(e11 // n, e12 // n, e21 // n, e22 // n)
                if minor_gcd(c, d) == 1:
                    out.append(d)
    return out


@dataclass(frozen=True)
class CosetData:
    """Per-coset phase coefficients for a Kloosterman modulus C.

    ``weights`` is an (n, 6) integer array w such that the summand phase for
    forms Q = (q1, q2, q4), T = (t1, t2, t4) is

        e( (w . (q1, q2, q4, t1, t2, t4)) / m ),    m = 2 |det C|,

    already folded by the sign of det C.
    """

    m: int
    weights: np.ndarray
    count: int


def _phase_row(a: IntMat2, d: IntMat2, adj: IntMat2, m: int, sgn: int):
    e = a.mul(adj)   # A adj(C):   tr(E 2Q) = 2 e11 q1 + (e12 + e21) q2 + 2 e22 q4
    f = adj.mul(d)   # adj(C) D:   tr(F 2T) likewise
    return [
        (sgn * 2 * e.a) % m,
        (sgn * (e.b + e.c)) % m,
        (sgn * 2 * e.d) % m,
        (sgn * 2 * f.a) % m,
        (sgn * (f.b + f.c)) % m,
        (sgn * 2 * f.d) % m,
    ]


# Largest |det C| that ``_enumerated_table`` accepts: it loops over
# |det C|^3 candidates, and det 343 took 3.9-5.4 s on two vCPUs, against
# minutes for det 1331.  Scalar classes never reach it.
MAX_ENUMERATED_DET = 400


def _enumerated_table(c: IntMat2) -> CosetData:
    """Phase-coefficient table of C, one row per coset D from
    ``enumerate_bottom_cosets``, completed by ``complete_to_symplectic``; raises
    ValueError when |det C| exceeds ``MAX_ENUMERATED_DET``."""
    det = c.det()
    if abs(det) > MAX_ENUMERATED_DET:
        raise ValueError(f"|det C| = {abs(det)} exceeds the enumeration cap "
                         f"{MAX_ENUMERATED_DET}")
    ds = enumerate_bottom_cosets(c)
    m = 2 * abs(det)
    sgn = 1 if det > 0 else -1
    adj = c.adj()
    rows = np.empty((len(ds), 6), dtype=np.int64)
    for i, d in enumerate(ds):
        a = complete_to_symplectic(c, d)[0]
        rows[i] = _phase_row(a, d, adj, m, sgn)
        if __debug__ and i == 0:
            # well-definedness spot check: completions differ by A -> A + S C,
            # which must leave the phase row untouched mod m
            shifted = a.add(IntMat2(1, 1, 1, 0).mul(c))
            assert _phase_row(shifted, d, adj, m, sgn) == list(rows[i])
    rows.setflags(write=False)
    return CosetData(m=m, weights=rows, count=len(ds))


# Largest n that ``_pI_grid`` accepts.  Its index arrays and table take
# about 72 n^3 bytes at peak: 0.68 GB at n = 211, 1.0 GB at n = 240, but
# 9 GB at n = 500 and 72 GB at n = 1009.  It caps the coset sums of a
# scalar modulus nI (``coset_data``) only: ``expsums.kloosterman_pI`` and
# ``expsums.kloosterman_factored`` take the closed form at odd primes.
MAX_PI_GRID_N = 240


# One coefficient at an odd level reads one grid, grid(1) for the
# unimodular C' class; at level 2 it reads grid(2) as well.  Two entries
# keep both without holding one (n^3 - n^2, 6) table per level of a
# sweep (49 MB at n = 101).
@lru_cache(maxsize=2)
def _pI_grid(n: int) -> np.ndarray:
    """Kitaoka's closed form for n*I as a weight table mod n: the symmetric
    D = [[d1, d2], [d2, d4]] mod n with delta = det D a unit mod n, completed
    by A = inv(delta) adj(D), give the rows inv(delta) (d4, -d2, d1), d1,
    d2, d4 (for n = 1 the one zero row).  It builds the table of every
    scalar Smith class in ``coset_data``, gives ``expsums.kloosterman_pI``
    its value at n = 2, and is the oracle of the closed form at odd primes
    (tests/test_expsums.py; acceptance criterion 1 compares it with the
    coset enumeration).  Raises ValueError, before any array is built,
    when n exceeds ``MAX_PI_GRID_N``."""
    if n > MAX_PI_GRID_N:
        raise ValueError(f"the pI grid of n = {n} exceeds the cap "
                         f"{MAX_PI_GRID_N} (about 72 n^3 bytes)")
    d1, d2, d4 = (x.ravel() for x in np.meshgrid(
        *[np.arange(n, dtype=np.int64)] * 3, indexing="ij"))
    delta = (d1 * d4 - d2 * d2) % n
    keep = np.gcd(delta, n) == 1
    d1, d2, d4 = d1[keep], d2[keep], d4[keep]
    invd = np.array(unit_inverses(n), dtype=np.int64)[delta[keep]]
    rows = np.stack([invd * d4 % n, -invd * d2 % n, invd * d1 % n,
                     d1, d2, d4], axis=1)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def smith_class(c: IntMat2) -> tuple[IntMat2, tuple, tuple]:
    """(diag(c1, c2), ``conjugation_map(U)``, ``conjugation_map(V^T)``) for
    U C V = diag(c1, c2): the Smith class of a modulus and the change of
    forms onto it, for ``coset_data``, ``kloosterman_factored`` and the
    shell budget alike; it builds no table.  Unbounded: its keys are the C'
    of the box and its first shell (one of each pair +-C'), the half-box of
    M + 1: 448 at M = 2, 1,068 at 3, 1,988 at 4, 3,540 at 5, 0.6 KB each."""
    c1, c2, u, v = elementary_divisors(c)
    return IntMat2.diag(c1, c2), conjugation_map(u), conjugation_map(v.t())


@lru_cache(maxsize=None)
def coset_data(c: IntMat2) -> CosetData:
    """Phase-coefficient table for all cosets of modulus C (cached).

    A Smith form diag(n, n) takes 2n times the rows of ``_pI_grid(n)``
    (E = A adj(C) = n A, F = adj(C) D = n D) mod m = 2 n^2; any other
    Smith form is enumerated.  Any other C derives its table from its
    class (``smith_class``): the Smith form's ``weights`` times the
    block-diagonal map of (q1, q2, q4, t1, t2, t4) to the coordinates of
    (U Q U^T, V^T T V), mod m, in the Smith form's coset order
    (``kloosterman`` tallies them, so the order does not matter).  That
    derived table pays where a modulus is read for many form pairs, as by
    ``expsums.kloosterman``; ``expsums.kloosterman_factored`` reads each
    box modulus once per coefficient (1,068 at M = 4) and maps the two
    forms instead.
    """
    smith, q_map, t_map = smith_class(c)
    if c == smith:
        if c.a != c.d:
            return _enumerated_table(c)
        m = 2 * c.a * c.a
        rows = (2 * c.a * _pI_grid(c.a)) % m
        rows.setflags(write=False)
        return CosetData(m=m, weights=rows, count=len(rows))
    base = coset_data(smith)
    m = base.m
    conj = np.zeros((6, 6), dtype=np.int64)
    for i, cmap in ((0, q_map), (3, t_map)):  # U Q U^T and V^T T V, mod m
        conj[i:i + 3, i:i + 3] = [[x % m for x in row] for row in cmap]
    rows = (base.weights @ conj) % m
    rows.setflags(write=False)
    return CosetData(m=m, weights=rows, count=base.count)


def clear_caches() -> None:
    """Drop the memoized Smith classes, coset tables and pI grids (used by
    determinism re-runs)."""
    smith_class.cache_clear()
    coset_data.cache_clear()
    _pI_grid.cache_clear()

"""Finite exponential sums: symplectic Kloosterman sums, Salie sums,
Gauss sums, the congruence counter, and the twisted character average.

Every summand has a phase that is an exact rational reduced mod 1 before a
complex exponential is evaluated: phases are tallied as integer numerators
against a fixed denominator and a tally's value is a multiplicity-weighted
sum over precomputed roots of unity, accumulated in a fixed index order.
A pI sum at an odd prime is an integer combination of at most two
classical Kloosterman sums, each such a tally, and a coprime factored sum
is the product of two values.  A Salie sum is Salie's closed form at the
odd prime powers of c where it applies, an integer times a short sum of
roots of unity mod c, times the tally of the numerator grid of the rest.
Every sum runs on one serial path, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .matcore import (
    GaussianInt,
    HalfIntegralForm,
    IntMat2,
    SingularModulusError,
    gaussian_totient,
    is_go2,
    is_prime,
    kronecker,
    prime_factors,
    require_fundamental_discriminant,
    unit_inverses,
)
from . import sp4
from .sp4 import _pI_grid


@dataclass(frozen=True)
class SumValue:
    """Value of a finite exponential sum.

    ``terms`` counts the unit-modulus summands, so |value| <= terms always;
    ``method`` records which evaluation route produced the value.
    """

    value: complex
    terms: int
    method: str


# Largest m whose roots e(j/m) ``_roots_mod`` memoizes, at most 128 m:
# 32 MiB at 16 bytes a root.  A cold coefficient reads 42-48 moduli at
# N = 3 (its rank-1 c's), 4-5 at N = 47 and 101.  A tally at a larger
# modulus, or one evicted by a longer sweep, recomputes its roots; it
# tallies at least m numerators, so that at most doubles its cost.
MAX_CACHED_ROOTS = 2 ** 14


def _roots(m: int) -> np.ndarray:
    w = np.exp(2j * np.pi * np.arange(m) / m)
    w.setflags(write=False)
    return w


_roots_of_unity = lru_cache(maxsize=128)(_roots)


def _roots_mod(m: int) -> np.ndarray:
    return _roots_of_unity(m) if m <= MAX_CACHED_ROOTS else _roots(m)


def _tally_value(numerators: np.ndarray, m: int,
                 weights: np.ndarray | None = None) -> complex:
    """sum of w e(n/m) over the numerator array, via multiplicity counts;
    w is the matching entry of ``weights``, or 1 without them."""
    counts = np.bincount(numerators, weights=weights, minlength=m)
    return complex(counts.dot(_roots_mod(m)))  # np.dot less its dispatch


def _form_vector(q: HalfIntegralForm, t: HalfIntegralForm) -> np.ndarray:
    return np.array([q.t1, q.t2, q.t4, t.t1, t.t2, t.t4], dtype=np.int64)


def kloosterman(q: HalfIntegralForm, t: HalfIntegralForm, c: IntMat2,
                threads: int = 1) -> SumValue:
    """Symplectic Kloosterman sum K(Q, T; C), summed over the cosets.

    Sums e(tr(A C^{-1} Q + C^{-1} D T)) over one representative D per
    bottom-row coset of modulus C, with A a symplectic completion.  The
    summand does not depend on the choice of A: two completions differ by
    A -> A + S C with S symmetric integral, shifting the phase by the
    integer tr(S Q).  The phases come from ``sp4.coset_data``, built from
    the Smith form of C, which also rejects a singular C; every coset
    still contributes one summand, so ``terms`` is the coset count.
    ``method`` is "brute", the name the CLI reports for this route.

    ``threads`` is accepted and ignored: the tally is one serial bincount
    (a per-call thread pool lost to it at every measured size), and the
    keyword stays only because the ``perfbench`` workloads pass it.
    """
    data = sp4.coset_data(c)
    nums = (data.weights @ _form_vector(q, t)) % data.m
    value = _tally_value(nums, data.m)
    return SumValue(value=value, terms=data.count, method="brute")


def kloosterman_pI(q: HalfIntegralForm, t: HalfIntegralForm, p: int) -> SumValue:
    """K(Q, T; pI) for prime p, summed over the p^3 - p^2 cosets of pI.

    With delta = d1*d4 - d2^2 over the symmetric D = [[d1, d2], [d2, d4]]
    mod p with delta a unit, the summand is

        e( ( inv(delta) (d4 q1 - d2 q2 + d1 q4) + d1 t1 + d2 t2 + d4 t4 ) / p ),

    the rows of ``sp4._pI_grid(p)``.  An odd p takes the value from two
    classical Kloosterman sums (``_pI_closed_form``) in O(p) time and
    memory, with no grid; p = 2 tallies its grid of four rows.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return SumValue(value=_pI_value(q, t, p), terms=p ** 3 - p ** 2,
                    method="pI-formula")


def kloosterman_factored(q: HalfIntegralForm, t: HalfIntegralForm, n: int,
                         c: IntMat2,
                         bezout: tuple[int, int] | None = None) -> SumValue:
    """K(Q, T; N*C) through coprime moduli N*I and C, as a product: the
    one-modulus call of ``_kloosterman_factored_values``, which gives the
    value (see there for the factorisation).  ``terms`` is the product of
    the two terms, equal to ``kloosterman(q, t, c.scale(n)).terms``.  The
    value agrees with that coset sum up to the rounding of two tallies and
    one product (tests/support.py derives the bound) and is the same bit
    for bit whatever the Bezout pair s N + t det C = 1 (``bezout`` pins
    one; by default s = inv(N) mod |det C| and t = inv(det C) mod N):
    X Q X^T mod N, X = t adj(C), does not depend on it, and the table of
    C weighs Q by even coefficients (A C^{-1} is symmetric), so s^2 Q
    counts mod |det C| only, where every s is one inverse of N.  Raises
    ValueError unless N is prime, prime to det C and the pair is one, and
    SingularModulusError for det C = 0.
    """
    if not is_prime(n):
        raise ValueError(f"{n} is not prime")
    cdet = c.det()
    if cdet == 0:
        raise SingularModulusError("singular modulus")
    if math.gcd(cdet, n) != 1:
        raise ValueError("modulus not coprime")
    if bezout is None:
        bezout = (pow(n, -1, abs(cdet)), pow(cdet, -1, n))
    elif bezout[0] * n + bezout[1] * cdet != 1:
        raise ValueError("invalid Bezout pair")
    p = q.conjugate_right(c.adj())
    [(value, count)] = _kloosterman_factored_values(
        q, t, n, [c], [(p.t1, p.t2, p.t4)], [bezout])
    return SumValue(value=value, terms=(n ** 3 - n ** 2) * count,
                    method="factored")


def _kloosterman_factored_values(q: HalfIntegralForm, t: HalfIntegralForm,
                                 n: int, moduli: list[IntMat2],
                                 adj_forms: list[tuple[int, int, int]],
                                 inverses: list[tuple[int, int]]
                                 ) -> list[tuple[complex, int]]:
    """(K(Q, T; N C'), coset count of C') for each C' of ``moduli``, given
    the coordinates (p1, p2, p4) of p' = adj C' Q adj C'^T in
    ``adj_forms`` and in ``inverses`` a pair (s, t) with s N = 1 mod
    |det C'| and t det C' = 1 mod N (a Bezout pair s N + t det C' = 1 is
    one), each in the order of the moduli.  N must be prime and prime to every
    det C': ``kloosterman_factored`` checks this for one modulus, and
    ``petersson`` calls this only on such moduli.

    With X = t adj(C'), each coset of N C' is a pair of cosets of N I and
    C' whose summands are those of K(X Q X^T, T; N I) and
    K(s^2 Q, T; C'), and the phase of the pair is the sum of the two
    phases, so K(Q, T; N C') is the product of the two sums.  The first is
    ``kloosterman_pI``'s value at X Q X^T = t^2 p', and only its residues
    mod N count: one value per distinct residue triple.  The second is
    read off the Smith class U C' V = diag(c1, c2), memoized by
    ``sp4.smith_class``: K(s^2 Q, T; C') = K(U s^2 Q U^T, V^T T V;
    diag(c1, c2)), the tally of the class's cached table W
    (``sp4.coset_data``) at those forms, so no table of C' itself is
    built.  The derived table of C' is W M mod m, M the change of forms,
    and (W M) v = W (M v) mod m row for row, so the tally is the one the
    derived table gives.  The moduli of one class share one integer
    product W F, F the matrix of their form vectors, and one bincount of
    its numerators, each column offset by m times its index; each modulus
    then takes its own row of counts dotted with the roots, the count
    vector and the dot of a tally of that modulus alone, so every value is
    the one-modulus value bit for bit.  The cost is O(N + |det C'|) a
    modulus beyond the class tables.
    """
    left: dict[tuple[int, int, int], complex] = {}  # pI values by residues
    classes: dict[IntMat2, list] = {}
    keys = []
    for i, (c, p, (s, tt)) in enumerate(zip(moduli, adj_forms, inverses)):
        key = tuple(tt * tt * x % n for x in p)
        if key not in left:
            left[key] = _pI_value(HalfIntegralForm(*key), t, n)
        smith, q_map, t_map = sp4.smith_class(c)
        classes.setdefault(smith, []).append((i, s * s, q_map, t_map))
        keys.append(key)
    out: list = [None] * len(moduli)
    for smith, members in classes.items():
        data = sp4.coset_data(smith)
        m = data.m
        forms = np.array([[s2 * (a * q.t1 + b * q.t2 + d * q.t4) % m
                           for a, b, d in q_map]
                          + [(a * t.t1 + b * t.t2 + d * t.t4) % m
                             for a, b, d in t_map]
                          for _, s2, q_map, t_map in members],
                         dtype=np.int64).T
        nums = (data.weights @ forms) % m + m * np.arange(len(members))
        counts = np.bincount(nums.ravel(), minlength=m * len(members))
        roots = _roots_mod(m)
        for (i, *_), row in zip(members, counts.reshape(len(members), m)):
            out[i] = (left[keys[i]] * complex(np.dot(row, roots)), data.count)
    return out


class _PrimeTables:
    """Tables of one odd prime p for ``_pI_closed_form`` and
    ``_salie_closed``: the inverses mod p (``inverse[0]`` = 0), one square
    root of each square mod p (-1 for a non-square), and a memo of
    S(1, n; p) by n."""

    def __init__(self, p: int):
        self.p = p
        x = np.arange(p, dtype=np.int64)
        roots = np.full(p, -1, dtype=np.int64)
        roots[x * x % p] = x
        self.sqrt = roots.tolist()
        self._kloosterman: dict[int, complex] = {}

    @cached_property
    def inverse(self) -> np.ndarray:
        # built on first use: ``salie`` reads only the square roots
        return np.array(unit_inverses(self.p), dtype=np.int64)

    def legendre(self, a: int) -> int:
        a %= self.p
        return 0 if a == 0 else (1 if self.sqrt[a] >= 0 else -1)

    def _numerators(self, n: int) -> np.ndarray:
        """(x + n inv(x)) mod p over x in F_p^*."""
        x = np.arange(1, self.p, dtype=np.int64)
        return (x + n % self.p * self.inverse[1:]) % self.p

    def row(self, n: int) -> np.ndarray:
        """H_n: the counts of the numerators of S(1, n; p) mod p."""
        return np.bincount(self._numerators(n), minlength=self.p)

    def kloosterman(self, n: int) -> complex:
        """S(1, n; p), the tally of its numerators, memoized."""
        n %= self.p
        value = self._kloosterman.get(n)
        if value is None:
            value = _tally_value(self._numerators(n), self.p)
            self._kloosterman[n] = value
        return value


# one coefficient reads one level for its pI sums, and its Salie sums read
# the odd primes of one c after another (a table of p <= 43, all that N = 3
# reads, takes microseconds); the bound keeps a sweep over levels from
# holding a table per level
@lru_cache(maxsize=4)
def _prime_tables(p: int) -> _PrimeTables:
    return _PrimeTables(p)


def _pI_closed_form(q: HalfIntegralForm, t: HalfIntegralForm,
                    p: int) -> tuple[int, tuple[int, ...], int]:
    """(a, ns, e) with K(Q, T; pI) = a * sum_{n in ns} S(1, n; p) + e for
    an odd prime p, S(1, n; p) = sum over x in F_p^* of e((x + n inv(x))/p).

    Write D_Q = q2^2 - 4 q1 q4, b = 2 q1 t1 + q2 t2 + 2 q4 t4 and chi for
    the Legendre symbol mod p; let D = D_Q when p does not divide it, D_T
    otherwise.  Then a = p chi(D), ns holds (b + r)/2 mod p for each root
    r of r^2 = D_Q D_T mod p (one for r = 0, none for a non-square), and
    e = p^2 when Q = lambda adj T mod p for some lambda != 0, with
    adj T = (t4, -t2, t1), else 0.  Q = T = 0 mod p gives a = 0 and
    e = p^3 - p^2.  As histograms: with H_n = ``_PrimeTables.row(n)``,
    the counts of the grid's numerators mod p are
    a sum_n H_n + e [residue 0] + k (1, ..., 1), k fixing the total
    p^3 - p^2, because two integer vectors of one value differ by a
    multiple of (1, ..., 1) for prime p.

    Proof route (Kitaoka, Nagoya Math. J. 93, 1984; verified, not proven
    here).  On the rows with d1 != 0, put u = delta: d4 <-> u is a
    bijection onto F_p^*, and the numerator is A + B inv(u) + C u with
    A = inv(d1) q1 + d1 t1 + d2 t2 + inv(d1) t4 d2^2, B = inv(d1) (q1 d2^2
    - q2 d1 d2 + q4 d1^2) and C = inv(d1) t4.  The sum over u is then
    e(A/p) times the Kloosterman sum S(B, C; p) in delta.  For C != 0
    that is the sum over x in F_p^* of e((x + B C inv(x))/p), whose phase
    A + B C inv(x) is quadratic in d2, so the sum over d2 is a quadratic
    Gauss sum.  With the rows d1 = 0, uniform over the residues or p
    copies of one, that should give the form above, but the case split is
    not written out.  The checks are exact: tests/test_expsums.py
    compares the histogram above with ``np.bincount(_pI_grid(p) @ v % p)``
    for every vector at p = 3, 5 and 7 and for 1,024 random vectors at
    each prime from 11 to 101, and
    acceptance criterion 1 compares the value with the coset enumeration
    of pI at p = 3, 5, 7.  No tail budget rests on the identity.
    """
    q1, q2, q4 = q.t1 % p, q.t2 % p, q.t4 % p
    t1, t2, t4 = t.t1 % p, t.t2 % p, t.t4 % p
    q_nonzero, t_nonzero = bool(q1 or q2 or q4), bool(t1 or t2 or t4)
    if not (q_nonzero or t_nonzero):
        return 0, (), p ** 3 - p ** 2
    tables = _prime_tables(p)
    dq = (q2 * q2 - 4 * q1 * q4) % p
    dt = (t2 * t2 - 4 * t1 * t4) % p
    chi = tables.legendre(dq or dt)
    r = tables.sqrt[dq * dt % p]
    ns: tuple[int, ...] = ()
    if chi and r >= 0:
        b, half = 2 * q1 * t1 + q2 * t2 + 2 * q4 * t4, (p + 1) // 2
        ns = tuple(sorted({(b + r) * half % p, (b - r) * half % p}))
    # Q = lambda adj T with lambda != 0: both nonzero, and the 2x2 minors
    # of Q and adj T = (t4, -t2, t1) vanish
    proportional = (q_nonzero and t_nonzero and (q1 * t2 + q2 * t4) % p == 0
                    and (q1 * t1 - q4 * t4) % p == 0
                    and (q2 * t1 + q4 * t2) % p == 0)
    return p * chi, ns, (p * p if proportional else 0)


def _pI_value(q: HalfIntegralForm, t: HalfIntegralForm, p: int) -> complex:
    """K(Q, T; pI) for prime p: the closed form at odd p, the grid's tally
    at p = 2."""
    if p == 2:
        return _tally_value((_pI_grid(2) @ _form_vector(q, t)) % 2, 2)
    a, ns, e = _pI_closed_form(q, t, p)
    tables = _prime_tables(p)
    return complex(a * sum(tables.kloosterman(n) for n in ns) + e)


# ``salie``'s grid moduli are products of the prime powers of c it does not
# take in closed form, two int64 entries a unit each; the bound keeps a
# sweep over many c from holding a table per modulus
@lru_cache(maxsize=128)
def _unit_table(c: int) -> tuple[np.ndarray, np.ndarray]:
    """(units d mod c, their inverses mod c); for c = 1 the class 0."""
    units = np.array([d for d in range(c) if math.gcd(d, c) == 1],
                     dtype=np.int64)
    table = (units, np.array(unit_inverses(c), dtype=np.int64)[units])
    for arr in table:
        arr.setflags(write=False)
    return table


# Largest c that ``salie`` and ``gauss_sum`` accept, and the most entries
# that ``twisted_average`` tallies, each to keep its peak below 4 GiB, as
# sp4.MAX_PI_GRID_N does for the pI grid (bytes an entry under
# tracemalloc).  ``salie`` allocates most for its grid factor g, the
# product of the prime powers of c that the closed form does not take: a
# phi(g) x g numerator grid at about 16 bytes an entry, 4 GiB at
# g = c = 2^14 (160 GB at g = 100,003).  Its other arrays are O(c): the
# roots of unity mod c and a square-root scan mod a prime power of c.
# ``gauss_sum`` peaks at 48 bytes an entry (the numerators, their counts
# and the roots of unity with their construction), 3 GiB at c = 2^26.
# ``twisted_average`` tallies cosets x L1 x L2 numerators at 24 bytes an
# entry (the numerators, the broadcast character weights and their float
# copy), 3 GiB at 2^27 entries; 20I with q1 = q2 = 1 has 512 M.
MAX_SALIE_C = 2 ** 14
MAX_GAUSS_C = 2 ** 26
MAX_TWISTED_ENTRIES = 2 ** 27


def _square_roots(a: int, p: int, q: int) -> list[int]:
    """The y mod q = p^e, p an odd prime, with y^2 = a mod q: from the
    square-root table of ``_prime_tables(p)`` when q = p, from a scan of
    y mod q otherwise."""
    if q == p:
        r = _prime_tables(p).sqrt[a]
        return [] if r < 0 else sorted({r, (p - r) % p})
    y = np.arange(q, dtype=np.int64)
    return np.flatnonzero(y * y % q == a).tolist()


def _salie_closed(p1: int, p2: int, s1: int, s2: int, s4: int, p: int,
                  e: int, q: int) -> tuple[int, list[int]] | None:
    """(w, rs) with I(P, S; q) = w sum_{r in rs} e(r/q) for the integral
    part I of a Salie sum (``salie``) at q = p^e, p an odd prime, or None
    where the closed form does not apply: p divides s4, or p divides both
    X = -D_P inv(4 s4) and Y = -D_S inv(4 s4) (D_P = p2^2 - 4 p1 s4,
    D_S = s2^2 - 4 s1 s4).

    Derivation.  For a unit d1, the sum over d2 of e((a d2^2 + b d2)/q),
    a = inv(d1) s4 a unit, b = s2 - inv(d1) p2, is the Gauss sum
    e(-b^2 inv(4a)/q) (a|q) eps_q sqrt(q) (complete the square; eps_q = 1
    for q = 1 mod 4, i otherwise), and (a|q) = (d1|q) (s4|q).  Expanding
    -b^2 inv(4a) leaves, in the sum over d1,

        I = eps_q sqrt(q) (s4|q) e(2 s2 p2 inv(4 s4)/q)
            sum_{d1 unit} (d1|q) e((X inv(d1) + Y d1)/q).

    That sum is symmetric in X and Y (d1 -> inv(d1)), and with U the one
    of them that is a unit it is Salie's eps_q sqrt(q) (U|q) sum over the
    y mod q with y^2 = XY of e(2y/q) (Iwaniec-Kowalski, Analytic Number
    Theory, section 12.3).  So I = eps_q^2 q (s4|q) (U|q) e(w0/q) sum_y
    e(2y/q), w0 = 2 s2 p2 inv(4 s4): w = +-q and rs = w0 + 2y mod q.  The
    Jacobi symbol (x|p^e) is (x|p)^e.  A y^2 = XY with no root (XY a
    non-residue) makes I exactly 0.  The identity is checked against the
    grid, not proven here: tests/test_expsums.py compares ``salie`` with
    ``_salie_grid`` at every c <= 200, and acceptance criterion 6 at
    c <= 20."""
    if s4 % p == 0:
        return None
    inv = pow(4 * s4, -1, q)
    x = (4 * p1 * s4 - p2 * p2) * inv % q
    y = (4 * s1 * s4 - s2 * s2) * inv % q
    unit = y if y % p else x
    if unit % p == 0:
        return None
    tables = _prime_tables(p)
    chi = (tables.legendre(s4) * tables.legendre(unit)) ** e
    w0 = 2 * s2 * p2 * inv
    return ((1 if q % 4 == 1 else -1) * chi * q,
            [(w0 + 2 * r) % q for r in _square_roots(x * y % q, p, q)])


def _grid_numerators(p1: int, p2: int, s1: int, s2: int, s4: int,
                     g: int) -> np.ndarray:
    """The numerators mod g of the integral part of a Salie sum
    (``salie``), one for each d1 mod g coprime to g and d2 mod g: the
    phi(g) x g grid, raveled."""
    d1, d1bar = _unit_table(g)
    d2 = np.arange(g, dtype=np.int64)
    # coefficients reduced mod g first, so no product exceeds g^2
    quad = (s4 % g * (d2 * d2 % g) + (-p2) % g * d2 + p1 % g) % g
    return ((d1bar[:, None] * quad[None, :] + (s2 % g * d2)[None, :]
             + (s1 % g * d1)[:, None]) % g).ravel()


def _salie_offset(p: HalfIntegralForm, s: HalfIntegralForm, c: int) -> complex:
    """e(-p2 s2 / (2 c s4)), its angle from the exact residue mod 1."""
    num, den = -p.t2 * s.t2, 2 * c * s.t4
    if den < 0:
        num, den = -num, -den
    return complex(np.exp(2j * np.pi * (num % den / den)))


def _check_salie(p: HalfIntegralForm, s: HalfIntegralForm, c: int) -> bool:
    """Raise ValueError on an invalid c or s4 = 0; False when s4 != p4, where
    the sum is 0 with no terms."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if c > MAX_SALIE_C:
        raise ValueError(f"the Salie sum of c = {c} exceeds the cap "
                         f"{MAX_SALIE_C} (about 16 c^2 bytes for its grid)")
    if s.t4 != p.t4:
        return False
    if s.t4 == 0:
        raise ValueError("s4 must be nonzero")
    return True


def salie(p: HalfIntegralForm, s: HalfIntegralForm, c: int) -> SumValue:
    """Salie-type sum H^+(P, S; c).

    Vanishes unless s4 == p4.  Otherwise it is I(P, S; c), the sum over d1
    mod c coprime to c and d2 mod c of

        e( (inv(d1) (s4 d2^2 - p2 d2 + p1) + s2 d2 + d1 s1) / c ),

    times the constant non-integral phase e( -p2 s2 / (2 c s4) ).  The
    minus sum, with +p2 in both places, is H^-(P, S; c) = H^+(P, S'; c) for
    S' = (s1, -s2, s4): d2 -> -d2 permutes the numerators and keeps the
    phase.

    I is twisted multiplicative: for coprime c = c1 c2, u1 = inv(c2) mod
    c1 and u2 = inv(c1) mod c2, n/c = n u1/c1 + n u2/c2 mod 1, and a
    numerator mod c1 depends on (d1, d2) mod c1 alone, so I(P, S; c) =
    I(u1 P, u1 S; c1) I(u2 P, u2 S; c2), every coefficient scaled.  Over
    the prime powers q exactly dividing c, I is the product of I at q with
    every coefficient scaled by inv(c/q) mod q.  An odd q whose prime
    divides neither s4 nor both discriminants D_P, D_S takes Salie's
    closed form (``_salie_closed``); the others, 2^e among them, multiply
    to the grid modulus g, tallied on its phi(g) x g grid.  The grid of
    all of c is ``_salie_grid``, the oracle.

    The value is K C G times the offset: K the product of the closed
    forms' signed moduli, C the sum of the roots e(n/c) over the sums n of
    one closed-form numerator r_q (c/q) per closed q, and G the grid's
    tally mod g.  K times the count of n times the grid's terms is at most
    ``terms`` = phi(c) c, with equality on the grid alone, as a closed q
    weighs q on at most phi(q) roots.  When the closed form at some q has
    no square root the value is exactly 0j: so whenever an odd p dividing
    c but not s4 has (D_P D_S | p) = -1.  When every q is on the grid the
    value is the grid's, bit for bit.

    Raises ValueError, before any array is built, when c exceeds
    ``MAX_SALIE_C``.
    """
    if not _check_salie(p, s, c):
        return SumValue(0j, 0, "salie")
    coeffs = (p.t1, p.t2, s.t1, s.t2, s.t4)
    nums, weight, g, phi = [0], 1, 1, 1
    for prime, e in prime_factors(c):
        q = prime ** e
        phi *= q // prime * (prime - 1)
        u = pow(c // q, -1, q)
        scaled = [u * x % q for x in coeffs]
        closed = None if prime == 2 else _salie_closed(*scaled, prime, e, q)
        if closed is None:
            g *= q
            continue
        w, rs = closed
        weight *= w
        nums = [(n + r * (c // q)) % c for n in nums for r in rs]
    if not nums:
        return SumValue(0j, phi * c, "salie")
    roots = _roots_mod(c)
    value = weight * sum(complex(roots[n]) for n in nums)
    if g > 1:
        v = pow(c // g, -1, g)
        value *= _tally_value(
            _grid_numerators(*(v * x % g for x in coeffs), g), g)
    value *= _salie_offset(p, s, c)
    return SumValue(value=value, terms=phi * c, method="salie")


def _salie_grid(p: HalfIntegralForm, s: HalfIntegralForm, c: int) -> SumValue:
    """H^+(P, S; c) tallied on the whole phi(c) x c grid of c, with no closed
    form: ``salie``'s oracle (tests/test_expsums.py, acceptance criterion
    6), equal to it bit for bit when every prime power of c is on the grid."""
    if not _check_salie(p, s, c):
        return SumValue(0j, 0, "salie")
    nums = _grid_numerators(p.t1, p.t2, s.t1, s.t2, s.t4, c)
    value = _tally_value(nums, c) * _salie_offset(p, s, c)
    return SumValue(value=value, terms=nums.size, method="salie")


def gauss_sum(a: int, b: int, c: int) -> SumValue:
    """Quadratic Gauss sum: sum over x mod c of e((a x^2 + b x)/c).  Raises
    ValueError, before any array is built, when c exceeds ``MAX_GAUSS_C``."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if c > MAX_GAUSS_C:
        raise ValueError(f"the Gauss sum of c = {c} exceeds the cap "
                         f"{MAX_GAUSS_C} (about 48 c bytes)")
    x = np.arange(c, dtype=np.int64)
    # a, b and x^2 reduced mod c first, so no product reaches c^2 <= 2^52
    nums = (a % c * (x * x % c) + b % c * x) % c
    del x  # freed before the tally builds the roots of unity
    return SumValue(value=_tally_value(nums, c), terms=c, method="brute")


def congruence_count(n: int, c1: int, c2: int, c4: int, h1: int, h2: int,
                     a: int, b: int) -> int:
    """Solutions (d1, d2, d4) mod N of the linked pair of congruences.

    Counts triples with delta = d1 d4 - d2^2 nonzero mod N satisfying
    h1 == a (d1 + d4) and delta * h2 == b (d4 c1 - d2 c2 + d1 c4) mod N.
    In the main case (h1 == h2 == 0, c1 == c4, c2 == 0 mod N) the count is
    exactly N^2 - 1: both congruences force d4 == -d1, and then
    delta = -(d1^2 + d2^2) vanishes only at d1 == d2 == 0 when N == 3 mod 4.
    Otherwise it is at most N + 1.
    """
    if not is_prime(n) or n % 4 != 3:
        raise ValueError("N must be a prime congruent to 3 mod 4")
    if (4 * c1 * c4 - c2 * c2) % n == 0:
        raise ValueError("4 c1 c4 - c2^2 must be nonzero mod N")
    if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
        raise ValueError("a, b must be coprime to N")
    count = 0
    for d1 in range(n):
        for d4 in range(n):
            if (h1 - a * (d1 + d4)) % n:
                continue
            lin = b * (d4 * c1 + d1 * c4)
            base = d1 * d4
            for d2 in range(n):
                delta = (base - d2 * d2) % n
                if delta == 0:
                    continue
                if (delta * h2 - lin + b * d2 * c2) % n == 0:
                    count += 1
    return count


def twisted_average(c: IntMat2, q1: int, q2: int) -> SumValue:
    """Character-twisted average of K(mu2 I, mu1 I; C) over a GO2 modulus.

    Computes sum over mu1 mod lcm(|q1|, det C), mu2 mod lcm(|q2|, det C) of
    chi_{q1}(mu1) chi_{q2}(mu2) K(mu2 I, mu1 I; C) and checks it against the
    closed form delta_{q1=q2=1} |det C|^2 phi(x + i y), where
    C = [[x, y], [-/+ y, +/- x]] and phi is the totient on Z[i].  With w
    the coset table of C, the summand of a coset at (mu1, mu2) has the
    numerator (w0 + w2) mu2 + (w3 + w5) mu1 mod m, so every (coset, mu1,
    mu2) goes into one tally weighted by its character value; ``terms``
    counts those with both characters nonzero.  Each of q1, q2 must be 1
    or a fundamental discriminant.  Raises ValueError, after the coset
    table and before any tally array is built, when the tally would have
    more than ``MAX_TWISTED_ENTRIES`` entries.
    """
    if not is_go2(c):
        raise ValueError("modulus is not in GO2(Z)")
    require_fundamental_discriminant(q1, q2)
    cdet = abs(c.det())
    l1, l2 = (math.lcm(abs(q), cdet) for q in (q1, q2))
    data = sp4.coset_data(c)
    if data.count * l1 * l2 > MAX_TWISTED_ENTRIES:
        raise ValueError(
            f"the twisted average of {data.count} cosets x {l1} x {l2} "
            f"exceeds the cap {MAX_TWISTED_ENTRIES} (about 24 bytes an entry)")
    mu1, mu2 = np.arange(l1), np.arange(l2)
    chi = np.outer([kronecker(q1, int(x)) for x in mu1],
                   [kronecker(q2, int(x)) for x in mu2])
    w = data.weights
    nums = ((w[:, 0] + w[:, 2])[:, None, None] * mu2
            + (w[:, 3] + w[:, 5])[:, None, None] * mu1[:, None]) % data.m
    total = _tally_value(nums.ravel(), data.m,
                         np.broadcast_to(chi, nums.shape).ravel())
    expected = 0j
    if q1 == 1 and q2 == 1:
        expected = complex(cdet * cdet * gaussian_totient(GaussianInt(c.a, c.b)))
    if abs(total - expected) > 1e-9 * max(1.0, abs(expected)):
        raise ArithmeticError(
            f"twisted average {total} deviates from closed form {expected}")
    return SumValue(value=total, terms=data.count * int(np.count_nonzero(chi)),
                    method="brute")

"""Exact 2x2 integer matrix arithmetic and arithmetic functions.

Everything in this module is exact arbitrary-precision integer arithmetic;
the one float is `HalfIntegralForm.det`, for the numeric layers.  The
types defined here (integer matrices, half-integral binary forms, Gaussian
integers) are frozen dataclasses and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class SingularModulusError(ValueError):
    """Raised when an operation requires a nonsingular matrix."""


# ---------------------------------------------------------------------------
# Integer 2x2 matrices


@dataclass(frozen=True)
class IntMat2:
    """2x2 integer matrix [[a, b], [c, d]] with exact arithmetic."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def adj(self) -> "IntMat2":
        """Adjugate; satisfies M @ adj(M) == det(M) * I exactly."""
        return IntMat2(self.d, -self.b, -self.c, self.a)

    def t(self) -> "IntMat2":
        return IntMat2(self.a, self.c, self.b, self.d)

    def mul(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def add(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(self.a + other.a, self.b + other.b,
                       self.c + other.c, self.d + other.d)

    def scale(self, n: int) -> "IntMat2":
        return IntMat2(n * self.a, n * self.b, n * self.c, n * self.d)

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def is_unimodular(self) -> bool:
        return self.det() in (1, -1)

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    @staticmethod
    def identity() -> "IntMat2":
        return IntMat2(1, 0, 0, 1)

    @staticmethod
    def zero() -> "IntMat2":
        return IntMat2(0, 0, 0, 0)

    @staticmethod
    def scalar(n: int) -> "IntMat2":
        return IntMat2(n, 0, 0, n)

    @staticmethod
    def diag(x: int, y: int) -> "IntMat2":
        return IntMat2(x, 0, 0, y)


# ---------------------------------------------------------------------------
# Half-integral binary forms


def conjugation_map(u: IntMat2) -> tuple[tuple[int, int, int], ...]:
    """The 3x3 integer matrix taking the coordinates (q1, q2, q4) of a
    half-integral form Q, q2 the doubled off-diagonal entry, to those of
    U Q U^T; row i gives the i-th coordinate."""
    return conjugation_coeffs(*u.entries())


def conjugation_coeffs(a, b, c, d):
    """``conjugation_map`` of [[a, b], [c, d]], for integer entries or,
    elementwise, integer arrays of them (one matrix per element).  The one
    place where the change of forms is written out."""
    return ((a * a, a * b, b * b),
            (2 * a * c, a * d + b * c, 2 * b * d),
            (c * c, c * d, d * d))


@dataclass(frozen=True)
class HalfIntegralForm:
    """Symmetric matrix [[t1, t2/2], [t2/2, t4]] with integral t1, t2, t4.

    ``t2`` stores the doubled off-diagonal entry, so the doubled matrix
    [[2*t1, t2], [t2, 2*t4]] is integral.  Positive definiteness is not
    enforced at construction; exponential sums are well defined for any
    symmetric half-integral argument.  Use :meth:`require_positive_definite`
    where the analysis needs it.
    """

    t1: int
    t2: int
    t4: int

    def det4(self) -> int:
        """Four times the determinant, an integer: 4*t1*t4 - t2**2."""
        return 4 * self.t1 * self.t4 - self.t2 * self.t2

    def det(self) -> float:
        return self.det4() / 4.0

    def is_positive_definite(self) -> bool:
        return self.t1 >= 1 and self.det4() >= 1

    def require_positive_definite(self) -> "HalfIntegralForm":
        if not self.is_positive_definite():
            raise ValueError(f"form {self} is not positive definite")
        return self

    def doubled(self) -> IntMat2:
        return IntMat2(2 * self.t1, self.t2, self.t2, 2 * self.t4)

    def conjugate_right(self, u: IntMat2) -> "HalfIntegralForm":
        """The form of u Q u^T, ``conjugation_map(u)`` applied to
        (t1, t2, t4) (exact; stays half-integral)."""
        t1, t2, t4 = (r1 * self.t1 + r2 * self.t2 + r4 * self.t4
                      for r1, r2, r4 in conjugation_map(u))
        return HalfIntegralForm(t1, t2, t4)

    def conjugate_left(self, u: IntMat2) -> "HalfIntegralForm":
        """The form of u^T Q u, that is ``conjugate_right(u^T)``."""
        return self.conjugate_right(u.t())

    def scale(self, n: int) -> "HalfIntegralForm":
        return HalfIntegralForm(n * self.t1, n * self.t2, n * self.t4)

    @staticmethod
    def scalar(m: int) -> "HalfIntegralForm":
        return HalfIntegralForm(m, 0, m)

    @staticmethod
    def identity() -> "HalfIntegralForm":
        return HalfIntegralForm(1, 0, 1)


# ---------------------------------------------------------------------------
# Gaussian integers


@dataclass(frozen=True)
class GaussianInt:
    """Gaussian integer x + i*y."""

    x: int
    y: int

    def norm(self) -> int:
        return self.x * self.x + self.y * self.y


# ---------------------------------------------------------------------------
# Small number-theory helpers


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [(n, 1)]


def prime_factors(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of |n| != 0 as [(p, e), ...]."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out = []
    for p in [2, 3]:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def unit_inverses(n: int) -> list[int]:
    """inv(x) mod n at index x for each unit x mod n, 0 off the units."""
    return [pow(x, -1, n) if math.gcd(x, n) == 1 else 0 for x in range(n)]


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in prime_factors(n))


def is_fundamental_discriminant(q: int) -> bool:
    """True for q = 1 and for discriminants of quadratic fields."""
    if q == 1:
        return True
    if q % 4 == 1:
        return q != 1 and is_squarefree(q)
    if q % 4 == 0:
        m = q // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def require_fundamental_discriminant(*qs: int) -> None:
    """Raise ValueError unless each q is 1 or a fundamental discriminant."""
    for q in qs:
        if not is_fundamental_discriminant(q):
            raise ValueError(f"{q} is not 1 or a fundamental discriminant")


def kronecker(q: int, n: int) -> int:
    """Kronecker symbol (q/n), completely multiplicative in n."""
    if n == 0:
        return 1 if q in (1, -1) else 0
    if q % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if q < 0:
            result = -result
    # factor out 2s from n; (q/2) depends on q mod 8
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t % 2 == 1 and q % 8 in (3, 5):
        result = -result
    # Jacobi loop on odd positive n, with quadratic reciprocity
    q %= n
    while q != 0:
        while q % 2 == 0:
            q //= 2
            if n % 8 in (3, 5):
                result = -result
        q, n = n, q
        if q % 4 == 3 and n % 4 == 3:
            result = -result
        q %= n
    return result if n == 1 else 0


def gaussian_totient(g: GaussianInt) -> int:
    """Euler's totient on Z[i]: N(g) * prod over primes pi | g of (1 - 1/N(pi)),
    by the rational prime p | N(g) under pi: 2 ramifies, p = 3 mod 4 is
    inert (N(pi) = p^2), and p = 1 mod 4 splits into a conjugate pair of
    norm p, both of which divide g iff p divides x and y."""
    nrm = g.norm()
    if nrm == 0:
        raise ValueError("totient of zero is undefined")
    phi = nrm
    for p, _ in prime_factors(nrm):
        if p == 2:
            phi //= 2
        elif p % 4 == 3:
            phi = phi // (p * p) * (p * p - 1)
        else:
            phi = phi // p * (p - 1)
            if g.x % p == 0 and g.y % p == 0:
                phi = phi // p * (p - 1)
    return phi


def is_go2(c: IntMat2) -> bool:
    """Membership in the integral similitude-orthogonal group.

    Matrices [[x, y], [-y, x]] or [[x, y], [y, -x]] with (x, y) != (0, 0);
    exactly the nonzero integer C with C^T C a multiple of the identity.
    """
    if c.entries() == (0, 0, 0, 0):
        return False
    return (c.a == c.d and c.b == -c.c) or (c.a == -c.d and c.b == c.c)


# ---------------------------------------------------------------------------
# Elementary divisors (2x2 Smith form) and general integer linear systems


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g = gcd(a, b) > 0 with s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _euclid_step(a: int, b: int) -> tuple[int, int, int, int]:
    """The entries (e11, e12, e21, e22) of a determinant-one E with
    E (a, b)^T = (g, 0)^T, for b != 0: g = a when a != 0 divides b, else
    g = gcd(a, b) from ``_xgcd``.  The one elimination step of the two
    routines below."""
    if a != 0 and b % a == 0:
        return 1, 0, -(b // a), 1
    g, s, t = _xgcd(a, b)
    return s, t, -(b // g), a // g


def _mul4(x: tuple[int, int, int, int],
          y: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The entries of X Y for 2x2 matrices given by their entries."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def elementary_divisors(c: IntMat2) -> tuple[int, int, IntMat2, IntMat2]:
    """Elementary divisors of a nonsingular integer matrix.

    Returns (c1, c2, U, V) with U @ C @ V = diag(c1, c2), c1 | c2,
    c1, c2 >= 1, and U, V unimodular, all exact.  M = C is multiplied by
    ``_euclid_step`` on the left (into U) to clear m21, by its transpose on
    the right (into V) to clear m12, and, once M is diagonal with m11 not
    dividing m22, by adding column 2 to column 1; |m11| shrinks at every
    gcd step, so the loop ends.
    Signs are fixed last, on the left.  M, U and V are carried as entry
    tuples, and U and V become ``IntMat2`` once, at the end.  The shell
    budget reads the V of ``sp4.smith_class`` for C' as that of N C' (a
    positive scale keeps every step); tests/test_matcore.py pins U, V.
    """
    if c.det() == 0:
        raise SingularModulusError("singular modulus")
    m, u, v = c.entries(), (1, 0, 0, 1), (1, 0, 0, 1)
    while m[2] != 0 or m[1] != 0 or m[3] % m[0] != 0:
        if m[2] != 0:
            e = _euclid_step(m[0], m[2])
            m, u = _mul4(e, m), _mul4(e, u)
        else:
            if m[1] != 0:
                e11, e12, e21, e22 = _euclid_step(m[0], m[1])
                e = (e11, e21, e12, e22)  # the transpose
            else:
                e = (1, 0, 1, 1)
            m, v = _mul4(m, e), _mul4(v, e)
    s1, s2 = (1 if m[0] > 0 else -1), (1 if m[3] > 0 else -1)
    c1, c2 = s1 * m[0], s2 * m[3]
    uu = IntMat2(s1 * u[0], s1 * u[1], s2 * u[2], s2 * u[3])
    vv = IntMat2(*v)
    assert uu.is_unimodular() and vv.is_unimodular()
    assert c1 >= 1 and c2 % c1 == 0 and c1 * c2 == abs(c.det())
    return c1, c2, uu, vv


def solve_integer_system(rows: list[list[int]], rhs: list[int]) -> list[int] | None:
    """A particular integer solution x of rows @ x = rhs, or None.

    Column echelon form by ``_euclid_step`` on pairs of columns (H. Cohen,
    A Course in Computational Algebraic Number Theory, GTM 138, section
    2.4) turns [rows; I] into [L; V], V unimodular and L = rows @ V lower
    echelon; row by row, forward substitution solves L y = rhs (y = 0 off
    the pivot columns), and x = V y.  None when a pivot does not divide its
    residual or a row without a pivot leaves one.  Meant for small systems
    such as symplectic completion (6 equations, 8 unknowns).
    """
    nr, nc = len(rows), len(rows[0])
    cols = [[r[j] for r in rows] + [int(i == j) for i in range(nc)]
            for j in range(nc)]
    y: list[int] = []  # unknowns of the pivot columns 0, 1, ... in order
    for i, b in enumerate(rhs):
        k = len(y)
        for j in range(k + 1, nc):
            if cols[j][i] != 0:
                e11, e12, e21, e22 = _euclid_step(cols[k][i], cols[j][i])
                pairs = list(zip(cols[k], cols[j]))
                cols[k] = [e11 * p + e12 * q for p, q in pairs]
                cols[j] = [e21 * p + e22 * q for p, q in pairs]
        residual = b - sum(cols[j][i] * y[j] for j in range(k))
        if k < nc and cols[k][i] != 0:
            if residual % cols[k][i] != 0:
                return None
            y.append(residual // cols[k][i])
        elif residual != 0:
            return None
    return [sum(col[nr + i] * yj for col, yj in zip(cols, y)) for i in range(nc)]


# ---------------------------------------------------------------------------
# Form equivalence and automorphisms


def representations(t: HalfIntegralForm, s: int) -> list[tuple[int, int]]:
    """All integer vectors (x, y) with t1*x^2 + t2*x*y + t4*y^2 = s."""
    t.require_positive_definite()
    if s < 0:
        return []
    if s == 0:
        return [(0, 0)]
    out = []
    d4 = t.det4()
    ymax = math.isqrt(4 * t.t1 * s // d4)
    for y in range(-ymax, ymax + 1):
        # t1 x^2 + (t2 y) x + (t4 y^2 - s) = 0
        disc = t.t2 * t.t2 * y * y - 4 * t.t1 * (t.t4 * y * y - s)
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for sgn in ((r, -r) if r else (r,)):
            num = -t.t2 * y + sgn
            if num % (2 * t.t1) == 0:
                out.append((num // (2 * t.t1), y))
    out.sort()
    return out


def _isometries(q: HalfIntegralForm, t: HalfIntegralForm):
    """Yields every U in GL2(Z) with U^T Q U = T.

    The columns of U represent t1 and t4 by Q, so the search runs over
    pairs of representations and keeps the unimodular ones with the right
    cross term."""
    q2 = q.doubled()
    for u1 in representations(q, t.t1):
        for u2 in representations(q, t.t4):
            cand = IntMat2(u1[0], u2[0], u1[1], u2[1])
            if not cand.is_unimodular():
                continue
            # cross term: first column^T (2Q) second column must equal t2
            v = q2.apply(u2[0], u2[1])
            if u1[0] * v[0] + u1[1] * v[1] == t.t2:
                yield cand


def gl2_equivalence(q: HalfIntegralForm, t: HalfIntegralForm) -> IntMat2 | None:
    """A unimodular U with U^T Q U = T, or None if the forms are inequivalent."""
    q.require_positive_definite()
    t.require_positive_definite()
    if q.det4() != t.det4():
        return None
    return next(_isometries(q, t), None)


def aut_count(t: HalfIntegralForm) -> int:
    """Order of Aut(T) = {U in GL2(Z) : U^T T U = T}."""
    t.require_positive_definite()
    return sum(1 for _ in _isometries(t, t))

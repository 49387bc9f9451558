"""Seeded workloads of the siegelsums benchmark.

A run repeats *rounds*.  A round is a short list of operations drawn from
``random.Random(f"{workload}/{seed}/{round}")``, so the same seed gives the
same inputs and every round of a run sees fresh ones.  Each workload draws
from a fixed pool whose reference outputs are stored in ``refs/``, and
draws so that every round costs about the same, whatever the seed.

Operations are plain tuples of library objects: the library only ever
receives the generated forms, moduli and discriminants.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from siegelsums import acceptance, expsums, petersson
from siegelsums.matcore import (HalfIntegralForm, IntMat2,
                                is_fundamental_discriminant, prime_factors)

REFS = Path(__file__).resolve().parent / "refs"
TOL = acceptance.TOL

# coeff-cold draws Q from the two reduced forms of determinant 3/4 and T
# from the two of determinant 7/4, (t1, t2, t4) with t2 the doubled
# off-diagonal entry.  Each pair is GL2(Z)-equivalent to the others, so
# every round does the same work; across the reduced forms with t1, t4 in {1, 2} the
# cost of one coefficient varies 2.5-fold.  Level 5 is left out: its
# 9-14 s operations leave two rounds in a run, and on a host whose speed
# drifts that made solve_s spread by a quarter of its median.  At N = 3 the
# coset-table builds are half of an operation and rank-1 Salie sums most
# of the rest.
COEFF_Q_FORMS = [(1, 1, 1), (1, -1, 1)]
COEFF_T_FORMS = [(1, 1, 2), (1, -1, 2)]
COEFF_LEVEL = 3

# Positive-definite forms with 1 <= t1, t4 <= 3 and |t2| <= 2 (43 forms).
KSUM_FORMS = [(t1, t2, t4) for t1 in range(1, 4) for t4 in range(1, 4)
              for t2 in range(-2, 3) if 4 * t1 * t4 > t2 * t2]
KSUM_PRIMES = (3, 5, 7)
# Non-scalar moduli (a, b, c, d) with 0 < |det| <= 18.
KSUM_MODULI = [(1, 0, 0, 2), (1, 1, -1, 1), (1, 2, 3, 4), (2, 1, 1, 3),
               (2, 0, 0, 4), (1, 3, -3, 3), (3, 1, -1, 4), (4, 1, 2, 4),
               (2, 3, -3, 4), (3, 0, 0, 6)]
KSUM_TABLE_FORMS = 32

# 1 and the fundamental discriminants with |q| <= 40.
FIT_DISCS = [1] + [q for q in range(-40, 41)
                   if q not in (0, 1) and is_fundamental_discriminant(q)]
FIT_WEIGHTS = (10, 12, 14)
# A fit costs about phi(|q1 q2|) vectorised Hurwitz-zeta evaluations: one
# per residue class where the coupled character chi_{q1 q2} is nonzero.
# The references cover the 117 of the 523 ordered coprime pairs with
# phi(|q1 q2|) <= FIT_PHI_MAX; the other 406 reach phi = 1080, and one such
# fit would outlast a whole round.  A round runs one pair from each slot, a
# slot being the pairs of one value of phi, so that rounds cost about the
# same whatever they draw (within a slot, a fit's cost still varies up to
# 1.8-fold with |q1 q2|).  The median operation is the middle slot's.
FIT_PHI_MAX = 36
FIT_SLOTS = (4, 8, 16, 24, 32)
SWEEP_LEVELS = (100.0, 316.0, 1000.0, 3162.0, 10000.0, 31623.0, 100000.0)


def _totient(n: int) -> int:
    for p, _ in prime_factors(n):
        n = n // p * (p - 1)
    return n


def fit_pairs(lo: int, hi: int) -> list[tuple[int, int]]:
    """Coprime pairs of FIT_DISCS with lo <= phi(|q1 q2|) <= hi."""
    return [(a, b) for a in FIT_DISCS for b in FIT_DISCS
            if math.gcd(abs(a), abs(b)) == 1 and lo <= _totient(abs(a * b)) <= hi]


def form(t: tuple[int, int, int]) -> HalfIntegralForm:
    return HalfIntegralForm(*t)


def modulus(c: int | tuple[int, int, int, int]) -> IntMat2:
    return IntMat2.scalar(c) if isinstance(c, int) else IntMat2(*c)


def host_threads() -> int:
    """CPUs this process may run on: the CLI's thread count, taken from the
    affinity mask rather than os.cpu_count()."""
    return len(os.sched_getaffinity(0))


# ksum-table runs single-threaded.  At host_threads(), 2 on a two-vCPU
# virtual machine, the per-call thread pool made solve_s range from 2.4 s
# to 3.9 s over five seeds, far outside any usable bound.  The traced run
# still times the threaded table, as expsums.kloosterman_threaded_s.
KSUM_THREADS = 1


# ---------------------------------------------------------------------------
# Round generators


def coeff_round(rng: random.Random) -> list:
    """One cold h_fourier at N = 3, k = 10."""
    q, t = rng.choice(COEFF_Q_FORMS), rng.choice(COEFF_T_FORMS)
    return [("h", form(q), form(t),
             petersson.SpectralParams(k=10, level=COEFF_LEVEL))]


def ksum_round(rng: random.Random) -> list:
    """One Kloosterman table: every ordered pair of 32 seeded forms against
    every modulus, moduli in seeded order.  The cost of an entry depends on
    its modulus only, so every round costs the same."""
    forms = [form(f) for f in rng.sample(KSUM_FORMS, KSUM_TABLE_FORMS)]
    moduli = [modulus(c) for c in list(KSUM_PRIMES) + KSUM_MODULI]
    rng.shuffle(moduli)
    return [("K", q, t, c) for c in moduli for q in forms for t in forms]


_FIT_POOLS = [fit_pairs(phi, phi) for phi in FIT_SLOTS]


def fit_round(rng: random.Random) -> list:
    """One leading_coeff_fit plus a 7-level residue sweep per slot."""
    ops = [("fit", *rng.choice(pool), rng.choice(FIT_WEIGHTS))
           for pool in _FIT_POOLS]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Execution.  Calls go through the module attributes, so that the tracer's
# wrappers see them.


def run_op(op, threads: int):
    kind = op[0]
    if kind == "h":
        return petersson.h_fourier(op[1], op[2], op[3])
    if kind == "K":
        return expsums.kloosterman(op[1], op[2], op[3], threads=threads)
    if kind == "fit":
        _, q1, q2, k = op
        fit = petersson.leading_coeff_fit(q1, q2, k)
        sweep = [petersson.main_term_residue(q1, q2, lv, k)
                 for lv in SWEEP_LEVELS]
        return fit, sweep
    raise ValueError(f"unknown operation {kind!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random], list]
    cold_per_op: bool   # clear library caches before every op, else per round

    def round(self, seed: int, index: int) -> list:
        return self.make_round(random.Random(f"{self.name}/{seed}/{index}"))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("coeff-cold", coeff_round, True),
    Workload("ksum-table", ksum_round, False),
    Workload("residue-fit", fit_round, True),
]}


# ---------------------------------------------------------------------------
# Correctness checks against references stored at the defining commit


def load_refs() -> dict:
    with open(REFS / "coeff.json") as fh:
        coeff = json.load(fh)
    with open(REFS / "ksum.json") as fh:
        ksum = json.load(fh)
    with open(REFS / "fit.json") as fh:
        fit = json.load(fh)
    if ksum["forms"] != [list(f) for f in KSUM_FORMS] or ksum["moduli"] != [
            c if isinstance(c, int) else list(c)
            for c in list(KSUM_PRIMES) + KSUM_MODULI]:
        raise ValueError("refs/ksum.json does not match the workload pool")
    return {
        "h": {coeff_key(e["q"], e["t"], e["n"]): e for e in coeff},
        "K": dict(zip(ksum_keys(), ksum["values"])),
        "fit": {fit_key(e["q1"], e["q2"], e["k"]): e for e in fit},
    }


def _t(f: HalfIntegralForm) -> tuple[int, int, int]:
    return (f.t1, f.t2, f.t4)


def coeff_key(q, t, n) -> str:
    return f"{tuple(q)}|{tuple(t)}|{n}"


def ksum_keys():
    for c in list(KSUM_PRIMES) + KSUM_MODULI:
        for q in KSUM_FORMS:
            for t in KSUM_FORMS:
                yield f"{q}|{t}|{modulus(c).entries()}"


def fit_key(q1, q2, k) -> str:
    return f"{q1}|{q2}|{k}"


def check(op, out, refs) -> bool:
    """True iff the output of ``op`` agrees with the stored reference."""
    kind = op[0]
    if kind == "h":
        ref = refs["h"][coeff_key(_t(op[1]), _t(op[2]), op[3].level)]
        return abs(out.total - complex(*ref["total"])) <= out.tail_bound
    if kind == "K":
        _, q, t, c = op
        ref = refs["K"][f"{_t(q)}|{_t(t)}|{c.entries()}"]
        if abs(out.value - ref) > TOL:
            return False
        if c.is_scalar():
            pi = expsums.kloosterman_pI(q, t, c.a).value
            return abs(out.value - pi) <= TOL
        return True
    if kind == "fit":
        fit, sweep = out
        ref = refs["fit"][fit_key(*op[1:])]
        if abs(fit.leading - ref["leading"]) > 1e-8 * max(1.0, abs(ref["leading"])):
            return False
        if (len(fit.residues) != len(ref["fit_residues"])
                or len(sweep) != len(ref["sweep"])):
            return False
        if any(abs(a - b) > 1e-8 for a, b in zip(fit.residues, ref["fit_residues"])):
            return False
        return all(abs(r.residue - b) <= 1e-8 and r.imag_defect <= 1e-10
                   for r, b in zip(sweep, ref["sweep"]))
    raise ValueError(f"unknown operation {kind!r}")

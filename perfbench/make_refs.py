#!/usr/bin/env python3
"""Regenerate the benchmark's reference outputs in ``refs/``.

Runs the library over every input the workloads can draw and stores the
results.  The stored files are the ones produced at the commit that
defined the benchmark; regenerate them only to extend a pool, never to
make a failing check pass.

    python3 perfbench/make_refs.py [coeff] [ksum] [fit]

coeff takes about 15 seconds on one core, fit about 5 minutes, ksum
seconds.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from siegelsums import acceptance, expsums, petersson  # noqa: E402

from perfbench import workloads as wl  # noqa: E402


def coeff_refs() -> list[dict]:
    out = []
    n = wl.COEFF_LEVEL
    params = petersson.SpectralParams(k=10, level=n)
    for q, t in itertools.product(wl.COEFF_Q_FORMS, wl.COEFF_T_FORMS):
        acceptance.clear_all_caches()
        h = petersson.h_fourier(wl.form(q), wl.form(t), params)
        out.append({"q": q, "t": t, "n": n,
                    "total": [h.total.real, h.total.imag],
                    "tail_bound": h.tail_bound})
        print("coeff", n, q, t, h.total, file=sys.stderr, flush=True)
    return out


def ksum_refs() -> dict:
    moduli = list(wl.KSUM_PRIMES) + wl.KSUM_MODULI
    values = []
    for c in moduli:
        for q in wl.KSUM_FORMS:
            for t in wl.KSUM_FORMS:
                v = expsums.kloosterman(wl.form(q), wl.form(t), wl.modulus(c)).value
                # symplectic Kloosterman sums are real: D -> -D conjugates
                if abs(v.imag) > 1e-9:
                    raise ArithmeticError(f"K({q}, {t}; {c}) = {v} is not real")
                # rounded well inside TOL, so that the file stays small
                values.append(round(v.real, 10))
    return {"forms": wl.KSUM_FORMS, "moduli": moduli, "values": values}


def fit_refs() -> list[dict]:
    out = []
    for q1, q2 in wl.fit_pairs(1, wl.FIT_PHI_MAX):
        for k in wl.FIT_WEIGHTS:
            acceptance.clear_all_caches()
            fit, sweep = wl.run_op(("fit", q1, q2, k), threads=1)
            out.append({"q1": q1, "q2": q2, "k": k, "leading": fit.leading,
                        "fit_residues": list(fit.residues),
                        "sweep": [r.residue for r in sweep],
                        "max_imag_defect": max(r.imag_defect for r in sweep)})
            print("fit", q1, q2, k, fit.leading, file=sys.stderr, flush=True)
    return out


def main(argv: list[str]) -> int:
    parts = argv or ["coeff", "ksum", "fit"]
    makers = {"coeff": coeff_refs, "ksum": ksum_refs, "fit": fit_refs}
    wl.REFS.mkdir(exist_ok=True)
    for part in parts:
        data = makers[part]()
        with open(wl.REFS / f"{part}.json", "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end.

Every subcommand prints exactly one JSON object on stdout with the shape

    {"op": ..., "params": {...}, "value": {"re": ..., "im": ...},
     "terms": ..., "method": ..., "tail_bound"?: ...}

plus subcommand-specific extras; progress notes for the long-running
subcommands go to stderr.  Matrix literals are written "a,b;c,d" and
half-integral forms "t1,t2,t4" (t2 is the doubled off-diagonal entry).
Output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .matcore import HalfIntegralForm, IntMat2
from . import expsums, kernels, lfun, petersson, verify as verify_mod

FORMATS = ("json", "csv", "human")


def parse_matrix(text: str) -> IntMat2:
    try:
        rows = text.split(";")
        if len(rows) != 2:
            raise ValueError
        (a, b), (c, d) = ([int(x) for x in r.split(",")] for r in rows)
        return IntMat2(a, b, c, d)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed matrix literal {text!r} (expected 'a,b;c,d')")


def parse_form(text: str) -> HalfIntegralForm:
    try:
        t1, t2, t4 = (int(x) for x in text.split(","))
        return HalfIntegralForm(t1, t2, t4)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed form literal {text!r} (expected 't1,t2,t4')")


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"malformed complex literal {text!r}")


def _record(op: str, params: dict, value: complex, terms: int, method: str,
            extra: dict | None = None, tail_bound: float | None = None) -> dict:
    rec = {
        "op": op,
        "params": params,
        "value": {"re": float(value.real), "im": float(value.imag)},
        "terms": int(terms),
        "method": method,
    }
    if tail_bound is not None:
        rec["tail_bound"] = float(tail_bound)
    if extra:
        rec.update(extra)
    return rec


def _emit(rec: dict, fmt: str) -> None:
    if fmt == "json":
        rec = {k: v for k, v in rec.items()
               if k not in ("csv_rows", "exit_status")}
        sys.stdout.write(json.dumps(rec) + "\n")
    elif fmt == "csv":
        rows = rec.get("csv_rows")
        if rows:
            for row in rows:
                sys.stdout.write(",".join(str(x) for x in row) + "\n")
        else:
            sys.stdout.write(
                f"{rec['op']},{rec['value']['re']},{rec['value']['im']},"
                f"{rec['terms']},{rec['method']}\n")
    else:
        val = rec["value"]
        sys.stdout.write(
            f"{rec['op']}: {val['re']:+.12g}{val['im']:+.12g}i  "
            f"terms={rec['terms']} method={rec['method']}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="siegelsums",
        description="Symplectic Kloosterman sums, Bessel kernels, and "
                    "spectral-identity verification.")
    ap.add_argument("--format", choices=FORMATS,
                    default=os.environ.get("SIEGELSUMS_FORMAT", "json"),
                    help="output format (env SIEGELSUMS_FORMAT)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("kloosterman", help="K(Q, T; C)")
    p.add_argument("--q", type=parse_form, required=True)
    p.add_argument("--t", type=parse_form, required=True)
    p.add_argument("--c", type=parse_matrix, required=True)

    p = sub.add_parser("salie", help="H^+/-(P, S; c)")
    p.add_argument("--p", type=parse_form, required=True)
    p.add_argument("--s", type=parse_form, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--sign", choices=("+", "-"), default="+")

    p = sub.add_parser("gauss", help="sum_x e((a x^2 + b x)/c)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)

    p = sub.add_parser("count", help="congruence solution counter")
    for flag in ("--n", "--c1", "--c2", "--c4", "--h1", "--h2"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)

    p = sub.add_parser("twisted", help="character-twisted Kloosterman average")
    p.add_argument("--c", type=parse_matrix, required=True)
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)

    p = sub.add_parser("besselkernel", help="double-Bessel kernel")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--eig1", type=float, required=True)
    p.add_argument("--eig2", type=float, required=True)

    p = sub.add_parser("weight", help="approximate-functional-equation weight")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--poly", choices=("1-s^2", "(1-s)^2"), default="1-s^2")

    p = sub.add_parser("rcoeff", help="Dirichlet coefficient r_q(n)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lvalue", help="L(s, chi_q)")
    p.add_argument("--s", type=parse_complex, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("hqt", help="assembled Fourier coefficient")
    p.add_argument("--q", type=parse_form, required=True)
    p.add_argument("--t", type=parse_form, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cmax", type=int, default=None)

    p = sub.add_parser("gram", help="spectral Gram matrix")
    p.add_argument("--form", type=parse_form, action="append", default=[],
                   help="repeatable form literal t1,t2,t4")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("mainterm", help="main-term double residue")
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)
    p.add_argument("--bign", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--radius", type=float, default=0.08)
    p.add_argument("--nodes", type=int, default=128)
    p.add_argument("--poly", choices=("1-s^2", "(1-s)^2"), default="(1-s)^2")

    p = sub.add_parser("fit", help="polynomial fit of the residue in log N")
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ns", type=str, default="100,1000,10000,100000",
                   help="comma-separated sample levels")
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("verify", help="run module property suites")
    p.add_argument("--module", default="all",
                   choices=("matcore", "sp4", "expsums", "kernels", "lfun",
                            "petersson", "all"))
    return ap


def _run_command(args) -> dict:
    if args.cmd == "kloosterman":
        sv = expsums.kloosterman(args.q, args.t, args.c)
        return _record("kloosterman",
                       {"q": list(args.q.__dict__.values()),
                        "t": list(args.t.__dict__.values()),
                        "c": list(args.c.entries())},
                       sv.value, sv.terms, sv.method)
    if args.cmd == "salie":
        sign = 1 if args.sign == "+" else -1
        sv = expsums.salie(args.p, args.s, args.c, sign)
        return _record("salie",
                       {"p": list(args.p.__dict__.values()),
                        "s": list(args.s.__dict__.values()),
                        "c": args.c, "sign": args.sign},
                       sv.value, sv.terms, sv.method)
    if args.cmd == "gauss":
        sv = expsums.gauss_sum(args.a, args.b, args.c)
        return _record("gauss", {"a": args.a, "b": args.b, "c": args.c},
                       sv.value, sv.terms, sv.method)
    if args.cmd == "count":
        n = expsums.congruence_count(args.n, args.c1, args.c2, args.c4,
                                     args.h1, args.h2, args.a, args.b)
        return _record("count",
                       {"n": args.n, "c1": args.c1, "c2": args.c2,
                        "c4": args.c4, "h1": args.h1, "h2": args.h2,
                        "a": args.a, "b": args.b},
                       complex(n), args.n ** 3, "brute")
    if args.cmd == "twisted":
        sv = expsums.twisted_average(args.c, args.q1, args.q2)
        return _record("twisted",
                       {"c": list(args.c.entries()), "q1": args.q1,
                        "q2": args.q2},
                       sv.value, sv.terms, sv.method)
    if args.cmd == "besselkernel":
        v = kernels.script_j(args.ell, kernels.KernelArg(args.eig1, args.eig2))
        return _record("besselkernel",
                       {"ell": args.ell, "eig1": args.eig1, "eig2": args.eig2},
                       complex(v), 0, "quadrature")
    if args.cmd == "weight":
        v = kernels.weight_w(args.x, args.k, poly=args.poly)
        return _record("weight", {"x": args.x, "k": args.k, "poly": args.poly},
                       complex(v), 0, "contour")
    if args.cmd == "rcoeff":
        v = lfun.r_coeff(args.q, args.n)
        return _record("rcoeff", {"q": args.q, "n": args.n},
                       complex(v), 0, "divisor-sum")
    if args.cmd == "lvalue":
        lv = lfun.dirichlet_l(args.s, args.q)
        return _record("lvalue",
                       {"s": [args.s.real, args.s.imag], "q": args.q},
                       lv.value, 0, lv.method)
    if args.cmd == "hqt":
        print(f"# assembling coefficient at level {args.n}", file=sys.stderr)
        params = petersson.SpectralParams(k=args.k, level=args.n,
                                          rank1_cutoff=args.cmax)
        h = petersson.h_fourier(args.q, args.t, params)
        return _record("hqt",
                       {"q": list(args.q.__dict__.values()),
                        "t": list(args.t.__dict__.values()),
                        "n": args.n, "k": args.k, "cmax": args.cmax},
                       h.total, 0, "assembled",
                       extra={"diagonal": [h.diagonal.real, h.diagonal.imag],
                              "rank1": [h.rank1.real, h.rank1.imag],
                              "rank2": [h.rank2.real, h.rank2.imag]},
                       tail_bound=h.tail_bound)
    if args.cmd == "gram":
        if not args.form:
            return _record("gram", {"forms": [], "n": args.n, "k": args.k},
                           0j, 0, "assembled",
                           extra={"matrix": [], "hermitian_defect": 0.0,
                                  "min_eigenvalue": 0.0})
        print(f"# assembling {len(args.form)}x{len(args.form)} Gram matrix",
              file=sys.stderr)
        params = petersson.SpectralParams(k=args.k, level=args.n)
        res = petersson.spectral_gram(list(args.form), params)
        mat = [[[z.real, z.imag] for z in row] for row in res.matrix]
        return _record("gram",
                       {"forms": [list(f.__dict__.values()) for f in args.form],
                        "n": args.n, "k": args.k},
                       complex(res.min_eigenvalue), len(args.form) ** 2,
                       "assembled",
                       extra={"matrix": mat,
                              "hermitian_defect": res.hermitian_defect,
                              "min_eigenvalue": res.min_eigenvalue,
                              "tail_budget": res.tail_budget.tolist()})
    if args.cmd == "mainterm":
        rep = petersson.main_term_residue(args.q1, args.q2, args.bign, args.k,
                                          radius=args.radius, nodes=args.nodes,
                                          poly=args.poly)
        return _record("mainterm",
                       {"q1": args.q1, "q2": args.q2, "bign": args.bign,
                        "k": args.k, "radius": args.radius,
                        "nodes": args.nodes, "poly": args.poly},
                       complex(rep.residue), args.nodes ** 2, "contour",
                       extra={"imag_defect": rep.imag_defect})
    if args.cmd == "fit":
        levels = [float(x) for x in args.ns.split(",")]
        fit = petersson.leading_coeff_fit(args.q1, args.q2, args.k,
                                          levels=levels, degree=args.degree)
        rows = [["N", "residue"]] + [[nn, rr]
                                     for nn, rr in zip(fit.levels, fit.residues)]
        return _record("fit",
                       {"q1": args.q1, "q2": args.q2, "k": args.k,
                        "ns": args.ns, "degree": fit.degree},
                       complex(fit.leading), len(fit.levels), "polyfit",
                       extra={"coefficients": list(fit.coefficients),
                              "residual": fit.residual,
                              "csv_rows": rows})
    if args.cmd == "verify":
        passed, failed, names = verify_mod.run_suite(args.module)
        rec = _record("verify", {"module": args.module},
                      complex(passed, failed), passed + failed, "suite",
                      extra={"failures": names})
        rec["exit_status"] = 0 if not failed else 1
        return rec
    raise AssertionError(f"unhandled subcommand {args.cmd}")


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        rec = _run_command(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(rec, args.format)
    return int(rec.get("exit_status", 0))


if __name__ == "__main__":
    sys.exit(main())

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
import dataclasses
import json
import math
import re
import sys
import time

from .matcore import HalfIntegralForm, IntMat2
from . import acceptance, expsums, kernels, lfun, petersson

FORMATS = ("json", "csv", "human")
POLYS = ("1-s^2", "(1-s)^2")


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


def parse_float(text: str) -> float:
    """A finite float; nan and inf would print as invalid JSON."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed number {text!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"number {text!r} is not finite")
    return x


def parse_order(text: str) -> float:
    """A Bessel order that ``kernels.script_j`` takes."""
    try:
        return kernels.require_order(parse_float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(parse_float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(parse_float(parts[0]), parse_float(parts[1]))
    raise argparse.ArgumentTypeError(f"malformed complex literal {text!r}")


def parse_levels(text: str) -> str:
    """A comma-separated list of finite numbers, kept as written so that
    the record's params echo the literal."""
    for part in text.split(","):
        parse_float(part)
    return text


FORM = {"type": parse_form, "required": True}
MATRIX = {"type": parse_matrix, "required": True}
INT = {"type": int, "required": True}
ONE = {"type": int, "default": 1}
FLOAT = {"type": parse_float, "required": True}


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _exact(sv) -> tuple:
    """Handler result for an exact sum (an ``expsums.SumValue``)."""
    return sv.value, sv.terms, sv.method, {}


def _hqt(a):
    params = petersson.SpectralParams(k=a.k, level=a.n, rank1_cutoff=a.cmax)
    print(f"# assembling coefficient at level {a.n}", file=sys.stderr)
    h = petersson.h_fourier(a.q, a.t, params)
    return h.total, 0, "assembled", {
        "tail_bound": float(h.tail_bound), "diagonal": _pair(h.diagonal),
        "rank1": _pair(h.rank1), "rank2": _pair(h.rank2)}


def _gram(a):
    params = petersson.SpectralParams(k=a.k, level=a.n)
    m = len(a.forms)
    print(f"# assembling {m}x{m} Gram matrix", file=sys.stderr)
    res = petersson.spectral_gram(a.forms, params)
    return res.min_eigenvalue, m * m, "assembled", {
        "matrix": [[_pair(z) for z in row] for row in res.matrix],
        "hermitian_defect": res.hermitian_defect,
        "min_eigenvalue": res.min_eigenvalue,
        "tail_budget": res.tail_budget.tolist()}


def _tail(a):
    params = petersson.SpectralParams(k=a.k, level=a.n, beta=a.beta)
    rep = petersson.tail_diagnostic(a.m1, a.m2, params, a.shell_width)
    return rep.observed_tail, rep.shell_size, "shell", {
        "beta": params.beta, "m_bound": params.m_bound,
        "predicted_exponent": rep.predicted_exponent,
        "predicted_envelope": rep.predicted_envelope}


def _mainterm(a):
    rep = petersson.main_term_residue(a.q1, a.q2, a.bign, a.k, poly=a.poly)
    # terms: the points of the three Taylor circles
    return rep.residue, 3 * rep.nodes, "taylor", {
        "imag_defect": rep.imag_defect}


def _fit(a):
    fit = petersson.leading_coeff_fit(
        a.q1, a.q2, a.k, levels=[float(x) for x in a.ns.split(",")],
        degree=a.degree)
    a.degree = fit.degree  # params report the degree actually fitted
    rows = [["N", "residue"]] + [[n, r]
                                 for n, r in zip(fit.levels, fit.residues)]
    return fit.leading, len(fit.levels), "polyfit", {
        "coefficients": list(fit.coefficients), "residual": fit.residual,
        "csv_rows": rows}


def _verify(a):
    """Every acceptance criterion once, in order, one PASS or FAIL line each
    on stderr; a criterion that raises counts as failed."""
    failures = []
    for number, criterion in enumerate(acceptance.CRITERIA, 1):
        t0 = time.perf_counter()
        try:
            rec = criterion()
            line, ok = f"criterion {number}: {rec['name']}", rec["pass"]
        except Exception as exc:  # noqa: BLE001 - report any criterion failure
            line, ok = f"criterion {number}: {exc!r}", False
        print(f"{'PASS' if ok else 'FAIL'} {line} "
              f"({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
        if not ok:
            failures.append(line)
    n = len(acceptance.CRITERIA)
    return complex(n - len(failures), len(failures)), n, "suite", {
        "failures": failures, "exit_status": 1 if failures else 0}


# Each subcommand once: name -> (help, {"x": keywords of the flag --x},
# handler returning (value, terms, method, extras) from the parsed args)
COMMANDS = {
    "kloosterman": (
        "K(Q, T; C)", {"q": FORM, "t": FORM, "c": MATRIX},
        lambda a: _exact(expsums.kloosterman(a.q, a.t, a.c))),
    "salie": (
        "H^+(P, S; c); H^-(P, S; c) is --s s1,-s2,s4",
        {"p": FORM, "s": FORM, "c": INT},
        lambda a: _exact(expsums.salie(a.p, a.s, a.c))),
    "gauss": (
        "sum_x e((a x^2 + b x)/c)", {"a": INT, "b": INT, "c": INT},
        lambda a: _exact(expsums.gauss_sum(a.a, a.b, a.c))),
    "count": (
        "congruence solution counter",
        {"n": INT, "c1": INT, "c2": INT, "c4": INT, "h1": INT, "h2": INT,
         "a": ONE, "b": ONE},
        lambda a: (expsums.congruence_count(a.n, a.c1, a.c2, a.c4, a.h1, a.h2,
                                            a.a, a.b), a.n ** 3, "brute", {})),
    "twisted": (
        "character-twisted Kloosterman average",
        {"c": MATRIX, "q1": INT, "q2": INT},
        lambda a: _exact(expsums.twisted_average(a.c, a.q1, a.q2))),
    "besselkernel": (
        "double-Bessel kernel",
        {"ell": {"type": parse_order, "required": True}, "eig1": FLOAT,
         "eig2": FLOAT},
        lambda a: (kernels.script_j(a.ell, kernels.KernelArg(a.eig1, a.eig2)),
                   0, "quadrature", {})),
    "weight": (
        "approximate-functional-equation weight",
        {"x": FLOAT, "k": INT, "poly": {"choices": POLYS, "default": "1-s^2"}},
        lambda a: (kernels.weight_w(a.x, a.k, poly=a.poly), 0, "contour", {})),
    "rcoeff": (
        "Dirichlet coefficient r_q(n)", {"q": INT, "n": INT},
        lambda a: (lfun.r_coeff(a.q, a.n), 0, "divisor-sum", {})),
    "lvalue": (
        "L(s, chi_q)",
        {"s": {"type": parse_complex, "required": True}, "q": INT},
        lambda a: (lfun.dirichlet_l(a.s, a.q), 0, "euler-maclaurin", {})),
    "hqt": (
        "assembled Fourier coefficient",
        {"q": FORM, "t": FORM, "n": INT, "k": INT,
         "cmax": {"type": int, "default": None}}, _hqt),
    "gram": (
        "spectral Gram matrix",
        {"form": {"type": parse_form, "action": "append", "default": [],
                  "dest": "forms", "metavar": "FORM",
                  "help": "repeatable form literal t1,t2,t4"},
         "n": INT, "k": INT}, _gram),
    "tail": (
        "rank-2 tail on the shell just outside the box",
        # a beta that is not positive and finite exits 1 from SpectralParams
        {"n": INT, "k": INT, "m1": ONE, "m2": ONE,
         "beta": {"type": float, "default": None}, "shell-width": ONE},
        _tail),
    "mainterm": (
        "main-term double residue",
        {"q1": INT, "q2": INT, "bign": FLOAT, "k": INT,
         "poly": {"choices": POLYS, "default": "(1-s)^2"}}, _mainterm),
    "fit": (
        "polynomial fit of the residue in log N",
        {"q1": INT, "q2": INT, "k": INT,
         "ns": {"type": parse_levels, "default": "100,1000,10000,100000",
                "help": "comma-separated sample levels"},
         "degree": {"type": int, "default": None}}, _fit),
    "verify": ("run the acceptance battery", {}, _verify),
}


def _plain(v):
    """A parsed flag value as JSON: forms and matrices as entry lists."""
    if dataclasses.is_dataclass(v):
        return list(dataclasses.astuple(v))
    if isinstance(v, complex):
        return _pair(v)
    if isinstance(v, list):
        return [_plain(x) for x in v]
    return v


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
    ap.add_argument("--format", choices=FORMATS, default="json",
                    help="output format")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # a word such as -1,0,2 is a value; argparse before Python 3.13
        # takes only plain negative numbers for values
        p._negative_number_matcher = re.compile(r"-\.?\d")
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        value, terms, method, extras = COMMANDS[args.cmd][2](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    value = complex(value)
    rec = {"op": args.cmd,
           "params": {k: _plain(v) for k, v in vars(args).items()
                      if k not in ("format", "cmd")},
           "value": {"re": float(value.real), "im": float(value.imag)},
           "terms": int(terms), "method": method, **extras}
    _emit(rec, args.format)
    return int(rec.get("exit_status", 0))


if __name__ == "__main__":
    sys.exit(main())

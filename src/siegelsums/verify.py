"""The ``verify`` subcommand: acceptance criteria selected per module.

Every invariant, and its tolerance, is written once, in :mod:`acceptance`.
Each module maps to the criteria that exercise it, and a module passes when
none of them raises or returns ``pass: False``.  Criterion 6 (about 1 s
of Gauss- and Salie-envelope scans) is left to ``scripts/run_acceptance.py``
and the pytest suite.
"""

from __future__ import annotations

from . import acceptance

SUITES = {
    "matcore": (3, 4, 5),
    "sp4": (1, 2, 3),
    "expsums": (1, 2, 3, 4, 5),
    "kernels": (7,),
    "lfun": (8,),
    "petersson": (8, 9),
}


def _run_criterion(number: int) -> str | None:
    """None if criterion ``number`` passes, else a failure line naming it."""
    try:
        rec = acceptance.CRITERIA[number - 1]()
    except Exception as exc:  # noqa: BLE001 - report any criterion failure
        return f"criterion {number}: {exc!r}"
    return None if rec["pass"] else f"criterion {number}: {rec['name']} failed"


def run_suite(module: str) -> tuple[int, int, list[str]]:
    """Run one module's criteria (or all); returns (passed, failed, failures).

    Counts are per module; a criterion shared by several modules runs once.
    """
    names = list(SUITES) if module == "all" else [module]
    outcomes: dict[int, str | None] = {}
    passed, failed, failures = 0, 0, []
    for name in names:
        for number in SUITES[name]:
            if number not in outcomes:
                outcomes[number] = _run_criterion(number)
        bad = [outcomes[n] for n in SUITES[name] if outcomes[n] is not None]
        if bad:
            failed += 1
            failures.extend(f"{name}: {line}" for line in bad)
        else:
            passed += 1
    return passed, failed, failures

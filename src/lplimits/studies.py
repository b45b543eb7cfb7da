"""Convergence sweeps over family sizes and 1/n limit extrapolation."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import families
from .families import LIMIT_TARGETS  # noqa: F401  (studies.LIMIT_TARGETS)
from .lp_core import CERT_TOL, LpInputError, _as_int, certify, solve

CSV_HEADER = "family,n,value,status,ms"


class SweepError(RuntimeError):
    """A sweep aborted on a non-optimal solve; carries the offending size."""

    def __init__(self, kind, size, status):
        super().__init__(f"{kind} sweep aborted at n={size}: status {status}")
        self.size = size
        self.status = status


@dataclass(frozen=True)
class SweepRow:
    n: int
    value: float
    status: str
    ms: float


@dataclass
class SweepTable:
    family: str
    rows: list
    limit_target: float

    @property
    def sizes(self):
        return np.array([r.n for r in self.rows])

    @property
    def values(self):
        return np.array([r.value for r in self.rows])


@dataclass(frozen=True)
class LimitFit:
    extrapolated_limit: float
    fit_constant: float
    error_bar: float        # max fit residual over the fitted rows
    target_gap: float       # |extrapolated - limit_target|


def _sweep_entry(family, n, certificates) -> SweepRow:
    t0 = time.perf_counter()
    if n > families.SIMPLEX_SIZE_CAP:
        value, status = family.oracle(n), "optimal"
    else:
        lp = families.FamilySpec(family.kind, n).build()
        sol = solve(lp)
        if sol.status != "optimal":
            raise SweepError(family.kind, n, sol.status)
        if certificates and not certify(lp, sol, CERT_TOL).passed:
            raise SweepError(family.kind, n, "certificate_failed")
        value, status = sol.objective_value, sol.status
        if abs(value - family.oracle(n)) > 1e-9:
            raise SweepError(family.kind, n, "oracle_mismatch")
    ms = (time.perf_counter() - t0) * 1e3
    return SweepRow(n=n, value=value, status=status, ms=ms)


def sweep_family(kind: str, sizes, certificates: bool = False) -> SweepTable:
    """One solve (or closed-form oracle evaluation) per size, ascending.

    Sizes beyond the simplex cap, up to ORACLE_SIZE_CAP, use the family's
    closed-form oracle; sizes inside the cap are solved by simplex and
    cross-checked against it to 1e-9.  Any non-optimal solve aborts the
    sweep.  Sizes must be positive and distinct.
    """
    if not isinstance(kind, str) or kind not in families.FAMILIES:
        raise LpInputError(f"unknown family kind {kind!r}")
    if isinstance(sizes, (str, bytes)):   # iterating text gives its characters
        raise LpInputError(f"sizes must be a sequence of integers, got {sizes!r}")
    try:
        sizes = sorted(_as_int(n, "sweep size") for n in sizes)
    except TypeError:
        raise LpInputError(f"sizes must be a sequence, got {sizes!r}") from None
    if not sizes or sizes[0] < 1:
        raise LpInputError("sizes must be positive")
    if len(set(sizes)) < len(sizes):
        raise LpInputError(f"sizes must not repeat, got {sizes}")
    family = families.FAMILIES[kind]
    rows = [_sweep_entry(family, n, certificates) for n in sizes]
    return SweepTable(family=kind, rows=rows, limit_target=family.limit)


def limit_estimate(table: SweepTable) -> LimitFit:
    """Least-squares fit of value(n) ~ L + C/n over the largest half of the
    swept sizes; the error bar is the max residual of the fit."""
    if not isinstance(table, SweepTable):
        raise LpInputError(f"table must be a SweepTable, got {type(table).__name__}")
    if len(table.rows) < 3:
        raise LpInputError("limit extrapolation needs at least 3 rows")
    ns = table.sizes
    vals = table.values
    keep = max(2, (len(ns) + 1) // 2)   # largest half, at least 2 rows
    ns_f, vals_f = ns[len(ns) - keep:], vals[len(ns) - keep:]
    design = np.column_stack([np.ones(ns_f.size), 1.0 / ns_f])
    (L, C), *_ = np.linalg.lstsq(design, vals_f, rcond=None)
    resid = float(np.max(np.abs(design @ np.array([L, C]) - vals_f)))
    return LimitFit(extrapolated_limit=float(L), fit_constant=float(C),
                    error_bar=resid, target_gap=abs(float(L) - table.limit_target))


def write_sweep_csv(table: SweepTable, path) -> None:
    """Frozen column schema: family,n,value,status,ms."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in table.rows:
            fh.write(f"{table.family},{r.n},{float(r.value)!r},{r.status},{r.ms:.3f}\n")

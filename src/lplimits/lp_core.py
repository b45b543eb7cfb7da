"""Dense LPs, a bounded-variable tableau simplex, and duality certificates.

The solver is a primal simplex on the bounded-variable standard form: every
structural variable carries finite lower/upper bounds, nonbasic variables sit
at one of their bounds, and a ratio test allows bound flips in addition to
basis exchanges.  The entering variable has the most negative reduced cost
(Dantzig's rule), ties going to the highest index, except after a degenerate
basis exchange, where it has the lowest improving index (Bland's rule); the
leaving variable is chosen by Bland's rule.  Every solve is deterministic,
and none can cycle: a cycle consists only of degenerate steps, so each of its
steps would be a Bland step, whichever way Dantzig's ties go.

Dantzig's ties go to the highest index for the toy family's sake.  At its
start corner x = 1 every reduced cost ties.  The lowest index, x_1, would
enter against its tight row x_1 >= x_2: a degenerate exchange, which a Bland
step then follows, so toy took 2n - 2 pivots.  x_n enters first instead,
and toy takes n.

No LP here has an improving ray: every structural bound is finite, and a
slack moves only when the structurals do (``_Tableau.run`` has the argument).
So ``solve`` ends ``optimal``, ``infeasible`` or ``iteration_limit``, each
reported by its one ``return tab.solution(status)``.

The working tableau is condensed (Tucker's condensed tableau; the dictionary
of Chvatal, *Linear Programming*, 1983, ch. 2): a dense m x (N - m) array
with one column, or slot, per nonbasic variable, updated in place.  The m
basic columns of the full m x N tableau are unit vectors that only restate
the basis, so they are not stored; on toy:512 they were 1023 of its 1535
columns, and the array fell from 12.56 to 4.19 MB.  At a basis exchange the
entering variable's slot passes to the leaving one, and the update writes
that column's full-tableau values; the other basic columns stay unit
vectors.  The update touches only the rows where the pivot column is
nonzero and the slots where the pivot row is nonzero, as contiguous slice
blocks: each run of such rows times each run of such slots, with runs at
most ``_BLOCK_GAP`` indices apart merged into one.  On the family LPs at
n <= 512 that is one plain slice update a pivot, at most two on toy, far
cheaper than a full rank-one update, and each value (up to the sign of a
zero) and pivot choice is the same: every entry left out, or merged in
across a gap, has only a product with a zero factor subtracted.

On small LPs a pivot costs more in calls than in arithmetic: over the
secretary LPs for n = 1..200 a pivot's update averages under 4,000 entries.
So the pivot loop calls only ufuncs (``np.maximum.reduce`` included),
ndarray methods (``argmin``, ``nonzero``) and ``np.where``, all of which go
straight to numpy's C code.  numpy's Python-level helpers (``np.outer``,
``np.diff``, ``np.flatnonzero``, ``np.argmin``, ``ndarray.max(initial=)``)
each add microseconds of Python per call, two to five calls a pivot.  Each
replacement computes the same values in the same order.

On large LPs a pivot costs more in copies than in arithmetic.  An update
block ``T[a:b, c0:c1]`` is a strided 2-D view, so numpy's ufuncs do not take
their contiguous fast path on it: they copy the operands through the ufunc
buffer, 8192 elements by default.  On toy:512, some 88,000 entries a pivot,
the update takes 2.9 ns per entry under that buffer, six times the 0.49 ns
of a subtract on a contiguous (172, 512) array, and 1.1 ns under the
16-element one (medians of 6 and 30 solves, on the padded condensed
tableau below).  On a (172, 257) block of a 512 x 1024 array the
subtract took 68 us under the default buffer and 36 us under a 16-element
one, against 18 us on a contiguous array, and the whole update 116 and
65 us (numpy 2.4, 2 vCPUs).  So ``solve`` runs the pivot loop under
``_UFUNC_BUFSIZE`` and gives the caller its own size back on every exit;
toy:512's update took 212 to 286 us a pivot under the default buffer and
110 to 121 us under this one (four alternating runs each, on the m x N
tableau).  The buffer decides only how numpy walks the operands, not which
values it computes, so every value is the same.  It is set for the simplex
alone: under it, ``run_ranking`` ran 13 % slower on one thread.

Each row of ``T`` is padded by ``_ROW_PAD`` floats, one 64-byte cache line,
past its N - m slots: ``T`` is the m x (N - m) view of an m x (N - m + 8)
array.  Without the pad, an n = 512 family's 512 slots put its rows exactly
4096 bytes apart, each starting at the same offset in its 4 KB page.  A
column ``T[:, p]`` then maps to one set of the 12-way, 64-set L1 and to at
most 32 of the L2's 2048 16-way sets, 512 lines, while toy:512's pivot
column has 1023 rows, so the walks down the pivot column and the update
blocks evict their own lines (the self-interference of power-of-two leading
dimensions; Lam, Rothberg and Wolf, ASPLOS 1991).  With the pad, rows are
4160 bytes apart and consecutive rows fall in consecutive sets.  The pad is
always there, at every size, so no branch chooses it; it costs m x 64 bytes
(65 KB on toy:512) and changes no value, as numpy and BLAS read the rows
through their stride.  In one process, solves interleaved with the unpadded
tableau's (median of 40 each, 2 vCPUs), toy:512 took 70.3 ms against 84.2,
balance:512 38.9 against 44.5, ranking:512 38.8 against 43.6 and
secretary:512 23.2 against 25.4; at n = 256 the pad saved 0.4 to 1.7 %, and
at n = 128, whose rows are 1 KB apart, nothing.  Pads of 16 and 64 floats
did no better than 8.  At n = 1024 and 2048, where ``T`` is 4 to 32 times
the L2, no kind got faster beyond its runs' spread, and toy:1024 leaned 2 to
6 % slower, faster in 27 of 80 interleaved solves.

The final re-solve builds no m x m matrix.  Every row has a unit column,
its slack or its artificial, and in the full tableau each pivot keeps those
columns equal to B^{-1} times themselves, so at an optimum they hold the
basis inverse B^{-1}: a nonbasic one is its slot of ``T``, and a basic one
is the unit vector of its row.  ``_Tableau.solution`` re-solves the basic
values and the duals through them, each with one step of iterative
refinement against the LP's own rows (Wilkinson; Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 12): O(m (N - m)) work, where an LU
of the basis matrix and its transpose is O(m^3).  On toy:512 (m = 1023) the
re-solve took 1.8 to 2.4 ms, and the LU 38 to 57 ms (best of 5, three runs
each, 2 vCPUs, on the m x N tableau).  So no m x N array is ever built and
the tableau is never copied, and a solve's peak memory is the tableau (with
one update block's temporary) plus the LP's own rows.  The refined
answer is returned whatever its residuals: on a badly scaled LP the updated
inverse can drift too far for one step to mend, and ``certify`` judges that
answer as it judges any other.

Two vectors carry all the per-row and per-column state.  The row signs
``lp.sign`` (+1 for ``<=``, -1 for ``>=``, 0 for ``=``) give every row
residual, dual sign check, slack column and starting basis.  ``dirn`` (+1 at
the lower bound, -1 at the upper, 0 when basic or of zero span) gives the
entering test and the nonbasic values.  Neither special-cases m = 0.

Row residuals and certificates read an LP's matrix only through its two
products, ``lp.matvec(x)`` (``rows @ x``) and ``lp.rmatvec(y)``
(``rows.T @ y``).  So ``check_feasibility`` and ``certify`` also take a
family's ``FamilyLp``, which gives both from prefix sums and has no rows.
``solve`` takes one ``matvec`` per start corner, and its final re-solve
two ``matvec`` and one ``rmatvec``: the right-hand side, then one
refinement step for each of x and y.  ``certify`` takes one of each.

Every array input of the package is read by ``_as_floats``, which refuses
one that is not numeric (text included) or not finite; each caller checks
its shape.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Tolerances: coefficients in this package are O(1) and mildly conditioned.
FEAS_TOL = 1e-9       # absolute primal feasibility
PIVOT_TOL = 1e-10     # a ratio-test entry is eligible above PIVOT_TOL times
                      # min(1, largest |entry| of its column)
REDCOST_TOL = 1e-9    # reduced-cost threshold for entering candidates
CERT_TOL = 1e-8       # relative duality-gap tolerance for certificates

MINIMIZE = "minimize"
MAXIMIZE = "maximize"
LE, GE, EQ = "<=", ">=", "="

# the kinds of families.FAMILIES, one of which a family_tag names; held here,
# as families imports this module
FAMILY_KINDS = ("toy", "balance", "ranking", "secretary")

_BLOCK_GAP = 32   # index runs at most this far apart share one update block
_ROW_PAD = 8      # floats, one 64-byte cache line, past each tableau row
_UFUNC_BUFSIZE = 16   # the pivot loop's ufunc buffer: 16..512 update strided
                      # blocks alike, at about half the default 8192's cost


class LpInputError(ValueError):
    """Rejected LP input (bad shapes, non-finite entries, bad sizes)."""


def _as_int(value, name: str) -> int:
    """value as an int: an integer-valued number or the decimal text of one;
    LpInputError otherwise, so 2.7 is refused rather than truncated, and a
    bool (Python's or numpy's) rather than read as 0 or 1."""
    is_bool = isinstance(value, bool) or getattr(value, "dtype", None) == bool
    try:
        if not is_bool and (isinstance(value, str) or int(value) == value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise LpInputError(f"{name} must be an integer, got {value!r}")


def _as_float(value, name: str) -> float:
    """value as a float: any real number, numpy's included; LpInputError
    otherwise, so text such as "0.5" is refused rather than parsed."""
    if isinstance(value, numbers.Real):
        return float(value)
    raise LpInputError(f"{name} must be a real number, got {value!r}")


def _as_tol(value) -> float:
    """A tolerance as a float: finite and >= 0; LpInputError otherwise, since
    a NaN or negative tolerance would fail every comparison made with it."""
    tol = _as_float(value, "tol")
    if not 0.0 <= tol < np.inf:
        raise LpInputError(f"tol must be finite and >= 0, got {tol}")
    return tol


def _as_floats(value, name: str) -> np.ndarray:
    """value as a float array of its shape; LpInputError unless all finite
    numbers, so text such as "0.5" is refused rather than parsed."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "SU" or (
                arr.dtype.kind == "O" and any(isinstance(v, (str, bytes))
                                              for v in arr.flat)):
            raise TypeError   # numpy would parse the text
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise LpInputError(f"{name} must be numeric") from None
    if not np.isfinite(arr).all():
        raise LpInputError(f"non-finite entries in {name}")
    return arr


_SIGN = {LE: 1.0, GE: -1.0, EQ: 0.0}
_RELATION = {v: k for k, v in _SIGN.items()}


@dataclass(frozen=True, kw_only=True)
class LpHeader:
    """Every field of a finite LP but its matrix A, checked once when made:

    minimize/maximize  objective @ x
    subject to         (A x)[i]  <= if sign[i] = +1, >= if -1, = if 0  rhs[i]
                       var_lower <= x <= var_upper   (all bounds finite)

    A subclass gives A x and A.T y as ``matvec`` and ``rmatvec``.
    """

    sense: str
    objective: np.ndarray
    sign: np.ndarray
    rhs: np.ndarray
    var_lower: np.ndarray
    var_upper: np.ndarray
    family_tag: str | None = None

    def __post_init__(self):
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise LpInputError(f"unknown sense {self.sense!r}")
        for name in ("objective", "sign", "rhs", "var_lower", "var_upper"):
            arr = _as_floats(getattr(self, name), name)
            if arr.ndim > 1:
                raise LpInputError(f"{name} must be a vector, got shape {arr.shape}")
            object.__setattr__(self, name, np.atleast_1d(arr))
        if self.n_vars < 1:
            raise LpInputError("LP must have at least one variable")
        if self.sign.size != self.rhs.size:
            raise LpInputError("sign/rhs length must match")
        if not np.array_equal(np.sign(self.sign), self.sign):  # only +1, -1, 0 pass
            raise LpInputError("sign entries must be +1 (<=), -1 (>=) or 0 (=)")
        if not self.var_lower.size == self.var_upper.size == self.n_vars:
            raise LpInputError("bound vectors must have length n_vars")
        if (self.var_lower > self.var_upper).any():
            raise LpInputError("var_lower must not exceed var_upper")
        if self.family_tag is not None and self.family_tag not in FAMILY_KINDS:
            raise LpInputError(f"unknown family_tag {self.family_tag!r}")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    @property
    def relations(self) -> tuple:
        """The row relations as text (``<=``, ``>=`` or ``=``), from ``sign``."""
        return tuple(_RELATION[s] for s in self.sign.tolist())


@dataclass(frozen=True, kw_only=True)
class DenseLp(LpHeader):
    """A finite LP in explicit row form: the header and its m x n ``rows``."""

    rows: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        m, n = self.n_rows, self.n_vars
        rows = _as_floats(self.rows, "rows")
        if rows.shape != (m, n):
            raise LpInputError(f"rows must be (m, {n}) with m = {m}, got {rows.shape}")
        object.__setattr__(self, "rows", rows)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """rows @ x"""
        return self.rows @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """rows.T @ y"""
        return self.rows.T @ y


@dataclass(frozen=True)
class LpSolution:
    status: str                 # optimal | infeasible | iteration_limit
    x: np.ndarray
    objective_value: float
    dual: np.ndarray            # one multiplier per row, caller's sense; 0 unless optimal
    iterations: int


@dataclass(frozen=True)
class FeasibilityReport:
    max_violation: float        # max over row residuals and bound residuals
    worst_row: int              # 0-based index of worst row residual, -1 if no rows
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tol


@dataclass(frozen=True)
class CertificateReport:
    primal_feasibility: float
    dual_feasibility: float
    complementarity: float
    gap: float
    objective_value: float
    dual_objective: float
    passed: bool


def _row_residuals(lp: LpHeader, r: np.ndarray) -> np.ndarray:
    """Amount by which each row relation is violated, from r = A x - b."""
    res = np.maximum(lp.sign * r, 0.0)
    eq = lp.sign == 0
    res[eq] = np.abs(r[eq])
    return res


def check_feasibility(lp: LpHeader, x, tol: float = FEAS_TOL) -> FeasibilityReport:
    """Exact residual report for a candidate point.

    Row residual is the amount by which the row relation is violated (0 when
    satisfied); bound residual likewise.  A zero report means x is feasible.
    Non-finite x is rejected: it has no meaningful residual; so is a tol
    that is not finite and >= 0.
    """
    return _feasibility(lp, x, _as_tol(tol))[0]


def _feasibility(lp: LpHeader, x, tol: float) -> tuple[FeasibilityReport, np.ndarray]:
    """``check_feasibility``'s report, and the residual r = A x - b it read."""
    x = _as_floats(x, "x")
    if x.shape != (lp.n_vars,):
        raise LpInputError(f"x must have shape ({lp.n_vars},), got {x.shape}")
    r = lp.matvec(x) - lp.rhs
    res = _row_residuals(lp, r)
    worst = int(np.argmax(res)) if lp.n_rows else -1
    row_viol = float(np.max(res, initial=0.0))
    bound_viol = float(max(np.max(lp.var_lower - x, initial=0.0),
                           np.max(x - lp.var_upper, initial=0.0)))
    return FeasibilityReport(max_violation=max(row_viol, bound_viol),
                             worst_row=worst, tol=tol), r


def certify(lp: LpHeader, sol: LpSolution, tol: float = CERT_TOL) -> CertificateReport:
    """Independent optimality certificate from strong duality.

    Recomputes primal feasibility, dual sign feasibility, the complementary
    slackness residual and |primal - dual| objective gap from scratch, from
    one ``lp.matvec`` and one ``lp.rmatvec``; the certificate passes iff all
    are within tol scaled by (1 + |objective|); tol must be finite and >= 0.

    The duals are in the caller's sense: for maximization, binding <= rows
    carry nonnegative multipliers (shadow prices), and symmetrically for
    minimization.  Reduced costs d = c - A^T y split against the box bounds.

    The dual objective and reduced costs are formed from y projected onto
    its sign cone, each wrong-signed multiplier set to 0, so the dual point
    is feasible and its objective a true bound.  A wrong sign within tol
    would otherwise pass: on a badly scaled LP a multiplier of -2.6e-11 on
    a >= row can hide a reduced cost of -6.8 and a gap of 680.  The dual
    feasibility and row complementarity are those of y as given.
    """
    tol = _as_tol(tol)
    if sol.status != "optimal":
        raise LpInputError(f"certificate refused: solution status is {sol.status!r}")
    x, y = sol.x, _as_floats(sol.dual, "dual")
    if y.shape != (lp.n_rows,):
        raise LpInputError(f"dual must have shape ({lp.n_rows},), got {y.shape}")
    feas, r = _feasibility(lp, x, tol)
    primal_obj = float(lp.objective @ x)
    sgn = 1.0 if lp.sense == MINIMIZE else -1.0
    # sign feasibility of row multipliers: internal-min <= rows carry y <= 0,
    # >= rows y >= 0, so sign * y_int must not be positive
    wrong_sign = lp.sign * (sgn * y)
    y_cone = np.where(wrong_sign > 0, 0.0, y)
    d_int = sgn * (lp.objective - lp.rmatvec(y_cone))  # internal-min reduced costs
    pos = np.maximum(d_int, 0.0)
    neg = np.maximum(-d_int, 0.0)
    # internal-min dual objective, mapped back to the caller's sense
    bound_part = float(lp.var_lower @ pos - lp.var_upper @ neg)
    dual_obj = sgn * float(lp.rhs @ (sgn * y_cone)) + sgn * bound_part
    # the outer max turns a -0.0 from an equality row into 0.0
    dual_infeas = max(0.0, float(np.max(wrong_sign, initial=0.0)))
    comp_rows = np.abs(y * r)
    comp_bounds = np.maximum(pos * np.abs(x - lp.var_lower),
                             neg * np.abs(lp.var_upper - x))
    comp = max(float(np.max(comp_rows, initial=0.0)),
               float(np.max(comp_bounds, initial=0.0)))
    gap = abs(primal_obj - dual_obj)
    scale = 1.0 + abs(primal_obj)
    passed = (feas.max_violation <= tol * scale
              and dual_infeas <= tol * scale
              and comp <= tol * scale
              and gap <= tol * scale)
    return CertificateReport(
        primal_feasibility=feas.max_violation,
        dual_feasibility=dual_infeas,
        complementarity=comp,
        gap=gap,
        objective_value=primal_obj,
        dual_objective=dual_obj,
        passed=passed,
    )


def _blocks(idx: np.ndarray) -> list:
    """(start, stop) of each run of the sorted, non-empty index array idx;
    runs whose indices differ by at most _BLOCK_GAP share one block."""
    first, last = int(idx[0]), int(idx[-1]) + 1
    if last - first - idx.size < _BLOCK_GAP:  # too few holes for a split
        return [(first, last)]
    bounds = [first]
    for g in ((idx[1:] - idx[:-1]) > _BLOCK_GAP).nonzero()[0].tolist():
        bounds += (int(idx[g]) + 1, int(idx[g + 1]))
    bounds.append(last)
    return list(zip(bounds[::2], bounds[1::2]))


class _Tableau:
    """Dense condensed tableau for one solve; not reused across solves.

    ``T`` is m x (N - m), one slot per nonbasic variable: ``slot_var[s]`` is
    slot s's variable and ``var_slot[j]`` variable j's slot, -1 when j is
    basic.  It is a view of an array whose rows are ``_ROW_PAD`` floats
    longer, so that its row stride is not a multiple of 4 KB (see the
    module docstring); the pad is never read or written.  ``T`` is the only
    tableau-sized array, and it is never copied: it
    starts as the constraint matrix with the unit columns of the slacks that
    are not basic, its start rows are negated in place, and each pivot
    updates it in place.  The unit columns are remembered by their row and
    sign alone, and at an optimum they, with the basic ones' unit rows, hold
    the basis inverse that ``solution`` re-solves with.  The per-variable
    vectors (``d``, ``dirn``, ``lo``, ``hi``) stay indexed by variable.

    Row i has a slack column (sign +1 or -1, from the row-sign vector) unless
    it is an equality, and an artificial column when the starting corner
    violates it or it is an equality; the artificial, or else the slack, is
    its starting basic variable.
    """

    def __init__(self, lp: DenseLp):
        self.lp = lp
        n, m = lp.n_vars, lp.n_rows
        self.sgn = 1.0 if lp.sense == MINIMIZE else -1.0

        # Choose the all-lower or all-upper starting corner, whichever leaves
        # fewer rows needing an artificial variable (ties prefer lower).
        ax_lo, ax_hi = lp.matvec(lp.var_lower), lp.matvec(lp.var_upper)
        bad_lo = _row_residuals(lp, ax_lo - lp.rhs) > FEAS_TOL
        bad_hi = _row_residuals(lp, ax_hi - lp.rhs) > FEAS_TOL
        at_upper = np.count_nonzero(bad_hi) < np.count_nonzero(bad_lo)
        ax0, bad = (ax_hi, bad_hi) if at_upper else (ax_lo, bad_lo)
        residual = lp.rhs - ax0

        # Equality rows always need a basic artificial (they have no slack),
        # feasible-at-start ones simply carry it at value ~0.
        slack_rows = np.flatnonzero(lp.sign)
        art = bad | (lp.sign == 0)
        art_rows = np.flatnonzero(art)
        n_slack, n_art = slack_rows.size, art_rows.size
        N = n + n_slack + n_art
        self.n, self.m, self.N = n, m, N
        self.n_slack, self.n_art = n_slack, n_art

        # variable n + k is the unit column unit_sign[k] * e_{unit_row[k]}
        self.unit_row = np.concatenate([slack_rows, art_rows])
        self.unit_sign = np.concatenate(
            [lp.sign[slack_rows], np.where(residual[art_rows] >= 0, 1.0, -1.0)])
        # inv_sign[i] times row i's unit column n + inv_col[i], its slack's or
        # else its artificial's, is B^{-1} e_i (see ``solution``)
        self.inv_col = np.empty(m, dtype=int)
        self.inv_col[art_rows] = n_slack + np.arange(n_art)
        self.inv_col[slack_rows] = np.arange(n_slack)
        self.inv_sign = self.unit_sign[self.inv_col]

        basis = np.empty(m, dtype=int)
        basis[slack_rows] = n + np.arange(n_slack)
        basis[art_rows] = n + n_slack + np.arange(n_art)
        xB = np.where(art, np.abs(residual), lp.sign * residual)

        # One slot per nonbasic variable: the structurals, then the slacks
        # of the rows whose artificial is basic.
        slack_k = np.flatnonzero(art[slack_rows])
        slot_var = np.concatenate([np.arange(n), n + slack_k])
        var_slot = np.full(N, -1)
        var_slot[slot_var] = np.arange(slot_var.size)
        w = slot_var.size
        T = np.zeros((m, w + _ROW_PAD))[:, :w]   # rows off a 4 KB stride
        T[:, :n] = lp.rows
        T[slack_rows[slack_k], n + np.arange(slack_k.size)] = self.unit_sign[slack_k]
        # tableau rows = B^{-1} [A | unit columns] with the initial diagonal
        # +-1 basis, at the nonbasic columns
        flip = self.unit_sign[basis - n] < 0
        np.negative(T, out=T, where=flip[:, None])

        dirn = np.ones(N)
        if at_upper:
            dirn[:n] = -1.0
        dirn[basis] = 0.0

        self.T, self.slot_var, self.var_slot = T, slot_var, var_slot
        self.lo = np.concatenate([lp.var_lower, np.zeros(n_slack + n_art)])
        self.hi = np.concatenate([lp.var_upper, np.full(n_slack + n_art, np.inf)])
        self.basis, self.dirn, self.xB = basis, dirn, xB
        self.c_phase2 = np.zeros(N)
        self.c_phase2[:n] = self.sgn * lp.objective
        self.iterations = 0

    def run(self, c: np.ndarray, max_iterations: int) -> str:
        """Primal simplex until optimal for objective c, indexed by variable.

        The entering column has the most negative ``dirn * d`` (Dantzig),
        ties to the highest index, so that toy's x_n enters first (see the
        module docstring); after a degenerate basis exchange (a step of at
        most 1e-12) it is the lowest improving index instead (Bland), which
        is what rules out cycling.  Each call starts with Dantzig, and a
        bound flip, whose step is the positive span, returns to it.
        Leaving-row ties go to the lowest basic index.

        ``dirn * d`` is formed last column first, from reversed views of the
        two, into one buffer made per call, so ``argmin``'s first minimum is
        the highest tied index.  That costs 100 to 150 ns a pivot more than
        a new product in column order, about 0.3 % of a secretary pivot;
        holding ``d`` reversed instead would make its update read the pivot
        row backwards, which costs more than it saves.

        Variables whose bounds coincide (fixed structurals, and artificials
        pinned after phase 1) get ``dirn`` 0 on entry and never enter.  A
        bound flip negates ``dirn[q]``.  A basis exchange sets ``dirn[q]`` to
        0 and the leaving variable's to the bound it stops at.

        A basis exchange on row r hands q's slot p to the leaving variable.
        Its full-tableau column is e_r, so slot p is set to e_r after the
        pivot column is copied, and the pivot row divided by its pivot then
        holds 1 / piv at p, the full tableau's T[r, leaving] / T[r, q]; the
        block update then writes the leaving column's full-tableau values,
        and the reduced costs take ``d[slot_var] -= d[q] * Trow``.

        No step is infinite, as no improving ray exists.  Only slacks and
        artificials have an infinite bound.  Phase 1 minimizes the sum of the
        artificials, which is never below 0.  In phase 2 they are pinned to
        [0, 0], so a ray would raise only slacks while every structural stays
        fixed; but each row's slack is fixed by the structurals.  So when no
        eligible row stops an infinite step, the ``PIVOT_TOL`` filter dropped
        the row that bounds it, and every nonzero row is tested.  If none
        stops it either, ``d[q]`` is rounding error, and q does not enter.

        The loop, ``_blocks`` included, calls only ufuncs, ndarray methods
        and ``np.where``, never numpy's Python-level wrappers such as
        ``np.outer`` or ``np.argmin``: on small LPs a wrapper's own Python
        costs more than the arithmetic it wraps (see the module docstring).
        """
        T, lo, hi = self.T, self.lo, self.hi
        basis, dirn, xB = self.basis, self.dirn, self.xB
        slot_var, var_slot = self.slot_var, self.var_slot
        d = np.zeros(self.N)
        d[slot_var] = c[slot_var] - c[basis] @ T
        span = hi - lo
        dirn[span == 0.0] = 0.0
        # score_rev is dirn * d last column first (see above); score reads it
        # in column order
        dirn_rev, d_rev, last = dirn[::-1], d[::-1], self.N - 1
        score_rev = np.empty(self.N)
        score = score_rev[::-1]
        degenerate = False  # was the last step a degenerate basis exchange?
        while True:
            np.multiply(dirn_rev, d_rev, score_rev)
            # Bland (lowest index) after a degenerate exchange, else Dantzig
            if degenerate:
                q = int((score < -REDCOST_TOL).argmax())
            else:
                q = last - int(score_rev.argmin())
            if not score[q] < -REDCOST_TOL:
                return "optimal"
            if self.iterations >= max_iterations:
                return "iteration_limit"
            direction = dirn[q]
            p = int(var_slot[q])
            col = T[:, p]
            delta = -direction * col  # rate of change of basic values
            t_own = span[q]

            # ratio test over the eligible nonzero rows (or all of them, see
            # above): each stops where its basic variable meets its bound
            rows = delta.nonzero()[0]   # col's nonzero rows, as direction = +-1
            mag = np.abs(delta[rows])
            biggest = np.maximum.reduce(mag, initial=0.0)
            eligible = rows[mag > PIVOT_TOL * min(1.0, biggest)]
            for er in (eligible, rows):
                de, be = delta[er], basis[er]
                stop = np.where(de < 0, lo[be], hi[be])
                limits = np.maximum((stop - xB[er]) / de, 0.0)
                t_rows = float(np.minimum.reduce(limits, initial=np.inf))
                if t_rows < np.inf or t_own < np.inf:
                    break
            else:  # no row stops q (see above)
                d[q] = 0.0
                continue

            self.iterations += 1
            if t_own <= t_rows:
                # bound flip: no basis change, reduced costs unchanged
                xB += delta * t_own
                dirn[q] = -direction
                degenerate = False
                continue
            degenerate = t_rows <= 1e-12
            ties = er[limits <= t_rows + 1e-12]
            r = int(ties[basis[ties].argmin()])  # Bland: lowest leaving index

            xB += delta * t_rows
            leaving = basis[r]
            dirn[leaving] = (1.0 if delta[r] < 0 else -1.0) if span[leaving] else 0.0
            xB[r] = lo[q] + t_rows if direction > 0 else hi[q] - t_rows
            # slot p passes to the leaving variable as e_r (see above)
            piv = col[r]
            row_blocks = _blocks(rows)
            top = row_blocks[0][0]
            # col is a view of T, and slot p lies in the updated columns
            part = col[top:row_blocks[-1][1]].copy()
            col[:] = 0.0
            col[r] = 1.0
            Trow = T[r] / piv
            for c0, c1 in _blocks(Trow.nonzero()[0]):
                seg = Trow[c0:c1]
                for a, b in row_blocks:
                    T[a:b, c0:c1] -= part[a - top:b - top, None] * seg
            T[r] = Trow
            slot_var[p], var_slot[q], var_slot[leaving] = leaving, -1, p
            d[slot_var] -= d[q] * Trow
            basis[r] = q
            dirn[q] = 0.0
            d[q] = 0.0

    def solution(self, status: str) -> LpSolution:
        """The solution at the current basis, reported with ``status``.

        At an optimum the basic values and the duals are re-solved against
        the basis matrix B, the basis columns of [lp.rows | unit columns],
        removing the drift of the in-place updates.  Each pivot has kept the
        full tableau's unit columns equal to B^{-1} times themselves, so they
        hold B^{-1} (see ``inv_col``): a nonbasic one is its slot of ``T``
        and a basic one the unit vector of its row.  So B^{-1} v is ``T @ w``
        over the slots, with v's weights at the unit variables' slots and 0
        at the structurals', plus the weights of the basic unit variables at
        their rows; B^{-T} v reads ``v @ T`` and v the same way.  No m x m or
        m x N matrix is built or factored: xB = B^{-1} r and y = B^{-T} c_B,
        each followed by one step of iterative refinement,
        xB += B^{-1} (r - B xB), whose residual is formed from ``lp.matvec``
        (``lp.rmatvec`` for y) and the basic unit columns.  Only structurals
        enter r, as nonbasic slacks and artificials sit at zero.  The refined
        xB and y are returned as they are; ``certify`` judges them.  Any
        other status keeps the tableau's basic values and zero duals.
        """
        lp, n, basis = self.lp, self.n, self.basis
        z = np.where(self.dirn < 0, self.hi, self.lo)
        y = np.zeros(self.m)
        if status == "optimal":
            z[basis] = 0.0
            r = lp.rhs - lp.matvec(z[:n])
            c_B = self.c_phase2[basis]
            structural = basis < n
            k = np.flatnonzero(~structural)
            u = basis[k] - n
            unit_row, unit_sign = self.unit_row[u], self.unit_sign[u]
            T, slot_var, inv_var = self.T, self.slot_var, n + self.inv_col

            def inv_times(v):       # B^{-1} v
                w = np.zeros(self.N)    # weights by variable, 0 at structurals
                w[inv_var] = self.inv_sign * v
                return T @ w[slot_var] + w[basis]

            def inv_t_times(v):     # B^{-T} v
                g = np.empty(self.N)    # v times each variable's column
                g[slot_var] = v @ T
                g[basis] = v
                return self.inv_sign * g[inv_var]

            def primal_residual(xB):    # r - B xB
                x = np.zeros(n)
                x[basis[structural]] = xB[structural]
                return r - lp.matvec(x) - np.bincount(
                    unit_row, unit_sign * xB[k], minlength=self.m)

            def dual_residual(y):       # c_B - B^T y
                bty = np.empty(self.m)
                bty[structural] = lp.rmatvec(y)[basis[structural]]
                bty[k] = unit_sign * y[unit_row]
                return c_B - bty

            self.xB[:] = inv_times(r)
            self.xB += inv_times(primal_residual(self.xB))
            y = inv_t_times(c_B)
            y += inv_t_times(dual_residual(y))
            y *= self.sgn
        z[basis] = self.xB
        x = z[:n]
        return LpSolution(status=status, x=x, objective_value=float(lp.objective @ x),
                          dual=y, iterations=self.iterations)


def solve(lp: DenseLp, max_iterations: int | None = None) -> LpSolution:
    """Solve a DenseLp; deterministic for identical input.

    Runs phase 1 only when the cheaper of the two bound corners is infeasible.
    Exceeding the iteration cap is reported as status ``iteration_limit``,
    never silently, whether in phase 1 or phase 2; ``max_iterations`` is an
    integer >= 0, checked before the tableau is built, or None for a cap that
    grows with the LP's size.  Every outcome ends in ``_Tableau.solution``.
    ``certify`` reports the feasibility and duality gap of an optimum.

    Both phases run under a ufunc buffer of ``_UFUNC_BUFSIZE`` elements, so
    the strided update blocks cost less to copy (see the module docstring),
    and the caller's size is restored on every exit.  The size
    ``np.setbufsize`` returns restores it, not ``np.errstate``, which
    restores the buffer size only on numpy >= 2.0.
    """
    if not isinstance(lp, DenseLp):   # such as a family's FamilyLp
        raise LpInputError("solve needs a DenseLp, with rows: see FamilySpec.build()")
    if max_iterations is not None:
        max_iterations = _as_int(max_iterations, "max_iterations")
        if max_iterations < 0:
            raise LpInputError(f"max_iterations must be >= 0, got {max_iterations}")
    tab = _Tableau(lp)
    if max_iterations is None:
        max_iterations = 50 * (tab.m + tab.N) + 5000

    status = "optimal"
    caller_bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        if tab.n_art:
            art = slice(tab.n + tab.n_slack, None)
            c1 = np.zeros(tab.N)
            c1[art] = 1.0
            status = tab.run(c1, max_iterations)
            art_level = float(sum(tab.xB[tab.basis >= art.start]))
            if status == "optimal" and art_level > FEAS_TOL * np.abs(lp.rhs).max(initial=1.0):
                status = "infeasible"
            # pin artificials at zero; zero-span variables can never re-enter
            tab.hi[art] = tab.lo[art] = 0.0
        if status == "optimal":
            status = tab.run(tab.c_phase2, max_iterations)
    finally:
        np.setbufsize(caller_bufsize)
    return tab.solution(status)


def dump_lp(lp: DenseLp, path) -> None:
    """Plain-text LP dump.

    Line 1: ``sense n_vars n_rows``; line 2: objective coefficients; then one
    line per row ``coeffs... rel rhs``; finally the lower and upper bound
    lines.
    """
    if not isinstance(lp, DenseLp):   # checked before the file is opened
        raise LpInputError("dump_lp needs a DenseLp, with rows: see FamilySpec.build()")
    with open(path, "w") as fh:
        fh.write(f"{lp.sense} {lp.n_vars} {lp.n_rows}\n")
        fh.write(" ".join(repr(float(v)) for v in lp.objective) + "\n")
        for row, rel, b in zip(lp.rows, lp.relations, lp.rhs):
            coeffs = " ".join(repr(float(v)) for v in row)
            fh.write(f"{coeffs} {rel} {float(b)!r}\n")
        fh.write(" ".join(repr(float(v)) for v in lp.var_lower) + "\n")
        fh.write(" ".join(repr(float(v)) for v in lp.var_upper) + "\n")


def load_lp(path, family_tag: str | None = None) -> DenseLp:
    """Inverse of dump_lp; a truncated or non-numeric dump raises LpInputError."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    try:
        sense, n_s, m_s = lines[0]
        n, m = _as_int(n_s, "n_vars"), _as_int(m_s, "n_rows")
        if n < 1 or m < 0 or len(lines) != m + 4:
            raise ValueError(f"header declares {n} variables and {m} rows, "
                             f"so {m + 4} lines, but the file has {len(lines)}")
        objective = [float(v) for v in lines[1]]
        rows, sign, rhs = [], [], []
        for parts in lines[2:2 + m]:
            if len(parts) != n + 2:
                raise ValueError(f"a row needs {n} coefficients, a relation and "
                                 f"a right-hand side, got {len(parts)} fields")
            if parts[n] not in _SIGN:
                raise ValueError(f"unknown relation {parts[n]!r}")
            rows.append([float(v) for v in parts[:n]])
            sign.append(_SIGN[parts[n]])
            rhs.append(float(parts[n + 1]))
        lo = [float(v) for v in lines[2 + m]]
        hi = [float(v) for v in lines[3 + m]]
    except (IndexError, ValueError) as exc:
        raise LpInputError(f"malformed LP dump {path}: {exc}") from None
    return DenseLp(sense=sense, objective=objective, rows=np.reshape(rows, (m, n)),
                   sign=sign, rhs=rhs, var_lower=lo, var_upper=hi, family_tag=family_tag)

"""The four parameterized LP families and their exact finite-size oracles.

Every family has a closed-form optimum: toy, balance and ranking from running
every row tight, secretary from the best threshold rule.  The exact expected
RANKING matching on the triangular instance, the simulator's reference, is
here too.

Each family's matrix is defined once, by the prefix sums of its ``FamilyLp``:
``build()``'s rows are ``matvec`` applied to the identity, redundant bounds
and monotonicity rows included, so they can be spot-checked entry by entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lp_core import (FAMILY_KINDS, MAXIMIZE, MINIMIZE, DenseLp, LpHeader,
                      LpInputError, _as_int)

INV_E = 1.0 / np.e

# Dense-tableau simplex memory/time budget; the closed-form oracles go far beyond.
# At the cap each family solves and certifies with the condensed m x (N - m)
# tableau, its rows padded by one cache line, measured on a 2-vCPU x86 VM
# (numpy 2.4, OpenBLAS), one build, solve and certify per process, six runs
# each (range of build + solve + certify): toy 3.7-4.2 s (2048 pivots, 168 MB
# peak RSS), balance 2.5-2.7 s (2047 pivots, 111 MB), ranking 2.4-2.7 s (2048
# pivots, 111 MB), secretary 1.7-2.3 s (1295 pivots, 111 MB; 2801 pivots
# under Bland's entering rule alone).  In the same alternating runs the
# unpadded tableau took 3.7-4.0, 2.4-3.5, 2.4-2.8 and 1.7-2.4 s, at 176 MB on
# toy and 111 MB on the others.  At n = 2048 the pad moves no time beyond the
# runs' spread; at n = 1024 toy leans 2-6 % slower with it (see lp_core).
SIMPLEX_SIZE_CAP = 2048
ORACLE_SIZE_CAP = 10_000_000
# ranking_triangular_value is an O(n^2) DP: 0.06 s at n = 4000 and 0.7 s at
# this cap on the VM above
RANKING_DP_CAP = 16_384
_BUILD_BLOCK = 32   # identity columns per matvec in _build; 1/64 of n = 2048
# floats per chunk of the elementwise closed-form loops (256 KB): one chunk
# stays in the 2 MB L2 through every operation on it, so a 10^7-point array
# streams from memory once instead of once per operation
_CHUNK = 1 << 15


@dataclass(frozen=True)
class Family:
    """What one kind of family LP is, from its header to its tight ODE: the
    one place a kind is defined, and each table keyed by kind a view of it.

    The formulas take the size n and i = 1..n (a column, for ``matvec`` of
    an (n, k) block); s_i is x_1 + ... + x_i and r_j is y_j + ... + y_n.
    ``oracle`` looks its function up when called, so a rebinding of the
    module attribute (the benchmark tracer's) is seen.
    """

    kind: str
    sense: str
    sign: float                 # every row's: +1 for <=, -1 for >=
    objective: Callable         # (i, n) -> c
    rhs: Callable               # (i, n) -> b
    matvec: Callable            # (x, s, i, n) -> rows @ x
    rmatvec: Callable           # (y, r, i, n) -> rows.T @ y
    oracle: Callable            # n -> the optimum value, in closed form
    limit: float                # the value's limit in n: 1/e or 1 - 1/e
    g_profile: str              # the tag of its g-profile in variational.PROFILES
    rows: Callable = lambda n: n            # n -> the row count
    x_scale: Callable = lambda i, n: 1.0    # (i, n) -> d: x_i = g(i/n) / d_i
    weight: Callable = np.ones_like         # t -> the weight of g in the objective
    ode: tuple | None = None    # (alpha, beta): the tight ODE y' = alpha + beta t - y
    ode_solution: str | None = None   # the tag of its closed-form solution

    def fields(self, n: int) -> dict:
        """Every field of the size-n LP but its rows: the LP's header."""
        i = np.arange(1, n + 1)
        return dict(sense=self.sense, objective=self.objective(i, n),
                    sign=np.full(self.rows(n), self.sign), rhs=self.rhs(i, n),
                    var_lower=np.zeros(n), var_upper=np.ones(n), family_tag=self.kind)


def _toy_rmatvec(y, r, i, n):   # y_j + r_{j+1}/n, then +y'_j - y'_{j-1}
    out = y[:n] + (r - y[:n]) / n
    out[:-1] += y[n:]
    out[1:] -= y[n:]
    return out


FAMILIES = {f.kind: f for f in (
    Family("toy", MINIMIZE, sign=-1.0, objective=lambda i, n: np.full(n, 1.0 / n),
           rhs=lambda i, n: np.concatenate([np.ones(n), np.zeros(n - 1)]),
           # x_i + s_{i-1}/n, then x_i - x_{i+1}
           matvec=lambda x, s, i, n: np.concatenate([x + (s - x) / n, x[:-1] - x[1:]]),
           rmatvec=_toy_rmatvec, oracle=lambda n: tight_value_toy(n),
           limit=1.0 - INV_E, g_profile="ToyG", rows=lambda n: 2 * n - 1),
    Family("balance", MAXIMIZE, sign=1.0,
           objective=lambda i, n: 1.0 - i / n, rhs=lambda i, n: i / n,
           # s_p + (p s_p - sum_{i<=p} i x_i)/N
           matvec=lambda x, s, i, n: s + (i * s - np.cumsum(i * x, axis=0)) / n,
           # r_i + (sum_{p>=i} p y_p - i r_i)/N
           rmatvec=lambda y, r, i, n: r + (np.cumsum((i * y)[::-1])[::-1] - i * r) / n,
           oracle=lambda n: tight_value_balance(n), limit=INV_E,
           g_profile="BalanceG", x_scale=lambda i, n: n, weight=lambda t: 1.0 - t,
           ode=(0.0, 1.0), ode_solution="BalanceV"),      # v + v' = t
    Family("ranking", MINIMIZE, sign=-1.0,
           objective=lambda i, n: np.full(n, 1.0 / n), rhs=lambda i, n: np.ones(n),
           matvec=lambda x, s, i, n: x + s / n,           # x_i + s_i/n
           rmatvec=lambda y, r, i, n: y + r / n,          # y_j + r_j/n
           oracle=lambda n: tight_value_ranking(n), limit=1.0 - INV_E,
           g_profile="RankingG", ode=(1.0, 0.0), ode_solution="RankingU"),  # u + u' = 1
    Family("secretary", MAXIMIZE, sign=1.0,
           objective=lambda i, n: i / n, rhs=lambda i, n: np.ones(n),
           matvec=lambda x, s, i, n: i * x + (s - x),     # i x_i + s_{i-1}
           rmatvec=lambda y, r, i, n: i * y + (r - y),    # j y_j + r_{j+1}
           oracle=lambda n: best_threshold(n)[1], limit=INV_E,
           g_profile="SecretaryG", x_scale=lambda i, n: i),
)}
LIMIT_TARGETS = {kind: f.limit for kind, f in FAMILIES.items()}


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise LpInputError(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "size", _check_size(self.size, ORACLE_SIZE_CAP))

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse a ``kind:n`` CLI string, e.g. ``ranking:512``."""
        kind, sep, size = text.partition(":")
        if not sep:
            raise LpInputError(f"expected 'kind:n', got {text!r}")
        return cls(kind=kind.strip(), size=size)

    def build(self) -> DenseLp:
        return _BUILDERS[self.kind](self.size)

    def operator(self) -> "FamilyLp":
        """The family LP without its rows; the same size cap as ``build``."""
        return FamilyLp(**FAMILIES[self.kind].fields(_check_size(self.size)))


class FamilyLp(LpHeader):
    """A family LP: the header of its ``DenseLp``, and no ``rows``.

    ``matvec`` and ``rmatvec`` give ``rows @ x`` and ``rows.T @ y`` from one
    or two prefix sums in O(n), by its ``Family``'s formulas, so
    ``check_feasibility`` and ``certify`` take it as they take a DenseLp,
    without an n x n matrix.  ``matvec`` of an (n, k) block is (m, k), and
    ``build()``'s rows are ``matvec`` of the identity: these sums are the
    one definition of the family's matrix.
    """

    def __post_init__(self):
        super().__post_init__()
        n, kind = self.n_vars, self.family_tag
        if kind is None or self.n_rows != FAMILIES[kind].rows(n):
            raise LpInputError(f"bad FamilyLp: tag {kind!r}, {self.n_rows} rows on {n} variables")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        n = self.n_vars
        i = np.arange(1, n + 1).reshape((n,) + (1,) * (x.ndim - 1))
        return FAMILIES[self.family_tag].matvec(x, np.cumsum(x, axis=0), i, n)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        n = self.n_vars
        r = np.cumsum(y[:n][::-1])[::-1]
        return FAMILIES[self.family_tag].rmatvec(y, r, np.arange(1, n + 1), n)


def _check_size(n: int, cap: int = SIMPLEX_SIZE_CAP) -> int:
    """n as an int within [1, cap]; LpInputError otherwise."""
    n = _as_int(n, "family size")
    if n < 1:
        raise LpInputError("family size must be >= 1")
    if n > cap:
        raise LpInputError(f"family size {n} exceeds cap {cap}")
    return n


def _build(kind: str, n: int) -> DenseLp:
    """The size-n family LP, its rows ``matvec`` of the identity in blocks."""
    n = _check_size(n)
    fields = FAMILIES[kind].fields(n)
    op = FamilyLp(**fields)
    rows = np.empty((op.n_rows, n))
    for a in range(0, n, _BUILD_BLOCK):
        w = min(_BUILD_BLOCK, n - a)
        rows[:, a:a + w] = op.matvec(np.eye(n, w, -a))
    return DenseLp(rows=rows, **fields)


def build_toy(n: int) -> DenseLp:
    """minimize (1/n) sum x_i over x in [0,1]^n with
    1 - x_i <= (1/n) sum_{l<i} x_l and x_i >= x_{i+1}."""
    return _build("toy", n)


def build_balance(N: int) -> DenseLp:
    """maximize sum x_i (1 - i/N) over x in [0,1]^N with
    sum_{i<=p} x_i (1 + (p-i)/N) <= p/N for every p."""
    return _build("balance", N)


def build_ranking(n: int) -> DenseLp:
    """minimize (1/n) sum x_i over x in [0,1]^n with
    x_i + (1/n) sum_{j<=i} x_j >= 1."""
    return _build("ranking", n)


def build_secretary(n: int) -> DenseLp:
    """maximize sum x_i (i/n) over x in [0,1]^n with
    i x_i <= 1 - sum_{l<i} x_l.  The x_i <= 1 bounds are kept even though
    x_i <= 1/i is implied, so the feasible set matches the printed program."""
    return _build("secretary", n)


_BUILDERS = {kind: globals()[f"build_{kind}"] for kind in FAMILIES}


def _geometric(first: int, n: int, log_q: float) -> np.ndarray:
    """exp(k log_q) for k = first .. first + n - 1, built in its one array.

    Each ``_CHUNK`` of the result is filled with its k (a chunk-sized ramp
    plus the chunk's first k, exact in floats), scaled by log_q and
    exponentiated while it is in cache: the same bytes as
    ``np.exp(np.arange(first, first + n, dtype=float) * log_q)``.
    """
    x = np.empty(n)
    ramp = np.arange(min(n, _CHUNK), dtype=float)
    for a in range(0, n, _CHUNK):
        chunk = x[a:a + _CHUNK]
        np.add(ramp[:chunk.size], first + a, out=chunk)
        chunk *= log_q
        np.exp(chunk, out=chunk)
    return x


def tight_solution_ranking(n: int) -> np.ndarray:
    """Unique optimum of the ranking LP, from running every row tight.

    Solving x_i (1 + 1/n) = 1 - (1/n) sum_{j<i} x_j forward in i gives the
    geometric sequence x_i = (n/(n+1))^i.
    """
    n = _check_size(n, ORACLE_SIZE_CAP)
    return _geometric(1, n, np.log(n) - np.log(n + 1))


def tight_value_ranking(n: int) -> float:
    """Objective of tight_solution_ranking without materializing it:
    1 - (n/(n+1))^n, evaluated in log space."""
    n = _check_size(n, ORACLE_SIZE_CAP)
    return -float(np.expm1(-n * np.log1p(1.0 / n)))


def ranking_triangular_value(n: int) -> float:
    """Exact E[RANKING] on triangular_instance(n, 1), the upper-triangular
    instance of Karp, Vazirani and Vazirani (STOC 1990).

    Arrival t sees bidders {t..n}, and the free bidders among them are a
    uniform subset, so each arrival takes a uniform free neighbor.  The DP
    tracks k, the number of free bidders in the suffix of size s: an
    arrival with k >= 1 matches, leaving k - 1, and bidder t, free with
    probability (k - 1)/s, then leaves the suffix.  O(n^2) time, O(n) memory.
    """
    n = _check_size(n, RANKING_DP_CAP)
    p = np.zeros(n + 1)     # p[k]: probability that k suffix bidders are free
    p[n] = 1.0
    value = 0.0
    for s in range(n, 0, -1):
        value += 1.0 - p[0]
        none_free = p[0]
        q = p[1:s + 1] / s              # q[j] = p[j + 1] / s
        j = np.arange(s, dtype=float)   # j = k - 1 left free after the match
        p[:s] = q * (s - j)             # bidder t matched, now or before
        p[:s - 1] += q[1:] * j[1:]      # bidder t free, leaving with the suffix
        p[0] += none_free
        p[s] = 0.0
    return float(value)


def ranking_triangular_closed_form(n: int) -> float:
    """n(1 - 1/e) + 1 - 2/e, which ranking_triangular_value meets to within
    1e-14 relative from n = 100 on."""
    n = _check_size(n, ORACLE_SIZE_CAP)
    return n * (1.0 - INV_E) + 1.0 - 2.0 * INV_E


def tight_solution_toy(n: int) -> np.ndarray:
    """Optimum of the toy LP: x_1 = 1, then equality forward gives
    x_i = (1 - 1/n)^(i-1)."""
    n = _check_size(n, ORACLE_SIZE_CAP)
    if n == 1:
        return np.ones(1)
    return _geometric(0, n, np.log1p(-1.0 / n))


def tight_value_toy(n: int) -> float:
    """Objective of tight_solution_toy: 1 - (1 - 1/n)^n."""
    n = _check_size(n, ORACLE_SIZE_CAP)
    if n == 1:
        return 1.0
    return -float(np.expm1(n * np.log1p(-1.0 / n)))


def tight_solution_balance(N: int) -> np.ndarray:
    """Optimum of the balance LP with every row tight:
    x_p = (1 - 1/N)^(p-1) / N, the toy optimum scaled by 1/N."""
    x = tight_solution_toy(N)
    x /= x.size
    return x


def tight_value_balance(N: int) -> float:
    """Objective of tight_solution_balance, which telescopes to (1 - 1/N)^N."""
    N = _check_size(N, ORACLE_SIZE_CAP)
    if N == 1:
        return 0.0
    return float(np.exp(N * np.log1p(-1.0 / N)))


def threshold_policy_value(n: int, k: int) -> float:
    """Exact success probability of the classical rule that rejects the
    first k candidates and then takes the first best-so-far one:
    (k/n) * sum_{j=k}^{n-1} 1/j, or 1/n for k = 0.  numpy sums the tail
    pairwise, to within a few ulps."""
    n, k = _check_size(n, ORACLE_SIZE_CAP), _as_int(k, "k")
    if not 0 <= k < n:
        raise LpInputError("need 0 <= k < n")
    if k == 0:
        return 1.0 / n
    inv = np.arange(k, n, dtype=float)
    return k * float(np.reciprocal(inv, out=inv).sum()) / n


def best_threshold(n: int):
    """(k*, value) maximizing threshold_policy_value over k, the optimum of
    the secretary LP; ties go to the smallest k, and k = 0 only at n = 1.

    With T_k = sum_{j=k}^{n-1} 1/j, value(k) >= value(k+1) exactly when
    T_{k+1} <= 1, so k* is the smallest k >= 1 with T_{k+1} <= 1.  A cumsum
    locates it to within one step (its error is far below the gap 1/k
    between neighboring T), and the neighbors are then compared on pairwise
    sums.
    """
    n = _check_size(n, ORACLE_SIZE_CAP)
    if n == 1:
        return 0, 1.0
    tails = np.arange(n - 1, 0, -1, dtype=float)   # tails[i] = T_{n-1-i}
    np.cumsum(np.reciprocal(tails, out=tails), out=tails)
    k = max(1, n - 1 - int(np.searchsorted(tails, 1.0, side="right")))
    del tails
    ks = range(max(1, k - 1), min(n - 1, k + 1) + 1)
    values = [threshold_policy_value(n, j) for j in ks]
    best = int(np.argmax(values))   # the first maximum: the smallest k
    return ks[best], values[best]

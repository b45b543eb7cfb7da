"""Online-matching simulators and the secretary policy machinery.

BALANCE and RANKING run on explicit arrival instances; BALANCE additionally
collects the slab accounting (final-spend groups alpha_i, per-slab spend
beta_j, per-bidder spent fraction rho_u) that underlies its factor-revealing
LP.  Secretary policies are position-indexed acceptance probabilities, either
recovered from a feasible LP solution or given directly.

Monte Carlo runs consume randomness in fixed blocks of trials; block i draws
from a counter-based Philox stream keyed by (seed, i), so estimates are
bit-reproducible and invariant to how blocks are sharded across workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lp_core import LpInputError

TRIAL_BLOCK = 4096
DEFAULT_TRIALS = 100_000


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Independent substream for one trial block; streams are spaced 2^128
    Philox counters apart."""
    return np.random.Generator(np.random.Philox(key=seed, counter=block << 128))


def _blocks(trials: int):
    """Yield (block index, block size) pairs covering `trials` trials."""
    for block, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        yield block, min(TRIAL_BLOCK, trials - start)


@dataclass(frozen=True)
class SimInstance:
    """Bipartite arrival instance: offline side 1..n_offline with uniform
    capacity b, arrivals listed in adversarial order as 1-based neighbor
    tuples."""

    n_offline: int
    b: int
    arrivals: tuple

    def __post_init__(self):
        if self.n_offline < 1 or self.b < 1:
            raise LpInputError("need n_offline >= 1 and b >= 1")
        cleaned = []
        for nb in self.arrivals:
            nb = tuple(sorted(set(int(u) for u in nb)))
            if nb and (nb[0] < 1 or nb[-1] > self.n_offline):
                raise LpInputError("neighbor index outside [1, n_offline]")
            cleaned.append(nb)
        object.__setattr__(self, "arrivals", tuple(cleaned))

    @property
    def n_online(self) -> int:
        return len(self.arrivals)


@dataclass(frozen=True)
class SlabStats:
    """Appendix-style slab accounting for one BALANCE run.

    alpha[i-1] counts bidders whose final spent fraction falls in group i
    (group N+1 means fully spent); beta[j-1] is the total spend inside slab j
    in budget units.  beta_units holds the exact integer numerators of beta
    (units of 1/(N*b)); the audit works on them alone.
    """

    N: int
    alpha: np.ndarray
    beta: np.ndarray
    rho: np.ndarray
    beta_units: np.ndarray
    b: int


@dataclass(frozen=True)
class PolicyTable:
    n: int
    accept_prob: np.ndarray
    reachable: np.ndarray


@dataclass(frozen=True)
class SimReport:
    trials: int
    estimate: float
    std_error: float
    seed: int


@dataclass(frozen=True)
class AuditResult:
    passed: bool
    worst_prefix: int | None    # first violating p (1-based), None if passed


@dataclass(frozen=True)
class BalanceRun:
    value: float                # total matched value in budget units
    assignments: np.ndarray     # per-bidder match counts
    stats: SlabStats


def run_balance(instance: SimInstance, n_slabs: int = 20) -> BalanceRun:
    """Deterministic BALANCE: each arrival goes to the neighbor with the
    largest remaining capacity (ties to the lowest index), earning 1/b."""
    if n_slabs < 1:
        raise LpInputError("n_slabs must be >= 1")
    n, b = instance.n_offline, instance.b
    remaining = np.full(n, b, dtype=np.int64)
    matched = 0
    for nb in instance.arrivals:
        if not nb:
            continue
        idx = np.fromiter((u - 1 for u in nb), dtype=np.int64, count=len(nb))
        rem = remaining[idx]
        j = int(np.argmax(rem))  # first maximum: lowest offline index
        if rem[j] > 0:
            remaining[idx[j]] -= 1
            matched += 1
    counts = b - remaining
    return BalanceRun(value=matched / b, assignments=counts,
                      stats=_slab_stats(counts, b, n_slabs))


def _slab_stats(counts: np.ndarray, b: int, N: int) -> SlabStats:
    """Integer slab accounting: all quantities exact in units of 1/(N*b)."""
    n = counts.size
    rho_num = counts.astype(np.int64) * N          # rho_u = rho_num / (N*b)
    group = np.where(counts == b, N, rho_num // b)  # 0-based group index
    alpha = np.bincount(group, minlength=N + 1).astype(np.int64)
    j = np.arange(1, N + 1, dtype=np.int64)[:, None]
    spent = np.minimum(rho_num[None, :], j * b) - (j - 1) * b
    beta_units = np.maximum(spent, 0).sum(axis=1)
    return SlabStats(N=N, alpha=alpha, beta=beta_units / (N * b),
                     rho=counts / b, beta_units=beta_units, b=b)


def slab_audit(stats: SlabStats, opt_exhausts_budgets: bool) -> AuditResult:
    """Check the prefix inequality sum_{j<=p} beta_j >= sum_{i<=p} alpha_i.

    Only meaningful when the offline optimum exhausts every budget; the audit
    is refused otherwise.  Both sides are compared exactly, in integer units
    of 1/(N*b).
    """
    if not opt_exhausts_budgets:
        raise LpInputError("audit refused: hypothesis 'opt exhausts budgets' unmet")
    N = stats.N
    lhs = np.cumsum(stats.beta_units)
    rhs = np.cumsum(stats.alpha[:N]) * (N * stats.b)
    bad = np.nonzero(lhs < rhs)[0]
    if bad.size:
        return AuditResult(passed=False, worst_prefix=int(bad[0]) + 1)
    return AuditResult(passed=True, worst_prefix=None)


def run_ranking(instance: SimInstance, trials: int,
                seed: int = 0) -> SimReport:
    """Monte Carlo RANKING: per trial a uniform random priority order over
    the offline side; each arrival takes its available neighbor of highest
    priority.  Returns the mean matching size with its standard error."""
    if instance.b != 1:
        raise LpInputError("RANKING requires unit capacities (b = 1)")
    if trials < 1:
        raise LpInputError("trials must be >= 1")
    n = instance.n_offline
    nb_idx = [np.fromiter((u - 1 for u in nb), dtype=np.int64, count=len(nb))
              for nb in instance.arrivals]
    total = 0.0
    total_sq = 0.0
    for block, bsz in _blocks(trials):
        rng = _block_rng(seed, block)
        # iid uniforms induce a uniform permutation; the neighbor of smallest
        # draw is the neighbor of smallest rank
        pri = rng.random((bsz, n))
        free = np.ones((bsz, n), dtype=bool)
        size = np.zeros(bsz, dtype=np.int64)
        rows = np.arange(bsz)
        for idx in nb_idx:
            if idx.size == 0:
                continue
            masked = np.where(free[:, idx], pri[:, idx], np.inf)
            j = np.argmin(masked, axis=1)
            ok = masked[rows, j] < np.inf
            chosen = idx[j]
            free[rows[ok], chosen[ok]] = False
            size += ok
        total += float(size.sum())
        total_sq += float((size.astype(float) ** 2).sum())
    return _report(total, total_sq, trials, seed)


def _report(total, total_sq, trials, seed) -> SimReport:
    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - total * total / trials) / (trials - 1))
        se = (var / trials) ** 0.5
    else:
        se = 0.0
    return SimReport(trials=trials, estimate=mean, std_error=se, seed=seed)


def secretary_policy_from_lp(x) -> PolicyTable:
    """Recover the stopping policy behind a feasible secretary LP solution.

    Position i accepts a best-so-far candidate with probability
    x_i * i / (1 - sum_{l<i} x_l); positions whose denominator vanishes are
    unreachable and carry probability 0.  x must satisfy the LP's rows
    i x_i + sum_{l<i} x_l <= 1 and bounds 0 <= x <= 1 to within 1e-6.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
        raise LpInputError("x must be a non-empty vector of finite values")
    n = x.size
    prior = np.concatenate([[0.0], np.cumsum(x)[:-1]])
    i = np.arange(1, n + 1)
    violation = max(float(np.max(i * x + prior - 1.0)),
                    float(np.max(-x)), float(np.max(x - 1.0)), 0.0)
    if violation > 1e-6:
        raise LpInputError(
            f"x is not feasible for the secretary LP (violation {violation:.3g})")
    denom = 1.0 - prior
    reachable = denom > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(reachable, x * i / np.where(reachable, denom, 1.0), 0.0)
    # feasibility bounds p by 1; clamp the tolerance spill
    p = np.clip(p, 0.0, 1.0)
    return PolicyTable(n=n, accept_prob=p, reachable=reachable)


def run_secretary(policy: PolicyTable, trials: int, seed: int = 0) -> SimReport:
    """Estimate the probability that a position-indexed stopping policy picks
    the overall best of n randomly ordered candidates.

    Per trial: draw a uniform arrival order, walk the positions, and at each
    reachable best-so-far position accept with the policy's probability;
    success means the accepted candidate is the global best.
    """
    if trials < 1:
        raise LpInputError("trials must be >= 1")
    n = policy.n
    p = policy.accept_prob
    total = 0.0
    total_sq = 0.0
    for block, bsz in _blocks(trials):
        rng = _block_rng(seed, block)
        quality = rng.random((bsz, n))
        coins = rng.random((bsz, n))
        best_so_far = quality == np.maximum.accumulate(quality, axis=1)
        accept = best_so_far & (coins < p[None, :])
        first = np.argmax(accept, axis=1)
        stopped = accept.any(axis=1)
        success = stopped & (first == np.argmax(quality, axis=1))
        total += float(success.sum())
        total_sq += float(success.sum())  # indicator: squares equal values
    return _report(total, total_sq, trials, seed)


def threshold_policy_value(n: int, k: int) -> float:
    """Exact success probability of the classical rule that rejects the
    first k candidates and then takes the first best-so-far one.

    Evaluates (k/n) * sum_{i=k+1}^n 1/(i-1) by rational accumulation
    (probability 1/n for k = 0).
    """
    if n < 1:
        raise LpInputError("n must be >= 1")
    if not 0 <= k < n:
        raise LpInputError("need 0 <= k < n")
    if k == 0:
        return 1.0 / n
    acc = Fraction(0)
    for i in range(k + 1, n + 1):
        acc += Fraction(1, i - 1)
    return float(Fraction(k, n) * acc)


def best_threshold(n: int):
    """(k*, value) maximizing threshold_policy_value over k, via exact
    suffix sums of the harmonic tail."""
    if n < 1:
        raise LpInputError("n must be >= 1")
    best_k, best_v = 0, Fraction(1, n)
    tail = Fraction(0)   # sum_{i=k+1}^n 1/(i-1)
    for k in range(n - 1, 0, -1):
        tail += Fraction(1, k)
        v = Fraction(k, n) * tail
        if v >= best_v:
            best_k, best_v = k, v
    return best_k, float(best_v)


def triangular_instance(n: int, b: int = 1) -> SimInstance:
    """Adversarial instance: phase t brings b copies of a query whose
    neighbors are bidders {t..n}; assigning phase t to bidder t is a planted
    perfect b-matching (OPT = n budget units)."""
    arrivals = []
    for t in range(1, n + 1):
        nb = tuple(range(t, n + 1))
        arrivals.extend([nb] * b)
    return SimInstance(n_offline=n, b=b, arrivals=tuple(arrivals))


def planted_instance(n: int, b: int, extra_degree: int = 2,
                     seed: int = 0) -> SimInstance:
    """Random instance with a planted perfect b-matching: every bidder owns b
    dedicated queries, each padded with random extra neighbors, in a shuffled
    arrival order."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    arrivals = []
    for u in range(1, n + 1):
        for _ in range(b):
            extras = rng.integers(1, n + 1, size=extra_degree)
            arrivals.append(tuple(sorted({u, *map(int, extras)})))
    order = rng.permutation(len(arrivals))
    return SimInstance(n_offline=n, b=b,
                       arrivals=tuple(arrivals[i] for i in order))


def offline_optimum(instance: SimInstance) -> float:
    """Exact offline maximum in budget units: the maximum b-matching, as an
    integer max-flow (Dinic).

    Node 0 is the source, nodes 1..n_offline the offline side (capacity b
    from the source), node n_offline+1+t arrival t (capacity 1 to the sink,
    the last node), with a unit-capacity edge from each neighbor to it.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    n = instance.n_offline
    sink = n + instance.n_online + 1
    edges = [(0, u, instance.b) for u in range(1, n + 1)]
    for t, nb in enumerate(instance.arrivals, start=n + 1):
        edges += [(u, t, 1) for u in nb]
        edges.append((t, sink, 1))
    tail, head, cap = np.array(edges, dtype=np.int32).T
    graph = csr_array((cap, (tail, head)), shape=(sink + 1, sink + 1))
    return int(maximum_flow(graph, 0, sink).flow_value) / instance.b


def write_instance(instance: SimInstance, path) -> None:
    """Text format: line 1 ``n_offline n_online b``; then one line per
    arrival with its neighbor indices."""
    with open(path, "w") as fh:
        fh.write(f"{instance.n_offline} {instance.n_online} {instance.b}\n")
        for nb in instance.arrivals:
            fh.write(" ".join(str(u) for u in nb) + "\n")


def _ints(fields, where: str) -> tuple:
    try:
        return tuple(int(v) for v in fields)
    except ValueError:
        raise LpInputError(
            f"non-integer value in {where}: {' '.join(fields)!r}") from None


def read_instance(path) -> SimInstance:
    """Parse the write_instance format; malformed files raise LpInputError."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise LpInputError("instance header must be 'n_offline n_online b'")
        n, n_online, b = _ints(header, "instance header")
        if n_online < 0:
            raise LpInputError("instance header needs n_online >= 0")
        arrivals = []
        for t in range(1, n_online + 1):
            line = fh.readline()
            if line == "":
                raise LpInputError("instance file ended early")
            arrivals.append(_ints(line.split(), f"arrival line {t}"))
    return SimInstance(n_offline=n, b=b, arrivals=tuple(arrivals))

"""Maximum-likelihood training for LAMP models.

The log-likelihood is concave in the lag weights w with P fixed, and, with
w fixed, jointly concave in P over the product of its row simplices, but not
concave in both together.  Training therefore alternates two block updates.

Both blocks read one flat table over the empirical initializer's support:
its flat probabilities q and ``entry``, whose [t, i-1] is the index of the
pair (source at lag i, target) of scored position t in that support; the
initializer's one sort of the pair keys gives both.  A = q[entry] holds
every position's per-lag terms and d = A @ w its mixture probabilities, the
same bits the scoring kernel computes from the trained model.

A w half-round solves the k-simplex block by projected Newton steps on the
full k x k Hessian -B^T B, B = A / d row by row (``optimize_simplex_block``).
Each step solves the Newton system on the active face, cuts its length by
the ratio test that keeps w nonnegative, and backtracks until the Armijo
condition holds; a step that would lower the objective by more than its
rounding error ends the block.

A P half-round runs EM over every row at once.  One update computes the
gradient g = bincount(entry, w_i / d[t]) over the (position, lag) pairs with
w_i > 0, position-major, reading ``entry`` in place, and sets each row to
q * g / sum(q * g), or to (q * g + c) normalized under ``prior_count`` c,
the MAP form of the same step (Berchtold & Raftery 2002).  The update never
lowers the objective, and its fixed points with positive entries are the
block's stationary points.  Rows that no pair reaches keep their values.
The half stops when the largest entry change of one update is at most
``kkt_tol``, or after ``max_newton_iters`` updates; that change,
q_j * |g_j - lambda_x| / lambda_x without a prior, is the P record's KKT
residual.  EM drives boundary entries toward zero without reaching it, so
without a prior the last P half of a run closes with one guarded snap:
every entry at most ``kkt_tol`` whose gradient is below its row's
lambda_x = sum(q * g) becomes zero, the touched rows are renormalized, and
the result is kept unless it lowers the log-likelihood by more than its
rounding error.  EM keeps a zero entry at zero, so a snap in an earlier
half, against a w still far from its optimum, could never be undone.

Exact zeros stay in q while training runs: they add only +0.0 to every sum.
The returned matrix is built once, from the positive entries of q, so a
trained model stores no zero.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from lamp.core import (
    Corpus,
    DataError,
    HistoryDistribution,
    LampModel,
    NumericError,
    ScoredPositions,
    SparseStochasticMatrix,
    _check_vocab,
    _integers,
    _kept_offsets,
)

__all__ = [
    "TrainConfig",
    "HalfIterationRecord",
    "TrainReport",
    "BlockResult",
    "EmpiricalMatrixReport",
    "empirical_transition_matrix",
    "grad_w",
    "grad_P",
    "optimize_simplex_block",
    "alternate_minimize",
]

# The w half's projected Newton step: the ridge on the Hessian's diagonal,
# relative to its largest entry; the Armijo constant; the shortest step
# length tried; and the rounding error allowed in the objective's value,
# relative to it, since near the optimum a step's gain is smaller than that.
_RIDGE = 1e-12
_ARMIJO = 1e-4
_MIN_STEP = 1e-10
_ROUNDING = 1e-14


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    ``rounds`` counts alternation rounds in halves: the first half-round
    optimizes w, the second updates every P row, and so on, so 1.5 rounds
    runs the blocks w, P, w.  ``max_newton_iters`` caps the Newton
    iterations of a w half and the EM updates of a P half.  ``prior_count``
    adds an optional Dirichlet-style log-prior (``prior_count *
    sum(log theta)``) to every block objective; the default 0 leaves plain
    maximum likelihood.
    """

    k: int
    rounds: float = 1.5
    kkt_tol: float = 1e-6
    max_newton_iters: int = 100
    init_decay: float = 0.8
    support_epsilon: float = 1e-3
    weight_only: bool = False
    prior_count: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # Fields are checked by type, as the model loader checks its
        # numbers: a boolean is no number, and an integral number such as
        # 2.0 is read as the integer 2.
        for field in fields(self):
            name, value = field.name, getattr(self, field.name)
            if field.type == "bool":
                if not isinstance(value, (bool, np.bool_)):
                    raise DataError(f"{name} {value!r} is not a boolean")
                value = bool(value)
            elif field.type == "int":
                value = int(_integers([value], -math.inf, math.inf, name)[0])
            else:
                if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                    raise DataError(f"{name} {value!r} is not a number")
                try:
                    value = float(value)
                except OverflowError:  # an integer past the float range
                    value = math.inf
                if not math.isfinite(value):
                    raise DataError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.k < 1:
            raise DataError("k must be at least 1")
        halves = self.rounds * 2.0
        if abs(halves - round(halves)) > 1e-9 or round(halves) < 1:
            raise DataError("rounds must be a positive multiple of 0.5")
        if self.kkt_tol <= 0 or self.support_epsilon <= 0:
            raise DataError("tolerances must be positive")
        if self.max_newton_iters < 1:
            raise DataError("max_newton_iters must be at least 1")
        if not 0.0 < self.init_decay:
            raise DataError("init_decay must be positive")
        if self.prior_count < 0.0:
            raise DataError("prior_count must be nonnegative")

    @property
    def half_iterations(self) -> int:
        return int(round(self.rounds * 2.0))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        try:
            return cls(**doc)
        except TypeError as exc:
            raise DataError(f"malformed train config: {exc}") from exc


@dataclass(frozen=True)
class HalfIterationRecord:
    """One ledger row of training progress.

    ``block`` is "init" for the starting point, then "w" or "P".
    ``iterations`` counts the half's Newton iterations (w) or EM updates
    (P), and ``capped`` is true when the half stopped at
    ``max_newton_iters`` with its residual above ``kkt_tol``.  Wall time and
    these two live only on this in-memory record; the JSON-lines form omits
    them, and wall time must stay out so that reruns with identical inputs
    serialize byte-identically.
    """

    block: str
    log_likelihood: float
    perplexity: float
    kkt_residual: float | None
    active_set_size: int
    wall_time_s: float
    iterations: int = 0
    capped: bool = False

    def to_json_dict(self) -> dict:
        return {
            "block": self.block,
            "log_likelihood": self.log_likelihood,
            "perplexity": self.perplexity,
            "kkt_residual": self.kkt_residual,
            "active_set_size": self.active_set_size,
        }


@dataclass(frozen=True)
class TrainReport:
    records: tuple[HalfIterationRecord, ...]
    final_model: "LampModel | None" = None

    def to_jsonl(self) -> str:
        import json

        return "".join(
            json.dumps(r.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            for r in self.records
        )

    @property
    def final_log_likelihood(self) -> float:
        return self.records[-1].log_likelihood

    @property
    def initial_log_likelihood(self) -> float:
        return self.records[0].log_likelihood


@dataclass(frozen=True)
class EmpiricalMatrixReport:
    empty_rows: tuple[int, ...]
    support_size: int
    lag1_pairs: int
    clamped_only_pairs: int


@dataclass(frozen=True)
class BlockResult:
    point: np.ndarray
    value: float
    kkt_residual: float
    iterations: int
    accepted_steps: int


# ---------------------------------------------------------------------------
# Mixture probabilities of the scored positions


def _denominators(stats: ScoredPositions, d: np.ndarray) -> np.ndarray:
    """d, the mixture probabilities of the scored positions; a zero one is a
    numeric error."""
    bad = np.nonzero(d <= 0.0)[0]
    if bad.size:
        t = int(bad[0])
        raise NumericError(
            "zero-probability scored transition at sequence "
            f"{int(stats.seq_id[t])} position {int(stats.pos[t])}"
        )
    return d


# ---------------------------------------------------------------------------
# Empirical transition matrix


def _positions(corpus: Corpus, k: int) -> ScoredPositions:
    """The position table of ``corpus`` at k lags.  The trainer hands its own
    table to :func:`empirical_transition_matrix` in place of the corpus, so
    that training builds the table once and still calls the public
    initializer.  The initializer builds its pair keys in place over the
    table's ``src`` and leaves ``entry`` instead, the index of every
    (position, lag) pair in the support it returns, for the trainer."""
    if isinstance(corpus, ScoredPositions) and corpus.k == k:
        return corpus
    return ScoredPositions(corpus, k)


def empirical_transition_matrix(
    corpus: Corpus,
    k: int,
    support_epsilon: float = 1e-3,
    return_report: bool = False,
):
    """Initial transition matrix harvested from the corpus.

    The support of row x holds every state y such that (x, y) occurs as a
    clamped source/target pair at some lag up to k.  Pairs seen at lag 1 get
    the first-order maximum-likelihood count ratio; pairs seen only at deeper
    lags get ``support_epsilon``.  Rows are renormalized to sum to 1.  States
    that never occur as a source keep an empty row, listed in the report.
    """
    if k < 1:
        raise DataError("k must be at least 1")
    if support_epsilon <= 0.0:
        raise DataError("support_epsilon must be positive")
    stats = _positions(corpus, k)
    n = stats.n
    lag1_totals = np.bincount(stats.src[:, 0], minlength=n)
    stats.src *= n
    stats.src += stats.tgt[:, None]  # the sources become their pair keys
    keys = stats.src.reshape(-1)
    order = np.argsort(keys)
    keys.sort()  # row-major, columns ascending
    first = np.ones(keys.size, dtype=bool)  # each pair's first occurrence
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    support = keys[first]
    np.copyto(keys, first)
    np.cumsum(keys, out=keys)  # each sorted pair's support index, plus 1
    keys -= 1
    stats.entry = np.empty_like(stats.src)
    stats.entry.reshape(-1)[order] = keys
    del stats.src, keys, order, first
    rows, cols = np.divmod(support, n, out=(support, None))
    count = np.bincount(stats.entry[:, 0], minlength=cols.size)
    lag1_pairs = int(np.count_nonzero(count))
    # Every support row is the lag-1 source of some position, so its total is positive.
    value = count / lag1_totals[rows]
    value[count == 0] = support_epsilon
    # bincount adds each row's entries left to right, so the row sums (and
    # the normalized rows) are bit-identical to a sequential sum.
    value /= np.bincount(rows, weights=value, minlength=n)[rows]
    matrix = SparseStochasticMatrix._from_entries(n, rows, cols, value)
    if not return_report:
        return matrix
    report = EmpiricalMatrixReport(
        empty_rows=tuple(matrix.empty_rows()),
        support_size=matrix.support_size,
        lag1_pairs=lag1_pairs,
        clamped_only_pairs=matrix.support_size - lag1_pairs,
    )
    return matrix, report


# ---------------------------------------------------------------------------
# Gradients


def grad_w(model: LampModel, corpus: Corpus) -> np.ndarray:
    """Gradient of the corpus log-likelihood in the lag weights.

    Entry i is the sum over scored positions of P(source at lag i, target)
    divided by the position's mixture probability.  Every scored position
    must have positive mixture probability.
    """
    _check_vocab(model.vocab, corpus.vocab)
    stats = ScoredPositions(corpus, model.k)
    if stats.T == 0:
        return np.zeros(model.k)
    A = stats.lag_probabilities(model)
    return A.T @ (1.0 / _denominators(stats, A @ model.w.weights))


def grad_P(model: LampModel, corpus: Corpus) -> list[np.ndarray]:
    """Gradient of the corpus log-likelihood in the stored entries of P.

    Returns one array per row, aligned with that row's support columns.
    Only stored entries carry gradient storage; corpus pairs outside the
    support are ignored.
    """
    _check_vocab(model.vocab, corpus.vocab)
    stats = ScoredPositions(corpus, model.k)
    flat = np.zeros(model.P.support_size)
    if stats.T:
        w = model.w.weights
        d = _denominators(stats, stats.lag_probabilities(model) @ w)
        flat = _EMHalf(stats, model.P, w, 0.0).gradient(d)
    return np.split(flat, model.P.indptr[1:-1])


# ---------------------------------------------------------------------------
# Projected Newton simplex block optimizer


def _kkt_residual(point: np.ndarray, grad: np.ndarray) -> float:
    """Stationarity residual on the simplex.

    The multiplier is the mean gradient over the active set (coordinates
    with positive mass); the residual adds the worst active deviation from
    it and the worst inactive violation above it.
    """
    active = point > 0.0
    on = grad[active]
    lam = float(on.sum()) / on.size  # the same division np.mean makes
    res = float(np.abs(on - lam).max())
    if on.size < point.size:
        res += max(0.0, float((grad[~active] - lam).max()))
    return res


def _newton_direction(point: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Newton direction of the quadratic model on the simplex's active face.

    The face holds the coordinates with positive mass and the zero ones
    whose gradient exceeds the multiplier (the mean gradient over the
    positive ones).  On the face the direction u solves
    [H_FF - eps I, 1; 1^T, 0] [u; mu] = [lambda - g_F; 0], with a ridge eps
    relative to the Hessian's diagonal that keeps the system nonsingular when
    coordinates share a column.  Shifting g by the multiplier lambda leaves
    u unchanged (u sums to zero) and keeps mu small, so that u, tiny near
    the optimum, keeps its precision.  A zero coordinate that the direction
    would push below zero leaves the face, the most negative first, and the
    system is solved again; the other coordinates' directions are zero.
    """
    zero = point == 0.0
    lam = float(grad[~zero].sum()) / int(np.count_nonzero(~zero))
    face = ~zero | (grad > lam)
    ridge = _RIDGE * (float(np.abs(np.diag(hess)).max()) or 1.0)
    u = np.zeros_like(point)
    while True:
        idx = np.flatnonzero(face)
        m = idx.size
        kkt = np.ones((m + 1, m + 1))
        kkt[:m, :m] = hess[np.ix_(idx, idx)] - ridge * np.eye(m)
        kkt[m, m] = 0.0
        sol = np.linalg.solve(kkt, np.append(lam - grad[idx], 0.0))[:m]
        leaving = np.flatnonzero(zero[idx] & (sol < 0.0))
        if not leaving.size:
            u[idx] = sol
            return u
        face[idx[leaving[np.argmin(sol[leaving])]]] = False


def optimize_simplex_block(
    objective: Callable[[np.ndarray], float],
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    point: np.ndarray,
    cfg: TrainConfig,
) -> BlockResult:
    """Maximize a concave objective over the probability simplex.

    ``objective`` returns the value (may be -inf on the boundary);
    ``derivatives`` returns (gradient, Hessian) at a feasible point.  Each
    iteration takes a projected Newton step (Bertsekas 1982) along
    :func:`_newton_direction`: the step length is 1, cut by the ratio test
    that keeps every coordinate nonnegative (the coordinates it hits become
    exactly 0), then halved until the Armijo condition
    f(p + a u) >= f(p) + 1e-4 a g.u holds.  Near the optimum a step's gain
    falls below the rounding error of f, so f(p) is taken less 1e-14 |f(p)|
    in that test; a step that fails it down to a length of 1e-10 ends the
    block, so the value never falls by more than rounding.  Stops when the
    KKT residual drops to ``cfg.kkt_tol`` or after ``cfg.max_newton_iters``
    iterations.
    """
    p = np.asarray(point, dtype=np.float64).copy()
    if p.ndim != 1 or p.size == 0:
        raise DataError("block point must be a nonempty vector")
    if (p < 0.0).any() or abs(float(p.sum()) - 1.0) > 1e-9:
        raise DataError("block point must lie on the probability simplex")
    if p.size == 1:
        p = np.array([1.0])
        return BlockResult(p, float(objective(p)), 0.0, 0, 0)
    value = float(objective(p))
    if not np.isfinite(value):
        raise NumericError("block objective is not finite at the starting point")
    accepted = 0
    iterations = 0
    residual = None  # KKT residual at p; None once p has moved since the last derivatives
    for _ in range(cfg.max_newton_iters):
        if residual is None:
            g, H = derivatives(p)
            if not (np.isfinite(g).all() and np.isfinite(H).all()):
                raise NumericError("block derivatives are not finite")
            residual = _kkt_residual(p, g)
        if residual <= cfg.kkt_tol:
            break
        iterations += 1
        u = _newton_direction(p, g, H)
        slope = float(g @ u)
        if not slope > 0.0:
            break
        falling = np.flatnonzero(u < 0.0)
        ratios = p[falling] / -u[falling]
        alpha = min(1.0, float(ratios.min(initial=math.inf)))
        floor = value - _ROUNDING * abs(value)
        while True:
            cand = p + alpha * u
            cand[falling[ratios <= alpha]] = 0.0  # the coordinates the ratio test hits
            cand[cand < 0.0] = 0.0
            cand[int(np.argmax(cand))] -= float(cand.sum()) - 1.0
            cand_value = float(objective(cand))
            armijo = cand_value >= floor + _ARMIJO * alpha * slope
            if armijo or alpha < 2.0 * _MIN_STEP:
                break
            alpha *= 0.5
        if not armijo:
            break
        p, value = cand, cand_value
        accepted += 1
        residual = None
    if residual is None:
        residual = _kkt_residual(p, derivatives(p)[0])
    return BlockResult(p, value, residual, iterations, accepted)


# ---------------------------------------------------------------------------
# Block objectives


class _WeightObjective:
    """Log-likelihood as a function of w with P fixed, via the (T, k) matrix
    of per-position per-lag transition probabilities."""

    def __init__(self, A: np.ndarray, prior: float) -> None:
        self.A = A
        self.prior = prior

    def value(self, w: np.ndarray) -> float:
        d = self.A @ w
        if np.any(d <= 0.0):
            return -math.inf
        v = float(np.log(d).sum())
        if self.prior:
            if np.any(w <= 0.0):
                return -math.inf
            v += self.prior * float(np.log(w).sum())
        return v

    def derivatives(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient A^T (1/d) and Hessian -B^T B, B = A / d row by row."""
        d = self.A @ w
        r = 1.0 / d
        g = self.A.T @ r
        B = self.A * r[:, None]
        H = -(B.T @ B)
        if self.prior:
            safe = np.maximum(w, 1e-12)
            g = g + self.prior / safe
            H[np.diag_indices_from(H)] -= self.prior / (safe * safe)
        return g, H


class _EMHalf:
    """The EM update of one P half, over every row at once.

    Works on flat probabilities q over the stored entries of ``support``,
    whose own probabilities it never reads; w stays as it was at
    construction.  ``prior`` is the ``prior_count`` of the MAP form
    q * g + prior.  ``entry`` is the (T, k) index of every (position, lag)
    pair in the support, ``support_size`` outside it; training hands over
    its own, and when None it comes from ``support.pair_indices``.

    The mixture is A @ w with A = q[entry] (0 past the last entry), as every
    block computes it.  The gradient adds w_i / d[t] over the pairs with
    w_i > 0, position-major, into their entries' bins, a pair outside the
    support into a dropped bin past the last.  Its pair index is ``entry``
    itself when every lag has positive weight, else its live columns' copy.
    """

    def __init__(
        self, stats: ScoredPositions, support: SparseStochasticMatrix, w: np.ndarray, prior: float,
        entry: np.ndarray | None = None,
    ) -> None:
        self.n, self.size = support.n, support.support_size
        if entry is None:
            entry = support.pair_indices(stats.src, stats.tgt[:, None])
            entry[entry < 0] = self.size
        live = w > 0.0
        self.entry, self.w, self.live_w = entry, w, w[live]
        self.pair = entry if live.all() else np.compress(live, entry, axis=1)  # C order, as ravel reads
        self.row = support._entry_rows
        hit = np.zeros(self.size + 1, dtype=bool)
        hit[self.pair] = True
        self.reached = np.bincount(self.row, weights=hit[:-1], minlength=self.n) > 0  # rows with a pair
        self.prior = prior

    def mixture(self, q: np.ndarray) -> np.ndarray:
        """Mixture probability of every scored position."""
        return np.append(q, 0.0)[self.entry] @ self.w  # an index past the last entry reads the 0

    def gradient(self, d: np.ndarray) -> np.ndarray:
        """Log-likelihood gradient in q, given the mixture probabilities d.
        A position of zero mixture, which only a foreign support leaves,
        adds nothing."""
        if not d.all():
            d = np.where(d > 0.0, d, np.inf)  # w / inf is 0
        share = np.empty(self.pair.shape)
        for j, w in enumerate(self.live_w):  # by column: broadcasting would loop once per position
            np.divide(w, d, out=share[:, j])
        return np.bincount(self.pair.ravel(), weights=share.ravel(), minlength=self.size + 1)[:-1]

    def _normalized(self, z: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """z divided by its row sums on the given rows whose sum is
        positive; q elsewhere."""
        total = np.bincount(self.row, weights=z, minlength=self.n)
        ok = rows & (total > 0.0)
        total[~ok] = 1.0
        return np.where(ok[self.row], z / total[self.row], q)

    def update(self, q: np.ndarray, d: np.ndarray) -> np.ndarray:
        """One EM update of q, whose mixture probabilities are d.  A row no
        pair reaches keeps its values."""
        z = q * self.gradient(d)
        if self.prior:
            z += self.prior
        return self._normalized(z, q, self.reached)

    def iterate(self, q: np.ndarray, tol: float, cap: int) -> tuple[np.ndarray, np.ndarray, float, int]:
        """Updates from q until one changes no entry by more than ``tol``, or
        ``cap`` of them; returns the last point, its mixture probabilities,
        the last update's largest entry change and the number of updates."""
        d = self.mixture(q)
        for done in range(1, cap + 1):
            new = self.update(q, d)
            change = float(np.abs(new - q).max(initial=0.0))
            q, d = new, self.mixture(new)
            if change <= tol:
                break
        return q, d, change, done

    def snap(self, q: np.ndarray, d: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """q with every entry in (0, tol] whose gradient is below its row's
        lambda = sum(q * g) set to zero and the touched rows renormalized,
        unless that lowers the log-likelihood by more than its rounding
        error; q itself otherwise.  d is q's mixture probabilities; returns
        the point and its mixture probabilities."""
        g = self.gradient(d)
        lam = np.bincount(self.row, weights=q * g, minlength=self.n)
        drop = (q > 0.0) & (q <= tol) & (g < lam[self.row])
        if not drop.any():
            return q, d
        touched = np.zeros(self.n, dtype=bool)
        touched[self.row[drop]] = True
        trial = np.where(drop, 0.0, q)
        trial = self._normalized(trial, trial, touched)
        trial_d = self.mixture(trial)
        with np.errstate(divide="ignore"):
            ll, trial_ll = float(np.log(d).sum()), float(np.log(trial_d).sum())
        if trial_ll >= ll - _ROUNDING * abs(ll):
            return trial, trial_d
        return q, d


def _p_half(
    stats: ScoredPositions, support: SparseStochasticMatrix, q: np.ndarray, w: np.ndarray,
    cfg: TrainConfig, entry: np.ndarray | None = None, snap: bool = True,
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One P half from the flat probabilities q with w fixed: EM updates,
    then, with ``snap`` and without a prior, the guarded zero snap.  Returns
    the new flat probabilities, their mixture probabilities, the last
    update's largest entry change and the number of updates; ``support``
    and ``entry`` are as for :class:`_EMHalf`."""
    em = _EMHalf(stats, support, w, cfg.prior_count, entry)
    q, d, residual, updates = em.iterate(q, cfg.kkt_tol, cfg.max_newton_iters)
    if snap and not cfg.prior_count:  # with a prior, a zero entry would make the objective -inf
        q, d = em.snap(q, d, cfg.kkt_tol)
    return q, d, residual, updates


# ---------------------------------------------------------------------------
# Alternating minimization


def alternate_minimize(corpus: Corpus, cfg: TrainConfig) -> tuple[LampModel, TrainReport]:
    """Fit a LAMP to a corpus by alternating w and P block optimizations.

    P starts from the empirical transition matrix and w from weights
    proportional to ``init_decay ** lag``.  Half-rounds alternate starting
    with w; with ``weight_only`` the P halves are skipped and the returned
    matrix is exactly the empirical one.  Every half works on the
    initializer's support; the returned matrix keeps only its positive
    entries.  The objective the blocks ascend, the log-likelihood plus
    ``prior_count * (sum(log w) + sum(log P))``, never decreases across
    recorded steps; with ``prior_count`` 0 that is the log-likelihood the
    records report.
    """
    if corpus.total_transitions < 1:
        raise DataError("training requires at least one scored transition")
    stats = ScoredPositions(corpus, cfg.k)
    init = empirical_transition_matrix(stats, cfg.k, cfg.support_epsilon)
    q = init.probs
    w = HistoryDistribution.geometric(cfg.init_decay, cfg.k).weights.copy()

    def active_size() -> int:
        return int(np.count_nonzero(w > 0)) + int(np.count_nonzero(q > 0))

    def objective(ll: float) -> float:
        if not cfg.prior_count:
            return ll
        return ll + cfg.prior_count * (float(np.log(w).sum()) + float(np.log(q).sum()))

    def lag_terms() -> np.ndarray:
        """The per-lag terms ``stats.lag_probabilities`` gives the model of
        q's positive entries."""
        return np.append(q, 0.0)[stats.entry]  # the initializer's entries; see _positions

    denom = _denominators(stats, lag_terms() @ w)
    T = stats.T

    def record(block: str, residual: float | None, seconds: float, iterations: int = 0) -> HalfIterationRecord:
        ll = float(np.log(denom).sum())
        return HalfIterationRecord(
            block=block,
            log_likelihood=ll,
            perplexity=float(np.exp(-ll / T)),
            kkt_residual=residual,
            active_set_size=active_size(),
            wall_time_s=seconds,
            iterations=iterations,
            capped=iterations >= cfg.max_newton_iters and residual > cfg.kkt_tol,
        )

    records = [record("init", None, 0.0)]
    start = objective(records[0].log_likelihood)
    # Only the last P half snaps; see the module docstring.
    last_p_half = cfg.half_iterations - 1 - cfg.half_iterations % 2
    for half in range(cfg.half_iterations):
        t0 = time.perf_counter()
        if half % 2 == 0:
            A = lag_terms()
            obj = _WeightObjective(A, cfg.prior_count)
            res = optimize_simplex_block(obj.value, obj.derivatives, w, cfg)
            w = res.point
            denom = _denominators(stats, A @ w)
            del A, obj  # free before the P half
            records.append(record("w", res.kkt_residual, time.perf_counter() - t0, res.iterations))
        elif not cfg.weight_only:
            q, d, residual, updates = _p_half(stats, init, q, w, cfg, stats.entry, snap=half == last_p_half)
            denom = _denominators(stats, d)
            records.append(record("P", residual, time.perf_counter() - t0, updates))

    if objective(records[-1].log_likelihood) < start - 1e-9:
        raise NumericError("training decreased its objective; numeric failure")
    keep = q > 0.0
    P = SparseStochasticMatrix(init.n, _kept_offsets(init.indptr, keep), init.cols[keep], q[keep])
    model = LampModel(w=HistoryDistribution(w), P=P, vocab=corpus.vocab)
    return model, TrainReport(tuple(records), final_model=model)

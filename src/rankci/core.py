"""Domain types shared by all estimators, plus the ground-truth set-rank oracle.

The observation model is ``y_i ~ N(mu_i, sigma_i^2)`` with known standard
deviations.  Estimators work on a :class:`CenterSample`, which keeps the
observations sorted ascending; all pair indices used across the package are
0-based positions into that sorted sample.  Rank values themselves are
1-based integers between 1 and n.

A set of pairs is a read-only boolean ``(n, n)`` mask: ``mask[i, j]`` is the
ordered pair (i, j), the one-sided hypothesis "center i is at most center
j", and the diagonal is always False.  On a sorted sample only the positive
pairs (i > j) can be rejected, so a rejection mask is strictly
lower-triangular.
"""

import json
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CenterSample",
    "SetRank",
    "RankInterval",
    "SimultaneousRankCIs",
    "PairSet",
    "true_set_ranks",
    "truth_partition",
    "rank_bounds_from_rejections",
]

#: Methods whose rank intervals are simultaneous by construction and are
#: guaranteed to contain the empirical (sorted-order) rank of each center.
SIMULTANEOUS_METHODS = ("tukey", "seqtukey")

#: All method tags understood by the package.
KNOWN_METHODS = ("tukey", "seqtukey", "zhang")


#: The range of a standard error: sigma^2 is a normal float, and sigma_i^2 + sigma_j^2
#: in the statistic |y_i - y_j| / sqrt(sigma_i^2 + sigma_j^2) is finite.
SIGMA_MIN = float(np.nextafter(np.sqrt(np.finfo(float).tiny), np.inf))
SIGMA_MAX = float(np.sqrt(np.finfo(float).max / 2))


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _as_sigma_vector(values, name: str = "sigma") -> np.ndarray:
    """``values`` as a float vector of standard errors, each in [SIGMA_MIN, SIGMA_MAX]."""
    arr = _as_float_vector(values, name)
    if not (arr.min() >= SIGMA_MIN and arr.max() <= SIGMA_MAX):
        raise ValueError(f"{name} must lie in [{SIGMA_MIN:.5g}, {SIGMA_MAX:.5g}], "
                         "so that its square and a sum of two squares are normal floats")
    return arr


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _whole_number(value, key: str) -> int:
    """``value`` as an int; ``2.0`` reads as 2, and bools, fractions and non-numbers are refused."""
    if not (_is_real(value) and (isinstance(value, numbers.Integral)
                                 or float(value).is_integer())):
        raise ValueError(f"{key!r} must be a whole number, got {json.dumps(value, default=repr)}")
    return int(value)


@dataclass(frozen=True)
class SetRank:
    """Integer interval [lower, upper] of positions a true center can occupy.

    Tied centers share the same set-rank; a center distinct from all others
    has ``lower == upper``.
    """

    lower: int
    upper: int

    def __post_init__(self):
        if not (1 <= self.lower <= self.upper):
            raise ValueError(f"invalid set-rank [{self.lower}, {self.upper}]")

    @property
    def width(self) -> int:
        return self.upper - self.lower


@dataclass(frozen=True)
class RankInterval:
    """Confidence interval [lower, upper] for a rank, in 1-based rank units."""

    lower: int
    upper: int

    def __post_init__(self):
        if not (1 <= self.lower <= self.upper):
            raise ValueError(f"invalid rank interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> int:
        return self.upper - self.lower

    def contains_rank(self, rank: int) -> bool:
        return self.lower <= rank <= self.upper

    def contains_set_rank(self, set_rank: SetRank) -> bool:
        """True when the whole set-rank lies inside this interval."""
        return self.lower <= set_rank.lower and set_rank.upper <= self.upper

    def is_subset_of(self, other: "RankInterval") -> bool:
        return other.lower <= self.lower and self.upper <= other.upper


@dataclass(frozen=True)
class SimultaneousRankCIs:
    """A family of rank intervals with joint confidence level ``1 - alpha``.

    ``intervals[i]`` belongs to the i-th center of the *sorted* sample.  For
    the simultaneous test-based methods (``tukey``, ``seqtukey``) interval i
    always contains the empirical rank i+1; this is enforced on construction.
    ``iterations`` is only meaningful for ``seqtukey``.
    """

    intervals: tuple[RankInterval, ...]
    alpha: float
    method: str
    iterations: int | None = None

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.method not in KNOWN_METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        object.__setattr__(self, "intervals", tuple(self.intervals))
        n = len(self.intervals)
        for i, ci in enumerate(self.intervals):
            if ci.upper > n:
                raise ValueError(f"interval {i} exceeds n={n}: {ci}")
            if self.method in SIMULTANEOUS_METHODS and not ci.contains_rank(i + 1):
                raise ValueError(
                    f"method {self.method!r} must contain empirical rank "
                    f"{i + 1} in interval {i}: [{ci.lower}, {ci.upper}]"
                )

    @property
    def n(self) -> int:
        return len(self.intervals)

    def widths(self) -> np.ndarray:
        return np.array([ci.width for ci in self.intervals])

    def is_nested_in(self, other: "SimultaneousRankCIs") -> bool:
        """Every interval of self contained in the matching interval of other."""
        if self.n != other.n:
            raise ValueError("cannot compare CI families of different sizes")
        return all(a.is_subset_of(b) for a, b in zip(self.intervals, other.intervals))


@dataclass(frozen=True)
class PairSet:
    """A set of ordered index pairs (i, j), i != j, into the sorted sample.

    Pair (i, j) encodes the one-sided hypothesis "center i is at most
    center j".  Membership is exact; no (i, i) pair is allowed.
    """

    pairs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        pairs = frozenset((int(i), int(j)) for i, j in self.pairs)
        for i, j in pairs:
            if i == j:
                raise ValueError(f"pair ({i}, {i}) is not a valid hypothesis")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def all_pairs(cls, n: int) -> "PairSet":
        """Every ordered pair over n centers."""
        return cls(frozenset((i, j) for i in range(n) for j in range(n) if i != j))

    @classmethod
    def positive_pairs(cls, n: int) -> "PairSet":
        """Pairs (i, j) with i > j: the testable ones on a sorted sample."""
        return cls(frozenset((i, j) for i in range(n) for j in range(i)))

    @classmethod
    def negative_pairs(cls, n: int) -> "PairSet":
        """Pairs (i, j) with i < j: never rejected, anchor the empirical order."""
        return cls(frozenset((i, j) for j in range(n) for i in range(j)))

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def union(self, other: "PairSet") -> "PairSet":
        return PairSet(self.pairs | other.pairs)

    def difference(self, other: "PairSet") -> "PairSet":
        return PairSet(self.pairs - other.pairs)

    def issubset(self, other: "PairSet") -> bool:
        return self.pairs <= other.pairs

    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Pairs as parallel (i, j) index arrays, in sorted pair order."""
        ordered = sorted(self.pairs)
        if not ordered:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        i, j = zip(*ordered)
        return np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)


@dataclass(frozen=True)
class CenterSample:
    """Observed estimates with known standard errors, sorted ascending by y.

    ``order[k]`` is the input position of the k-th sorted observation, so
    ``y == y_input[order]``; :meth:`to_input_order` restores user order at
    the output boundary.  Build instances with :meth:`from_observations`.
    """

    ids: tuple
    y: np.ndarray
    sigma: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        y = _as_float_vector(self.y, "y")
        sigma = _as_sigma_vector(self.sigma)
        order = np.asarray(self.order, dtype=np.intp)
        ids = tuple(self.ids)
        if not (len(ids) == y.size == sigma.size == order.size):
            raise ValueError("ids, y, sigma and order must have equal length")
        if np.any(np.diff(y) < 0):
            raise ValueError("y must be sorted ascending")
        if sorted(order.tolist()) != list(range(y.size)):
            raise ValueError("order must be a permutation of 0..n-1")
        y.setflags(write=False)
        sigma.setflags(write=False)
        order.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "order", order)

    @classmethod
    def from_observations(cls, y, sigma, ids=None) -> "CenterSample":
        """Validate and sort raw (y, sigma) observations.

        Exact ties in y are kept in input order (stable sort) and reported
        with a warning: the model assumes continuous data, so observed ties
        normally indicate duplicated input.
        """
        y = _as_float_vector(y, "y")
        sigma = _as_float_vector(sigma, "sigma")
        if y.size != sigma.size:
            raise ValueError("y and sigma must have equal length")
        if ids is None:
            ids = tuple(str(k) for k in range(y.size))
        ids = tuple(ids)
        if len(ids) != y.size:
            raise ValueError("ids must match y in length")
        if y.size != np.unique(y).size:
            warnings.warn(
                "observed estimates contain exact ties; "
                "tied centers are ordered by input position",
                stacklevel=2,
            )
        order = np.argsort(y, kind="stable")
        return cls(
            ids=tuple(ids[k] for k in order),
            y=y[order],
            sigma=sigma[order],
            order=order,
        )

    @property
    def n(self) -> int:
        return self.y.size

    def to_input_order(self, values) -> list:
        """Map a sorted-order sequence back to the original input order."""
        values = list(values)
        if len(values) != self.n:
            raise ValueError("expected one value per center")
        out = [None] * self.n
        for k, pos in enumerate(self.order):
            out[pos] = values[k]
        return out


def true_set_ranks(mu) -> list[SetRank]:
    """Set-ranks of true centers, allowing ties.

    For center i, ``lower = 1 + #{j : mu_j < mu_i}`` and
    ``upper = n - #{j : mu_j > mu_i}``; tied centers share one set-rank.
    Ties are exact floating-point equality, deliberately without tolerance.

    Parameters
    ----------
    mu : array_like
        True center values (finite).

    Returns
    -------
    list of SetRank, one per center in input order.
    """
    mu = _as_float_vector(mu, "mu")
    lower = 1 + np.sum(mu[None, :] < mu[:, None], axis=1)
    upper = mu.size - np.sum(mu[None, :] > mu[:, None], axis=1)
    return [SetRank(int(lo), int(up)) for lo, up in zip(lower, upper)]


def truth_partition(mu) -> tuple[np.ndarray, np.ndarray]:
    """Split all ordered pairs into true and false one-sided hypotheses.

    Pair (i, j) is *true* iff ``mu_i <= mu_j`` (exact comparison); the false
    mask is the complement within all ordered pairs.  Both masks are
    read-only with a False diagonal.
    """
    mu = _as_float_vector(mu, "mu")
    true_mask = mu[:, None] <= mu[None, :]
    np.fill_diagonal(true_mask, False)
    false_mask = mu[:, None] > mu[None, :]
    true_mask.setflags(write=False)
    false_mask.setflags(write=False)
    return true_mask, false_mask


def rank_bounds_from_rejections(rejected: np.ndarray) -> list[RankInterval]:
    """Rank intervals implied by a mask of rejected positive pairs.

    ``L_i = 1 + #{j < i : (i, j) rejected}`` and
    ``U_i = n - #{j > i : (j, i) rejected}``, in 1-based rank units: row and
    column sums of the strictly lower-triangular mask.

    Raises
    ------
    ValueError
        If the mask is not square or rejects a pair on or above the diagonal.
    """
    rejected = np.asarray(rejected, dtype=bool)
    if rejected.ndim != 2 or rejected.shape[0] != rejected.shape[1]:
        raise ValueError(f"rejection mask must be square, got shape {rejected.shape}")
    if np.triu(rejected).any():
        raise ValueError("rejection mask must be strictly lower-triangular (pairs i > j)")
    n = rejected.shape[0]
    lower = 1 + rejected.sum(axis=1)
    upper = n - rejected.sum(axis=0)
    return [RankInterval(lo, up) for lo, up in zip(lower.tolist(), upper.tolist())]

"""Market participants: scenario model, piecewise-linear utilities, local bounds.

Utilities are concave piecewise-linear functions of the participant's power
injection, normalised so the value at zero injection is zero.  Producers
inject (``p >= 0``) and their utility is the negated cost; loads withdraw
(``p <= 0``) and their utility is the consumption benefit, so its slope with
respect to injection is negative.  Plans are valued under the caller's
scenario weights (the participant's own from :meth:`Participant.weights`, or
the market's for welfare).

Every utility has one form, its :meth:`UtilityFunction.segments`, and is
valued as ``min_k(a_k + m_k p)`` over them.  The trading path (the
operator's step, the trade search, the pair screen and the equilibrium
check) reads a market's :class:`UtilityTable`, those segments and the
bounds as arrays, and checks plans with :meth:`UtilityTable.local_violations`.
:func:`evaluate_utility` stays scalar, one participant and one
:meth:`UtilityFunction.value` call per scenario: it values a finished run's
plans (final welfare, the gap to the dispatch), once per run, and names the
participant and scenario of a plan out of bounds.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ScenarioSet",
    "UtilityFunction",
    "Participant",
    "UtilityTable",
    "evaluate_utility",
    "scan_maximum",
    "PROBABILITY_TOL",
    "LOCAL_TOL",
]

PROBABILITY_TOL = 1e-12
# Slack in MW on a plan's bounds and on a day-ahead plan's spread.
LOCAL_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioSet:
    """Finite scenario collection with strictly positive probabilities."""

    probabilities: tuple[float, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if not probs:
            raise ValueError("at least one scenario is required")
        if any(not p > 0 for p in probs):
            raise ValueError("scenario probabilities must be positive")
        if abs(sum(probs) - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {sum(probs)!r}, expected 1")
        if self.names is not None:
            names = tuple(self.names)
            if len(names) != len(probs):
                raise ValueError("names must match the number of scenarios")
            object.__setattr__(self, "names", names)

    @property
    def count(self) -> int:
        return len(self.probabilities)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probabilities)


@dataclass(frozen=True)
class UtilityFunction:
    """Concave piecewise-linear utility of injection, anchored at zero.

    ``breakpoints`` are finite and strictly increasing and bracket the
    domain; ``slopes[j]`` is the finite marginal value on
    ``[breakpoints[j], breakpoints[j+1]]`` and the sequence must be
    nonincreasing (strictly decreasing for a non-degenerate function).  The
    domain must contain 0 so the anchor ``value(0) == 0`` is well defined.

    The :meth:`segments` arrays are computed on first use and cached, so
    building a market stays cheap and valuing a plan repeats no arithmetic.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]

    def __post_init__(self) -> None:
        bps = tuple(float(b) for b in self.breakpoints)
        slp = tuple(float(m) for m in self.slopes)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "slopes", slp)
        if len(bps) < 2 or len(slp) != len(bps) - 1:
            raise ValueError("need K >= 2 breakpoints and K-1 slopes")
        if not all(map(math.isfinite, bps + slp)):
            raise ValueError("breakpoints and slopes must be finite")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(m2 > m1 + 1e-12 for m1, m2 in zip(slp, slp[1:])):
            raise ValueError("slopes must be nonincreasing (concavity)")
        if not bps[0] <= 0.0 <= bps[-1]:
            raise ValueError("domain must contain 0 for value normalisation")

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        bps, slp = self.breakpoints, self.slopes
        values = [0.0] * len(bps)
        for j in range(1, len(bps)):
            values[j] = values[j - 1] + slp[j - 1] * (bps[j] - bps[j - 1])
        # Anchor value(0) at zero: interpolate the values on the segment holding 0.
        j = min(max(bisect.bisect_right(bps, 0.0) - 1, 0), len(bps) - 2)
        offset = values[j] + (values[j + 1] - values[j]) / (bps[j + 1] - bps[j]) * (0.0 - bps[j])
        m = np.asarray(slp)
        a = np.asarray([v - offset for v in values[:-1]]) - m * np.asarray(bps[:-1])
        m.setflags(write=False)
        a.setflags(write=False)
        return m, a

    @classmethod
    def constant_marginal(cls, slope: float, lower: float, upper: float) -> "UtilityFunction":
        """Single-segment utility covering ``[min(lower, 0), max(upper, 0)]``."""
        return cls((min(lower, 0.0), max(upper, 0.0)), (slope,))

    @property
    def domain(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]

    def _check_domain(self, p: float) -> None:
        lo, hi = self.domain
        if not lo - 1e-9 <= p <= hi + 1e-9:
            raise ValueError(f"injection {p} outside utility domain [{lo}, {hi}]")

    def value(self, p: float) -> float:
        """``min_k(a_k + m_k p)`` over :meth:`segments`, bit for bit what :meth:`UtilityTable.value` computes.

        Both take the least of the same terms, and no term is ``-0.0`` (no
        intercept is), so the order of the minimum cannot pick a zero's sign.
        """
        p = float(p)
        self._check_domain(p)
        m, a = self._segments
        return float((a + m * p).min())

    def marginals(self, p: float) -> tuple[float, float]:
        """One-sided derivatives ``(left, right)`` at ``p``, clamped to the domain.

        Equal away from breakpoints; at a domain endpoint both sides report
        the interior segment's slope.
        """
        self._check_domain(p)
        p = float(p)
        bps, slp = self.breakpoints, self.slopes
        seg_left = min(max(bisect.bisect_left(bps, p) - 1, 0), len(slp) - 1)
        seg_right = min(max(bisect.bisect_right(bps, p) - 1, 0), len(slp) - 1)
        return slp[seg_left], slp[seg_right]

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment ``(slopes, intercepts)`` with value(p) = min(a + m p).

        The same read-only arrays are returned on every call.
        """
        return self._segments


_KINDS = ("producer", "load")
_TIMINGS = ("DA", "RT")


@dataclass(frozen=True)
class Participant:
    """One producer or load at a bus, with per-scenario bounds and utilities.

    ``bounds[s]`` is the closed injection interval for scenario ``s``.  DA
    participants commit a single injection before the scenario is known, so
    their bounds must be identical across scenarios.
    """

    id: str
    bus: int
    kind: str
    timing: str
    bounds: tuple[tuple[float, float], ...]
    utility: tuple[UtilityFunction, ...]
    subjective_probabilities: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.timing not in _TIMINGS:
            raise ValueError(f"timing must be one of {_TIMINGS}, got {self.timing!r}")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        utility = tuple(self.utility)
        object.__setattr__(self, "utility", utility)
        if len(bounds) != len(utility) or not bounds:
            raise ValueError("bounds and utility must cover the same S >= 1 scenarios")
        if not all(math.isfinite(b) for pair in bounds for b in pair):
            raise ValueError(f"{self.id}: bounds must be finite")
        for lo, hi in bounds:
            if lo > hi:
                raise ValueError(f"{self.id}: empty bound interval [{lo}, {hi}]")
            if self.kind == "producer" and lo < 0:
                raise ValueError(f"{self.id}: producer bounds must lie in [0, inf)")
            if self.kind == "load" and hi > 0:
                raise ValueError(f"{self.id}: load bounds must lie in (-inf, 0]")
        if self.timing == "DA" and any(b != bounds[0] for b in bounds[1:]):
            raise ValueError(f"{self.id}: DA bounds must be identical across scenarios")
        for (lo, hi), u in zip(bounds, utility):
            dlo, dhi = u.domain
            if lo < dlo - 1e-9 or hi > dhi + 1e-9:
                raise ValueError(f"{self.id}: utility domain must cover the bounds")
        if self.subjective_probabilities is not None:
            probs = tuple(float(p) for p in self.subjective_probabilities)
            if len(probs) != len(bounds):
                raise ValueError(f"{self.id}: subjective probabilities must cover S scenarios")
            if any(not p > 0 for p in probs) or abs(sum(probs) - 1.0) > PROBABILITY_TOL:
                raise ValueError(f"{self.id}: subjective probabilities must be positive and sum to 1")
            object.__setattr__(self, "subjective_probabilities", probs)

    @property
    def scenario_count(self) -> int:
        return len(self.bounds)

    @classmethod
    def producer(
        cls,
        id: str,
        bus: int,
        timing: str,
        capacity: tuple[float, ...],
        marginal_cost: float,
        subjective_probabilities: tuple[float, ...] | None = None,
    ) -> "Participant":
        bounds = tuple((0.0, c) for c in capacity)
        util = tuple(UtilityFunction.constant_marginal(-marginal_cost, 0.0, c) for c in capacity)
        return cls(id, bus, "producer", timing, bounds, util, subjective_probabilities)

    @classmethod
    def load(
        cls,
        id: str,
        bus: int,
        timing: str,
        max_demand: tuple[float, ...],
        value: float,
        subjective_probabilities: tuple[float, ...] | None = None,
    ) -> "Participant":
        bounds = tuple((-d, 0.0) for d in max_demand)
        util = tuple(UtilityFunction.constant_marginal(-value, -d, 0.0) for d in max_demand)
        return cls(id, bus, "load", timing, bounds, util, subjective_probabilities)

    def weights(self, scenarios: ScenarioSet) -> np.ndarray:
        """Probabilities this participant uses to value plans."""
        if self.subjective_probabilities is not None:
            return np.asarray(self.subjective_probabilities)
        return scenarios.as_array()


@dataclass(frozen=True, eq=False)
class UtilityTable:
    """A roster's utilities, bounds and weights as arrays, one row per participant.

    Each utility's :meth:`UtilityFunction.segments` are padded to ``K`` by
    repeating the last one, so ``min_k(intercepts + slopes * p)`` is still
    its value; ``real`` marks the segments that are not padding.
    :attr:`segment_columns` poses them as LP columns.
    """

    index: dict[str, int]
    bus: np.ndarray  # (P,)
    day_ahead: np.ndarray  # (P,)
    weights: np.ndarray  # (P, S), each participant's own
    lower: np.ndarray  # (P, S)
    upper: np.ndarray  # (P, S)
    slopes: np.ndarray  # (P, S, K)
    intercepts: np.ndarray  # (P, S, K)
    breakpoints: np.ndarray  # (P, S, K + 1)
    real: np.ndarray  # (P, S, K)

    @classmethod
    def of(cls, participants: tuple[Participant, ...], scenarios: ScenarioSet) -> "UtilityTable":
        shape = (len(participants), scenarios.count)  # explicit, so no participants give 0 rows
        utilities = [u for p in participants for u in p.utility]
        segments = [u.segments() for u in utilities]
        count = np.array([m.size for m, _ in segments], dtype=int)
        k = int(count.max(initial=1))

        def padded(pieces, lengths, size):
            # One gather: each piece, then its last entry repeated up to ``size``.
            start = np.cumsum(lengths) - lengths
            index = start[:, None] + np.minimum(np.arange(size), lengths[:, None] - 1)
            return np.concatenate([np.empty(0), *pieces])[index].reshape(*shape, size)

        bounds = np.array([p.bounds for p in participants], dtype=float).reshape(*shape, 2)
        return cls(
            index={p.id: i for i, p in enumerate(participants)},
            bus=np.array([p.bus for p in participants], dtype=int),
            day_ahead=np.array([p.timing == "DA" for p in participants], dtype=bool),
            weights=np.array([p.weights(scenarios) for p in participants], dtype=float).reshape(shape),
            lower=bounds[..., 0],
            upper=bounds[..., 1],
            slopes=padded([m for m, _ in segments], count, k),
            intercepts=padded([a for _, a in segments], count, k),
            breakpoints=padded([u.breakpoints for u in utilities], count + 1, k + 1),
            real=(np.arange(k) < count[:, None]).reshape(*shape, k),
        )

    @cached_property
    def segment_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The segments clipped to the bounds, as LP columns: ``(first, count, length, cost)``, built on first use.

        A plan is its lower bound plus one column per segment, each between
        0 and its ``length``, at ``cost`` $/MW (the weight times the slope);
        concavity makes an optimal LP fill them in order.  Columns run
        participant-major, then scenario, then segment: participant ``i``'s
        start at ``first[i]`` and ``count[i, s]`` are those of scenario
        ``s``.  A segment the bounds cut to nothing gets no column, but a
        plan fixed by its bounds keeps the segment holding it, of length 0,
        so every plan has a first and a last column, for its bound
        multipliers and its chains.  The first real segment reaches down and
        the last up without end before the clip, so the columns cover the
        bounds even where they pass the domain by round-off.
        """
        k = np.arange(self.slopes.shape[-1])
        last = self.real.sum(axis=-1, keepdims=True) - 1
        lo, hi = self.lower[..., None], self.upper[..., None]
        top = np.where(k == last, np.inf, self.breakpoints[..., 1:])
        left = np.clip(np.where(k == 0, -np.inf, self.breakpoints[..., :-1]), lo, hi)
        length = np.where(self.real, np.clip(top, lo, hi) - left, 0.0)
        keep = length > 0
        keep |= ~keep.any(axis=-1, keepdims=True) & (k == np.argmax(top >= lo, axis=-1)[..., None])
        count = keep.sum(axis=-1)
        per_participant = count.sum(axis=-1)
        first = np.cumsum(per_participant) - per_participant
        return first, count, length[keep], (self.weights[..., None] * self.slopes)[keep]

    def rows(self, ids: Iterable[str]) -> np.ndarray:
        """The table rows of participant ``ids``, in their order; an unknown id raises ``KeyError``."""
        try:
            return np.array([self.index[pid] for pid in ids], dtype=int)
        except KeyError as exc:
            raise KeyError(f"unknown participant id {exc.args[0]!r}") from None

    def stack(self, plans: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``plans``' ids and their ``(G, S)`` plans, in order; a plan not of ``S`` entries raises."""
        rows = self.rows(plans)
        shape = (rows.size, self.lower.shape[1])
        try:
            stacked = np.array(list(plans.values()), dtype=float)
        except ValueError:  # plans of unequal shapes
            stacked = np.empty(0)
        if stacked.shape != shape:
            for pid, plan in plans.items():
                if np.shape(plan) != shape[1:]:
                    raise ValueError(f"{pid}: plan must cover {shape[1]} scenarios")
            stacked = stacked.reshape(shape)  # no plans: (0,) to (0, S)
        return rows, stacked

    def value(self, rows, plans: np.ndarray) -> np.ndarray:
        """Utility of ``rows`` (one index or an index array) at ``plans`` of shape ``(..., S, C)``."""
        a, m = self.intercepts[rows][..., None, :], self.slopes[rows][..., None, :]
        # A fold over k: np.min over the short K axis is several times slower.
        v = a[..., 0] + m[..., 0] * plans
        for k in range(1, a.shape[-1]):
            v = np.minimum(v, a[..., k] + m[..., k] * plans)
        return v

    def local_violations(self, rows, plans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the ``(G, S)`` plans of ``rows`` break local feasibility by more than ``LOCAL_TOL`` MW.

        Returns the ``(G, S)`` entries outside their bounds (a NaN entry is
        outside) and the ``(G,)`` day-ahead rows whose plan varies across
        scenarios.
        """
        inside = (plans >= self.lower[rows] - LOCAL_TOL) & (plans <= self.upper[rows] + LOCAL_TOL)
        return ~inside, self.day_ahead[rows] & (np.ptp(plans, axis=-1) > LOCAL_TOL)


def scan_maximum(lower: np.ndarray, upper: np.ndarray, kinks: np.ndarray, gain, shared: bool) -> np.ndarray | None:
    """Exact maximum over ``lower <= t <= upper`` of ``gain(t)`` summed over scenarios.

    ``lower``/``upper`` are ``(..., S)``, ``kinks`` ``(..., S, C)``.  ``gain``
    maps candidates ``(..., S, N)`` to per-scenario values; it is concave
    piecewise linear with kinks among ``kinks``, so a bound or a clipped kink
    attains the maximum.  A ``shared`` ``t``, one for every scenario, ranges
    over the intersection and tries every scenario's kinks.  Returns the
    ``(...)`` maxima, or ``None`` when an interval is empty.
    """
    shape = lower.shape
    if shared:
        lower, upper = lower.max(axis=-1, keepdims=True), upper.min(axis=-1, keepdims=True)
        kinks = kinks.reshape(*shape[:-1], 1, shape[-1] * kinks.shape[-1])
    if np.any(lower > upper):
        return None
    lower, upper = lower[..., None], upper[..., None]
    t = np.clip(np.concatenate([lower, upper, kinks], axis=-1), lower, upper)
    gains = gain(np.broadcast_to(t, (*shape, t.shape[-1])))
    return gains.sum(axis=-2).max(axis=-1) if shared else gains.max(axis=-1).sum(axis=-1)


def evaluate_utility(participant: Participant, plan: np.ndarray, weights: np.ndarray) -> float:
    """Expected utility of a per-scenario plan under ``weights``; out-of-bounds plans raise."""
    plan = np.asarray(plan, dtype=float)
    if plan.shape != (participant.scenario_count,):
        raise ValueError("plan must have one entry per scenario")
    plan = plan.tolist()
    for s, (p, (lo, hi)) in enumerate(zip(plan, participant.bounds)):
        if not lo - LOCAL_TOL <= p <= hi + LOCAL_TOL:
            raise ValueError(f"{participant.id}: plan {p} outside bounds [{lo}, {hi}] in scenario {s}")
    # An explicit left fold: from Python 3.12 ``sum`` compensates float
    # rounding, which would move the last bits of every valuation.
    total = 0.0
    for w, u, p in zip(np.asarray(weights, dtype=float).tolist(), participant.utility, plan, strict=True):
        total += w * u.value(p)
    return total


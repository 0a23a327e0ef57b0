"""Price-Performance Models (paper Section 3.1).

A PPM represents a query's run time as a monotone non-increasing function
of its computational resources ``n`` (executors, or total cores ``k``):

- **AE_PL** — power law with saturation (Equation 3):
  ``t(n) = max(b · n^a, m)`` with ``a ≤ 0``, ``b > 0``, ``m ≥ 0``.
- **AE_AL** — Amdahl's law (Equation 4): ``t(n) = s + p / n`` with a serial
  component ``s ≥ 0`` and a perfectly scalable component ``p ≥ 0``.

Both are fitted to (n, t) samples per query (Section 3.4): AE_PL by linear
regression in log-log space over the non-saturating region, AE_AL by linear
regression of ``t`` on ``1/n``.  Note: the paper's printed Equation 5 says
``log t = log b + n·log a``, which contradicts Equation 3; we implement the
power-law-consistent form ``log t = log b + a·log n`` (see DESIGN.md).

Monotonicity is a hard constraint (Section 3.1 gives four reasons); the
fitters clamp parameters into the monotone region and the classes validate
on construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.ml.linear import LinearRegression

__all__ = [
    "PricePerfModel",
    "PowerLawPPM",
    "AmdahlPPM",
    "FAMILIES",
    "to_targets",
    "from_targets",
    "fit_power_law",
    "fit_amdahl",
]


class PricePerfModel(ABC):
    """Abstract PPM: monotone non-increasing run-time curve ``t(n)``."""

    #: parameter names, in the order :meth:`parameters` returns them.
    PARAM_NAMES: tuple[str, ...] = ()

    @abstractmethod
    def predict(self, n: float) -> float:
        """Predicted run time (seconds) at resource level ``n``."""

    @abstractmethod
    def parameters(self) -> np.ndarray:
        """Parameter vector, ordered as :attr:`PARAM_NAMES`."""

    @classmethod
    @abstractmethod
    def from_parameters(cls, params: np.ndarray) -> "PricePerfModel":
        """Build from a raw parameter vector, clamped into validity."""

    def predict_curve(self, n_values: ArrayLike) -> np.ndarray:
        """Vectorized :meth:`predict` over a grid of resource levels."""
        return np.array([self.predict(float(n)) for n in np.asarray(n_values)])


@dataclass(frozen=True)
class PowerLawPPM(PricePerfModel):
    """AE_PL: ``t(n) = max(b · n^a, m)`` (paper Equation 3).

    Attributes:
        a: power-law exponent; must be ≤ 0 for monotonicity.
        b: scale (the time at ``n = 1`` in the unsaturated regime); > 0.
        m: saturation floor — the query's minimum achievable run time.
    """

    a: float
    b: float
    m: float

    PARAM_NAMES = ("a", "b", "m")

    def __post_init__(self) -> None:
        if self.a > 0:
            raise ValueError(
                f"monotonicity requires a <= 0 (got a={self.a!r}); "
                "clamp predicted parameters before constructing the PPM"
            )
        if self.b <= 0:
            raise ValueError("b must be positive")
        if self.m < 0:
            raise ValueError("m must be non-negative")

    def predict(self, n: float) -> float:
        if n < 1:
            raise ValueError("resource level must be >= 1")
        return float(max(self.b * n**self.a, self.m))

    def parameters(self) -> np.ndarray:
        return np.array([self.a, self.b, self.m])

    @classmethod
    def from_parameters(cls, params: np.ndarray) -> "PowerLawPPM":
        """Build from a (possibly model-predicted) raw parameter vector.

        Predicted parameters are clamped into the valid monotone region:
        ``a ≤ 0``, ``b > 0``, ``m ≥ 0`` — the defensive step the paper's
        monotonicity constraint implies for ML-predicted values.
        """
        a, b, m = (float(p) for p in np.asarray(params, dtype=float))
        return cls(a=min(a, 0.0), b=max(b, 1e-9), m=max(m, 0.0))


@dataclass(frozen=True)
class AmdahlPPM(PricePerfModel):
    """AE_AL: ``t(n) = s + p / n`` (paper Equation 4).

    Attributes:
        s: serial (resource-invariant) latency component; ≥ 0.
        p: perfectly parallelizable work; ≥ 0.
    """

    s: float
    p: float

    PARAM_NAMES = ("s", "p")

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("s must be non-negative")
        if self.p < 0:
            raise ValueError("p must be non-negative")

    def predict(self, n: float) -> float:
        if n < 1:
            raise ValueError("resource level must be >= 1")
        return float(self.s + self.p / n)

    def parameters(self) -> np.ndarray:
        return np.array([self.s, self.p])

    @classmethod
    def from_parameters(cls, params: np.ndarray) -> "AmdahlPPM":
        """Build from a raw parameter vector, clamping into validity."""
        s, p = (float(x) for x in np.asarray(params, dtype=float))
        return cls(s=max(s, 0.0), p=max(p, 0.0))


#: The PPM families by the name model metadata records them under.
FAMILIES: dict[str, type[PricePerfModel]] = {
    "power_law": PowerLawPPM,
    "amdahl": AmdahlPPM,
}

_EPSILON = 1e-3  # keeps log(0) finite


def to_targets(params: ArrayLike, log_mask: Sequence[bool]) -> np.ndarray:
    """Encode ``(n, n_params)`` parameters as regression targets: the
    ``log_mask`` columns as ``log(max(x, 0) + ε)``, the rest raw."""
    out = np.array(params, dtype=float, copy=True)
    for col, use_log in enumerate(log_mask):
        if use_log:
            out[:, col] = np.log(np.maximum(out[:, col], 0.0) + _EPSILON)
    return out


def from_targets(targets: ArrayLike, log_mask: Sequence[bool]) -> np.ndarray:
    """Decode predicted targets back to raw parameters (:func:`to_targets`
    inverted, floored at zero).  Every scorer decodes through here."""
    out = np.array(targets, dtype=float, copy=True)
    for col, use_log in enumerate(log_mask):
        if use_log:
            out[..., col] = np.maximum(np.exp(out[..., col]) - _EPSILON, 0.0)
    return out


def fit_power_law(
    n_values: ArrayLike,
    t_values: ArrayLike,
    saturation_tolerance: float = 0.02,
) -> PowerLawPPM:
    """Fit AE_PL to (n, t) samples (paper Section 3.4).

    ``m`` is the minimum observed time.  The power-law part is fitted by
    linear regression of ``log t`` on ``log n`` over the *non-saturating
    region* — samples up to the first ``n`` whose time is within
    ``saturation_tolerance`` of the minimum (beyond it the curve is flat
    by construction and would bias the slope).

    Raises ``ValueError`` on fewer than two samples or non-positive times.
    """
    n = np.asarray(n_values, dtype=float)
    t = np.asarray(t_values, dtype=float)
    _validate_samples(n, t)

    order = np.argsort(n)
    n, t = n[order], t[order]
    m = float(t.min())

    # Non-saturating region: everything up to (and including) the first
    # sample that reaches the floor.
    at_floor = t <= m * (1.0 + saturation_tolerance)
    first_floor = int(np.argmax(at_floor)) if at_floor.any() else len(n) - 1
    region = slice(0, first_floor + 1)
    n_fit, t_fit = n[region], t[region]

    if len(n_fit) < 2 or np.all(n_fit == n_fit[0]):
        # Degenerate: flat curve (or a single unsaturated point) — the
        # query does not scale; represent it as a constant at the floor.
        return PowerLawPPM(a=0.0, b=max(m, 1e-9), m=m)

    reg = LinearRegression().fit(np.log(n_fit)[:, None], np.log(t_fit))
    a = float(np.clip(reg.coef_[0], -4.0, 0.0))
    b = float(np.exp(reg.intercept_))
    return PowerLawPPM(a=a, b=max(b, 1e-9), m=m)


def fit_amdahl(n_values: ArrayLike, t_values: ArrayLike) -> AmdahlPPM:
    """Fit AE_AL by regressing ``t`` on ``1/n`` (paper Section 3.4).

    Negative fitted components are clamped with a constrained refit: a
    negative serial term refits ``p`` through the origin; a negative
    parallel term degenerates to a constant curve.
    """
    n = np.asarray(n_values, dtype=float)
    t = np.asarray(t_values, dtype=float)
    _validate_samples(n, t)

    inv_n = 1.0 / n
    reg = LinearRegression().fit(inv_n[:, None], t)
    s = float(reg.intercept_)
    p = float(reg.coef_[0])
    if s < 0:
        # Refit through the origin: p = argmin Σ (t - p/n)^2.
        p = float(np.sum(t * inv_n) / np.sum(inv_n * inv_n))
        s = 0.0
    if p < 0:
        p = 0.0
        s = float(t.mean())
    return AmdahlPPM(s=max(s, 0.0), p=max(p, 0.0))


def _validate_samples(n: np.ndarray, t: np.ndarray) -> None:
    if n.shape != t.shape or n.ndim != 1:
        raise ValueError("n and t must be 1-D arrays of equal length")
    if len(n) < 2:
        raise ValueError("fitting needs at least two (n, t) samples")
    if np.any(n < 1):
        raise ValueError("resource levels must be >= 1")
    if np.any(t <= 0):
        raise ValueError("run times must be positive")

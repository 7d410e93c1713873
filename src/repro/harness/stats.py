"""Multi-seed replication statistics: means and confidence intervals.

A single seeded run is a point estimate of a stochastic rate; credible
measurement reports dispersion.  :func:`estimate` summarises one rate's
seed replicas with its sample mean, standard deviation, and Student-t 95%
confidence interval — the standard discrete-event-simulation methodology.
The campaign layer (:meth:`~repro.harness.campaign.CampaignResult.aggregate`)
is what runs the replicas and folds them through it.

scipy provides the t quantile when available; a small built-in table covers
the common sample sizes otherwise, so the module works in minimal installs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigurationError

# two-sided 95% t quantiles by degrees of freedom (fallback when scipy is
# absent); beyond the table the normal quantile is close enough
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 12: 2.179, 15: 2.131, 20: 2.086,
    30: 2.042,
}


def t_quantile_95(dof: int) -> float:
    """Two-sided 95% Student-t quantile for ``dof`` degrees of freedom."""
    if dof <= 0:
        raise ConfigurationError("need at least two samples for an interval")
    try:
        from scipy import stats as scipy_stats

        return float(scipy_stats.t.ppf(0.975, dof))
    except Exception:  # scipy unavailable: table + normal tail
        if dof in _T95:
            return _T95[dof]
        for known in sorted(_T95, reverse=True):
            if dof > known:
                return _T95[known] if dof < 60 else 1.96
        return _T95[1]


@dataclass(frozen=True)
class RateEstimate:
    """Mean, dispersion, and 95% CI of one quantity across seeds."""

    name: str
    samples: tuple
    mean: float
    std: float
    ci95_half_width: float

    @property
    def lo(self) -> float:
        return self.mean - self.ci95_half_width

    @property
    def hi(self) -> float:
        return self.mean + self.ci95_half_width

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def format(self) -> str:
        return f"{self.mean:.4g} ± {self.ci95_half_width:.2g} (95% CI)"


def estimate(name: str, samples: Sequence[float]) -> RateEstimate:
    """Summarise one quantity's samples; a single sample is its own mean,
    with a zero-width interval."""
    n = len(samples)
    if n == 0:
        raise ConfigurationError("need at least one sample")
    if n == 1:
        return RateEstimate(name=name, samples=tuple(samples),
                            mean=samples[0], std=0.0, ci95_half_width=0.0)
    mean = sum(samples) / n
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(variance)
    half_width = t_quantile_95(n - 1) * std / math.sqrt(n)
    return RateEstimate(
        name=name, samples=tuple(samples), mean=mean, std=std,
        ci95_half_width=half_width,
    )

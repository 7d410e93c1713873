"""The paper's closed-form analytic model (equations 1-19).

Every equation in the paper is implemented as a documented function taking a
:class:`~repro.analytic.parameters.ModelParameters` (Table 2).  The module
layout follows the paper's sections:

* :mod:`~repro.analytic.single_node` — section 3's warm-up: waits and
  deadlocks in a one-node system (equations 1-5).
* :mod:`~repro.analytic.eager` — eager replication scaling (equations 6-13),
  including the headline cubic deadlock growth and the scaled-database
  variant.
* :mod:`~repro.analytic.lazy_group` — lazy group replication reconciliation
  (equation 14) and the disconnected/mobile collision analysis
  (equations 15-18).
* :mod:`~repro.analytic.lazy_master` — lazy master deadlocks (equation 19).
* :mod:`~repro.analytic.two_tier` — derived rates for the proposed two-tier
  scheme (base transactions behave per equation 19; reconciliation rate is
  the acceptance-failure rate, zero when all transactions commute).
* :mod:`~repro.analytic.partial` — the danger curves re-derived with a
  replication-factor axis ``k``: partial replication softens equation 12's
  cubic to ``Nodes^2 x k``.
* :mod:`~repro.analytic.reference` — the one table of what the model
  predicts for each strategy: the rate it is judged on, its closed-form
  and partial curves, and the Markov track's prediction of the same rate.
* :mod:`~repro.analytic.refinements` — exact (non-linearised) versions of
  the probability approximations, for checking the approximations' validity
  region.
* :mod:`~repro.analytic.markov` / :mod:`~repro.analytic.markov_strategies`
  — the Markov fast path: stationary-distribution solvers over per-strategy
  transaction-state chains, a third model track between the closed forms
  (instant, no feedback) and the DES (accurate, slow).
* :mod:`~repro.analytic.scaling` — parameter sweeps and growth-exponent
  fitting used by the benchmarks.
* :mod:`~repro.analytic.tables` — renderings of the paper's Table 1
  (strategy taxonomy) and Table 2 (parameter glossary).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "ModelParameters": "repro.analytic.parameters",
    "single_node": "repro.analytic.single_node",
    "eager": "repro.analytic.eager",
    "lazy_group": "repro.analytic.lazy_group",
    "lazy_master": "repro.analytic.lazy_master",
    "two_tier": "repro.analytic.two_tier",
    "partial": "repro.analytic.partial",
    "dilation": "repro.analytic.dilation",
    "markov": "repro.analytic.markov",
    "markov_strategies": "repro.analytic.markov_strategies",
    "refinements": "repro.analytic.refinements",
    "fit_exponent": "repro.analytic.scaling",
    "safe_fit_exponent": "repro.analytic.scaling",
    "sweep": "repro.analytic.scaling",
    "PRESETS": "repro.analytic.presets",
    "preset": "repro.analytic.presets",
})

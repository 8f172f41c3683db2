"""Exception hierarchy for popdyn.

Public functions raise these instead of bare ValueError so callers can
distinguish contract violations (bad inputs) from runtime failures
(non-convergence, potential-function violations).
"""


class PopdynError(Exception):
    """Base class for all popdyn errors."""


class DimensionError(PopdynError, ValueError):
    """Array arguments have inconsistent shapes."""


class SimplexError(PopdynError, ValueError):
    """An allocation row is not on the probability simplex."""


class NonFiniteError(PopdynError, ValueError):
    """A model input or state array holds a NaN or infinite entry."""


class EmptyLearnerError(PopdynError):
    """A learner has (numerically) zero user mass where mass is required."""


class ConvergenceError(PopdynError):
    """An iterative minimizer failed to reach its tolerance."""


class MonotonicityError(PopdynError):
    """A supposedly risk-reducing step raised the total risk (``half``
    "total", ``index`` None), the average risk of subpopulation ``index``
    ("allocation") or the mixture risk of learner ``index`` ("learner").
    ``trial`` is the probe trial that tripped the gate, or None."""

    def __init__(self, t, before, after, tol, trial=None, half="total",
                 index=None):
        self.t = t
        self.before = before
        self.after = after
        self.tol = tol
        self.trial = trial
        self.half = half
        self.index = index
        where = f"step {t}" if trial is None else f"step {t} of trial {trial}"
        what = {"total": "total risk",
                "allocation": f"allocation update: average risk of subpopulation {index}",
                "learner": f"learner update: mixture risk of learner {index}"}[half]
        super().__init__(
            f"{what} increased at {where}: {before!r} -> {after!r} "
            f"(increase {after - before:.3e} > tolerance {tol:.1e})"
        )


class BudgetError(PopdynError):
    """Enumeration would exceed the configured assignment budget."""

    def __init__(self, required, budget):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration requires {required} assignments, budget is {budget}"
        )


class SplitError(PopdynError):
    """A learner split was requested but no learner slot is available."""


class NotOptimalError(PopdynError, ValueError):
    """Classification input state has learner parameters away from optimum."""


class ScenarioFormatError(PopdynError, ValueError):
    """A scenario or state file failed validation; message names the field."""

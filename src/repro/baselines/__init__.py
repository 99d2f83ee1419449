"""Every algorithm the paper evaluates against: Power Method, MC,
Linearization, ParSim and PRSim-lite.  Each query returns the score array;
the experiment harness times every index build and query."""


class BudgetExceeded(RuntimeError):
    """An index build would exceed its configured budget — the scaled analog
    of the paper's "omitted, exceeds 24 h" rule."""

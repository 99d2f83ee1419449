"""Every algorithm the paper evaluates against: Power Method, MC,
Linearization, ParSim and PRSim-lite."""


class BudgetExceeded(RuntimeError):
    """An index build would exceed its configured budget — the scaled analog
    of the paper's "omitted, exceeds 24 h" rule."""

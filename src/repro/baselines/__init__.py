"""Every algorithm the paper evaluates against: Power Method, MC,
Linearization, ParSim and PRSim-lite.  Each query returns the score array;
the experiment harness times every index build and query."""
import numpy as np

from repro.linalg.matvec import ranges


class BudgetExceeded(RuntimeError):
    """An index build would exceed its configured budget — the scaled analog
    of the paper's "omitted, exceeds 24 h" rule."""


def check_unit_interval(**values: float) -> None:
    """Raise ``ValueError`` unless every named value lies in ``(0, 1)``, as
    ``exactsim`` requires of its ``eps`` and ``c``."""
    for name, value in values.items():
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")


def matching_rows(keys: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The equi-join of an index's sorted ``keys`` with ``probes``.

    Returns the positions of the rows whose key equals some probe, the rows
    of each probe together and in probe order, and how many rows each probe
    matched; ``np.repeat(x, counts)`` aligns a per-probe ``x`` with the rows.
    """
    first = np.searchsorted(keys, probes, side="left")
    counts = np.searchsorted(keys, probes, side="right") - first
    return ranges(first, counts), counts

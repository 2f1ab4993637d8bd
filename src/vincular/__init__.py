"""Exact counting of circular permutations avoiding a glued pattern.

Three independent routes to the same numbers: a brute-force oracle over
all words, bottom-up recurrence tables, and closed-form generating series
truncated over exact rationals.  The ``checks`` module compares them and
the ``vincular`` command exposes everything from the shell.
"""

from .checks import REFERENCE_A, CheckResult, run_all
from .genfun import (
    A_series,
    A_vu_series,
    B11_series,
    B1u_series,
    C11_series,
    C1u_series,
    KernelSpecializationError,
    V0_series,
    V1_series,
    a_from_series,
)
from .oracle import (
    CIRCULAR_PATTERN,
    REDUCED_PATTERNS,
    count_circular_avoiders,
    count_linear_avoiders,
    oracle_report,
)
from .perms import (
    VincularPattern,
    avoids_circular,
    avoids_linear,
    iter_occurrences,
    standardize,
)
from .powerseries import Q, Series, as_int
from .tables import ConjectureReport, Tables, build_tables, check_conjectures

__all__ = [
    "A_series",
    "A_vu_series",
    "B11_series",
    "B1u_series",
    "C11_series",
    "C1u_series",
    "CheckResult",
    "CIRCULAR_PATTERN",
    "ConjectureReport",
    "KernelSpecializationError",
    "Q",
    "REDUCED_PATTERNS",
    "REFERENCE_A",
    "Series",
    "Tables",
    "V0_series",
    "V1_series",
    "VincularPattern",
    "a_from_series",
    "as_int",
    "avoids_circular",
    "avoids_linear",
    "build_tables",
    "check_conjectures",
    "count_circular_avoiders",
    "count_linear_avoiders",
    "iter_occurrences",
    "oracle_report",
    "standardize",
]

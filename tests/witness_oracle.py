"""Reference witnesses for the point-spectrum certificate, by explicit
back-substitution.

For a simultaneous triangularization (Q, [U_j]) and the fixed combination
C = sum_j g_j U_j, the witness of diagonal position i is Q y with y the
solution of the leading (i+1) x (i+1) block of (C - c_ii I) y = 0, y_i = 1
and y_k = 0 below it, normalized. Only the upper triangle of C enters. A
division by an exact zero leaves a non-finite column. The package reads the
same vectors off LAPACK's triangular eigenvector routine; this row loop is
the independent reference it is tested against.
"""

from __future__ import annotations

import numpy as np


def back_substituted_witnesses(q: np.ndarray, us, weights, kept) -> np.ndarray:
    """Unit witnesses, one column per kept diagonal position, all positions at once."""
    n = q.shape[0]
    combo = sum(gj * u for gj, u in zip(weights, us))
    shifts = np.diag(combo)[kept]
    pos = np.array(kept)
    y = np.zeros((n, len(kept)), dtype=np.complex128)
    y[pos, np.arange(len(kept))] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 2, -1, -1):
            above = pos > k
            y[k, above] = -(combo[k, k + 1 :] @ y[k + 1 :, above]) / (combo[k, k] - shifts[above])
        x = q @ y
        x /= np.linalg.norm(x, axis=0)
    return x

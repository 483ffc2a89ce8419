"""Independent optimal-transport objectives from scipy, for the traced run.

Balanced square instances with uniform marginals go to
`linear_sum_assignment` (an optimal assignment scaled by 1/n is an optimal
coupling); every other instance, partial or non-square, goes to HiGHS
`linprog`.  scipy is optional: `available()` is False without it and the
benchmark then reports the oracle as unchecked.
"""

import numpy as np

try:
    from scipy import sparse
    from scipy.optimize import linear_sum_assignment, linprog
except ImportError:  # the program itself needs numpy only
    sparse = None


def available() -> bool:
    return sparse is not None


# HiGHS's default 1e-7 feasibility tolerances can stop at a vertex about
# 1e-9 (relative) above the optimum on degenerate instances
_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _uniform(masses):
    return bool(np.all(masses == masses[0]))


def reference_objective(mu, nu, cost, alpha) -> float:
    """Minimum of <cost, pi> over couplings moving (1 - alpha) of the mass."""
    alpha = 0.0 if alpha is None else float(alpha)
    n, m = cost.shape
    if alpha == 0.0 and n == m and _uniform(mu) and _uniform(nu):
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum() * mu[0])
    # variables pi[i, j] in row-major order
    row_sums = sparse.kron(sparse.identity(n), np.ones((1, m)))
    col_sums = sparse.kron(np.ones((1, n)), sparse.identity(m))
    if alpha == 0.0:
        result = linprog(
            cost.ravel(),
            A_eq=sparse.vstack([row_sums, col_sums]).tocsr(),
            b_eq=np.concatenate([mu, nu]),
            bounds=(0, None),
            method="highs",
            options=_TIGHT,
        )
    else:
        result = linprog(
            cost.ravel(),
            A_ub=sparse.vstack([row_sums, col_sums]).tocsr(),
            b_ub=np.concatenate([mu, nu]),
            A_eq=np.ones((1, n * m)),
            b_eq=[(1.0 - alpha) * mu.sum()],
            bounds=(0, None),
            method="highs",
            options=_TIGHT,
        )
    if result.status != 0:
        raise RuntimeError(f"oracle LP failed: {result.message}")
    return float(result.fun)


def relative_gap(mu, nu, cost, alpha, matrix) -> float:
    """|ours - reference| relative to the reference (absolute when it is 0)."""
    ours = float(np.sum(matrix * cost))
    ref = reference_objective(mu, nu, cost, alpha)
    return abs(ours - ref) / (abs(ref) or 1.0)

"""Exact discrete optimal transport, partial transport, and coupling kernels.

Marginal masses are snapped to a common integer denominator and the
transport problem is solved as an integral min-cost flow (successive
shortest paths with node potentials), so returned objectives are exact
minima rather than floating-point approximations.  Unit-capacity instances
are first solved by shortest augmenting paths on the real block (k of them
when a virtual point absorbs the unmatched mass) and all others by a
transportation simplex.  Either route only proposes a plan with its duals;
`_min_cost_flow` keeps the plan when `_unique_optimum` proves it the unique
optimum, and runs the search otherwise.
"""

import graphlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Tuple

import numpy as np

from .netcore import ShapeError

MARGINAL_TOL = 1e-9
MAX_DENOMINATOR = 10**6  # of the fractions that masses and alphas are solved as


class DegenerateNeuronError(ValueError):
    """A marginal entry is zero; the caller must split or drop it first."""


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Nonnegative masses on the neurons of one layer."""

    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=np.float64)
        if m.ndim != 1:
            raise ShapeError("masses must be a vector")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("masses must be finite and nonnegative")
        if m.sum() <= 0:
            raise ValueError("total mass must be positive")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "masses", m)

    @classmethod
    def uniform(cls, n: int) -> "DiscreteMeasure":
        return cls(np.full(n, 1.0 / n))

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    def __len__(self) -> int:
        return self.masses.shape[0]


@dataclass(frozen=True, eq=False)
class Coupling:
    """Transport plan moving (1 - alpha) of the mass between two marginals.

    alpha = 0 is a full coupling: row/column sums equal the marginals.  For
    alpha > 0 the sums are only capped by the marginals, and the plan moves
    total mass (1 - alpha) * total; alpha = 1 moves nothing.
    """

    matrix: np.ndarray
    row_marginal: DiscreteMeasure
    col_marginal: DiscreteMeasure
    alpha: float = 0.0

    def __post_init__(self):
        pi = np.asarray(self.matrix, dtype=np.float64)
        if pi.shape != (len(self.row_marginal), len(self.col_marginal)):
            raise ShapeError("coupling shape does not match its marginals")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if pi.min() < 0:
            raise ValueError("coupling has negative entries")
        rows, cols = pi.sum(axis=1), pi.sum(axis=0)
        if self.alpha == 0.0:
            if np.abs(rows - self.row_marginal.masses).max() > MARGINAL_TOL:
                raise ValueError("row sums deviate from the row marginal")
            if np.abs(cols - self.col_marginal.masses).max() > MARGINAL_TOL:
                raise ValueError("column sums deviate from the column marginal")
        else:
            if np.any(rows > self.row_marginal.masses + MARGINAL_TOL):
                raise ValueError("a row sum exceeds the row marginal")
            if np.any(cols > self.col_marginal.masses + MARGINAL_TOL):
                raise ValueError("a column sum exceeds the column marginal")
            want = (1.0 - self.alpha) * self.row_marginal.total
            if abs(pi.sum() - want) > MARGINAL_TOL:
                raise ValueError(f"total transported mass {pi.sum()} != {want}")
        pi = pi.copy()
        pi.flags.writeable = False
        object.__setattr__(self, "matrix", pi)

    def matched_row_mass(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def matched_col_mass(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


@dataclass(frozen=True, eq=False)
class KernelPair:
    """Column-stochastic layer translations K_ab: A -> B and K_ba: B -> A."""

    k_ab: np.ndarray
    k_ba: np.ndarray

    def __post_init__(self):
        k_ab = np.asarray(self.k_ab, dtype=np.float64)
        k_ba = np.asarray(self.k_ba, dtype=np.float64)
        if k_ab.shape != k_ba.shape[::-1]:
            raise ShapeError("kernel shapes must be mutual transposes")
        for name, k in (("k_ab", k_ab), ("k_ba", k_ba)):
            if k.size == 0:
                continue
            if k.min() < 0:
                raise ValueError(f"{name} has negative entries")
            if np.abs(k.sum(axis=0) - 1.0).max() > MARGINAL_TOL:
                raise ValueError(f"{name} columns do not sum to 1")
        object.__setattr__(self, "k_ab", k_ab)
        object.__setattr__(self, "k_ba", k_ba)


def cost_matrix(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between feature rows."""
    xa = np.asarray(xa, dtype=np.float64)
    xb = np.asarray(xb, dtype=np.float64)
    if xa.ndim != 2 or xb.ndim != 2 or xa.shape[1] != xb.shape[1]:
        raise ShapeError("feature matrices must share their coordinate dimension")
    sq_a = np.einsum("ij,ij->i", xa, xa)
    sq_b = np.einsum("ij,ij->i", xb, xb)
    d = sq_a[:, None] - 2.0 * (xa @ xb.T) + sq_b[None, :]
    return np.maximum(d, 0.0)


# ---------------------------------------------------------------------------
# Integral reformulation


def exact_alpha(alpha: float) -> Fraction:
    """alpha in [0, 1] as its nearest fraction of denominator <= MAX_DENOMINATOR, within MARGINAL_TOL."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    frac = Fraction(float(alpha)).limit_denominator(MAX_DENOMINATOR)
    if abs(float(frac) - alpha) > MARGINAL_TOL:
        raise ValueError("alpha does not admit an exact rational representation")
    return frac


def _rationalize(masses: np.ndarray) -> Tuple[list, np.ndarray]:
    """(fracs, inverse): each distinct mass as a Fraction, and masses[i] is fracs[inverse[i]]."""
    values, inverse = np.unique(masses, return_inverse=True)
    fracs = [Fraction(float(m)).limit_denominator(MAX_DENOMINATOR) for m in values]
    err = max((abs(float(f) - float(m)) for f, m in zip(fracs, values)), default=0.0)
    if err > MARGINAL_TOL:
        raise ValueError("masses do not admit an exact small-denominator representation")
    return fracs, inverse


def _integerize_pair(
    mu: np.ndarray, nu: np.ndarray, alpha: Fraction = Fraction(0)
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Scale both mass vectors to integers over one common denominator.

    A nonzero alpha appends a virtual point of mass alpha * total to each side.
    """
    fa, ia = _rationalize(mu)
    fb, ib = _rationalize(nu)
    if alpha:
        virtual = alpha * sum(f * int(c) for f, c in zip(fa, np.bincount(ia)))
        ia, ib = np.append(ia, len(fa)), np.append(ib, len(fb))
        fa, fb = [*fa, virtual], [*fb, virtual]
    den = lcm(*{f.denominator for f in itertools.chain(fa, fb)})
    if den > 10**9:
        raise ValueError("common denominator of the marginal masses is too large")
    sup = np.array([int(f * den) for f in fa], dtype=np.int64)[ia]
    dem = np.array([int(f * den) for f in fb], dtype=np.int64)[ib]
    if sup.sum() != dem.sum():
        raise ValueError("marginal totals are not balanced")
    return sup, dem, den


UNIQUE_TOL = 1e-9


def _augment(cost: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k shortest augmenting paths on a square matrix (Jonker & Volgenant
    1987; Dell'Amico & Martello 1997 for k < n).

    Returns (col4row, u, v), col4row[i] = -1 for an unmatched row, with
    u[i] + v[j] <= cost[i, j] up to rounding, equal where j = col4row[i].
    For k = n each path starts at the next row in index order (Crouse's
    form).  For k < n every free row is a source: the free rows share one
    dual, so a column's start key is its minimum over them, kept as rows
    leave; and v starts at min(cost) everywhere, so the free columns keep
    the largest v and a search may end at whichever it reaches first.
    """
    n = cost.shape[0]
    inf = np.inf
    one = k == n
    u = np.zeros(n)
    v = np.zeros(n) if one else np.full(n, cost.min())
    col4row = [-1] * n
    row4col = [-1] * n
    free = np.ones(n, dtype=bool)
    low, arg = cost.min(axis=0), cost.argmin(axis=0)  # over the free rows
    for cur in range(k):
        # the source rows and their distances to every column
        if one:
            src, start = cur, cost[cur] - v
        else:  # the free rows, whose dual is u[arg[0]]
            src, start = free, low - v - u[arg[0]]
        key = start.copy()  # distance of each open column, inf once closed
        relaxed = [start]  # distances offered by the sources, then by each row reached
        closed, dist = [], []  # the columns in pop order, and their distances
        # a closed column's -inf dual makes its reduced cost +inf, so
        # relaxing never reopens it
        v_open = v.copy()
        rows = []  # the row matched to each closed column but the last
        while True:
            j = int(key.argmin())
            min_val = float(key[j])
            if min_val == inf:
                raise RuntimeError("assignment infeasible")
            key[j] = inf
            v_open[j] = -inf
            closed.append(j)
            dist.append(min_val)
            i = row4col[j]
            if i < 0:
                break
            rows.append(i)
            r = cost[i] - v_open
            r += min_val - u[i]
            relaxed.append(r)
            np.minimum(key, r, out=key)
        u[src] += min_val
        shortfall = min_val - np.array(dist)
        u[rows] += shortfall[:-1]
        v[closed] -= shortfall
        while j >= 0:  # augment along the path into column j
            # the row before j: the first to offer j its final distance
            t = min(range(len(relaxed)), key=lambda t: relaxed[t][j])
            i = rows[t - 1] if t else cur if one else int(arg[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
        if not one:  # row i leaves the sources
            free[i] = False
            cols = (arg == i).nonzero()[0]
            if cols.size:
                left = free.nonzero()[0]
                sub = cost[left[:, None], cols]
                low[cols], arg[cols] = sub.min(axis=0), left[sub.argmin(axis=0)]
    return np.array(col4row), u, v


def _margins(cost: np.ndarray) -> Tuple[float, float]:
    """(tol, eps) of `_unique_optimum` for this cost matrix."""
    tol = UNIQUE_TOL * max(1.0, float(np.abs(cost).max()))
    return tol, tol / (2 * sum(cost.shape))


def _unique_optimum(
    cost: np.ndarray, flow: np.ndarray, pot_a: np.ndarray, pot_b: np.ndarray
) -> bool:
    """Whether the potentials prove `flow` the unique optimum with a margin.

    With tol = UNIQUE_TOL * max(1, max|cost|), an arc is tight when its
    reduced cost is <= tol.  Another plan differs from `flow` by cycles of
    residual arcs: forward arcs, and reversed arcs that carry flow.  The
    reduced costs must be >= -eps everywhere and within eps of 0 on the
    flow arcs, with the rounding allowance eps = tol / (2 (n_a + n_b)): a
    simple cycle has at most n_a + n_b arcs, so one that uses an arc that
    is not tight costs more than tol / 2.  The residual graph of tight arcs
    has no simple directed cycle of length >= 4 exactly when each strongly
    connected component is a bidirected tree.  A flow arc can be crossed
    both ways, so every tree of flow arcs is strongly connected, and the
    condition reads: the flow arcs form a forest, no tight arc without flow
    joins two nodes of one tree, and those arcs form no directed cycle
    among the trees.  Then every other plan costs more than `flow` by over
    tol / 2.
    """
    n_a = cost.shape[0]
    tol, eps = _margins(cost)
    red = cost - pot_a[:, None] - pot_b[None, :]
    carries = flow > 0
    if not (red.min() >= -eps and np.abs(red[carries]).max() <= eps):
        return False
    root = list(range(sum(cost.shape)))  # row i is node i, column j is n_a + j

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    def arcs(mask):
        rows, cols = mask.nonzero()
        return zip(rows.tolist(), (cols + n_a).tolist())

    for i, j in arcs(carries):
        a, b = find(i), find(j)
        if a == b:  # a cycle of flow arcs
            return False
        root[a] = b
    preds = {}  # tree of a column -> trees of the rows with a tight arc into it
    for i, j in arcs((red <= tol) & ~carries):
        a, b = find(i), find(j)
        if a == b:
            return False
        preds.setdefault(b, []).append(a)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError:
        return False
    return True


def _unit_capacity(supply: np.ndarray, demand: np.ndarray) -> bool:
    """Whether the instance has unit capacity (see `_dense_flow`), with V <= m."""
    m, copies = supply.shape[0] - 1, int(supply[-1])
    if demand.shape[0] != m + 1 or not 1 <= copies <= m or int(demand[-1]) != copies:
        return False
    return not (np.any(supply[:m] != 1) or np.any(demand[:m] != 1))


def _dense_flow(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An optimal flow of a unit-capacity instance and its duals, (flow, pot_a, pot_b).

    Unit capacity: a square instance whose supplies and demands are all 1,
    except that the last node on each side may carry the same V <= m (the
    virtual point of a partial problem).  With V = 1 it is an assignment.
    With V > 1 the real m x m block is solved for k = m - V matches after
    the change of potentials c'[i, j] = c[i, j] - c[i, m] - c[m, j], which
    makes every real-to-virtual arc cost 0 and moves every plan's cost by
    the same constant; unmatched rows and columns go to the virtual point.
    """
    n = cost.shape[0]
    m, copies = n - 1, int(supply[-1])
    flow = np.zeros((n, n), dtype=np.int64)
    if copies == 1:
        col4row, pot_a, pot_b = _augment(cost, n)
        flow[np.arange(n), col4row] = 1
    else:
        to_virtual, from_virtual = cost[:m, m], cost[m, :m]
        col4row, u, v = _augment(cost[:m, :m] - to_virtual[:, None] - from_virtual, m - copies)
        flow[np.arange(m), np.where(col4row < 0, m, col4row)] = 1
        flow[m, :m] = 1
        flow[m, col4row[col4row >= 0]] = 0
        pot_a = np.append(u + to_virtual, -v[flow[m, :m] > 0].max())
        pot_b = np.append(v + from_virtual, -u[col4row < 0].max())
    return flow, pot_a, pot_b


# The simplex hands an instance to the search after this many pivots per
# node; on random and gate instances up to 400 nodes, certified solves took
# at most 1.8.
_PIVOTS_PER_NODE = 4


def _simplex_flow(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """An optimal plan of a transportation instance and its duals, (plan, pot_a, pot_b).

    Dense transportation simplex.  The basis is a spanning tree of n_a + n_b
    - 1 arcs (node n_a + j is column j).  The least-cost rule starts it: the
    cheapest open cell takes all it can and closes its row, or its column
    when the row must stay open, so a degenerate step adds a zero-flow arc
    and the tree stays spanning.  Each pivot prices every arc at once
    against the tree's potentials, brings in the most negative reduced cost
    and moves flow around its cycle in the tree.

    The tree hangs from node 0 as parent, depth and thread (preorder
    successor, with its inverse) index lists, and each arc's flow sits at
    its lower end (Glover, Klingman & Stutz, INFOR 12, 1974).  The subtree
    the leaving arc cuts off is read off the thread, rehung below the
    entering arc, and its potentials shift by that arc's reduced cost.  The
    plan and the tree's potentials are returned once no reduced cost is
    below -eps, and None after _PIVOTS_PER_NODE * (n_a + n_b) pivots.
    """
    n_a, n_b = cost.shape
    n = n_a + n_b
    _, eps = _margins(cost)
    rem_s, rem_d = supply.tolist(), demand.tolist()
    rows_open = n_a
    open_cost = cost.copy()
    start = [[] for _ in range(n)]  # the start's arcs at both ends, as (node, units)
    for _ in range(n - 1):
        i, j = divmod(int(open_cost.argmin()), n_b)
        units = min(rem_s[i], rem_d[j])
        start[i].append((n_a + j, units))
        start[n_a + j].append((i, units))
        rem_s[i] -= units
        rem_d[j] -= units
        if rem_s[i] == 0 and rows_open > 1:
            open_cost[i] = np.inf
            rows_open -= 1
        else:
            open_cost[:, j] = np.inf

    # w holds u_i at row i and -v_j at column j, so that the reduced costs
    # are cost - w_a + w_b and shifting a subtree is one add
    c = cost.tolist()
    parent, depth, up = [-1] * n, [0] * n, [0] * n  # up[x]: units on x's parent arc
    w = [0.0] * n
    order, stack = [], [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y, units in start[x]:
            if y != parent[x]:
                parent[y], depth[y], up[y] = x, depth[x] + 1, units
                w[y] = w[x] - c[x][y - n_a] if x < n_a else w[x] + c[y][x - n_a]
                stack.append(y)
    thread, prev = [0] * n, [0] * n
    for x, y in zip(order, order[1:] + order[:1]):
        thread[x], prev[y] = y, x
    w = np.array(w)
    w_a, w_b = w[:n_a, None], w[n_a:]
    red = np.empty_like(cost)

    for _ in range(_PIVOTS_PER_NODE * n):
        np.subtract(cost, w_a, out=red)
        red += w_b
        k = int(red.argmin())
        r = float(red.flat[k])
        if r >= -eps:
            nodes = np.arange(1, n)
            tops = np.array(parent[1:])
            col = nodes >= n_a
            plan = np.zeros((n_a, n_b), dtype=np.int64)
            plan[np.where(col, tops, nodes), np.where(col, nodes, tops) - n_a] = up[1:]
            return plan, w[:n_a], -w[n_a:]
        i, j = divmod(k, n_b)
        # the cycle: arc (i, j), then the tree path from column j up to the
        # common ancestor and down to row i; an arc loses flow where the
        # cycle crosses it from its column to its row
        a, b = i, n_a + j
        up_a, up_b = [], []  # from row i and from column j, each alternating sides
        while depth[a] > depth[b]:
            up_a.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            up_b.append(b)
            b = parent[b]
        while a != b:
            up_a.append(a)
            a = parent[a]
            up_b.append(b)
            b = parent[b]
        minus = up_b[::2] + up_a[::2]
        leave = min(minus, key=up.__getitem__)
        theta = up[leave]
        if theta:
            for x in minus:
                up[x] -= theta
            for x in up_b[1::2] + up_a[1::2]:
                up[x] += theta
        # the leaving arc cuts off the subtree of `leave`, which holds the
        # end q of (i, j) on its side; the stem runs from q up to `leave`
        if leave >= n_a:
            q, p, stem, shift = n_a + j, i, up_b, -r
        else:
            q, p, stem, shift = i, n_a + j, up_a, r
        stem = stem[: stem.index(leave) + 1]
        before = prev[leave]
        moves = [depth[p] + 1 + t - depth[s] for t, s in enumerate(stem)]
        for t in range(len(stem) - 1, 0, -1):
            parent[stem[t]], up[stem[t]] = stem[t - 1], up[stem[t - 1]]
        parent[q], up[q] = p, theta
        # the subtree's new preorder, threaded in after p: each stem node,
        # then its old subtree without the stem node below it
        moved = []
        last, after_p = p, thread[p]
        skip = resume = -1
        for s, move in zip(stem, moves):
            ds = depth[s]
            thread[last], prev[s] = s, last
            depth[s] = ds + move
            moved.append(s)
            last, y = s, thread[s]
            while True:
                if y == skip:
                    y = resume
                    if depth[y] <= ds:
                        break
                    thread[last], prev[y] = y, last
                elif depth[y] <= ds:
                    break
                depth[y] += move
                moved.append(y)
                last, y = y, thread[y]
            skip, resume = s, y
        if before == p:
            after_p = resume
        else:
            thread[before], prev[resume] = resume, before
        thread[last], prev[after_p] = after_p, last
        w[np.array(moved)] += shift
    return None


def _min_cost_flow(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Integral min-cost transportation via successive shortest paths.

    A unit-capacity instance (see `_dense_flow`) is first solved by k
    shortest augmenting paths on its real block (`_augment`), and any other
    one by the transportation simplex (`_simplex_flow`).  A route proposes a
    plan with its duals, and the plan is returned only when `_unique_optimum`
    certifies it as the unique optimum with a margin: the plan the search
    below would return.  The search takes every other instance, ties included.

    Node potentials keep reduced costs nonnegative so plain Dijkstra
    suffices; ties always resolve to A before B and then to the lowest node
    index, which makes the returned flow deterministic.

    Every source row sits at distance 0, so those rows pop first and in
    index order; they are relaxed together as one column-wise min, whose
    argmin keeps the first row, as the strict `<` relaxation does.  Rounding
    can leave a reduced cost below 0, and then that B node pops before the
    remaining sources: the batch is skipped when any source row but the
    last has a negative reduced cost, and the sources pop one by one.
    """
    if supply.shape != cost.shape[:1] or demand.shape != cost.shape[1:]:
        raise ShapeError("supply and demand do not match the cost matrix")
    route = _dense_flow if _unit_capacity(supply, demand) else _simplex_flow
    proposal = route(supply, demand, cost)
    if proposal is not None and _unique_optimum(cost, *proposal):
        return proposal[0]
    n_a, n_b = cost.shape
    c = cost - min(0.0, float(cost.min()))  # nonnegative, same minimizers
    flow = np.zeros((n_a, n_b), dtype=np.int64)
    rem_s = supply.astype(np.int64).copy()
    rem_d = demand.astype(np.int64).copy()
    pot_a = np.zeros(n_a)
    pot_b = np.zeros(n_b)
    inf = np.inf
    # Dijkstra keys, A nodes first so that argmin breaks ties as above;
    # finished and unreached nodes hold inf
    key = np.empty(n_a + n_b)
    key_a, key_b = key[:n_a], key[n_a:]

    while rem_s.sum() > 0:
        src = np.flatnonzero(rem_s > 0)
        dist_a = np.full(n_a, inf)
        dist_a[src] = 0.0
        par_a = np.full(n_a, -1, dtype=np.int64)  # B-node feeding each A-node
        open_a = np.ones(n_a, dtype=bool)
        open_b = np.ones(n_b, dtype=bool)
        key_a.fill(inf)
        red = (0.0 + c[src]) + pot_a[src, None] - pot_b
        if red[:-1].min(initial=0.0) < 0.0:
            dist_b = np.full(n_b, inf)
            par_b = np.full(n_b, -1, dtype=np.int64)  # A-node feeding each B-node
            key_a[src] = 0.0
        else:
            first = red.argmin(axis=0)
            dist_b = red[first, np.arange(n_b)]
            par_b = src[first]
            open_a[src] = False
        key_b[:] = dist_b
        target = -1
        while True:
            k = int(key.argmin())
            d = key[k]
            if d == inf:
                break
            key[k] = inf
            if k < n_a:
                open_a[k] = False
                nd = d + c[k] + pot_a[k] - pot_b
                # never relax into finished nodes: rounding noise on tight
                # arcs could otherwise rewrite their parents and knot the
                # walk-back path into a cycle
                better = ((nd < dist_b) & open_b).nonzero()[0]
                if better.size:
                    dist_b[better] = key_b[better] = nd[better]
                    par_b[better] = k
            else:
                ib = k - n_a
                if rem_d[ib] > 0:
                    target = ib
                    break
                open_b[ib] = False
                rows = (flow[:, ib] > 0).nonzero()[0]
                nd = d - c[rows, ib] + pot_b[ib] - pot_a[rows]
                keep = ((nd < dist_a[rows]) & open_a[rows]).nonzero()[0]
                if keep.size:
                    better = rows[keep]
                    dist_a[better] = key_a[better] = nd[keep]
                    par_a[better] = ib
        if target < 0:
            raise RuntimeError("flow network disconnected; marginals inconsistent")

        # walk back to a source, recording arcs and the bottleneck
        d_t = dist_b[target]
        path = []  # (i, j, forward?)
        j = target
        delta = rem_d[target]
        while True:
            i = int(par_b[j])
            path.append((i, j, True))
            if par_a[i] < 0:
                delta = min(delta, rem_s[i])
                break
            jprev = int(par_a[i])
            path.append((i, jprev, False))
            delta = min(delta, flow[i, jprev])
            j = jprev
        for i, jj, forward in path:
            if forward:
                flow[i, jj] += delta
            else:
                flow[i, jj] -= delta
        src = path[-1][0]
        rem_s[src] -= delta
        rem_d[target] -= delta
        pot_a += np.minimum(dist_a, d_t)
        pot_b += np.minimum(dist_b, d_t)
    return flow


def _check_cost(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: np.ndarray) -> np.ndarray:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape != (len(mu), len(nu)):
        raise ShapeError("cost matrix shape does not match the marginals")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix has non-finite entries")
    if abs(mu.total - nu.total) > 1e-12:
        raise ValueError("marginal totals differ")
    return cost


def solve_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: np.ndarray) -> Coupling:
    """Exact minimizer of <cost, pi> over couplings of mu and nu."""
    return solve_partial_ot(mu, nu, cost, 0.0)


def solve_partial_ot(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cost: np.ndarray, alpha: float
) -> Coupling:
    """Exact minimizer over couplings transporting mass (1 - alpha) * total.

    Balanced reduction: a virtual point of mass alpha * total joins each
    side, absorbing unmatched mass at zero cost; virtual-to-virtual routing
    costs max(cost) + 1 so no optimal plan ever uses it.  alpha is solved as
    `exact_alpha(alpha)`, so an alpha of at most MARGINAL_TOL is the alpha = 0 problem.
    """
    frac_alpha = exact_alpha(alpha)
    cost = _check_cost(mu, nu, cost)
    if frac_alpha == 0:
        sup, dem, den = _integerize_pair(mu.masses, nu.masses)
        return Coupling(_min_cost_flow(sup, dem, cost) / den, mu, nu)
    if alpha == 1.0:
        return Coupling(np.zeros((len(mu), len(nu))), mu, nu, 1.0)
    # shifting all real-to-real costs is argmin-preserving here because the
    # transported total is fixed; it keeps max(cost)+1 a dominating penalty
    # even when the caller passes negative (reward-derived) costs
    if cost.size and cost.min() < 0.0:
        cost = cost - cost.min()
    sup, dem, den = _integerize_pair(mu.masses, nu.masses, frac_alpha)
    big = float(cost.max()) + 1.0
    ext = np.zeros((len(mu) + 1, len(nu) + 1))
    ext[: len(mu), : len(nu)] = cost
    ext[-1, -1] = big
    flow = _min_cost_flow(sup, dem, ext)
    return Coupling(flow[: len(mu), : len(nu)] / den, mu, nu, alpha)


def coupling_to_kernels(coupling: Coupling) -> KernelPair:
    """Disintegrate a coupling into its two column-stochastic kernels."""
    mu = coupling.row_marginal.masses
    nu = coupling.col_marginal.masses
    if (mu.size and mu.min() <= 0.0) or (nu.size and nu.min() <= 0.0):
        raise DegenerateNeuronError(
            "zero-mass marginal entry; split or drop the neuron before building kernels"
        )
    pi = coupling.matrix
    return KernelPair(k_ab=(pi / mu[:, None]).T, k_ba=pi / nu[None, :])


def restrict_normalize_partial(
    partial: Coupling,
    isolated_a: Sequence[int],
    isolated_b: Sequence[int],
) -> Coupling:
    """Drop isolated rows/columns and renormalize the rest to a full coupling.

    The restricted coupling's own row/column sums become the new marginals.
    """
    n_a, n_b = partial.matrix.shape
    iso_a = np.asarray(sorted(isolated_a), dtype=np.int64)
    iso_b = np.asarray(sorted(isolated_b), dtype=np.int64)
    if iso_a.size and partial.matrix[iso_a, :].sum() > MARGINAL_TOL:
        raise ValueError("an isolated row carries transported mass")
    if iso_b.size and partial.matrix[:, iso_b].sum() > MARGINAL_TOL:
        raise ValueError("an isolated column carries transported mass")
    keep_a = np.setdiff1d(np.arange(n_a), iso_a)
    keep_b = np.setdiff1d(np.arange(n_b), iso_b)
    sub = partial.matrix[np.ix_(keep_a, keep_b)]
    if sub.size == 0:
        raise DegenerateNeuronError(f"restriction to fused neurons is empty ({sub.shape})")
    if iso_a.size or iso_b.size:
        sub = sub / sub.sum()
    return Coupling(
        sub,
        DiscreteMeasure(sub.sum(axis=1)),
        DiscreteMeasure(sub.sum(axis=0)),
    )

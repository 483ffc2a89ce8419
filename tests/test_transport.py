import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import partfuse as pf
from partfuse import transport
from partfuse.transport import DegenerateNeuronError

from oracles import brute_force_ot, integral_plans, transport_objective


def uniform(n):
    return pf.DiscreteMeasure.uniform(n)


def pairwise_sq_dist_loops(xa, xb):
    out = np.zeros((xa.shape[0], xb.shape[0]))
    for i, x in enumerate(xa):
        for j, y in enumerate(xb):
            out[i, j] = np.sum((x - y) ** 2)
    return out


class TestCostMatrix:
    def test_zero_diagonal_for_equal_inputs(self, rng):
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(np.diag(pf.cost_matrix(x, x)), 0.0, atol=1e-12)

    def test_one_dimensional_points(self):
        c = pf.cost_matrix(np.array([[0.0]]), np.array([[3.0]]))
        assert c[0, 0] == 9.0

    def test_matches_direct_expansion(self, rng):
        xa, xb = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        np.testing.assert_allclose(
            pf.cost_matrix(xa, xb), pairwise_sq_dist_loops(xa, xb), atol=1e-10
        )

    def test_swap_symmetry(self, rng):
        xa, xb = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        np.testing.assert_allclose(pf.cost_matrix(xa, xb), pf.cost_matrix(xb, xa).T)


class TestSolveOt:
    def test_two_point_swap(self):
        xa = np.array([[0.0], [1.0]])
        xb = np.array([[1.0], [0.0]])
        c = pf.solve_ot(uniform(2), uniform(2), pf.cost_matrix(xa, xb))
        np.testing.assert_allclose(c.matrix, [[0.0, 0.5], [0.5, 0.0]])
        assert transport_objective(c.matrix, pf.cost_matrix(xa, xb)) == 0.0

    def test_zero_cost_any_feasible(self):
        c = pf.solve_ot(uniform(3), uniform(3), np.zeros((3, 3)))
        assert transport_objective(c.matrix, np.zeros((3, 3))) == 0.0

    def test_uniform_matches_permutation_enumeration(self, rng):
        cost = rng.normal(size=(5, 5))
        c = pf.solve_ot(uniform(5), uniform(5), cost)
        bf_obj, _ = brute_force_ot(uniform(5), uniform(5), cost)
        assert abs(transport_objective(c.matrix, cost) - bf_obj) <= 1e-9

    def test_rational_masses_against_brute_force(self):
        mu = pf.DiscreteMeasure(np.array([2 / 3, 1 / 3]))
        nu = pf.DiscreteMeasure(np.array([1 / 3, 2 / 3]))
        cost = np.array([[1.0, 5.0], [2.0, 0.5]])
        c = pf.solve_ot(mu, nu, cost)
        bf_obj, _ = brute_force_ot(mu, nu, cost)
        assert abs(transport_objective(c.matrix, cost) - bf_obj) <= 1e-12

    def test_unbalanced_totals_rejected(self):
        mu = pf.DiscreteMeasure(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            pf.solve_ot(mu, uniform(2), np.zeros((2, 2)))

    def test_unequal_sizes(self, rng):
        cost = rng.random((2, 4))
        c = pf.solve_ot(uniform(2), uniform(4), cost)
        bf_obj, _ = brute_force_ot(uniform(2), uniform(4), cost)
        assert abs(transport_objective(c.matrix, cost) - bf_obj) <= 1e-9

    def test_constant_cost_shift_keeps_coupling(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cost = rng.normal(size=(5, 5))
            base = pf.solve_ot(uniform(5), uniform(5), cost)
            shifted = pf.solve_ot(uniform(5), uniform(5), cost + 7.25)
            np.testing.assert_array_equal(base.matrix, shifted.matrix)


class TestPartialOt:
    def test_alpha_zero_equals_full(self, rng):
        cost = rng.random((4, 4))
        full = pf.solve_ot(uniform(4), uniform(4), cost)
        part = pf.solve_partial_ot(uniform(4), uniform(4), cost, 0.0)
        assert abs(
            transport_objective(full.matrix, cost) - transport_objective(part.matrix, cost)
        ) <= 1e-9

    def test_alpha_one_is_zero_matrix(self, rng):
        part = pf.solve_partial_ot(uniform(3), uniform(3), rng.random((3, 3)), 1.0)
        np.testing.assert_array_equal(part.matrix, np.zeros((3, 3)))

    def test_outlier_pair_left_isolated(self):
        # points 0, 1, 2 on each side but the pair (2, 2) is priced out
        cost = pf.cost_matrix(np.array([[0.0], [1.0], [50.0]]), np.array([[0.0], [1.0], [-50.0]]))
        part = pf.solve_partial_ot(uniform(3), uniform(3), cost, 1.0 / 3.0)
        assert part.matrix[2, :].sum() <= 1e-12
        assert part.matrix[:, 2].sum() <= 1e-12
        # the reduction's balanced instance is itself enumerable
        big = cost.max() + 1.0
        ext = np.zeros((4, 4))
        ext[:3, :3] = cost
        ext[3, 3] = big
        mu_ext = pf.DiscreteMeasure(np.array([1 / 3, 1 / 3, 1 / 3, 1 / 3]))
        bf_obj, _ = brute_force_ot(mu_ext, mu_ext, ext)
        assert abs(transport_objective(part.matrix, cost) - bf_obj) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_partial_invariants(self, alpha, rng):
        for _ in range(5):
            cost = rng.random((5, 5))
            part = pf.solve_partial_ot(uniform(5), uniform(5), cost, alpha)
            assert np.all(part.matched_row_mass() <= 0.2 + 1e-9)
            assert np.all(part.matched_col_mass() <= 0.2 + 1e-9)
            assert abs(part.matrix.sum() - (1.0 - alpha)) <= 1e-9

    def test_objective_monotone_in_alpha(self, rng):
        cost = rng.random((6, 6))
        objs = [
            transport_objective(
                pf.solve_partial_ot(uniform(6), uniform(6), cost, a).matrix, cost
            )
            for a in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(objs[i + 1] <= objs[i] + 1e-12 for i in range(len(objs) - 1))

    def test_negative_costs_still_feasible(self, rng):
        # reward-style costs: the reduction must not leak mass into the
        # virtual corner even when entries are negative
        cost = -rng.random((4, 4)) * 10.0
        part = pf.solve_partial_ot(uniform(4), uniform(4), cost, 0.5)
        assert abs(part.matrix.sum() - 0.5) <= 1e-9

    def test_invalid_alpha(self, rng):
        with pytest.raises(ValueError):
            pf.solve_partial_ot(uniform(2), uniform(2), rng.random((2, 2)), 1.5)

    @pytest.mark.parametrize("alpha", [1e-12, 5e-10])
    @pytest.mark.parametrize("nu", [[0.2] * 5, [0.1, 0.3, 0.2, 0.25, 0.15]], ids=["unit", "weighted"])
    def test_alpha_that_rounds_to_zero_is_the_full_solve(self, rng, alpha, nu):
        # the nearest fraction with denominator <= 10**6 is 0: no virtual point
        mu, nu = uniform(5), pf.DiscreteMeasure(np.array(nu))
        cost = rng.random((5, 5))
        part = pf.solve_partial_ot(mu, nu, cost, alpha)
        np.testing.assert_array_equal(part.matrix, pf.solve_ot(mu, nu, cost).matrix)


class TestKernels:
    def test_identity_coupling(self):
        c = pf.Coupling(0.5 * np.eye(2), uniform(2), uniform(2))
        kp = pf.coupling_to_kernels(c)
        np.testing.assert_allclose(kp.k_ab, np.eye(2))
        np.testing.assert_allclose(kp.k_ba, np.eye(2))

    def test_swap_coupling(self):
        pi = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
        kp = pf.coupling_to_kernels(pf.Coupling(pi, uniform(2), uniform(2)))
        anti = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(kp.k_ab, anti)
        np.testing.assert_allclose(kp.k_ba, anti)

    def test_random_coupling_columns_stochastic(self, rng):
        cost = rng.random((5, 7))
        c = pf.solve_ot(uniform(5), uniform(7), cost)
        kp = pf.coupling_to_kernels(c)
        np.testing.assert_allclose(kp.k_ab.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(kp.k_ba.sum(axis=0), 1.0, atol=1e-12)
        # mass-weighted reconstruction
        np.testing.assert_allclose(
            kp.k_ba * c.col_marginal.masses[None, :], c.matrix, atol=1e-12
        )

    def test_zero_marginal_rejected(self):
        mu = pf.DiscreteMeasure(np.array([1.0, 0.0]))
        pi = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = pf.Coupling(pi, mu, pf.DiscreteMeasure(np.array([1.0, 0.0])))
        with pytest.raises(DegenerateNeuronError):
            pf.coupling_to_kernels(c)


class TestRestrictNormalize:
    def test_drops_empty_row_and_column(self):
        pi = np.array([[0.4, 0.0, 0.0], [0.0, 0.0, 0.35], [0.0, 0.0, 0.0]])
        part = pf.Coupling(
            pi, pf.DiscreteMeasure(np.array([0.4, 0.35, 0.25])),
            pf.DiscreteMeasure(np.array([0.4, 0.25, 0.35])), alpha=0.25,
        )
        coupling = pf.restrict_normalize_partial(part, [2], [1])
        assert coupling.matrix.shape == (2, 2)
        assert coupling.matrix.sum() == pytest.approx(1.0, abs=1e-12)

    def test_alpha_zero_identity(self, rng):
        cost = rng.random((4, 4))
        part = pf.solve_partial_ot(uniform(4), uniform(4), cost, 0.0)
        coupling = pf.restrict_normalize_partial(part, [], [])
        np.testing.assert_array_equal(coupling.matrix, part.matrix)

    def test_marginals_sum_to_one(self, rng):
        cost = rng.random((4, 4))
        part = pf.solve_partial_ot(uniform(4), uniform(4), cost, 0.25)
        iso_a = np.flatnonzero(part.matched_row_mass() <= 1e-12)
        iso_b = np.flatnonzero(part.matched_col_mass() <= 1e-12)
        coupling = pf.restrict_normalize_partial(part, iso_a.tolist(), iso_b.tolist())
        assert coupling.row_marginal.total == pytest.approx(1.0, abs=1e-9)
        assert coupling.col_marginal.total == pytest.approx(1.0, abs=1e-9)

    def test_mass_on_isolated_row_rejected(self):
        pi = np.full((2, 2), 0.25)
        part = pf.Coupling(pi, uniform(2), uniform(2), alpha=0.0)
        with pytest.raises(ValueError, match="isolated"):
            pf.restrict_normalize_partial(part, [0], [])

    def test_every_row_isolated_is_degenerate(self):
        part = pf.Coupling(np.zeros((2, 2)), uniform(2), uniform(2), alpha=1.0)
        with pytest.raises(transport.DegenerateNeuronError, match="empty"):
            pf.restrict_normalize_partial(part, [0, 1], [])


class TestBruteForce:
    def test_single_point(self):
        obj, plan = brute_force_ot(uniform(1), uniform(1), np.array([[3.5]]))
        assert obj == pytest.approx(3.5)
        np.testing.assert_allclose(plan, [[1.0]])

    def test_uniform_four_points(self, rng):
        cost = rng.normal(size=(4, 4))
        obj, plan = brute_force_ot(uniform(4), uniform(4), cost)
        assert abs(transport_objective(plan, cost) - obj) <= 1e-12

    def test_thirds_masses(self):
        mu = pf.DiscreteMeasure(np.array([2 / 3, 1 / 3]))
        nu = pf.DiscreteMeasure(np.array([1 / 3, 2 / 3]))
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        obj, plan = brute_force_ot(mu, nu, cost)
        # optimum keeps mass on the diagonal: 1/3 must still cross
        assert obj == pytest.approx(1 / 3)
        np.testing.assert_allclose(plan, [[1 / 3, 1 / 3], [0.0, 1 / 3]], atol=1e-12)


class TestOracleAgreement:
    def test_solver_matches_brute_force_on_random_instances(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            cost = rng.normal(size=(n, n))
            c = pf.solve_ot(uniform(n), uniform(n), cost)
            bf_obj, _ = brute_force_ot(uniform(n), uniform(n), cost)
            assert abs(transport_objective(c.matrix, cost) - bf_obj) <= 1e-9

    def test_solver_matches_brute_force_on_rational_instances(self):
        # small denominators keep the integral enumeration tractable
        mu = pf.DiscreteMeasure(np.array([0.5, 0.5]))
        nu = pf.DiscreteMeasure(np.array([1 / 3, 1 / 3, 1 / 3]))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cost = rng.normal(size=(2, 3))
            c = pf.solve_ot(mu, nu, cost)
            bf_obj, _ = brute_force_ot(mu, nu, cost)
            assert abs(transport_objective(c.matrix, cost) - bf_obj) <= 1e-9


def _reference_rationalize(masses, max_denominator=10**6):
    """Integerization one entry at a time: the gate for the per-distinct-mass version."""
    fracs = [Fraction(float(m)).limit_denominator(max_denominator) for m in masses]
    err = max((abs(float(f) - float(m)) for f, m in zip(fracs, masses)), default=0.0)
    if err > transport.MARGINAL_TOL:
        raise ValueError("masses do not admit an exact small-denominator representation")
    return fracs


def _reference_integerize_pair(mu, nu, alpha=Fraction(0)):
    fa = _reference_rationalize(mu)
    fb = _reference_rationalize(nu)
    if alpha:
        virtual = alpha * sum(fa)
        fa, fb = [*fa, virtual], [*fb, virtual]
    den = 1
    for f in [*fa, *fb]:
        den = den * f.denominator // math.gcd(den, f.denominator)
        if den > 10**9:
            raise ValueError("common denominator of the marginal masses is too large")
    sup = np.array([int(f * den) for f in fa], dtype=np.int64)
    dem = np.array([int(f * den) for f in fb], dtype=np.int64)
    if sup.sum() != dem.sum():
        raise ValueError("marginal totals are not balanced")
    return sup, dem, den


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _mass_vectors():
    rng = np.random.default_rng(7)
    for n in (1, 3, 32, 45, 64, 100, 140):
        yield np.full(n, 1.0 / n)
    for n in (5, 12, 60):
        w = rng.integers(1, 5, size=n).astype(float)
        yield w / w.sum()
    # a split neuron: masses 1/45 and a partly matched copy pair
    yield np.array([1 / 45] * 43 + [1 / 90, 1 / 90])
    yield np.array([1 / 3, 1 / 140, 1 / 3, 1 / 45, 1 / 3 - 1 / 140 - 1 / 45])


class TestIntegerization:
    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 4), Fraction(2, 5), Fraction(1, 3)])
    def test_matches_per_entry_reference_bitwise(self, alpha):
        vectors = list(_mass_vectors())
        for mu in vectors:
            fracs, inverse = transport._rationalize(mu)
            assert [fracs[i] for i in inverse] == _reference_rationalize(mu)
            for nu in vectors:
                got = _outcome(transport._integerize_pair, mu, nu, alpha)
                want = _outcome(_reference_integerize_pair, mu, nu, alpha)
                if isinstance(want, str):
                    assert got == want
                    continue
                assert got[2] == want[2]
                for g, w in zip(got[:2], want[:2]):
                    assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("mu, nu, message", [
        ([1e-7, 1 - 1e-7], [0.5, 0.5], "small-denominator representation"),
        ([0.5, 0.5], [1 / 3, 1e-7, 2 / 3 - 1e-7], "small-denominator representation"),
        ([1 / 999983, 1 - 1 / 999983], [1 / 999979, 1 - 1 / 999979], "denominator of the marginal"),
        ([1 / 3, 2 / 3], [0.5, 0.25], "not balanced"),
    ])
    def test_errors_match_the_reference(self, mu, nu, message):
        mu, nu = np.array(mu), np.array(nu)
        want = _outcome(_reference_integerize_pair, mu, nu)
        assert isinstance(want, str) and message in want
        assert _outcome(transport._integerize_pair, mu, nu) == want


def _reference_min_cost_flow(supply, demand, cost):
    """The successive-shortest-path solver before its source rows were
    relaxed as one batch: every source pops on its own, and each pop scans
    both sides with np.where.  The reference for bitwise-equal flows."""
    n_a, n_b = cost.shape
    c = cost - min(0.0, float(cost.min()))
    flow = np.zeros((n_a, n_b), dtype=np.int64)
    rem_s = supply.astype(np.int64).copy()
    rem_d = demand.astype(np.int64).copy()
    pot_a = np.zeros(n_a)
    pot_b = np.zeros(n_b)
    inf = np.inf

    while rem_s.sum() > 0:
        dist_a = np.where(rem_s > 0, 0.0, inf)
        dist_b = np.full(n_b, inf)
        par_b = np.full(n_b, -1, dtype=np.int64)
        par_a = np.full(n_a, -1, dtype=np.int64)
        done_a = np.zeros(n_a, dtype=bool)
        done_b = np.zeros(n_b, dtype=bool)
        target = -1
        while True:
            da = np.where(done_a, inf, dist_a)
            ia = int(np.argmin(da))
            db = np.where(done_b, inf, dist_b)
            ib = int(np.argmin(db))
            if da[ia] >= inf and db[ib] >= inf:
                break
            if da[ia] <= db[ib]:
                done_a[ia] = True
                nd = da[ia] + c[ia] + pot_a[ia] - pot_b
                better = (nd < dist_b) & ~done_b
                if better.any():
                    dist_b[better] = nd[better]
                    par_b[better] = ia
            else:
                if rem_d[ib] > 0:
                    target = ib
                    break
                done_b[ib] = True
                back = flow[:, ib] > 0
                if back.any():
                    nd = np.where(back, db[ib] - c[:, ib] + pot_b[ib] - pot_a, inf)
                    better = (nd < dist_a) & ~done_a
                    if better.any():
                        dist_a[better] = nd[better]
                        par_a[better] = ib
        if target < 0:
            raise RuntimeError("flow network disconnected; marginals inconsistent")

        d_t = dist_b[target]
        path = []
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


def _instance_cost(rng, kind, n_a, n_b, odd):
    """A cost matrix of one of the seven instance kinds."""
    if kind == 6:  # separable: every plan is optimal, rounding breaks the ties
        u, v = rng.integers(0, 10, size=n_a) / 10, rng.integers(0, 10, size=n_b) / 10
        return u[:, None] + v[None, :] + 0.1 * odd * rng.integers(0, 2, size=(n_a, n_b))
    if kind == 0:
        return rng.normal(size=(n_a, n_b))
    if kind == 1:  # many ties
        return rng.integers(0, 3, size=(n_a, n_b)).astype(float)
    if kind == 2:  # duplicated rows
        rows = rng.normal(size=(max(1, n_a // 2), n_b)).round(1)
        return rows[rng.integers(0, rows.shape[0], size=n_a)]
    if kind == 3:  # negative, reward-style
        return -rng.exponential(size=(n_a, n_b))
    if kind == 4:  # squared distances between grid points
        return pf.cost_matrix(
            rng.integers(0, 3, size=(n_a, 2)).astype(float),
            rng.integers(0, 3, size=(n_b, 2)).astype(float),
        )
    return 10.0 * rng.normal(size=(n_a, n_b)).round(1)


def _network(mu, nu, cost, alpha):
    """The (supply, demand, cost) flow network solve_partial_ot builds."""
    if not alpha:
        sup, dem, _ = transport._integerize_pair(mu, nu)
        return sup, dem, cost
    if cost.min() < 0.0:
        cost = cost - cost.min()
    n_a, n_b = cost.shape
    sup, dem, _ = transport._integerize_pair(mu, nu, alpha)
    ext = np.zeros((n_a + 1, n_b + 1))
    ext[:n_a, :n_b] = cost
    ext[-1, -1] = cost.max() + 1.0
    return sup, dem, ext


def _flow_instance(seed):
    """(supply, demand, cost) exactly as solve_ot / solve_partial_ot build it."""
    rng = np.random.default_rng(seed)
    kind = seed % 7
    big = seed % 50 == 49  # sweep-sized: non-square, larger denominators
    lo, hi = (30, 65) if big else (2, 31) if kind == 6 else (1, 14)
    n_a, n_b = int(rng.integers(lo, hi)), int(rng.integers(lo, hi))
    cost = _instance_cost(rng, kind, n_a, n_b, seed % 2)
    if big or rng.random() < 0.5:
        mu, nu = np.full(n_a, 1.0 / n_a), np.full(n_b, 1.0 / n_b)
    else:
        a = rng.integers(1, 5, size=n_a).astype(float)
        b = rng.integers(1, 5, size=n_b).astype(float)
        mu, nu = a / a.sum(), b / b.sum()
    alpha = (Fraction(0), Fraction(1, 4), Fraction(2, 5))[seed % 3]
    return _network(mu, nu, cost, alpha)


def _unit_instance(seed):
    """A square unit-capacity instance: uniform masses, n up to 100, alpha * n integral."""
    rng = np.random.default_rng(seed)
    kind = seed % 7
    alpha = (Fraction(0), Fraction(1, 4), Fraction(2, 5))[seed % 3]
    step = alpha.denominator
    top = 100 if seed % 20 == 19 else 30
    n = step * int(rng.integers(-(-2 // step), top // step + 1))
    cost = _instance_cost(rng, kind, n, n, seed % 2)
    mu = np.full(n, 1.0 / n)
    return kind, _network(mu, mu, cost, alpha)


def _lines_run(func, *args):
    """Line numbers of func's own code that a call executes."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    def outer(frame, event, arg):
        return local if frame.f_code is func.__code__ else None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        func(*args)
    finally:
        sys.settrace(previous)
    return seen


class TestMinCostFlowReference:
    def test_flows_match_reference_bitwise(self):
        for seed in range(320):
            sup, dem, cost = _flow_instance(seed)
            np.testing.assert_array_equal(
                transport._min_cost_flow(sup, dem, cost),
                _reference_min_cost_flow(sup, dem, cost),
                err_msg=f"instance {seed}",
            )

    def test_rejects_supply_or_demand_that_do_not_match_the_cost(self):
        ones = np.ones(3, dtype=np.int64)
        for sup, dem in ((ones, np.ones(4, dtype=np.int64)), (np.ones(4, dtype=np.int64), ones)):
            with pytest.raises(transport.ShapeError, match="do not match the cost"):
                transport._min_cost_flow(sup, dem, np.zeros((4, 4)))

    def test_negative_reduced_cost_skips_the_batch(self):
        # a separable instance on which rounding leaves a source row other
        # than the last with a reduced cost below 0, so a B node pops between
        # the sources; relaxing every source in one batch would change the flow
        sup, dem, cost = _flow_instance(1119)
        lines, start = inspect.getsourcelines(transport._min_cost_flow)
        fallback = start + next(k for k, text in enumerate(lines) if "key_a[src] = 0.0" in text)
        assert fallback in _lines_run(transport._min_cost_flow, sup, dem, cost)
        np.testing.assert_array_equal(
            transport._min_cost_flow(sup, dem, cost), _reference_min_cost_flow(sup, dem, cost)
        )


def _record_certified(monkeypatch, route):
    """Wrap transport's `route`: per call, whether `_unique_optimum` accepts its proposal."""
    taken = []
    propose = getattr(transport, route)
    unique_optimum = transport._unique_optimum

    def recording(supply, demand, cost):
        proposal = propose(supply, demand, cost)
        taken.append(proposal is not None and unique_optimum(cost, *proposal))
        return proposal

    monkeypatch.setattr(transport, route, recording)
    return taken


TIE_INSTANCES = 12


def _tie_cost(seed):
    """A 100 x 100 cost with ties: B copies 20 of A's neurons and has a dead
    one; A has a dead one too (kinds 1-3), two (kind 2) or a duplicated one
    (kind 3)."""
    rng = np.random.default_rng(seed)
    xa, xb = rng.normal(size=(100, 20)), rng.normal(size=(100, 20))
    kind = seed % 4
    xb[:20], xb[99] = xa[:20], 0.0
    if kind:
        xa[99] = 0.0
    if kind == 2:
        xa[98] = 0.0
    if kind == 3:
        xa[97] = xa[21]
    return pf.cost_matrix(xa, xb)


# the most units an enumerated instance holds: at most 27,845 plans each
ENUMERATED_UNITS = 15


class TestDensePath:
    @pytest.fixture
    def taken(self, monkeypatch):
        """Per _dense_flow call: whether its proposal was certified."""
        return _record_certified(monkeypatch, "_dense_flow")

    def test_an_uncertified_proposal_goes_to_the_search(self, monkeypatch):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        ones = np.ones(2, dtype=np.int64)
        anti = np.array([[0, 1], [1, 0]])
        monkeypatch.setattr(transport, "_dense_flow", lambda *args: (anti, np.zeros(2), np.zeros(2)))
        np.testing.assert_array_equal(
            transport._min_cost_flow(ones, ones, cost), _reference_min_cost_flow(ones, ones, cost)
        )

    def test_unit_instances_match_reference_bitwise(self, taken):
        dense = {kind: 0 for kind in range(7)}
        total = dict(dense)
        for seed in range(336):
            kind, (sup, dem, cost) = _unit_instance(seed)
            np.testing.assert_array_equal(
                transport._min_cost_flow(sup, dem, cost),
                _reference_min_cost_flow(sup, dem, cost),
                err_msg=f"unit instance {seed}",
            )
            dense[kind] += taken[-1]
            total[kind] += 1
        assert dense[0] == total[0]  # random costs: a unique optimum
        assert dense[2] == 0  # duplicated rows: always a tie
        assert 0 < sum(dense.values()) < sum(total.values())

    def test_virtual_costs_match_reference_bitwise(self, taken):
        """Legal input that solve_partial_ot never builds: the virtual row and
        column cost something, and the virtual-virtual arc is a penalty on
        even seeds and cheaper than every other arc on odd ones."""
        dense = {(kind, cheap): 0 for kind in range(7) for cheap in (0, 1)}
        total = dict(dense)
        for seed in range(336):
            kind, (sup, dem, cost) = _unit_instance(seed)
            if sup[-1] == 1:  # no virtual point
                continue
            rng = np.random.default_rng(seed)
            cost = cost.copy()
            cost[-1], cost[:, -1] = rng.normal(size=len(sup)), rng.normal(size=len(sup))
            cheap = seed % 2
            cost[-1, -1] = cost.min() - 1.0 if cheap else cost.max() + 1.0
            np.testing.assert_array_equal(
                transport._min_cost_flow(sup, dem, cost),
                _reference_min_cost_flow(sup, dem, cost),
                err_msg=f"unit instance {seed}",
            )
            dense[kind, cheap] += taken[-1]
            total[kind, cheap] += 1
        for kind in (0, 3, 5):  # a unique optimum that leaves the penalty arc empty
            assert dense[kind, 0] == total[kind, 0] > 0
        assert dense[5, 1] > 0  # a cheap arc that stays empty is still certified

    def test_non_unit_instances_skip_the_assignment(self, monkeypatch):
        def never(cost, k):
            raise AssertionError("a non-unit instance entered the dense path")

        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 20))
        cases = [(64, 32, 0.0), (32, 32, 0.4), (5, 5, 1 / 3)]
        want = [pf.solve_partial_ot(uniform(a), uniform(b), pf.cost_matrix(x[:a], x[:b]), alpha)
                for a, b, alpha in cases]
        monkeypatch.setattr(transport, "_augment", never)
        for (a, b, alpha), plan in zip(cases, want):
            got = pf.solve_partial_ot(uniform(a), uniform(b), pf.cost_matrix(x[:a], x[:b]), alpha)
            np.testing.assert_array_equal(got.matrix, plan.matrix)

    def test_ties_are_not_certified(self):
        flow = np.eye(2, dtype=np.int64)
        zero = np.zeros(2)
        assert transport._unique_optimum(np.array([[0.0, 1.0], [1.0, 0.0]]), flow, zero, zero)
        assert not transport._unique_optimum(np.zeros((2, 2)), flow, zero, zero)
        # a three-node star through a virtual point carrying two units is a tree
        star = np.array([[0, 1], [1, 1]])
        cost = np.array([[5.0, 0.0], [0.0, 9.0]])
        assert transport._unique_optimum(cost, star, np.array([-9.0, 0.0]), np.array([0.0, 9.0]))
        # a cycle of flow arcs: flow can move around it at no cost
        cost = np.array([[1.0, 2.0], [3.0, 4.0]])
        full = np.ones((2, 2), dtype=np.int64)
        assert not transport._unique_optimum(cost, full, np.array([0.0, 2.0]), np.array([1.0, 2.0]))
        # one flow tree c0-r0-c1-r1, with the arc (r1, c0) inside it tight or not
        path = np.array([[1, 1], [0, 1]])
        assert not transport._unique_optimum(np.zeros((2, 2)), path, zero, zero)
        assert transport._unique_optimum(np.array([[0.0, 0.0], [1.0, 0.0]]), path, zero, zero)
        # three one-arc trees: tight arcs without flow from tree 0 to 1 and
        # from 1 to 2 form no cycle, and one from 2 to 0 closes it
        chain = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        eye, zero = np.eye(3, dtype=np.int64), np.zeros(3)
        assert transport._unique_optimum(chain, eye, zero, zero)
        chain[2, 0] = 0.0
        assert not transport._unique_optimum(chain, eye, zero, zero)

    def test_certified_plans_are_unique_minima(self, monkeypatch):
        """Soundness: each plan _unique_optimum accepts on a small instance is
        its unique integral optimum, and every other plan costs over tol / 2 more."""
        seen = []
        unique_optimum = transport._unique_optimum

        def recording(cost, flow, pot_a, pot_b):
            seen.append((cost, flow, unique_optimum(cost, flow, pot_a, pot_b)))
            return seen[-1][2]

        monkeypatch.setattr(transport, "_unique_optimum", recording)
        instances = [_flow_instance(seed) for seed in range(1400)]
        instances += [_unit_instance(seed)[1] for seed in range(672)]
        for sup, dem, cost in instances:
            if max(cost.shape) <= 5 and sup.sum() <= ENUMERATED_UNITS:
                transport._min_cost_flow(sup, dem, cost)
        for cost, flow, certified in seen:
            if certified:
                plans = np.array(integral_plans(flow.sum(axis=1), flow.sum(axis=0)))
                costs = (plans * cost).sum(axis=(1, 2))
                own = (plans == flow).all(axis=(1, 2))
                tol, _ = transport._margins(cost)
                assert own.sum() == 1 and (costs[~own] > costs[own] + tol / 2).all()
        certified = sum(c for _, _, c in seen)
        assert 100 < len(seen) and 0 < certified < len(seen)

    def test_ties_at_working_size_match_reference_bitwise(self, taken):
        for seed in range(TIE_INSTANCES):
            alpha = (Fraction(0), Fraction(1, 4), Fraction(2, 5))[seed % 3]
            mu = np.full(100, 0.01)
            sup, dem, cost = _network(mu, mu, _tie_cost(seed), alpha)
            np.testing.assert_array_equal(
                transport._min_cost_flow(sup, dem, cost),
                _reference_min_cost_flow(sup, dem, cost),
                err_msg=f"seed {seed}",
            )
        assert len(taken) == TIE_INSTANCES and 0 < sum(taken) < TIE_INSTANCES

    @pytest.mark.parametrize("n", [100, 200, 400])
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.4])
    def test_duals_certify_at_working_sizes(self, monkeypatch, n, alpha):
        """Feasible, complementary-slack duals, and the plan linear_sum_assignment finds."""
        optimize = pytest.importorskip("scipy.optimize")
        seen = []
        unique_optimum = transport._unique_optimum

        def recording(cost, flow, pot_a, pot_b):
            seen.append((cost, flow, pot_a, pot_b))
            return unique_optimum(cost, flow, pot_a, pot_b)

        monkeypatch.setattr(transport, "_unique_optimum", recording)
        rng = np.random.default_rng(n)
        cost = pf.cost_matrix(rng.normal(size=(n, 101)), rng.normal(size=(n, 101)))
        plan = pf.solve_partial_ot(uniform(n), uniform(n), cost, alpha).matrix
        (ext, flow, pot_a, pot_b), = seen
        assert unique_optimum(ext, flow, pot_a, pot_b)  # the dense path returned the plan
        eps = 1e-9 * max(1.0, np.abs(ext).max()) / (4 * ext.shape[0])
        red = ext - pot_a[:, None] - pot_b[None, :]
        assert red.min() >= -eps
        assert np.abs(red[flow > 0]).max() <= eps
        assert np.array_equal(plan, flow[:n, :n] / n)
        # the same plan as scipy on the assignment with the virtual point's
        # copies spelled out: zero cost to reach them, a penalty among them
        copies = round(alpha * n)
        full = np.zeros((n + copies, n + copies))
        full[:n, :n] = cost
        full[n:, n:] = cost.max() + 1.0
        rows, cols = optimize.linear_sum_assignment(full)
        real = (rows < n) & (cols < n)
        want = np.zeros((n, n))
        want[rows[real], cols[real]] = 1.0 / n
        assert np.array_equal(plan, want)


@pytest.mark.parametrize("seed", range(7))
def test_more_virtual_units_than_real_nodes_match_reference(seed):
    """A unit-shaped instance with V > m, which solve_partial_ot never builds:
    the virtual-virtual arc must carry V - m units, so it is not unit capacity."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 8))
    supply = np.append(np.ones(m, dtype=np.int64), m + int(rng.integers(1, 4)))
    cost = _instance_cost(rng, seed, m + 1, m + 1, seed % 2)
    assert not transport._unit_capacity(supply, supply)
    np.testing.assert_array_equal(
        transport._min_cost_flow(supply, supply.copy(), cost),
        _reference_min_cost_flow(supply, supply.copy(), cost),
    )


def _sweep_instance(n_a, n_b, alpha, copied, seed):
    """A sweep-shaped flow network: B's first `copied` feature rows copy A's,
    as prune-post fuses an ensemble onto its pruned copy."""
    rng = np.random.default_rng(seed)
    xa = rng.normal(size=(n_a, 20))
    xb = np.vstack([xa[:copied], rng.normal(size=(n_b - copied, 20))])
    mu, nu = np.full(n_a, 1.0 / n_a), np.full(n_b, 1.0 / n_b)
    return _network(mu, nu, pf.cost_matrix(xa, xb), Fraction(alpha).limit_denominator())


SWEEP_CERTIFIED_FLOOR = 30  # of the 30 instances below


class TestSimplexPath:
    @pytest.fixture
    def taken(self, monkeypatch):
        """Per _simplex_flow call: whether its proposal was certified."""
        return _record_certified(monkeypatch, "_simplex_flow")

    def test_an_uncertified_proposal_goes_to_the_search(self, monkeypatch):
        sup, dem, cost = _flow_instance(1)
        assert not transport._unit_capacity(sup, dem)
        worst = _reference_min_cost_flow(sup, dem, -cost)  # feasible, not optimal
        want = _reference_min_cost_flow(sup, dem, cost)
        assert not np.array_equal(worst, want)
        zero_a, zero_b = np.zeros(cost.shape[0]), np.zeros(cost.shape[1])
        monkeypatch.setattr(transport, "_simplex_flow", lambda *args: (worst, zero_a, zero_b))
        np.testing.assert_array_equal(transport._min_cost_flow(sup, dem, cost), want)

    def test_non_unit_instances_match_reference_bitwise(self, taken):
        simplex = {kind: 0 for kind in range(7)}
        total = dict(simplex)
        for seed in range(320):
            sup, dem, cost = _flow_instance(seed)
            if transport._unit_capacity(sup, dem):
                continue
            np.testing.assert_array_equal(
                transport._min_cost_flow(sup, dem, cost),
                _reference_min_cost_flow(sup, dem, cost),
                err_msg=f"instance {seed}",
            )
            simplex[seed % 7] += taken[-1]
            total[seed % 7] += 1
        assert len(taken) == sum(total.values())
        assert simplex[0] == total[0] > 0  # random costs: a unique optimum
        assert simplex[3] == total[3] > 0  # negative rewards
        assert simplex[6] == 0  # separable: every plan ties

    @pytest.mark.parametrize("n_a, n_b, alpha, copied, seed", [
        (64, 45, 0, 0, 1), (64, 45, 0, 45, 2), (64, 32, 0, 0, 3), (64, 32, 0, 32, 4),
        (32, 32, 0.4, 0, 5), (32, 32, 0.4, 16, 6),
    ])
    def test_sweep_shapes_match_reference_bitwise(self, taken, n_a, n_b, alpha, copied, seed):
        sup, dem, cost = _sweep_instance(n_a, n_b, alpha, copied, seed)
        np.testing.assert_array_equal(
            transport._min_cost_flow(sup, dem, cost), _reference_min_cost_flow(sup, dem, cost)
        )
        assert taken == [True]

    def test_sweep_instances_keep_their_certified_count(self, taken):
        # prune-post's uniform 64 x 32 and 64 x 45 (the pruned network's
        # features copy the ensemble's) and partial-ot's 33 x 33 at alpha 0.4,
        # from seeded costs; the floor is the count that the simplex holding
        # its tree in adjacency lists certified
        shapes = ((64, 32, 0, 32), (64, 45, 0, 45), (32, 32, 0.4, 0))
        for seed in range(10):
            for n_a, n_b, alpha, copied in shapes:
                sup, dem, cost = _sweep_instance(n_a, n_b, alpha, copied, seed)
                np.testing.assert_array_equal(
                    transport._min_cost_flow(sup, dem, cost),
                    _reference_min_cost_flow(sup, dem, cost),
                    err_msg=f"{n_a} x {n_b}, seed {seed}",
                )
        assert len(taken) == 30 and sum(taken) >= SWEEP_CERTIFIED_FLOOR

    def test_pivot_bound_zero_gives_the_search(self, taken, monkeypatch):
        monkeypatch.setattr(transport, "_PIVOTS_PER_NODE", 0)
        sup, dem, cost = _sweep_instance(64, 45, 0, 45, 2)
        np.testing.assert_array_equal(
            transport._min_cost_flow(sup, dem, cost), _reference_min_cost_flow(sup, dem, cost)
        )
        assert taken == [False]

    @pytest.mark.parametrize("seed", range(6))
    def test_degenerate_instance_terminates(self, taken, seed):
        # supplies 1 and demands 2: the least-cost start and most pivots are
        # degenerate, and the zero-cost instance ties everywhere
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 2, size=(8, 4)).astype(float) if seed else np.zeros((8, 4))
        sup, dem = np.ones(8, dtype=np.int64), np.full(4, 2, dtype=np.int64)
        np.testing.assert_array_equal(
            transport._min_cost_flow(sup, dem, cost), _reference_min_cost_flow(sup, dem, cost)
        )
        assert len(taken) == 1
        if not seed:
            assert taken == [False]


class TestWorkingSizeOracles:
    """Exact objectives at the sizes fusion solves, against scipy."""

    def test_power_of_two_cost_scaling_returns_the_same_plan(self, monkeypatch):
        """A power-of-two scale leaves every route's plan bitwise as it was:
        the dense route, the simplex and the search all take some instances."""
        dense = _record_certified(monkeypatch, "_dense_flow")
        simplex = _record_certified(monkeypatch, "_simplex_flow")
        mu = uniform(100)
        for seed in range(TIE_INSTANCES):
            cost = _tie_cost(seed)
            for alpha in (0.0, 0.25, 0.4, 1 / 3):
                plan = pf.solve_partial_ot(mu, mu, cost, alpha).matrix
                for scale in (2.0**-20, 2.0**20):  # 1/4 and 4 hold too, but double the time
                    np.testing.assert_array_equal(
                        pf.solve_partial_ot(mu, mu, scale * cost, alpha).matrix,
                        plan,
                        err_msg=f"seed {seed}, alpha {alpha}, scale {scale}",
                    )
        assert any(dense) and any(simplex) and not all(dense + simplex)

    def test_prune_post_shape_matches_highs_with_certified_duals(self, monkeypatch):
        """solve_ot from uniform 200 to uniform 140: the simplex's duals are
        feasible and complementary-slack, and HiGHS finds the same objective."""
        optimize = pytest.importorskip("scipy.optimize")
        sparse = pytest.importorskip("scipy.sparse")
        seen = []
        unique_optimum = transport._unique_optimum

        def recording(cost, flow, pot_a, pot_b):
            seen.append((flow, pot_a, pot_b))
            return unique_optimum(cost, flow, pot_a, pot_b)

        monkeypatch.setattr(transport, "_unique_optimum", recording)
        n_a, n_b = 200, 140
        rng = np.random.default_rng(9)
        xa = rng.normal(size=(n_a, 101))
        xb = np.vstack([xa[:70], rng.normal(size=(n_b - 70, 101))])
        cost = pf.cost_matrix(xa, xb)
        plan = pf.solve_ot(uniform(n_a), uniform(n_b), cost).matrix
        (flow, pot_a, pot_b), = seen
        assert unique_optimum(cost, flow, pot_a, pot_b)
        assert np.array_equal(plan, flow / 1400)
        eps = 1e-9 * max(1.0, np.abs(cost).max()) / (2 * (n_a + n_b))
        red = cost - pot_a[:, None] - pot_b[None, :]
        assert red.min() >= -eps
        assert np.abs(red[flow > 0]).max() <= eps
        sums = sparse.vstack([
            sparse.kron(sparse.identity(n_a), np.ones((1, n_b))),
            sparse.kron(np.ones((1, n_a)), sparse.identity(n_b)),
        ]).tocsr()
        lp = optimize.linprog(
            cost.ravel(),
            A_eq=sums,
            b_eq=np.concatenate([np.full(n_a, 1.0 / n_a), np.full(n_b, 1.0 / n_b)]),
            bounds=(0, None),
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert lp.status == 0
        assert abs(transport_objective(plan, cost) - lp.fun) <= 1e-9 * max(lp.fun, 1.0)

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_solve_ot_matches_linear_sum_assignment(self, n):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(n)
        cost = pf.cost_matrix(rng.normal(size=(n, 101)), rng.normal(size=(n, 101)))
        plan = pf.solve_ot(uniform(n), uniform(n), cost).matrix
        rows, cols = optimize.linear_sum_assignment(cost)
        want = cost[rows, cols].sum() / n
        assert abs(transport_objective(plan, cost) - want) <= 1e-12 * want
        # an exact vertex: a permutation matrix scaled by 1/n
        assert np.array_equal(np.sort(plan, axis=1)[:, :-1], np.zeros((n, n - 1)))
        assert np.array_equal(plan.max(axis=1), np.full(n, 1.0 / n))

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_solve_partial_ot_matches_highs(self, alpha):
        self._check_against_highs(100, alpha, seed=7)

    def test_solve_partial_ot_matches_highs_at_200(self):
        self._check_against_highs(200, 0.4, seed=8)

    @staticmethod
    def _check_against_highs(n, alpha, seed):
        optimize = pytest.importorskip("scipy.optimize")
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(seed)
        cost = pf.cost_matrix(rng.normal(size=(n, 101)), rng.normal(size=(n, 101)))
        plan = pf.solve_partial_ot(uniform(n), uniform(n), cost, alpha).matrix
        # variables pi[i, j] in row-major order; row and column sums capped
        # by the marginals, the total fixed at 1 - alpha
        sums = sparse.vstack([
            sparse.kron(sparse.identity(n), np.ones((1, n))),
            sparse.kron(np.ones((1, n)), sparse.identity(n)),
        ]).tocsr()
        lp = optimize.linprog(
            cost.ravel(),
            A_ub=sums,
            b_ub=np.full(2 * n, 1.0 / n),
            A_eq=np.ones((1, n * n)),
            b_eq=[1.0 - alpha],
            bounds=(0, None),
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert lp.status == 0
        assert abs(transport_objective(plan, cost) - lp.fun) <= 1e-9 * max(lp.fun, 1.0)
        if alpha == 1.0:
            assert not plan.any()

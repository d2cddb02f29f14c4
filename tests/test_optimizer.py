"""Solver checks: Jacobians, convergence on classic problems, constraint
handling, and termination semantics."""

import numpy as np
import pytest

from gaze3d.optimizer import (
    LMSettings,
    NonFiniteResidual,
    ProblemBatch,
    ResidualProblem,
    SingularNormalEquations,
    numeric_jacobian,
    solve_lm,
    solve_lm_batch,
)


def linear_problem(seed=0, m=20, n=5):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    return A, b, ResidualProblem(dim=n, residual=lambda x: A @ x - b)


def rosenbrock():
    return ResidualProblem(
        dim=2,
        residual=lambda x: np.array([1.0 - x[0],
                                     10.0 * (x[1] - x[0] ** 2)]))


# ── numeric jacobian ─────────────────────────────────────────────────────

def test_jacobian_of_linear_residual_is_exact():
    A, b, problem = linear_problem()
    x = np.random.default_rng(1).normal(size=5)
    assert np.allclose(numeric_jacobian(problem, x), A, atol=1e-8)


def test_jacobian_of_sine():
    problem = ResidualProblem(dim=1, residual=lambda x: np.sin(x))
    for x0 in (-1.0, 0.0, 0.7, 2.0):
        jac = numeric_jacobian(problem, np.array([x0]))
        assert np.isclose(jac[0, 0], np.cos(x0), atol=1e-8)


# ── convergence ──────────────────────────────────────────────────────────

def test_linear_least_squares_matches_closed_form():
    A, b, problem = linear_problem(seed=2)
    x_star = np.linalg.lstsq(A, b, rcond=None)[0]
    cost_star = float(np.sum((A @ x_star - b) ** 2))
    report = solve_lm(problem, np.zeros(5))
    assert abs(report.cost - cost_star) <= 1e-8 * cost_star
    assert np.allclose(report.params, x_star, atol=1e-6)


def test_rosenbrock_from_classic_start():
    report = solve_lm(rosenbrock(), np.array([-1.2, 1.0]),
                      LMSettings(max_iterations=500))
    assert np.abs(report.params - 1.0).max() < 1e-6
    assert report.cost < 1e-12


def test_accepted_cost_is_monotone():
    for seed in range(5):
        A, b, problem = linear_problem(seed=seed, m=30, n=8)
        report = solve_lm(problem, np.ones(8) * 3.0)
        assert np.all(np.diff(report.cost_history) <= 0)
    report = solve_lm(rosenbrock(), np.array([-1.2, 1.0]),
                      LMSettings(max_iterations=500))
    assert np.all(np.diff(report.cost_history) <= 0)


def test_zero_residual_start_terminates_immediately():
    problem = ResidualProblem(dim=2, residual=lambda x: x - (1.0, 2.0))
    report = solve_lm(problem, np.array([1.0, 2.0]))
    assert report.iterations == 0
    assert report.termination == "gradient"
    assert report.cost == 0.0


def test_iteration_cap_reported():
    report = solve_lm(rosenbrock(), np.array([-1.2, 1.0]),
                      LMSettings(max_iterations=3, cost_tol=1e-30,
                                 step_tol=1e-30, grad_tol=1e-30))
    assert report.iterations == 3
    assert report.termination == "max_iterations"


# ── constraints ──────────────────────────────────────────────────────────

def test_box_bound_clamps_at_boundary():
    # unconstrained minimum at x=3, box at 1
    problem = ResidualProblem(dim=1, residual=lambda x: x - 3.0,
                              lower=[-1.0], upper=[1.0])
    report = solve_lm(problem, np.array([0.0]))
    assert np.isclose(report.params[0], 1.0)


def test_initial_params_must_satisfy_bounds():
    problem = ResidualProblem(dim=1, residual=lambda x: x,
                              lower=[-1.0], upper=[1.0])
    with pytest.raises(ValueError):
        solve_lm(problem, np.array([5.0]))


def test_wrap_mask_keeps_angles_in_range():
    # minimum at 2*pi + 0.3; wrapped coordinate must settle at 0.3
    problem = ResidualProblem(
        dim=1,
        residual=lambda x: np.array([np.sin(x[0] - 0.3),
                                     np.cos(x[0] - 0.3) - 1.0]),
        wrap_mask=[True])
    report = solve_lm(problem, np.array([3.0]))
    assert -np.pi <= report.params[0] < np.pi
    assert np.isclose(report.params[0], 0.3, atol=1e-6)


def test_wrong_shape_rejected():
    problem = ResidualProblem(dim=2, residual=lambda x: x)
    with pytest.raises(ValueError):
        solve_lm(problem, np.zeros(3))
    with pytest.raises(ValueError):
        ResidualProblem(dim=2, residual=lambda x: x, lower=[0.0])


# ── failure modes ────────────────────────────────────────────────────────

def test_non_finite_residual_raises():
    problem = ResidualProblem(dim=1,
                              residual=lambda x: np.array([np.nan]))
    with pytest.raises(NonFiniteResidual):
        solve_lm(problem, np.zeros(1))


def test_overflowing_normal_equations_raise():
    # gradient overflows to inf, so no damping can make the system solvable
    problem = ResidualProblem(dim=1,
                              residual=lambda x: np.array([1e200 * x[0]]))
    with np.errstate(over="ignore"), pytest.raises(SingularNormalEquations):
        solve_lm(problem, np.array([1.0]))


def test_settings_validated():
    with pytest.raises(ValueError):
        LMSettings(damping=0.0)
    with pytest.raises(ValueError):
        LMSettings(max_iterations=-1)


@pytest.mark.parametrize("name, value", [
    ("damping", np.nan), ("damping", np.inf), ("damping", "x"),
    ("damping", True), ("damping_down", np.nan), ("step_tol", -np.inf),
    ("grad_tol", None), ("damping_up", 1.0), ("damping_up", 0.5),
    ("damping_up", 1.0001), ("damping_up", 1.01),
    ("damping_up", np.nan), ("damping_down", 1.0), ("damping_down", 0.5),
    ("damping_down", 1.01), ("max_iterations", 2.5),
    ("max_iterations", True), ("max_iterations", 0),
])
def test_settings_that_could_hang_or_uncap_a_fit_are_rejected(name, value):
    # a NaN damping never exceeds the maximum and a factor <= 1 never
    # raises it, so a rejected step would retry forever; a factor near 1
    # retries thousands of times; a damping_down near 1 keeps the damping
    # high, and the fit crawls to its cap; a fractional cap is never
    # reached
    with pytest.raises(ValueError, match=name):
        LMSettings(**{name: value})


def test_integral_settings_of_other_types_are_accepted():
    settings = LMSettings(damping=1, damping_up=np.float64(2.0),
                          max_iterations=np.int64(5))
    report = solve_lm(rosenbrock(), np.array([-1.2, 1.0]), settings)
    assert report.iterations <= 5


# ── lockstep solve ───────────────────────────────────────────────────────

def sequential_lm(problem, x0, settings):
    """The one-problem LM loop that solve_lm_batch replaced, one damping
    trial at a time: the oracle for its ladder of two rungs.  Returns the
    FitReport fields and the number of damping trials per iteration."""
    x = np.asarray(x0, dtype=float).copy()
    r = problem.evaluate(x)
    cost = float(r @ r)
    history, trials = [cost], []
    lam, termination, iterations = settings.damping, "max_iterations", 0
    for iterations in range(1, settings.max_iterations + 1):
        jac = problem.evaluate_jacobian(x)
        grad = jac.T @ r
        if np.max(np.abs(2.0 * grad)) < settings.grad_tol:
            termination = "gradient"
            iterations -= 1
            break
        jtj = jac.T @ jac
        accepted, n = False, 0
        while True:
            n += 1
            step = np.linalg.solve(jtj + lam * np.eye(problem.dim), -grad)
            if not np.all(np.isfinite(step)):
                lam *= settings.damping_up
                continue
            candidate = problem.apply_constraints(x + step)
            step_norm = float(np.linalg.norm(candidate - x))
            r_new = np.asarray(problem.residual(candidate), dtype=float)
            cost_new = (float(r_new @ r_new) if np.all(np.isfinite(r_new))
                        else np.inf)
            if cost_new < cost:
                x, r, cost = candidate, r_new, cost_new
                history.append(cost)
                lam = max(lam / settings.damping_down, 1e-15)
                accepted = True
                break
            lam *= settings.damping_up
            if lam > 1e12 or step_norm < settings.step_tol * (
                    1.0 + np.linalg.norm(x)):
                break
        trials.append(n)
        if not accepted:
            termination = "step"
            break
        prev_cost = history[-2]
        if step_norm < settings.step_tol * (1.0 + np.linalg.norm(x)):
            termination = "step"
            break
        if prev_cost - cost < settings.cost_tol * max(1.0, prev_cost):
            termination = "cost_decrease"
            break
    return x, iterations, termination, np.asarray(history), trials


def assert_same_fit(report, x, iterations, termination, history, atol=0.0):
    assert report.iterations == iterations
    assert report.termination == termination
    assert len(report.cost_history) == len(history)
    assert np.allclose(report.params, x, rtol=0, atol=atol)
    assert np.allclose(report.cost_history, history, rtol=0, atol=atol)


@pytest.mark.parametrize("settings, x0, most_trials", [
    (LMSettings(max_iterations=500), (-1.2, 1.0), 4),
    (LMSettings(max_iterations=500), (-2.0, 5.0), 3),
    (LMSettings(damping=1e-8, damping_up=2.0, max_iterations=500),
     (-1.2, 1.0), 27),
], ids=["classic", "far", "many-rejections"])
def test_solve_lm_takes_the_sequential_steps(settings, x0, most_trials):
    expected = sequential_lm(rosenbrock(), x0, settings)
    # 3 trials: both rungs of a round rejected; 4 or more: the first rung
    # rejected in two rounds or more
    assert max(expected[4]) == most_trials
    assert_same_fit(solve_lm(rosenbrock(), np.array(x0), settings),
                    *expected[:4])


def scaled_rosenbrock_group(scales, nan_jacobian=()):
    """A group of Rosenbrock residuals times scales[member], as (count,
    residual, jacobian) of a batch_of group; the members listed in
    nan_jacobian get a NaN Jacobian."""
    scales = np.asarray(scales, dtype=float)

    def residual(members, x):
        s = scales[members]
        return np.stack((s * (1.0 - x[..., 0]),
                         10.0 * s * (x[..., 1] - x[..., 0] ** 2)), axis=-1)

    def jacobian(members, x):
        s = scales[members]
        jac = np.zeros((len(members), 2, 2))
        jac[:, 0, 0] = -s
        jac[:, 1, 0] = -20.0 * s * x[:, 0]
        jac[:, 1, 1] = 10.0 * s
        jac[np.isin(members, nan_jacobian)] = np.nan
        return jac

    return len(scales), residual, jacobian


def linear_group(seeds, m=6):
    """A group of linear problems A_i x - b_i of dim 2 with m residuals
    each, as (count, residual, jacobian)."""
    data = [np.random.default_rng(s).normal(size=(m, 3)) for s in seeds]
    a = np.array([d[:, :2] for d in data])
    b = np.array([d[:, 2] for d in data])
    return (len(seeds),
            lambda members, x: (a[members] @ x[..., None])[..., 0]
            - b[members],
            lambda members, x: a[members])


def batch_of(groups):
    """The ProblemBatch of dim 2 holding the problems of `groups`,
    (count, residual, jacobian) each, numbered group by group; the group
    functions take a group's member indices and their (..., k, 2)
    parameters and give (..., k, m) residuals or (k, m, 2) Jacobians."""
    start = np.cumsum([0] + [g[0] for g in groups])

    def split(rows):
        """(group, member indices, positions in rows) of each group with
        problems among the sorted rows."""
        for g, (a, b) in enumerate(zip(start, start[1:])):
            at = np.flatnonzero((rows >= a) & (rows < b))
            if at.size:
                yield groups[g], rows[at] - a, at

    def cost(rows, params):
        out = np.empty(params.shape[:-1])
        for (_, residual, _), idx, at in split(rows):
            r = residual(idx, params[..., at, :])
            out[..., at] = np.where(np.isfinite(r).all(axis=-1),
                                    np.sum(r * r, axis=-1), np.nan)
        return out

    def normal_equations(rows, params):
        jtj, jtr = np.empty((len(rows), 2, 2)), np.empty((len(rows), 2))
        finite = np.empty(len(rows), dtype=bool)
        for (_, residual, jacobian), idx, at in split(rows):
            jac = jacobian(idx, params[at])
            jac_t = np.swapaxes(jac, 1, 2)
            jtj[at] = jac_t @ jac
            jtr[at] = (jac_t @ residual(idx, params[at])[..., None])[..., 0]
            finite[at] = np.isfinite(jac).all(axis=(1, 2))
        return jtj, jtr, finite

    return ProblemBatch(dim=2, size=int(start[-1]), cost=cost,
                        normal_equations=normal_equations)


def member_problem(group, i):
    """Member i of a batch group as a ResidualProblem of its own."""
    _, residual, jacobian = group
    members = np.array([i])
    return ResidualProblem(dim=2,
                           residual=lambda x: residual(members, x[None])[0],
                           jacobian=lambda x: jacobian(members, x[None])[0])


def assert_solo_steps(reports, group, starts, members,
                      settings=LMSettings()):
    """reports[i] is the solo fit of member i of `group`, for each of
    `members`."""
    for i in members:
        solo = solve_lm(member_problem(group, i), starts[i], settings)
        assert_same_fit(reports[i], solo.params, solo.iterations,
                        solo.termination, solo.cost_history, atol=1e-9)


def test_stacked_members_take_their_solo_steps():
    # two groups whose residual lengths differ: 2 and 6
    settings = LMSettings(max_iterations=500)
    groups = [scaled_rosenbrock_group([1.0, 0.5, 2.0, 1.0]),
              linear_group([0, 1, 2])]
    starts = [np.array([[-1.2, 1.0], [-2.0, 5.0], [0.5, 0.5], [3.0, -2.0]]),
              np.zeros((3, 2))]
    reports = solve_lm_batch(batch_of(groups), np.concatenate(starts),
                             settings)
    assert len(reports) == 7
    for group, x0, group_reports in zip(groups, starts,
                                        (reports[:4], reports[4:])):
        for i in range(len(x0)):
            solo = solve_lm(member_problem(group, i), x0[i], settings)
            expected = sequential_lm(member_problem(group, i), x0[i],
                                     settings)
            assert_same_fit(solo, *expected[:4])
        assert_solo_steps(group_reports, group, x0, range(len(x0)),
                          settings)


def test_failing_member_fails_alone():
    # member 1 overflows its normal equations (singular at any damping;
    # its cost overflows to +inf, which is not a bad residual), member 3
    # has a NaN Jacobian and member 4 a NaN starting residual; the other
    # group is not affected
    groups = [scaled_rosenbrock_group([1.0, 1e200, 0.5, 1.0, np.nan, 2.0],
                                      nan_jacobian=[3]),
              linear_group([0, 1, 2])]
    starts = [np.array([[-1.2, 1.0]] * 6), np.zeros((3, 2))]
    with np.errstate(over="ignore", invalid="ignore"):
        results = solve_lm_batch(batch_of(groups), np.concatenate(starts))
    reports, linear = results[:6], results[6:]
    assert isinstance(reports[1], SingularNormalEquations)
    assert isinstance(reports[3], NonFiniteResidual)
    assert isinstance(reports[4], NonFiniteResidual)
    assert_solo_steps(reports, groups[0], starts[0], (0, 2, 5))
    assert_solo_steps(linear, groups[1], starts[1], range(3))


def test_a_system_numpy_cannot_solve_fails_alone():
    # J^T J of problem 0 stays exactly singular at any damping (1e300 + λ
    # rounds to 1e300), so numpy's stacked solve raises and each system
    # is solved on its own; problem 1, a quadratic bowl at (3, 3), goes on
    target = np.array([3.0, 3.0])

    def cost(rows, params):
        return ((params - target) ** 2).sum(axis=-1)

    def normal_equations(rows, params):
        jtj = np.where((rows == 0)[:, None, None], np.full((2, 2), 1e300),
                       np.eye(2))
        return jtj, params - target, np.ones(len(rows), dtype=bool)

    batch = ProblemBatch(dim=2, size=2, cost=cost,
                         normal_equations=normal_equations)
    singular, report = solve_lm_batch(batch, np.zeros((2, 2)))
    assert isinstance(singular, SingularNormalEquations)
    assert report.termination == "cost_decrease"
    assert np.allclose(report.params, target)


def test_stacked_inputs_validated():
    batch = batch_of([linear_group([0, 1])])
    with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
        solve_lm_batch(batch, np.zeros((3, 2)))
    assert solve_lm_batch(batch_of([]), np.zeros((0, 2))) == []

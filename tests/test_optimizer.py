"""Solver checks: Jacobians, convergence on classic problems, constraint
handling, and termination semantics."""

import numpy as np
import pytest

from gaze3d.optimizer import (
    LMSettings,
    NonFiniteResidual,
    ProblemStack,
    ResidualProblem,
    SingularNormalEquations,
    numeric_jacobian,
    solve_lm,
    solve_lm_stacked,
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


# ── lockstep solve ───────────────────────────────────────────────────────

def sequential_lm(problem, x0, settings):
    """The one-problem LM loop that solve_lm_stacked replaced, one damping
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


def scaled_rosenbrock_stack(scales, nan_jacobian=()):
    """Rosenbrock residuals times scales[member]; the members listed in
    nan_jacobian get a NaN Jacobian."""
    scales = np.asarray(scales, dtype=float)

    def residual(members, x):
        s = scales[members]
        return np.stack((s * (1.0 - x[:, 0]),
                         10.0 * s * (x[:, 1] - x[:, 0] ** 2)), axis=1)

    def jacobian(members, x):
        s = scales[members]
        jac = np.zeros((len(members), 2, 2))
        jac[:, 0, 0] = -s
        jac[:, 1, 0] = -20.0 * s * x[:, 0]
        jac[:, 1, 1] = 10.0 * s
        jac[np.isin(members, nan_jacobian)] = np.nan
        return jac

    return ProblemStack(dim=2, count=len(scales), residual=residual,
                        jacobian=jacobian)


def linear_stack(seeds, m=6):
    """Linear problems A_i x - b_i of dim 2 with m residuals each."""
    data = [np.random.default_rng(s).normal(size=(m, 3)) for s in seeds]
    a = np.array([d[:, :2] for d in data])
    b = np.array([d[:, 2] for d in data])
    return ProblemStack(
        dim=2, count=len(seeds),
        residual=lambda members, x: (a[members] @ x[:, :, None])[..., 0]
        - b[members],
        jacobian=lambda members, x: a[members])


def member_problem(stack, i):
    """Member i of a ProblemStack as a ResidualProblem of its own."""
    members = np.array([i])
    return ResidualProblem(
        dim=stack.dim,
        residual=lambda x: stack.residual(members, x[None])[0],
        jacobian=lambda x: stack.jacobian(members, x[None])[0])


def test_stacked_members_take_their_solo_steps():
    settings = LMSettings(max_iterations=500)
    stacks = [scaled_rosenbrock_stack([1.0, 0.5, 2.0, 1.0]),
              linear_stack([0, 1, 2])]
    starts = [np.array([[-1.2, 1.0], [-2.0, 5.0], [0.5, 0.5], [3.0, -2.0]]),
              np.zeros((3, 2))]
    reports = solve_lm_stacked(stacks, starts, settings)
    assert [len(r) for r in reports] == [4, 3]
    for stack, x0, stack_reports in zip(stacks, starts, reports):
        for i, report in enumerate(stack_reports):
            solo = solve_lm(member_problem(stack, i), x0[i], settings)
            expected = sequential_lm(member_problem(stack, i), x0[i],
                                     settings)
            assert_same_fit(solo, *expected[:4])
            assert_same_fit(report, solo.params, solo.iterations,
                            solo.termination, solo.cost_history, atol=1e-9)


def test_failing_member_fails_alone():
    # member 1 overflows its normal equations (singular at any damping),
    # member 3 has a NaN Jacobian and member 4 a NaN starting residual
    stack = scaled_rosenbrock_stack([1.0, 1e200, 0.5, 1.0, np.nan, 2.0],
                                    nan_jacobian=[3])
    x0 = np.array([[-1.2, 1.0]] * 6)
    with np.errstate(over="ignore", invalid="ignore"):
        [reports] = solve_lm_stacked([stack], [x0])
    assert isinstance(reports[1], SingularNormalEquations)
    assert isinstance(reports[3], NonFiniteResidual)
    assert isinstance(reports[4], NonFiniteResidual)
    for i in (0, 2, 5):
        solo = solve_lm(member_problem(stack, i), x0[i])
        assert_same_fit(reports[i], solo.params, solo.iterations,
                        solo.termination, solo.cost_history, atol=1e-9)


def test_stacked_inputs_validated():
    stack = linear_stack([0, 1])
    with pytest.raises(ValueError):
        solve_lm_stacked([stack], [np.zeros((3, 2))])
    with pytest.raises(ValueError):
        solve_lm_stacked([stack, ProblemStack(dim=3, count=1,
                                              residual=None, jacobian=None)],
                         [np.zeros((2, 2)), np.zeros((1, 3))])
    assert solve_lm_stacked([], []) == []

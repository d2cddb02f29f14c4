"""Damped (Levenberg-Marquardt) nonlinear least squares.

Small and dense on purpose: the mapper fits have at most 17 parameters
and a few hundred residuals, so full normal equations are adequate.  A
problem may supply a closed-form Jacobian; otherwise a central-difference
one is used, at 2*dim + 1 residual evaluations per iteration.  Cost is
the plain sum of squared residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import wrap_angle


class NonFiniteResidual(ValueError):
    """Residual evaluation produced NaN or inf."""


class SingularNormalEquations(RuntimeError):
    """Damped normal equations unsolvable even at maximum damping."""


@dataclass(frozen=True)
class ResidualProblem:
    """A vector residual r(x) to be minimized in the least-squares sense.

    `wrap_mask` marks angle coordinates: after every step they are
    wrapped modulo 2*pi into [-pi, pi) instead of clipped, which avoids
    creating artificial boundary minima.  `lower`/`upper` are optional
    per-parameter box bounds enforced by projection.  The residual
    function must stay finite for in-bounds parameters and tolerate the
    tiny out-of-bounds excursions of finite differencing.  `jacobian`,
    when given, maps params to the (residual size, dim) matrix of
    derivatives and replaces `numeric_jacobian` in `solve_lm`.
    """

    dim: int
    residual: callable
    lower: np.ndarray = None
    upper: np.ndarray = None
    wrap_mask: np.ndarray = None
    jacobian: callable = None

    def __post_init__(self):
        for name in ("lower", "upper"):
            b = getattr(self, name)
            if b is not None:
                object.__setattr__(self, name, np.asarray(b, dtype=float))
                if getattr(self, name).shape != (self.dim,):
                    raise ValueError(f"{name} bounds must have shape ({self.dim},)")
        if self.wrap_mask is not None:
            object.__setattr__(self, "wrap_mask",
                               np.asarray(self.wrap_mask, dtype=bool))

    def evaluate(self, params):
        r = np.asarray(self.residual(params), dtype=float)
        if not np.all(np.isfinite(r)):
            raise NonFiniteResidual(f"residual not finite at {params}")
        return r

    def evaluate_jacobian(self, params):
        """The supplied Jacobian at `params`, or the numeric one."""
        if self.jacobian is None:
            return numeric_jacobian(self, params)
        jac = np.asarray(self.jacobian(params), dtype=float)
        if not np.all(np.isfinite(jac)):
            raise NonFiniteResidual(f"jacobian not finite at {params}")
        return jac

    def apply_constraints(self, params):
        params = np.array(params, dtype=float)
        if self.wrap_mask is not None:
            params[self.wrap_mask] = wrap_angle(params[self.wrap_mask])
        if self.lower is not None:
            params = np.maximum(params, self.lower)
        if self.upper is not None:
            params = np.minimum(params, self.upper)
        return params

    def in_bounds(self, params):
        ok = True
        if self.lower is not None:
            ok &= bool(np.all(params >= self.lower - 1e-12))
        if self.upper is not None:
            ok &= bool(np.all(params <= self.upper + 1e-12))
        return ok


@dataclass(frozen=True)
class LMSettings:
    damping: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 10.0
    max_iterations: int = 200
    step_tol: float = 1e-10
    cost_tol: float = 1e-12
    grad_tol: float = 1e-12

    def __post_init__(self):
        vals = (self.damping, self.damping_up, self.damping_down,
                self.max_iterations, self.step_tol, self.cost_tol, self.grad_tol)
        if any(v <= 0 for v in vals):
            raise ValueError("all LM settings must be positive")


@dataclass(frozen=True)
class FitReport:
    params: np.ndarray
    cost: float
    iterations: int
    termination: str
    cost_history: np.ndarray = field(default=None, repr=False)


def numeric_jacobian(problem: ResidualProblem, params) -> np.ndarray:
    """Central-difference Jacobian, step h = max(1e-6, 1e-6*|x_j|)."""
    params = np.asarray(params, dtype=float)
    r0 = problem.evaluate(params)
    jac = np.empty((r0.size, params.size))
    for j in range(params.size):
        h = max(1e-6, 1e-6 * abs(params[j]))
        hi = params.copy()
        lo = params.copy()
        hi[j] += h
        lo[j] -= h
        jac[:, j] = (problem.evaluate(hi) - problem.evaluate(lo)) / (2.0 * h)
    return jac


_MAX_DAMPING = 1e12


def solve_lm(problem: ResidualProblem, initial_params,
             settings: LMSettings = LMSettings()) -> FitReport:
    """Levenberg-Marquardt with multiplicative damping.

    Steps solve (J^T J + damping*I) dx = -J^T r; a step is accepted only
    if it strictly decreases the cost, so the accepted-cost sequence is
    monotone non-increasing.  Terminates on gradient, step size, relative
    cost decrease, or the iteration cap.
    """
    x = np.asarray(initial_params, dtype=float).copy()
    if x.shape != (problem.dim,):
        raise ValueError(f"initial params must have shape ({problem.dim},)")
    if not problem.in_bounds(x):
        raise ValueError("initial params violate bounds")

    r = problem.evaluate(x)
    cost = float(r @ r)
    history = [cost]
    lam = settings.damping
    termination = "max_iterations"
    iterations = 0

    for iterations in range(1, settings.max_iterations + 1):
        jac = problem.evaluate_jacobian(x)
        grad = jac.T @ r
        if np.max(np.abs(2.0 * grad)) < settings.grad_tol:
            termination = "gradient"
            iterations -= 1
            break

        jtj = jac.T @ jac
        accepted = False
        while True:
            try:
                step = np.linalg.solve(jtj + lam * np.eye(problem.dim), -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.all(np.isfinite(step)):
                lam *= settings.damping_up
                if lam > _MAX_DAMPING:
                    raise SingularNormalEquations(
                        "normal equations unsolvable at maximum damping")
                continue

            candidate = problem.apply_constraints(x + step)
            step_norm = float(np.linalg.norm(candidate - x))
            try:
                r_new = problem.evaluate(candidate)
                cost_new = float(r_new @ r_new)
            except NonFiniteResidual:
                cost_new = np.inf

            if cost_new < cost:
                x, r, cost = candidate, r_new, cost_new
                history.append(cost)
                lam = max(lam / settings.damping_down, 1e-15)
                accepted = True
                break
            lam *= settings.damping_up
            if lam > _MAX_DAMPING or step_norm < settings.step_tol * (1.0 + np.linalg.norm(x)):
                break   # no acceptable step at any damping: stalled

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

    return FitReport(params=x, cost=cost, iterations=iterations,
                     termination=termination,
                     cost_history=np.asarray(history))

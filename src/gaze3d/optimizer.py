"""Damped (Levenberg-Marquardt) nonlinear least squares.

Small and dense on purpose: the mapper fits have at most 17 parameters
and a few hundred residuals, so full normal equations are adequate.  A
problem may supply a closed-form Jacobian; otherwise a central-difference
one is used, at 2*dim + 1 residual evaluations per iteration.  Cost is
the plain sum of squared residuals.

There is one LM loop, `solve_lm_batch`, and it advances a ProblemBatch
of problems of one dimension in lockstep: at these sizes a fit's time is
numpy's per-call overhead, which the batch pays once per round instead
of once per problem.  The loop sees only problems: it asks the batch for
the costs r . r of parameter sets and for the normal equations J^T J and
J^T r at each problem's parameters, one call each per round for every
problem concerned; how a batch evaluates them (gaze3d.mappers groups its
fits by sample count) is its own business.  Each problem keeps its own
damping, acceptance, termination, cost history and error.  A damping
round solves the normal equations of every problem still searching for
a step at two rungs of damping, lambda and lambda * damping_up, in one
stacked np.linalg.solve, projects both candidates onto the constraints
and costs them, and then applies the sequential rule to the rungs in
order up to the first that accepts, stalls or overflows the damping; so
every accepted step is the one the problem takes alone (Madsen, Nielsen
& Tingleff 2004 describe the damping rule).  A problem whose residual or
Jacobian goes non-finite, or whose normal equations stay singular, fails
alone; the others go on.  `solve_lm` runs that loop on one
ResidualProblem, with jac.T @ jac and jac.T @ r as its normal equations:
the scalar reference the fits' batches are tested against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import dot_norms, wrap_angle


class NonFiniteResidual(ValueError):
    """Residual evaluation produced NaN or inf, or a fit's inputs or
    targets hold one."""


class SingularNormalEquations(RuntimeError):
    """Damped normal equations unsolvable even at maximum damping."""


class _Box:
    """Bounds and angle wrapping of a problem, for the dataclasses below
    (their dim, lower, upper and wrap_mask fields).  Parameters may carry
    leading batch axes."""

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

    def apply_constraints(self, params):
        params = np.array(params, dtype=float)
        if self.wrap_mask is not None:
            params[..., self.wrap_mask] = wrap_angle(
                params[..., self.wrap_mask])
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
class ResidualProblem(_Box):
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


@dataclass(frozen=True)
class ProblemBatch(_Box):
    """`size` problems of one dimension, numbered 0 to size - 1, whose
    costs and normal equations are evaluated together: one call each for
    all the problems evaluated.

    `cost(rows, params)` takes the sorted indices of the problems
    evaluated and their (..., k, dim) parameters in the same order
    (leading axes give each problem several parameter sets) and returns
    the (..., k) sums of squared residuals r . r, NaN where a residual is
    not finite (a finite residual whose sum overflows gives +inf).
    `normal_equations(rows, params)` takes (k, dim) parameters and returns
    J^T J (k, dim, dim), J^T r (k, dim) and the (k,) mask of the problems
    whose Jacobian is finite.  A problem they cannot evaluate should get
    NaN, which fails it alone (or rejects the step, for a candidate's
    cost); an exception they raise ends the whole solve.  Bounds and wrap
    mask apply to every problem, as in ResidualProblem.
    """

    dim: int
    size: int
    cost: callable
    normal_equations: callable
    lower: np.ndarray = None
    upper: np.ndarray = None
    wrap_mask: np.ndarray = None


# the damping stays in [_MIN_DAMPING, _MAX_DAMPING]; damping_up must
# climb that range in at most _MAX_DAMPING_CLIMB rejected steps
_MIN_DAMPING, _MAX_DAMPING, _MAX_DAMPING_CLIMB = 1e-15, 1e12, 150
_MIN_DAMPING_UP = (_MAX_DAMPING / _MIN_DAMPING) ** (1.0 / _MAX_DAMPING_CLIMB)


@dataclass(frozen=True)
class LMSettings:
    """Damping, iteration cap and tolerances of an LM solve.  Every value
    is a finite number > 0 and max_iterations is an integer.  damping_up
    is at least (1e12 / 1e-15) ** (1 / 150) ~= 1.5136: 150 rejected steps
    then take the damping from its floor to its maximum, where a factor
    near 1 would retry thousands of times (at 1, forever)."""

    damping: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 10.0
    max_iterations: int = 200
    step_tol: float = 1e-10
    cost_tol: float = 1e-12
    grad_tol: float = 1e-12

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value <= 0):
                raise ValueError(f"{f.name} must be a finite number > 0, "
                                 f"got {value!r}")
        if self.damping_up < _MIN_DAMPING_UP:
            raise ValueError(f"damping_up must be >= {_MIN_DAMPING_UP:.6g}, "
                             f"got {self.damping_up!r}")
        if not isinstance(self.max_iterations, numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, got "
                             f"{self.max_iterations!r}")


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


# per-problem states of the lockstep loop
_DONE, _NEW_ITERATION, _SEARCHING = 0, 1, 2


def _solve_stacked(a, b):
    """x with a @ x = b for stacked systems; a system numpy cannot solve
    gives a row of NaN instead of failing the whole stack."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for idx in np.ndindex(b.shape[:-1]):
            try:
                out[idx] = np.linalg.solve(a[idx], b[idx])
            except np.linalg.LinAlgError:
                pass
        return out


def solve_lm_batch(batch: ProblemBatch, initial_params,
                   settings: LMSettings = LMSettings()) -> list:
    """Levenberg-Marquardt with multiplicative damping on every problem of
    a ProblemBatch, in lockstep (see the module docs).

    Steps solve (J^T J + damping*I) dx = -J^T r; a step is accepted only
    if it strictly decreases the cost, so the accepted-cost sequence is
    monotone non-increasing.  A problem terminates on gradient, step
    size, relative cost decrease, or the iteration cap.

    `initial_params` is the (size, dim) start of the problems in order.
    Returns, per problem, its FitReport, or the NonFiniteResidual or
    SingularNormalEquations it failed with.
    """
    dim, n = batch.dim, batch.size
    x = np.array(initial_params, dtype=float)
    if x.shape != (n, dim):
        raise ValueError(f"initial params must have shape ({n}, {dim})")
    if not batch.in_bounds(x):
        raise ValueError("initial params violate bounds")
    if not n:
        return []

    # per problem: params, cost, damping, iterations, history, state and
    # result, and J^T J and J^T r at x
    cost = batch.cost(np.arange(n), x).tolist()
    lam = [settings.damping] * n
    iterations = np.zeros(n, dtype=int)
    histories = [[c] for c in cost]
    state = np.full(n, _NEW_ITERATION)
    results = [None] * n
    jtj = np.empty((n, dim, dim))
    grad = np.empty((n, dim))
    up, down, eye = settings.damping_up, settings.damping_down, np.eye(dim)

    def finish(i, termination):
        state[i] = _DONE
        results[i] = FitReport(params=x[i].copy(), cost=cost[i],
                               iterations=int(iterations[i]),
                               termination=termination,
                               cost_history=np.asarray(histories[i]))

    def fail(i, error):
        state[i] = _DONE
        results[i] = error

    for i in np.flatnonzero(np.isnan(cost)):
        fail(i, NonFiniteResidual(f"residual not finite at {x[i]}"))

    while True:
        # start an iteration: J^T J and the gradient at x
        start = np.flatnonzero(state == _NEW_ITERATION)
        if start.size:
            iterations[start] += 1
            jtj[start], grad[start], finite = batch.normal_equations(
                start, x[start])
            for i in start[~finite]:
                fail(i, NonFiniteResidual(f"jacobian not finite at {x[i]}"))
            start = start[finite]
        flat = np.max(np.abs(2.0 * grad[start]), axis=1,
                      initial=0.0) < settings.grad_tol
        for i in start[flat]:
            iterations[i] -= 1
            finish(i, "gradient")
        state[start[~flat]] = _SEARCHING

        search = np.flatnonzero(state == _SEARCHING)
        if not search.size:
            break
        # one damping round: solve, project and evaluate both rungs of
        # every searching problem, as (rung, problem) arrays
        damping = np.array([lam[i] for i in search])
        rungs = np.stack((damping, damping * up))
        steps = _solve_stacked(
            jtj[search] + rungs[..., None, None] * eye,
            np.broadcast_to(-grad[search], rungs.shape + (dim,)))
        solvable = np.isfinite(steps).all(axis=-1)
        steps[~solvable] = 0.0       # evaluated at x, never taken
        xs = x[search]
        candidates = batch.apply_constraints(xs + steps)
        cost_new = batch.cost(search, candidates)
        cost_new[np.isnan(cost_new)] = np.inf
        step_norm = dot_norms(candidates - xs).tolist()
        new_norm = dot_norms(candidates).tolist()
        old_norm = dot_norms(xs).tolist()
        ok, cost_new = solvable.tolist(), cost_new.tolist()

        # the sequential rule, rung by rung, up to the first rung that
        # accepts, stalls or overflows the damping
        for p, i in enumerate(search.tolist()):
            for rung in (0, 1):
                if not ok[rung][p]:
                    lam[i] *= up
                    if lam[i] > _MAX_DAMPING:
                        fail(i, SingularNormalEquations(
                            "normal equations unsolvable at maximum damping"))
                        break
                    continue
                trial = cost_new[rung][p]
                if trial < cost[i]:
                    x[i] = candidates[rung, p]
                    prev_cost, cost[i] = cost[i], trial
                    histories[i].append(trial)
                    lam[i] = max(lam[i] / down, _MIN_DAMPING)
                    if step_norm[rung][p] < settings.step_tol * (
                            1.0 + new_norm[rung][p]):
                        finish(i, "step")
                    elif prev_cost - trial < settings.cost_tol * max(
                            1.0, prev_cost):
                        finish(i, "cost_decrease")
                    elif iterations[i] == settings.max_iterations:
                        finish(i, "max_iterations")
                    else:
                        state[i] = _NEW_ITERATION
                    break
                lam[i] *= up
                if lam[i] > _MAX_DAMPING or step_norm[rung][p] < (
                        settings.step_tol * (1.0 + old_norm[p])):
                    finish(i, "step")   # no acceptable step: stalled
                    break

    return results


def solve_lm(problem: ResidualProblem, initial_params,
             settings: LMSettings = LMSettings()) -> FitReport:
    """solve_lm_batch on one problem, a batch of one: its FitReport, or
    its failure raised (NonFiniteResidual, SingularNormalEquations).  The
    normal equations are jac.T @ jac and jac.T @ r."""
    x = np.asarray(initial_params, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"initial params must have shape ({problem.dim},)")

    def cost(rows, params):
        costs = []
        for row in params.reshape(-1, problem.dim):
            r = np.asarray(problem.residual(row), dtype=float)
            costs.append(r @ r if np.isfinite(r).all() else np.nan)
        return np.reshape(costs, params.shape[:-1])

    def normal_equations(rows, params):
        jac = problem.evaluate_jacobian(params[0])
        r = problem.evaluate(params[0])
        return (jac.T @ jac)[None], (jac.T @ r)[None], np.ones(1, bool)

    batch = ProblemBatch(
        dim=problem.dim, size=1, cost=cost,
        normal_equations=normal_equations, lower=problem.lower,
        upper=problem.upper, wrap_mask=problem.wrap_mask)
    [report] = solve_lm_batch(batch, x[None], settings)
    if isinstance(report, Exception):
        raise report
    return report

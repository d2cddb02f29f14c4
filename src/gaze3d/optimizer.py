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
alone; the others go on.  A round's fixed cost is kept to a few numpy
calls on the stacked arrays: each problem's control (damping,
iterations, cost, acceptance) is Python scalars, the two rungs' damped
systems are J^T J + 0.0 with the damping added on the diagonal (the
bits of J^T J + damping * I), and the step, candidate and start norms
are one stacked call.  `solve_lm` runs that loop on one
ResidualProblem, with jac.T @ jac and jac.T @ r as its normal equations:
the scalar reference the fits' batches are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import check_integer, check_numbers, dot_norms, wrap_angle


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
            mask = np.asarray(self.wrap_mask, dtype=bool)
            object.__setattr__(self, "wrap_mask", mask)
            # the wrapped coordinates, as a slice when they are a run
            at = np.flatnonzero(mask)
            if at.size and at[-1] - at[0] == at.size - 1:
                at = slice(at[0], at[-1] + 1)
            object.__setattr__(self, "_wrapped", at)

    def apply_constraints(self, params):
        params = np.array(params, dtype=float)
        if self.wrap_mask is not None:
            params[..., self._wrapped] = wrap_angle(params[..., self._wrapped])
        if self.lower is not None:
            np.maximum(params, self.lower, out=params)
        if self.upper is not None:
            np.minimum(params, self.upper, out=params)
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


# the damping stays in [_MIN_DAMPING, _MAX_DAMPING]; damping_up and
# damping_down must cross that range in at most _MAX_DAMPING_CLIMB steps
_MIN_DAMPING, _MAX_DAMPING, _MAX_DAMPING_CLIMB = 1e-15, 1e12, 150
_MIN_DAMPING_FACTOR = ((_MAX_DAMPING / _MIN_DAMPING)
                       ** (1.0 / _MAX_DAMPING_CLIMB))


@dataclass(frozen=True)
class LMSettings:
    """Damping, iteration cap and tolerances of an LM solve.  Every value
    is a finite number > 0 but max_iterations, an integer >= 1.  damping_up
    and damping_down are at least (1e12 / 1e-15) ** (1 / 150) ~= 1.5136:
    150 rejected steps then take the damping from its floor to its
    maximum, where a factor near 1 would retry thousands of times (at 1,
    forever), and 150 accepted steps take it back down, where a factor
    near 1 leaves the damping high and the fit crawling to its cap."""

    damping: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 10.0
    max_iterations: int = 200
    step_tol: float = 1e-10
    cost_tol: float = 1e-12
    grad_tol: float = 1e-12

    def __post_init__(self):
        check_numbers(self, ("damping", "damping_up", "damping_down"))
        check_integer(self.max_iterations, "max_iterations", 1)
        check_numbers(self, ("step_tol", "cost_tol", "grad_tol"))
        for name in ("damping_up", "damping_down"):
            if getattr(self, name) < _MIN_DAMPING_FACTOR:
                raise ValueError(f"{name} must be >= "
                                 f"{_MIN_DAMPING_FACTOR:.6g}, "
                                 f"got {getattr(self, name)!r}")


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


def _solve_stacked(a, b):
    """x with a @ x = b for stacked systems, b broadcasting against a's
    stack; a system numpy cannot solve gives a row of NaN instead of
    failing the whole stack."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        b = np.broadcast_to(b, a.shape[:-1])
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

    # per problem, as Python scalars: cost, damping, iterations, history
    # and result; and its J^T J and J^T r at x, as the (J^T J, J^T r)
    # stacks of the round that evaluated them and its index in them
    cost = batch.cost(np.arange(n), x).tolist()
    lam = [settings.damping] * n
    iterations = [0] * n
    histories = [[c] for c in cost]
    results = [None] * n
    equations = [None] * n
    up, down = settings.damping_up, settings.damping_down
    step_tol, cost_tol = settings.step_tol, settings.cost_tol
    zeros = np.zeros((2, 1, 1, 1))       # both rungs' J^T J + 0.0

    def finish(i, termination):
        results[i] = FitReport(params=x[i].copy(), cost=cost[i],
                               iterations=iterations[i],
                               termination=termination,
                               cost_history=np.asarray(histories[i]))

    for i in range(n):
        if math.isnan(cost[i]):
            results[i] = NonFiniteResidual(f"residual not finite at {x[i]}")
    # the problems still searching, and those of them that start an
    # iteration (J^T J and the gradient at x) this round
    live = [i for i in range(n) if results[i] is None]
    fresh = live

    while live:
        if fresh:
            rows = np.array(fresh)
            xs = x[rows]
            jtj, grad, finite = batch.normal_equations(rows, xs)
            for p, i in enumerate(fresh):
                iterations[i] += 1
                equations[i] = (jtj, grad), p
            slopes = np.maximum.reduce(np.abs(grad), axis=1).tolist()
            for i, ok, slope in zip(fresh, finite.tolist(), slopes):
                if not ok:
                    results[i] = NonFiniteResidual(
                        f"jacobian not finite at {x[i]}")
                elif 2.0 * slope < settings.grad_tol:
                    iterations[i] -= 1
                    finish(i, "gradient")
            live = [i for i in live if results[i] is None]
            if not live:
                break
        if fresh == live:
            search = rows
        else:
            search = np.array(live)
            xs = x[search]
            jtj, grad = (np.stack([stacks[part][p] for stacks, p in
                                   map(equations.__getitem__, live)])
                         for part in (0, 1))
        # one damping round: solve, project and cost both rungs of every
        # live problem, as (rung, problem) arrays; the damping goes on the
        # diagonal of J^T J + 0.0, the bits of J^T J + damping * I
        damping = [lam[i] for i in live]
        damped = jtj + zeros
        damped.reshape(2, len(live), -1)[..., ::dim + 1] += np.array(
            [damping, [d * up for d in damping]])[..., None]
        steps = _solve_stacked(damped, -grad)
        solvable = np.isfinite(steps).all(axis=-1)
        ok = solvable.tolist()
        if False in ok[0] or False in ok[1]:
            steps[~solvable] = 0.0      # evaluated at x, never taken
        candidates = batch.apply_constraints(xs + steps)
        trials = batch.cost(search, candidates).tolist()
        norms = np.empty((5, len(live), dim))   # steps, candidates, x
        np.subtract(candidates, xs, out=norms[:2])
        norms[2:4] = candidates
        norms[4] = xs
        norms = dot_norms(norms).tolist()
        step_norm, new_norm, old_norm = norms[:2], norms[2:4], norms[4]

        # the sequential rule, rung by rung, up to the first rung that
        # accepts, stalls or overflows the damping
        fresh, taken, ended = [], [], []
        for p, i in enumerate(live):
            for rung in (0, 1):
                if not ok[rung][p]:
                    lam[i] *= up
                    if lam[i] > _MAX_DAMPING:
                        results[i] = SingularNormalEquations(
                            "normal equations unsolvable at maximum damping")
                        break
                    continue
                trial = trials[rung][p]
                if trial < cost[i]:     # never for a NaN cost
                    taken.append((i, rung, p))
                    prev_cost, cost[i] = cost[i], trial
                    histories[i].append(trial)
                    lam[i] = max(lam[i] / down, _MIN_DAMPING)
                    if step_norm[rung][p] < step_tol * (
                            1.0 + new_norm[rung][p]):
                        ended.append((i, "step"))
                    elif prev_cost - trial < cost_tol * max(1.0, prev_cost):
                        ended.append((i, "cost_decrease"))
                    elif iterations[i] == settings.max_iterations:
                        ended.append((i, "max_iterations"))
                    else:
                        fresh.append(i)
                    break
                lam[i] *= up
                if lam[i] > _MAX_DAMPING or step_norm[rung][p] < (
                        step_tol * (1.0 + old_norm[p])):
                    ended.append((i, "step"))   # no acceptable step: stalled
                    break
        for i, rung, p in taken:
            x[i] = candidates[rung, p]
        for i, termination in ended:
            finish(i, termination)
        live = [i for i in live if results[i] is None]

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

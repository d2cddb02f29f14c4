"""Damped (Levenberg-Marquardt) nonlinear least squares.

Small and dense on purpose: the mapper fits have at most 17 parameters
and a few hundred residuals, so full normal equations are adequate.  A
problem may supply a closed-form Jacobian; otherwise a central-difference
one is used, at 2*dim + 1 residual evaluations per iteration.  Cost is
the plain sum of squared residuals.

There is one LM loop, `solve_lm_stacked`, and it advances a batch of
problems of one dimension in lockstep: at these sizes a fit's time is
numpy's per-call overhead, which the batch pays once per round instead
of once per problem.  Problems come in ProblemStacks of equal residual
length, whose residuals and Jacobians are one kernel call per stack
(stacks are not padded to one length).  Each problem keeps its own
damping, acceptance, termination, cost history and error.  A damping
round solves the normal equations of every problem still searching for
a step at two rungs of damping, lambda and lambda * damping_up, in one
stacked np.linalg.solve, evaluates both candidates, and then applies the
sequential rule to the rungs in order up to the first that accepts,
stalls or overflows the damping; so every accepted step is the one the
problem takes alone (Madsen, Nielsen & Tingleff 2004 describe the
damping rule).  A problem whose residual or Jacobian goes non-finite, or
whose normal equations stay singular, fails alone; the others go on.
`solve_lm` is that loop applied to one problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import dot_norms, wrap_angle


class NonFiniteResidual(ValueError):
    """Residual evaluation produced NaN or inf."""


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
class ProblemStack(_Box):
    """`count` problems of one dimension and one residual length, whose
    residuals and Jacobians are evaluated together.

    `residual(members, params)` maps an index array of k members and
    their (k, dim) parameters to the (k, m) residuals; `jacobian` maps
    the same to the (k, m, dim) derivatives.  A member they cannot
    evaluate should get non-finite values, which fail it alone (or reject
    the step, for a candidate residual); an exception they raise ends the
    whole solve.  Bounds and wrap mask apply to every member, as in
    ResidualProblem.
    """

    dim: int
    count: int
    residual: callable
    jacobian: callable
    lower: np.ndarray = None
    upper: np.ndarray = None
    wrap_mask: np.ndarray = None


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


def _sum_squares(r):
    """r @ r for each row of a (k, m) array, with the bits of the 1-D
    product."""
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _by_stack(rows, offsets):
    """(stack, slice of `rows`) for each stack with rows in the sorted
    index array `rows`."""
    cuts = np.searchsorted(rows, offsets).tolist()
    return [(s, slice(a, b)) for s, (a, b) in enumerate(zip(cuts, cuts[1:]))
            if b > a]


def solve_lm_stacked(stacks, initial_params,
                     settings: LMSettings = LMSettings()) -> list:
    """Levenberg-Marquardt with multiplicative damping on every member of
    every ProblemStack, in lockstep (see the module docs).

    Steps solve (J^T J + damping*I) dx = -J^T r; a step is accepted only
    if it strictly decreases the cost, so the accepted-cost sequence is
    monotone non-increasing.  A problem terminates on gradient, step
    size, relative cost decrease, or the iteration cap.

    `initial_params[s]` is the (count, dim) start of stacks[s].  Returns,
    per stack, a list holding each member's FitReport, or the
    NonFiniteResidual or SingularNormalEquations it failed with.
    """
    dim = stacks[0].dim if stacks else 0
    starts = [np.array(x0, dtype=float) for x0 in initial_params]
    for stack, x0 in zip(stacks, starts, strict=True):
        if stack.dim != dim:
            raise ValueError("stacked problems must share one dimension")
        if x0.shape != (stack.count, dim):
            raise ValueError(f"initial params must have shape "
                             f"({stack.count}, {dim})")
        if not stack.in_bounds(x0):
            raise ValueError("initial params violate bounds")
    counts = [stack.count for stack in stacks]
    offsets = np.cumsum([0] + counts)
    n = int(offsets[-1])
    owner = np.repeat(np.arange(len(stacks)), counts)
    member = np.arange(n) - offsets[owner]

    # per problem: params, residuals (one (count, m) array per stack),
    # cost, damping, iterations, history, state and result
    x = np.concatenate(starts) if stacks else np.empty((0, dim))
    residuals = [np.asarray(stack.residual(np.arange(stack.count), x0),
                            dtype=float)
                 for stack, x0 in zip(stacks, starts)]
    cost = [c for r in residuals for c in _sum_squares(r).tolist()]
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

    for s, r in enumerate(residuals):
        for i in offsets[s] + np.flatnonzero(~np.isfinite(r).all(axis=1)):
            fail(i, NonFiniteResidual(f"residual not finite at {x[i]}"))

    while True:
        # start an iteration: Jacobian, gradient and J^T J at x
        start = np.flatnonzero(state == _NEW_ITERATION)
        iterations[start] += 1
        for s, part in _by_stack(start, offsets):
            rows = start[part]
            jac = np.asarray(stacks[s].jacobian(member[rows], x[rows]),
                             dtype=float)
            finite = np.isfinite(jac).all(axis=(1, 2))
            for i in rows[~finite]:
                fail(i, NonFiniteResidual(f"jacobian not finite at {x[i]}"))
            if not finite.all():
                rows, jac = rows[finite], jac[finite]
            jac_t = np.swapaxes(jac, 1, 2)
            grad[rows] = (jac_t @ residuals[s][member[rows], :, None])[..., 0]
            jtj[rows] = jac_t @ jac
            del jac, jac_t     # before the next stack's Jacobian is built
        start = start[state[start] == _NEW_ITERATION]
        flat = np.max(np.abs(2.0 * grad[start]), axis=1,
                      initial=0.0) < settings.grad_tol
        for i in start[flat]:
            iterations[i] -= 1
            finish(i, "gradient")
        state[start[~flat]] = _SEARCHING

        search = np.flatnonzero(state == _SEARCHING)
        if not search.size:
            break
        # one damping round: solve and evaluate both rungs of every
        # searching problem
        rungs = np.array([lam[i] for i in search])[:, None] * [1.0, up]
        steps = _solve_stacked(
            jtj[search, None] + rungs[..., None, None] * eye,
            np.broadcast_to(-grad[search, None], rungs.shape + (dim,)))
        solvable = np.isfinite(steps).all(axis=-1)
        steps[~solvable] = 0.0
        xs = x[search]
        candidates = np.empty(steps.shape)
        cost_new = np.full(rungs.shape, np.inf)
        r_new = {}
        for s, part in _by_stack(search, offsets):
            candidates[part] = stacks[s].apply_constraints(xs[part, None]
                                                           + steps[part])
            p, rung = np.nonzero(solvable[part])
            if not p.size:
                continue
            p += part.start
            r = np.asarray(stacks[s].residual(member[search[p]],
                                              candidates[p, rung]),
                           dtype=float)
            c = _sum_squares(r)
            c[~np.isfinite(r).all(axis=1)] = np.inf
            cost_new[p, rung] = c
            r_new.update(zip(zip(p.tolist(), rung.tolist()), r))
        step_norm = dot_norms(candidates - xs[:, None]).tolist()
        new_norm = dot_norms(candidates).tolist()
        old_norm = dot_norms(xs).tolist()

        # the sequential rule, rung by rung, up to the first rung that
        # accepts, stalls or overflows the damping
        for p, (i, ok, trial) in enumerate(zip(search.tolist(),
                                               solvable.tolist(),
                                               cost_new.tolist())):
            for rung in (0, 1):
                if not ok[rung]:
                    lam[i] *= up
                    if lam[i] > _MAX_DAMPING:
                        fail(i, SingularNormalEquations(
                            "normal equations unsolvable at maximum damping"))
                        break
                    continue
                if trial[rung] < cost[i]:
                    x[i] = candidates[p, rung]
                    residuals[owner[i]][member[i]] = r_new[p, rung]
                    prev_cost, cost[i] = cost[i], trial[rung]
                    histories[i].append(cost[i])
                    lam[i] = max(lam[i] / down, 1e-15)
                    if step_norm[p][rung] < settings.step_tol * (
                            1.0 + new_norm[p][rung]):
                        finish(i, "step")
                    elif prev_cost - cost[i] < settings.cost_tol * max(
                            1.0, prev_cost):
                        finish(i, "cost_decrease")
                    elif iterations[i] == settings.max_iterations:
                        finish(i, "max_iterations")
                    else:
                        state[i] = _NEW_ITERATION
                    break
                lam[i] *= up
                if lam[i] > _MAX_DAMPING or step_norm[p][rung] < (
                        settings.step_tol * (1.0 + old_norm[p])):
                    finish(i, "step")   # no acceptable step: stalled
                    break

    return [results[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def solve_lm(problem: ResidualProblem, initial_params,
             settings: LMSettings = LMSettings()) -> FitReport:
    """solve_lm_stacked on one problem: its FitReport, or its failure
    raised (NonFiniteResidual, SingularNormalEquations)."""
    x = np.asarray(initial_params, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"initial params must have shape ({problem.dim},)")
    if not problem.in_bounds(x):
        raise ValueError("initial params violate bounds")
    stack = ProblemStack(
        dim=problem.dim, count=1,
        residual=lambda members, params: np.array(
            [problem.residual(row) for row in params], dtype=float),
        jacobian=lambda members, params: problem.evaluate_jacobian(
            params[0])[None],
        lower=problem.lower, upper=problem.upper,
        wrap_mask=problem.wrap_mask)
    [[report]] = solve_lm_stacked([stack], [x[None]], settings)
    if isinstance(report, Exception):
        raise report
    return report

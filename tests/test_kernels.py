"""Residual kernels against direct computation, and their closed-form
Jacobians against the numeric oracle.  Kernels take fits in the ragged
layout only; one fit is a group of one (see one_fit)."""

import numpy as np
import pytest

from gaze3d import _kernels, mappers
from gaze3d.eye_simulator import SimRig, TwoSphereEye, synthesize_dataset
from gaze3d.geometry import rotation_from_angles
from gaze3d.mappers import fit_2d_to_3d, fit_3d_to_3d, polar_to_direction
from gaze3d.optimizer import (
    NonFiniteResidual,
    ResidualProblem,
    numeric_jacobian,
    solve_lm,
)
from helpers import pooled


def random_inputs(seed, n=40):
    rng = np.random.default_rng(seed)
    params17 = np.concatenate((rng.normal(0, 0.3, 14),
                               rng.uniform(-0.04, 0.04, 3)))
    params6 = np.concatenate((rng.uniform(-np.pi, np.pi, 3),
                              rng.uniform(-0.04, 0.04, 3)))
    feats = rng.normal(0, 1, (n, 7))
    poses = rng.normal(size=(n, 3))
    poses /= np.linalg.norm(poses, axis=1, keepdims=True)
    targets = np.column_stack((rng.uniform(-0.5, 0.5, n),
                               rng.uniform(-0.3, 0.3, n),
                               rng.uniform(0.8, 2.2, n)))
    return params17, params6, feats, poses, targets


def one_fit(kernel, params, inputs, targets, normalize=True):
    """`kernel` on one fit: (dim,) params with (N, ...) inputs and
    targets, as a group of one."""
    return kernel(params[None], _kernels.Rows([inputs[None]],
                                              [targets[None]]), normalize)


def test_2d3d_residual_matches_direct_computation():
    params17, _, feats, _, targets = random_inputs(0)
    w = params17[:14].reshape(7, 2)
    e = params17[14:]
    res = one_fit(_kernels.residuals_2d3d, params17, feats, targets,
                  normalize=True)
    # per-sample: cross(g(q w), unit(t - e))
    expected = []
    for q, t in zip(feats, targets):
        g = polar_to_direction(q @ w)
        d = (t - e) / np.linalg.norm(t - e)
        expected.extend(np.cross(g, d))
    assert np.allclose(res, expected, atol=1e-12)
    assert res.shape == (3 * len(feats),)


def test_2d3d_residual_unnormalized():
    params17, _, feats, _, targets = random_inputs(1)
    w, e = params17[:14].reshape(7, 2), params17[14:]
    res = one_fit(_kernels.residuals_2d3d, params17, feats, targets,
                  normalize=False)
    expected = []
    for q, t in zip(feats, targets):
        expected.extend(np.cross(polar_to_direction(q @ w), t - e))
    assert np.allclose(res, expected, atol=1e-12)


def test_3d3d_residual_matches_direct_computation():
    _, params6, _, poses, targets = random_inputs(2)
    R = rotation_from_angles(params6[:3])
    e = params6[3:]
    res = one_fit(_kernels.residuals_3d3d, params6, poses, targets,
                  normalize=True)
    expected = []
    for n_vec, t in zip(poses, targets):
        d = (t - e) / np.linalg.norm(t - e)
        expected.extend(np.cross(R @ n_vec, d))
    assert np.allclose(res, expected, atol=1e-12)


def test_residual_zero_for_perfect_geometry():
    # poses constructed as R^T of the exact directions -> all residuals 0
    rng = np.random.default_rng(3)
    e = np.array([0.01, 0.03, -0.02])
    angles = np.array([0.05, np.pi - 0.1, -0.03])
    R = rotation_from_angles(angles)
    targets = np.column_stack((rng.uniform(-0.3, 0.3, 20),
                               rng.uniform(-0.2, 0.2, 20),
                               rng.uniform(1.0, 2.0, 20)))
    dirs = targets - e
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    poses = dirs @ R   # == (R.T @ dir) rows
    params = np.concatenate((angles, e))
    res = one_fit(_kernels.residuals_3d3d, params, poses, targets)
    assert np.abs(res).max() < 1e-12




# ── closed-form Jacobians ────────────────────────────────────────────────

def oracle_inputs(seed, n=40):
    """Random fit inputs with the Euler angles within 1e-3 of +-pi and the
    eyeball centre on its +-0.05 m box bound."""
    params17, _, feats, poses, targets = random_inputs(seed, n)
    rng = np.random.default_rng(100 + seed)
    corner = rng.choice((-0.05, 0.05), 3)
    params17[14:] = corner
    angles = rng.choice((-1.0, 1.0), 3) * (np.pi - rng.uniform(0, 1e-3, 3))
    params6 = np.concatenate((angles, corner))
    return params17, params6, feats, poses, targets


@pytest.mark.parametrize("normalize", (True, False))
def test_jacobians_match_numeric_oracle(normalize):
    for seed in range(5):
        params17, params6, feats, poses, targets = oracle_inputs(seed)
        for kernel, jacobian, params, inputs in (
                (_kernels.residuals_2d3d, _kernels.jacobian_2d3d, params17,
                 feats),
                (_kernels.residuals_3d3d, _kernels.jacobian_3d3d, params6,
                 poses)):
            problem = ResidualProblem(
                dim=params.size, residual=lambda x: one_fit(
                    kernel, x, inputs, targets, normalize))
            expected = numeric_jacobian(problem, params)
            res, got = one_fit(jacobian, params, inputs, targets, normalize)
            assert np.array_equal(res, problem.residual(params))
            assert got.shape == expected.shape == (3 * len(targets),
                                                   params.size)
            assert np.allclose(got, expected, rtol=0, atol=1e-8)


def test_non_finite_jacobian_raises():
    problem = ResidualProblem(
        dim=2, residual=lambda x: x - 1.0,
        jacobian=lambda x: np.array([[1.0, 0.0], [0.0, np.nan]]))
    with pytest.raises(NonFiniteResidual):
        solve_lm(problem, np.zeros(2))


@pytest.mark.parametrize("depths", ((1.0, 2.0), (1.5,)))
def test_fits_agree_with_numeric_jacobian(depths, monkeypatch):
    bundle = synthesize_dataset(SimRig(), TwoSphereEye(), depths=depths)
    samples = pooled(bundle.calibration, depths)
    pairs_2d = list(zip(samples.pupil_px, samples.target))
    pairs_3d = list(zip(samples.pupil_pose, samples.target))
    analytic = (fit_2d_to_3d(pairs_2d), fit_3d_to_3d(pairs_3d))

    layout = mappers._lm_layout

    def numeric_layout(mapper_id):
        # every fit's Jacobian from numeric_jacobian, member by member
        residual, _, dim, wrap = layout(mapper_id)

        def jacobian(params, rows, normalize):
            # the ragged layout: groups of fits, each fit's rows in order
            inputs = [q for group in rows.groups for q in group]
            ends = np.cumsum([len(q) for q in inputs])[:-1]
            fits = list(zip(inputs, np.split(rows.targets.T, ends)))
            return (residual(params, rows, normalize),
                    np.concatenate([numeric_jacobian(ResidualProblem(
                        dim=dim, residual=lambda x, q=q, t=t: one_fit(
                            residual, x, q, t, normalize)), x0)
                        for x0, (q, t) in zip(params, fits, strict=True)]))
        return residual, jacobian, dim, wrap

    monkeypatch.setattr(mappers, "_lm_layout", numeric_layout)
    numeric = (fit_2d_to_3d(pairs_2d), fit_3d_to_3d(pairs_3d))

    for a, b in zip(analytic, numeric):
        assert a.report.termination == b.report.termination
        assert a.report.iterations == b.report.iterations
        assert np.allclose(a.center, b.center, rtol=0, atol=1e-8)
    assert np.allclose(analytic[0].weights, numeric[0].weights, rtol=0,
                       atol=1e-6)
    assert np.allclose(analytic[1].angles, numeric[1].angles, rtol=0,
                       atol=1e-6)


# ── the ragged layout ────────────────────────────────────────────────────

def ragged_inputs(seed, shapes=((3, 25), (1, 9), (2, 40))):
    """Groups of fits of (count, samples) each: 2d3d and 3d3d params of
    every fit, each with a second parameter set as the two damping rungs
    are passed, and each group's features, poses and targets."""
    fits = [random_inputs(100 * seed + len(shapes) * i + g, n)
            for g, (k, n) in enumerate(shapes) for i in range(k)]
    params17, params6 = (np.array([f[j] for f in fits]) for j in (0, 1))
    cuts = np.cumsum([0] + [k for k, _ in shapes])
    groups = [tuple(np.array([f[j] for f in fits[a:b]]) for j in (2, 3, 4))
              for a, b in zip(cuts, cuts[1:])]
    rng = np.random.default_rng(seed)
    rungs17, rungs6 = (np.stack((p, p + rng.normal(0, 1e-3, p.shape)))
                       for p in (params17, params6))
    return params17, params6, rungs17, rungs6, groups


@pytest.mark.parametrize("normalize", (True, False))
def test_jacobian_after_a_residual_call_keeps_its_bits(normalize):
    """A Jacobian call on the Rows of a residual call, at that call's
    parameters (its one set, or the second of two damping rungs), reuses
    the rows it computed; at any other parameters or normalization it
    computes them anew.  Either way it gives the bits of a call on fresh
    Rows."""
    params17, params6, rungs17, rungs6, groups = ragged_inputs(1)
    for residual, jacobian, params, rungs, at in (
            (_kernels.residuals_2d3d, _kernels.jacobian_2d3d, params17,
             rungs17, 0),
            (_kernels.residuals_3d3d, _kernels.jacobian_3d3d, params6,
             rungs6, 1)):
        inputs, targets = [g[at] for g in groups], [g[2] for g in groups]
        rows = _kernels.Rows(inputs, targets)
        for costed, at_params, costed_normalize in (
                (params, params, normalize), (rungs, rungs[1], normalize),
                (rungs, rungs[0], normalize),
                (rungs, rungs[1], not normalize)):
            residual(costed, rows, costed_normalize)
            expected = jacobian(at_params, _kernels.Rows(inputs, targets),
                                normalize)
            for got, want in zip(jacobian(at_params, rows, normalize),
                                 expected):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("normalize", (True, False))
def test_ragged_rows_equal_batched_group_calls(normalize):
    """One ragged call over groups of different sample counts gives, bit
    for bit, each group's call alone and each fit's call alone; the
    residuals a Jacobian kernel returns are the residual kernel's."""
    for seed in range(3):
        params17, params6, rungs17, rungs6, groups = ragged_inputs(seed)
        counts = np.cumsum([0] + [len(g[0]) for g in groups])
        for kernel, params, rungs, at in (
                (_kernels.residuals_2d3d, params17, rungs17, 0),
                (_kernels.jacobian_2d3d, params17, None, 0),
                (_kernels.residuals_3d3d, params6, rungs6, 1),
                (_kernels.jacobian_3d3d, params6, None, 1)):
            inputs = [g[at] for g in groups]
            targets = [g[2] for g in groups]

            def call(p, inputs, targets):   # every output, as a tuple
                out = kernel(p, _kernels.Rows(inputs, targets), normalize)
                return out if isinstance(out, tuple) else (out,)

            for p in (params,) if rungs is None else (params, *rungs):
                ragged = call(p, inputs, targets)
                grouped = [call(p[a:b], [x], [t]) for a, b, x, t
                           in zip(counts, counts[1:], inputs, targets)]
                alone = [call(p[i][None], [x[j][None]], [t[j][None]])
                         for a, x, t in zip(counts, inputs, targets)
                         for j, i in enumerate(range(a, a + len(x)))]
                for part, out in enumerate(ragged):
                    assert np.array_equal(out, np.concatenate(
                        [g[part] for g in grouped]))
                    assert np.array_equal(out, np.concatenate(
                        [f[part] for f in alone]))
            if rungs is None:
                residual = (_kernels.residuals_2d3d if at == 0
                            else _kernels.residuals_3d3d)
                assert np.array_equal(ragged[0], residual(
                    params, _kernels.Rows(inputs, targets), normalize))
            else:
                rows = _kernels.Rows(inputs, targets)
                both = kernel(rungs, rows, normalize)
                assert both.shape == (2, ragged[0].size)
                for r in (0, 1):
                    assert np.array_equal(both[r],
                                          kernel(rungs[r], rows, normalize))

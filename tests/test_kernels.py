"""Residual kernels against direct computation, and their closed-form
Jacobians against the numeric oracle."""

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


def test_2d3d_residual_matches_direct_computation():
    params17, _, feats, _, targets = random_inputs(0)
    w = params17[:14].reshape(7, 2)
    e = params17[14:]
    res = _kernels.residuals_2d3d(params17, feats, targets,
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
    res = _kernels.residuals_2d3d(params17, feats, targets,
                                  normalize=False)
    expected = []
    for q, t in zip(feats, targets):
        expected.extend(np.cross(polar_to_direction(q @ w), t - e))
    assert np.allclose(res, expected, atol=1e-12)


def test_3d3d_residual_matches_direct_computation():
    _, params6, _, poses, targets = random_inputs(2)
    R = rotation_from_angles(params6[:3])
    e = params6[3:]
    res = _kernels.residuals_3d3d(params6, poses, targets,
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
    res = _kernels.residuals_3d3d(params, poses, targets)
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
                dim=params.size,
                residual=lambda x: kernel(x, inputs, targets, normalize))
            expected = numeric_jacobian(problem, params)
            got = jacobian(params, inputs, targets, normalize)
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
    samples = [s for d in depths for s in bundle.calibration[d]]
    pairs_2d = [(s.pupil_px, s.target) for s in samples]
    pairs_3d = [(s.pupil_pose, s.target) for s in samples]
    analytic = (fit_2d_to_3d(pairs_2d), fit_3d_to_3d(pairs_3d))

    layout = mappers._lm_layout

    def numeric_layout(mapper_id):
        # every fit's Jacobian from numeric_jacobian, member by member
        residual, _, dim, wrap = layout(mapper_id)

        def jacobian(params, inputs, targets, normalize):
            return np.array([numeric_jacobian(ResidualProblem(
                dim=dim, residual=lambda x, q=q, t=t: residual(
                    x, q, t, normalize)), x0)
                for x0, q, t in zip(params, inputs, targets)])
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

"""Residual kernels and their closed-form Jacobians for the 3D mapper fits.

Every Levenberg-Marquardt iteration evaluates one residual and one
Jacobian, plus one residual per rejected damping step.  All kernels are
vectorized numpy over the calibration samples; cross products are
written out component by component because `np.cross` costs more in
dispatch than in arithmetic at these sizes (and gives the same bits).

Parameter layouts (matching the mapper fits):
  2D-to-3D: params[:14] = 7x2 weight matrix row-major, params[14:17] = e
  3D-to-3D: params[:3] = Euler angles (X-then-Y-then-Z), params[3:6] = e

Residuals are r_i = d_i x u(t_i - e) with u(v) = v/|v| (or u(v) = v when
not normalizing), flattened to (3N,); Jacobians are (3N, dim) with the
same row order.  For the centre block,
  dr_i/de = [d_i]x du/dv (-I),   du/dv = (I - v^ v^T)/|v|  (or I).
Rotation entries are computed inline without range checks: the solver
wraps angles after every step, but finite differencing probes slightly
past the [-pi, pi] boundary.
"""

from __future__ import annotations

import numpy as np


def _cross(a, b):
    """a x b along the last axis of two broadcastable (..., 3) arrays."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    out = np.empty(c0.shape + (3,))
    out[..., 0] = c0
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _rotation_entries(a, b, c):
    """Rows of Rx(a) @ Ry(b) @ Rz(c), as plain scalars."""
    sa, ca = np.sin(a), np.cos(a)
    sb, cb = np.sin(b), np.cos(b)
    sc, cc = np.sin(c), np.cos(c)
    return ((cb * cc, -cb * sc, sb),
            (sa * sb * cc + ca * sc, -sa * sb * sc + ca * cc, -sa * cb),
            (-ca * sb * cc + sa * sc, ca * sb * sc + sa * cc, ca * cb))


def _directions(w, feats):
    """Polar angles alpha = q w, the gaze directions g(alpha) and the
    cosine/sine terms their derivatives reuse."""
    alpha = feats @ w
    theta, phi = alpha[:, 0], alpha[:, 1]
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    g = np.empty((len(feats), 3))
    g[:, 0] = st
    g[:, 1] = ct * sp
    g[:, 2] = ct * cp
    return g, st, ct, sp, cp


def _offsets(e, targets, normalize):
    """v = t - e, or v^ and |v| (as an (N, 1) column) when normalizing."""
    v = targets - e
    if not normalize:
        return v, None
    norm = np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))
    return v / norm, norm


def _center_block(jac, d, u, norm):
    """Fill jac[:, :, -3:] with dr/de for r = d x u(t - e).

    Column k is -(d x e_k - u_k r)/|v|, or -(d x e_k) without
    normalization, where d x e_x = (0, d_z, -d_y) and so on.
    """
    block = jac[:, :, -3:]
    d0, d1, d2 = d[:, 0], d[:, 1], d[:, 2]
    block[:, 0, 0] = 0.0
    block[:, 1, 0] = -d2
    block[:, 2, 0] = d1
    block[:, 0, 1] = d2
    block[:, 1, 1] = 0.0
    block[:, 2, 1] = -d0
    block[:, 0, 2] = -d1
    block[:, 1, 2] = d0
    block[:, 2, 2] = 0.0
    if norm is not None:
        block += _cross(d, u)[:, :, None] * u[:, None, :]
        block /= norm[:, :, None]


def residuals_2d3d(params, feats, targets, normalize=True):
    """Cross products g(q w) x (t - e), flattened to (3N,)."""
    g = _directions(params[:14].reshape(7, 2), feats)[0]
    u, _ = _offsets(params[14:17], targets, normalize)
    return _cross(g, u).ravel()


def jacobian_2d3d(params, feats, targets, normalize=True):
    """Closed-form (3N, 17) Jacobian of `residuals_2d3d`.

    dr/dW[j, 0] = (dg/dtheta x u) q_j and dr/dW[j, 1] = (dg/dphi x u) q_j,
    with dg/dtheta = (cos t, -sin t sin p, -sin t cos p) and
    dg/dphi = (0, cos t cos p, -cos t sin p).
    """
    g, st, ct, sp, cp = _directions(params[:14].reshape(7, 2), feats)
    u, norm = _offsets(params[14:17], targets, normalize)
    n = len(feats)
    dg_theta = np.empty((n, 3))
    dg_theta[:, 0] = ct
    dg_theta[:, 1] = -st * sp
    dg_theta[:, 2] = -st * cp
    dg_phi = np.empty((n, 3))
    dg_phi[:, 0] = 0.0
    dg_phi[:, 1] = g[:, 2]
    dg_phi[:, 2] = -g[:, 1]
    jac = np.empty((n, 3, 17))
    jac[:, :, 0:14:2] = _cross(dg_theta, u)[:, :, None] * feats[:, None, :]
    jac[:, :, 1:14:2] = _cross(dg_phi, u)[:, :, None] * feats[:, None, :]
    _center_block(jac, g, u, norm)
    return jac.reshape(3 * n, 17)


def residuals_3d3d(params, poses, targets, normalize=True):
    """Cross products (R n) x (t - e), flattened to (3N,)."""
    rot = np.array(_rotation_entries(params[0], params[1], params[2]))
    u, _ = _offsets(params[3:6], targets, normalize)
    return _cross(poses @ rot.T, u).ravel()


def jacobian_3d3d(params, poses, targets, normalize=True):
    """Closed-form (3N, 6) Jacobian of `residuals_3d3d`.

    For R = Rx(a) Ry(b) Rz(c), dR/da = [x]x R, dR/db = [Rx y]x R and
    dR/dc = [Rx Ry z]x R, so d(R n)/da = x x d and so on with d = R n;
    Rx Ry z is the last column of R.
    """
    rot = np.array(_rotation_entries(params[0], params[1], params[2]))
    sa, ca = np.sin(params[0]), np.cos(params[0])
    axes = np.array(((1.0, 0.0, 0.0), (0.0, ca, sa), rot[:, 2]))
    u, norm = _offsets(params[3:6], targets, normalize)
    d = poses @ rot.T
    n = len(poses)
    jac = np.empty((n, 3, 6))
    dd = _cross(axes[:, None, :], d)                 # (angle, sample, xyz)
    jac[:, :, :3] = _cross(dd, u).transpose(1, 2, 0)
    _center_block(jac, d, u, norm)
    return jac.reshape(3 * n, 6)

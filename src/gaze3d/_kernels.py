"""Residual kernels and their closed-form Jacobians for the 3D mapper fits.

Every Levenberg-Marquardt iteration evaluates one Jacobian and the
residuals of its damping trials.  All kernels are vectorized numpy;
cross products are written out component by component because
`np.cross` costs more in dispatch than in arithmetic at these sizes (and
gives the same bits).

Parameter layouts (matching the mapper fits):
  2D-to-3D: params[:14] = 7x2 weight matrix row-major, params[14:17] = e
  3D-to-3D: params[:3] = Euler angles (X-then-Y-then-Z), params[3:6] = e

Residuals are r_i = d_i x u(t_i - e) with u(v) = v/|v| (or u(v) = v when
not normalizing), three rows per sample; Jacobians hold dr/dparams with
the same row order.  For the centre block,
  dr_i/de = [d_i]x du/dv (-I),   du/dv = (I - v^ v^T)/|v|  (or I).
Rotation entries are computed inline without range checks: the solver
wraps angles after every step, but finite differencing probes slightly
past the [-pi, pi] boundary.

Each kernel is one matrix product per fit, which turns a sample's input
into its polar angles alpha = q W or its rotated pose d = R n, followed
by elementwise math on rows: one row per sample, carrying those angles
or that pose, its fit's centre e and its target.  Kernels take the fits
of a call in one (ragged) layout: inputs and targets are sequences with
one (k_g, N_g, ...) array per group of fits with equal sample counts, and
params is (..., K, dim) for the K = sum k_g fits in group order.
Residuals are (..., 3R) and Jacobians (3R, dim), R = sum k_g N_g, each
fit's rows in fit order; a Jacobian kernel also returns the (3R,)
residuals at its params, which its centre block forms anyway.  One fit
is a group of one: params (1, dim) with (1, N, ...) inputs.  The rows of
all fits go through the elementwise math in one pass and only the
products are one matmul per group, so a fit's rows carry the bits of a
call on that fit alone; leading axes of params (say, two damping trials
per fit) share each group's inputs in that matmul.
"""

from __future__ import annotations

import numpy as np


def _cross(a, b, out=None):
    """a x b along the last axis of two broadcastable (..., 3) arrays,
    written to `out` when given."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    if out is None:
        out = np.empty(c0.shape + (3,))
    out[..., 0] = c0
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _rotation(params):
    """Rx(a) @ Ry(b) @ Rz(c) as a (..., 3, 3) array for the Euler angles
    (a, b, c) = params[..., :3]."""
    a, b, c = params[..., 0], params[..., 1], params[..., 2]
    sa, ca = np.sin(a), np.cos(a)
    sb, cb = np.sin(b), np.cos(b)
    sc, cc = np.sin(c), np.cos(c)
    rot = np.empty(a.shape + (3, 3))
    rot[..., 0, 0] = cb * cc
    rot[..., 0, 1] = -cb * sc
    rot[..., 0, 2] = sb
    rot[..., 1, 0] = sa * sb * cc + ca * sc
    rot[..., 1, 1] = -sa * sb * sc + ca * cc
    rot[..., 1, 2] = -sa * cb
    rot[..., 2, 0] = -ca * sb * cc + sa * sc
    rot[..., 2, 1] = ca * sb * sc + sa * cc
    rot[..., 2, 2] = ca * cb
    return rot


def _join(arrays, axis=0):
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis)


class _Rows:
    """The rows of a kernel call (see the module docs): `products(mats)`
    gives every sample's input times its fit's matrix, `per_row` repeats
    per-fit values over their fits' rows, `targets` and `inputs` are the
    rows' targets and inputs, and `flat` gives a result its flat shape."""

    def __init__(self, params, inputs, targets):
        if params.shape[-2] != sum(len(x) for x in inputs):
            raise ValueError("params must hold one row per fit")
        self.shape = params.shape[:-2]
        self.params, self.groups = params, inputs
        self.counts = np.repeat([x.shape[1] for x in inputs],
                                [len(x) for x in inputs])
        self.targets = _join([t.reshape(-1, 3) for t in targets])

    @property
    def inputs(self):
        return _join([x.reshape(-1, x.shape[-1]) for x in self.groups])

    def products(self, mats):
        out, start = [], 0
        for x in self.groups:
            p = x @ mats[..., start:start + len(x), :, :]
            out.append(p.reshape(p.shape[:-3] + (-1, p.shape[-1])))
            start += len(x)
        return _join(out, axis=-2)

    def per_row(self, values, axis=-2):
        return np.repeat(values, self.counts, axis=axis)

    def centres(self):
        return self.per_row(self.params[..., -3:])

    def flat(self, rows, tail=()):
        """(..., R, 3) residual rows as (..., 3R), or (R, 3, dim)
        Jacobian rows with tail (dim,) as (3R, dim)."""
        return rows.reshape(self.shape + (-1,) + tail)


def _directions(alpha):
    """Gaze directions g(alpha) of polar angles alpha and the
    cosine/sine terms their derivatives reuse."""
    theta, phi = alpha[..., 0], alpha[..., 1]
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    g = np.empty(alpha.shape[:-1] + (3,))
    g[..., 0] = st
    g[..., 1] = ct * sp
    g[..., 2] = ct * cp
    return g, st, ct, sp, cp


def _offsets(e, targets, normalize):
    """v = t - e for rows of centres and targets, or v^ and |v| (as an
    (..., 1) column) when normalizing."""
    v = targets - e
    if not normalize:
        return v, None
    norm = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    return v / norm, norm


def _center_block(jac, d, u, norm):
    """Fill jac[..., -3:] with dr/de for r = d x u(t - e), and return the
    residual rows r.

    Column k is -(d x e_k - u_k r)/|v|, or -(d x e_k) without
    normalization, where d x e_x = (0, d_z, -d_y) and so on.  The
    -(d x e_k) part is built contiguous; u_k r is written in place.
    """
    r = _cross(d, u)
    block = np.empty(d.shape + (3,))
    d0, d1, d2 = d[..., 0], d[..., 1], d[..., 2]
    block[..., 0, 0] = 0.0
    block[..., 1, 0] = -d2
    block[..., 2, 0] = d1
    block[..., 0, 1] = d2
    block[..., 1, 1] = 0.0
    block[..., 2, 1] = -d0
    block[..., 0, 2] = -d1
    block[..., 1, 2] = d0
    block[..., 2, 2] = 0.0
    if norm is None:
        jac[..., -3:] = block
        return r
    out = jac[..., -3:]
    np.multiply(r[..., :, None], u[..., None, :], out=out)
    out += block
    out /= norm[..., None]
    return r


def _weights(params):
    """The 7x2 weight matrices of (..., 17) 2D-to-3D params."""
    return params[..., :14].reshape(params.shape[:-1] + (7, 2))


def _residual_rows(d, e, targets, normalize):
    """Rows d x u(t - e) of directions d, centres e and targets t."""
    return _cross(d, _offsets(e, targets, normalize)[0])


def residuals_2d3d(params, feats, targets, normalize=True):
    """Cross products g(q w) x (t - e), flattened to (..., 3R)."""
    rows = _Rows(params, feats, targets)
    g = _directions(rows.products(_weights(rows.params)))[0]
    return rows.flat(_residual_rows(g, rows.centres(), rows.targets,
                                    normalize))


def jacobian_2d3d(params, feats, targets, normalize=True):
    """The (3R,) residuals and closed-form (3R, 17) Jacobian of
    `residuals_2d3d`.

    dr/dW[j, 0] = (dg/dtheta x u) q_j and dr/dW[j, 1] = (dg/dphi x u) q_j,
    with dg/dtheta = (cos t, -sin t sin p, -sin t cos p) and
    dg/dphi = (0, cos t cos p, -cos t sin p).
    """
    rows = _Rows(params, feats, targets)
    g, st, ct, sp, cp = _directions(rows.products(_weights(rows.params)))
    u, norm = _offsets(rows.centres(), rows.targets, normalize)
    jac = np.empty(g.shape + (17,))
    q = rows.inputs[..., None, :]
    dg = np.empty(g.shape)      # dg/dtheta, then dg/dphi
    dg[..., 0] = ct
    dg[..., 1] = -st * sp
    dg[..., 2] = -st * cp
    np.multiply(_cross(dg, u)[..., None], q, out=jac[..., 0:14:2])
    dg[..., 0] = 0.0
    dg[..., 1] = g[..., 2]
    dg[..., 2] = -g[..., 1]
    np.multiply(_cross(dg, u)[..., None], q, out=jac[..., 1:14:2])
    del q, dg, st, ct, sp, cp   # before the centre block's temporaries
    r = _center_block(jac, g, u, norm)
    return rows.flat(r), rows.flat(jac, jac.shape[-1:])


def residuals_3d3d(params, poses, targets, normalize=True):
    """Cross products (R n) x (t - e), flattened to (..., 3R)."""
    rows = _Rows(params, poses, targets)
    d = rows.products(np.swapaxes(_rotation(rows.params), -1, -2))
    return rows.flat(_residual_rows(d, rows.centres(), rows.targets,
                                    normalize))


def jacobian_3d3d(params, poses, targets, normalize=True):
    """The (3R,) residuals and closed-form (3R, 6) Jacobian of
    `residuals_3d3d`.

    For R = Rx(a) Ry(b) Rz(c), dR/da = [x]x R, dR/db = [Rx y]x R and
    dR/dc = [Rx Ry z]x R, so d(R n)/da = x x d and so on with d = R n;
    Rx Ry z is the last column of R.
    """
    rows = _Rows(params, poses, targets)
    rot = _rotation(rows.params)
    axes = np.zeros(rot.shape)
    axes[..., 0, 0] = 1.0
    axes[..., 1, 1] = np.cos(rows.params[..., 0])
    axes[..., 1, 2] = np.sin(rows.params[..., 0])
    axes[..., 2, :] = rot[..., :, 2]
    d = rows.products(np.swapaxes(rot, -1, -2))
    # d(R n)/d(angle) as (row, angle, xyz), built before u and jac exist
    # so that its temporaries do not add to theirs
    dd = _cross(rows.per_row(axes, axis=-3), d[..., None, :])
    u, norm = _offsets(rows.centres(), rows.targets, normalize)
    jac = np.empty(d.shape + (6,))
    _cross(dd, u[..., None, :], out=np.swapaxes(jac[..., :3], -1, -2))
    del dd
    r = _center_block(jac, d, u, norm)
    return rows.flat(r), rows.flat(jac, jac.shape[-1:])

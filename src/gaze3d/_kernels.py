"""Residual kernels and their closed-form Jacobians for the 3D mapper fits.

Every Levenberg-Marquardt iteration evaluates one Jacobian and the
residuals of its damping trials.  All kernels are vectorized numpy.

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

Kernels take the fits of a call as Rows, the ragged layout of one set
of fits, built once from one (k_g, N_g, ...) inputs array and one
(k_g, N_g, 3) targets array per group of fits with equal sample counts
and reused by every call on that set.  A Rows also keeps the per-row
arrays of its last residual call (of the second parameter set, when a
call costs two damping rungs: the solver takes that rung most often)
and hands them to a Jacobian call at exactly those parameters, which
then skips its forward pass: an accepted step's directions, offsets and
residuals are computed once.  params is (..., K, dim) for the
K = sum k_g fits in group order.  Residuals are (..., 3R) and Jacobians
(3R, dim), R = sum k_g N_g, each fit's rows in fit order; a Jacobian
kernel also returns the (3R,) residuals at its params, which its centre
block needs anyway.  One fit is a group of one: params (1, dim) with
(1, N, ...) inputs.

Each kernel is one matrix product per group, which turns a sample's
input into its polar angles alpha = q W or its rotated pose d = R n,
followed by elementwise math on rows.  That math holds a vector of every
row as a (5, ..., R) array: its components outermost, the rows inner
and the first two components repeated after the third, so that a cross
product is two products and a difference of shifted views, and nearly
every numpy call runs over contiguous rows, not over 3-entry axes (a
call on small non-contiguous operands costs about twice one on
contiguous ones).  The Jacobian stays the C-order (3R, dim) array whose
per-fit J^T J and J^T r are one matmul each: its centre and angle
columns are written through transposed views, and its 2D-to-3D weight
columns are built as (j, m, xyz, row) blocks and copied in with the 14
weight columns of a row inner.  Every step is elementwise per row or
one matmul per group, so a fit's rows carry the bits of a call on that
fit alone, and leading axes of params (two damping trials per fit)
share each group's inputs in that matmul.  Cross products are written
out rather than np.cross, which costs more in dispatch than in
arithmetic at these sizes and gives the same bits.
"""

from __future__ import annotations

import functools

import numpy as np

# rows per block of the 2D-to-3D Jacobian's weight columns, which bounds
# that kernel's largest temporary
_BLOCK_ROWS = 512


class Rows:
    """The rows of the fits of a kernel call (see the module docs), from
    one inputs and one targets array per group.  `spans` gives each group
    as (first fit, end fit, first row, end row); `fit` is each row's fit;
    `targets` (3, R) and `inputs` (n, R) hold every row's target and
    input with the rows inner."""

    def __init__(self, inputs, targets):
        self.groups, self.spans, fits, rows = list(inputs), [], 0, 0
        for x in self.groups:
            k, n = x.shape[:2]
            self.spans.append((fits, fits + k, rows, rows + k * n))
            fits, rows = fits + k, rows + k * n
        self.size, self.count, self._layouts = fits, rows, {}
        self._kept = None
        self.fit = np.repeat(np.arange(fits), [x.shape[1] for x in self.groups
                                               for _ in range(len(x))])
        self.targets = np.concatenate(
            [t.reshape(-1, 3) for t in targets]).T.copy()

    @functools.cached_property
    def inputs(self):
        return np.concatenate(
            [x.reshape(-1, x.shape[-1]) for x in self.groups]).T.copy()

    def check(self, params):
        """`params`, or ValueError unless it holds one row per fit."""
        if params.shape[-2] != self.size:
            raise ValueError("params must hold one row per fit")
        return params

    def products(self, mats):
        """Every row's input times its fit's matrix of the (..., K, n, m)
        `mats`: (..., R, m), one matmul per group."""
        lead, m = mats.shape[:-3], mats.shape[-1]
        out = np.empty(lead + (self.count, m))
        for (a, b, s, e), x in zip(self.spans, self.groups):
            np.matmul(x, mats[..., a:b, :, :],
                      out=out[..., s:e, :].reshape(lead + x.shape[:2] + (m,)))
        return out

    def offsets(self, params):
        """t - e of every row as (3, ..., R), e = params[..., -3:] of the
        row's fit: one take from the flat params and one subtraction, laid
        out once per params shape."""
        if params.shape not in self._layouts:
            dim, lead = params.shape[-1], params.shape[:-2]
            index = (np.arange(dim - 3, dim)[:, None, None]
                     + np.arange(0, params.size, self.size * dim)[:, None]
                     + self.fit * dim)
            self._layouts[params.shape] = (
                index.reshape((3,) + lead + (self.count,)),
                self.targets.reshape((3,) + (1,) * len(lead) + (self.count,)))
        index, targets = self._layouts[params.shape]
        return np.subtract(targets, params.reshape(-1).take(index))

    def keep(self, params, normalize, arrays, axes):
        """Keep the per-row arrays of a residual call for a Jacobian call
        at the same parameters.  With several parameter sets per fit
        (two damping rungs) those of the last are kept, copied: the solver
        takes the second rung most often.  `axes` gives the axis where each
        array's leading params axes start."""
        if params.ndim == 3:
            params = params[-1]
            arrays = tuple(None if a is None else
                           a[(slice(None),) * axis + (-1,)].copy()
                           for a, axis in zip(arrays, axes))
        self._kept = params.tobytes(), normalize, arrays

    def kept(self, params, normalize):
        """The arrays kept at exactly these (K, dim) params, handed over
        once, or None."""
        kept, self._kept = self._kept, None
        if (kept is not None and kept[1] == normalize
                and kept[0] == params.tobytes()):
            return kept[2]
        return None


def _components(rows_first):
    """A (..., R, m) array as its (m, ..., R) view."""
    return rows_first.transpose((rows_first.ndim - 1,)
                                + tuple(range(rows_first.ndim - 1)))


def _cross_rows(a, b, out=None):
    """a x b of (5, ..., R) extended vectors, as (3, ..., R), written to
    `out` (of any strides) when given."""
    c = np.multiply(a[1:4], b[2:5])
    return np.subtract(c, a[2:5] * b[1:4], out=c if out is None else out)


def _residuals(d, u):
    """The residual rows d x u of extended d and u, flattened to
    (..., 3R)."""
    out = np.empty(d.shape[1:] + (3,))
    _cross_rows(d, u, out=_components(out))
    return out.reshape(d.shape[1:-1] + (-1,))


def _offsets(rows, params, normalize):
    """u(t - e) of every row as an extended (5, ..., R) array, and |t - e|
    as (..., R) when normalizing (else None)."""
    v = rows.offsets(params)
    u = np.empty((5,) + v.shape[1:])
    norm = None
    if normalize:
        squares = v * v
        norm = squares[0] + squares[1]
        norm += squares[2]
        np.sqrt(norm, out=norm)
        np.divide(v, norm, out=u[:3])
    else:
        u[:3] = v
    u[3:] = u[:2]
    return u, norm


def _center_block(out, d, u, r, norm):
    """Write dr/de for r = d x u(t - e) to `out`, the (R, 3, 3) centre
    columns of a Jacobian, from the extended (5, R) d and u and the
    (3, R) residuals r.

    Column k is -(d x e_k - u_k r)/|v|, or -(d x e_k) without
    normalization, where d x e_x = (0, d_z, -d_y) and so on.  The block
    is built as nine rows (a, k) of R entries, u_k r_a first; the terms
    of -(d x e_k) pair up by stride: +(d_z, d_x) at (0, 1) and (1, 2),
    -(d_z, d_x) at (1, 0) and (2, 1), -d_y at (0, 2) and +d_y at (2, 0).
    """
    block = np.empty((9, d.shape[-1]))
    if norm is None:
        block[::4] = 0.0
        block[1:6:4] = d[2:4]
        np.negative(d[2:4], out=block[3:8:4])
        np.negative(d[1], out=block[2])
        block[6] = d[1]
        np.positive(block.reshape(3, 3, -1), out=out.transpose(1, 2, 0))
        return
    np.multiply(r[:, None, :], u[None, :3, :], out=block.reshape(3, 3, -1))
    block[::4] += 0.0       # the zeros of -(d x e_k): -0.0 turns +0.0
    block[1:6:4] += d[2:4]
    block[3:8:4] -= d[2:4]
    block[2] -= d[1]
    block[6] += d[1]
    np.divide(block.reshape(3, 3, -1), norm, out=out.transpose(1, 2, 0))


def _directions(rows, params):
    """Gaze directions g(q W) of every row as an extended (5, ..., R)
    array, and the sines and cosines of the polar angles their
    derivatives reuse, (2, 2, ..., R): (sin, cos) x (theta, phi)."""
    weights = params[..., :14].reshape(params.shape[:-1] + (7, 2))
    alpha = _components(rows.products(weights))
    trig = np.empty((2,) + alpha.shape)
    np.sin(alpha, out=trig[0])
    np.cos(alpha, out=trig[1])
    (st, sp), (ct, cp) = trig
    g = np.empty((5,) + alpha.shape[1:])
    g[0] = st
    np.multiply(ct, sp, out=g[1])
    np.multiply(ct, cp, out=g[2])
    g[3:] = g[:2]
    return g, trig


def _forward_2d3d(rows, params, normalize):
    """g, the sines and cosines, u, |t - e| and the flat residuals of
    every row."""
    g, trig = _directions(rows, params)
    u, norm = _offsets(rows, params, normalize)
    return g, trig, u, norm, _residuals(g, u)


def residuals_2d3d(params, rows, normalize=True):
    """Cross products g(q w) x (t - e), flattened to (..., 3R)."""
    forward = _forward_2d3d(rows, rows.check(params), normalize)
    rows.keep(params, normalize, forward, (1, 2, 1, 0, 0))
    return forward[-1]


def jacobian_2d3d(params, rows, normalize=True):
    """The (3R,) residuals and closed-form (3R, 17) Jacobian of
    `residuals_2d3d`, for (K, 17) params.

    dr/dW[j, 0] = (dg/dtheta x u) q_j and dr/dW[j, 1] = (dg/dphi x u) q_j,
    with dg/dtheta = (cos t, -sin t sin p, -sin t cos p) and
    dg/dphi = (0, cos t cos p, -cos t sin p).
    """
    g, trig, u, norm, r = (rows.kept(rows.check(params), normalize)
                           or _forward_2d3d(rows, params, normalize))
    (st, sp), (ct, cp) = trig
    dg = np.empty((5, 2, rows.count))       # dg/dtheta and dg/dphi
    dg[0, 0] = ct
    minus_st = -st
    np.multiply(minus_st, sp, out=dg[1, 0])
    np.multiply(minus_st, cp, out=dg[2, 0])
    dg[0, 1] = 0.0
    dg[1, 1] = g[2]
    np.negative(g[1], out=dg[2, 1])
    dg[3:] = dg[:2]
    dr = _cross_rows(dg, u[:, None]).swapaxes(0, 1)     # (m, xyz, row)
    del dg, trig, st, sp, ct, cp, minus_st
    jac = np.empty((rows.count, 3, 17))
    _center_block(jac[:, :, 14:], g, u, r.reshape(-1, 3).T, norm)
    # column 2j + m is (dg/dalpha_m x u) q_j, built as (j, m, xyz, row)
    # and copied in with J's 14 weight columns inner, block by block
    weights = jac[:, :, :14].reshape(-1, 3, 7, 2).transpose(2, 3, 1, 0)
    block = np.empty((7, 2, 3, min(rows.count, _BLOCK_ROWS)))
    for start in range(0, rows.count, _BLOCK_ROWS):
        at = slice(start, start + _BLOCK_ROWS)
        part = block[..., :min(rows.count - start, _BLOCK_ROWS)]
        np.multiply(dr[..., at], rows.inputs[:, None, None, at], out=part)
        np.copyto(weights[..., at], part)
    return r, jac.reshape(-1, 17)


def _rotation(params):
    """Rx(a) @ Ry(b) @ Rz(c) of the Euler angles (a, b, c) =
    params[..., :3], as (9, ..., K) rows of its row-major entries, and
    (sin, cos) of (a, b, c) as (2, 3, ..., K).  Each entry is the float
    operations of Rx @ Ry @ Rz written out, for instance
    R[1, 1] = -sa sb sc + ca cc = ca cc - (sa sb) sc.
    """
    angles = _components(params[..., :3])
    trig = np.empty((2,) + angles.shape)
    np.sin(angles, out=trig[0])
    np.cos(angles, out=trig[1])
    (sa, sb, sc), (ca, cb, cc) = trig
    p, q = sa * sb, ca * sb
    rot = np.empty((9,) + angles.shape[1:])
    np.multiply(cb, cc, out=rot[0])
    np.negative(cb * sc, out=rot[1])
    rot[2] = sb
    np.multiply(p, cc, out=rot[3])
    rot[3] += ca * sc
    np.multiply(ca, cc, out=rot[4])
    rot[4] -= p * sc
    np.negative(sa * cb, out=rot[5])
    np.multiply(sa, sc, out=rot[6])
    rot[6] -= q * cc
    np.multiply(q, sc, out=rot[7])
    rot[7] += sa * cc
    np.multiply(ca, cb, out=rot[8])
    return rot, trig


def _poses(rows, rot):
    """The rotated poses d = R n of every row, extended (5, ..., R), for
    (9, ..., K) rotation entries."""
    mats = np.empty(rot.shape[1:] + (9,))
    _components(mats)[...] = rot
    d = rows.products(mats.reshape(mats.shape[:-1] + (3, 3)).swapaxes(-1, -2))
    out = np.empty((5,) + d.shape[:-1])
    out[:3] = _components(d)
    out[3:] = out[:2]
    return out


def _forward_3d3d(rows, params, normalize):
    """The rotation entries and angle sines and cosines, d, u, |t - e|
    and the flat residuals of every row."""
    rot, trig = _rotation(params)
    d = _poses(rows, rot)
    u, norm = _offsets(rows, params, normalize)
    return rot, trig, d, u, norm, _residuals(d, u)


def residuals_3d3d(params, rows, normalize=True):
    """Cross products (R n) x (t - e), flattened to (..., 3R)."""
    forward = _forward_3d3d(rows, rows.check(params), normalize)
    rows.keep(params, normalize, forward, (1, 2, 1, 1, 0, 0))
    return forward[-1]


def jacobian_3d3d(params, rows, normalize=True):
    """The (3R,) residuals and closed-form (3R, 6) Jacobian of
    `residuals_3d3d`, for (K, 6) params.

    For R = Rx(a) Ry(b) Rz(c), dR/da = [x]x R, dR/db = [Rx y]x R and
    dR/dc = [Rx Ry z]x R, so d(R n)/da = x x d and so on with d = R n;
    Rx y = (0, cos a, sin a) and Rx Ry z is the last column of R.
    """
    rot, ((sa, _, _), (ca, _, _)), d, u, norm, r = (
        rows.kept(rows.check(params), normalize)
        or _forward_3d3d(rows, params, normalize))
    axes = np.zeros((5, 3, rows.size))      # extended, per angle and fit
    axes[0, 0] = 1.0
    axes[1, 1] = ca
    axes[2, 1] = sa
    axes[:3, 2] = rot[2::3]
    axes[3:] = axes[:2]
    # d(R n)/d(angle) of every row, as (xyz, angle, row)
    dd = np.empty((5, 3, rows.count))
    _cross_rows(axes.take(rows.fit, axis=-1), d[:, None], out=dd[:3])
    dd[3:] = dd[:2]
    jac = np.empty((rows.count, 3, 6))
    _cross_rows(dd, u[:, None], out=jac[:, :, :3].transpose(1, 2, 0))
    _center_block(jac[:, :, 3:], d, u, r.reshape(-1, 3).T, norm)
    return r, jac.reshape(-1, 6)

"""The column sidecar of a dataset file: the format, its writer and its
reader.

save_dataset writes PATH.cols beside a regular dataset file PATH: the
SHA-256 of the bytes it wrote to PATH, then one np.save payload (version
1.0, no pickle) of the (N, 12) float64 table that
dataset_io._read_records builds from those bytes, one row per record in
file order: its SampleColumns fields (a NaN row where the file holds
null), its depth_label, and 1.0 for a test record, 0.0 for a
calibration one.  The sidecar is written block by block to a temporary
file that then replaces it, and best effort: an OSError, or a PATH that
is a file descriptor or not a regular file, leaves no sidecar.

load_dataset streams PATH through SHA-256 (read); if the sidecar holds
that digest and a well-formed table (of any row count: the digest binds
it to the bytes it was built from), its rows take the place of the
parsed ones.  Any other sidecar, or none, is passed over and the file
parsed, so deleting a sidecar is always safe; a load never writes one.
"""

from __future__ import annotations

import contextlib
import os
import stat
from itertools import accumulate

import numpy as np

from .eye_simulator import _WIDTHS, SampleColumns

# each SampleColumns field's columns of the table, then the depth_label
# and the test-role flag
_COLUMNS = {name: slice(stop - width, stop) for (name, width), stop
            in zip(_WIDTHS.items(), accumulate(_WIDTHS.values()))}
_WIDTH = sum(_WIDTHS.values()) + 2


def _path(path):
    """The sidecar path of the dataset file `path`, or None if `path` is
    not a filesystem path (a file descriptor)."""
    try:
        return os.fsdecode(path) + ".cols"
    except TypeError:
        return None


def _rows(columns: SampleColumns, role, depth):
    """The table rows of the records of one (role, depth) group, or of a
    block of its rows: what _read_records builds from their lines."""
    table = np.empty((len(columns), _WIDTH))
    for name, where in _COLUMNS.items():
        rows = table[:, where]
        rows[:] = getattr(columns, name)
        rows[~columns.present(name)] = np.nan    # null reads as this NaN
    table[:, -2] = float(depth)
    table[:, -1] = role == "test"
    return table


def write(path, mode, digest, n_records, blocks):
    """Write the sidecar of the dataset file `path`, whose st_mode is
    `mode` and whose bytes have the SHA-256 `digest`: the table of its
    `n_records` records, from `blocks`, each block a (SampleColumns,
    role, depth) of records in file order.  The sidecar takes the file's
    permission bits; an OSError, or a `path` that is not a regular
    file's, leaves none."""
    import tempfile

    side = _path(path)
    if side is None or not stat.S_ISREG(mode):
        return
    try:
        fd, temp = tempfile.mkstemp(
            prefix=os.path.basename(side) + ".", suffix=".tmp",
            dir=os.path.dirname(side) or os.curdir)
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            fh.write(digest)
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(float)),
                "fortran_order": False, "shape": (n_records, _WIDTH)})
            for block in blocks:
                fh.write(_rows(*block).tobytes())
        os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, side)
    except BaseException as err:    # an interrupt leaves no temporary file
        with contextlib.suppress(OSError):
            os.remove(temp)
        if not isinstance(err, OSError):
            raise


def _digest(fh):
    """The SHA-256 of the whole binary file `fh`, read in blocks."""
    import hashlib      # as orjson: a sweep reads and writes no dataset

    digest, block = hashlib.sha256(), bytearray(1 << 16)
    fh.seek(0)
    while size := fh.readinto(block):
        digest.update(memoryview(block)[:size])
    return digest.digest()


def read(path, fh):
    """The records of the dataset file `path`, open as `fh`, as
    _read_records gives them, taken from its sidecar; or None, with `fh`
    where it was, if the sidecar is missing, stale (it holds another
    digest than the file's) or anything but what `write` writes: a
    version 1.0 .npy payload of a C-order float (N, 12) table, which
    ends the file."""
    side = _path(path)
    if side is None or not fh.seekable():
        return None
    start = fh.tell()
    try:
        with open(side, "rb") as cols:
            digest = cols.read(32)
            if np.lib.format.read_magic(cols) != (1, 0):
                return None
            shape, fortran_order, dtype = (
                np.lib.format.read_array_header_1_0(cols))
            size = shape[0] * _WIDTH * dtype.itemsize if (
                len(shape) == 2 and shape[1] == _WIDTH) else -1
            if (fortran_order or dtype != float
                    or os.fstat(cols.fileno()).st_size - cols.tell() != size
                    or _digest(fh) != digest):
                return None
            data = cols.read(size + 1)
    except (OSError, ValueError):
        return None
    finally:
        fh.seek(start)
    if len(data) != size:
        return None
    table = np.frombuffer(data, dtype=float).reshape(shape)
    return (SampleColumns(**{name: table[:, where]
                             for name, where in _COLUMNS.items()}),
            table[:, -2], table[:, -1] == 1.0)

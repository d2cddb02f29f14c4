"""Per-sample views of SampleColumns groups and row edits, for the tests
that hold the batch paths to the scalar oracles (synthesize_sample,
predict_sample, angular_error) or change single rows of a group."""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np

from gaze3d.eye_simulator import SampleColumns

# the vector fields of a sample and their widths; the optional ones with
# the SampleColumns mask of the rows holding them
WIDTHS = {"pupil_px": 2, "pupil_pose": 3, "target": 3, "target_px": 2}
PRESENCE = {"pupil_pose": "has_pose", "target_px": "has_target_px"}


def rows(columns):
    """Each row of `columns` as an object holding its four vector fields,
    an optional one None where it is missing, and its depth_label."""
    present = {name: columns.present(name).tolist() for name in WIDTHS}
    return [SimpleNamespace(
        **{name: getattr(columns, name)[i] if present[name][i] else None
           for name in WIDTHS},
        depth_label=float(columns.depth_label[i]))
        for i in range(len(columns))]


def stack(samples):
    """The SampleColumns of a sequence of samples: SimSamples, or objects
    holding the four vector fields (pupil_pose and target_px may be None)
    and depth_label.  gaze holds the samples' gaze directions if each
    sample holds a gaze ray, and is None otherwise."""
    samples = list(samples)
    columns = {}
    for name, width in WIDTHS.items():
        values = [getattr(s, name) for s in samples]
        present = np.array([v is not None for v in values], dtype=bool)
        stacked = np.full((len(values), width), np.nan)
        if present.any():
            stacked[present] = [v for v in values if v is not None]
        columns[name] = stacked
        if name in PRESENCE:
            columns[PRESENCE[name]] = present
    rays = [getattr(s, "gaze", None) for s in samples]
    gaze = (np.array([ray.direction for ray in rays])
            if rays and all(r is not None for r in rays) else None)
    return SampleColumns(
        depth_label=np.array([float(s.depth_label) for s in samples]),
        gaze=gaze, **columns)


def take(columns, index):
    """The rows `index` (a slice, index array or mask) of `columns`."""
    return SampleColumns(**{
        f.name: None if getattr(columns, f.name) is None
        else getattr(columns, f.name)[index] for f in fields(SampleColumns)})


def without(columns, name, index=slice(None)):
    """A copy of `columns` whose optional field `name` is missing at the
    rows `index`: NaN there, and its mask False."""
    values = getattr(columns, name).copy()
    mask = getattr(columns, PRESENCE[name]).copy()
    values[index] = np.nan
    mask[index] = False
    return replace(columns, **{name: values, PRESENCE[name]: mask})


def pooled(groups, depths):
    """The groups of `depths` (from a dict of depth -> SampleColumns)
    concatenated in that order."""
    return SampleColumns.concatenate([groups[d] for d in depths])

"""Per-sample views of SampleColumns groups and row edits, for the tests
that hold the batch paths to the scalar oracles (synthesize_sample,
predict_sample, angular_error) or change single rows of a group."""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np

from gaze3d.eye_simulator import SampleColumns

# the vector fields of a sample and their widths
WIDTHS = {"pupil_px": 2, "pupil_pose": 3, "target": 3, "target_px": 2}


def rows(columns):
    """Each row of `columns` as an object holding its four vector fields,
    an optional one None where it is missing."""
    present = {name: columns.present(name).tolist() for name in WIDTHS}
    return [SimpleNamespace(
        **{name: getattr(columns, name)[i] if present[name][i] else None
           for name in WIDTHS})
        for i in range(len(columns))]


def stack(samples):
    """The SampleColumns of a sequence of samples: SimSamples, or objects
    holding the four vector fields (pupil_pose and target_px may be
    None, which stacks as a row of NaN)."""
    samples = list(samples)
    columns = {}
    for name, width in WIDTHS.items():
        values = [getattr(s, name) for s in samples]
        present = np.array([v is not None for v in values], dtype=bool)
        stacked = np.full((len(values), width), np.nan)
        if present.any():
            stacked[present] = [v for v in values if v is not None]
        columns[name] = stacked
    return SampleColumns(**columns)


def take(columns, index):
    """The rows `index` (a slice, index array or mask) of `columns`."""
    return SampleColumns(*(getattr(columns, f.name)[index]
                           for f in fields(SampleColumns)))


def without(columns, name, index=slice(None)):
    """A copy of `columns` whose optional field `name` is missing at the
    rows `index`: NaN there."""
    values = getattr(columns, name).copy()
    values[index] = np.nan
    return replace(columns, **{name: values})


def pooled(groups, depths):
    """The groups of `depths` (from a dict of depth -> SampleColumns)
    concatenated in that order."""
    return SampleColumns.concatenate([groups[d] for d in depths])

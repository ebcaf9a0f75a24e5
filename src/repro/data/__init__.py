"""Synthetic scientific datasets (substitute for the paper's S3D data).

The paper's evaluation uses three proprietary combustion DNS datasets
(HCCI, TJLR, SP — Sec. VII-A).  This package builds laptop-sized synthetic
stand-ins with the same *multiway structure* and, crucially, tunable
per-mode spectral decay, which is the only property the compression
experiments depend on.  Generators:

* :func:`hcci_proxy` / :func:`tjlr_proxy` / :func:`sp_proxy` — the three
  datasets, with compressibility ordered SP >> HCCI >> TJLR as in the paper.
* :func:`multiway_field` — the underlying constructor: smooth per-mode
  bases x a core with prescribed per-mode spectral decay + noise floor.
* :func:`center_and_scale` — the paper's per-species normalization
  (:func:`dist_center_and_scale`: the same, in place on a block-distributed
  tensor).
* :mod:`repro.data.synthetic` — the exact-low-rank tensors of the
  performance experiments (Sec. VIII).
"""

from repro.data.fields import dct_basis, decay_profile, multiway_field
from repro.data.preprocess import (
    ScaleInfo,
    center_and_scale,
    dist_center_and_scale,
    invert_scaling,
)
from repro.data.s3d import (
    DATASETS,
    Dataset,
    hcci_proxy,
    load_dataset,
    sp_proxy,
    tjlr_proxy,
)
from repro.data.synthetic import (
    fig8a_problem,
    fig8b_problem,
)

__all__ = [
    "multiway_field",
    "dct_basis",
    "decay_profile",
    "center_and_scale",
    "dist_center_and_scale",
    "invert_scaling",
    "ScaleInfo",
    "Dataset",
    "DATASETS",
    "load_dataset",
    "hcci_proxy",
    "tjlr_proxy",
    "sp_proxy",
    "fig8a_problem",
    "fig8b_problem",
]

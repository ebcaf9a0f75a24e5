"""The layout-true norm helper (``repro.tensor.norm`` / ``norm_sq``).

One definition for every ``||X||`` in the library: entries are visited in
memory order, so a Fortran-ordered tensor — the library's own layout — is
never transposed into a full-size C-order copy first (what
``np.linalg.norm(x.reshape(-1))`` did), and float32 tensors are
accumulated in float64 a bounded chunk at a time.
"""

import functools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import sthosvd
from repro.data import center_and_scale, hcci_proxy, sp_proxy, tjlr_proxy
from repro.distributed import DistTensor, dist_sthosvd
from repro.mpi import CartGrid, run_spmd
from repro.tensor import Tensor, norm, norm_sq
from repro.tensor.dense import _NORM_CHUNK
from repro.tensor.eig import rank_from_tolerance


def _reference(x: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.asarray(x, dtype=np.float64) ** 2)))


def _tensor(shape=(9, 14, 6, 11), seed=0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape) * 3.0 + 0.5


class TestValue:
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_contiguous_layouts(self, order):
        x = np.asarray(_tensor(), order=order)
        assert norm(x) == pytest.approx(_reference(x), rel=1e-14)
        assert norm_sq(x) == pytest.approx(_reference(x) ** 2, rel=1e-14)

    def test_sliced_and_transposed_views(self):
        x = np.asfortranarray(_tensor())
        for view in (x[::2], x[:, 1:-1, :, ::3], x.transpose(2, 0, 3, 1),
                     x[3], x[:, :, 2, 5]):
            assert not view.flags.owndata
            assert norm(view) == pytest.approx(_reference(view), rel=1e-14)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_float32_accumulates_in_float64(self, order):
        # 2^17 + 5 elements: more than one chunk, and a ragged last one.
        x = np.asarray(_tensor((32, 16, 16, 16), 1)[:, :, :, :16],
                       dtype=np.float32, order=order)
        x = np.concatenate([x.ravel(order="K"), np.ones(5, np.float32)])
        assert norm(x) == pytest.approx(_reference(x), rel=1e-14)
        # A float32 running sum is visibly worse than that.
        assert abs(float(np.sqrt(np.dot(x, x))) - _reference(x)) > (
            1e-12 * _reference(x)
        )

    def test_tensor_wrapper_and_lists(self):
        x = _tensor()
        assert Tensor(x).norm() == norm(np.asfortranarray(x))
        assert norm([[3, 4], [0, 0]]) == 5.0
        assert norm(np.zeros((3, 2))) == 0.0


class TestNoFullSizeTemporary:
    def _peak(self, x):
        norm(x)  # imports, BLAS warm-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            value = norm(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(_reference(x), rel=1e-14)
        return peak

    def test_fortran_ordered_tensor_is_not_copied(self):
        x = np.asfortranarray(
            np.random.default_rng(2).standard_normal((48, 40, 36, 30))
        )
        peak = self._peak(x)
        assert peak < 0.05 * x.nbytes, (
            f"norm allocated {peak} B for a {x.nbytes} B tensor"
        )

    def test_float32_scratch_does_not_grow_with_the_tensor(self):
        # A widened copy would be 2x nbytes; the scratch is two chunks
        # (the one being summed and the one being widened), whatever the
        # tensor's size.
        rng = np.random.default_rng(3)
        small = np.asfortranarray(rng.standard_normal((48, 40, 36, 10)),
                                  dtype=np.float32)
        large = np.asfortranarray(rng.standard_normal((48, 40, 36, 40)),
                                  dtype=np.float32)
        bound = 2 * _NORM_CHUNK * 8 + 4096
        assert self._peak(small) <= bound
        assert self._peak(large) <= bound < 0.1 * large.nbytes


#: Four inputs shaped like the repo benchmark's, at test size.
_PROXIES = {
    "hcci": (hcci_proxy, (24, 24, 16, 12), 2),
    "hcci-wide": (hcci_proxy, (32, 30, 11, 14), 2),
    "tjlr": (tjlr_proxy, (10, 12, 8, 35, 16), 3),
    "sp": (sp_proxy, (16, 16, 16, 11, 10), 3),
}


@functools.lru_cache(maxsize=None)
def _proxy(name: str) -> np.ndarray:
    build, shape, species_mode = _PROXIES[name]
    return center_and_scale(build(shape).tensor, species_mode)[0]


def _dist_prog(comm, x, tol):
    grid = CartGrid(comm, (2,) + (1,) * (x.ndim - 1))
    res = dist_sthosvd(
        DistTensor.from_global(grid, x), tol=tol, compute_dtype="float64"
    )
    return res.ranks, res.eigenvalues, res.x_norm, res.error_estimate()


class TestDriversUnchanged:
    """The drivers use the norm for the truncation threshold and the error
    estimate.  Against the norm as it used to be computed, every mode's
    rank decision and the estimate must come out the same."""

    TOL = 1e-2

    def _check(self, x, ranks, eigenvalues, x_norm, estimate):
        legacy = float(np.linalg.norm(x.reshape(-1)))
        assert x_norm == pytest.approx(legacy, rel=1e-13)
        threshold = self.TOL**2 * legacy**2 / x.ndim
        tail = 0.0
        for n, values in enumerate(eigenvalues):
            assert rank_from_tolerance(values, threshold) == ranks[n]
            tail += float(np.sum(values[ranks[n]:]))
        assert estimate == pytest.approx(np.sqrt(tail) / legacy, rel=1e-12)
        assert estimate <= self.TOL

    @pytest.mark.parametrize("name", list(_PROXIES))
    def test_core_sthosvd(self, name):
        x = _proxy(name)
        res = sthosvd(x, tol=self.TOL)
        self._check(x, res.ranks, res.eigenvalues, res.x_norm,
                    res.error_estimate())

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("name", list(_PROXIES))
    def test_dist_sthosvd(self, name, backend):
        x = _proxy(name)
        seq = sthosvd(x, tol=self.TOL)
        out = run_spmd(2, _dist_prog, x, self.TOL, backend=backend,
                       timeout=60.0)
        for ranks, eigenvalues, x_norm, estimate in out.values:
            assert tuple(ranks) == seq.ranks
            self._check(x, ranks, eigenvalues, x_norm, estimate)


def test_no_flattening_copy_feeds_a_norm():
    """Grep gate: ``reshape(-1)`` is a transposing copy of an F-ordered
    tensor; no norm under ``src/repro`` may be fed one again."""
    pattern = re.compile(r"norm(_sq)?\s*\(.*reshape\(\s*-1\s*\)")
    root = Path(repro.__file__).resolve().parent
    hits = [
        f"{path.relative_to(root)}:{lineno}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits, "\n".join(hits)

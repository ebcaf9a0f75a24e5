"""Streaming ST-HOSVD tests (repro.core.streaming)."""

import numpy as np
import pytest

from repro.core import normalized_rms, sthosvd
from repro.core.streaming import StreamingTucker
from repro.data import hcci_proxy, center_and_scale
from repro.tensor import low_rank_tensor


def _stream(x, tol, chunk=4):
    spatial = x.shape[:-1]
    st = StreamingTucker(spatial, tol=tol)
    for t0 in range(0, x.shape[-1], chunk):
        st.update(x[..., t0 : t0 + chunk])
    return st


class TestErrorGuarantee:
    @pytest.mark.parametrize("tol", [0.2, 0.05, 0.01])
    def test_error_within_tolerance(self, tol):
        x = low_rank_tensor((10, 9, 24), (4, 4, 6), seed=90, noise=0.001)
        st = _stream(x, tol)
        t = st.finalize()
        assert normalized_rms(x, t.reconstruct()) <= tol

    def test_single_step_updates(self):
        x = low_rank_tensor((8, 8, 12), (3, 3, 4), seed=91, noise=0.001)
        st = _stream(x, tol=0.05, chunk=1)
        t = st.finalize()
        assert normalized_rms(x, t.reconstruct()) <= 0.05

    def test_one_big_slab_equals_batch_quality(self):
        x = low_rank_tensor((10, 9, 16), (3, 3, 4), seed=92, noise=0.01)
        st = _stream(x, tol=0.05, chunk=16)
        streamed = st.finalize()
        batch = sthosvd(x, tol=0.05).decomposition
        assert (
            normalized_rms(x, streamed.reconstruct())
            <= max(0.05, 2 * normalized_rms(x, batch.reconstruct()))
        )

    def test_combustion_proxy(self):
        ds = hcci_proxy(shape=(16, 16, 8, 20))
        x, _ = center_and_scale(ds.tensor, ds.species_mode)
        st = _stream(x, tol=1e-2, chunk=5)
        t = st.finalize()
        assert normalized_rms(x, t.reconstruct()) <= 1e-2


class TestRankBehaviour:
    def test_ranks_comparable_to_batch(self):
        x = low_rank_tensor((12, 10, 20), (4, 3, 5), seed=93, noise=0.001)
        st = _stream(x, tol=0.01)
        t = st.finalize()
        batch = sthosvd(x, tol=0.01)
        for rs, rb, dim in zip(t.ranks, batch.ranks, x.shape):
            assert rs <= min(dim, 3 * max(rb, 1))

    def test_bases_grow_monotonically(self):
        x = low_rank_tensor((10, 9, 24), (5, 4, 8), seed=94, noise=0.001)
        spatial = x.shape[:-1]
        st = StreamingTucker(spatial, tol=0.01)
        ranks_history = []
        for t0 in range(0, 24, 4):
            st.update(x[..., t0 : t0 + 4])
            ranks_history.append(st.current_ranks)
        for a, b in zip(ranks_history, ranks_history[1:]):
            assert all(rb >= ra for ra, rb in zip(a, b))

    def test_exact_low_rank_stays_at_true_rank(self):
        # Data exactly rank (3, 3) spatially: bases must not exceed it
        # (up to one extra direction from budget slack).
        x = low_rank_tensor((12, 10, 20), (3, 3, 20), seed=95)
        st = _stream(x, tol=1e-4)
        assert all(r <= 4 for r in st.current_ranks)

    def test_n_steps_counts(self):
        x = low_rank_tensor((6, 6, 10), (2, 2, 3), seed=96)
        st = _stream(x, tol=0.1, chunk=3)
        assert st.n_steps == 10


class TestEdgeCases:
    def test_single_step_shape_accepted(self):
        x = low_rank_tensor((6, 6, 4), (2, 2, 2), seed=97)
        st = StreamingTucker((6, 6), tol=0.1)
        st.update(x[..., 0])  # no time axis
        st.update(x[..., 1:])
        t = st.finalize()
        assert t.shape == (6, 6, 4)

    def test_zero_leading_slabs(self):
        x = low_rank_tensor((6, 6, 6), (2, 2, 2), seed=98)
        st = StreamingTucker((6, 6), tol=0.1)
        st.update(np.zeros((6, 6, 2)))
        st.update(x[..., :4])
        t = st.finalize()
        assert t.shape == (6, 6, 6)
        full = np.concatenate([np.zeros((6, 6, 2)), x[..., :4]], axis=-1)
        assert normalized_rms(full, t.reconstruct()) <= 0.1

    def test_zero_interior_slab(self):
        x = low_rank_tensor((6, 6, 4), (2, 2, 2), seed=99)
        st = StreamingTucker((6, 6), tol=0.1)
        st.update(x[..., :2])
        st.update(np.zeros((6, 6, 3)))
        st.update(x[..., 2:])
        t = st.finalize()
        assert t.shape == (6, 6, 7)

    def test_wrong_spatial_shape_rejected(self):
        st = StreamingTucker((6, 6), tol=0.1)
        with pytest.raises(ValueError, match="does not match"):
            st.update(np.zeros((5, 6, 2)))

    def test_update_after_finalize_rejected(self):
        st = StreamingTucker((4, 4), tol=0.1)
        st.update(np.ones((4, 4, 2)))
        st.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            st.update(np.ones((4, 4, 1)))

    def test_finalize_without_data_rejected(self):
        st = StreamingTucker((4, 4), tol=0.1)
        with pytest.raises(RuntimeError, match="no data"):
            st.finalize()

    def test_all_zero_stream_rejected(self):
        st = StreamingTucker((4, 4), tol=0.1)
        st.update(np.zeros((4, 4, 3)))
        with pytest.raises(ValueError, match="identically zero"):
            st.finalize()

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            StreamingTucker((4, 4), tol=0.0)

    def test_nan_tol(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            StreamingTucker((4, 4), tol=float("nan"))

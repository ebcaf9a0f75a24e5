"""Tucker container save/load tests."""

import os

import numpy as np
import pytest

from repro.core import TuckerTensor, sthosvd
from repro.io import load_tucker, save_tucker, stored_bytes
from repro.tensor import low_rank_tensor, random_factor, random_tensor


def _tucker(seed=0):
    core = random_tensor((2, 3, 4), seed=seed)
    factors = tuple(
        random_factor(s, r, seed=seed + i)
        for i, (s, r) in enumerate(zip((6, 7, 8), (2, 3, 4)))
    )
    return TuckerTensor(core=core, factors=factors)


class TestRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        t = _tucker()
        path = tmp_path / "model.npz"
        save_tucker(path, t, metadata={"eps": 1e-3, "dataset": "unit"})
        loaded, meta = load_tucker(path)
        np.testing.assert_array_equal(loaded.core, t.core)
        for a, b in zip(loaded.factors, t.factors):
            np.testing.assert_array_equal(a, b)
        assert meta == {"eps": 1e-3, "dataset": "unit"}

    def test_reconstruction_identical(self, tmp_path):
        x = low_rank_tensor((8, 9, 10), (3, 3, 3), seed=1, noise=0.05)
        t = sthosvd(x, ranks=(3, 3, 3)).decomposition
        path = tmp_path / "m.npz"
        save_tucker(path, t)
        loaded, _ = load_tucker(path)
        np.testing.assert_array_equal(loaded.reconstruct(), t.reconstruct())

    def test_default_empty_metadata(self, tmp_path):
        path = tmp_path / "m.npz"
        save_tucker(path, _tucker())
        _, meta = load_tucker(path)
        assert meta == {}

    def test_members_are_stored_not_deflated(self, tmp_path):
        import zipfile

        path = tmp_path / "m.npz"
        save_tucker(path, _tucker())
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_STORED
            }

    def test_deflated_container_still_loads(self, tmp_path):
        # Containers written before save_tucker stopped deflating.
        t = _tucker()
        stored, deflated = tmp_path / "stored.npz", tmp_path / "deflated.npz"
        save_tucker(stored, t, metadata={"eps": 1e-3})
        with np.load(stored) as data:
            np.savez_compressed(deflated, **{k: data[k] for k in data.files})
        loaded, meta = load_tucker(deflated)
        assert meta == {"eps": 1e-3}
        assert loaded.core.tobytes() == t.core.tobytes()
        for got, want in zip(loaded.factors, t.factors):
            assert got.tobytes() == want.tobytes()


class TestDiskAccounting:
    def test_compressed_smaller_than_raw(self, tmp_path):
        x = low_rank_tensor((16, 16, 16), (2, 2, 2), seed=2, noise=1e-6)
        t = sthosvd(x, ranks=(2, 2, 2)).decomposition
        path = tmp_path / "m.npz"
        save_tucker(path, t)
        assert stored_bytes(path) < x.nbytes / 10

    def test_stored_bytes_handles_npz_suffix(self, tmp_path):
        # np.savez appends .npz when missing; stored_bytes must find it.
        base = tmp_path / "model"
        save_tucker(base, _tucker())
        assert stored_bytes(base) > 0


class TestAtomicPublication:
    """``save_tucker`` is ``tmp + os.replace``: a writer that fails leaves
    what the path held before, and nothing else."""

    @pytest.mark.parametrize("name", ["model.npz", "model"])
    def test_failed_write_keeps_the_previous_container(
        self, tmp_path, monkeypatch, name
    ):
        save_tucker(tmp_path / name, _tucker(seed=0), metadata={"v": 1})
        before = (tmp_path / "model.npz").read_bytes()

        def torn_savez(fh, **arrays):
            fh.write(b"PK half a container")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="No space left"):
            save_tucker(tmp_path / name, _tucker(seed=1), metadata={"v": 2})
        assert os.listdir(tmp_path) == ["model.npz"]
        assert (tmp_path / "model.npz").read_bytes() == before
        assert load_tucker(tmp_path / "model.npz")[1] == {"v": 1}

    def test_replaces_a_previous_container(self, tmp_path):
        path = tmp_path / "model.npz"
        save_tucker(path, _tucker(seed=0), metadata={"v": 1})
        save_tucker(path, _tucker(seed=1), metadata={"v": 2})
        assert os.listdir(tmp_path) == ["model.npz"]
        loaded, meta = load_tucker(path)
        assert meta == {"v": 2}
        np.testing.assert_array_equal(loaded.core, _tucker(seed=1).core)


class TestFailureModes:
    def test_rejects_non_tucker(self, tmp_path):
        with pytest.raises(TypeError, match="TuckerTensor"):
            save_tucker(tmp_path / "x.npz", np.zeros((2, 2)))

    def test_rejects_unserializable_metadata(self, tmp_path):
        with pytest.raises(TypeError, match="JSON"):
            save_tucker(tmp_path / "x.npz", _tucker(), metadata={"fn": len})

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not a Tucker container"):
            load_tucker(path)

    def test_rejects_missing_factor(self, tmp_path):
        import json

        t = _tucker()
        meta = json.dumps(
            {
                "format_version": 1,
                "shape": list(t.shape),
                "ranks": list(t.ranks),
                "user": {},
            }
        )
        path = tmp_path / "broken.npz"
        np.savez(
            path,
            core=t.core,
            meta=np.frombuffer(meta.encode(), dtype=np.uint8),
            factor_0=t.factors[0],
            factor_1=t.factors[1],
            # factor_2 missing
        )
        with pytest.raises(ValueError, match="missing factor_2"):
            load_tucker(path)

    def test_rejects_wrong_version(self, tmp_path):
        import json

        t = _tucker()
        meta = json.dumps(
            {"format_version": 99, "shape": [1], "ranks": [1], "user": {}}
        )
        path = tmp_path / "v99.npz"
        np.savez(
            path,
            core=t.core,
            meta=np.frombuffer(meta.encode(), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="unsupported container version"):
            load_tucker(path)

"""CLI validate-subcommand tests."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import TuckerTensor, sthosvd
from repro.io import load_tucker, save_tucker
from repro.tensor import low_rank_tensor


@pytest.fixture
def clean_model(tmp_path):
    x = low_rank_tensor((10, 8, 6), (3, 3, 2), seed=41, noise=0.01)
    t = sthosvd(x, ranks=(3, 3, 2)).decomposition
    model = tmp_path / "m.npz"
    save_tucker(model, t)
    src = tmp_path / "x.npy"
    np.save(src, x)
    return model, src, t


class TestValidateCommand:
    def test_clean_model_passes(self, clean_model, capsys):
        model, _, _ = clean_model
        assert main(["validate", str(model)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_against_original(self, clean_model, capsys):
        model, src, _ = clean_model
        assert main(["validate", str(model), "--against", str(src)]) == 0
        out = capsys.readouterr().out
        assert "core residual" in out
        assert "relative error" in out

    def test_narrowed_dtype_model_held_to_float32_bar(
        self, tmp_path, capsys
    ):
        # A model compressed under --dtype mixed carries float32-level
        # orthonormality defect; validate reads the recorded dtype and
        # widens the bar instead of flagging a correct model.
        x = low_rank_tensor((10, 8, 6), (3, 3, 2), seed=41, noise=0.01)
        src = tmp_path / "x.npy"
        np.save(src, x)
        model = tmp_path / "m32.npz"
        assert main([
            "compress", str(src), str(model), "--ranks", "3", "3", "2",
            "--parallel", "2", "--dtype", "mixed",
        ]) == 0
        capsys.readouterr()
        assert main(["validate", str(model), "--against", str(src)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "dtype bar" in out and "mixed" in out

    @pytest.mark.parametrize("dtype", ["float64", "float32", "mixed"])
    def test_container_records_the_dtype_taken_from_the_environment(
        self, tmp_path, capsys, monkeypatch, dtype
    ):
        # REPRO_DTYPE selects the dtype as --dtype does, so the container
        # must record it too, or validate holds a mixed model to
        # float64's bar.
        x = low_rank_tensor((40, 30, 20, 10), (4, 4, 3, 2), seed=3, noise=0.0)
        src = tmp_path / "x.npy"
        np.save(src, x)
        model = tmp_path / "m.npz"
        monkeypatch.setenv("REPRO_DTYPE", dtype)
        assert main([
            "compress", str(src), str(model), "--tol", "1e-2",
            "--parallel", "2",
        ]) == 0
        _, meta = load_tucker(model)
        assert meta["parallel"]["compute_dtype"] == dtype
        capsys.readouterr()
        assert main(["validate", str(model)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert ("dtype bar" in out) == (dtype != "float64")

    def test_broken_model_fails(self, clean_model, tmp_path, capsys):
        _, _, t = clean_model
        broken = TuckerTensor(
            core=t.core, factors=tuple(2.0 * f for f in t.factors)
        )
        path = tmp_path / "broken.npz"
        save_tucker(path, broken)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "ISSUES FOUND" in out
        assert "orthonormality" in out

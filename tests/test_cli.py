"""CLI tests: the compress / info / reconstruct / extract workflow."""

import numpy as np
import pytest

import repro.mpi
from repro.cli import _parse_selection, main
from repro.io import load_tucker
from repro.tensor import low_rank_tensor


@pytest.fixture
def field(tmp_path):
    x = low_rank_tensor((12, 10, 8), (3, 3, 2), seed=40, noise=0.01)
    path = tmp_path / "field.npy"
    np.save(path, x)
    return path, x


class TestParseSelection:
    def test_colon_is_all(self):
        assert _parse_selection(":", 10) is None

    def test_index(self):
        assert _parse_selection("3", 10) == 3

    def test_negative_index(self):
        assert _parse_selection("-1", 10) == -1

    def test_range(self):
        assert _parse_selection("2:5", 10) == slice(2, 5, None)

    def test_strided(self):
        assert _parse_selection("0:10:2", 10) == slice(0, 10, 2)

    def test_open_ended(self):
        assert _parse_selection("3:", 10) == slice(3, None, None)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            _parse_selection("10", 10)

    def test_malformed(self):
        with pytest.raises(ValueError):
            _parse_selection("1:2:3:4", 10)


class TestCompress:
    def test_compress_with_tol(self, field, tmp_path, capsys):
        src, x = field
        out = tmp_path / "m.npz"
        assert main(["compress", str(src), str(out), "--tol", "1e-2"]) == 0
        t, meta = load_tucker(out)
        assert t.shape == x.shape
        assert meta["tol"] == 1e-2
        printed = capsys.readouterr().out
        assert "ratio" in printed
        # The order the driver planned, printed and kept in the container.
        order = tuple(meta["mode_order"])
        assert sorted(order) == [0, 1, 2]
        assert f"  mode order   : {order}\n" in printed
        assert main(["info", str(out)]) == 0
        assert '"mode_order": [' in capsys.readouterr().out

    def test_compress_with_ranks(self, field, tmp_path):
        src, _ = field
        out = tmp_path / "m.npz"
        rc = main(
            ["compress", str(src), str(out), "--ranks", "3", "3", "2"]
        )
        assert rc == 0
        t, _ = load_tucker(out)
        assert t.ranks == (3, 3, 2)

    def test_compress_svd_method(self, field, tmp_path):
        src, _ = field
        out = tmp_path / "m.npz"
        assert main(
            ["compress", str(src), str(out), "--tol", "1e-3", "--method", "svd"]
        ) == 0

    def test_compress_with_normalization(self, field, tmp_path):
        src, _ = field
        out = tmp_path / "m.npz"
        rc = main(
            ["compress", str(src), str(out), "--tol", "1e-2",
             "--species-mode", "2"]
        )
        assert rc == 0
        _, meta = load_tucker(out)
        assert meta["normalized"]["species_mode"] == 2

    def test_compress_with_hooi(self, field, tmp_path):
        src, _ = field
        out = tmp_path / "m.npz"
        rc = main(
            ["compress", str(src), str(out), "--ranks", "2", "2", "2",
             "--hooi-iterations", "2"]
        )
        assert rc == 0

    def test_requires_exactly_one_selector(self, field, tmp_path, capsys):
        src, _ = field
        out = tmp_path / "m.npz"
        assert main(["compress", str(src), str(out)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        rc = main(
            ["compress", str(tmp_path / "no.npy"), str(tmp_path / "m.npz"),
             "--tol", "0.1"]
        )
        assert rc == 2

    def test_timeout_requires_parallel(self, field, tmp_path, capsys):
        src, _ = field
        out = tmp_path / "m.npz"
        rc = main(
            ["compress", str(src), str(out), "--tol", "1e-2",
             "--timeout", "5"]
        )
        assert rc == 2
        assert "--timeout requires --parallel" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-3", "nan"])
    def test_timeout_must_be_positive(
        self, field, tmp_path, capsys, monkeypatch, value
    ):
        # A NaN timeout would never expire: deadlock detection would be off.
        src, _ = field
        monkeypatch.setattr(
            repro.mpi, "run_spmd",
            lambda *a, **k: pytest.fail("a rank was launched"),
        )
        out = tmp_path / "m.npz"
        rc = main(
            ["compress", str(src), str(out), "--tol", "1e-2",
             "--parallel", "2", "--timeout", value]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: --timeout must be positive\n"

    @pytest.mark.parametrize(
        "value, parallel", [("nan", []), ("nan", ["--parallel", "2"]),
                            ("-1", ["--parallel", "2"])],
    )
    def test_tol_must_be_positive(
        self, field, tmp_path, capsys, monkeypatch, value, parallel
    ):
        # A NaN tol passes ``tol <= 0``: it would keep full ranks and
        # write a model larger than its input.
        src, _ = field
        monkeypatch.setattr(
            repro.mpi, "run_spmd",
            lambda *a, **k: pytest.fail("a rank was launched"),
        )
        out = tmp_path / "m.npz"
        rc = main(["compress", str(src), str(out), "--tol", value, *parallel])
        assert rc == 2
        assert capsys.readouterr().err == "error: --tol must be positive\n"
        assert not out.exists()

    def test_infinite_timeout_is_accepted(self, field, tmp_path):
        # ``inf`` keeps its meaning, "never time out", through the CLI.
        src, x = field
        out = tmp_path / "m.npz"
        assert main(
            ["compress", str(src), str(out), "--tol", "1e-2",
             "--parallel", "2", "--timeout", "inf"]
        ) == 0
        t, meta = load_tucker(out)
        assert meta["parallel"]["ranks"] == 2
        err = np.linalg.norm(x - t.reconstruct()) / np.linalg.norm(x)
        assert err <= 1e-2

    def test_injected_fault_prints_error_not_traceback(
        self, field, tmp_path, capsys, monkeypatch
    ):
        # A failed parallel run (here an injected fault) must surface as
        # the CLI's `error: ...` + exit 2 convention, never a traceback.
        monkeypatch.setenv(
            "REPRO_FAULTS", "rank=1:site=allreduce:kind=exception"
        )
        src, _ = field
        out = tmp_path / "m.npz"
        rc = main(
            ["compress", str(src), str(out), "--ranks", "3", "3", "2",
             "--parallel", "2"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "fault" in err


class TestInfoReconstructExtract:
    @pytest.fixture
    def model(self, field, tmp_path):
        src, x = field
        out = tmp_path / "m.npz"
        main(["compress", str(src), str(out), "--ranks", "3", "3", "2"])
        return out, x

    def test_info(self, model, capsys):
        path, x = model
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(12, 10, 8)" in out
        assert "(3, 3, 2)" in out

    def test_reconstruct(self, model, tmp_path):
        path, x = model
        out = tmp_path / "back.npy"
        assert main(["reconstruct", str(path), str(out)]) == 0
        back = np.load(out)
        # Residual is the injected white noise (~8% of signal norm here).
        assert np.linalg.norm(back - x) / np.linalg.norm(x) < 0.15

    def test_extract_slab(self, model, tmp_path):
        path, x = model
        out = tmp_path / "slab.npy"
        rc = main(
            ["extract", str(path), str(out), "--select", ":", "2:5", "0"]
        )
        assert rc == 0
        slab = np.load(out)
        assert slab.shape == (12, 3, 1)

    def test_extract_wrong_token_count(self, model, tmp_path, capsys):
        path, _ = model
        rc = main(
            ["extract", str(path), str(tmp_path / "s.npy"), "--select", ":"]
        )
        assert rc == 2
        assert "3 --select tokens" in capsys.readouterr().err

    def test_extract_bad_index(self, model, tmp_path, capsys):
        path, _ = model
        rc = main(
            ["extract", str(path), str(tmp_path / "s.npy"),
             "--select", "99", ":", ":"]
        )
        assert rc == 2

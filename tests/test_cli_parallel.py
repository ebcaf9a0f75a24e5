"""``repro-tucker compress --parallel``: the rank-local data path.

The parent reads only the ``.npy`` header and dispatches paths and
scalars; every rank reads and normalizes its own block; rank 0 alone
receives the model and publishes it atomically.  What the user sees —
container schema, ranks, reconstruction, exit codes — must be what the
sequential path gives.
"""

import gc
import os

import numpy as np
import pytest

import repro.cli
import repro.mpi
from repro.cli import main
from repro.io import load_tucker
from repro.mpi import shutdown_worker_pools
from repro.tensor import low_rank_tensor

BACKENDS = sorted(repro.mpi.available_backends())


@pytest.fixture
def field(tmp_path):
    x = 5.0 + low_rank_tensor((20, 10, 8, 6), (3, 3, 2, 2), seed=40, noise=0.01)
    path = tmp_path / "field.npy"
    np.save(path, np.asfortranarray(x))
    return path, x


def _shm_names():
    return {n for n in os.listdir("/dev/shm") if n.startswith("rps_")}


@pytest.fixture
def shm_clean():
    """``/dev/shm`` is as it was once the rank pools are down."""
    shutdown_worker_pools()
    gc.collect()
    before = _shm_names()
    yield
    shutdown_worker_pools()
    gc.collect()
    assert _shm_names() == before


@pytest.mark.parametrize("species", [None, "2"])
@pytest.mark.parametrize("method", ["gram", "svd"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_parallel_container_matches_sequential(
    field, tmp_path, backend, method, species
):
    src, _ = field
    common = ["--tol", "1e-2", "--method", method]
    if species is not None:
        common += ["--species-mode", species]
    seq, par = tmp_path / "seq.npz", tmp_path / "par.npz"
    assert main(["compress", str(src), str(seq)] + common) == 0
    # float64 pinned: the 1e-10 parity below is the full-precision claim.
    assert main(
        ["compress", str(src), str(par), "--parallel", "2",
         "--backend", backend, "--dtype", "float64"] + common
    ) == 0
    t_seq, meta_seq = load_tucker(seq)
    t_par, meta_par = load_tucker(par)
    assert t_par.ranks == t_seq.ranks and t_par.shape == t_seq.shape
    assert set(meta_par) == set(meta_seq) | {"parallel"}
    assert set(meta_par) == {
        "source", "tol", "method", "mode_order", "parallel"
    } | ({"normalized"} if species else set())
    for key in ("source", "tol", "method", "mode_order"):
        assert meta_par[key] == meta_seq[key]
    assert meta_par["parallel"]["ranks"] == 2
    assert meta_par["parallel"]["backend"] == backend
    if species:
        assert meta_par["normalized"]["species_mode"] == int(species)
        for key in ("means", "stds"):
            np.testing.assert_allclose(
                meta_par["normalized"][key], meta_seq["normalized"][key],
                rtol=1e-13,
            )
    reference = t_seq.reconstruct()
    gap = np.linalg.norm(t_par.reconstruct() - reference)
    assert gap <= 1e-10 * np.linalg.norm(reference)


def test_relative_paths_survive_chdir_on_the_warm_pool(
    field, tmp_path, monkeypatch
):
    # Pool workers keep the cwd they were forked with; the second call's
    # relative paths mean something else to them than to the caller.
    src, x = field
    first, second = tmp_path / "a", tmp_path / "b"
    for where in (first, second):
        where.mkdir()
        np.save(where / "in.npy", x)
        monkeypatch.chdir(where)
        assert main(
            ["compress", "in.npy", "out.npz", "--ranks", "3", "3", "2", "2",
             "--parallel", "2", "--backend", "process"]
        ) == 0
        t, meta = load_tucker(where / "out.npz")
        assert t.ranks == (3, 3, 2, 2) and meta["source"] == "in.npy"


def test_parent_dispatches_no_array(field, tmp_path, monkeypatch):
    src, _ = field
    real = repro.mpi.run_spmd
    seen = []

    def spy(n_ranks, fn, *args, **kwargs):
        seen.append((fn.__name__, args))
        return real(n_ranks, fn, *args, **kwargs)

    monkeypatch.setattr(repro.mpi, "run_spmd", spy)
    assert main(
        ["compress", str(src), str(tmp_path / "m.npz"), "--tol", "1e-2",
         "--species-mode", "2", "--parallel", "2"]
    ) == 0
    [(name, args)] = seen
    assert name == "_compress_prog"

    def small(value):
        if isinstance(value, dict):
            return all(small(v) for v in value.values())
        if isinstance(value, (tuple, list)):
            return all(small(v) for v in value)
        return value is None or isinstance(value, (bool, int, float, str))

    assert all(small(a) for a in args), args
    assert os.path.isabs(args[0]) and os.path.isabs(args[1])


def _bad_inputs(tmp_path):
    x = np.arange(24.0).reshape(2, 3, 4)
    np.savez(tmp_path / "archive.npz", x=x)
    np.save(tmp_path / "scalar.npy", np.float64(3.0))
    np.save(tmp_path / "objects.npy", np.array([{}, 1], dtype=object),
            allow_pickle=True)
    np.save(tmp_path / "text.npy", np.array(["a", "b"]))
    np.save(tmp_path / "fine.npy", x)
    (tmp_path / "garbage.npy").write_bytes(b"not an array")
    # A header whose data was cut short: found before any rank reads it.
    (tmp_path / "truncated.npy").write_bytes(
        (tmp_path / "fine.npy").read_bytes()[:-8]
    )


@pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]])
@pytest.mark.parametrize(
    "name, extra, message",
    [
        ("archive.npz", [], "not a single .npy array"),
        ("scalar.npy", [], "dense numeric tensor"),
        ("objects.npy", [], "not a .npy tensor"),
        ("text.npy", [], "dense numeric tensor"),
        ("garbage.npy", [], "not a .npy tensor"),
        ("truncated.npy", [], "not a .npy tensor"),
        ("fine.npy", ["--species-mode", "3"], "--species-mode"),
        ("fine.npy", ["--species-mode", "-4"], "--species-mode"),
    ],
)
def test_bad_input_is_one_error_line(
    tmp_path, capsys, monkeypatch, name, extra, message, parallel
):
    _bad_inputs(tmp_path)
    monkeypatch.setattr(
        repro.mpi, "run_spmd",
        lambda *a, **k: pytest.fail("a rank was launched on a bad input"),
    )
    out = tmp_path / "out.npz"
    rc = main(
        ["compress", str(tmp_path / name), str(out), "--tol", "1e-3"]
        + extra + parallel
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "env, value, message",
    [
        ("REPRO_DTYPE", "float16", "unknown REPRO_DTYPE value 'float16'"),
        ("REPRO_SPMD_BACKEND", "mpi", "unknown SPMD backend 'mpi'"),
        ("REPRO_SANITIZE", "2", "sanitize level"),
        ("REPRO_SPMD_RETRY", "0", "retry must be >= 1"),
        ("REPRO_SPMD_TIMEOUT", "nan", "timeout must be positive"),
        ("REPRO_DEADLINE", "nan", "deadline must be non-negative"),
    ],
    ids=["dtype", "backend", "sanitize", "retry", "timeout", "deadline"],
)
def test_bad_knob_in_the_environment_is_one_error_line_before_launch(
    field, tmp_path, capsys, monkeypatch, env, value, message
):
    # Every knob is resolved before a rank starts; a bad one is the
    # CLI's single error line, never a traceback or a half-written model.
    src, _ = field
    started = []
    monkeypatch.setenv("REPRO_SPMD_BACKEND", "thread")
    monkeypatch.setenv(env, value)
    monkeypatch.setattr(
        repro.cli, "_compress_prog",
        lambda comm, *args: started.append(comm.rank),
    )
    out = tmp_path / "out.npz"
    assert main(
        ["compress", str(src), str(out), "--tol", "1e-2", "--parallel", "2"]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert started == []
    assert not out.exists()


@pytest.mark.parametrize("shape", [(12, 10, 8), (16, 16, 16)])
def test_small_modes_compress_within_tol(tmp_path, shape):
    # Every mode is below 20: no grid fits the planner's 10x rank guess,
    # yet threshold ranks are floored at P_n, so the run is feasible.
    tol = 1e-2
    x = low_rank_tensor(shape, (3, 3, 2), seed=7, noise=1e-3)
    src, out = tmp_path / "x.npy", tmp_path / "m.npz"
    np.save(src, x)
    assert main(
        ["compress", str(src), str(out), "--tol", str(tol), "--parallel", "2"]
    ) == 0
    t, meta = load_tucker(out)
    assert meta["parallel"]["ranks"] == 2
    err = np.linalg.norm(x - t.reconstruct()) / np.linalg.norm(x)
    assert err <= tol


@pytest.mark.parametrize(
    "extra, message",
    [
        # The process backend has one configuration.
        (["--backend", "process", "--no-pool"],
         "unrecognized arguments: --no-pool"),
        # The kernel dtype is chosen by --dtype / REPRO_DTYPE alone.
        (["--plan", "auto"], "unrecognized arguments: --plan auto"),
        (None, "invalid choice: 'plan'"),
    ],
    ids=["no-pool", "plan-flag", "plan-subcommand"],
)
def test_retired_cli_surface_is_gone(
    field, tmp_path, capsys, monkeypatch, extra, message
):
    # argparse rejects it before anything is read or launched.
    src, _ = field
    monkeypatch.setattr(
        repro.mpi, "run_spmd",
        lambda *a, **k: pytest.fail("a rank was launched"),
    )
    out = tmp_path / "out.npz"
    if extra is None:
        argv = ["plan", "24", "16", "12", "--tol", "1e-2", "-p", "4"]
    else:
        argv = ["compress", str(src), str(out), "--tol", "1e-2",
                "--parallel", "2"] + extra
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_summary_reports_the_files_real_bytes(tmp_path, capsys):
    x = low_rank_tensor((12, 10, 8), (3, 3, 2), seed=1).astype(np.float32)
    np.save(tmp_path / "x.npy", x)
    model = tmp_path / "m.npz"
    assert main(
        ["compress", str(tmp_path / "x.npy"), str(model), "--ranks",
         "3", "3", "2"]
    ) == 0
    on_disk = x.size * 4 / os.path.getsize(model)
    assert f"{on_disk:.1f}x on disk" in capsys.readouterr().out


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a Linux /dev/shm"
)
class TestFailedParallelCompress:
    """One ``error:`` line, exit 2, and the previous container untouched."""

    @pytest.fixture
    def published(self, field, tmp_path, capsys):
        src, _ = field
        model = tmp_path / "m.npz"
        assert main(
            ["compress", str(src), str(model), "--ranks", "3", "3", "2", "2"]
        ) == 0
        capsys.readouterr()
        return src, model, model.read_bytes()

    def _fails_cleanly(self, argv, capsys, model, before):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert model.read_bytes() == before
        assert sorted(os.listdir(model.parent)) == sorted(
            ["field.npy", "m.npz"]
        )
        return err

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_writer_dies_mid_write(
        self, published, capsys, monkeypatch, shm_clean, backend
    ):
        src, model, before = published

        def torn_savez(fh, **arrays):
            fh.write(b"PK\x03\x04 half a container")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", torn_savez)
        # shm_clean shut the old pool down, so the ranks are forked now,
        # from this patched process.
        err = self._fails_cleanly(
            ["compress", str(src), str(model), "--tol", "1e-2",
             "--parallel", "2", "--backend", backend],
            capsys, model, before,
        )
        assert "No space left" in err

    def test_rank_dies(self, published, capsys, monkeypatch, shm_clean):
        src, model, before = published
        monkeypatch.setenv("REPRO_FAULTS", "rank=1:site=gather:kind=crash")
        err = self._fails_cleanly(
            ["compress", str(src), str(model), "--tol", "1e-2",
             "--parallel", "2", "--backend", "process"],
            capsys, model, before,
        )
        assert "RankDeadError" in err

    def test_deadline_passes_before_the_read(
        self, published, capsys, monkeypatch, shm_clean
    ):
        src, model, before = published
        monkeypatch.setenv("REPRO_DEADLINE", "1e-6")
        err = self._fails_cleanly(
            ["compress", str(src), str(model), "--tol", "1e-2",
             "--parallel", "2", "--backend", "process"],
            capsys, model, before,
        )
        assert "DeadlineExceededError" in err and "input read" in err

    @pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]])
    def test_unwritable_output_directory(
        self, published, capsys, shm_clean, parallel
    ):
        src, model, before = published
        self._fails_cleanly(
            ["compress", str(src), str(model / "inside" / "m.npz"),
             "--tol", "1e-2"] + parallel,
            capsys, model, before,
        )

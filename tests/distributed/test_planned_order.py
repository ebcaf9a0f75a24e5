"""Tolerance-driven ST-HOSVD in the order the driver plans.

With ``tol=`` and no ``mode_order``, ``dist_sthosvd`` predicts every
mode's rank from a fixed-seed sample of its unfolding's columns and
processes the modes highest ``I_n / R_n`` first
(:func:`~repro.distributed.sthosvd.plan_mode_order`, Sec. VIII-C).  The
order is a plan decision, so what is checked here is that it depends on
the global tensor and the tolerance only — not on the layout, the grid
or the backend — and that the guarantees still hold under it:
eq. 3, the exact tail estimate, and agreement with the textbook
ST-HOSVD of ``tests/reference.py`` run in the reported order.  The one
exception is a grid that divides the mode the plan puts first and leaves
mode 0 undivided: that run keeps increasing order, the order
``choose_grid`` scores grids in.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import greedy_ratio_order, hooi, sthosvd
from repro.distributed import DistTensor, dist_sthosvd
from repro.distributed.sthosvd import plan_mode_order
from repro.distributed.grid import self_grid
from repro.mpi import CartGrid, available_backends, run_spmd
from repro.tensor import low_rank_tensor
from repro.util.validation import prod
from tests.reference import st_hosvd

LAYOUTS = ("F", "C", "sliced", "readonly")
BACKENDS = sorted(available_backends())


@pytest.fixture(autouse=True)
def spmd_backend():
    """Shadow the package's backend sweep: the sequential properties run
    once, and the grid tests name both backends themselves."""
    return None


def in_layout(layout, x):
    """The values of ``x`` in the asked layout."""
    if layout == "sliced":
        # Every other entry of a larger buffer: the one layout copied.
        big = np.zeros(tuple(2 * s for s in x.shape))
        big[tuple(slice(None, None, 2) for _ in x.shape)] = x
        return big[tuple(slice(None, None, 2) for _ in x.shape)]
    if layout == "C":
        return np.ascontiguousarray(x)
    x = np.array(x, order="F")
    if layout == "readonly":
        x.flags.writeable = False
    return x


@st.composite
def problems(draw):
    """A low-rank-plus-noise tensor of 2-4 modes (size-1 modes included)
    and a tolerance."""
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=2, max_size=4)))
    ranks = tuple(draw(st.integers(1, s)) for s in shape)
    seed = draw(st.integers(0, 2**16))
    noise = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    tol = draw(st.sampled_from([0.02, 0.1, 0.3]))
    return low_rank_tensor(shape, ranks, seed=seed, noise=noise), tol


def relative_error(x, decomposition):
    return float(
        np.linalg.norm(x - decomposition.reconstruct()) / np.linalg.norm(x)
    )


@given(problem=problems())
@settings(max_examples=60, deadline=None)
def test_tolerance_and_exact_estimate_hold_in_the_planned_order(problem):
    x, tol = problem
    res = sthosvd(x, tol=tol)
    err = relative_error(x, res.decomposition)
    assert err <= tol * (1 + 1e-9)
    assert abs(res.error_estimate() - err) <= 1e-6 + 1e-4 * err
    assert sorted(res.mode_order) == list(range(x.ndim))
    ref = st_hosvd(x, tol=tol, mode_order=res.mode_order)
    assert res.ranks == ref.ranks
    np.testing.assert_allclose(
        res.decomposition.reconstruct(), ref.reconstruct(),
        rtol=0, atol=1e-10 * max(1.0, float(np.abs(x).max())),
    )


@given(problem=problems(), method=st.sampled_from(["gram", "svd"]))
@settings(max_examples=40, deadline=None)
def test_same_logical_order_and_core_on_every_layout(problem, method):
    x, tol = problem
    runs = {
        layout: sthosvd(in_layout(layout, x), tol=tol, method=method)
        for layout in LAYOUTS
    }
    first = runs["F"]
    for layout, res in runs.items():
        assert res.mode_order == first.mode_order, layout
        assert res.ranks == first.ranks, layout
        np.testing.assert_allclose(
            res.decomposition.core, first.decomposition.core,
            rtol=0, atol=1e-12 * max(1.0, float(np.abs(x).max())),
        )
    # Only the copy of a strided input changes nothing at all.
    for layout in ("sliced", "readonly"):
        assert (
            runs[layout].decomposition.core.tobytes()
            == first.decomposition.core.tobytes()
        )


def test_the_order_is_the_ratio_rule_on_the_ranks():
    # Exactly low rank: the sample predicts the final ranks, and the order
    # is greedy_ratio_order of them — 12/2, 9/3, 10/5, 8/8.
    x = low_rank_tensor((12, 10, 8, 9), (2, 5, 8, 3), seed=4, noise=0.0)
    res = sthosvd(x, tol=1e-6)
    assert res.ranks == (2, 5, 8, 3)
    assert res.mode_order == (0, 3, 1, 2)
    assert list(res.mode_order) == greedy_ratio_order(x.shape, res.ranks)
    natural = sthosvd(x, tol=1e-6, mode_order="natural")
    assert natural.mode_order == (0, 1, 2, 3)
    assert natural.ranks == res.ranks


class TestTiesAndDegenerateModes:
    def test_ties_go_in_the_callers_mode_order_on_both_layouts(self):
        # A symmetric tensor: every mode has the same spectrum, so every
        # ratio ties and the tie-break decides, on the caller's modes —
        # the C-ordered run (the driver sees the modes reversed) too.
        g = np.random.default_rng(5).standard_normal((5, 5, 5))
        x = sum(np.transpose(g, p) for p in itertools.permutations(range(3)))
        for layout in ("F", "C"):
            res = sthosvd(in_layout(layout, x), tol=0.2)
            assert len(set(res.ranks)) == 1
            assert res.mode_order == (0, 1, 2), layout

    def test_full_rank_modes_keep_increasing_order(self):
        x = np.random.default_rng(6).standard_normal((6, 5, 4))
        res = sthosvd(x, tol=1e-9)
        assert res.ranks == x.shape
        assert res.mode_order == (0, 1, 2)

    def test_size_one_modes_go_last(self):
        x = low_rank_tensor((9, 1, 8, 1, 7), (2, 1, 4, 1, 3), seed=8)
        for layout in ("F", "C"):
            res = sthosvd(in_layout(layout, x), tol=1e-6)
            assert res.ranks == (2, 1, 4, 1, 3)
            assert res.mode_order == (0, 4, 2, 1, 3), layout

    def test_one_mode_tensor_is_not_planned(self):
        x = np.random.default_rng(9).standard_normal(7)
        res = sthosvd(x, tol=0.1)
        assert res.mode_order == (0,)

    def test_labels_must_permute_the_modes(self):
        dt = DistTensor(self_grid(3), (2, 3, 4), np.ones((2, 3, 4)))
        with pytest.raises(ValueError, match="not a permutation"):
            plan_mode_order(dt, 1.0, labels=(0, 0, 1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.1},
            {"tol": 0.1, "mode_order": "natural"},
            {"tol": 0.1, "mode_order": (2, 0, 1)},
            {"ranks": (1, 2, 2)},
        ],
        ids=["planned", "natural", "explicit", "ranks"],
    )
    def test_the_driver_checks_labels_planned_or_not(self, kwargs):
        x = np.random.default_rng(10).standard_normal((2, 3, 4))
        dt = DistTensor(self_grid(3), x.shape, np.asfortranarray(x))
        with pytest.raises(ValueError, match="not a permutation"):
            dist_sthosvd(dt, mode_labels=(0, 0, 1), **kwargs)
        # A valid permutation passes, and only a planned run reads it.
        dist_sthosvd(dt, mode_labels=(2, 1, 0), **kwargs)


X = low_rank_tensor((10, 12, 8), (6, 3, 2), seed=21, noise=0.001)
TOL = 0.05
#: The plan puts mode 1 first on ``X`` (``test_hooi_...`` checks it).
#: ``(2, 2, 1)`` divides mode 1 and mode 0 alike, so it keeps the plan.
GRIDS = [(1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 1, 2), (4, 1, 1), (2, 2, 1)]
#: Grids that divide mode 1 and leave mode 0 undivided.
DIVIDING_GRIDS = [(1, 2, 1), (1, 2, 2)]


def _factorise(comm, grid, order):
    dt = DistTensor.from_global(CartGrid(comm, grid), X)
    t = dist_sthosvd(dt, tol=TOL, mode_order=order, compute_dtype="float64")
    return (
        t.mode_order,
        t.core.local.tobytes(),
        [f.tobytes() for f in t.factors_local],
        [e.tobytes() for e in t.eigenvalues],
        t.error_estimate(),
    )


class TestGridsAndBackends:
    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    def test_same_order_and_bits_on_every_grid_and_backend(self, grid):
        sequential = sthosvd(X, tol=TOL)
        runs = {
            backend: run_spmd(
                prod(grid), _factorise, grid, None, backend=backend,
                timeout=20.0,
            ).values
            for backend in BACKENDS
        }
        planned = runs[BACKENDS[0]][0][0]
        assert planned == sequential.mode_order
        for values in runs.values():
            assert values == runs[BACKENDS[0]]
        # The plan is the only difference from an explicit-order run.
        explicit = run_spmd(
            prod(grid), _factorise, grid, planned, backend=BACKENDS[0],
            timeout=20.0,
        ).values
        assert explicit == runs[BACKENDS[0]]
        if grid == (1, 1, 1):
            (order, core, factors, values, estimate), = explicit
            assert core == sequential.decomposition.core.tobytes()
            assert factors == [
                f.tobytes() for f in sequential.decomposition.factors
            ]
            assert estimate == sequential.error_estimate()

    @pytest.mark.parametrize("grid", DIVIDING_GRIDS, ids=str)
    def test_a_grid_dividing_the_first_planned_mode_keeps_increasing_order(
        self, grid
    ):
        res = run_spmd(
            prod(grid), _factorise, grid, None, backend=BACKENDS[0],
            timeout=20.0,
        )
        assert res.values[0][0] == (0, 1, 2)
        assert sthosvd(X, tol=TOL).mode_order[0] == 1
        natural = run_spmd(
            prod(grid), _factorise, grid, "natural", backend=BACKENDS[0],
            timeout=20.0,
        )
        assert res.values == natural.values
        # The plan still ran (it names the first mode) and is all it adds.
        for r in range(prod(grid)):
            planned = dict(res.ledger.rank_costs(r).by_section)
            assert planned.pop("plan") > 0
            assert planned == natural.ledger.rank_costs(r).by_section

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plan_section_is_rank_symmetric(self, backend):
        res = run_spmd(
            4, _factorise, (2, 1, 2), None, backend=backend, timeout=20.0
        )
        assert res.values[0][0] == (1, 2, 0)
        rows = [res.ledger.rank_costs(r) for r in range(4)]
        plan = {row.by_section["plan"] for row in rows}
        assert len(plan) == 1 and plan.pop() > 0
        explicit = run_spmd(
            4, _factorise, (2, 1, 2), res.values[0][0], backend=backend,
            timeout=20.0,
        )
        # The plan's messages: the same on every rank, and only there.
        unplanned = [explicit.ledger.rank_costs(r) for r in range(4)]
        extra = {row.messages - u.messages for row, u in zip(rows, unplanned)}
        assert len(extra) == 1 and extra.pop() > 0
        assert not any("plan" in u.by_section for u in unplanned)


def test_hooi_initialises_in_its_sweep_order():
    # The planned order here is (1, 2, 0); HOOI's sweeps, and so its
    # ST-HOSVD initialisation, keep increasing order on both entry points.
    assert sthosvd(X, tol=TOL).mode_order == (1, 2, 0)
    assert hooi(X, tol=TOL, max_iterations=1).init.mode_order == (0, 1, 2)

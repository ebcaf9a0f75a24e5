"""MachineSpec tests."""

import pytest

from repro.perfmodel import EDISON, EDISON_CALIBRATED, MachineSpec, UNIT


class TestMachineSpec:
    def test_rejects_negative_constants(self):
        with pytest.raises(ValueError):
            MachineSpec(alpha=-1, beta=1, gamma=1)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
    def test_rejects_nan_constants(self, field):
        # A NaN constant would make every modeled time NaN, and every
        # comparison between them false.
        constants = {"alpha": 1.0, "beta": 1.0, "gamma": 1.0}
        constants[field] = float("nan")
        with pytest.raises(ValueError, match=field):
            MachineSpec(**constants)

    def test_frozen(self):
        with pytest.raises(Exception):
            EDISON.alpha = 0.0


class TestBlasEfficiency:
    def test_ideal_machine_is_one(self):
        assert UNIT.blas_efficiency(1, 1, 1) == 1.0

    def test_calibration_point(self):
        # The calibration: ~200x200x(big) GEMM at 67% of peak.
        eff = EDISON_CALIBRATED.blas_efficiency(200, 1e6, 200)
        assert eff == pytest.approx(2 / 3, rel=0.01)

    def test_small_blocks_slow(self):
        big = EDISON_CALIBRATED.blas_efficiency(500, 500, 500)
        small = EDISON_CALIBRATED.blas_efficiency(8, 8, 8)
        assert small < 0.2 < 0.7 < big

    def test_monotone_in_each_dim(self):
        e1 = EDISON_CALIBRATED.blas_efficiency(10, 100, 100)
        e2 = EDISON_CALIBRATED.blas_efficiency(20, 100, 100)
        assert e2 > e1

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            EDISON_CALIBRATED.blas_efficiency(0, 10, 10)

    def test_flop_time_scales_with_efficiency(self):
        ideal = EDISON_CALIBRATED.flop_time(1e9)
        derated = EDISON_CALIBRATED.flop_time(1e9, (10, 10, 10))
        assert derated > ideal

    def test_flop_time_rejects_negative(self):
        with pytest.raises(ValueError):
            UNIT.flop_time(-1)

"""Tests for the experiment-regeneration registry (repro.report)."""

import csv

import pytest

from repro import report
from repro.perfmodel import EDISON


class TestPerformanceData:
    """Model-backed experiments are cheap enough to test at paper scale."""

    def test_fig8a_rows(self):
        rows = report.fig8a_data()
        assert len(rows) == 11
        assert {"grid", "time", "relative_time", "gram_time"} <= set(rows[0])
        assert min(r["relative_time"] for r in rows) == pytest.approx(1.0)

    def test_fig8b_rows(self):
        rows = report.fig8b_data()
        assert len(rows) == 24  # all permutations of 4 modes
        best = min(rows, key=lambda r: r["time"])
        assert best["order"].startswith("2")

    def test_fig9a_rows(self):
        rows = report.fig9a_data()
        assert [r["nodes"] for r in rows] == [2**k for k in range(10)]
        times = [r["sthosvd_seconds"] for r in rows]
        assert times[0] > times[-1]

    def test_fig9b_rows(self):
        rows = report.fig9b_data()
        assert [r["k"] for r in rows] == list(range(1, 7))
        for r in rows:
            assert 0 < r["sthosvd_gflops_per_core"] < 19.2

    def test_machine_parameter(self):
        ideal = report.fig9a_data(machine=EDISON)
        calibrated = report.fig9a_data()
        assert ideal[0]["sthosvd_seconds"] < calibrated[0]["sthosvd_seconds"]


class TestCompressionData:
    """Data-backed experiments run on small proxies via monkeypatching."""

    @pytest.fixture(autouse=True)
    def small_proxies(self, monkeypatch):
        from repro.data import load_dataset

        small = {
            "HCCI": dict(shape=(16, 16, 8, 12)),
            "TJLR": dict(shape=(8, 10, 6, 12, 6)),
            "SP": dict(shape=(12, 12, 12, 6, 8)),
        }

        def patched(name, **kwargs):
            return load_dataset(name, **small[name.upper()])

        monkeypatch.setattr(report, "load_dataset", patched)

    def test_fig1b_rows(self):
        rows = report.fig1b_data(epsilons=(1e-3, 1e-2))
        assert len(rows) == 2
        assert rows[0]["compression_ratio"] < rows[1]["compression_ratio"]
        for r in rows:
            assert r["true_error"] <= r["eps"]

    def test_fig6_rows(self):
        rows = report.fig6_data("SP")
        modes = {r["mode"] for r in rows}
        assert modes == {0, 1, 2, 3, 4}
        # Errors decrease with rank within each mode.
        per_mode = [r["error"] for r in rows if r["mode"] == 0]
        assert all(b <= a + 1e-12 for a, b in zip(per_mode, per_mode[1:]))

    def test_fig7_rows(self):
        rows = report.fig7_data(epsilons=(1e-2,))
        by_ds = {r["dataset"]: r["compression_ratio"] for r in rows}
        assert by_ds["SP"] > by_ds["HCCI"] > by_ds["TJLR"]

    def test_table2_rows(self):
        rows = report.table2_data(eps=1e-2, hooi_iterations=1)
        assert [r["dataset"] for r in rows] == ["HCCI", "TJLR", "SP"]
        for r in rows:
            assert r["hooi_norm_rms"] <= r["st_norm_rms"] + 1e-12


class TestCsvOutput:
    def test_write_csv(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]
        path = tmp_path / "out.csv"
        report.write_csv(rows, path)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert parsed[1]["a"] == "3"

    def test_write_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            report.write_csv([], tmp_path / "x.csv")

    def test_registry_covers_all_artifacts(self):
        assert set(report.EXPERIMENTS) == {
            "fig1b", "fig6_hcci", "fig6_tjlr", "fig6_sp", "fig7",
            "table2", "fig8a", "fig8b", "fig9a", "fig9b",
        }

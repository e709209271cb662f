import os
import warnings

import numpy as np
import pytest

from adamoge import data
from adamoge.data import DataError
from adamoge.synthetic import hourly_timestamps, load_like_table, sinusoid_table

from oracles import constant_table

ETT_DIR = os.environ.get("ADAMOGE_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data"))
ETTH1 = os.path.join(ETT_DIR, "ETTh1.csv")


def write_csv(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,a,b\n"
            "2020-01-01 00:00:00,1.0,2.0\n"
            "2020-01-01 01:00:00,3.0,4.0\n"
            "2020-01-01 02:00:00,5.0,6.0\n",
        )
        table = data.load_csv(path)
        assert table.rows == 3 and table.variables == 2
        assert table.names == ["a", "b"]
        assert np.array_equal(table.values, [[1, 2], [3, 4], [5, 6]])

    def test_nan_cell_named(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,a,b\n"
            "2020-01-01 00:00:00,1.0,2.0\n"
            "2020-01-01 01:00:00,nan,4.0\n",
        )
        with pytest.raises(DataError, match=r"line 3, column 2 \(a\)"):
            data.load_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e400"])
    def test_infinite_cell_named(self, tmp_path, cell):
        path = write_csv(
            tmp_path,
            "date,a,b\n"
            "2020-01-01 00:00:00,1.0,2.0\n"
            "2020-01-01 01:00:00,3.0,2.0\n"
            f"2020-01-01 02:00:00,5.0,{cell}\n",
        )
        with pytest.raises(DataError, match=r"line 4, column 3 \(b\): missing/non-finite"):
            data.load_csv(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,a\n2020-01-01 00:00:00,x\n",
        )
        with pytest.raises(DataError, match="line 2, column 2"):
            data.load_csv(path)

    def test_non_monotone_timestamps(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,a\n"
            "2020-01-01 02:00:00,1.0\n"
            "2020-01-01 01:00:00,2.0\n",
        )
        with pytest.raises(DataError, match="not strictly increasing"):
            data.load_csv(path)

    def test_mixed_utc_offset_and_naive_timestamps(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,a\n"
            "2020-01-01 00:00:00+01:00,1.0\n"
            "2020-01-01 01:00:00,2.0\n",
        )
        with pytest.raises(DataError, match="line 3: timestamps mix"):
            data.load_csv(path)

    def test_oversized_field_is_data_error(self, tmp_path):
        path = write_csv(tmp_path, "date,a\n2020-01-01 00:00:00," + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match="line 2"):
            data.load_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            data.load_csv(write_csv(tmp_path, ""))

    def test_missing_file(self):
        with pytest.raises(DataError, match="no/such/file"):
            data.load_csv("no/such/file.csv")

    def test_roundtrip_via_save(self, tmp_path):
        table = sinusoid_table(50, seed=1)
        path = str(tmp_path / "x.csv")
        data.save_csv(table, path)
        back = data.load_csv(path)
        assert np.array_equal(back.values, table.values)
        assert back.timestamps == table.timestamps

    @pytest.mark.skipif(not os.path.exists(ETTH1), reason="ETTh1.csv not present")
    def test_etth1_dimensions(self):
        table = data.load_csv(ETTH1)
        assert table.rows == 17420
        assert table.variables == 7


class TestMakeSplit:
    def test_etth_borders(self):
        spec = data.make_split(17420, "etth", lookback=96)
        assert spec.train == (0, 8640)
        assert spec.val == (8640 - 96, 11520)
        assert spec.test == (11520 - 96, 14400)

    def test_ettm_is_four_times(self):
        spec = data.make_split(69680, "ettm", lookback=96)
        assert spec.train == (0, 34560)
        assert spec.test == (46080 - 96, 57600)

    def test_ratio_split(self):
        spec = data.make_split(1000, "ratio", lookback=96)
        assert spec.train == (0, 700)
        assert spec.val == (700 - 96, 800)
        assert spec.test == (800 - 96, 1000)

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            data.make_split(150, "ratio", lookback=96, horizon=96)
        with pytest.raises(DataError):
            data.make_split(5000, "etth", lookback=96)

    def test_kind_inference(self):
        assert data.dataset_kind("/x/ETTh1.csv") == "etth"
        assert data.dataset_kind("/x/ETTm2.csv") == "ettm"
        assert data.dataset_kind("/x/weather.csv") == "ratio"
        assert data.dataset_kind("/x/ETTh1.csv", "ratio") == "ratio"


class TestNormalisation:
    def test_constant_column_floored(self):
        table = constant_table(100, 2, 3.5)
        with pytest.warns(UserWarning, match="floored"):
            stats = data.fit_norm(table, (0, 70))
        normed = data.apply_norm(table, stats)
        assert np.allclose(normed.values, 0.0)

    def test_two_point_population_std(self):
        table = data.SeriesTable(hourly_timestamps(2), np.array([[1.0], [3.0]]), ["a"])
        stats = data.fit_norm(table, (0, 2))
        assert stats.mean[0] == 2.0 and stats.std[0] == 1.0

    def test_denormalize_inverts(self):
        table = sinusoid_table(300, seed=2)
        stats = data.fit_norm(table, (0, 210))
        normed = data.apply_norm(table, stats)
        assert np.max(np.abs(data.denormalize(normed.values, stats) - table.values)) < 1e-10

    def test_train_columns_standardised(self):
        table = sinusoid_table(400, seed=3)
        stats = data.fit_norm(table, (0, 280))
        normed = data.apply_norm(table, stats).values[:280]
        assert np.max(np.abs(normed.mean(axis=0))) < 1e-9
        assert np.max(np.abs(normed.std(axis=0) - 1.0)) < 1e-9

    def test_overflowing_statistics_name_the_column(self):
        # every cell is finite, but the variance of column s1 overflows
        table = sinusoid_table(400, variables=3, seed=4)
        table.values[:, 1] *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"\['s1'\]: mean or std .* overflows"):
                data.fit_norm(table, (0, 280))

    def test_stats_ignore_test_rows(self):
        table = sinusoid_table(400, seed=4)
        stats1 = data.fit_norm(table, (0, 280))
        table.values[300:] += 1e6  # poison the test region
        stats2 = data.fit_norm(table, (0, 280))
        assert np.array_equal(stats1.mean, stats2.mean)
        assert np.array_equal(stats1.std, stats2.std)


class TestWindows:
    def test_exact_count(self):
        vals = np.arange(40, dtype=np.float64).reshape(-1, 1)
        batches = list(data.iter_windows(vals, (0, 24), 16, 8, batch_size=4))
        n = sum(b.x.shape[0] for b in batches)
        assert n == 1  # 24 == 16 + 8
        batches = list(data.iter_windows(vals, (0, 33), 16, 8, batch_size=4))
        assert sum(b.x.shape[0] for b in batches) == 10

    def test_contiguity_and_coverage(self):
        vals = np.arange(60, dtype=np.float64).reshape(-1, 1)
        seen = []
        for b in data.iter_windows(vals, (5, 45), 8, 4, batch_size=3):
            for i in range(b.x.shape[0]):
                o = b.origins[i]
                seen.append(o)
                assert np.array_equal(b.x[i, :, 0], np.arange(o, o + 8))
                assert np.array_equal(b.y[i, :, 0], np.arange(o + 8, o + 12))
        assert sorted(seen) == list(range(5, 5 + (40 - 8 - 4 + 1)))

    def test_shuffle_determinism(self):
        vals = np.random.default_rng(0).standard_normal((100, 2))
        order1 = [b.origins.tolist() for b in data.iter_windows(vals, (0, 100), 8, 4, 16, shuffle_seed=9)]
        order2 = [b.origins.tolist() for b in data.iter_windows(vals, (0, 100), 8, 4, 16, shuffle_seed=9)]
        order3 = [b.origins.tolist() for b in data.iter_windows(vals, (0, 100), 8, 4, 16, shuffle_seed=10)]
        assert order1 == order2
        assert order1 != order3

    def test_eval_order_ascending_with_partial_tail(self):
        vals = np.zeros((30, 1))
        batches = list(data.iter_windows(vals, (0, 30), 8, 4, batch_size=8))
        origins = np.concatenate([b.origins for b in batches])
        assert np.array_equal(origins, np.arange(19))
        assert batches[-1].x.shape[0] == 19 % 8

    def test_too_short_range_rejected(self):
        with pytest.raises(DataError):
            list(data.iter_windows(np.zeros((10, 1)), (0, 10), 8, 4, 2))


class TestPrepare:
    def test_end_to_end(self):
        table = sinusoid_table(1000, seed=5)
        ds = data.prepare(table, "ratio", 96, 24, "synth")
        assert ds.split.train == (0, 700)
        assert ds.values.shape == table.values.shape
        train = ds.values[:700]
        assert abs(train.mean()) < 1e-9


class TestLoadLikeTable:
    def test_deterministic_finite_and_prepares_as_etth(self):
        # the benchmark's stand-in for ETTh1: 17420 hourly rows of 7 variables
        table = load_like_table(seed=1)
        assert table.values.shape == (17420, 7)
        assert np.isfinite(table.values).all()
        again, other = load_like_table(seed=1), load_like_table(seed=2)
        assert again.values.tobytes() == table.values.tobytes()
        assert again.timestamps == table.timestamps
        assert other.values.tobytes() != table.values.tobytes()
        ds = data.prepare(table, "etth", 96, 720, "etth_like")
        assert (ds.split.train, ds.split.val, ds.split.test) == (
            (0, 8640), (8544, 11520), (11424, 14400))
        assert np.isfinite(ds.values).all()
        assert len(data.window_origins(ds.split.test, 96, 720)) == 14400 - 11424 - 816 + 1

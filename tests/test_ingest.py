import math
import sys
import tracemalloc

import numpy as np
import pytest

from marcz import load_prices, log_returns, select_window
from marcz.errors import DomainError, EmptyDataError, LengthError, SchemaError
from marcz.ingest import _BLOCK_ROWS, PriceSeries, _numbered_blocks, write_rows
from marcz.kernel import BoundReport
from marcz.linproc import PathEnsemble, ensemble_to_tsv
from marcz.statistic import MarcTrace
from marcz.verify import SuiteResult


class TestLoadPrices:
    def test_null_row_dropped(self, fixtures_dir):
        series = load_prices(f"{fixtures_dir}/prices.csv")
        assert series.adj_close.size == 5

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_row_dropped(self, tmp_path, cell):
        p = tmp_path / "prices.csv"
        p.write_text(f"Date,Adj Close\n2020-01-01,1.5\n2020-01-02,{cell}\n2020-01-03,2.5\n")
        assert load_prices(p).adj_close.tolist() == [1.5, 2.5]

    def test_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("Date,Adj Close\n")
        with pytest.raises(EmptyDataError):
            load_prices(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("Date,Close\n2020-01-01,5\n")
        with pytest.raises(SchemaError):
            load_prices(p)

    def test_label_default(self, fixtures_dir):
        series = load_prices(f"{fixtures_dir}/prices.csv", label="ACME")
        assert series.label == "ACME"


class TestLogReturns:
    def test_constant_prices(self):
        s = PriceSeries(adj_close=np.full(5, 42.0), label="c")
        assert np.all(log_returns(s) == 0)

    def test_first_element_zero(self):
        s = PriceSeries(adj_close=np.array([1.0, math.e]), label="e")
        assert np.allclose(log_returns(s), [0.0, 1.0])

    def test_small_move(self):
        s = PriceSeries(adj_close=np.array([100.0, 101.0]), label="x")
        r = log_returns(s)
        assert r[1] == pytest.approx(math.log(1.01))

    def test_exponential_growth_constant_returns(self):
        t = np.arange(50, dtype=float)
        s = PriceSeries(adj_close=np.exp(0.01 * t), label="g")
        r = log_returns(s)
        assert np.max(np.abs(r[1:] - 0.01)) < 1e-12

    def test_nonpositive_price(self):
        s = PriceSeries(adj_close=np.array([1.0, -2.0, 3.0]), label="bad")
        with pytest.raises(DomainError):
            log_returns(s)


class TestSelectWindow:
    def test_exact_fit(self):
        v = np.arange(2701, dtype=float)
        w = select_window(v)
        assert w.size == 2601
        assert w[0] == 0 and w[-1] == 2600

    def test_too_short(self):
        with pytest.raises(LengthError):
            select_window(np.zeros(2700))

    def test_long_series(self):
        v = np.arange(5000, dtype=float)
        w = select_window(v)
        assert w.size == 2601
        assert w[-1] == 5000 - 100 - 1


_SPECIAL = [0.0, -0.0, 5e-324, 1 / 3, 1.7976931348623157e308, math.nan,
            math.inf, -math.inf]


def _trace_bytes(path, a, b=None):
    MarcTrace(s=1, exponent=0.5, f=a).to_csv(path)
    return "k,f\n" + "".join(f"{k},{v:.17g}\n" for k, v in enumerate(a, start=1))


def _ensemble_bytes(path, a, b):
    ens = PathEnsemble(x=np.vstack([a, b]), d=a * b, config=None, seed=0)
    ensemble_to_tsv(ens, path)
    return "k\tx_1\tx_2\td\n" + "".join(
        f"{k + 1}\t{a[k]:.17g}\t{b[k]:.17g}\t{a[k] * b[k]:.17g}\n" for k in range(a.size))


def _bound_report_bytes(path, a, b):
    lags = range(2, a.size + 2)  # row numbers that start at 2
    report = BoundReport(gamma=0.75, mixed=False, lags=lags, sums=a, bounds=b)
    report.to_tsv(path)
    return "lag\tsum\tbound\tratio\n" + "".join(
        f"{lag}\t{s:.12g}\t{t:.12g}\t{s / t:.12g}\n" for lag, s, t in zip(lags, a, b))


def _suite_bytes(path, a, b):
    result = SuiteResult(suite="s")
    for i, (v, w) in enumerate(zip(a, b)):
        result.check(f"check {i}", v, w, "<")
    result.to_tsv(path)
    return "check\tvalue\tlimit\tcomparison\tpassed\n" + "".join(
        f"check {i}\t{v:.12g}\t{w:.12g}\t<\t{'pass' if v < w else 'FAIL'}\n"
        for i, (v, w) in enumerate(zip(a, b)))


@pytest.mark.parametrize("writer", [_trace_bytes, _ensemble_bytes,
                                    _bound_report_bytes, _suite_bytes])
@pytest.mark.parametrize("rows", [0, 1, len(_SPECIAL), 515, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 3])
def test_writer_bytes(tmp_path, writer, rows):
    # every artifact writer against a per-row f-string reference, across
    # special values and block boundaries
    a = np.resize(np.array(_SPECIAL), rows)
    b = np.resize(np.array(_SPECIAL[::-1] + [-1 / 3]), rows)
    path = tmp_path / "out.txt"
    with np.errstate(all="ignore"):
        expected = writer(path, a, b)
    assert path.read_text() == expected


def test_row_templates_follow_length(tmp_path):
    # the cached row-number templates must be rebuilt, not reused, when the
    # length changes across a block boundary, and hold one entry after
    path = tmp_path / "trace.csv"
    f = np.resize(np.array(_SPECIAL), _BLOCK_ROWS + 1)
    for rows in (_BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS - 1, _BLOCK_ROWS):
        expected = _trace_bytes(path, f[:rows])
        assert path.read_text() == expected
    assert _numbered_blocks.cache_info().currsize == 1


def test_unequal_columns_raise(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(LengthError):
        write_rows(path, "k,f\n", range(1, 4), ",%.17g\n", np.zeros(2))
    with pytest.raises(LengthError):
        write_rows(path, "k\ta\tb\n", range(1, 4), "\t%.17g\t%.17g\n", np.zeros(3), np.zeros(4))
    assert not path.exists()


def test_trace_write_memory(tmp_path):
    # a 2^18 trace is written holding the row-number templates and one
    # block of rows (measured ~89 bytes a row), never the column's text
    n = 2 ** 18
    f = np.random.default_rng(0).standard_normal(n)
    trace = MarcTrace(s=1, exponent=0.5, f=f)
    path = tmp_path / "trace.csv"
    _numbered_blocks.cache_clear()
    tracemalloc.start()
    try:
        trace.to_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    templates = sum(map(sys.getsizeof, _numbered_blocks(range(1, n + 1), ",%.17g\n")))
    assert peak - templates < 128 * _BLOCK_ROWS < path.stat().st_size / 8


@pytest.mark.parametrize("call,error,match", [
    (load_prices, SchemaError, "no header row"),
    (lambda path: log_returns(PriceSeries(adj_close=np.array([1.0]), label="one")),
     LengthError, "two prices"),
], ids=["no_header_row", "one_price"])
def test_refusals(tmp_path, call, error, match):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(error, match=match):
        call(path)

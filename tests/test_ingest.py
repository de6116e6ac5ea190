import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from marcz import load_prices, log_returns, select_window
from marcz.errors import DomainError, EmptyDataError, LengthError, SchemaError
from marcz.ingest import _BLOCK_ROWS, PriceSeries, write_rows
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


def test_unequal_columns_raise(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(LengthError):
        write_rows(path, "k,f\n", range(1, 4), ",", 17, np.zeros(2))
    with pytest.raises(LengthError):
        write_rows(path, "k\ta\tb\n", range(1, 4), "\t", 17, np.zeros(3), np.zeros(4))
    assert not path.exists()


def test_trace_write_memory(tmp_path):
    # a 2^18 trace is written holding one block of rows (measured ~169 bytes
    # a row across the formatting arrays), never the column's text
    f = np.random.default_rng(0).standard_normal(2 ** 18)
    trace = MarcTrace(s=1, exponent=0.5, f=f)
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        trace.to_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 192 * _BLOCK_ROWS < path.stat().st_size / 8


def _written_values(path, values, precision):
    write_rows(path, "", range(values.size), ",", precision, values)
    return path.read_bytes().splitlines()


def _percent_lines(values, precision):
    return [b"%d,%.*g" % (k, precision, v) for k, v in enumerate(values.tolist())]


# zero, subnormals, the smallest normal, inf, nan, the %g switches, two
# exact ties at 12 digits, and 0.99...9e{k} with 12, 13, 17 or 18 nines,
# which round up to 10^k or not
_EDGES = ([0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
           math.inf, math.nan, 1e-5, 1e-4, 1 / 3, 0.5, 1.0, 2 ** 53, 2 ** 53 + 2,
           1234567890125.0, 1234567890135.0]
          + [float(f"0.{'9' * n}e{k}") for n in (12, 13, 17, 18)
             for k in (-4, -3, 1, 12, 13, 17, 18)])


def _edge_values():
    powers = np.concatenate([[float(f"1e{k}") for k in range(-300, 301)],
                             np.power(10.0, np.arange(-300, 301.0))])
    edges = np.concatenate([_EDGES, powers, np.nextafter(powers, 0),
                            np.nextafter(powers, math.inf), 1e16 + np.arange(-4.0, 6.0, 2.0),
                            1e17 + np.arange(-32.0, 48.0, 16.0)])
    return np.concatenate([edges, -edges])


@pytest.mark.parametrize("precision", [17, 12])
@pytest.mark.parametrize("values", [
    pytest.param(lambda: np.random.default_rng(0).integers(
        0, 2 ** 64, 2 ** 20, dtype=np.uint64).view(np.float64), id="bit_patterns"),
    pytest.param(_edge_values, id="edges"),
])
def test_writer_matches_percent(tmp_path, values, precision):
    # the vector digits against Python's correctly rounded '%.{p}g', row by
    # row: the bit patterns span every binade, so about one row in eleven is
    # outside the vector range or nan and takes the fallback, and the edges
    # sit on the decade and notation switches and the carries of rounding
    values = values()
    written = _written_values(tmp_path / "out.csv", values, precision)
    assert written == _percent_lines(values, precision)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(width=64), min_size=1, max_size=40), st.sampled_from([12, 17]))
def test_writer_matches_percent_property(tmp_path, values, precision):
    values = np.array(values, dtype=np.float64)
    assert _written_values(tmp_path / "out.csv", values, precision) == _percent_lines(
        values, precision)


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

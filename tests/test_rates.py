import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marcz import (DEFAULT_EXPONENTS, Verdict, VerdictTable, rate_bound,
                   estimate_parameters, predict_table, tables_from_tsv)
from marcz.errors import ConfigurationError, DomainError, MarczError


class TestRateBound:
    def test_s1(self):
        assert rate_bound(1, 0.75, math.inf) == pytest.approx(4.0 / 3.0)

    def test_s2_denominator_zero(self):
        assert rate_bound(2, 1.0, 3.3) == 2.0

    def test_s3(self):
        assert rate_bound(3, 0.65, 3.08) == pytest.approx(2.0 / 1.7)

    def test_domain(self):
        with pytest.raises(DomainError):
            rate_bound(1, 0.4, 2.0)
        with pytest.raises(DomainError):
            rate_bound(2, 0.8, 1.0)
        with pytest.raises(DomainError):
            rate_bound(1, math.nan, 2.0)
        with pytest.raises(DomainError):
            rate_bound(2, 1.1, 2.0)

    def test_s_at_least_one(self):
        with pytest.raises(ConfigurationError):
            rate_bound(0, 0.8, 2.0)

    def test_monotone_in_sigma_and_alpha(self):
        for s in (1, 2, 3):
            prev = 0.0
            for sig in (0.55, 0.65, 0.75, 0.85, 0.95):
                b = rate_bound(s, sig, 1.8)
                assert b >= prev - 1e-12
                prev = b
            assert rate_bound(s, 0.8, 1.5) <= rate_bound(s, 0.8, 3.0)

    def test_cap_at_two(self):
        assert rate_bound(2, 1.0, math.inf) == 2.0


class TestGeneralRateBound:
    """rate_bound at the sigma = 1 closure of the decay range."""

    def test_s1_closure(self):
        assert rate_bound(1, 1.0, math.inf) == 2.0
        assert rate_bound(1, 1.0 - 1e-9, math.inf) == pytest.approx(2.0)


class TestNumpyFree:
    """rates.py uses no numpy; its plain-Python forms give the numpy results."""

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=7))
    def test_point_mean_matches_numpy(self, points):
        # numpy's add-reduce is sequential below 8 elements (pairwise from 8
        # on); the default grid gives at most 2 alpha_1 points
        assert sum(points) / len(points) == float(np.mean(points))

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.55, 0.7, 1.0])
    def test_sigma_forms(self, s, sigma):
        expected = rate_bound(s, sigma, 2.5)
        for form in (np.float64(sigma), np.array(sigma)):
            assert rate_bound(s, form, 2.5) == expected, form


class TestPredictTable:
    def test_alcoa_like_row(self):
        table = predict_table(0.65, 2.0)
        assert table.row(1) == ["D", "D", "D", "D", "C", "C"]

    def test_mcdonalds_like_row(self):
        table = predict_table(0.55, 2.0)
        assert table.row(1) == ["D", "D", "D", "D", "D", "C"]

    def test_no_lrd_no_ht(self):
        table = predict_table(1.0, math.inf)
        for s in (1, 2, 3):
            assert table.row(s) == ["D", "C", "C", "C", "C", "C"]

    @given(st.floats(min_value=0.5, max_value=1.3, exclude_min=True),
           st.one_of(st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
                     st.just(math.inf)),
           st.lists(st.integers(min_value=1, max_value=5), min_size=1, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_rows_monotone(self, sig, a, s_list):
        table = predict_table(sig, a, s_list=s_list)
        for s in table.s_list:
            row = table.row(s)
            assert "".join(row) == "D" * row.count("D") + "C" * row.count("C")

    def test_sigma_above_one_clamps(self):
        for sig in (1.2, math.inf):
            assert predict_table(sig, 3.0).to_tsv() == predict_table(1.0, 3.0).to_tsv()

    @pytest.mark.parametrize("sigma, alpha1, kwargs", [
        (math.nan, math.inf, {}),
        (0.5, math.inf, {}),
        (0.7, math.nan, {}),
        (0.7, -2.0, {}),
        (0.7, 0.0, {}),
        (0.7, 2.0, {"s_list": (0, 1)}),
        (0.7, math.inf, {"s_list": (0, 1)}),
        (0.7, 2.0, {"exponent_list": (0.5, 1.5)}),
        (0.7, 2.0, {"exponent_list": (0.0, 0.5)}),
        (0.7, 2.0, {"exponent_list": (math.nan,)}),
        (0.7, 2.0, {"s_list": (1, 1)}),
        (0.7, 2.0, {"exponent_list": (0.5, 0.5)}),
    ])
    def test_rejects_bad_input(self, sigma, alpha1, kwargs):
        with pytest.raises((ConfigurationError, DomainError)):
            predict_table(sigma, alpha1, **kwargs)


class TestEstimate:
    @pytest.fixture
    def tables(self, fixtures_dir):
        out = tables_from_tsv(f"{fixtures_dir}/table1.tsv")
        return {t.label: t for t in out}

    def test_strong_lrd_strong_tail(self, tables):
        est = estimate_parameters(tables["Alcoa"])
        assert est.sigma.kind == "point"
        assert est.sigma.value == pytest.approx(0.65)
        assert est.alpha1.kind == "upper_bound"
        assert est.alpha1.value == pytest.approx(2.0)

    def test_no_lrd_moderate_tail(self, tables):
        est = estimate_parameters(tables["Barrick Gold"])
        assert est.sigma.kind == "lower_bound"
        assert est.sigma.value == 1.0
        assert est.alpha1.kind == "point"
        # mean of the two flip-midpoint estimates 2/0.65 and 3/0.85
        assert est.alpha1.value == pytest.approx(
            (2.0 * (2.0 / 1.3) + 3.0 * (2.0 / 1.7)) / 2.0)

    def test_strongest_lrd(self, tables):
        est = estimate_parameters(tables["McDonalds"])
        assert est.sigma.value == pytest.approx(0.55)
        assert est.alpha1.kind == "upper_bound"
        assert est.alpha1.value == pytest.approx(2.0)

    def test_missing_anchor(self, tables):
        t = tables["Alcoa"]
        t2 = type(t)(label="x", s_list=(2, 3), exponent_list=t.exponent_list,
                     cells={k: v for k, v in t.cells.items() if k[0] != 1})
        with pytest.raises(ConfigurationError):
            estimate_parameters(t2)

    def test_missing_tail_rows(self, tables):
        t = tables["Alcoa"]
        t1 = type(t)(label="x", s_list=(1,), exponent_list=t.exponent_list,
                     cells={k: v for k, v in t.cells.items() if k[0] == 1})
        with pytest.raises(ConfigurationError, match="s >= 2"):
            estimate_parameters(t1)

    def test_json_shape(self, tables):
        import json
        est = estimate_parameters(tables["Alcoa"])
        blob = json.loads(est.to_json())
        assert blob["sigma"]["kind"] == "point"
        assert any(ev["s"] == 1 for ev in blob["per_s_evidence"])


def _grid(s_list, rows):
    table = VerdictTable(label="pin", s_list=s_list, exponent_list=DEFAULT_EXPONENTS)
    for s, row in zip(s_list, rows):
        for e, letter in zip(DEFAULT_EXPONENTS, row):
            table.cells[(s, e)] = Verdict("Converges" if letter == "C" else "Diverges")
    return table


def _inversion_digest(tables):
    digest = hashlib.sha256()
    for table in tables:
        try:
            text = estimate_parameters(table).to_json()
        except MarczError as exc:
            text = f"{type(exc).__name__}: {exc}"
        digest.update(text.encode() + b"\0")
    return digest.hexdigest()


class TestInversionPin:
    """estimate_parameters' JSON, or its error, over whole families of
    default-grid tables: a change to any one output changes the digest."""

    def test_monotone_rows(self):
        rows = ["D" * k + "C" * (6 - k) for k in range(7)]
        tables = (_grid((1, 2, 3), r) for r in itertools.product(rows, repeat=3))
        assert _inversion_digest(tables) == (
            "9eef43989e3616d7eae0aa9ab4a55368c324747f833eb1d10021a5accc74ab46")

    def test_two_rows(self):
        rows = ["".join(r) for r in itertools.product("CD", repeat=6)]
        tables = (_grid((1, 2), r) for r in itertools.product(rows, repeat=2))
        assert _inversion_digest(tables) == (
            "c4938f50d283ea18ce29e9044d76e40de82e9083382413beb96a3d35b5be6c24")

    def test_three_arbitrary_rows(self):
        # a seeded sample of three-row tables, inconsistent rows of any s included
        rows = ["".join(r) for r in itertools.product("CD", repeat=6)]
        rng = random.Random(0)
        tables = (_grid((1, 2, 3), rng.choices(rows, k=3)) for _ in range(4096))
        assert _inversion_digest(tables) == (
            "1c8257897f995746ebdfacf3ace4dc9efadb0e05730d4d7abafd6a57fe6486e1")


def _assert_recovers(sigma, alpha1):
    est = estimate_parameters(predict_table(sigma, alpha1))
    if est.sigma.kind == "point":
        assert abs(est.sigma.value - sigma) <= 0.05 + 1e-9, (sigma, alpha1)
    else:
        assert sigma >= est.sigma.value - 0.05, (sigma, alpha1)
    lo, hi = est.alpha1_interval
    assert lo - 1e-9 <= alpha1 <= hi + 1e-9 or (
        math.isinf(alpha1) and math.isinf(hi)), (sigma, alpha1)


class TestRoundtrip:
    @given(st.floats(min_value=0.5, max_value=0.9, exclude_min=True),
           st.one_of(st.floats(min_value=1.05, max_value=10.0), st.just(math.inf)))
    @settings(max_examples=300, deadline=None)
    def test_grid_recovery(self, sigma, alpha1):
        _assert_recovers(sigma, alpha1)

    @pytest.mark.xfail(strict=True,
                       reason="for sigma in (0.9, 0.95) the s=1 row converges at "
                              "every e > 0.5, so the inversion reports sigma >= 1.0 "
                              "where the grid only shows sigma > 0.9")
    def test_sigma_just_below_one_overclaimed(self):
        _assert_recovers(0.92, math.inf)

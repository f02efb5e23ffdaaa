import json
import math

import numpy as np
import pytest

from vflab import (
    FiniteSpace,
    GridFunction,
    MeasureSequence,
    ProbabilityMeasure,
    SequenceEntry,
    binomial_weights,
    cramer_rate,
    cramer_sequence,
    empirical_rate,
    empirical_rate_at,
    estimate_limit,
    ingest_sequence,
    kl_divergence,
    ldp_term,
    ldp_value,
    tightness_scan,
)
from vflab.cli import CRAMER_DEFAULT_SCHEDULE
from vflab.errors import (
    InvalidP,
    InvariantViolation,
    ParseError,
    ScheduleTooShort,
    ValidationError,
)
from vflab.ldp_lab import REFERENCE_GRID
from vflab.serialize import dumps, encode_measure_sequence, measure_sequence_csv

LOG_HALF_1PE = 0.6201145069582775  # log((1 + e)/2)
I_QUARTER = 0.13081203594113697  # x log 2x + (1-x) log 2(1-x) at x = 1/4
I4096_QUARTER = 0.13184741718177861  # exact finite-n rate at 1/4, n = 4096


class TestBinomialWeights:
    def test_tiny_cases_exact(self):
        w1, _ = binomial_weights(1, 0.5)
        assert w1.tolist() == [0.5, 0.5]
        w2, _ = binomial_weights(2, 0.5)
        assert w2.tolist() == [0.25, 0.5, 0.25]
        w2b, _ = binomial_weights(2, 0.25)
        assert w2b.tolist() == [0.5625, 0.375, 0.0625]

    @pytest.mark.parametrize("n", [16, 256, 4096])
    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_mass_one_to_near_machine(self, n, p):
        w, _ = binomial_weights(n, p)
        assert abs(float(w.sum()) - 1.0) <= 5e-15

    def test_large_n_mass_once(self):
        w, _ = binomial_weights(2**16, 0.5)
        assert abs(float(w.sum()) - 1.0) <= 1e-12

    def test_log_weights_consistent(self):
        w, log_w = binomial_weights(64, 0.5)
        mask = w > 0
        assert np.allclose(np.exp(log_w[mask]), w[mask], rtol=1e-10)
        assert np.all(np.isfinite(log_w))  # log-gamma path never underflows

    @pytest.mark.parametrize("n, p", [(200, 0.3), (333, 0.123), (64, 0.5)])
    def test_linear_weights_match_exact_pmf(self, n, p):
        # exact pmf comb(n, k) P^k Q^(n-k) / D for p = P / den in binary, D = den^n;
        # integer arithmetic throughout, entries below 1e-280 (near subnormal) skipped
        w, _ = binomial_weights(n, p)
        P, den = float(p).as_integer_ratio()
        D = den**n
        for k in range(n + 1):
            exact = math.comb(n, k) * P**k * (den - P) ** (n - k)
            if exact * 10**280 < D:
                continue
            a, b = float(w[k]).as_integer_ratio()
            assert abs(a * D - exact * b) * 10**13 <= exact * b, k

    def test_invalid_p(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidP):
                binomial_weights(8, p)

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            binomial_weights(0, 0.5)


class TestCramerPieces:
    def test_sequence_grids_and_description(self):
        seq = cramer_sequence(0.5, [1, 2, 4])
        assert len(seq) == 3
        assert seq.description == "bernoulli(p=0.5) empirical means"
        for entry, n in zip(seq.entries, (1, 2, 4)):
            assert entry.n == n
            assert np.array_equal(entry.space.coords, np.arange(n + 1) / n)
            assert len(entry.measure) == n + 1

    def test_shared_table_gives_the_weights_bit_for_bit(self):
        seq = cramer_sequence(0.3, [1, 7, 64, 1000])
        for entry in seq.entries:
            w, log_w = binomial_weights(entry.n, 0.3)
            assert np.array_equal(entry.measure.weights, w)
            assert np.array_equal(entry.measure.log_weights, log_w)

    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            cramer_sequence(0.5, [0, 2])
        with pytest.raises(ValidationError):
            cramer_sequence(0.5, [])
        with pytest.raises(InvariantViolation):
            cramer_sequence(0.5, [4, 2])
        with pytest.raises(InvalidP):
            cramer_sequence(1.0, [1, 2])

    def test_rate_edges_and_zero(self):
        I = cramer_rate(0.5)
        assert I(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert I(1.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert I(0.5) == 0.0
        assert I(0.25) == pytest.approx(I_QUARTER, abs=1e-15)

    def test_rate_is_bernoulli_kl(self):
        I = cramer_rate(0.3)
        for x in (0.1, 0.3, 0.5, 0.99):
            want = kl_divergence(
                ProbabilityMeasure([x, 1 - x]), ProbabilityMeasure([0.3, 0.7])
            )
            assert I(x) == pytest.approx(want, abs=1e-14)

    def test_rate_vectorized_and_symmetric(self):
        I = cramer_rate(0.5)
        xs = np.linspace(0.0, 1.0, 101)
        vals = I(xs)
        assert vals.shape == xs.shape
        assert np.allclose(vals, vals[::-1], atol=1e-14)
        assert np.all(vals >= 0)


class TestFiniteNRateEnvelope:
    @pytest.mark.parametrize("n", [256, 1024, 4096])
    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_interior_within_stirling_envelope(self, n, p):
        entry = cramer_sequence(p, [n]).entries[0]
        rate_n = empirical_rate(entry).values
        x = entry.space.coords
        rate = cramer_rate(p)(x)
        k = np.arange(n + 1, dtype=float)
        interior = (k > 0) & (k < n) & (entry.measure.log_weights >= -10.0 * n)
        xi, ki = x[interior], k[interior]
        envelope = (
            np.log(2 * math.pi * n * xi * (1 - xi)) / (2 * n)
            + (1 / (12 * ki) + 1 / (12 * (n - ki))) / n
            + 1e-6
        )
        assert np.all(np.abs(rate_n[interior] - rate[interior]) <= envelope)

    def test_boundary_atoms_exact(self):
        for p in (0.5, 0.3):
            entry = cramer_sequence(p, [512]).entries[0]
            rate_n = empirical_rate(entry).values
            assert rate_n[0] == pytest.approx(-math.log1p(-p), abs=1e-9)
            assert rate_n[-1] == pytest.approx(-math.log(p), abs=1e-9)

    def test_quarter_point_at_4096(self):
        entry = cramer_sequence(0.5, [4096]).entries[0]
        got = empirical_rate_at(entry, 0.25)
        assert got == pytest.approx(I4096_QUARTER, abs=1e-9)
        assert abs(got - I_QUARTER) <= 0.005

    def test_mode_atom_nearly_flat(self):
        for n in (1024, 4096):
            entry = cramer_sequence(0.5, [n]).entries[0]
            assert empirical_rate_at(entry, 0.5) <= 0.005

    def test_n1_is_log2_twice(self):
        entry = cramer_sequence(0.5, [1]).entries[0]
        assert np.allclose(empirical_rate(entry).values, [math.log(2)] * 2, atol=1e-15)

    def test_nearest_atom_ties_go_low(self):
        entry = cramer_sequence(0.5, [2]).entries[0]
        # 0.25 sits exactly between the atoms 0 and 0.5
        assert empirical_rate_at(entry, 0.25) == pytest.approx(math.log(4) / 2, abs=1e-12)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_refused(self, x):
        entry = cramer_sequence(0.5, [4]).entries[0]
        with pytest.raises(ValidationError, match="x must be finite"):
            empirical_rate_at(entry, x)


class TestGridFunction:
    def test_default_nodes_are_the_reference_grid(self):
        g = GridFunction(np.zeros(len(REFERENCE_GRID)))
        assert np.array_equal(g.xs, REFERENCE_GRID)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridFunction([1.0, 2.0], [0.0])
        with pytest.raises(ValidationError):
            GridFunction([1.0])
        with pytest.raises(ValidationError):
            GridFunction([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValidationError):
            GridFunction([np.nan, 1.0], [0.0, 1.0])

    def test_from_callable_hits_nodes(self):
        g = GridFunction.from_callable(lambda x: x * x, [0.0, 0.5, 1.0])
        assert g(0.5) == 0.25
        assert g(0.25) == 0.125  # chord, not the parabola

    def test_clamps_outside_range(self):
        g = GridFunction([1.0, 3.0], [0.0, 1.0])
        assert g(-5.0) == 1.0 and g(5.0) == 3.0

    def test_identity_interpolates_exactly_on_dyadic_grid(self):
        g = GridFunction(REFERENCE_GRID.copy())
        atoms = np.arange(65) / 64
        assert np.array_equal(g(atoms), atoms)


class TestLdpValueAndLimit:
    def test_linear_function_exact_at_every_n(self):
        seq = cramer_sequence(0.5, [1, 4, 16, 64, 256])
        for entry in seq.entries:
            v = ldp_value(entry, lambda x: x)
            assert v == pytest.approx(LOG_HALF_1PE, abs=1e-10)

    def test_grid_interpolant_matches_callable(self):
        seq = cramer_sequence(0.5, [16, 64, 256])
        g = GridFunction(REFERENCE_GRID.copy())
        for entry in seq.entries:
            assert ldp_value(entry, g) == pytest.approx(
                ldp_value(entry, lambda x: x), abs=1e-14
            )

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_ldp_term_row_formula_bit_for_bit(self, test_functions, p):
        seq = cramer_sequence(p, CRAMER_DEFAULT_SCHEDULE)
        for entry in seq.entries:
            L = ldp_term(entry.measure, entry.n, entry.space)
            for F in test_functions.values():
                assert ldp_value(entry, F) == L(entry.space.function(F(entry.space.coords)))
            # a callable that returns a scalar is spread over the atoms
            assert ldp_value(entry, lambda x: 0.3) == L(entry.space.function(np.full(entry.n + 1, 0.3)))

    def test_overflowing_exponent_stays_finite(self):
        # n F passes the float range from n = 256 on; the shifted form keeps the top value
        F = GridFunction(1e306 * REFERENCE_GRID)
        for entry in cramer_sequence(0.3, CRAMER_DEFAULT_SCHEDULE).entries:
            assert ldp_value(entry, F) == 1e306

    def test_coordinate_free_space_rejected(self):
        entry = SequenceEntry(1, FiniteSpace.default(2), ProbabilityMeasure([0.5, 0.5]))
        with pytest.raises(ValidationError):
            ldp_value(entry, lambda x: x)

    def test_constant_series_extrapolates_to_itself(self):
        seq = cramer_sequence(0.5, [2, 4, 8, 16])
        report = estimate_limit(seq, lambda x: 0.0 * x + 0.7)
        assert report.converged
        assert report.extrapolated == pytest.approx(0.7, abs=1e-12)
        assert report.fit_slope == pytest.approx(0.0, abs=1e-9)
        assert [n for n, _ in report.terms] == [2, 4, 8, 16]

    def test_linear_series_converges_to_oracle(self):
        seq = cramer_sequence(0.5, [16, 64, 256, 1024])
        report = estimate_limit(seq, lambda x: x)
        assert report.converged
        assert report.extrapolated == pytest.approx(LOG_HALF_1PE, abs=1e-9)

    def test_short_schedule_refused(self):
        seq = cramer_sequence(0.5, [1, 2])
        with pytest.raises(ScheduleTooShort):
            estimate_limit(seq, lambda x: x)

    def test_oscillating_values_not_converged(self):
        space = FiniteSpace.from_line([0.0, 1.0])
        entries = tuple(
            SequenceEntry(n, space, ProbabilityMeasure(w))
            for n, w in [(1, [0.9, 0.1]), (2, [0.1, 0.9]), (3, [0.9, 0.1])]
        )
        seq = MeasureSequence("seesaw", entries)
        report = estimate_limit(seq, lambda x: x)
        assert not report.converged


class TestTightness:
    def test_levels_bracket_the_sublevel_interval(self):
        seq = cramer_sequence(0.5, [16, 64, 256, 1024, 4096])
        scan = tightness_scan(seq, 0.131)
        assert [n for n, _ in scan] == [16, 64, 256, 1024, 4096]
        diameters = [d for _, d in scan]
        assert all(0.0 <= d <= 1.0 for d in diameters)
        # the interval {I <= 0.131} straddles [1/4, 3/4]; refinement homes in
        assert abs(diameters[-1] - 0.5) <= 0.05
        assert abs(diameters[-1] - diameters[-2]) <= 0.02

    def test_huge_level_swallows_everything(self):
        seq = cramer_sequence(0.5, [4, 16])
        assert tightness_scan(seq, 10.0) == ((4, 1.0), (16, 1.0))

    def test_tiny_level_is_empty_at_large_n(self):
        seq = cramer_sequence(0.5, [4096])
        assert tightness_scan(seq, 1e-6) == ((4096, 0.0),)

    def test_threshold_must_be_positive(self):
        seq = cramer_sequence(0.5, [4])
        with pytest.raises(ValidationError):
            tightness_scan(seq, 0.0)
        with pytest.raises(ValidationError):
            tightness_scan(seq, math.nan)


class TestSequenceInvariants:
    def test_out_of_order_n_rejected(self):
        space = FiniteSpace.from_line([0.0, 1.0])
        mu = ProbabilityMeasure([0.5, 0.5])
        with pytest.raises(InvariantViolation):
            MeasureSequence(
                "bad", (SequenceEntry(4, space, mu), SequenceEntry(2, space, mu))
            )

    def test_length_mismatch_rejected(self):
        space = FiniteSpace.from_line([0.0, 0.5, 1.0])
        mu = ProbabilityMeasure([0.5, 0.5])
        with pytest.raises(InvariantViolation):
            MeasureSequence("bad", (SequenceEntry(1, space, mu),))


class TestIngest:
    def test_json_round_trip_is_bit_exact(self, tmp_path):
        seq = cramer_sequence(0.5, [1, 2, 4])
        path = tmp_path / "seq.json"
        path.write_text(dumps(encode_measure_sequence(seq)))
        got = ingest_sequence(path)
        assert got.description == seq.description
        for a, b in zip(got.entries, seq.entries):
            assert a.n == b.n
            assert np.array_equal(a.space.coords, b.space.coords)
            assert np.array_equal(a.measure.weights, b.measure.weights)
            assert a.measure.normalization == 1.0

    def test_csv_round_trip(self, tmp_path):
        seq = cramer_sequence(0.25, [1, 2])
        path = tmp_path / "quarter_means.csv"
        path.write_text(measure_sequence_csv(seq))
        got = ingest_sequence(path)
        assert got.description == "quarter_means"  # stem stands in for the label
        for a, b in zip(got.entries, seq.entries):
            assert a.n == b.n
            assert np.array_equal(a.measure.weights, b.measure.weights)

    def _write(self, tmp_path, doc) -> str:
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _doc(self, weights, n=1):
        return {
            "description": "d",
            "entries": [{"n": n, "points": [0.0, 1.0], "weights": weights}],
        }

    def test_near_one_sum_renormalized(self, tmp_path):
        path = self._write(tmp_path, self._doc([0.5, 0.5 + 3e-9]))
        got = ingest_sequence(path)
        mu = got.entries[0].measure
        assert abs(float(mu.weights.sum()) - 1.0) <= 1e-15
        assert mu.normalization == pytest.approx(1.0 + 3e-9, abs=1e-12)

    def test_bad_sum_rejected(self, tmp_path):
        path = self._write(tmp_path, self._doc([0.5, 0.6]))
        with pytest.raises(InvariantViolation):
            ingest_sequence(path)

    def test_out_of_order_entries_rejected(self, tmp_path):
        doc = {
            "description": "d",
            "entries": [
                {"n": 4, "points": [0.0, 1.0], "weights": [0.5, 0.5]},
                {"n": 2, "points": [0.0, 1.0], "weights": [0.5, 0.5]},
            ],
        }
        path = self._write(tmp_path, doc)
        with pytest.raises(InvariantViolation):
            ingest_sequence(path)

    def test_bad_n_flagged_with_field(self, tmp_path):
        for bad in (2.5, True, 0):
            path = self._write(tmp_path, self._doc([0.5, 0.5], n=bad))
            with pytest.raises(ParseError) as exc:
                ingest_sequence(path)
            assert exc.value.field == "n"

    def test_missing_keys_flagged(self, tmp_path):
        path = self._write(tmp_path, {"description": "d"})
        with pytest.raises(ParseError) as exc:
            ingest_sequence(path)
        assert exc.value.field == "entries"

        path2 = tmp_path / "e.json"
        path2.write_text(json.dumps({"description": "d", "entries": [{"n": 1}]}))
        with pytest.raises(ParseError) as exc:
            ingest_sequence(path2)
        assert exc.value.field == "points"

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "description": "d",\n  entries: []\n}\n')
        with pytest.raises(ParseError) as exc:
            ingest_sequence(path)
        assert exc.value.line == 3

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("n,x,w\n1,0.0,0.5\n")
        with pytest.raises(ParseError) as exc:
            ingest_sequence(path)
        assert exc.value.line == 1

    def test_csv_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("n,point,weight\n1,0.0,0.5\n1,1.0\n")
        with pytest.raises(ParseError) as exc:
            ingest_sequence(path)
        assert exc.value.line == 3

    def test_csv_regrouped_n_rejected(self, tmp_path):
        path = tmp_path / "seq.csv"
        texts = (
            "n,point,weight\n"
            "1,0.0,0.5\n1,1.0,0.5\n"
            "2,0.0,0.5\n2,1.0,0.5\n"
            "1,0.5,1.0\n",
            # every weight sum is exact: only the split group is wrong
            "n,point,weight\n1,0,.5\n2,0,.5\n2,1,.5\n1,1,.5\n",
        )
        for text, line in zip(texts, (6, 5)):
            path.write_text(text)
            with pytest.raises(InvariantViolation, match=f"line {line}"):
                ingest_sequence(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_sequence(tmp_path / "nowhere.json")

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"n": 1, "points": "01", "weights": [0.5, 0.5]}, "points"),
            ({"n": 1, "points": [0.0, 1.0], "weights": [True, False]}, "weights"),
            ({"n": 1, "points": [0.0, 10**400], "weights": [0.5, 0.5]}, "points"),
            ({"n": 10**400, "points": [0.0, 1.0], "weights": [0.5, 0.5]}, "n"),
        ],
    )
    def test_json_entries_use_the_list_reader(self, tmp_path, entry, field):
        path = self._write(tmp_path, {"description": "d", "entries": [entry]})
        with pytest.raises(ParseError) as exc:
            ingest_sequence(path)
        assert exc.value.field == field

    def test_csv_huge_n_refused(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("n,point,weight\n" + "9" * 400 + ",0.0,1.0\n")
        with pytest.raises(ParseError) as exc:
            ingest_sequence(path)
        assert exc.value.field == "n"

    def test_reader_lives_in_serialize(self):
        from vflab import ldp_lab, serialize

        assert ingest_sequence is serialize.load_measure_sequence
        assert not hasattr(ldp_lab, "ingest_sequence")

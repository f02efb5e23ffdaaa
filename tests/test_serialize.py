import json
import math

import numpy as np
import pytest
from conftest import broken_translation_handle

from vflab import (
    FiniteSpace,
    PitSchedule,
    ProbabilityMeasure,
    RateFunction,
    check_sigma_continuity,
    check_translation,
    conjugate_J,
    dual_rate,
    estimate_limit,
    log_integral,
    cramer_sequence,
    recover_L_from_J,
    kl_functional,
    sup_form,
    tail_limsup,
    tightness_scan,
    vanishing_sequence,
)
from vflab.errors import ParseError, ValidationError
from vflab.functionals import TailDomain
from vflab.serialize import (
    decode_function,
    decode_functional,
    decode_grid_function,
    decode_measure,
    decode_rate,
    decode_space,
    dual_report_csv,
    dumps,
    encode_check_report,
    encode_conjugate_report,
    encode_dual_report,
    encode_function,
    encode_gap,
    encode_limit_report,
    encode_tightness,
    encode_value,
    flat_csv,
    limit_report_csv,
    load_functional,
    read_json,
    tightness_csv,
)


class TestDumps:
    def test_trailing_newline_and_indent(self):
        text = dumps({"a": 1})
        assert text.endswith("\n")
        assert text == '{\n  "a": 1\n}\n'

    def test_deterministic_bytes(self):
        doc = encode_dual_report(dual_rate(log_integral(ProbabilityMeasure([0.25, 0.75]))))
        assert dumps(doc) == dumps(doc)


class TestSpace:
    def test_line_space_round_trip(self):
        space = FiniteSpace.from_line([0.0, 0.25, 1.0])
        assert decode_space({"points": ["0.0", "0.25", "1.0"], "coords": [0.0, 0.25, 1.0]}) == space

    def test_metric_space_round_trip(self):
        space = FiniteSpace(["a", "b"], metric=[[0.0, 2.0], [2.0, 0.0]])
        back = decode_space({"points": ["a", "b"], "metric": [[0, 2], [2, 0]]})
        assert back == space
        assert back.coords is None
        assert back.distance(0, 1) == 2.0

    def test_discrete_space_round_trip(self):
        # the discrete metric is implied, so the document carries labels only
        assert decode_space({"points": ["x1", "x2", "x3"]}) == FiniteSpace.default(3)

    def test_missing_points_rejected(self):
        # with no owner's size and no coordinates nothing sizes the space
        for doc in ({}, {"metric": [[0.0]]}):
            with pytest.raises(ParseError) as exc:
                decode_space(doc)
            assert exc.value.field == "points"


METRIC3 = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


def _owner_space(owner: str, space):
    """The space that a rate file, a sup_form or a measure descriptor builds from a space object."""
    if owner == "rate":
        return decode_rate(dict(space, rate=[0.0, 1.0, 2.0]))[1].space
    if owner == "sup_form":
        return decode_functional(dict(space, kind="sup_form", rate=[0.0, 1.0, 2.0])).space
    doc = {"kind": owner, "measure": [0.25, 0.25, 0.5], "space": space, "n": 2}
    return decode_functional(doc).space


OWNERS = ["rate", "sup_form", "log_integral", "ldp_term"]


class TestSpaceObject:
    """One rule for a space object: points optional, sized by the owner, a metric always checked."""

    @pytest.mark.parametrize("owner", OWNERS)
    @pytest.mark.parametrize(
        "space, want",
        [
            ({}, FiniteSpace.default(3)),
            ({"coords": [2.0, -1.0, 0.5]}, FiniteSpace.from_line([2.0, -1.0, 0.5])),
            ({"points": ["a", "b", "c"]}, FiniteSpace(["a", "b", "c"])),
            ({"metric": METRIC3}, FiniteSpace(["x1", "x2", "x3"], metric=METRIC3)),
            ({"points": ["a", "b", "c"], "metric": METRIC3}, FiniteSpace(["a", "b", "c"], metric=METRIC3)),
        ],
        ids=["none", "coords", "points", "metric", "points_metric"],
    )
    def test_every_owner_reads_a_space_alike(self, owner, space, want):
        got = _owner_space(owner, space)
        if not space:  # a default space still builds no labels (comparing them below does)
            assert got._ids is None
        assert got == want

    @pytest.mark.parametrize("owner", OWNERS)
    @pytest.mark.parametrize(
        "space, error, field",
        [
            ({"metric": [[0, 5, 5], [5, 0, 5], [5, 5, 1]]}, ValidationError, None),
            ({"metric": "junk"}, ParseError, "metric"),
            ({"metric": [[0, 1], [1, 0]]}, ValidationError, None),
            ({"coords": [0.0, 1.0, 2.0], "metric": METRIC3}, ParseError, "metric"),
        ],
        ids=["nonzero_diagonal", "junk", "wrong_size", "coords_and_metric"],
    )
    def test_a_given_metric_is_always_checked(self, owner, space, error, field):
        with pytest.raises(error) as exc:
            _owner_space(owner, space)
        assert type(exc.value) is error
        if field is not None:
            assert exc.value.field == field

    @pytest.mark.parametrize("owner", ["log_integral", "ldp_term"])
    @pytest.mark.parametrize("space", [[{"points": ["a", "b", "c"]}], "abc", None, 5])
    def test_a_space_that_is_not_an_object_is_a_parse_error(self, owner, space):
        with pytest.raises(ParseError) as exc:
            _owner_space(owner, space)
        assert exc.value.field == "space"


class TestFunction:
    def test_plain_round_trip(self):
        space = FiniteSpace.default(3)
        F = space.function([1.0, -2.5, 0.0])
        doc = encode_function(F)
        assert set(doc) == {"values"}
        back = decode_function(doc, space)
        assert np.array_equal(back.values, F.values)

    def test_tail_round_trip(self):
        domain = TailDomain([0.0, 1.0])
        F = domain.function([0.5, 0.25], 0.125)
        doc = encode_function(F)
        assert doc["tail_value"] == 0.125
        back = decode_function(doc, domain)
        assert back.tail_value == 0.125

    def test_tail_mismatches_rejected(self):
        with pytest.raises(ParseError) as exc:
            decode_function({"values": [0.0], "tail_value": 0.0}, FiniteSpace.default(1))
        assert exc.value.field == "tail_value"
        with pytest.raises(ParseError):
            decode_function({"values": [0.0, 0.0]}, TailDomain([0.0, 1.0]))
        with pytest.raises(ParseError):
            decode_function({}, FiniteSpace.default(1))


class TestMeasure:
    def test_dict_and_bare_list_both_decode(self):
        mu = decode_measure({"weights": [0.25, 0.75]})
        nu = decode_measure([0.25, 0.75])
        assert np.array_equal(mu.weights, nu.weights)

    def test_exact_sum_keeps_bits(self):
        w = [0.1, 0.2, 0.30000000000000004, 0.4]
        mu = decode_measure(w)
        assert mu.weights.tolist() == w

    def test_off_sum_normalizes(self):
        mu = decode_measure([1.0, 3.0])
        assert mu.weights.tolist() == [0.25, 0.75]

    def test_nan_weights_rejected(self):
        with pytest.raises(ValidationError):
            decode_measure({"weights": ["nan", 0.5]})

    def test_bool_weights_rejected(self):
        with pytest.raises(ParseError):
            decode_measure([True, False])
        with pytest.raises(ParseError):
            decode_measure([])


class TestRate:
    def test_infinities_become_strings_and_back(self):
        L0, back = decode_rate({"L0": 1.5, "rate": [0.5, "inf"], "coords": [0, 1]})
        assert L0 == 1.5
        assert back == RateFunction([0.5, np.inf], FiniteSpace.from_line([0.0, 1.0]))
        assert back.values[0] == 0.5 and math.isinf(back.values[1])
        assert np.array_equal(back.space.coords, [0.0, 1.0])

    def test_defaults_without_geometry(self):
        L0, rate = decode_rate({"rate": [0.0, 2.0]})
        assert L0 == 0.0
        assert rate.space == FiniteSpace.default(2)

    def test_points_without_coords_gives_discrete_space(self):
        L0, rate = decode_rate({"rate": [0.0, 1.0], "points": ["a", "b"]})
        assert rate.space.point_ids == ("a", "b")
        assert rate.space.coords is None

    def test_dual_report_json_is_a_valid_rate_file(self):
        report = dual_rate(sup_form(RateFunction([0.0, 2.0], FiniteSpace.default(2)), L0=0.5))
        doc = encode_dual_report(report)
        L0, rate = decode_rate(doc)
        assert L0 == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(rate.values, [0.0, 2.0], atol=1e-9)

    def test_missing_rate_key(self):
        with pytest.raises(ParseError) as exc:
            decode_rate({"L0": 0.0})
        assert exc.value.field == "rate"


class TestReports:
    def test_dual_report_key_sets(self):
        report = dual_rate(log_integral(ProbabilityMeasure([0.5, 0.5])))
        doc = encode_dual_report(report)
        assert set(doc) == {"L0", "rate", "convergence"}
        assert all(set(c) == {"depth", "increment", "divergent"} for c in doc["convergence"])
        json.loads(dumps(doc))

    def test_dual_report_csv_shape(self):
        space = FiniteSpace.default(2)
        report = dual_rate(
            sup_form(RateFunction([0.0, np.inf], space)),
            PitSchedule(tuple(2.0**k for k in range(8))),
        )
        lines = dual_report_csv(report).splitlines()
        assert lines[0] == "point,rate,depth,increment,divergent"
        assert len(lines) == 3
        assert lines[2].endswith(",true") and "inf" in lines[2]
        assert lines[1].endswith(",false")

    def test_conjugate_report_maximizer_variants(self):
        nu = ProbabilityMeasure([0.5, 0.5])
        conj = conjugate_J(log_integral(nu), ProbabilityMeasure([0.75, 0.25]))
        doc = encode_conjugate_report(conj)
        assert set(doc) == {"value", "maximizer", "iterations", "converged", "stop_reason"}
        assert doc["stop_reason"] == "stationary"
        assert len(doc["maximizer"]) == 2  # function values

        F = FiniteSpace.default(2).function([1.0, 0.0])
        rec = recover_L_from_J(kl_functional(nu), 0.0, F)
        doc2 = encode_conjugate_report(rec)
        assert abs(sum(doc2["maximizer"]) - 1.0) <= 1e-9  # measure weights

        lines = flat_csv(encode_conjugate_report(conj)).splitlines()
        assert lines[0] == "value,iterations,converged,stop_reason"
        assert lines[1].endswith(",true,stationary")

    def test_check_report_with_witness_serializes(self):
        report = check_translation(broken_translation_handle(), trials=20, seed=3)
        doc = encode_check_report(report)
        assert set(doc) == {
            "property", "trials", "violations", "worst_violation",
            "tolerance", "seed", "witness",
        }
        assert doc["witness"]["F"]["values"]  # numpy became plain lists
        json.loads(dumps(doc))
        lines = flat_csv(encode_check_report(report)).splitlines()
        assert lines[0] == "property,trials,violations,worst_violation,tolerance,seed"
        assert lines[1].startswith("translation,20,")

    def test_check_report_trajectory_only_for_sigma(self):
        L = tail_limsup()
        report = check_sigma_continuity(L, vanishing_sequence(L.space))
        doc = encode_check_report(report)
        assert "trajectory" in doc and doc["trajectory"][0] == 1.0

        plain = check_translation(L, trials=5)
        assert "trajectory" not in encode_check_report(plain)
        assert encode_check_report(plain)["witness"] is None

    def test_limit_report_emitters(self):
        seq = cramer_sequence(0.5, [2, 4, 8])
        report = estimate_limit(seq, lambda x: 0.0 * x + 1.0)
        doc = encode_limit_report(report)
        assert set(doc) == {"terms", "extrapolated", "converged", "fit_slope"}
        assert doc["terms"][0] == {"n": 2, "value": 1.0}
        lines = limit_report_csv(report).splitlines()
        assert lines[0] == "n,value"
        assert lines[-1] == f"extrapolated,{report.extrapolated!r}"

    def test_tightness_value_gap_emitters(self):
        seq = cramer_sequence(0.5, [4, 8])
        pairs = tightness_scan(seq, 0.2)
        doc = encode_tightness(0.2, pairs)
        assert doc["level"] == 0.2
        assert [d["n"] for d in doc["diameters"]] == [4, 8]
        lines = tightness_csv(pairs).splitlines()
        assert lines[0] == "n,diameter" and len(lines) == 3

        assert encode_value(math.inf) == {"value": "inf"}
        assert flat_csv(encode_value(2.0)).splitlines() == ["value", "2.0"]

        assert encode_gap(1.0, 0.75, 0.25) == {
            "functional_value": 1.0, "reconstruction": 0.75, "gap": 0.25,
        }
        assert flat_csv(encode_gap(1.0, 0.75, 0.25)).splitlines()[1] == "1.0,0.75,0.25"


class TestFunctionalDescriptors:
    def test_log_integral_descriptor(self):
        L = decode_functional({"kind": "log_integral", "measure": {"weights": [0.5, 0.5]}})
        assert L.name == "log_integral"
        assert L(L.space.function([math.log(3.0), 0.0])) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_sup_form_descriptor_with_geometry(self):
        doc = {
            "kind": "sup_form",
            "rate": [0.0, "inf"],
            "L0": 0.25,
            "coords": [0.0, 1.0],
        }
        L = decode_functional(doc)
        assert L(L.space.function([0.7, 99.0])) == pytest.approx(0.95, abs=1e-12)

    def test_ldp_term_descriptor(self):
        doc = {"kind": "ldp_term", "measure": [0.5, 0.5], "n": 64}
        L = decode_functional(doc)
        assert L.name == "ldp_term(n=64)"
        assert L(L.space.function([1.0, 0.0])) == pytest.approx(
            0.9891695753037508, abs=1e-12
        )
        with pytest.raises(ParseError) as exc:
            decode_functional({"kind": "ldp_term", "measure": [1.0], "n": True})
        assert exc.value.field == "n"

    def test_tail_limsup_descriptor(self):
        L = decode_functional({"kind": "tail_limsup"})
        assert len(L.space) == 513
        L2 = decode_functional({"kind": "tail_limsup", "grid": [0.0, 1.0, 2.0]})
        assert len(L2.space) == 3

    def test_unknown_and_missing_kinds(self):
        with pytest.raises(ParseError) as exc:
            decode_functional({"kind": "harmonic"})
        assert exc.value.field == "kind"
        with pytest.raises(ParseError):
            decode_functional({})
        with pytest.raises(ParseError) as exc:
            decode_functional({"kind": "log_integral"})
        assert exc.value.field == "measure"
        with pytest.raises(ParseError) as exc:
            decode_functional({"kind": "sup_form"})
        assert exc.value.field == "rate"

    def test_load_functional_from_disk(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(dumps({"kind": "log_integral", "measure": [0.25, 0.75]}))
        L = load_functional(path)
        assert L.base_value == pytest.approx(0.0, abs=1e-15)


class TestGridFunctionDecoding:
    def test_with_and_without_xs(self):
        g = decode_grid_function({"values": [0.0, 1.0], "xs": [0.0, 1.0]})
        assert g(0.5) == 0.5
        full = decode_grid_function({"values": [0.0] * 1025})
        assert full(0.3) == 0.0

    def test_missing_values(self):
        with pytest.raises(ParseError):
            decode_grid_function({"xs": [0.0, 1.0]})


class TestReadJson:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_json(tmp_path / "ghost.json")

    def test_syntax_error_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n}trailing\n")
        with pytest.raises(ParseError) as exc:
            read_json(path)
        assert exc.value.line == 2

    def test_inputs_past_the_parser_limits(self, tmp_path):
        path = tmp_path / "big.json"
        for text in ('{"values": [' + "9" * 5000 + "]}", "[" * 100000):
            path.write_text(text)
            with pytest.raises(ParseError, match="invalid JSON"):
                read_json(path)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(ParseError):
            read_json(path)


class TestListFields:
    """Every list field goes through one reader: arrays of numbers only."""

    @pytest.mark.parametrize("bad", [5, "123", None, {"0": 1.0}, True])
    def test_non_array_values_refused(self, bad):
        space = FiniteSpace.default(3)
        with pytest.raises(ParseError) as exc:
            decode_function({"values": bad}, space)
        assert exc.value.field == "values"

    @pytest.mark.parametrize("entry", ["x", [1.0], 10**400], ids=["string", "array", "huge_int"])
    def test_bad_entries_refused(self, entry):
        with pytest.raises(ParseError) as exc:
            decode_measure({"weights": [0.5, entry]})
        assert exc.value.field == "weights"

    def test_inf_strings_kept(self):
        L0, rate = decode_rate({"rate": [0.0, "inf", "+Infinity", " INF ", "infinity"], "L0": "0.5"})
        assert L0 == 0.5 and list(rate.values[1:]) == [math.inf] * 4
        # read as the number -inf, which a rate refuses for its sign, not for its spelling
        with pytest.raises(ValidationError, match=r"rate entries must be in \[0, inf\]"):
            decode_rate({"rate": [0.0, "-Infinity"], "L0": 0.0})

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"points": "abc"}, "points"),
            ({"points": 5}, "points"),
            ({"points": ["a", "b"], "coords": 5}, "coords"),
            ({"points": ["a", "b"], "coords": [0.0, False]}, "coords"),
            ({"points": ["a", "b"], "metric": "abc"}, "metric"),
            ({"points": ["a", "b"], "metric": [[0, "x"], [1, 0]]}, "metric"),
            ({"points": ["a", "b"], "metric": [[0, 1], 1]}, "metric"),
            ({"points": ["a", "b"], "metric": [[False, True], [True, False]]}, "metric"),
            ({"metric": "junk"}, "metric"),
        ],
    )
    def test_space_fields(self, doc, field):
        with pytest.raises(ParseError) as exc:
            decode_space(doc)
        assert exc.value.field == field
        with pytest.raises(ParseError) as exc:
            decode_rate(dict(doc, rate=[0.0, 1.0]))
        assert exc.value.field == field

    def test_rate_space_is_decode_space(self):
        geometry = {"points": ["a", "b"], "metric": [[0, 2], [2, 0]]}
        _, rate = decode_rate(dict(geometry, rate=[0.0, 1.0]))
        assert rate.space == decode_space(geometry)
        _, rate = decode_rate({"rate": [0.0, 1.0], "coords": [0.0, 0.5]})
        assert rate.space == FiniteSpace.from_line([0.0, 0.5])

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"kind": "sup_form", "rate": 5}, "rate"),
            ({"kind": "sup_form", "rate": [0.0, 1.0], "points": 5}, "points"),
            ({"kind": "tail_limsup", "grid": 5}, "grid"),
            ({"kind": "tail_limsup", "grid": "012"}, "grid"),
            ({"kind": "log_integral", "measure": {"weights": "0.5"}}, "weights"),
        ],
    )
    def test_descriptor_fields(self, doc, field):
        with pytest.raises(ParseError) as exc:
            decode_functional(doc)
        assert exc.value.field == field

    def test_grid_function_xs(self):
        for bad in (5, "01", [0.0, True]):
            with pytest.raises(ParseError) as exc:
                decode_grid_function({"values": [0.0, 1.0], "xs": bad})
            assert exc.value.field == "xs"


class TestFlatCsv:
    def test_scalar_fields_in_key_order(self):
        doc = {"b": 1, "a": [1.0], "c": None, "d": {"x": 1}, "e": "inf", "f": True, "g": 0.1}
        assert flat_csv(doc) == "b,e,f,g\n1,inf,true,0.1\n"

    def test_non_finite_values(self):
        assert flat_csv(encode_value(-math.inf)) == "value\n-inf\n"
        assert flat_csv(encode_value(math.nan)) == "value\nnan\n"

import json
import logging
import math
import re
import subprocess
import sys

import pytest
from conftest import HALF_MEANS, HUGE_IDS, HUGE_NS

from vflab import ProbabilityMeasure, ingest_sequence, ldp_lab, ldp_term, log_integral, make_measure
from vflab.cli import run
from vflab.errors import AllZero, NegativeWeight, ValidationError
from vflab.serialize import decode_measure, dumps

LOG_HALF_1PE = 0.6201145069582775
UNIFORM2 = {"kind": "log_integral", "measure": {"weights": [0.5, 0.5]}}
SUP3 = {"kind": "sup_form", "rate": [0.0, 1.0, "inf"], "L0": 0.5}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_json_to_stdout(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        g = write(tmp_path, "F.json", {"values": [math.log(3.0), 0.0]})
        code, out, err = run_cli(capsys, "eval", "--functional", f, "--f", g)
        assert code == 0 and err == ""
        assert json.loads(out)["value"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_csv_format(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        g = write(tmp_path, "F.json", {"values": [0.0, 0.0]})
        code, out, _ = run_cli(capsys, "eval", "--functional", f, "--f", g, "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["value", "0.0"]

    def test_output_file(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        g = write(tmp_path, "F.json", {"values": [1.0, 1.0]})
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "eval", "--functional", f, "--f", g, "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["value"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, where):
        f = write(tmp_path, "L.json", UNIFORM2)
        g = write(tmp_path, "F.json", {"values": [1.0, 1.0]})
        target = str(tmp_path / "no" / "such" / "x.json") if where == "missing_dir" else str(tmp_path)
        code, out, err = run_cli(capsys, "eval", "--functional", f, "--f", g, "--output", target)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f'vflab: error kind=usage detail="cannot write {target}: ')


    def test_weights_past_the_float_range_are_normalized(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", {"kind": "log_integral", "measure": [1e308, 1e308]})
        g = write(tmp_path, "F.json", {"values": [1.0, 0.0]})
        code, out, err = run_cli(capsys, "eval", "--functional", f, "--f", g)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == pytest.approx(LOG_HALF_1PE, abs=1e-12)


class TestDualAndReconstruct:
    def test_dual_csv_labels_from_unsorted_coords(self, tmp_path, capsys):
        # a rate file without points: the labels are the coordinates' reprs, built for the report
        f = write(tmp_path, "S.json", {"kind": "sup_form", "rate": [0.5, 0.0, 1.0], "coords": [2.0, -1.0, -0.0]})
        code, out, err = run_cli(capsys, "dual", "--functional", f, "--format", "csv")
        assert (code, err) == (0, "")
        assert [row.split(",")[0] for row in out.splitlines()] == ["point", "2.0", "-1.0", "-0.0"]

    def test_dual_report_shape(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", SUP3)
        code, out, _ = run_cli(capsys, "dual", "--functional", f)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"L0", "rate", "convergence"}
        assert doc["L0"] == pytest.approx(0.5, abs=1e-12)
        assert doc["rate"][2] == "inf"
        assert doc["convergence"][2]["divergent"] is True
        assert not doc["convergence"][0]["divergent"]

    def test_reconstruct_from_dual_output(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", SUP3)
        g = write(tmp_path, "F.json", {"values": [0.25, 1.4, 9.0]})
        code, dual_out, _ = run_cli(capsys, "dual", "--functional", f)
        assert code == 0
        rate_file = tmp_path / "rate.json"
        rate_file.write_text(dual_out)

        code, recon_out, _ = run_cli(capsys, "reconstruct", "--rate", str(rate_file), "--f", g)
        assert code == 0
        code, eval_out, _ = run_cli(capsys, "eval", "--functional", f, "--f", g)
        assert code == 0
        assert json.loads(recon_out)["value"] == pytest.approx(
            json.loads(eval_out)["value"], abs=1e-9
        )

    def test_gap_oracle(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        g = write(tmp_path, "F.json", {"values": [1.0, 0.0]})
        code, out, _ = run_cli(capsys, "gap", "--functional", f, "--f", g)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"functional_value", "reconstruction", "gap"}
        assert doc["gap"] == pytest.approx(0.3132616875182228, abs=1e-9)


class TestAscentCommands:
    def test_ldp_term_past_the_float_range_stays_finite(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", {"kind": "ldp_term", "measure": [0.25, 0.25, 0.5], "n": 4})
        g = write(tmp_path, "F.json", {"values": [1e308, 0, 1]})
        code, out, err = run_cli(capsys, "eval", "--functional", f, "--f", g)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == 1e308

    def test_recover_on_a_measure_with_a_zero_weight(self, tmp_path, capsys):
        m = write(tmp_path, "nu.json", [0.5, 0.5, 0])
        g = write(tmp_path, "F.json", {"values": [1, 0, 2]})
        code, out, err = run_cli(capsys, "recover", "--measure", m, "--f", g)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(LOG_HALF_1PE, abs=1e-12)
        assert doc["converged"] is True and doc["maximizer"][2] == 0.0

    def test_conjugate_matches_kl(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        m = write(tmp_path, "mu.json", {"weights": [0.75, 0.25]})
        code, out, _ = run_cli(capsys, "conjugate", "--functional", f, "--measure", m)
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["value"] == pytest.approx(0.13081203594113697, abs=1e-8)

    def test_conjugate_nonconvergence_exits_3(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", {"kind": "log_integral", "measure": [1.0, 0.0]})
        m = write(tmp_path, "mu.json", {"weights": [0.5, 0.5]})
        code, out, _ = run_cli(capsys, "conjugate", "--functional", f, "--measure", m)
        assert code == 3
        doc = json.loads(out)
        assert doc["value"] == "inf" and doc["converged"] is False
        assert doc["stop_reason"] == "value_cap"

    def test_recover_oracle_and_fd_flag(self, tmp_path, capsys):
        m = write(tmp_path, "nu.json", {"weights": [0.5, 0.5]})
        g = write(tmp_path, "F.json", {"values": [1.0, 0.0]})
        code, out, _ = run_cli(capsys, "recover", "--measure", m, "--f", g)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(LOG_HALF_1PE, abs=1e-8)

        # the CLI takes the exact gradient where there is one; finite differences cannot be forced
        code, out, err = run_cli(capsys, "recover", "--measure", m, "--f", g, "--no-exact-gradient")
        assert (code, out) == (2, "")
        assert err == 'vflab: error kind=usage detail="unrecognized arguments: --no-exact-gradient"\n'

    def test_csv_row(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        m = write(tmp_path, "mu.json", {"weights": [0.5, 0.5]})
        code, out, _ = run_cli(
            capsys, "conjugate", "--functional", f, "--measure", m, "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        # stop_reason trails, so the first three columns keep their places
        assert lines[0] == "value,iterations,converged,stop_reason"
        assert lines[1].endswith(",true,stationary")


class TestCheck:
    def test_pass_exits_0(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        code, out, _ = run_cli(
            capsys, "check", "--functional", f, "--property", "monotone", "--trials", "200"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0 and doc["witness"] is None

    def test_violations_exit_1(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        code, out, _ = run_cli(
            capsys, "check", "--functional", f, "--property", "maximal", "--trials", "100"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["violations"] > 0
        assert doc["witness"]["F"]["values"]

    def test_zero_tol_is_valid(self, tmp_path, capsys):
        f = write(tmp_path, "S.json", {"kind": "sup_form", "rate": [0.0, 1.0]})
        code, out, err = run_cli(
            capsys, "check", "--functional", f, "--property", "monotone", "--trials", "20", "--tol", "0"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["tolerance"] == 0.0

    def test_sigma_paths(self, tmp_path, capsys):
        tail = write(tmp_path, "T.json", {"kind": "tail_limsup"})
        code, out, _ = run_cli(capsys, "check", "--functional", tail, "--property", "sigma")
        assert code == 1
        assert all(v == 1.0 for v in json.loads(out)["trajectory"])

        li = write(tmp_path, "L.json", UNIFORM2)
        code, out, _ = run_cli(capsys, "check", "--functional", li, "--property", "sigma")
        assert code == 0

    def test_unknown_property_is_usage_error(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        code, out, err = run_cli(capsys, "check", "--functional", f, "--property", "urelement")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith('vflab: error kind=usage detail=')
        assert "sigma" in err and "monotone" in err


    def test_property_help_lists_every_check(self, capsys):
        from vflab.axioms import CHECKS

        with pytest.raises(SystemExit):
            run(["check", "--help"])
        words = capsys.readouterr().out.replace(",", " ").split()
        assert all(name in words for name in [*CHECKS, "sigma"])


class TestCramerAndTightness:
    def test_linear_limit_converges(self, tmp_path, capsys):
        from vflab.ldp_lab import REFERENCE_GRID

        g = write(tmp_path, "lin.json", {"values": [float(x) for x in REFERENCE_GRID]})
        code, out, _ = run_cli(
            capsys, "cramer", "--p", "0.5", "--schedule", "16,64,256", "--f", g
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["extrapolated"] == pytest.approx(LOG_HALF_1PE, abs=1e-8)
        assert [t["n"] for t in doc["terms"]] == [16, 64, 256]

    def test_limit_csv_footer(self, tmp_path, capsys):
        g = write(tmp_path, "c.json", {"values": [0.25, 0.25], "xs": [0.0, 1.0]})
        code, out, _ = run_cli(
            capsys, "cramer", "--p", "0.5", "--schedule", "4,8,16", "--f", g, "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert lines[-1].startswith("extrapolated,")

    def test_unsettled_limit_exits_3(self, tmp_path, capsys):
        import numpy as np

        from vflab.ldp_lab import REFERENCE_GRID

        bump = 0.5 * np.exp(-((REFERENCE_GRID - 0.4) ** 2) / (2 * 0.05**2))
        g = write(tmp_path, "bump.json", {"values": [float(v) for v in bump]})
        code, out, _ = run_cli(
            capsys, "cramer", "--p", "0.5", "--schedule", "1,2,3", "--f", g
        )
        assert code == 3
        assert json.loads(out)["converged"] is False

    def test_bad_schedule_token(self, tmp_path, capsys):
        g = write(tmp_path, "c.json", {"values": [0.0, 0.0], "xs": [0.0, 1.0]})
        code, _, err = run_cli(capsys, "cramer", "--p", "0.5", "--schedule", "2,x", "--f", g)
        assert code == 2
        assert "kind=usage" in err

    def test_tightness_from_p(self, capsys):
        code, out, _ = run_cli(
            capsys, "tightness", "--p", "0.5", "--schedule", "4,16,64", "--level", "0.2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["level"] == 0.2
        assert [d["n"] for d in doc["diameters"]] == [4, 16, 64]

    def test_tightness_from_file(self, tmp_path, capsys):
        seq_file = write(tmp_path, "seq.json", HALF_MEANS)
        code, out, _ = run_cli(
            capsys, "tightness", "--measure", seq_file, "--level", "1.0", "--format", "csv"
        )
        assert code == 0
        # every atom's rate, log(2) at most, is within the level
        assert out.splitlines() == ["n,diameter", "1,1.0", "2,1.0", "4,1.0"]

    def test_tightness_refuses_an_entry_whose_sum_overflows(self, tmp_path, capsys):
        doc = {"description": "big", "entries": [{"n": 1, "points": [0.0, 1.0], "weights": [1e308, 1e308]}]}
        code, out, err = run_cli(capsys, "tightness", "--measure", write(tmp_path, "seq.json", doc), "--level", "1.0")
        assert (code, out) == (2, "")
        assert err == 'vflab: error kind=InvariantViolation detail="entries[0]: weights sum to inf, outside the 1e-06 ingest tolerance"\n'

    def test_tightness_needs_a_source(self, capsys):
        code, _, err = run_cli(capsys, "tightness", "--level", "0.5")
        assert code == 2
        assert "kind=usage" in err

    @pytest.mark.parametrize("extra", [["--p", "0.5"], ["--schedule", "4,16"]], ids=["p", "schedule"])
    def test_tightness_refuses_flags_it_would_ignore(self, tmp_path, capsys, extra):
        seq_file = write(tmp_path, "seq.json", HALF_MEANS)
        code, out, err = run_cli(capsys, "tightness", "--measure", seq_file, "--level", "1.0", *extra)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f'vflab: error kind=usage detail="argument {extra[0]}: not allowed with argument --')

    def test_overflowing_exponent_writes_no_warning(self, tmp_path, capsys):
        from vflab.ldp_lab import REFERENCE_GRID

        g = write(tmp_path, "G.json", {"values": [1e306 * float(x) for x in REFERENCE_GRID]})
        code, out, err = run_cli(capsys, "cramer", "--p", "0.3", "--f", g)
        assert err == ""
        doc = json.loads(out)
        assert [t["value"] for t in doc["terms"]] == [1e306] * 5
        assert math.isfinite(doc["extrapolated"])
        # the fit residual is absolute, so a limit this large never settles
        assert code == 3


class TestErrorRecords:
    def test_missing_input_file(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--functional", "/no/such.json", "--f", "/no/F.json")
        assert code == 2 and out == ""
        assert err.startswith('vflab: error kind=usage detail="input file not found')

    def test_parse_error_kind(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        g = write(tmp_path, "F.json", {"values": [0.0, 0.0]})
        code, _, err = run_cli(capsys, "eval", "--functional", str(bad), "--f", g)
        assert code == 2
        assert err.startswith("vflab: error kind=ParseError detail=")

    def test_domain_error_kind(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", {"kind": "sup_form", "rate": ["inf", "inf"]})
        code, _, err = run_cli(capsys, "dual", "--functional", f)
        assert code == 2
        assert err.startswith("vflab: error kind=AllInfiniteRate detail=")

    def test_nan_weights_rejected(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", {"kind": "log_integral", "measure": {"weights": ["nan", 0.5]}})
        g = write(tmp_path, "F.json", {"values": [0.0, 0.0]})
        code, out, err = run_cli(capsys, "eval", "--functional", f, "--f", g)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("vflab: error kind=ValidationError detail=")

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--functional", "{L}", "--property", "maximal", "--seed", "-5"),
            ("check", "--functional", "{L}", "--property", "maximal", "--tol", "nan"),
            ("check", "--functional", "{L}", "--property", "sigma", "--tol", "nan"),
            ("tightness", "--p", "0.5", "--level", "nan"),
            ("conjugate", "--functional", "{L}", "--measure", "{mu}", "--tol", "inf"),
            ("eval", "--functional", "{S_nan}", "--f", "{F}"),
            ("eval", "--functional", "{S_inf}", "--f", "{F}"),
            ("reconstruct", "--rate", "{rate_nan}", "--f", "{F}"),
            ("reconstruct", "--rate", "{rate_inf}", "--f", "{F}"),
            ("check", "--functional", "{S_nan}", "--property", "monotone"),
            ("gap", "--functional", "{S_inf}", "--f", "{F}"),
            ("dual", "--functional", "{T_empty}"),
            ("eval", "--functional", "{D_huge}", "--f", "{F}"),
            ("conjugate", "--functional", "{D_huge}", "--measure", "{mu}"),
            ("conjugate", "--functional", "{L}", "--measure", "{mu}", "--tol", "-1"),
            ("recover", "--measure", "{mu}", "--f", "{F2}", "--tol", "0"),
            ("conjugate", "--functional", "{T}", "--measure", "{mu3}"),
            ("check", "--functional", "{S01}", "--property", "monotone", "--trials", "20", "--tol", "-1"),
        ],
        ids=[
            "negative_seed", "nan_tol", "sigma_nan_tol", "nan_level", "inf_ascent_tol",
            "eval_nan_L0", "eval_inf_L0", "reconstruct_nan_L0", "reconstruct_inf_L0",
            "check_nan_L0", "gap_inf_L0", "empty_tail_grid", "eval_huge_n", "conjugate_huge_n",
            "conjugate_negative_tol", "recover_zero_tol", "conjugate_tail_domain",
            "check_negative_tol",
        ],
    )
    def test_non_finite_or_negative_inputs_exit_2(self, tmp_path, capsys, argv):
        files = {
            "L": write(tmp_path, "L.json", UNIFORM2),
            "mu": write(tmp_path, "mu.json", {"weights": [0.25, 0.75]}),
            "F": write(tmp_path, "F.json", {"values": [0.0, 0.5, 1.0]}),
            "F2": write(tmp_path, "F2.json", {"values": [0.0, 1.0]}),
            "mu3": write(tmp_path, "mu3.json", {"weights": [0.25, 0.25, 0.5]}),
            "T": write(tmp_path, "T.json", {"kind": "tail_limsup", "grid": [0, 1, 2]}),
            "S01": write(tmp_path, "S01.json", {"kind": "sup_form", "rate": [0.0, 1.0]}),
            "S_nan": write(tmp_path, "S_nan.json", dict(SUP3, L0="nan")),
            "S_inf": write(tmp_path, "S_inf.json", dict(SUP3, L0="inf")),
            "rate_nan": write(tmp_path, "rate_nan.json", {"L0": "nan", "rate": [0.0, 1.0, "inf"]}),
            "rate_inf": write(tmp_path, "rate_inf.json", {"L0": "inf", "rate": [0.0, 1.0, "inf"]}),
            "T_empty": write(tmp_path, "T_empty.json", {"kind": "tail_limsup", "grid": []}),
            "D_huge": write(tmp_path, "D_huge.json", {"kind": "ldp_term", "measure": [0.5, 0.5], "n": 10**400}),
        }
        code, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("vflab: error kind=ValidationError detail=")

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--functional", "{L}", "--f", "{f_scalar}"),
            ("reconstruct", "--rate", "{rate}", "--f", "{f_scalar}"),
            ("recover", "--measure", "{mu}", "--f", "{f_scalar}"),
            ("dual", "--functional", "{S_rate_scalar}"),
            ("dual", "--functional", "{S_points_scalar}"),
            ("dual", "--functional", "{T_grid_scalar}"),
            ("cramer", "--p", "0.5", "--schedule", "16,32,64", "--f", "{grid_xs_scalar}"),
            ("reconstruct", "--rate", "{rate_metric_str}", "--f", "{F}"),
            ("reconstruct", "--rate", "{rate_metric_row}", "--f", "{F2}"),
            ("eval", "--functional", "{S_points_str}", "--f", "{f_str}"),
            ("tightness", "--measure", "{seq_split}", "--level", "0.2"),
            ("dual", "--functional", "{L}", "--schedule", ""),
            ("gap", "--functional", "{L}", "--f", "{F}", "--schedule", ""),
            ("cramer", "--p", "0.5", "--schedule", "", "--f", "{grid}"),
            ("tightness", "--p", "0.5", "--schedule", "", "--level", "0.2"),
        ],
        ids=[
            "eval_values_scalar", "reconstruct_values_scalar", "recover_values_scalar",
            "rate_scalar", "points_scalar", "grid_scalar", "xs_scalar", "metric_string",
            "metric_row_string", "string_values_on_string_points", "csv_split_group",
            "dual_empty_schedule", "gap_empty_schedule", "cramer_empty_schedule",
            "tightness_empty_schedule",
        ],
    )
    def test_malformed_inputs_exit_2(self, tmp_path, capsys, argv):
        files = {
            "L": write(tmp_path, "L.json", {"kind": "log_integral", "measure": [0.2, 0.3, 0.5]}),
            "mu": write(tmp_path, "mu.json", {"weights": [0.2, 0.3, 0.5]}),
            "F": write(tmp_path, "F.json", {"values": [0.0, 0.5, 1.0]}),
            "F2": write(tmp_path, "F2.json", {"values": [0.0, 0.5]}),
            "rate": write(tmp_path, "rate.json", {"L0": 0.0, "rate": [0.0, 1.0, 2.0]}),
            "f_scalar": write(tmp_path, "f_scalar.json", {"values": 5}),
            "f_str": write(tmp_path, "f_str.json", {"values": "123"}),
            "S_rate_scalar": write(tmp_path, "S1.json", {"kind": "sup_form", "rate": 5}),
            "S_points_scalar": write(tmp_path, "S2.json", {"kind": "sup_form", "rate": [0, 1], "points": 5}),
            "S_points_str": write(tmp_path, "S3.json", {"kind": "sup_form", "rate": [0, 1, 2], "points": "abc"}),
            "T_grid_scalar": write(tmp_path, "T.json", {"kind": "tail_limsup", "grid": 5}),
            "grid_xs_scalar": write(tmp_path, "grid.json", {"values": [0.0, 1.0], "xs": 5}),
            "grid": write(tmp_path, "grid_ok.json", {"values": [0.0, 1.0], "xs": [0.0, 1.0]}),
            "rate_metric_str": write(tmp_path, "r1.json", {"rate": [0, 1, 2], "points": ["a", "b", "c"], "metric": "abc"}),
            "rate_metric_row": write(tmp_path, "r2.json", {"rate": [0, 1], "points": ["a", "b"], "metric": [[0, "x"], [1, 0]]}),
        }
        split = tmp_path / "split.csv"
        split.write_text("n,point,weight\n1,0,.5\n2,0,.5\n2,1,.5\n1,1,.5\n")
        files["seq_split"] = str(split)
        code, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("vflab: error kind=")

    @pytest.mark.parametrize("entry", ['a"b', "a\\b"])
    def test_detail_escapes_quotes_and_backslashes(self, tmp_path, capsys, entry):
        f = write(tmp_path, "L.json", {"kind": "log_integral", "measure": [0.2, 0.3, 0.5]})
        g = write(tmp_path, "F.json", {"values": [entry, 0, 1]})
        code, out, err = run_cli(capsys, "eval", "--functional", f, "--f", g)
        assert code == 2 and out == "" and err.count("\n") == 1
        record = re.fullmatch(r'vflab: error kind=ParseError detail="((?:[^"\\]|\\.)*)"\n', err)
        assert record is not None, err
        detail = re.sub(r"\\(.)", r"\1", record.group(1))
        assert detail == f"values: expected a number, got {entry!r} (field 'values')"

    @pytest.mark.parametrize(
        "argv, removed",
        [
            (("dual", "--functional", "{L}"), ("--cmax", "6")),
            (("gap", "--functional", "{L}", "--f", "{F}"), ("--cmax", "6")),
            (("conjugate", "--functional", "{L}", "--measure", "{mu}"), ("--no-exact-gradient",)),
            (("recover", "--measure", "{mu}", "--f", "{F}"), ("--exact-gradient",)),
        ],
        ids=["dual_cmax", "gap_cmax", "conjugate_gradient_switch", "recover_gradient_switch"],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, argv, removed):
        files = {
            "L": write(tmp_path, "L.json", UNIFORM2),
            "F": write(tmp_path, "F.json", {"values": [1.0, 0.0]}),
            "mu": write(tmp_path, "mu.json", [0.5, 0.5]),
        }
        code, out, err = run_cli(capsys, *(a.format(**files) for a in argv), *removed)
        assert (code, out) == (2, "")
        assert err == f'vflab: error kind=usage detail="unrecognized arguments: {" ".join(removed)}"\n'

    def test_schedule_too_large_to_allocate(self, tmp_path, capsys, monkeypatch):
        # stands in for numpy's MemoryError subclass, so nothing is allocated
        def refuse(n):
            raise MemoryError(f"Unable to allocate {8 * (n + 1)} bytes for an array with shape ({n + 1},)")

        monkeypatch.setattr(ldp_lab, "_log_factorials", refuse)
        g = write(tmp_path, "grid.json", {"values": [0.0, 1.0], "xs": [0.0, 1.0]})
        detail = "Unable to allocate 16000000008 bytes for an array with shape (2000000001,)"
        for argv in (
            ("cramer", "--p", "0.5", "--schedule", "1,2,2000000000", "--f", g),
            ("tightness", "--p", "0.5", "--schedule", "1,2,2000000000", "--level", "0.1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f'vflab: error kind=MemoryError detail="{detail}"\n'

    @pytest.mark.parametrize("n", HUGE_NS, ids=HUGE_IDS)
    def test_schedule_past_the_largest_array(self, tmp_path, capsys, n):
        g = write(tmp_path, "grid.json", {"values": [0.0, 1.0], "xs": [0.0, 1.0]})
        detail = f"n = {n} is too large: n + 1 floats exceed numpy's largest array"
        for argv in (
            ("cramer", "--p", "0.3", "--schedule", f"1,2,{n}", "--f", g),
            ("tightness", "--p", "0.3", "--schedule", f"1,2,{n}", "--level", "0.1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f'vflab: error kind=MemoryError detail="{detail}"\n'

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--f", "x.json")
        assert code == 2
        assert err.startswith('vflab: error kind=usage')


class TestDeterminismAndLogging:
    def test_same_argv_same_bytes(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        _, first, _ = run_cli(capsys, "dual", "--functional", f)
        _, second, _ = run_cli(capsys, "dual", "--functional", f)
        assert first == second

    def test_check_same_seed_same_bytes(self, tmp_path, capsys):
        f = write(tmp_path, "L.json", UNIFORM2)
        argv = ("check", "--functional", f, "--property", "maximal", "--trials", "60")
        code1, first, _ = run_cli(capsys, *argv)
        code2, second, _ = run_cli(capsys, *argv)
        assert (code1, first) == (code2, second)

    def test_vf_log_traces_leave_stdout_alone(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "L.json", UNIFORM2)
        g = write(tmp_path, "F.json", {"values": [1.0, 0.0]})
        _, quiet_out, quiet_err = run_cli(capsys, "eval", "--functional", f, "--f", g)
        assert quiet_err == ""

        monkeypatch.setenv("VF_LOG", "debug")
        logger = logging.getLogger("vflab")
        try:
            _, loud_out, loud_err = run_cli(capsys, "eval", "--functional", f, "--f", g)
            assert loud_out == quiet_out
            assert "vflab" in loud_err and "eval" in loud_err
        finally:
            for h in list(logger.handlers):
                logger.removeHandler(h)
            logger.setLevel(logging.NOTSET)


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vflab", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "eval" in proc.stdout and "tightness" in proc.stdout

    def test_gap_with_infinite_l0_writes_one_line(self, tmp_path):
        # a fresh process shows what pytest's warning capture would hide
        f = write(tmp_path, "S.json", dict(SUP3, L0="inf"))
        g = write(tmp_path, "F.json", {"values": [0.0, 0.5, 1.0]})
        argv = [sys.executable, "-m", "vflab", "gap", "--functional", f, "--f", g]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("vflab: error kind=ValidationError detail=")

    def test_module_subprocess_twice_identical(self, tmp_path):
        f = write(tmp_path, "L.json", SUP3)
        argv = [sys.executable, "-m", "vflab", "dual", "--functional", f]
        a = subprocess.run(argv, capture_output=True)
        b = subprocess.run(argv, capture_output=True)
        assert a.returncode == 0
        assert a.stdout == b.stdout


def _non_finite_fields(doc, path=""):
    """(path, value) for every field of a report that is not a finite number."""
    if isinstance(doc, dict):
        return [f for k, v in doc.items() for f in _non_finite_fields(v, f"{path}.{k}")]
    if isinstance(doc, list):
        return [f for i, v in enumerate(doc) for f in _non_finite_fields(v, f"{path}[{i}]")]
    if isinstance(doc, float) and not math.isfinite(doc) or doc in ("inf", "-inf", "nan"):
        return [(path, doc)]
    return []


def _documented_inf(doc, path, value) -> bool:
    # a rate excludes a point with "inf"; a conjugate stopped at value_cap is J(mu) = inf
    if value != "inf":
        return False
    return bool(re.fullmatch(r"\.rate\[\d+\]", path)) or (
        path == ".value" and doc.get("stop_reason") == "value_cap"
    )


def _refuse_constant(token):
    raise ValueError(f"bare {token} in a JSON report")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--functional", "{S}", "--f", "{F3}"),
        ("eval", "--functional", "{T}", "--f", "{Ftail}"),
        ("dual", "--functional", "{S}"),
        ("dual", "--functional", "{L}"),
        ("dual", "--functional", "{T}"),
        ("reconstruct", "--rate", "{rate}", "--f", "{F3}"),
        ("gap", "--functional", "{L}", "--f", "{F2}"),
        ("gap", "--functional", "{S}", "--f", "{F3}"),
        ("conjugate", "--functional", "{L}", "--measure", "{mu2}"),
        ("conjugate", "--functional", "{L_zero}", "--measure", "{mu2}"),
        ("recover", "--measure", "{mu2}", "--f", "{F2}"),
        ("check", "--functional", "{L}", "--property", "maximal", "--trials", "50"),
        ("check", "--functional", "{S}", "--property", "monotone", "--trials", "50"),
        ("check", "--functional", "{T}", "--property", "sigma"),
        ("cramer", "--p", "0.3", "--schedule", "16,64,256", "--f", "{grid}"),
        ("tightness", "--p", "0.3", "--level", "0.1"),
        ("tightness", "--p", "0.3", "--level", "1e-9"),
    ],
    ids=[
        "eval", "eval_tail", "dual_sup", "dual_log", "dual_tail", "reconstruct", "gap_log",
        "gap_sup", "conjugate", "conjugate_zero_weight", "recover", "check_witness", "check_pass",
        "check_sigma", "cramer", "tightness", "tightness_empty_levels",
    ],
)
def test_every_report_field_is_finite(tmp_path, capsys, argv):
    files = {
        "L": write(tmp_path, "L.json", UNIFORM2),
        "L_zero": write(tmp_path, "Lz.json", {"kind": "log_integral", "measure": [0.0, 1.0]}),
        "S": write(tmp_path, "S.json", SUP3),
        "T": write(tmp_path, "T.json", {"kind": "tail_limsup", "grid": [0.0, 1.0, 2.0]}),
        "F2": write(tmp_path, "F2.json", {"values": [0.3, -1.0]}),
        "F3": write(tmp_path, "F3.json", {"values": [0.3, -1.0, 2.0]}),
        "Ftail": write(tmp_path, "Ft.json", {"values": [0.3, -1.0, 2.0], "tail_value": 0.5}),
        "rate": write(tmp_path, "rate.json", {"L0": 0.5, "rate": [0.0, 1.0, "inf"], "coords": [0.0, 0.5, 1.0]}),
        "mu2": write(tmp_path, "mu2.json", {"weights": [0.4, 0.6]}),
        "grid": write(tmp_path, "grid.json", {"values": [0.0, 1.0], "xs": [0.0, 1.0]}),
    }
    code, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
    assert code in (0, 1, 3) and err == ""
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert [f for f in _non_finite_fields(doc) if not _documented_inf(doc, *f)] == []


# one weight fault, its one error on every path a weight vector enters by
WEIGHT_FAULTS = {
    "negative": ([-1.0, 2.0], NegativeWeight, "weights must be nonnegative"),
    "nan": ([math.nan, 0.5], ValidationError, "weights must be finite"),
    "inf": ([math.inf, 0.5], ValidationError, "weights must be finite"),
    "all_zero": ([0.0, 0.0], AllZero, "weights must carry positive mass"),
}


def _json_weights(weights):
    return [w if math.isfinite(w) else str(w) for w in weights]


def _sequence_file(tmp_path, weights) -> str:
    entry = {"n": 1, "points": [0.0, 1.0], "weights": _json_weights(weights)}
    return write(tmp_path, "seq.json", {"description": "d", "entries": [entry]})


WEIGHT_PATHS = {
    "ProbabilityMeasure": lambda w, tmp_path: ProbabilityMeasure(w),
    "make_measure": lambda w, tmp_path: make_measure(w),
    "log_integral_raw": lambda w, tmp_path: log_integral(w),
    "ldp_term_raw": lambda w, tmp_path: ldp_term(w, 2),
    "decode_measure": lambda w, tmp_path: decode_measure(_json_weights(w)),
    "sequence_file": lambda w, tmp_path: ingest_sequence(_sequence_file(tmp_path, w)),
}


@pytest.mark.parametrize("path", list(WEIGHT_PATHS))
@pytest.mark.parametrize("fault", list(WEIGHT_FAULTS))
def test_one_weight_fault_one_error_on_every_path(tmp_path, fault, path):
    weights, error, message = WEIGHT_FAULTS[fault]
    with pytest.raises(error, match=f"^{message}$") as exc:
        WEIGHT_PATHS[path](weights, tmp_path)
    assert type(exc.value) is error


@pytest.mark.parametrize("command", ["eval", "tightness"])
@pytest.mark.parametrize("fault", list(WEIGHT_FAULTS))
def test_one_weight_fault_one_error_record(tmp_path, capsys, fault, command):
    weights, error, message = WEIGHT_FAULTS[fault]
    if command == "eval":
        f = write(tmp_path, "L.json", {"kind": "log_integral", "measure": {"weights": _json_weights(weights)}})
        argv = ["eval", "--functional", f, "--f", write(tmp_path, "F.json", {"values": [0.0, 0.0]})]
    else:
        argv = ["tightness", "--measure", _sequence_file(tmp_path, weights), "--level", "0.1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f'vflab: error kind={error.__name__} detail="{message}"\n'

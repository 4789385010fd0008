import json
import math
import shutil
from dataclasses import asdict

import pytest

from neumann_lab import graphs, models, semigroup
from neumann_lab.birth_death import convergent, divergent
from neumann_lab.cli import EXPERIMENTS, main, parse_certificates, parse_truncations
from neumann_lab.models import reference_indices
from neumann_lab.errors import InputError

import report_configs


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not valid JSON")


def load_report(text):
    """Parse a report strictly: NaN and Infinity fail the test."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (load_report(out) if out.strip() else None)


class TestParsing:
    def test_truncation_ranges(self):
        assert parse_truncations("10:30:10") == [10, 20, 30]
        assert parse_truncations("2:4") == [2, 3, 4]
        assert parse_truncations("5,9,14") == [5, 9, 14]

    def test_bad_truncations(self):
        for bad in ("", "5:1", "a:b", "1:10:0"):
            with pytest.raises(InputError):
                parse_truncations(bad)

    def test_certificates(self):
        certs = parse_certificates("inv_b=divergent:harmonic,measure=infinite")
        assert certs["inv_b"].verdict == "divergent"
        assert certs["inv_b"].note == "harmonic"
        assert certs["measure"] == divergent()

    @pytest.mark.parametrize("value,cert", [("infinite", divergent("constant measure")),
                                            ("finite", convergent("constant measure"))])
    def test_measure_certificate_keeps_its_note(self, value, cert):
        assert parse_certificates(f"measure={value}:constant measure") == {"measure": cert}

    def test_bad_certificates(self):
        for bad in ("inv_b", "inv_b=maybe", "zzz=divergent", "measure=big"):
            with pytest.raises(InputError):
                parse_certificates(bad)

    def test_certificate_key_given_twice_exits_1(self, capsys):
        code, payload = run_cli(capsys, "--model", "bd:unit", "--experiment", "classify",
                                "--certify", "inv_b=divergent:a,inv_b=convergent:b")
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert payload["reason"] == "certificate key 'inv_b' given twice"

    def test_chain_reference_indices(self):
        explosive = models.PRESETS["bd:explosive"]()
        unit = models.PRESETS["bd:unit"]()
        indices = list(range(10, 201, 10))
        # the 4^r chain's goal of 800 is capped at the largest usable prefix
        assert reference_indices(explosive, indices) == list(range(200, 501, 25))
        assert reference_indices(unit, indices) == list(range(200, 801, 50))

    def test_comb_reference_indices(self):
        comb = models.PRESETS["comb"]()
        # the goal 2j + 1 roughly quadruples the vertex count of rectangle j
        assert reference_indices(comb, list(range(2, 9))) == list(range(8, 18))
        # goals beyond the float cap stop at the largest usable rectangle, 22
        assert reference_indices(comb, [12]) == list(range(12, 23))
        assert reference_indices(comb, [22]) == [22]

    @pytest.mark.parametrize("name", ["path:9", "random:40"])
    def test_hop_ball_reference_indices_unchanged(self, name):
        model = models.build_model(name, seed=4)
        assert reference_indices(model, [0, 1, 3]) == [0, 1, 3]


class TestExperiments:
    def test_comb_beta(self, capsys):
        code, payload = run_cli(capsys, "--model", "comb",
                                "--experiment", "comb-beta", "--depth", "40")
        assert code == 0
        assert abs(payload["beta"] - (3 - math.sqrt(5)) / 2) <= 1e-14
        assert "teeth" not in payload
        assert payload["status"] == "ok"
        assert payload["schema"] == 1

    @pytest.mark.parametrize("model", ["random:1", "random:0", "random:x", "path:abc"])
    def test_malformed_model_size_exits_1(self, capsys, model):
        code, payload = run_cli(capsys, "--model", model, "--seed", "1",
                                "--experiment", "ec")
        assert code == 1
        assert payload["status"] == "error"
        assert payload["error_kind"] == "input-error"
        assert model in payload["reason"]

    def test_comb_beta_too_shallow_exits_2(self, capsys):
        code, payload = run_cli(capsys, "--model", "comb",
                                "--experiment", "comb-beta", "--depth", "9")
        assert code == 2
        assert payload["status"] == "error"
        assert payload["error_kind"] == "truncation-insufficient"
        assert "last_increment" in payload

    def test_comb_beta_depth_at_the_underflow_bound(self, capsys):
        code, payload = run_cli(capsys, "--model", "comb",
                                "--experiment", "comb-beta", "--depth", "1105")
        assert code == 0
        assert payload["window"] == [368, 736]

    @pytest.mark.parametrize("depth", ["1106", "1150", "1200"])
    def test_comb_beta_beyond_the_underflow_bound_exits_1(self, capsys, depth):
        # beta^k at the window end k = 2*depth//3 would be a subnormal float
        code, payload = run_cli(capsys, "--model", "comb",
                                "--experiment", "comb-beta", "--depth", depth)
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert "1105" in payload["reason"]

    def test_classify_preset(self, capsys):
        code, payload = run_cli(capsys, "--model", "bd:unit",
                                "--experiment", "classify", "--horizon", "1000",
                                "--certify", "inv_b=divergent:harmonic")
        assert code == 0
        assert payload["neumann_feller"] is True

    def test_classify_custom_without_certificates_exits_3(self, capsys):
        code, payload = run_cli(capsys, "--model", "bd:custom",
                                "--rate", "(r+1)**2", "--measure", "1",
                                "--experiment", "classify", "--horizon", "100")
        assert code == 3
        assert payload["undetermined"] is True

    def test_classify_custom_with_certificates(self, capsys):
        code, payload = run_cli(capsys, "--model", "bd:custom",
                                "--rate", "(r+1)**2", "--measure", "1",
                                "--experiment", "classify", "--horizon", "100",
                                "--certify",
                                "measure=infinite,inv_b=convergent:p-series,"
                                "hamburger=divergent:grows")
        assert code == 0
        assert payload["neumann_feller"] is True  # infinite measure branch

    def test_classify_infinite_measure_beside_a_total_exits_1(self, capsys):
        code, payload = run_cli(capsys, "--model", "bd:geo", "--experiment", "classify",
                                "--certify", "measure=infinite")
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert "contradicts measure_total 2" in payload["reason"]

    def test_gap_on_finite_file_graph(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("V 0 1 0\nV 1 1 0\nV 2 1 0\nE 0 1 1\nE 1 2 1\n")
        code, payload = run_cli(capsys, "--model", f"file:{p}",
                                "--experiment", "gap", "--t", "1",
                                "--truncations", "0,2,2")
        assert code == 0
        assert payload["max_gap"] <= 1e-10

    def test_unknown_model_exits_1(self, capsys):
        code, payload = run_cli(capsys, "--model", "nope",
                                "--experiment", "comb-beta")
        assert code == 1
        assert payload["error_kind"] == "input-error"

    def test_ec_on_comb(self, capsys):
        code, payload = run_cli(capsys, "--model", "comb", "--experiment", "ec",
                                "--horizon", "4")
        assert code == 0
        assert payload["constant"] > 1e3

    def test_ec_runs_on_the_exhaustion(self, capsys, monkeypatch):
        builds = []
        build = graphs.Exhaustion.build

        def counted(g, sets):
            builds.append(len(sets))
            return build(g, sets)

        monkeypatch.setattr(graphs.Exhaustion, "build", staticmethod(counted))
        code, payload = run_cli(capsys, "--model", "path:12", "--experiment", "ec",
                                "--truncations", "0:3", "--dump-matrix")
        assert code == 0
        # the dump reads the run's exhaustion instead of building its top set again
        assert builds == [4]
        assert payload["sizes"] == [1, 2, 3, 4]
        assert payload["constants"] == [0.0, 1.0, 1.0, 1.0]
        assert payload["window_size"] == 4
        assert payload["constant"] == 1.0
        assert payload["config"]["truncations"] == [0, 1, 2, 3]
        # the dumped matrix is the set the constant was computed on
        assert payload["matrix_dump"].startswith("# kind=neumann n=4\n")

    @pytest.mark.parametrize("experiment", ["ec", "neumann-convergence"])
    def test_empty_exhaustion_set_exits_1(self, capsys, experiment):
        # the hop ball of radius -1 is empty
        code, payload = run_cli(capsys, "--model", "path:12", "--experiment", experiment,
                                "--truncations=-1,2")
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert payload["reason"] == "exhaustion set 0 is empty"

    def test_ec_comb_window_follows_the_truncations(self, capsys):
        code, payload = run_cli(capsys, "--model", "comb", "--experiment", "ec",
                                "--truncations", "2:10")
        assert code == 0
        assert payload["sizes"][-1] == payload["window_size"] == 231
        steps = payload["constants"]
        assert all(b > a for a, b in zip(steps, steps[1:]))

    @pytest.mark.parametrize("model", ["bd:geo", "bd:explosive"])
    def test_ec_on_fast_chains(self, capsys, model):
        code, payload = run_cli(capsys, "--model", model, "--experiment", "ec")
        assert code == 0
        assert payload["window_size"] == 200
        assert len(payload["constants"]) == 20

    def test_ec_constant_beyond_the_float_cap_exits_1(self, capsys):
        # on bd:geo, b/(m m) = 2^{3r+1} passes 2^1000 in prefix 400, below
        # the prefix cap 500 that the exhaustion checks
        code, payload = run_cli(capsys, "--model", "bd:geo", "--experiment", "ec",
                                "--truncations", "100:500:100")
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert payload["reason"] == ("edge-condition constant ~ 2^1195 exceeds the float cap "
                                     "2^1000; use a smaller truncation")

    @pytest.mark.parametrize("horizon", ["-1", "0"])
    def test_ec_empty_window_exits_1(self, capsys, horizon):
        code, payload = run_cli(capsys, "--model", "bd:unit", "--experiment", "ec",
                                "--horizon", horizon)
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert "horizon" in payload["reason"]

    def test_uniform_l1(self, capsys):
        code, payload = run_cli(capsys, "--model", "bd:unit",
                                "--experiment", "uniform-l1", "--t", "0.5",
                                "--truncations", "30", "--grid", "16")
        assert code == 0
        assert payload["value"] <= payload["bound"] + 1e-9

    @pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
    def test_uniform_l1_honours_kind(self, capsys, kind):
        code, payload = run_cli(capsys, "--model", "comb",
                                "--experiment", "uniform-l1", "--truncations", "2:5",
                                "--kind", kind)
        assert code == 0
        assert payload["kind"] == payload["config"]["kind"] == kind
        assert payload["value"] <= payload["bound"] + 1e-9

    def test_feller_neumann_floor(self, capsys):
        code, payload = run_cli(capsys, "--model", "bd:geo",
                                "--experiment", "feller", "--kind", "neumann",
                                "--truncations", "30,40,50", "--alpha", "1")
        assert code == 0
        assert payload["verdict_hint"] == "floor-observed"

    def test_l1_defect_writes_files(self, capsys, tmp_path):
        out = tmp_path / "report"
        code = main(["--model", "bd:unit", "--experiment", "l1-defect",
                     "--truncations", "10:30:10", "--out", str(out)])
        assert code == 0
        payload = load_report((tmp_path / "report.json").read_text())
        assert payload["experiment"] == "l1-defect"
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "k,size,l1,l2,pointwise,pairing,bound"
        tidy = (tmp_path / "report_tidy.csv").read_text()
        assert tidy.splitlines()[0] == "k,metric,value"

    def test_neumann_convergence_with_explicit_ref(self, capsys):
        code, payload = run_cli(capsys, "--model", "comb",
                                "--experiment", "neumann-convergence",
                                "--truncations", "2:5", "--ref", "7",
                                "--alpha", "1")
        assert code == 0
        pairs = payload["quadratic_pairings"]
        assert all(b <= a + 1e-10 for a, b in zip(pairs, pairs[1:]))

    @pytest.mark.parametrize("argv", [
        ("--model", "comb", "--experiment", "neumann-convergence",
         "--truncations", "2:6", "--ref", "9", "--alpha", "1.0"),
        ("--model", "bd:unit", "--experiment", "gap", "--truncations", "10:60:10"),
    ], ids=["comb-ref", "unit-gap"])
    def test_clamps_of_every_engine_are_reported(self, capsys, monkeypatch, argv):
        # the reported count is the sum over every engine the run built,
        # the references' engines included
        engines = []
        init = semigroup.SemigroupEngine.__init__

        def recording_init(self, op):
            init(self, op)
            engines.append(self)

        monkeypatch.setattr(semigroup.SemigroupEngine, "__init__", recording_init)
        code, payload = run_cli(capsys, *argv)
        assert code == 0
        total = sum(e.telemetry.clamped_entries for e in engines)
        assert total > 0
        assert payload["metadata"]["clamped_entries"] == total

    def test_dirichlet_gap_finite(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("V 0 1 0\nV 1 2 0\nE 0 1 1\n")
        code, payload = run_cli(capsys, "--model", f"file:{p}",
                                "--experiment", "dirichlet-gap",
                                "--truncations", "0,1,1")
        assert code == 0
        assert payload["gap_floor"] <= payload["floor_threshold"]

    def test_gap_floor_verdict_follows_the_trend(self, capsys):
        # the 4^r chain has D = N and a stochastic defect: its l2 gap decays
        # like n^{-1/2}, above the threshold but no floor.  bd:geo has D != N
        # and a flat gap.
        code, decay = run_cli(capsys, "--model", "bd:explosive",
                              "--experiment", "dirichlet-gap",
                              "--truncations", "10:320:10")
        assert code == 0
        assert decay["gap_floor"] > decay["floor_threshold"]
        assert decay["metadata"]["gap_slope"] == pytest.approx(-0.5, abs=0.02)
        assert decay["metadata"]["floor_is_evidence"] is False
        code, flat = run_cli(capsys, "--model", "bd:geo",
                             "--experiment", "dirichlet-gap",
                             "--truncations", "10:100:10")
        assert code == 0
        assert abs(flat["metadata"]["gap_slope"]) < 1e-3
        assert flat["metadata"]["floor_is_evidence"] is True

    def test_gap_slope_is_null_on_a_zero_distance(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("V 0 1 0\nV 1 2 0\nE 0 1 1\n")
        code, payload = run_cli(capsys, "--model", f"file:{p}",
                                "--experiment", "dirichlet-gap",
                                "--truncations", "0,1,1")
        assert code == 0
        assert payload["metadata"]["gap_slope"] is None
        assert payload["metadata"]["floor_is_evidence"] is False

    def test_l2_gap_survives_where_its_square_underflows(self, capsys):
        # bd:unit's gap falls below 1e-160 at the largest sizes, where d^2
        # underflows: the scaled l2 stays positive wherever l1 is, so the
        # slope over the larger half is fitted
        code, payload = run_cli(capsys, "--model", "bd:unit",
                                "--experiment", "dirichlet-gap")
        assert code == 0
        l1s, l2s = payload["l1_distance"], payload["l2_distance"]
        assert min(l1s) < 1e-160
        assert all(l2 > 0 for l1, l2 in zip(l1s, l2s) if l1 > 0)
        assert isinstance(payload["metadata"]["gap_slope"], float)
        assert payload["metadata"]["floor_is_evidence"] is False

    def test_neumann_gate_failure_keeps_every_increment(self, capsys):
        code, payload = run_cli(capsys, "--model", "comb",
                                "--experiment", "neumann-convergence",
                                "--truncations", "2:6", "--alpha", "1.0")
        assert code == 2
        assert payload["error_kind"] == "truncation-insufficient"
        # one l2 distance per consecutive pair of the rectangles j = 2..6
        steps = payload["increments"]
        assert len(steps) == 4
        assert steps[-1] == payload["last_increment"]
        assert all(b < a for a, b in zip(steps, steps[1:]))

    def test_dirichlet_reference_failure_keeps_every_increment(self, capsys):
        code, payload = run_cli(capsys, "--model", "bd:unit",
                                "--experiment", "dirichlet-gap",
                                "--truncations", "10:30:10", "--tol", "1e-300")
        assert code == 2
        assert "dirichlet heat reference" in payload["reason"]
        steps = payload["increments"]
        # one l1 increment per reference set after the first
        assert len(steps) == len(reference_indices(models.PRESETS["bd:unit"](),
                                                   [10, 20, 30])) - 1
        assert steps[-1] == payload["last_increment"]
        assert all(v > 1e-300 for v in steps)

    def test_weight_beyond_float_cap_is_input_error(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(f"V 0 1 0\nV 1 1 0\nE 0 1 {2 ** 1100}\n")
        out = tmp_path / "r"
        assert main(["--model", f"file:{path}", "--experiment", "feller",
                     "--out", str(out)]) == 1
        payload = load_report((tmp_path / "r.json").read_text())
        assert payload["status"] == "error"
        assert payload["error_kind"] == "input-error"
        assert "float cap" in payload["reason"]

    @pytest.mark.parametrize("experiment,reason", [
        (("ec",), "edge-condition constant is not float-representable"),
        (("l1-defect", "--truncations", "0:1"), "degree at vertex 0 is not float-representable"),
    ], ids=["ec", "l1-defect"])
    def test_int_weight_beyond_float_range_over_float_measures(self, tmp_path, experiment,
                                                               reason):
        # an int weight over a float measure divides as floats, so the int
        # itself must fit in a float
        path = tmp_path / "huge.txt"
        path.write_text(f"V 0 1.0 0\nV 1 1.0 0\nE 0 1 {2 ** 1100}\n")
        out = tmp_path / "r"
        assert main(["--model", f"file:{path}", "--experiment", *experiment,
                     "--out", str(out)]) == 1
        payload = load_report((tmp_path / "r.json").read_text())
        assert payload["error_kind"] == "input-error"
        assert payload["reason"] == reason

    @pytest.mark.parametrize("rate", ["r" + "+r" * 1000, "2**(2**40)"],
                             ids=["deep-sum", "huge-power"])
    def test_hostile_rate_is_input_error(self, tmp_path, rate):
        out = tmp_path / "r"
        assert main(["--model", "bd:custom", "--rate", rate, "--measure", "1",
                     "--experiment", "classify", "--out", str(out)]) == 1
        payload = load_report((tmp_path / "r.json").read_text())
        assert payload["status"] == "error"
        assert payload["error_kind"] == "input-error"

    @pytest.mark.parametrize("experiment", ["gap", "feller"])
    def test_single_set_exhaustion_is_input_error(self, capsys, experiment):
        # one set gives the Dirichlet reference no increment to stop on
        code, payload = run_cli(capsys, "--model", "bd:unit",
                                "--experiment", experiment, "--truncations", "10")
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert "at least two exhaustion sets" in payload["reason"]
        assert "last_increment" not in payload

    @pytest.mark.parametrize("experiment", ["dirichlet-gap", "neumann-convergence",
                                            "l1-defect", "feller", "gap"])
    def test_measure_beyond_float_cap_is_input_error(self, capsys, experiment):
        # each measure m(r) = 2^(1100 + r) is converted behind the float guard
        code, payload = run_cli(capsys, "--model", "bd:custom", "--rate", "4**r",
                                "--measure", "2**(1100+r)", "--truncations", "10:40:10",
                                "--experiment", experiment)
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert payload["reason"] == ("measure ~ 2^1100 exceeds the float cap 2^1000; "
                                     "use a smaller truncation")

    @pytest.mark.parametrize("argv,flag,value", [
        (("--model", "bd:unit", "--experiment", "neumann-convergence", "--t", "nan"),
         "--t", "nan"),
        (("--model", "comb", "--experiment", "uniform-l1", "--truncations", "2:4",
          "--t", "inf"), "--t", "inf"),
        (("--model", "bd:geo", "--experiment", "classify", "--horizon", "50",
          "--t", "nan"), "--t", "nan"),
        (("--model", "bd:unit", "--experiment", "dirichlet-gap", "--t", "nan"), "--t", "nan"),
        (("--model", "bd:unit", "--experiment", "l1-defect", "--t", "nan"), "--t", "nan"),
        (("--model", "bd:unit", "--experiment", "gap", "--truncations", "10:60:10",
          "--t", "nan"), "--t", "nan"),
        (("--model", "bd:unit", "--experiment", "gap", "--t=-inf"), "--t", "-inf"),
        (("--model", "comb", "--experiment", "feller", "--truncations", "2:6",
          "--alpha", "nan"), "--alpha", "nan"),
        (("--model", "comb", "--experiment", "feller", "--truncations", "2:6",
          "--alpha", "inf"), "--alpha", "inf"),
        (("--model", "bd:unit", "--experiment", "l1-defect", "--tol", "nan"),
         "--tol", "nan"),
    ], ids=["nc-t-nan", "ul1-t-inf", "classify-t-nan", "dgap-t-nan", "l1-t-nan",
            "gap-t-nan", "gap-t-minus-inf", "feller-alpha-nan", "feller-alpha-inf",
            "l1-tol-nan"])
    def test_nonfinite_parameter_is_input_error(self, capsys, monkeypatch, argv, flag,
                                                value):
        # rejected before the model is built
        monkeypatch.setattr(models, "build_model", None)
        code, payload = run_cli(capsys, *argv)
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert payload["reason"] == f"{flag} must be finite, got {value}"

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("experiment", ["l1-defect", "gap"])
    def test_nonpositive_tol_is_input_error(self, capsys, monkeypatch, experiment, value):
        monkeypatch.setattr(models, "build_model", None)
        code, payload = run_cli(capsys, "--model", "bd:unit", "--experiment", experiment,
                                "--tol", value)
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert payload["reason"] == f"--tol must be positive, got {float(value)}"

    @pytest.mark.parametrize("argv", [
        ("--model", "comb", "--experiment", "neumann-convergence",
         "--truncations", "2:6", "--ref", "12"),
        ("--model", "comb", "--experiment", "dirichlet-gap", "--truncations", "2:6"),
        ("--model", "bd:explosive", "--experiment", "l1-defect"),
        ("--model", "random:60", "--seed", "3", "--experiment", "l1-defect"),
    ], ids=["comb-ref", "comb-gap", "explosive-l1", "random-l1"])
    def test_one_exhaustion_per_run(self, capsys, monkeypatch, argv):
        # the iterates and the reference are slices of one exhaustion
        built = []
        build = graphs.Exhaustion.build

        def counted(g, sets):
            built.append(build(g, sets))
            return built[-1]

        monkeypatch.setattr(graphs.Exhaustion, "build", staticmethod(counted))
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(built) == 1

    def test_reference_capped_to_the_top_set_is_one_set(self, capsys):
        # rectangle 22 is the largest below the float cap, so the reference
        # exhaustion is the single top set and has no increment to stop on
        code, payload = run_cli(capsys, "--model", "comb", "--experiment", "dirichlet-gap",
                                "--truncations", "2:22")
        assert code == 1
        assert payload["error_kind"] == "input-error"
        assert payload["reason"] == ("dirichlet heat reference needs at least two "
                                     "exhaustion sets")

    def test_classify_partial_sums_beyond_float_range(self, tmp_path):
        # the hamburger partial sums pass 2^1024 before r = 1000
        out = tmp_path / "r"
        assert main(["--model", "bd:custom", "--rate", "1", "--measure", "2**(2*r)",
                     "--experiment", "classify", "--horizon", "1000",
                     "--out", str(out)]) == 3
        payload = load_report((tmp_path / "r.json").read_text())
        assert payload["hamburger"]["last_partial_sum"] is None
        assert payload["series_inv_b"]["last_partial_sum"] == 1001.0
        rows = (tmp_path / "r.csv").read_text().splitlines()
        assert rows[0] == "r,inv_b_partial,tail_partial,hamburger_partial"
        assert rows[2] == "1,2.0,,68.0"
        assert rows[-1] == "1000,1001.0,,"
        tidy = (tmp_path / "r_tidy.csv").read_text().splitlines()
        assert "1000,inv_b_partial,1001.0" in tidy
        assert not any(line.startswith("1000,hamburger") for line in tidy)

    def test_classify_series_without_terms_has_no_last_sum(self, tmp_path):
        # m(X) is infinite, so the tail series has no terms at all
        out = tmp_path / "r"
        assert main(["--model", "bd:custom", "--rate", "1", "--measure", "2**(2*r)",
                     "--experiment", "classify", "--horizon", "1000",
                     "--out", str(out)]) == 3
        payload = load_report((tmp_path / "r.json").read_text())
        assert payload["series_tail"]["last_partial_sum"] is None

    def test_dump_matrix(self, capsys):
        code, payload = run_cli(capsys, "--model", "bd:unit",
                                "--experiment", "uniform-l1", "--t", "0.5",
                                "--truncations", "10", "--dump-matrix")
        assert code == 0
        assert "matrix_dump" in payload
        assert payload["matrix_dump"].startswith("# kind=neumann")


SMOKE_MODELS = {
    "comb": ["--model", "comb", "--truncations", "2:4"],
    "bd:unit": ["--model", "bd:unit", "--truncations", "5:20:5"],
    "bd:geo": ["--model", "bd:geo", "--truncations", "5:20:5"],
    "bd:explosive": ["--model", "bd:explosive", "--truncations", "5:20:5"],
    "bd:tail": ["--model", "bd:tail", "--truncations", "5:20:5"],
    "bd:custom": ["--model", "bd:custom", "--rate", "(r+1)**2", "--measure", "1",
                  "--truncations", "5:20:5"],
    "path:12": ["--model", "path:12", "--truncations", "0:3"],
    "random:30": ["--model", "random:30", "--seed", "1", "--truncations", "0:3"],
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("model", list(SMOKE_MODELS))
def test_every_experiment_reports_on_every_family(capsys, model, experiment):
    """No traceback escapes: each run exits 0-3 with one strict-JSON payload."""
    code, payload = run_cli(capsys, *SMOKE_MODELS[model], "--experiment", experiment)
    assert code in (0, 1, 2, 3)
    assert payload["status"] in ("ok", "error")
    if code == 0:
        assert payload["status"] == "ok"


CONVERGENCE_KEYS = ["schema", "experiment", "reference_kind", "t", "alpha", "sizes",
                    "l1_distance", "l2_distance", "pointwise_distance",
                    "quadratic_pairings", "l1_bounds", "stochastic_defect", "gap_floor",
                    "floor_threshold", "metadata", "status", "config", "timestamp"]

# the top-level keys of each successful schema-1 report, in order
REPORT_KEYS = {
    "neumann-convergence": CONVERGENCE_KEYS,
    "dirichlet-gap": CONVERGENCE_KEYS,
    "l1-defect": CONVERGENCE_KEYS,
    "feller": ["schema", "experiment", "alpha", "source", "ball_radii", "sup_outside",
               "verdict_hint", "metadata", "status", "config", "timestamp"],
    "gap": ["schema", "experiment", "t", "source", "gap_at_source", "max_gap",
            "self_distance", "metadata", "status", "config", "timestamp"],
    "classify": ["schema", "experiment", "chain", "horizon", "measure_total",
                 "measure_verdict", "measure_certificate", "series_inv_b", "series_tail", "hamburger",
                 "neumann_feller", "nontrivial_l1_harmonic_exists", "ess_self_adjoint",
                 "undetermined", "status", "config", "timestamp"],
    "comb-beta": ["schema", "experiment", "beta", "spread", "depth", "window",
                  "analytic_target", "status", "config", "timestamp"],
    "uniform-l1": ["schema", "experiment", "T", "value", "bound", "grid", "kind",
                   "metadata", "status", "config", "timestamp"],
    "ec": ["schema", "experiment", "constant", "window_size", "sizes", "constants",
           "metadata", "status", "config", "timestamp"],
}


def test_report_configs_keep_their_exit_codes(tmp_path):
    codes = report_configs.write_reports(tmp_path)
    assert codes == {name: code for name, _, code in report_configs.CONFIGS}
    assert len(codes) == 44
    checked = set()
    for name, argv, _ in report_configs.CONFIGS:
        # every report, error payloads included, is strict JSON
        payload = load_report((tmp_path / f"{name}.json").read_text())
        if payload["status"] == "ok":
            dump = ["matrix_dump"] if "--dump-matrix" in argv else []
            assert list(payload) == REPORT_KEYS[payload["experiment"]] + dump, name
            checked.add(payload["experiment"])
    assert checked == set(REPORT_KEYS)
    unit = load_report((tmp_path / "unit-classify.json").read_text())
    assert unit["measure_certificate"] == asdict(divergent("constant measure", power=0.0))


def test_compare_lists_every_changed_value(tmp_path, capsys):
    configs = [c for c in report_configs.CONFIGS if c[0] in ("unit-l1", "unit-nc-t-nan")]
    old, new = tmp_path / "old", tmp_path / "new"
    report_configs.write_reports(old, configs)
    shutil.copytree(old, new)
    capsys.readouterr()
    assert report_configs.compare(old, new) == 0
    assert capsys.readouterr().out == ""

    payload = load_report((new / "unit-l1.json").read_text())
    first = payload["l1_distance"][0]
    payload["l1_distance"][0] = first * 2
    payload["timestamp"] = "ignored"
    (new / "unit-l1.json").write_text(json.dumps(payload))
    assert report_configs.compare(old, new) == 0
    assert capsys.readouterr().out == (
        f"float unit-l1.json.l1_distance[0]: {first!r} -> {first * 2!r} "
        f"(relative 1.0e+00, absolute {first:.1e})\n")

    payload["metadata"]["graph"] = "bd:other"
    (new / "unit-l1.json").write_text(json.dumps(payload))
    codes = load_report((new / report_configs.EXIT_CODES).read_text())
    codes["unit-nc-t-nan"] = 2
    (new / report_configs.EXIT_CODES).write_text(json.dumps(codes))
    assert report_configs.compare(old, new) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "exit code unit-nc-t-nan: 1 -> 2"
    assert "value unit-l1.json.metadata.graph: 'bd:unit' -> 'bd:other'" in out
    assert len(out) == 3


class TestDeterminism:
    def test_reports_reproduce_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["--model", "bd:unit", "--experiment", "l1-defect",
                "--truncations", "5:20:5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        pa = load_report((tmp_path / "a.json").read_text())
        pb = load_report((tmp_path / "b.json").read_text())
        pa.pop("timestamp"), pb.pop("timestamp")
        assert pa == pb
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

"""Scenario parsing and the command-line surface: exit codes, file
formats, and byte-level determinism."""

import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import caclab
from caclab import ConfigError, ScenarioError
from caclab.cli import main
from caclab.scenario import load_scenario, parse_scenario

DEFAULT_SCENARIO = {
    "system": {
        "capacity": 20,
        "classes": [
            {"name": "voice", "arrival_rate": 1.0, "service_rate": 1.0,
             "bandwidth": 1, "admission_threshold": 1},
            {"name": "web", "arrival_rate": 1.0, "service_rate": 1.0,
             "bandwidth": 2, "admission_threshold": 3},
            {"name": "file", "arrival_rate": 1.0, "service_rate": 1.0,
             "bandwidth": 3, "admission_threshold": 5},
        ],
        "rat_labels": ["WLAN", "WiMAX", "UMTS"],
    },
    "sim": {"horizon": 4000.0, "warmup": 400.0, "replications": 3, "seed": 99},
    "traffic": {
        "components": [
            {"weight": 1 / 3, "class": 1, "process": {"kind": "poisson", "rate": 3.0}},
            {"weight": 1 / 3, "class": 2, "process": {"kind": "poisson", "rate": 3.0}},
            {"weight": 1 / 3, "class": 3, "process": {"kind": "poisson", "rate": 3.0}},
        ]
    },
    "sweep": {"class": 1, "grid": [0.5, 1.0, 1.5], "modes": ["ctmc"]},
}

SINGLE_CLASS = {
    "system": {
        "capacity": 2,
        "classes": [{"name": "only", "arrival_rate": 1.0, "service_rate": 1.0}],
    },
    "sim": {"horizon": 2000.0, "replications": 2, "seed": 7},
}

# demos/scenarios/trace_driven.json cut to horizon 2e3: Poisson, MMPP and
# BiPareto-renewal traffic, exponential, lognormal and Weibull holding.
TRACE_DRIVEN = {
    "system": {
        "capacity": 20,
        "classes": [
            {"name": "voice", "arrival_rate": 1.0, "service_rate": 1.0,
             "bandwidth": 1, "admission_threshold": 1},
            {"name": "web", "arrival_rate": 1.0, "service_rate": 1.0,
             "bandwidth": 2, "admission_threshold": 3},
            {"name": "file", "arrival_rate": 1.0, "service_rate": 1.0,
             "bandwidth": 3, "admission_threshold": 5},
        ],
    },
    "sim": {
        "horizon": 2000.0, "warmup": 200.0, "replications": 5, "seed": 314159,
        "service_model": "trace_driven",
        "holding": [
            {"kind": "exponential", "rate": 1.0},
            {"kind": "lognormal", "log_mean": -0.5, "log_stdev": 1.0},
            {"kind": "weibull", "shape": 0.8, "scale": 1.0},
        ],
    },
    "traffic": {
        "components": [
            {"weight": 0.5, "class": 1, "process": {
                "kind": "poisson",
                "segments": [[0.0, 1.0], [5000.0, 4.0], [15000.0, 1.5]]}},
            {"weight": 0.3, "class": 2, "process": {
                "kind": "mmpp", "rate_state1": 0.8, "rate_state2": 6.0,
                "switch_12": 0.01, "switch_21": 0.03}},
            {"weight": 0.2, "class": 3, "process": {
                "kind": "renewal", "interarrival": {
                    "kind": "bipareto", "alpha": 0.9, "beta": 1.8,
                    "breakpoint": 2.0, "minimum": 0.05}}},
        ]
    },
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestScenarioParsing:
    def test_round_trip(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, DEFAULT_SCENARIO))
        assert scenario.system.capacity == 20
        assert [c.name for c in scenario.system.classes] == ["voice", "web", "file"]
        assert scenario.sim.replications == 3
        assert len(scenario.traffic.components) == 3
        assert scenario.sweep.swept_class == 0

    def test_unknown_key_rejected(self):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["system"]["surprise"] = 1
        with pytest.raises(ScenarioError, match="surprise"):
            parse_scenario(doc)

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError, match="system"):
            parse_scenario({})

    def test_wrong_type(self):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["system"]["capacity"] = "twenty"
        with pytest.raises(ScenarioError, match="integer"):
            parse_scenario(doc)

    def test_domain_violation_is_config_error(self):
        doc = json.loads(json.dumps(SINGLE_CLASS))
        doc["sim"]["replications"] = 0
        with pytest.raises(ConfigError, match="replications"):
            parse_scenario(doc)

    def test_holding_count_checked(self):
        doc = json.loads(json.dumps(SINGLE_CLASS))
        doc["sim"]["holding"] = [
            {"kind": "exponential", "rate": 1.0},
            {"kind": "exponential", "rate": 1.0},
        ]
        with pytest.raises(ConfigError, match="per class"):
            parse_scenario(doc)

    def test_component_class_bounds(self):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["traffic"]["components"][0]["class"] = 9
        with pytest.raises(ConfigError, match="1..3"):
            parse_scenario(doc)


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys):
        code = main(["validate", "--config", write_scenario(tmp_path, DEFAULT_SCENARIO)])
        assert code == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["config"]["capacity"] == 20
        assert echoed["tool"] == "caclab"

    def test_ordering_violation_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        for cls, a in zip(doc["system"]["classes"], (4, 2, 1)):
            cls["admission_threshold"] = a
            cls["bandwidth"] = 1
        code = main(["validate", "--config", write_scenario(tmp_path, doc)])
        assert code == 2
        assert "non-decreasing" in capsys.readouterr().err

    def test_malformed_document_exits_3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 3

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 3


class TestSolveCommand:
    def test_single_class_ctmc(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "solve", "--config", write_scenario(tmp_path, SINGLE_CLASS),
            "--mode", "ctmc", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["per_class"][0]["blocking"] == pytest.approx(0.2, abs=1e-12)
        assert report["mode"] == "ctmc"
        assert report["validity_flag"] is True
        assert report["residual"] <= 1e-9
        assert report["version"]
        assert report["config"]["capacity"] == 2

    def test_recurrence_general_path_labelled(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["system"]["classes"][0]["arrival_rate"] = 2.5
        code = main(["solve", "--config", write_scenario(tmp_path, doc),
                     "--mode", "recurrence"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "recurrence"
        assert report["detail"] == "general"
        assert "load_ratio" in report

    def test_erlangb_on_multiclass_exits_4(self, tmp_path):
        code = main(["solve", "--config", write_scenario(tmp_path, DEFAULT_SCENARIO),
                     "--mode", "erlangb"])
        assert code == 4

    def test_unknown_mode_exits_4(self, tmp_path):
        code = main(["solve", "--config", write_scenario(tmp_path, SINGLE_CLASS),
                     "--mode", "fancy"])
        assert code == 4

    def test_state_space_limit_exits_4(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["system"]["capacity"] = 500
        code = main(["solve", "--config", write_scenario(tmp_path, doc),
                     "--mode", "ctmc"])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: state count 3545598 exceeds the safety limit of 2000000; "
            "reduce capacity or use the 1-D aggregate mode\n"
        )

    @pytest.mark.parametrize("mode, message", [
        ("literal1d", "error: steady-state residual nan is not within 1e-9\n"),
        ("recurrence", "error: recurrence overflows double precision by capacity "
                       "400; reduce the load or the capacity\n"),
    ])
    def test_overflowed_solve_exits_4(self, tmp_path, capsys, mode, message):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["system"]["capacity"] = 400
        for cls in doc["system"]["classes"]:
            cls["arrival_rate"] = 1000.0
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["solve", "--config", write_scenario(tmp_path, doc),
                         "--mode", mode])
        assert code == 4
        assert capsys.readouterr().err == message

    def test_kr_token(self, tmp_path, capsys):
        code = main(["solve", "--config", write_scenario(tmp_path, SINGLE_CLASS),
                     "--mode", "kr"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "kaufman_roberts"


class TestSimulateCommand:
    def test_markovian_run(self, tmp_path):
        out = tmp_path / "stats.json"
        code = main(["simulate", "--config",
                     write_scenario(tmp_path, DEFAULT_SCENARIO), "--out", str(out)])
        assert code == 0
        stats = json.loads(out.read_text())
        assert stats["mode"] == "markovian"
        assert len(stats["per_class"]) == 3
        assert all("ci_half_width" in row for row in stats["per_class"])
        assert stats["replications"] == 3
        assert abs(sum(stats["occupancy_histogram"]) - 1.0) < 1e-9

    def test_zero_rate_scenario_flags_degenerate(self, tmp_path):
        doc = json.loads(json.dumps(SINGLE_CLASS))
        doc["system"]["classes"][0]["arrival_rate"] = 0.0
        out = tmp_path / "stats.json"
        code = main(["simulate", "--config", write_scenario(tmp_path, doc),
                     "--out", str(out)])
        assert code == 0
        stats = json.loads(out.read_text())
        assert stats["degenerate"] is True
        assert stats["per_class"][0]["blocking"] is None

    def test_trace_driven_run(self, tmp_path):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["sim"]["service_model"] = "trace_driven"
        doc["sim"]["holding"] = [{"kind": "exponential", "rate": 1.0}] * 3
        out = tmp_path / "stats.json"
        code = main(["simulate", "--config", write_scenario(tmp_path, doc),
                     "--out", str(out)])
        assert code == 0
        stats = json.loads(out.read_text())
        assert stats["mode"] == "trace_driven"
        assert stats["trace_events"] > 0

    def test_missing_sim_section_exits_2(self, tmp_path):
        doc = {"system": SINGLE_CLASS["system"]}
        code = main(["simulate", "--config", write_scenario(tmp_path, doc)])
        assert code == 2

    def test_overflowing_bipareto_exits_2(self, tmp_path, capsys):
        # Its quantile at tail mass 2^-53 overflows, so the spec is refused.
        doc = json.loads(json.dumps(TRACE_DRIVEN))
        doc["sim"]["holding"][2] = {"kind": "bipareto", "alpha": 5.0, "beta": 0.01,
                                    "breakpoint": 1.0, "minimum": 1.0}
        code = main(["simulate", "--config", write_scenario(tmp_path, doc)])
        assert code == 2
        assert "bipareto tail too heavy" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        path = write_scenario(tmp_path, DEFAULT_SCENARIO)
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        main(["simulate", "--config", path, "--out", str(a)])
        main(["simulate", "--config", path, "--seed", "5", "--out", str(b)])
        main(["simulate", "--config", path, "--seed", "5", "--out", str(c)])
        assert a.read_bytes() != b.read_bytes()
        assert b.read_bytes() == c.read_bytes()


class TestSweepCommand:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", write_scenario(tmp_path, DEFAULT_SCENARIO),
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,class,mode,blocking,ci_low,ci_high"
        rows = [line.split(",") for line in lines[1:]]
        # 3 grid points x (3 classes + overall).
        assert len(rows) == 12
        assert [r[1] for r in rows[:4]] == ["1", "2", "3", "overall"]
        assert all(r[4] == "" and r[5] == "" for r in rows)
        assert [tuple(r[:3]) for r in rows] == sorted(tuple(r[:3]) for r in rows)

    def test_flags_override_scenario(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--config", write_scenario(tmp_path, DEFAULT_SCENARIO),
            "--class", "2", "--lambda-from", "0.5", "--lambda-to", "1.5",
            "--steps", "3", "--modes", "ctmc,recurrence", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")[1:]
        lams = sorted({line.split(",")[0] for line in lines})
        assert lams == ["0.5", "1", "1.5"]
        modes = {line.split(",")[2] for line in lines}
        assert modes == {"ctmc", "recurrence"}

    def test_svg_plot(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.svg"
        code = main(["sweep", "--config", write_scenario(tmp_path, DEFAULT_SCENARIO),
                     "--out", str(out), "--plot", str(plot)])
        assert code == 0
        svg = plot.read_text()
        assert svg.count("<polyline") == 4  # 3 classes + overall, one mode
        assert "lambda(class 1)" in svg
        assert "blocking probability" in svg

    def test_unwritable_output_exits_5(self, tmp_path):
        code = main(["sweep", "--config", write_scenario(tmp_path, DEFAULT_SCENARIO),
                     "--out", str(tmp_path / "missing_dir" / "sweep.csv")])
        assert code == 5

    def test_first_failing_mode_sets_exit(self, tmp_path, capsys):
        # ctmc solves the two-class grid; literal1d then fails at the
        # first point, and its error is the sweep's.
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["system"]["classes"] = doc["system"]["classes"][:2]
        del doc["traffic"]
        code = main(["sweep", "--config", write_scenario(tmp_path, doc),
                     "--modes", "ctmc,literal1d", "--out", str(tmp_path / "s.csv")])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: literal1d mode requires exactly 3 classes, got 2\n"
        )

    def test_no_sweep_settings_exits_2(self, tmp_path):
        code = main(["sweep", "--config", write_scenario(tmp_path, SINGLE_CLASS)])
        assert code == 2


class TestCompareCommand:
    def test_agreement_exits_0(self, tmp_path):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["sim"] = {"horizon": 20000.0, "replications": 5, "seed": 20260811}
        out = tmp_path / "cmp.json"
        code = main(["compare", "--config", write_scenario(tmp_path, doc),
                     "--tolerance", "0.05", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0
        assert report["agreement"] is True
        assert report["max_deviation"] <= 0.05

    def test_zero_tolerance_without_cis_exits_1(self, tmp_path):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["sim"] = {"horizon": 2000.0, "replications": 1, "seed": 1}
        out = tmp_path / "cmp.json"
        code = main(["compare", "--config", write_scenario(tmp_path, doc),
                     "--tolerance", "0", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["agreement"] is False

    def test_missing_sim_exits_2(self, tmp_path):
        doc = {"system": DEFAULT_SCENARIO["system"]}
        code = main(["compare", "--config", write_scenario(tmp_path, doc)])
        assert code == 2


class TestTraceCommand:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["trace", "--config", write_scenario(tmp_path, DEFAULT_SCENARIO),
                     "--horizon", "50", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "time,class"
        times = [float(line.split(",")[0]) for line in lines[1:]]
        classes = {line.split(",")[1] for line in lines[1:]}
        assert times == sorted(times)
        assert all(0 <= t < 50 for t in times)
        assert classes <= {"1", "2", "3"}

    def test_needs_traffic_section(self, tmp_path):
        code = main(["trace", "--config", write_scenario(tmp_path, SINGLE_CLASS),
                     "--horizon", "10"])
        assert code == 2


# numpy's AVX-512 dispatch targets, by their NPY_DISABLE_CPU_FEATURES
# names; a numpy build ignores, with an ImportWarning, those it does not
# dispatch to.
AVX512_FEATURES = ("X86_V4 AVX512_ICL AVX512_SPR AVX512F AVX512CD AVX512VL "
                   "AVX512BW AVX512DQ AVX512_SKX AVX512_CLX AVX512_CNL")


class TestTraceDrivenGolden:
    """sha256 of the trace-driven outputs, recorded when Poisson
    segments stopped drawing acceptance uniforms, the BiPareto ccdf
    moved to log space and replays began to draw each class's holding
    times in one block before replaying; reruns must reproduce them bit
    for bit."""

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("simulate", "74106778266fd6b64d9522d391b4afc055b6c868a18eca1a37bbb07b9bb56483"),
            ("trace", "aea2174b479b7038dccc817cbbacb3322e4b35fa1a69be725f369506b8a5d090"),
        ],
    )
    def test_output_digest(self, tmp_path, command, digest):
        out = tmp_path / "out"
        code = main([command, "--config", write_scenario(tmp_path, TRACE_DRIVEN),
                     "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_digests_hold_without_avx512(self):
        # Reruns the goldens written with the log-space BiPareto ccdf in
        # a child whose numpy may not dispatch its math to AVX-512.
        tests = Path(__file__).parent
        src = str(Path(caclab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_FEATURES, PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{tests / 'test_cli.py'}::TestTraceDrivenGolden::test_output_digest",
             f"{tests / 'test_traffic.py'}::TestBitForBitSampling::"
             "test_golden_renewal[bipareto_alpha_lt_beta]"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "3 passed" in result.stdout


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv_builder",
        [
            lambda p: ["solve", "--config", p, "--mode", "ctmc"],
            lambda p: ["solve", "--config", p, "--mode", "literal1d"],
            lambda p: ["solve", "--config", p, "--mode", "recurrence"],
            lambda p: ["simulate", "--config", p],
            lambda p: ["sweep", "--config", p],
            lambda p: ["trace", "--config", p, "--horizon", "100"],
        ],
        ids=["ctmc", "literal1d", "recurrence", "simulate", "sweep", "trace"],
    )
    def test_rerun_is_byte_identical(self, tmp_path, argv_builder):
        path = write_scenario(tmp_path, DEFAULT_SCENARIO)
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        assert main(argv_builder(path) + ["--out", str(out_a)]) == 0
        assert main(argv_builder(path) + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_compare_rerun_byte_identical(self, tmp_path):
        doc = json.loads(json.dumps(DEFAULT_SCENARIO))
        doc["sim"] = {"horizon": 5000.0, "replications": 3, "seed": 17}
        path = write_scenario(tmp_path, doc)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        code_a = main(["compare", "--config", path, "--out", str(out_a)])
        code_b = main(["compare", "--config", path, "--out", str(out_b)])
        assert code_a == code_b
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sweep_plot_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, DEFAULT_SCENARIO)
        pa, pb = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["sweep", "--config", path, "--out", str(tmp_path / "a.csv"),
              "--plot", str(pa)])
        main(["sweep", "--config", path, "--out", str(tmp_path / "b.csv"),
              "--plot", str(pb)])
        assert pa.read_bytes() == pb.read_bytes()

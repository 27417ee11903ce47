import contextlib
import hashlib
import io
import json
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcl import dimensions, experiments
from pcl.cli import main
from pcl.core import concept_class
from pcl.learners import CompressionOutput
from pcl.serialize import (
    FormatError,
    class_from_dict,
    class_to_dict,
    compression_to_dict,
    sample_from_list,
)


def compression_from_dict(obj) -> CompressionOutput:
    """Decode the compression payload the CLI prints."""
    n_bits = obj["n_bits"]
    bits = format(int(obj["bits_hex"], 16), "b").zfill(n_bits) if n_bits else ""
    assert len(bits) == n_bits, "bit payload wider than declared"
    return CompressionOutput(tuple(map(tuple, obj["subsample"])), tuple(map(int, bits)))


@pytest.fixture
def class_file(tmp_path):
    path = tmp_path / "class.json"
    path.write_text(json.dumps({"domain_size": 3, "concepts": ["000", "111"]}))
    return str(path)


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.json"
    path.write_text(json.dumps([[0, 1], [1, 1], [2, 1]]))
    return str(path)


class TestSerialize:
    def test_class_round_trip(self):
        cls = concept_class(3, ["01*", "1*0"])
        rebuilt, names = class_from_dict({**class_to_dict(cls), "names": ["a", "b", "c"]})
        assert rebuilt == cls
        assert names == ["a", "b", "c"]

    def test_bad_concept_char_named(self):
        with pytest.raises(FormatError, match="class"):
            class_from_dict({"domain_size": 2, "concepts": ["0x"]})

    def test_missing_field_named(self):
        with pytest.raises(FormatError, match="domain_size"):
            class_from_dict({"concepts": ["01"]})

    def test_compression_round_trip(self):
        comp = CompressionOutput(((0, 1), (2, 0)), (1, 0, 1))
        rebuilt = compression_from_dict(compression_to_dict(comp))
        assert rebuilt == comp

    def test_sample_rejects_non_bits(self):
        with pytest.raises(FormatError):
            sample_from_list([[0, 2]])


class TestCliDim:
    def test_vc_with_witness(self, class_file, capsys):
        assert main(["dim", "--input", class_file, "--measure", "vc", "--witness"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 1
        assert out["witness_verified"] is True

    def test_ld_witness_tree_verified(self, class_file, capsys):
        assert main(["dim", "--input", class_file, "--measure", "ld", "--witness"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 1
        assert out["witness"] == {"point": 0, "zero": None, "one": None}
        assert out["witness_verified"] is True

    def test_measure_without_witness_prints_null(self, class_file, capsys):
        assert main(["dim", "--input", class_file, "--measure", "strength", "--witness"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 4
        assert out["witness_verified"] is None

    def test_all_measures_run(self, class_file):
        for measure in ["vc", "ld", "td", "strength", "natarajan", "graph", "support-vc", "dual"]:
            assert main(["dim", "--input", class_file, "--measure", measure]) == 0

    def test_out_writes_what_stdout_would_print(self, class_file, tmp_path, capsys):
        argv = ["dim", "--input", class_file, "--measure", "vc"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        path = tmp_path / "dim.json"
        assert main([*argv, "--out", str(path)]) == 0
        assert capsys.readouterr() == ("", f"wrote {path}\n")
        assert path.read_text() == printed

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["dim", "--input", str(bad), "--measure", "vc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_field_exits_2_and_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"domain_size": 2, "concepts": ["01x"[:2] + "x"]}))
        assert main(["dim", "--input", str(bad), "--measure", "vc"]) == 2
        err = capsys.readouterr().err
        assert "concept" in err


class TestCliLearn:
    def test_ld_compress(self, class_file, sample_file, capsys):
        rc = main(
            ["learn", "--input", class_file, "--sample", sample_file, "--mode", "ld-compress"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["size"] <= out["ld"]
        assert out["hypothesis"]["labels"] == "111"

    def test_realizable_too_short_reports_m(self, class_file, sample_file, capsys):
        rc = main(
            [
                "learn", "--input", class_file, "--sample", sample_file,
                "--mode", "realizable", "--eps", "0.5", "--delta", "0.5",
            ]
        )
        assert rc == 2
        assert "m =" in capsys.readouterr().err

    def test_compress_round_trip_payload(self, class_file, sample_file, capsys):
        rc = main(
            ["learn", "--input", class_file, "--sample", sample_file, "--mode", "compress"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        comp = compression_from_dict(out["compression"])
        assert comp.size == out["size"]


class TestCliOther:
    def test_online_soa(self, class_file, sample_file, capsys):
        rc = main(
            ["online", "--input", class_file, "--mode", "soa", "--sample", sample_file]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mistakes"] <= out["ld"]

    def test_adversary_regret_long_horizon(self, class_file, capsys):
        # the exact regret's denominator 2^20000 has more digits than str() takes
        argv = ["online", "--input", class_file, "--mode", "adversary-regret",
                "--d", "1", "--T", "20000"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert isinstance(out["expected_regret"], float)
        assert out["expected_mistakes"] == 10_000
        assert out["lower_bound"] <= out["expected_regret"] <= out["expected_mistakes"]

    def test_disambiguate_majority(self, class_file, capsys):
        rc = main(["disambiguate", "--input", class_file, "--algo", "majority"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert sorted(out["totals"]) == ["000", "111"]
        assert out["strong_verified"] is True

    def test_disambiguate_compression(self, tmp_path, capsys):
        path = tmp_path / "class.json"
        path.write_text(
            json.dumps({"domain_size": 3, "concepts": ["01*", "*10", "110", "000"]})
        )
        assert main(["dim", "--input", str(path), "--measure", "ld"]) == 0
        ld = json.loads(capsys.readouterr().out)["value"]
        assert main(["disambiguate", "--input", str(path), "--algo", "compression"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["info"]["scheme_size"] == ld == 1
        assert out["info"]["candidates"] == 7  # the empty kept set and the 2n pairs
        assert out["weak_verified_len3"] is True
        assert out["strong_verified"] is None

    @pytest.mark.parametrize(
        "algo, strong_fails, walks",
        [
            ("majority", False, 0),
            ("weighted", False, 0),
            ("support", False, 0),
            ("majority", True, 1),
            ("compression", False, 1),  # its own verification, which the flag reads
        ],
    )
    def test_disambiguate_walks_short_sets_unless_strong_holds(
        self, algo, strong_fails, walks, class_file, capsys, monkeypatch
    ):
        from pcl import disambiguation

        real = disambiguation.weak_violation
        calls = []
        monkeypatch.setattr(
            disambiguation, "weak_violation", lambda *a: calls.append(a) or real(*a)
        )
        if strong_fails:
            monkeypatch.setattr(disambiguation, "strong_violation", lambda cls, t: cls.concepts[0])
        assert main(["disambiguate", "--input", class_file, "--algo", algo]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(calls) == walks
        assert out["strong_verified"] is (None if algo == "compression" else not strong_fails)
        assert out["weak_verified_len3"] is True

    def test_construct_biclique_complete(self, capsys):
        rc = main(["construct", "biclique", "--complete", "4"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["vc"] == 1
        assert sorted(out["class"]["concepts"]) == sorted(["0**", "10*", "110", "111"])

    def test_construct_biclique_from_graph_file(self, tmp_path, capsys):
        graph = {
            "vertices": 2,
            "edges": [[0, 1]],
            "partition": [[[0], [1]]],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        rc = main(["construct", "biclique", "--graph", str(path)])
        assert rc == 0

    def test_construct_bad_partition_exits_2(self, tmp_path, capsys):
        graph = {
            "vertices": 3,
            "edges": [[0, 1], [1, 2]],
            "partition": [[[0], [1, 2]]],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        assert main(["construct", "biclique", "--graph", str(path)]) == 2
        assert "non-edge" in capsys.readouterr().err

    def test_scaling_table_runs(self, capsys):
        rc = main(["scaling", "compression-size", "--grid", "8", "16"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,measured_size,envelope"
        assert len(lines) == 3

    def test_scaling_default_grid_follows_table(self, capsys):
        rc = main(["scaling", "disambiguation-size"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,measured_totals,envelope"
        assert [row.split(",")[0] for row in lines[1:]] == ["4", "6", "8", "10"]

    def test_scaling_missing_out_dir_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "table.csv")
        assert main(["scaling", "compression-size", "--grid", "8", "--out", out]) == 2
        assert out in capsys.readouterr().err


class TestCliExperiment:
    def test_small_suite_passes_and_writes(self, tmp_path, capsys):
        prefix = str(tmp_path / "report")
        rc = main(
            [
                "experiment", "erm-failure", "--seed", "3",
                "--trials", "200", "--out", prefix,
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == 2
        assert report["summary"]["failed"] == 0
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.splitlines()[0] == (
            "experiment,check,statement,measured,bound,passed"
        )

    def test_missing_out_dir_exits_2(self, tmp_path, capsys):
        prefix = str(tmp_path / "missing" / "report")
        assert main(["experiment", "erm-failure", "--trials", "10", "--out", prefix]) == 2
        assert prefix in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["clases=3", "classes=abc", "classes=2.5"])
    def test_bad_param_exits_2(self, param, capsys):
        argv = ["experiment", "soa-mistake-bound", "--param", param]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert repr(param.partition("=")[0]) in err

    def test_pac_realizable_delta_one(self, capsys):
        # sigma is 0 when delta = 1 and every trial fails or none does
        argv = ["experiment", "pac-realizable", "--param", "delta=1",
                "--param", "distributions=1", "--trials", "1"]
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "nonsense"])
        assert exc.value.code == 2

    def test_determinism_same_seed_same_report(self, tmp_path):
        from pcl.experiments import ExperimentConfig, run_experiment

        cfg = ExperimentConfig(
            "experts-regret", seed=11, params={"matrices": 10}
        )
        a = run_experiment(cfg).to_dict()
        b = run_experiment(
            ExperimentConfig("experts-regret", seed=11, params={"matrices": 10})
        ).to_dict()
        assert a == b

    def test_different_seed_changes_report(self):
        from pcl.experiments import ExperimentConfig, run_experiment

        a = run_experiment(
            ExperimentConfig("experts-regret", seed=1, params={"matrices": 5})
        ).to_dict()
        b = run_experiment(
            ExperimentConfig("experts-regret", seed=2, params={"matrices": 5})
        ).to_dict()
        assert a != b


class TestCliContract:
    """Bad input exits 2 naming the field or value, never with a traceback."""

    def _fails_naming(self, argv, named, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert named in err

    def test_non_string_concept(self, tmp_path, capsys):
        path = tmp_path / "class.json"
        path.write_text(json.dumps({"domain_size": 3, "concepts": [5]}))
        self._fails_naming(["dim", "--input", str(path), "--measure", "vc"], "concepts", capsys)

    def test_bool_domain_size(self, tmp_path, capsys):
        path = tmp_path / "class.json"
        path.write_text(json.dumps({"domain_size": True, "concepts": ["0"]}))
        self._fails_naming(
            ["dim", "--input", str(path), "--measure", "vc"], "domain_size", capsys
        )

    def test_soa_point_outside_domain(self, class_file, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps([[0, 1], [7, 1]]))
        argv = ["online", "--input", class_file, "--mode", "soa", "--sample", str(path)]
        self._fails_naming(argv, "point 7", capsys)

    def test_scaling_grid_zero(self, capsys):
        self._fails_naming(["scaling", "compression-size", "--grid", "0"], "--grid", capsys)

    @pytest.mark.parametrize(
        "name, most", [("compression-size", 100_000), ("disambiguation-size", 24)]
    )
    def test_scaling_grid_over_its_table_limit(self, name, most, capsys):
        # the bad point comes last, and no row is printed before the refusal
        assert main(["scaling", name, "--grid", "4", str(most + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        named = f"--grid values of {name} must lie in 1..{most}, got {most + 1}"
        assert err == f"error: {named}\n"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["experiment", "agnostic-online-regret", "--param", "adversary_T=1000000"],
             "adversary_trials * adversary_T = 10000 * 1000000 labels exceed the "
             "limit of 10000000"),
            (["experiment", "agnostic-online-regret", "--param", "adversary_T=1000000",
              "--trials", "2"],
             "the horizon T = 1000000 exceeds the limit of 100000"),
            (["online", "--input", "{cls}", "--mode", "adversary-regret",
              "--T", "1000000"],
             "the horizon T = 1000000 exceeds the limit of 100000"),
        ],
        ids=["coins", "suite-horizon", "online-horizon"],
    )
    def test_adversary_over_its_limits_refused_at_once(
        self, argv, named, class_file, capsys
    ):
        # unbounded, each of these would run for seconds or fill the memory
        start = time.perf_counter()
        self._fails_naming([a.format(cls=class_file) for a in argv], named, capsys)
        assert time.perf_counter() - start < 1.0

    def test_online_agnostic_zero_trials(self, class_file, capsys):
        argv = ["online", "--input", class_file, "--mode", "agnostic", "--trials", "0"]
        self._fails_naming(argv, "--trials", capsys)

    def test_online_agnostic_zero_horizon(self, class_file, capsys):
        argv = ["online", "--input", class_file, "--mode", "agnostic", "--T", "0"]
        self._fails_naming(argv, "horizon T", capsys)

    def test_adversary_regret_zero_depth(self, class_file, capsys):
        argv = ["online", "--input", class_file, "--mode", "adversary-regret", "--d", "0"]
        self._fails_naming(argv, "depth d", capsys)

    def test_adversary_regret_horizon_below_depth(self, class_file, capsys):
        argv = ["online", "--input", class_file, "--mode", "adversary-regret",
                "--d", "1", "--T", "0"]
        self._fails_naming(
            argv, "the horizon T must be at least the tree depth d = 1, got 0", capsys
        )

    def test_adversary_mistake_negative_depth(self, class_file, capsys):
        argv = ["online", "--input", class_file, "--mode", "adversary-mistake",
                "--d", "-1"]
        self._fails_naming(argv, "depth d", capsys)

    @pytest.mark.parametrize("delta", ["0", "nan", "-1", "2"])
    def test_agnostic_delta_outside_unit_interval(
        self, delta, class_file, sample_file, capsys
    ):
        argv = ["learn", "--input", class_file, "--sample", sample_file,
                "--mode", "agnostic", "--delta", delta]
        self._fails_naming(argv, f"delta = {delta}", capsys)

    @pytest.mark.parametrize("mode", ["agnostic", "compress"])
    def test_learn_empty_sample(self, mode, class_file, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        argv = ["learn", "--input", class_file, "--sample", str(path), "--mode", mode]
        self._fails_naming(argv, "non-empty sample", capsys)

    def test_construct_kind_refuses_another_kinds_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "margin", "--n", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 3" in capsys.readouterr().err

    def test_bad_seed_variable_fails_only_commands_that_read_a_seed(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("PCL_SEED", "abc")
        assert main(["construct", "margin"]) == 0
        capsys.readouterr()
        self._fails_naming(["construct", "erm-failure", "--trials", "10"], "PCL_SEED", capsys)

    def test_bad_seed_variable_fails_only_modes_that_read_a_seed(
        self, monkeypatch, class_file, sample_file, capsys
    ):
        monkeypatch.setenv("PCL_SEED", "abc")
        learn = ["learn", "--input", class_file, "--sample", sample_file, "--mode"]
        online = ["online", "--input", class_file, "--mode"]
        assert main([*learn, "ld-compress"]) == 0
        assert main([*online, "adversary-regret"]) == 0
        capsys.readouterr()
        self._fails_naming([*learn, "compress"], "PCL_SEED", capsys)
        self._fails_naming([*online, "agnostic"], "PCL_SEED", capsys)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["online", "--mode", "adversary-mistake", "--trials", "8", "--seed", "5"],
             "--mode adversary-mistake does not read --trials, --seed"),
            (["online", "--mode", "soa", "--T", "5", "--d", "3", "--trials", "9"],
             "--mode soa does not read --T, --d, --trials"),
            (["online", "--mode", "adversary-regret", "--sample", "{sample}"],
             "--mode adversary-regret does not read --sample"),
            (["learn", "--sample", "{sample}", "--mode", "ld-compress",
              "--eps", "0.9", "--delta", "0.7", "--seed", "3"],
             "--mode ld-compress does not read --eps, --delta, --seed"),
            (["learn", "--sample", "{sample}", "--mode", "realizable", "--seed", "1"],
             "--mode realizable does not read --seed"),
            (["learn", "--sample", "{sample}", "--mode", "compress", "--delta", "0.5"],
             "--mode compress does not read --delta"),
        ],
    )
    def test_mode_refuses_a_flag_it_does_not_read(
        self, argv, named, class_file, sample_file, capsys
    ):
        argv = [argv[0], "--input", class_file, *argv[1:]]
        self._fails_naming([a.format(sample=sample_file) for a in argv], named, capsys)

    @pytest.mark.parametrize(
        "args, named",
        [
            (["erm-failure", "--trials", "0"], "'trials'"),
            (["pac-realizable", "--trials", "-2"], "'trials'"),
            (["pac-realizable", "--param", "trials=0"], "'trials'"),
            (["geometry", "--trials", "3"], "--trials"),
            (["agnostic-online-regret", "--trials", "1"], "'adversary_trials'"),
            (["one-inclusion-loo", "--param", "max_len=0", "--param", "classes=1"],
             "'max_len'"),
            (["compression-bounds", "--param", "max_m=0", "--trials", "2"], "'max_m'"),
            (["soa-mistake-bound", "--param", "sequences=0", "--param", "classes=2"],
             "'sequences'"),
            (["agnostic-online-regret", "--param", "sequences=0", "--trials", "2"],
             "'sequences'"),
            (["geometry", "--param", "streams=0"], "'streams'"),
            (["one-inclusion-loo", "--param", "classes=0"], "'classes'"),
            (["one-inclusion-loo", "--param", "multiset_classes=0"], "'multiset_classes'"),
            (["one-inclusion-loo", "--param", "cross_checks=0"], "'cross_checks'"),
            (["multiclass-inequalities", "--param", "classes=0"], "'classes'"),
            (["agnostic-online-regret", "--param", "adversary_T=-3", "--trials", "2"],
             "'adversary_T'"),
            (["agnostic-online-regret", "--param", "adversary_T=0", "--trials", "2"],
             "'adversary_T'"),
            (["biclique-lower-bound", "--param", "sizes=[1]"],
             "'sizes' must be at least 2, got 1 in [1]"),
            (["biclique-lower-bound", "--param", "sizes=[0]"],
             "'sizes' must be at least 2, got 0 in [0]"),
            (["biclique-lower-bound", "--param", "sizes=[4, -3]"],
             "'sizes' must be at least 2, got -3 in [4, -3]"),
            (["pac-realizable", "--param", "distributions=0"],
             "'distributions' must be at least 1, got 0"),
            (["pac-realizable", "--param", "distributions=-3"],
             "'distributions' must be at least 1, got -3"),
            (["experts-regret", "--param", "matrices=0"],
             "'matrices' must be at least 1, got 0"),
            (["disambiguation-bounds", "--param", "classes=0"],
             "'classes' must be at least 1, got 0"),
            (["soa-mistake-bound", "--param", "classes=0"],
             "'classes' must be at least 1, got 0"),
            (["biclique-lower-bound", "--param", "sizes=[]"], "'sizes' must not be empty"),
            (["agnostic-online-regret", "--param", "T=1"], "'T' must be at least 2, got 1"),
            (["erm-failure", "--param", "m=-1"], "'m' must be at least 0, got -1"),
            (["erm-failure", "--trials", "3", "--param", "trials=5"], "'trials' is given twice"),
        ],
    )
    def test_bad_trial_count(self, args, named, capsys):
        self._fails_naming(["experiment", *args], named, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "erm-failure", "--n", "0", "--seed", "1"],
            ["construct", "erm-failure", "--n", "-2", "--seed", "1"],
            ["experiment", "erm-failure", "--param", "n=0", "--trials", "2", "--seed", "1"],
        ],
    )
    def test_erm_failure_domain_too_small(self, argv, capsys):
        self._fails_naming(argv, "domain size n", capsys)

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--eps", "0", "need 0 < eps < 1, got eps = 0.0"),
            ("--eps", "nan", "need 0 < eps < 1, got eps = nan"),
            ("--eps", "1", "need 0 < eps < 1, got eps = 1.0"),
            ("--delta", "0", "need 0 < delta <= 1, got delta = 0.0"),
        ],
    )
    def test_realizable_eps_or_delta_out_of_range(
        self, flag, value, named, class_file, sample_file, capsys
    ):
        argv = ["learn", "--input", class_file, "--sample", sample_file,
                "--mode", "realizable", flag, value]
        self._fails_naming(argv, named, capsys)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["erm-failure", "--m", "-1", "--seed", "1"],
             "the sample size m must be at least 0, got -1"),
            (["erm-failure", "--trials", "0", "--seed", "1"],
             "trials must be at least 1, got 0"),
            (["biclique", "--complete", "1"], "the vertex count m must be at least 2, got 1"),
            (["margin", "--radius", "1e200"], "m = inf axis points exceed the cap of 12"),
            (["margin", "--radius", "1", "--gamma", "2"], "need radius^2 / gamma^2 >= 1"),
        ],
    )
    def test_construct_count_out_of_range(self, argv, named, capsys):
        self._fails_naming(["construct", *argv], named, capsys)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["online", "--input", "{cls}", "--mode", "soa"],
             "soa mode needs --sample with the round sequence"),
            (["construct", "biclique"], "construct biclique needs --graph or --complete"),
            (["experiment", "geometry", "--param", "streams"],
             "--param needs key=value, got 'streams'"),
            (["dim", "--input", "{dir}", "--measure", "vc"], "{dir}: Is a directory"),
            (["online", "--input", "{cls}", "--mode", "soa", "--sample", "{cls}"],
             "sample: expected a list of [x, y] pairs"),
        ],
        ids=["soa-no-sample", "biclique-no-source", "param-no-value", "input-directory",
             "sample-not-a-list"],
    )
    def test_missing_or_unreadable_input_named(
        self, argv, named, class_file, tmp_path, capsys
    ):
        paths = {"cls": class_file, "dir": str(tmp_path)}
        self._fails_naming([a.format(**paths) for a in argv], named.format(**paths), capsys)

    def test_report_without_checks_does_not_pass(self, monkeypatch, capsys):
        # every count parameter has a least value, so only a suite that
        # returns no records reaches the guard
        suite = experiments.SUITES["soa-mistake-bound"]
        empty = replace(suite, run=lambda seed, classes=200, sequences=20: [])
        monkeypatch.setitem(experiments.SUITES, "soa-mistake-bound", empty)
        argv = ["experiment", "soa-mistake-bound", "--param", "classes=3"]
        named = "ran no checks (params {'classes': 3, 'sequences': 20})"
        self._fails_naming(argv, named, capsys)

    def test_margin_zero_gamma(self, capsys):
        self._fails_naming(["construct", "margin", "--gamma", "0"], "gamma", capsys)

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_margin_non_finite_radius(self, radius, capsys):
        argv = ["construct", "margin", "--radius", radius]
        self._fails_naming(argv, f"radius must be positive and finite, got {radius}", capsys)

    def test_margin_axis_points_over_cap(self, capsys):
        argv = ["construct", "margin", "--radius", "20"]
        self._fails_naming(argv, "m = 400 axis points exceed the cap of 12", capsys)

    def test_gamma_boost_needs_base(self, sample_file, capsys):
        argv = ["construct", "gamma-boost", "--sample", sample_file]
        self._fails_naming(argv, "needs --base", capsys)

    def test_gamma_boost_needs_sample(self, class_file, capsys):
        argv = ["construct", "gamma-boost", "--base", class_file]
        self._fails_naming(argv, "needs --sample", capsys)

    def test_general_margin_empty_grid(self, capsys):
        self._fails_naming(["construct", "general-margin", "--grid", "0"], "--grid", capsys)

    def test_general_margin_grid_over_cap(self, capsys):
        argv = ["construct", "general-margin", "--grid", "31"]
        self._fails_naming(argv, "--grid must lie in 1..30, got 31", capsys)

    @pytest.mark.parametrize("gamma", ["0", "-1", "nan", "inf"])
    def test_general_margin_bad_gamma(self, gamma, capsys):
        argv = ["construct", "general-margin", "--gamma", gamma]
        self._fails_naming(argv, "gamma must be positive and finite", capsys)

    @pytest.mark.parametrize(
        "entry, named",
        [
            ([0.5, 1], "entry 0 [0.5, 1]"),
            ([1, 1.9], "entry 0 [1, 1.9]"),
            ([True, 0], "entry 0 [true, 0]"),
            (["2", "1"], 'entry 0 ["2", "1"]'),
            ([0, 1, 1], "entry 0 [0, 1, 1]"),
            (7, "entry 0 7"),
        ],
        ids=["float-point", "float-label", "bool-point", "strings", "triple", "number"],
    )
    def test_sample_entry_not_an_integer_pair(
        self, entry, named, class_file, tmp_path, capsys
    ):
        path = tmp_path / "sample.json"
        path.write_text(json.dumps([entry, [1, 1]]))
        argv = ["online", "--input", class_file, "--mode", "soa", "--sample", str(path)]
        self._fails_naming(argv, f"sample: {named} must be a pair of integers", capsys)

    @pytest.mark.parametrize(
        "edges, partition, named",
        [
            ([[0.7, 1.2]], [[[0], [1]]], "edge 0 [0.7, 1.2] must be a pair of integers"),
            ([[0, True]], [[[0], [1]]], "edge 0 [0, true] must be a pair of integers"),
            ([[0, 1]], [[[0.0], [1]]], "biclique 0 side [0.0] must be a list of integers"),
            ([[0, 1]], [[[0], ["1"]]], 'biclique 0 side ["1"] must be a list of integers'),
            ([[0, 1]], [[[0]]], "biclique 0 must be a [left, right] pair"),
        ],
        ids=["float-edge", "bool-edge", "float-member", "string-member", "one-sided"],
    )
    def test_graph_entry_not_integers(self, edges, partition, named, tmp_path, capsys):
        path = tmp_path / "graph.json"
        graph = {"vertices": 2, "edges": edges, "partition": partition}
        path.write_text(json.dumps(graph))
        self._fails_naming(["construct", "biclique", "--graph", str(path)], named, capsys)

    def test_graph_side_names_a_vertex_out_of_range(self, tmp_path, capsys):
        # biclique 1 faces an empty side, so no edge it covers reaches 7 or -1
        path = tmp_path / "graph.json"
        graph = {"vertices": 3, "edges": [[0, 1]], "partition": [[[0], [1]], [[7, -1], []]]}
        path.write_text(json.dumps(graph))
        argv = ["construct", "biclique", "--graph", str(path)]
        self._fails_naming(argv, "graph: biclique 1 names vertex -1 out of range", capsys)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["construct", "biclique", "--complete", "1000"],
             "--complete = 1000 exceeds the limit of 300 vertices"),
            (["experiment", "biclique-lower-bound", "--param", "sizes=[4, 1000]"],
             "biclique-lower-bound: a 'sizes' entry = 1000 exceeds the limit of 300 vertices"),
            (["construct", "biclique", "--graph", "{graph}"],
             "graph: vertices = 1000000 exceeds the limit of 300 vertices"),
        ],
        ids=["complete", "suite-sizes", "graph-vertices"],
    )
    def test_biclique_over_its_vertex_limit_refused_at_once(
        self, argv, named, tmp_path, capsys
    ):
        # unbounded, each of these would run for seconds (a 70-byte graph file too)
        path = tmp_path / "graph.json"
        graph = {"vertices": 10**6, "edges": [[0, 1]], "partition": [[[0], [1]]]}
        path.write_text(json.dumps(graph))
        start = time.perf_counter()
        self._fails_naming([a.format(graph=path) for a in argv], named, capsys)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("value", [None, 5, [], "x"], ids=["null", "number", "array", "string"])
    @pytest.mark.parametrize("command", ["dim", "biclique", "gamma-boost"])
    def test_non_object_json(self, value, command, tmp_path, sample_file, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(value))
        argv, where = {
            "dim": (["dim", "--input", str(path), "--measure", "vc"], "class"),
            "biclique": (["construct", "biclique", "--graph", str(path)], "graph"),
            "gamma-boost": (
                ["construct", "gamma-boost", "--base", str(path), "--sample", sample_file],
                "class",
            ),
        }[command]
        self._fails_naming(argv, f"{where}: expected a JSON object", capsys)


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=12), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _spoiled(draw, valid, keys):
    """Any JSON value (one draw in four), a valid object with one field (a key,
    or an entry's index) set to any JSON value (one in four), or a valid one."""
    how = draw(st.integers(0, 3))
    if how == 0:
        return draw(_ANY_JSON)
    obj = draw(valid)
    if how == 1:
        obj[draw(st.sampled_from(keys))] = draw(_ANY_JSON)
    return obj


@st.composite
def _valid_class(draw):
    # at most 4 points and 6 concepts: no query on it is slow
    n = draw(st.integers(2, 4))
    rows = st.text("01*", min_size=n, max_size=n)
    obj = {"domain_size": n, "concepts": draw(st.lists(rows, min_size=1, max_size=6))}
    if draw(st.booleans()):
        obj["names"] = [str(x) for x in range(n)]
    return obj


@st.composite
def _valid_sample(draw):
    # points 0 and 1 lie in every valid class's domain
    pair = st.tuples(st.integers(0, 1), st.integers(0, 1)).map(list)
    return draw(st.lists(pair, min_size=1, max_size=6))


@st.composite
def _valid_graph(draw):
    n = draw(st.integers(2, 5))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique_by=tuple)
    )
    return {"vertices": n, "edges": edges, "partition": [[[u], [v]] for u, v in edges]}


_CLASS_LIKE = _spoiled(_valid_class(), ["domain_size", "concepts", "names"])
_FILE_VALUE = {
    "input": _CLASS_LIKE,
    "base": _CLASS_LIKE,
    "sample": _spoiled(_valid_sample(), [0, -1]),
    "graph": _spoiled(_valid_graph(), ["vertices", "edges", "partition"]),
}
# every command that reads a file flag, with flags that keep valid runs short
_FILE_COMMANDS = [
    *(["dim", "--input", "{input}", "--measure", m] for m in dimensions.MEASURES),
    *(
        ["learn", "--input", "{input}", "--sample", "{sample}", "--mode", m]
        for m in ("realizable", "agnostic", "compress", "ld-compress")
    ),
    ["online", "--input", "{input}", "--mode", "soa", "--sample", "{sample}"],
    ["online", "--input", "{input}", "--mode", "agnostic", "--T", "2", "--trials", "1"],
    ["online", "--input", "{input}", "--mode", "adversary-mistake"],
    ["online", "--input", "{input}", "--mode", "adversary-regret"],
    *(
        ["disambiguate", "--input", "{input}", "--algo", a]
        for a in ("majority", "weighted", "compression", "support")
    ),
    ["construct", "biclique", "--graph", "{graph}"],
    ["construct", "gamma-boost", "--base", "{base}", "--sample", "{sample}"],
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFileFlagFuzz:
    """Any JSON in any file flag: exit 0, 1 or 2, and never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_json_exits_cleanly(self, data, fuzz_dir):
        argv = data.draw(st.sampled_from(_FILE_COMMANDS))
        paths = {}
        for slot in re.findall(r"{(\w+)}", " ".join(argv)):
            paths[slot] = str(fuzz_dir / f"{slot}.json")
            with open(paths[slot], "w") as fh:
                json.dump(data.draw(_FILE_VALUE[slot], label=slot), fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([a.format(**paths) for a in argv])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestScalingTables:
    def test_empty_grid_yields_header_only(self):
        from pcl.experiments import emit_scaling_table

        header, rows = emit_scaling_table("compression-size", [], seed=0)
        assert header == ["m", "measured_size", "envelope"]
        assert rows == []

    def test_measured_within_envelope(self):
        from pcl.experiments import emit_scaling_table

        for name, grid in (
            ("compression-size", [8, 16]),
            ("disambiguation-size", [4, 6, 24]),  # at 24 no random VC-1 class is drawn
        ):
            _, rows = emit_scaling_table(name, grid, seed=2)
            assert all(measured <= envelope for _, measured, envelope in rows)

    def test_default_grid_and_limit_without_the_cli(self, monkeypatch):
        from pcl.experiments import SCALING_TABLES, emit_scaling_table

        ran = []

        def row(n, seed):
            ran.append(n)
            return [n]

        header, _, default, most = SCALING_TABLES["disambiguation-size"]
        monkeypatch.setitem(SCALING_TABLES, "disambiguation-size", (header, row, default, most))
        assert emit_scaling_table("disambiguation-size", None, seed=0)[1] == [[4], [6], [8], [10]]
        ran.clear()
        named = "--grid values of disambiguation-size must lie in 1..24, got 25"
        with pytest.raises(ValueError, match=re.escape(named)):
            emit_scaling_table("disambiguation-size", [4, 25], seed=0)
        assert ran == []  # refused before any row ran

    def test_unknown_table_rejected(self):
        from pcl.experiments import emit_scaling_table

        with pytest.raises(ValueError):
            emit_scaling_table("nonsense", [1], seed=0)


class TestRandomClassGeneration:
    def test_full_cube_when_star_free(self):
        from pcl.experiments import generate_random_class

        cls = generate_random_class(3, 8, 0.0, seed=5)
        assert len(cls) == 8
        assert all(h.is_total() for h in cls)

    def test_all_star_flagged(self):
        from pcl.experiments import generate_random_class

        with pytest.warns(UserWarning, match="distinct concepts"):
            cls = generate_random_class(3, 4, 1.0, seed=5)
        assert len(cls) == 1

    def test_seed_reproducibility(self):
        from pcl.experiments import generate_random_class

        a = generate_random_class(5, 10, 0.3, seed=42)
        b = generate_random_class(5, 10, 0.3, seed=42)
        assert a == b

    def test_infeasible_size_rejected(self):
        from pcl.experiments import generate_random_class

        with pytest.raises(ValueError):
            generate_random_class(2, 5, 0.0, seed=1)
        for n in (0, 25):
            with pytest.raises(ValueError, match="domain size must be between 1 and 24"):
                generate_random_class(n, 1, 0.0, seed=1)


# sha256 of what each command below prints to stdout on the fixed inputs of
# ``golden_inputs``.  A change that alters any printed byte fails here, so
# refactors show that the commands answer as they did.
CLI_SHA256 = {
    "construct-erm-failure": (
        "375eb784027eeac857fa15e7c893a79f"
        "95a526d34b5a1db8aad3aa8893a6fe6b"
    ),
    "construct-gamma-boost": (
        "d57dcab8384ec6dabc102ea78315862f"
        "f6ce6d72dc078868c69356812c67487d"
    ),
    "construct-general-margin": (
        "920dff498294966173f9efd53a10d19c"
        "974e6e607b824cd4fb5229951a309f4f"
    ),
    "construct-margin": (
        "2096a97221fed71090cec8bd4618d826"
        "f19a15e5ea599483b210f59a1c85ab46"
    ),
    "dim-names": (
        "b0a684450612559d22f2da6dcf53d889"
        "3e00a10862ab7359bf159e2d5adc381f"
    ),
    "dim-td-witness": (
        "0bef9176f23c745995296cdb0a5be41b"
        "e5f4b6a5940d5c29e2efa2006dbd5632"
    ),
    "disambiguate-compression": (
        "3058d4acdcac6a555e97d9575368cf93"
        "1af56a037a64a577a15d5a8e181f6d99"
    ),
    "disambiguate-majority": (
        "5bb6525175ae8a3135d2dabfc2375c28"
        "4b6919ea0d3d4229745e0a34517e70e5"
    ),
    "disambiguate-support": (
        "be74a6ee85fb61b5dbd35182d1986cf1"
        "2a8e894253cc0b57ad058e3f408fe7e8"
    ),
    "disambiguate-weighted": (
        "db04bfb2f56390c3603e4914ecc0c9bb"
        "842360a346495750ca9f752a26b6257f"
    ),
    "experiment-stdout": (
        "8ea28f7b43980416f6e648ba8a711c97"
        "e3eb7cad6d78787052e17cab17024696"
    ),
    "learn-agnostic": (
        "bb575b4ea0b5ab54f75bb0ac77107b3e"
        "cb9d694a04abbdee454a6a5b86181870"
    ),
    "learn-realizable": (
        "c4ffc71c4c6f0d2e60d9e29463c7aaf1"
        "0f9d5fa3406d3109ea9da5f347592c96"
    ),
    "online-adversary-mistake": (
        "6d9d2340c4841bdc212033653e20a370"
        "14df9d3f452531b1e4c408f39882cb03"
    ),
    "online-adversary-regret": (
        "f2e60a15cf26fa9b5b2778ce5ab375d7"
        "4788a81d7d845702ac60390c7905be05"
    ),
    "online-agnostic": (
        "a22b279b6c75d5091eeedaf223348209"
        "f50d9d15a3a8dee1a2f8f27fa6ea2cad"
    ),
}

GOLDEN_ARGV = {
    "learn-realizable": [
        "learn", "--input", "{cls}", "--sample", "{long}", "--mode", "realizable",
        "--eps", "0.5", "--delta", "0.5",
    ],
    "learn-agnostic": [
        "learn", "--input", "{cls}", "--sample", "{noisy}", "--mode", "agnostic",
        "--delta", "0.1", "--seed", "7",
    ],
    "online-agnostic": [
        "online", "--input", "{cls}", "--mode", "agnostic",
        "--T", "6", "--trials", "3", "--seed", "5",
    ],
    "online-adversary-mistake": [
        "online", "--input", "{cls}", "--mode", "adversary-mistake",
        "--d", "2",
    ],
    "online-adversary-regret": [
        "online", "--input", "{cls}", "--mode", "adversary-regret",
        "--d", "2", "--T", "4",
    ],
    "construct-margin": ["construct", "margin", "--radius", "3"],
    "construct-general-margin": [
        "construct", "general-margin", "--grid", "4", "--gamma", "1.0",
    ],
    "construct-gamma-boost": [
        "construct", "gamma-boost", "--base", "{base}", "--sample", "{base_sample}",
    ],
    "construct-erm-failure": [
        "construct", "erm-failure", "--n", "6", "--m", "2", "--trials", "20",
        "--seed", "3",
    ],
    "dim-td-witness": ["dim", "--input", "{cls}", "--measure", "td", "--witness"],
    "dim-names": ["dim", "--input", "{named}", "--measure", "vc", "--witness"],
    "disambiguate-compression": ["disambiguate", "--input", "{cls}", "--algo", "compression"],
    "disambiguate-majority": ["disambiguate", "--input", "{cls}", "--algo", "majority"],
    "disambiguate-support": ["disambiguate", "--input", "{cls}", "--algo", "support"],
    "disambiguate-weighted": ["disambiguate", "--input", "{cls}", "--algo", "weighted"],
    "experiment-stdout": ["experiment", "erm-failure", "--seed", "3", "--trials", "50"],
}


@pytest.fixture
def golden_inputs(tmp_path):
    concepts = ["0011", "0101", "1*10", "11*1", "0000", "1111"]
    files = {
        "cls": {"domain_size": 4, "concepts": concepts},
        "named": {"domain_size": 4, "concepts": concepts, "names": ["a", "b", "c", "d"]},
        "long": [[x % 4, 1] for x in range(170)],
        "noisy": [[x % 4, (x // 4) % 2] for x in range(12)],
        "base": {"domain_size": 3, "concepts": ["011", "101", "110"]},
        "base_sample": [[0, 1], [1, 1], [2, 1]],
    }
    paths = {}
    for name, obj in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
    def test_stdout_bytes(self, name, golden_inputs, capsys):
        argv = [arg.format(**golden_inputs) for arg in GOLDEN_ARGV[name]]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CLI_SHA256[name]

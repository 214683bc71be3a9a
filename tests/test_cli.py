import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import sglab
from sglab import RunReport, cli, parse_config_echo, render_report
from sglab.cli import PIPELINES, ConfigError, ExperimentConfig, main
from sglab.experiment import SHOTS_CAP
from sglab.reports import format_value
from test_golden import CASES


class TestReportFormats:
    def report(self):
        return RunReport(
            rows=[{"shot": 0, "word": "110", "product": -1},
                  {"shot": 1, "word": "001", "product": -1}],
            summary={"product_mean": -1.0, "ok": True, "f": 0.1 + 0.2j},
            config={"pipeline": "local", "seed": 3, "shots": 2},
        )

    def test_json_lines_structure(self):
        lines = render_report(self.report(), "json-lines").splitlines()
        records = [json.loads(l) for l in lines]
        assert records[0]["record"] == "config"
        assert [r["record"] for r in records[1:-1]] == ["row", "row"]
        assert records[-1]["record"] == "summary"
        assert records[-1]["f"] == {"re": 0.1, "im": 0.2}

    def test_csv_structure(self):
        lines = render_report(self.report(), "csv").splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "shot,word,product"
        assert lines[2] == "0,110,-1"
        assert lines[-1].startswith("# summary=")
        assert sum(l.startswith("shot,") for l in lines) == 1

    def test_csv_rejects_ragged_rows(self):
        rep = self.report()
        rep.rows[1] = {"shot": 1}
        with pytest.raises(ValueError):
            render_report(rep, "csv")

    def test_float_precision(self):
        text = format_value({"x": 1 / 3})
        assert "0.33333333333333331" in text
        assert float(json.loads(text)["x"]) == 1 / 3

    def test_config_echo_roundtrip(self):
        for fmt in ("json-lines", "csv"):
            text = render_report(self.report(), fmt)
            assert parse_config_echo(text) == self.report().config

    @pytest.mark.parametrize("text", ["", "\n", "[1, 2]\n", '"config"\n', "# config=[1]\n",
                                      "# config=\"a\"\n", '{"record": "row"}\n', "{}\n"],
                             ids=["empty", "blank line", "JSON array", "JSON string", "csv array",
                                  "csv string", "row record", "no record key"])
    def test_config_echo_refuses_text_without_config_record(self, text):
        with pytest.raises(ValueError, match="does not start with a config record"):
            parse_config_echo(text)

    def test_numpy_scalars_serialize(self):
        assert format_value(np.float64(0.5)) == "0.5"
        assert format_value(np.int64(7)) == "7"
        with pytest.raises(TypeError):
            format_value(object())


class TestExperimentConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig(pipeline="local")
        assert cfg.basis == "Z"
        assert abs(abs(cfg.prep().alpha) ** 2 - 0.5) < 1e-12

    def test_rejections(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(pipeline="teleport")
        with pytest.raises(ConfigError):
            ExperimentConfig(pipeline="local", alpha_re=1.0, beta_re=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(pipeline="local", basis="Y")
        with pytest.raises(ConfigError):
            ExperimentConfig(pipeline="local", shots=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(pipeline="joint", observables=["XYZ"])
        with pytest.raises(ConfigError):
            ExperimentConfig(pipeline="sweep", d=[])
        with pytest.raises(ConfigError):
            ExperimentConfig(pipeline="local", format="yaml")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"pipeline": "local", "turbo": True})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"shots": 5})

    def test_roundtrip(self):
        cfg = ExperimentConfig(pipeline="sweep", d=[2, 4], trials=7, seed=1)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("key,value", [
        ("shots", True), ("shots", 1.5), ("shots", 10.0), ("shots", "10"),
        ("trials", False), ("trials", 2.0),
        ("seed", True), ("seed", 3.5), ("seed", "3"),
        ("d", [2, True]), ("d", [2.0]), ("d", [2, 3.5]), ("d", 3),
        ("mixture", 1), ("mixture", "yes"), ("mixture", None),
        ("alpha_re", True), ("alpha_re", "0.5"), ("alpha_re", 10**400),
        ("d", [2, 3, 2]), ("out", 1),
        ("observables", {"IZZ": 1}), ("observables", "IZZ"), ("d", {"3": 1}),
    ])
    def test_rejects_mistyped_values_and_repeated_d(self, key, value):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"pipeline": "sweep", key: value})

    def test_integer_amplitudes_are_accepted_as_floats(self):
        cfg = ExperimentConfig(pipeline="local", alpha_re=1, alpha_im=0, beta_re=0, beta_im=0)
        assert [type(cfg.to_dict()[k]) for k in cli.AMPLITUDES] == [float] * 4

    @pytest.mark.parametrize("pipeline", ["blindness", "absorbing"])
    def test_detector_pipelines_take_one_d(self, pipeline):
        assert ExperimentConfig(pipeline=pipeline, d=[4]).d == [4]
        with pytest.raises(ConfigError, match="exactly one d"):
            ExperimentConfig(pipeline=pipeline, d=[2, 3])


class TestPipelineTable:
    @pytest.mark.parametrize("pipeline,module,name", [
        ("local", "experiment", "run_local_mode"),
        ("joint", "experiment", "run_joint_mode"),
        ("condition", "experiment", "run_condition_mode"),
        ("ordinary", "experiment", "run_ordinary_mode"),
        ("blindness", "decoherence", "run_detector_mode"),
        ("absorbing", "decoherence", "run_detector_mode"),
        ("sweep", "decoherence", "sweep_suppression"),
    ])
    def test_pipeline_table_looks_up_callees_when_called(self, pipeline, module, name,
                                                         monkeypatch):
        # A wrapper installed on the module attribute after import (as a
        # tracer does) must see the call.
        owner = getattr(sglab, module)
        original, calls = getattr(owner, name), []

        def spy(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        config = ExperimentConfig(pipeline=pipeline, d=[2], trials=2, shots=5)
        PIPELINES[pipeline](config, 1)
        assert calls == [name]

    def test_pipeline_table_matches_parser_and_golden_cases(self):
        run_parser = cli._build_parser()._subparsers._group_actions[0].choices["run"]
        [pipeline_arg] = [a for a in run_parser._actions if a.dest == "pipeline"]
        assert len(PIPELINES) == 7
        assert list(pipeline_arg.choices) == list(PIPELINES)
        assert {argv[0] for argv in CASES.values()} == set(PIPELINES)

    def test_parser_is_built_once_and_parsing_leaves_it_unchanged(self):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        first = parser.parse_args(["run", "joint", "--seed", "5", "--observables", "XXX"])
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "nonsense"])
        again = parser.parse_args(["run", "local"])
        assert (first.seed, first.observables) == (5, "XXX")
        assert (again.pipeline, again.seed, again.observables) == ("local", None, None)


def run_cli(args):
    return main(["run"] + args)


class TestCliEndToEnd:
    @pytest.mark.parametrize("pipeline,extra", [
        ("local", ["--shots", "200"]),
        ("joint", ["--observables", "IZZ,ZZI,XXX"]),
        ("condition", []),
        ("ordinary", []),
        ("blindness", ["--d", "3"]),
        ("absorbing", ["--d", "2"]),
        ("sweep", ["--d", "2,4", "--trials", "20"]),
    ])
    def test_every_pipeline_runs(self, pipeline, extra, tmp_path, capsys):
        out = tmp_path / f"{pipeline}.jsonl"
        code = run_cli([pipeline, "--seed", "9", "--out", str(out)] + extra)
        assert code == 0
        assert capsys.readouterr().out.strip() == str(out)
        text = out.read_text()
        echo = parse_config_echo(text)
        assert echo["pipeline"] == pipeline
        assert echo["seed"] == 9
        records = [json.loads(l) for l in text.splitlines()]
        assert records[-1]["record"] == "summary"

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "run.jsonl"
        args = ["local", "--shots", "500", "--seed", "42", "--out", str(out)]
        assert run_cli(args) == 0
        first = out.read_bytes()
        assert run_cli(args) == 0
        assert out.read_bytes() == first

    def test_csv_format(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(["local", "--shots", "50", "--seed", "1",
                        "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "shot,word,product"
        assert len(lines) == 50 + 3

    def test_unseeded_run_records_seed(self, tmp_path):
        out = tmp_path / "run.jsonl"
        assert run_cli(["ordinary", "--out", str(out)]) == 0
        echo = parse_config_echo(out.read_text())
        assert isinstance(echo["seed"], int)
        # the drawn seed reproduces the file exactly
        again = tmp_path / "again.jsonl"
        assert run_cli(["ordinary", "--seed", str(echo["seed"]),
                        "--out", str(again)]) == 0
        assert re.sub(r'"out": "[^"]*"', '"out": X', out.read_text()) \
            == re.sub(r'"out": "[^"]*"', '"out": X', again.read_text())

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"shots": 10, "seed": 5, "basis": "X"}))
        out = tmp_path / "run.jsonl"
        assert run_cli(["local", "--config", str(cfg_path), "--shots", "25",
                        "--out", str(out)]) == 0
        echo = parse_config_echo(out.read_text())
        assert echo["shots"] == 25   # flag wins
        assert echo["basis"] == "X"  # file value survives
        assert echo["seed"] == 5

    def test_out_dir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SGLAB_OUT_DIR", str(tmp_path))
        assert run_cli(["ordinary", "--seed", "1"]) == 0
        path = capsys.readouterr().out.strip()
        assert os.path.dirname(path) == str(tmp_path)
        assert os.path.exists(path)

    def test_exit_code_config_error(self, tmp_path, capsys):
        assert run_cli(["local", "--shots", "0", "--seed", "1",
                        "--out", str(tmp_path / "x")]) == 2
        assert run_cli(["local", "--alpha-re", "1", "--beta-re", "1",
                        "--out", str(tmp_path / "x")]) == 2
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({"turbo": True}))
        assert run_cli(["local", "--config", str(bad_cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("text", [
        "[" * 3000 + "]" * 3000,                     # deeper than the decoder's recursion
        '{"shots": 1' + "0" * 5000 + "}",            # past Python's int-string limit
        "{\"basis\": \"Z\", \"\xff\": 1}",           # not UTF-8 once encoded as latin-1
        "{\"shots\": ",
    ], ids=["nested", "long-int", "not-utf8", "truncated"])
    def test_undecodable_config_file_exits_2(self, text, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text.encode("latin-1"))
        out = tmp_path / "x"
        assert run_cli(["local", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sglab: config error: cannot read config file: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_nul_byte_in_out_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_stream(seed):
            raise AssertionError("stream reached")

        monkeypatch.setattr(sglab.experiment, "stream", no_stream)
        assert run_cli(["local", "--seed", "1", "--out", str(tmp_path / "a\0b")]) == 2
        assert "out must not hold a NUL byte" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="NUL byte"):
            ExperimentConfig(pipeline="local", out="x\0")

    @pytest.mark.parametrize("key,value", [
        ("observables", {"IZZ": 1, "XXX": 2}), ("observables", "ZZI"), ("d", 3),
    ])
    def test_config_file_lists_must_be_lists(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run_cli(["joint", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"config error: {key} must be a list" in capsys.readouterr().err

    def test_exit_code_dimension_cap(self, tmp_path, capsys):
        assert run_cli(["sweep", "--d", "100000", "--seed", "1",
                        "--out", str(tmp_path / "x")]) == 3
        capsys.readouterr()

    def test_shots_over_cap_exit_3_before_drawing(self, tmp_path, capsys, monkeypatch):
        def no_stream(seed):
            raise AssertionError("stream reached")

        monkeypatch.setattr(sglab.experiment, "stream", no_stream)
        out = tmp_path / "x"
        assert run_cli(["local", "--shots", str(SHOTS_CAP + 1), "--seed", "1",
                        "--out", str(out)]) == 3
        assert f"exceed cap {SHOTS_CAP}" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(AssertionError, match="stream reached"):  # the cap itself is allowed
            run_cli(["local", "--shots", str(SHOTS_CAP), "--seed", "1", "--out", str(out)])

    def test_exit_code_io_error(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "out.jsonl"
        assert run_cli(["ordinary", "--seed", "1", "--out", str(missing)]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--alpha-re", "nan", "--d", "2", "--trials", "2"],
        ["sweep", "--beta-im", "nan", "--d", "2", "--trials", "2"],
        ["ordinary", "--alpha-im", "nan"],
    ])
    def test_non_finite_input_exits_2_without_report(self, argv, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert run_cli(argv + ["--seed", "1", "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("pipeline", list(PIPELINES))
    def test_nan_prep_exits_2_before_any_work(self, pipeline, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(cli, "run", no_run)
        out = tmp_path / "run.jsonl"
        assert run_cli([pipeline, "--alpha-re", "nan", "--seed", "1", "--out", str(out)]) == 2
        assert "prep amplitudes" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_report_to_redirected_stdout_stays_intact(self, tmp_path):
        target = tmp_path / "captured.jsonl"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sglab.__file__))}
        with open(target, "wb") as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "sglab.cli", "run", "joint", "--seed", "2",
                 "--out", "/dev/stdout"],
                stdout=fh, stderr=subprocess.PIPE, env=env, cwd=tmp_path, timeout=60)
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in target.read_text().splitlines()]
        assert records[0]["record"] == "config"
        assert records[0]["out"] == "/dev/stdout"
        assert records[-1]["record"] == "summary"

    @pytest.mark.parametrize("pipeline", ["condition", "blindness", "absorbing"])
    def test_csv_with_nested_cells_parses(self, pipeline, tmp_path):
        out = tmp_path / f"{pipeline}.csv"
        assert run_cli([pipeline, "--d", "2", "--seed", "3", "--format", "csv",
                        "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines(keepends=True) if not l.startswith("#")]
        header, *rows = csv.reader(io.StringIO("".join(body)))
        assert rows and all(len(row) == len(header) for row in rows)
        nested = "amplitudes" if pipeline == "condition" else "f_up"
        for row in rows:
            json.loads(row[header.index(nested)])

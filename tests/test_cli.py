import math
import os

import numpy as np
import pytest

from xmargin.cli import main, parse_variant
from xmargin.config import (ConfigError, ExperimentConfig, load_config,
                            parse_config_text, validate)
from xmargin.loss_core import LossFamily
from xmargin.report import render_report, write_csv


def make_dataset(path, n0=20, n1=20, d=4, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for cls, n in ((0, n0), (1, n1)):
        for _ in range(n):
            x = rng.normal(cls * 1.5, 1.0, size=d)
            lines.append(",".join(f"{v:.6f}" for v in x)
                         + "," + ("pos" if cls else "neg"))
    rng.shuffle(lines)
    path.write_text("\n".join(lines) + "\n")


def make_config(path, dataset, outdir, **extra):
    values = {
        "dataset": str(dataset),
        "default_label": "pos",
        "loss_family": "xtreme_margin",
        "lambda1": "1", "lambda2": "1",
        "optimizer": "rmsprop", "alpha": "0.01",
        "epochs": "3", "batch_size": "8",
        "k": "2", "repeats": "2",
        "seed": "7", "scaling": "minmax",
        "test_fraction": "0.3",
        "output_dir": str(outdir),
    }
    values.update({k: str(v) for k, v in extra.items()})
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "toy.csv"
    make_dataset(data)
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    make_config(cfg, data, out)
    return {"data": data, "cfg": cfg, "out": out, "tmp": tmp_path}


class TestConfigParsing:
    def test_round_trip_with_comments(self):
        values = parse_config_text("# comment\nlambda1 = 2.5  # inline\n\nseed=3\n")
        assert values == {"lambda1": 2.5, "seed": 3}

    def test_unknown_key_with_location(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown key"):
            parse_config_text("seed = 1\nbogus = 2\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_bad_value_with_location(self):
        with pytest.raises(ConfigError, match=r"<config>:1: bad value"):
            parse_config_text("epochs = many\n")

    def test_overrides_apply_last(self, workspace):
        cfg = load_config(workspace["cfg"], ["lambda2=99", "epochs=1"])
        assert cfg.lambda2 == 99.0 and cfg.epochs == 1

    def test_unknown_override(self, workspace):
        with pytest.raises(ConfigError, match="unknown override key"):
            load_config(workspace["cfg"], ["nope=1"])

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config("/nonexistent.cfg")

    def test_bool_parsing(self):
        assert parse_config_text("header = true\n")["header"] is True
        assert parse_config_text("header = 0\n")["header"] is False
        with pytest.raises(ConfigError):
            parse_config_text("header = maybe\n")


class TestValidation:
    def test_collects_all_problems(self):
        cfg = ExperimentConfig(dataset="", seed=None, epochs=0, k=1)
        with pytest.raises(ConfigError) as err:
            validate(cfg)
        msg = str(err.value)
        assert "seed is mandatory" in msg
        assert "dataset path is required" in msg
        assert "invalid epochs" in msg
        assert "invalid k" in msg

    def test_dataset_optional_when_not_needed(self):
        cfg = ExperimentConfig(dataset="", seed=1)
        validate(cfg, needs_dataset=False)

    def test_missing_dataset_file(self):
        cfg = ExperimentConfig(dataset="/no/such.csv", seed=1)
        with pytest.raises(ConfigError, match="does not exist"):
            validate(cfg)


class TestReportRendering:
    def test_nested_sections_and_formats(self):
        text = render_report({"a": {"x": 1.5, "flag": True, "none": None},
                              "b": {"list": [1, 0.25]}})
        assert text.splitlines()[0] == "schema_version: 1"
        assert "  x: 1.5" in text
        assert "  flag: true" in text
        assert "  none: null" in text
        assert "  list: [1, 0.25]" in text

    def test_csv_rejects_ragged_rows(self, tmp_path):
        with pytest.raises(ValueError, match="ragged"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2), (3,)])

    def test_csv_repr_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["v"], [(0.1,)])
        assert path.read_text() == "v\n0.1\n"


class TestVariantParsing:
    def test_xm(self):
        p = parse_variant("xm:2:50")
        assert p.family is LossFamily.XTREME_MARGIN
        assert (p.lambda1, p.lambda2) == (2.0, 50.0)

    def test_baselines(self):
        assert parse_variant("bce").family is LossFamily.BCE
        assert parse_variant("hinge").family is LossFamily.HINGE

    def test_malformed(self):
        with pytest.raises(ConfigError):
            parse_variant("xm:1")
        with pytest.raises(ConfigError):
            parse_variant("bce:3")


class TestExitCodes:
    def test_config_error_is_one(self, workspace, capsys):
        bad = workspace["tmp"] / "bad.cfg"
        make_config(bad, "/no/such.csv", workspace["out"])
        assert main(["train", "--config", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_runtime_failure_is_two(self, workspace, capsys):
        # k larger than the smaller class fails inside the CV machinery
        assert main(["cv", "--config", str(workspace["cfg"]),
                     "--override", "k=50"]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_success_is_zero(self, workspace):
        assert main(["loss-curve", "--config", str(workspace["cfg"]),
                     "--samples", "11"]) == 0


class TestTrainCommand:
    def test_outputs_and_row_count(self, workspace):
        assert main(["train", "--config", str(workspace["cfg"])]) == 0
        out = workspace["out"]
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(curves) == 1 + 3  # header + one row per epoch
        report = (out / "report.txt").read_text()
        assert "command: train" in report
        assert (out / "meta.txt").exists()

    def test_null_training_keeps_accuracy_constant(self, workspace):
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--override", "alpha=0", "--override",
                     "optimizer=subgradient"]) == 0
        rows = (workspace["out"] / "curves.csv").read_text().splitlines()[1:]
        accs = {r.split(",")[2] for r in rows}
        assert len(accs) == 1  # parameters never moved


class TestCvCommand:
    def test_report_cardinality(self, workspace):
        assert main(["cv", "--config", str(workspace["cfg"])]) == 0
        report = (workspace["out"] / "report.txt").read_text()
        assert "mean_envelope: [" in report
        assert "repeat_0" in report and "repeat_1" in report
        assert report.count("repeat_means") == 1


class TestGridCommand:
    def test_grid_csv_and_argmax(self, workspace):
        assert main(["grid", "--config", str(workspace["cfg"]),
                     "--override", "repeats=1",
                     "--lambda-grid", "1,1;10,10"]) == 0
        grid = (workspace["out"] / "grid.csv").read_text().splitlines()
        assert grid[0] == "lambda1,lambda2,mean_cv_accuracy,std_cv_accuracy,status"
        assert len(grid) == 3
        assert all(line.endswith(",ok") for line in grid[1:])
        report = (workspace["out"] / "report.txt").read_text()
        assert "argmax:" in report

    def test_argmax_tiebreak_prefers_small_std_then_small_lambda(self):
        # replicate the selection rule on constructed cells
        cells = [(10.0, 10.0, 0.9, 0.05), (1.0, 1.0, 0.9, 0.05),
                 (5.0, 5.0, 0.9, 0.01)]
        best = min(cells, key=lambda c: (-c[2], c[3], c[0], c[1]))
        assert best == (5.0, 5.0, 0.9, 0.01)
        cells = [(10.0, 1.0, 0.9, 0.05), (1.0, 10.0, 0.9, 0.05)]
        best = min(cells, key=lambda c: (-c[2], c[3], c[0], c[1]))
        assert best[0] == 1.0


class TestBoundaryCommand:
    def test_grid_rows_and_probabilities(self, workspace):
        assert main(["boundary", "--config", str(workspace["cfg"]),
                     "--features", "0,1", "--resolution", "5"]) == 0
        rows = (workspace["out"] / "boundary_grid.csv").read_text().splitlines()[1:]
        assert len(rows) == 25
        for r in rows:
            x1, x2, prob, hard = r.split(",")
            assert 0.0 <= float(prob) <= 1.0
            assert int(hard) == (1 if float(prob) >= 0.5 else 0)
        pts = (workspace["out"] / "boundary_points.csv").read_text().splitlines()
        assert len(pts) == 1 + 40

    def test_constant_feature_rejected(self, workspace, capsys):
        path = workspace["tmp"] / "const.csv"
        lines = [f"1.0,{i}.0,{'pos' if i % 2 else 'neg'}" for i in range(10)]
        path.write_text("\n".join(lines) + "\n")
        cfg = workspace["tmp"] / "const.cfg"
        make_config(cfg, path, workspace["out"])
        assert main(["boundary", "--config", str(cfg),
                     "--features", "0,1"]) == 1
        assert "constant" in capsys.readouterr().err

    def test_identical_features_rejected(self, workspace):
        assert main(["boundary", "--config", str(workspace["cfg"]),
                     "--features", "1,1"]) == 1


class TestLossCurveCommand:
    def read_rows(self, out):
        rows = (out / "loss_curve.csv").read_text().splitlines()[1:]
        return [r.split(",") for r in rows]

    def test_endpoints_and_columns(self, workspace):
        assert main(["loss-curve", "--config", str(workspace["cfg"]),
                     "--y-true", "1", "--samples", "101"]) == 0
        rows = self.read_rows(workspace["out"])
        assert len(rows) == 101
        first, last = rows[0], rows[-1]
        assert abs(float(first[1]) - math.e) < 1e-12   # y=0, label 1
        assert abs(float(last[1]) - 0.5) < 1e-12       # y=1, lambda2=1
        for r in rows:
            y = float(r[0])
            assert abs(float(r[4]) - math.exp(abs(1 - y))) < 1e-12

    def test_lambda_zero_correct_piece_is_flat(self, workspace):
        assert main(["loss-curve", "--config", str(workspace["cfg"]),
                     "--override", "lambda2=0", "--samples", "21"]) == 0
        rows = self.read_rows(workspace["out"])
        assert {r[3] for r in rows} == {"1.0"}


class TestBiasCommand:
    def test_table_rows(self, workspace):
        assert main(["bias", "--config", str(workspace["cfg"]),
                     "--variants", "xm:1:50,bce", "--ensemble-size", "2",
                     "--override", "epochs=1"]) == 0
        rows = (workspace["out"] / "bias.csv").read_text().splitlines()
        assert rows[0] == "loss_family,lambda1,lambda2,bias"
        assert len(rows) == 3
        assert rows[1].startswith("xtreme_margin,1.0,50.0,")
        assert rows[2].startswith("bce,N/A,N/A,")
        for r in rows[1:]:
            assert 0.0 <= float(r.split(",")[-1]) <= 1.0

    def test_degenerate_ensemble_warns(self, workspace, monkeypatch):
        import xmargin.cli as cli_mod

        def same_model(input_dim, seed):
            from xmargin.network import build_experiment_model
            return build_experiment_model(input_dim, 1234)

        monkeypatch.setattr(cli_mod, "build_experiment_model", same_model)
        assert main(["bias", "--config", str(workspace["cfg"]),
                     "--variants", "bce", "--ensemble-size", "2",
                     "--override", "alpha=0"]) == 0
        report = (workspace["out"] / "report.txt").read_text()
        assert "degenerate ensemble" in report

    def test_small_ensemble_rejected(self, workspace):
        assert main(["bias", "--config", str(workspace["cfg"]),
                     "--ensemble-size", "1"]) == 1


class TestRiskCommand:
    def test_constant_confidence(self, workspace):
        assert main(["risk", "--config", str(workspace["cfg"]),
                     "--confidence", "0.3,0.7"]) == 0
        rows = (workspace["out"] / "risk.csv").read_text().splitlines()
        assert rows[0] == "instance,predicted_probability,conditional_risk"
        assert len(rows) == 1 + 12  # 30% of each 20-instance class
        for r in rows[1:]:
            risk = float(r.split(",")[2])
            assert 0.0 < risk <= math.e

    def test_requires_exactly_one_confidence_source(self, workspace):
        assert main(["risk", "--config", str(workspace["cfg"])]) == 1
        assert main(["risk", "--config", str(workspace["cfg"]),
                     "--confidence", "0.5,0.5",
                     "--confidence-column", "0"]) == 1

    def test_non_probability_column_rejected_before_training(self, tmp_path, capsys,
                                                            monkeypatch):
        import xmargin.cli as cli_mod

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the confidence column")

        monkeypatch.setattr(cli_mod, "train_loop", no_training)
        root = os.path.join(os.path.dirname(__file__), "..")
        assert main(["risk", "--config", os.path.join(root, "presets", "sonar_table1.cfg"),
                     "--confidence-column", "3",
                     "--override", f"dataset={os.path.join(root, 'data', 'sonar_standin.csv')}",
                     "--override", f"output_dir={tmp_path}"]) == 1
        assert "confidence column 3" in capsys.readouterr().err
        assert not (tmp_path / "risk.csv").exists()

    def test_probability_column_accepted(self, workspace):
        lines = workspace["data"].read_text().splitlines()
        rng = np.random.default_rng(1)
        workspace["data"].write_text("\n".join(f"{rng.random():.4f},{line}"
                                               for line in lines) + "\n")
        assert main(["risk", "--config", str(workspace["cfg"]),
                     "--confidence-column", "0", "--override", "epochs=1"]) == 0
        assert len((workspace["out"] / "risk.csv").read_text().splitlines()) == 1 + 12


class TestDeterminism:
    def test_rerun_is_byte_identical(self, workspace):
        args = ["train", "--config", str(workspace["cfg"])]
        assert main(args) == 0
        first = {name: (workspace["out"] / name).read_bytes()
                 for name in ("report.txt", "curves.csv")}
        assert main(args) == 0
        for name, blob in first.items():
            assert (workspace["out"] / name).read_bytes() == blob


class TestMalformedFlagsExitOne:
    def test_non_numeric_lambda_grid(self, workspace, capsys):
        assert main(["grid", "--config", str(workspace["cfg"]),
                     "--lambda-grid", "1,x"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_single_boundary_feature(self, workspace, capsys):
        assert main(["boundary", "--config", str(workspace["cfg"]),
                     "--features", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_single_confidence_value(self, workspace, capsys):
        assert main(["risk", "--config", str(workspace["cfg"]),
                     "--confidence", "0.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_variant_lambda(self, workspace, capsys):
        assert main(["bias", "--config", str(workspace["cfg"]),
                     "--variants", "xm:1:x,bce"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_confidence_not_a_distribution(self, workspace, capsys):
        assert main(["risk", "--config", str(workspace["cfg"]),
                     "--confidence", "0.3,0.3"]) == 1
        assert "error:" in capsys.readouterr().err

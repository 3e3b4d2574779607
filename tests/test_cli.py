import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xmargin
from xmargin.cli import main, parse_variant
from xmargin.config import (ConfigError, ExperimentConfig, load_config,
                            parse_config_text, validate)
from xmargin.loss_core import LossFamily
from xmargin.report import (Indexed, _fmt, atomic_write, render_report, write_csv,
                            write_report)


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

    def test_scaling_defaults_to_zscore(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["loss-curve", "--config", str(cfg), "--samples", "3"]) == 0
        assert "  scaling: zscore\n" in (tmp_path / "out" / "report.txt").read_text()

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

    def test_negative_seed_exits_one(self, workspace, capsys):
        with pytest.raises(ConfigError, match="invalid seed: -1"):
            validate(ExperimentConfig(seed=-1), needs_dataset=False)
        assert main(["cv", "--config", str(workspace["cfg"]),
                     "--override", "seed=-1"]) == 1
        assert "invalid seed: -1" in capsys.readouterr().err


class TestReportRendering:
    def test_nested_sections_and_formats(self):
        text = render_report({"a": {"x": 1.5, "flag": True, "none": None},
                              "b": {"list": [1, 0.25]}})
        assert text.splitlines()[0] == "schema_version: 1"
        assert "  x: 1.5" in text
        assert "  flag: true" in text
        assert "  none: null" in text
        assert "  list: [1, 0.25]" in text

    def test_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError, match="ragged"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 3], np.array([2])])
        with pytest.raises(ValueError, match="ragged"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 3]])
        assert os.listdir(tmp_path) == []

    def test_csv_repr_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["v"], [np.array([0.1])])
        assert path.read_text() == "v\n0.1\n"


def row_csv(header, rows) -> bytes:
    """Oracle: the row-at-a-time format `write_csv` replaced, `_fmt` on
    every cell of every row."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows]).encode()


def written(path, header, columns) -> bytes:
    write_csv(path, header, columns)
    with open(path, "rb") as fh:
        return fh.read()


FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.225073858507201e-308])
SCALARS = st.one_of(
    st.none(), st.text(), st.booleans(), st.integers(), FLOATS, FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_))


class TestColumnWriter:
    @given(st.integers(0, 30).flatmap(lambda n: st.tuples(*(
        st.lists(cells, min_size=n, max_size=n)
        for cells in (FLOATS, st.integers(-2**63, 2**63 - 1), st.booleans(), SCALARS)))))
    @settings(max_examples=150, deadline=None)
    def test_matches_row_oracle(self, tmp_path_factory, table):
        floats, ints, bools, mixed = table
        columns = [np.array(floats), np.array(ints, dtype=np.int64), np.array(bools), mixed]
        header = ["f", "i", "b", "mixed"]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        assert written(path, header, columns) == row_csv(header, zip(*columns))

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
    def test_block_edges_match_row_oracle(self, tmp_path, n):
        rng = np.random.default_rng(n)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
        floats[::97] = np.resize(specials, len(floats[::97]))
        mixed = [("ok", None, 7, np.float64(0.25), np.int64(-3), "N/A")[i % 6]
                 for i in range(n)]
        columns = [floats, rng.integers(-10**15, 10**15, n), rng.random(n) < 0.5, mixed]
        header = ["f", "i", "b", "mixed"]
        assert written(tmp_path / "t.csv", header, columns) == row_csv(header, zip(*columns))

    @given(st.lists(FLOATS, min_size=1, max_size=4).flatmap(
        lambda pool: st.tuples(st.just(pool), st.lists(st.integers(0, len(pool) - 1),
                                                       max_size=60))))
    @settings(max_examples=150, deadline=None)
    def test_indexed_column_matches_row_oracle(self, tmp_path_factory, drawn):
        # a pool of at most four values, so most cells repeat one
        values, index = np.array(drawn[0], dtype=np.float64), np.array(drawn[1], dtype=np.int64)
        column = values[index]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        assert (written(path, ["g", "f"], [Indexed(values, index), column])
                == row_csv(["g", "f"], zip(column, column)))

    def test_signed_zeros_and_nan_payloads(self, tmp_path):
        payloads = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                             0x7FF0000000000001], dtype=np.uint64).view(np.float64)
        values = np.concatenate([[0.0, -0.0, 1.0], payloads])
        assert all(math.isnan(v) for v in payloads)
        index = np.array([0, 1, 2, 1, 3, 4, 5, 6, 0, 3, 4, 5, 6])
        column = values[index]
        got = written(tmp_path / "t.csv", ["g", "f"], [Indexed(values, index), column])
        assert got == row_csv(["g", "f"], zip(column, column))
        assert got.decode().split("\n")[1:5] == ["0.0,0.0", "-0.0,-0.0", "1.0,1.0", "-0.0,-0.0"]

    def test_float32_values_match_row_oracle(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=700).astype(np.float32)
        values[:4] = [np.float32(0.1), -0.0, np.nan, np.float32(3e-45)]
        index = rng.integers(0, len(values), 5000)
        column = values[index]
        assert (written(tmp_path / "t.csv", ["g", "f"], [Indexed(values, index), column])
                == row_csv(["g", "f"], zip(column, column)))

    @pytest.mark.parametrize("n", [0, 4095, 4096, 4097, 2 * 4096 + 1])
    def test_grid_axes_across_block_edges(self, tmp_path, n):
        # the first n rows of a 600x600 boundary grid: x1 tiles a 600-value
        # axis, x2 repeats each value of another
        steps = np.arange(600)
        g1, g2 = np.linspace(-2.7, 3.1, 600), np.linspace(0.4, 9.0, 600)
        x1, x2 = (g.ravel()[:n] for g in np.meshgrid(g1, g2))
        columns = [Indexed(g1, np.tile(steps, 600)[:n]), Indexed(g2, np.repeat(steps, 600)[:n])]
        assert (written(tmp_path / "t.csv", ["x1", "x2"], columns)
                == row_csv(["x1", "x2"], zip(x1, x2)))

    def test_memory_is_bounded_by_a_block(self, tmp_path):
        n = 100_000
        rng = np.random.default_rng(0)
        columns = [rng.normal(size=n), rng.normal(size=n), rng.random(n),
                   rng.integers(0, 2, n)]
        header = ["x1", "x2", "probability", "hard_label"]
        write_csv(tmp_path / "warm.csv", header, [c[:10] for c in columns])
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", header, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_atomic_write_is_utf8_under_an_ascii_locale(self, tmp_path):
        text = "output_dir: out/ünïcødé/résumé ✓ 数据\n"
        path = tmp_path / "report.txt"
        env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.path.dirname(os.path.dirname(xmargin.__file__))}
        code = ("import sys; from xmargin.report import atomic_write; "
                f"atomic_write(sys.argv[1], [{ascii(text)}])")
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
        assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_new_files_take_the_umask(self, tmp_path, umask, mode):
        # as a plain open creates them: 0o666 less the umask
        path = tmp_path / "report.txt"
        old = os.umask(umask)
        try:
            write_report(str(path), {"a": 1})
            write_csv(str(tmp_path / "t.csv"), ["x"], [[1.0]])
        finally:
            os.umask(old)
        assert os.stat(path).st_mode & 0o777 == mode
        assert os.stat(tmp_path / "t.csv").st_mode & 0o777 == mode

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report(str(path), {"a": 1})

        def chunks():
            yield "partial\n"
            raise RuntimeError("mid-stream")

        with pytest.raises(RuntimeError, match="mid-stream"):
            atomic_write(str(path), chunks())
        assert path.read_text() == render_report({"a": 1})
        assert os.listdir(tmp_path) == ["report.txt"]


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


class TestUtf8Inputs:
    """Configs and datasets are read as UTF-8, whatever the locale."""

    def test_non_ascii_config_and_labels_under_an_ascii_locale(self, workspace):
        data, cfg = workspace["data"], workspace["cfg"]
        data.write_text(data.read_text().replace(",neg", ",négatif"), encoding="utf-8")
        cfg.write_text("# λ sweep ✓\n" + cfg.read_text(), encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.path.dirname(os.path.dirname(xmargin.__file__))}
        for command in ("loss-curve", "train"):
            proc = subprocess.run([sys.executable, "-m", "xmargin.cli", command,
                                   "--config", str(cfg)],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr

    def test_output_dir_the_file_system_cannot_encode_is_a_config_error(self, workspace):
        cfg, out = workspace["cfg"], workspace["out"]
        cfg.write_text(cfg.read_text().replace(f"output_dir = {out}",
                                               f"output_dir = {out}/résumé"),
                       encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.path.dirname(os.path.dirname(xmargin.__file__))}
        proc = subprocess.run([sys.executable, "-m", "xmargin.cli", "loss-curve",
                               "--config", str(cfg), "--samples", "3"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert "output_dir" in proc.stderr
        assert not out.exists()

    def test_config_that_is_not_utf8_is_a_config_error(self, workspace, capsys):
        workspace["cfg"].write_bytes(b"# \xff\n" + workspace["cfg"].read_bytes())
        assert main(["train", "--config", str(workspace["cfg"])]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_dataset_that_is_not_utf8_is_a_runtime_failure(self, workspace, capsys):
        data = workspace["data"]
        data.write_bytes(data.read_bytes().replace(b",neg", b",n\xe9g"))
        assert main(["train", "--config", str(workspace["cfg"])]) == 2
        assert f"{data}: not UTF-8 text" in capsys.readouterr().err


class TestExitCodes:
    def test_config_error_is_one(self, workspace, capsys):
        bad = workspace["tmp"] / "bad.cfg"
        make_config(bad, "/no/such.csv", workspace["out"])
        assert main(["train", "--config", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["default_label=Q", "label_column=99"])
    def test_label_choice_not_in_the_file_is_one(self, workspace, capsys, override):
        assert main(["train", "--config", str(workspace["cfg"]),
                     "--override", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and ("default label 'Q'" in err
                                             or "label column 99" in err)

    def test_runtime_failure_is_two(self, workspace, capsys):
        # a feature cell that is not a number fails while the data is read
        lines = workspace["data"].read_text().splitlines()
        lines[3] = "oops," + lines[3].split(",", 1)[1]
        workspace["data"].write_text("\n".join(lines) + "\n")
        assert main(["cv", "--config", str(workspace["cfg"])]) == 2
        assert "runtime failure" in capsys.readouterr().err

    # each class of the toy data has 20 members; label column 0 holds features
    @pytest.mark.parametrize("argv,message", [
        (["train", "--override", "label_column=0"], "exactly two classes in label column 0"),
        (["cv", "--override", "k=50"], "fewer than k=50"),
        (["grid", "--override", "k=50", "--lambda-grid", "1,1;2,2"], "fewer than k=50"),
        (["train", "--override", "test_fraction=0.999"], "too small for test_fraction"),
        (["bias", "--override", "test_fraction=0.999"], "too small for test_fraction"),
        (["risk", "--override", "test_fraction=0.999", "--confidence", "0.5,0.5"],
         "too small for test_fraction"),
    ], ids=["label_column=0", "cv-k=50", "grid-k=50", "train-test_fraction",
            "bias-test_fraction", "risk-test_fraction"])
    def test_config_value_that_does_not_fit_the_data_is_one(self, workspace, capsys,
                                                            monkeypatch, argv, message):
        import xmargin.cli as cli_mod

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked against the data")

        for name in ("train_models", "train_loop"):
            monkeypatch.setattr(cli_mod, name, no_training)
        assert main([argv[0], "--config", str(workspace["cfg"]), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1  # a grid fails once, not once per cell

    @pytest.mark.parametrize("command", ["cv", "train"])
    def test_unwritable_output_dir_is_two(self, workspace, capsys, monkeypatch, command):
        import xmargin.cli as cli_mod

        trained = []
        for name in ("train_models", "train_loop"):
            monkeypatch.setattr(cli_mod, name, lambda *args, **kwargs: trained.append(1))
        blocker = workspace["tmp"] / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        assert main([command, "--config", str(workspace["cfg"]), "--override",
                     f"output_dir={blocker / 'out'}"]) == 2
        assert "runtime failure" in capsys.readouterr().err
        assert trained == []

    @pytest.mark.parametrize("argv", [["--version"], ["cv", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out

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
    def grid_rows(self, workspace, resolution):
        assert main(["boundary", "--config", str(workspace["cfg"]),
                     "--features", "0,1", "--resolution", str(resolution)]) == 0
        rows = (workspace["out"] / "boundary_grid.csv").read_text().splitlines()[1:]
        # meshgrid order: x1 steps along each row of the grid, x2 down it
        x1, x2 = zip(*(r.split(",")[:2] for r in rows))
        assert x1 == x1[:resolution] * resolution
        assert x2 == tuple(v for v in x2[::resolution] for _ in range(resolution))
        assert len(set(x1)) == len(set(x2)) == resolution
        return rows

    def test_grid_rows_and_probabilities(self, workspace):
        rows = self.grid_rows(workspace, 5)
        assert len(rows) == 25
        for r in rows:
            x1, x2, prob, hard = r.split(",")
            assert 0.0 <= float(prob) <= 1.0
            assert int(hard) == (1 if float(prob) >= 0.5 else 0)
        pts = (workspace["out"] / "boundary_points.csv").read_text().splitlines()
        assert len(pts) == 1 + 40

    def test_grid_order_across_row_blocks(self, workspace):
        assert len(self.grid_rows(workspace, 65)) == 65 ** 2

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
    @pytest.mark.parametrize("argv", [
        ["boundary", "--config", "{cfg}", "--resolution", "abc"],
        ["boundary", "--resolution", "5"],
        ["frobnicate", "--config", "{cfg}"],
        ["loss-curve", "--config", "{cfg}", "--y-true", "5"],
        ["bias", "--config", "{cfg}", "--ensemble-size", "two"],
        ["bias", "--config", "{cfg}", "--variants", ","],
    ])
    def test_usage_error(self, workspace, capsys, argv):
        # a usage error returns 1 like any other bad input: no SystemExit
        assert main([a.format(cfg=workspace["cfg"]) for a in argv]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_lambda_grid(self, workspace, capsys):
        assert main(["grid", "--config", str(workspace["cfg"]),
                     "--lambda-grid", "1,x"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1,1;1,-1", "nan,1;1,1"])
    def test_invalid_lambda_grid_cell_before_training(self, workspace, capsys,
                                                      monkeypatch, grid):
        import xmargin.cli as cli_mod

        def no_training(*args, **kwargs):
            raise AssertionError("trained a grid cell before checking them all")

        monkeypatch.setattr(cli_mod, "train_models", no_training)
        assert main(["grid", "--config", str(workspace["cfg"]),
                     "--lambda-grid", grid]) == 1
        assert "must be finite and >= 0" in capsys.readouterr().err
        assert not (workspace["out"] / "grid.csv").exists()

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

    @pytest.mark.parametrize("confidence", ["nan,nan", "nan,1"])
    def test_confidence_not_finite(self, workspace, capsys, confidence):
        assert main(["risk", "--config", str(workspace["cfg"]),
                     "--confidence", confidence]) == 1
        assert "error:" in capsys.readouterr().err

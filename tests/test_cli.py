import ast
import dataclasses
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import xmargin
from xmargin import cli, data_pipeline, optimizer
from xmargin.cli import _accuracy_metric, main, parse_variant
from xmargin.config import (ConfigError, ExperimentConfig, load_config,
                            parse_config_text, validate)
from xmargin.data_pipeline import (CELL, DRAWS, INIT, MEMBER, MODEL, PARTITION, SPLIT,
                                   CvReport, Scaling, apply_scaler, fit_scaler, repeated_cv,
                                   stream)
from xmargin.loss_core import Branch, LossFamily, LossParams, branches
from xmargin.metrics import scores
from xmargin.network import build_boundary_model, build_experiment_model
from xmargin.optimizer import Method, OptimizerConfig, train
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


@pytest.fixture
def no_training(monkeypatch):
    """Any training fails the run: an input must be rejected before it."""

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the input was checked")

    for name in ("train_models", "train_loop"):
        monkeypatch.setattr(cli, name, no_training)


REPO = pathlib.Path(__file__).resolve().parents[1]
# the environment of a child Python that imports this xmargin, and the same
# under an ASCII locale, with UTF-8 mode and locale coercion off
CHILD_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(xmargin.__file__))}
ASCII_CHILD_ENV = {**CHILD_ENV, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0",
                   "PYTHONCOERCECLOCALE": "0"}
# the sonar preset on its stand-in dataset
SONAR = ["--config", str(REPO / "presets" / "sonar_table1.cfg"),
         "--override", f"dataset={REPO / 'data' / 'sonar_standin.csv'}"]
PRESETS = sorted(p.name for p in (REPO / "presets").glob("*.cfg"))

# each enum-valued key, every member of its enum, and a spelling of the member
# in mixed case and one in upper case with '-' for '_'
ENUM_SPELLINGS = [(key, m, spelling)
                  for key, kind in {"loss_family": LossFamily, "optimizer": Method,
                                    "scaling": Scaling}.items()
                  for m in kind
                  for spelling in (m.value.title(), m.value.upper().replace("_", "-"))]


class TestConfigParsing:
    @pytest.mark.parametrize("key,value,spelling", ENUM_SPELLINGS,
                             ids=[f"{key}={spelling}" for key, _, spelling in ENUM_SPELLINGS])
    def test_enum_value_in_any_case_or_dash_form(self, workspace, key, value, spelling):
        assert getattr(load_config(workspace["cfg"], [f"{key}={spelling}"]), key) is value

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_preset_loads_and_validates(self, monkeypatch, preset):
        monkeypatch.chdir(REPO)  # a preset names its dataset relative to the repository
        validate(load_config(f"presets/{preset}"))

    def test_round_trip_with_comments(self):
        values = parse_config_text("# comment\nlambda1 = 2.5  # inline\n\nseed=3\n")
        assert values == {"lambda1": 2.5, "seed": 3}

    def test_unknown_key_with_location(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown key"):
            parse_config_text("seed = 1\nbogus = 2\n")

    def test_line_without_equals_with_location(self):
        with pytest.raises(ConfigError,
                           match=r"^<config>:2: expected 'key = value', got 'epochs 5'$"):
            parse_config_text("seed = 1\nepochs 5\n")

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

    def test_byte_order_mark_is_skipped(self, workspace):
        cfg = workspace["cfg"]
        plain = load_config(cfg)
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert load_config(cfg) == plain

    def test_scaling_defaults_to_zscore(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["loss-curve", "--config", str(cfg), "--samples", "3"]) == 0
        assert "  scaling: zscore\n" in (tmp_path / "out" / "report.txt").read_text()

    def test_readme_table_names_every_config_key(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | type | default | accepted values |\n", 1)[1]
        keys = re.findall(r"^\| `(\w+)` \|", table.split("\n\n", 1)[0], re.M)
        assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]

    def test_readme_quick_start_runs(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        exec(re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1), {})

    def test_bool_parsing(self):
        assert parse_config_text("header = true\n")["header"] is True
        assert parse_config_text("header = 0\n")["header"] is False
        with pytest.raises(ConfigError):
            parse_config_text("header = maybe\n")


class TestValidation:
    def test_one_config_error_class(self):
        assert ConfigError is data_pipeline.ConfigError is cli.ConfigError
        assert issubclass(data_pipeline.LabelChoiceError, data_pipeline.IngestionError)
        assert issubclass(data_pipeline.LabelChoiceError, ConfigError)

    def test_collects_all_problems(self):
        cfg = ExperimentConfig(dataset="", seed=None, epochs=0, k=1, output_dir="")
        with pytest.raises(ConfigError) as err:
            validate(cfg)
        msg = str(err.value)
        assert "seed is mandatory" in msg
        assert "dataset path is required" in msg
        assert "output_dir is empty" in msg
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

    @pytest.mark.parametrize("scalar,text", [
        (np.float64(0.1), "0.1"), (np.float32(0.1), "0.10000000149011612"),
        (np.float64(math.nan), "nan"), (np.int64(-3), "-3"), (np.uint8(1), "1"),
        (np.bool_(False), "false")], ids=repr)
    def test_numpy_scalar_is_written_as_its_python_scalar(self, scalar, text):
        assert _fmt(scalar) == _fmt(scalar.item()) == text

    @pytest.mark.parametrize("command,key", [("loss-curve", "output_dir"),
                                             ("train", "dataset")])
    def test_a_line_break_in_a_config_string_adds_no_report_key(self, workspace,
                                                                command, key):
        value = str(workspace["tmp"] / "x\n  fake: 1")
        if key == "dataset":
            shutil.copy(workspace["data"], value)  # a file name may hold a line break
        assert main([command, "--config", str(workspace["cfg"]),
                     "--override", f"{key}={value}"]) == 0
        out = value if key == "output_dir" else workspace["out"]
        lines = (pathlib.Path(out) / "report.txt").read_text().splitlines()
        start = lines.index("config:") + 1
        end = next(i for i in range(start, len(lines)) if not lines[i].startswith("  "))
        echoed = dict(line[2:].split(": ", 1) for line in lines[start:end])
        assert list(echoed) == [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert ast.literal_eval(echoed[key]) == value

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
# 1e-4 and 1e16 and their neighbours: where repr's notation turns to an exponent
NOTATION_EDGES = [sign * x for edge in (1e-4, 1e16) for sign in (1.0, -1.0)
                  for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf))]
SCALARS = st.one_of(
    st.none(), st.text(), st.booleans(), st.integers(), FLOATS, FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_))


# every int and uint width and bool, each in native and in swapped byte order
INT_DTYPES = list(dict.fromkeys(np.dtype(code).newbyteorder(order)
                                for code in ("b", "h", "i", "q", "B", "H", "I", "Q")
                                for order in "=S")) + [np.dtype(bool)]


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
        # a strided float column, as boundary_points.csv passes feats[:, 0]
        feats = np.column_stack([rng.random(n), floats])
        columns = [floats, rng.integers(-10**15, 10**15, n), rng.random(n) < 0.5, mixed,
                   feats[:, 0]]
        header = ["f", "i", "b", "mixed", "strided"]
        assert written(tmp_path / "t.csv", header, columns) == row_csv(header, zip(*columns))

    @given(st.lists(st.floats() | st.sampled_from(NOTATION_EDGES), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_float_cells_are_repr_bytes(self, tmp_path_factory, values):
        # float cells are formatted in bulk; each must still read as its repr,
        # across the ranges where the bulk formatter's notation differs from it
        column = np.array(values, dtype=np.float64)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        assert written(path, ["f"], [column]) == row_csv(["f"], zip(column))

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
    @given(seed=st.integers(0, 2**32 - 1),
           strided=st.lists(st.booleans(), min_size=len(INT_DTYPES), max_size=len(INT_DTYPES)))
    # a smaller seed is no simpler example, so a failure is reported unshrunk
    @settings(max_examples=10, deadline=None, phases=set(Phase) - {Phase.shrink})
    def test_int_and_bool_columns_match_row_oracle(self, tmp_path_factory, n, seed, strided):
        # every int and uint width and bool, in native and swapped byte order,
        # each column contiguous or every other element of a longer array
        rng = np.random.default_rng(seed)
        columns = []
        for dtype, every_other in zip(INT_DTYPES, strided):
            if dtype.kind == "b":
                values, ends = rng.random(2 * n) < 0.5, [False, True]
            else:
                info = np.iinfo(dtype)
                values = rng.integers(info.min, info.max, 2 * n, endpoint=True,
                                      dtype=dtype.newbyteorder("="))
                ends = [info.min, info.max]
            values = values.astype(dtype)
            column = values[::2] if every_other else values[:n]
            column[:2] = ends[:n]  # both ends of the range head the column
            columns.append(column)
        header = [dtype.str for dtype in INT_DTYPES]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        assert written(path, header, columns) == row_csv(header, zip(*columns))

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
        half = column.astype(np.float16)
        half[:3] = [np.float16(6e-8), np.float16(65504), np.inf]  # a subnormal, the max
        header = ["g", "f", "h"]
        assert (written(tmp_path / "t.csv", header, [Indexed(values, index), column, half])
                == row_csv(header, zip(column, column, half)))

    @pytest.mark.parametrize("n", [0, 4095, 4096, 4097, 2 * 4096 + 1])
    def test_grid_axes_across_block_edges(self, tmp_path, n):
        # the first n rows of a 600x600 boundary grid: x1 tiles a 600-value
        # axis, x2 repeats each value of another, and the hard label is its
        # mask's uint8 view
        steps = np.arange(600)
        g1, g2 = np.linspace(-2.7, 3.1, 600), np.linspace(0.4, 9.0, 600)
        x1, x2 = (g.ravel()[:n] for g in np.meshgrid(g1, g2))
        mask = np.random.default_rng(n).random(n) >= 0.5
        columns = [Indexed(g1, np.tile(steps, 600)[:n]), Indexed(g2, np.repeat(steps, 600)[:n]),
                   mask.view(np.uint8)]
        header = ["x1", "x2", "hard_label"]
        assert (written(tmp_path / "t.csv", header, columns)
                == row_csv(header, zip(x1, x2, mask.astype(np.int64))))

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

    def test_importing_the_cli_does_not_import_orjson(self):
        # only a command that writes a numpy column pays for the import
        code = "import sys, xmargin.cli; sys.exit('orjson' in sys.modules)"
        subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, check=True)

    def test_cv_and_train_runs_do_not_import_orjson(self, workspace):
        # they write no numpy column (train's curves.csv is tuples), so the
        # formatter's lazy import is never reached
        code = ("import sys; from xmargin.cli import main; "
                "assert main(['train', '--config', sys.argv[1]]) == 0; "
                "assert main(['cv', '--config', sys.argv[1]]) == 0; "
                "sys.exit('orjson' in sys.modules)")
        subprocess.run([sys.executable, "-c", code, str(workspace["cfg"])], env=CHILD_ENV,
                       check=True)
        assert (workspace["out"] / "curves.csv").exists()

    def test_atomic_write_is_utf8_under_an_ascii_locale(self, tmp_path):
        text = "output_dir: out/ünïcødé/résumé ✓ 数据\n"
        path = tmp_path / "report.txt"
        code = ("import sys; from xmargin.report import atomic_write; "
                f"atomic_write(sys.argv[1], [{ascii(text)}])")
        subprocess.run([sys.executable, "-c", code, str(path)], env=ASCII_CHILD_ENV, check=True)
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

    @pytest.mark.parametrize("spec,params", [
        ("XM:1:2", LossParams(1.0, 2.0)), ("Xtreme-Margin:1:2", LossParams(1.0, 2.0)),
        ("BCE", LossParams(family=LossFamily.BCE)),
        ("Hinge", LossParams(family=LossFamily.HINGE))])
    def test_family_in_any_case_or_dash_form(self, spec, params):
        assert parse_variant(spec) == params

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
        for command in ("loss-curve", "train"):
            proc = subprocess.run([sys.executable, "-m", "xmargin.cli", command,
                                   "--config", str(cfg)],
                                  env=ASCII_CHILD_ENV, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr

    def test_output_dir_the_file_system_cannot_encode_is_a_config_error(self, workspace):
        cfg, out = workspace["cfg"], workspace["out"]
        cfg.write_text(cfg.read_text().replace(f"output_dir = {out}",
                                               f"output_dir = {out}/résumé"),
                       encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "xmargin.cli", "loss-curve",
                               "--config", str(cfg), "--samples", "3"],
                              env=ASCII_CHILD_ENV, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert "output_dir" in proc.stderr
        assert not out.exists()

    def test_config_that_is_not_utf8_is_a_config_error(self, workspace, capsys):
        workspace["cfg"].write_bytes(b"# \xff\n" + workspace["cfg"].read_bytes())
        assert main(["train", "--config", str(workspace["cfg"])]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_byte_order_marks_give_the_plain_files_payload(self, workspace):
        data, cfg, out = workspace["data"], workspace["cfg"], workspace["out"]
        assert main(["train", "--config", str(cfg)]) == 0
        plain = (out / "curves.csv").read_bytes()
        for path in (data, cfg):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["train", "--config", str(cfg), "--override", f"output_dir={out}-bom"]) == 0
        assert (workspace["tmp"] / "out-bom" / "curves.csv").read_bytes() == plain


OVERFLOW = "runtime failure: model 0: non-finite parameters after epoch 1\n"


class TestExitCodes:
    # a step that overflows fails the run once, naming the model, with no numpy
    # warnings beside it: the pattern must match the whole of stderr
    @pytest.mark.parametrize("argv,stderr", [
        ("cv --config {cfg} --override alpha=1e308 --override repeats=1"
         " --override epochs=1".split(" "),
         r"runtime failure: CV cell failed at repeat 0, fold 0: "
         r"model 0: non-finite training loss at epoch 1, step \d+\n"),
        # one step per epoch, so the overflowed parameters are met when the
        # epoch is scored, not by the next step's loss
        ("train --config {cfg} --override alpha=1e308 --override batch_size=1000"
         " --override epochs=2".split(" "), re.escape(OVERFLOW)),
        # no evaluation data, one step and one epoch: only the check after the
        # epoch meets the overflowed parameters before the result is built
        (["risk", *SONAR, *"--confidence 0.25,0.75 --override epochs=1 --override"
          " batch_size=1000 --override alpha=1e308 --override output_dir={out}".split(" ")],
         re.escape(OVERFLOW)),
    ], ids=["cv", "train", "risk"])
    def test_overflowing_run_fails_with_one_stderr_line(self, workspace, argv, stderr):
        proc = subprocess.run([sys.executable, "-m", "xmargin.cli",
                               *(a.format(cfg=workspace["cfg"], out=workspace["out"])
                                 for a in argv)],
                              env=CHILD_ENV, capture_output=True, text=True)
        assert proc.returncode == 2
        assert re.fullmatch(stderr, proc.stderr), proc.stderr
        assert not workspace["out"].exists()

    @pytest.mark.parametrize("command", ["cv", "train"])
    def test_unwritable_output_dir_is_two(self, workspace, capsys, monkeypatch, command):
        trained = []
        for name in ("train_models", "train_loop"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: trained.append(1))
        blocker = workspace["tmp"] / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        assert main([command, "--config", str(workspace["cfg"]), "--override",
                     f"output_dir={blocker / 'out'}"]) == 2
        assert "runtime failure" in capsys.readouterr().err
        assert trained == []

    @pytest.mark.parametrize("argv,code", [
        (["grid", "--lambda-grid", "1,1", "--override", "k=500"], 1),
        (["train"], 2),  # with a feature cell that is not a number
    ], ids=["grid-k=500", "unparseable-cell"])
    def test_rejected_run_leaves_no_output_dir(self, workspace, capsys, no_training,
                                               argv, code):
        if code == 2:
            lines = workspace["data"].read_text().splitlines()
            lines[3] = "oops," + lines[3].split(",", 1)[1]
            workspace["data"].write_text("\n".join(lines) + "\n")
        fresh = workspace["tmp"] / "fresh"
        assert main([argv[0], "--config", str(workspace["cfg"]), *argv[1:],
                     "--override", f"output_dir={fresh / 'a' / 'b'}"]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not fresh.exists()

    def test_rejected_run_keeps_a_directory_that_was_there(self, workspace, no_training):
        kept = workspace["tmp"] / "kept"
        kept.mkdir()
        for out in (kept, kept / "a" / "b"):
            assert main(["cv", "--config", str(workspace["cfg"]), "--override", "k=500",
                         "--override", f"output_dir={out}"]) == 1
            assert os.listdir(kept) == []

    @pytest.mark.parametrize("argv", [["--version"], ["cv", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out

    def test_success_is_zero(self, workspace):
        assert main(["loss-curve", "--config", str(workspace["cfg"]),
                     "--samples", "11"]) == 0


MISSING = None  # the key left out of the config

# each config key -> its bad values: missing, empty, negative, NaN, +-inf, the
# wrong type, spellings of an enum value that are not its value (the loss
# family's `xm` is only a --variants shorthand), and values that do not fit the
# toy data (20 rows per class, four features, the label in column 4), as they
# apply to the key
BAD_CONFIG_VALUES = {
    "dataset": [MISSING, "", "/no/such.csv", "{tmp}"],
    "label_column": ["", "-99", "nan", "inf", "1.5", "99", "0"],
    "default_label": ["Q"],
    "header": ["", "-1", "maybe"],
    "loss_family": ["", "-1", "nope", "xtrememargin", "binary_cross_entropy",
                    "binarycrossentropy", "xm"],
    "lambda1": ["", "-1", "nan", "inf", "-inf", "x"],
    "lambda2": ["", "-1", "nan", "inf", "-inf", "x"],
    "optimizer": ["", "-1", "nope", "subgradient_descent", "sgd_sub"],
    "alpha": ["", "-1", "nan", "inf", "-inf", "x"],
    "epochs": ["", "0", "-1", "nan", "inf", "1.5"],
    "batch_size": ["", "0", "-1", "nan", "inf", "1.5"],
    "k": ["", "1", "-2", "nan", "inf", "2.5"],
    "repeats": ["", "0", "-1", "nan", "inf", "x"],
    "seed": [MISSING, "", "-1", "nan", "inf", "x"],
    "scaling": ["", "-1", "nope"],
    "test_fraction": ["", "0", "1", "-0.3", "nan", "inf", "x", "0.999"],
    "output_dir": ["", "out/a\0b"],
}
# the flags a command needs besides the config
COMMAND_FLAGS = {"grid": ["--lambda-grid", "1,1"], "risk": ["--confidence", "0.5,0.5"]}
CONFIG_CASES = ([("train", key, value) for key, values in BAD_CONFIG_VALUES.items()
                 for value in values]
                + [("cv", "k", "500"), ("grid", "k", "500"), ("bias", "test_fraction", "0.999"),
                   ("risk", "test_fraction", "0.999")])
# what the message says of a bad value, besides its key and the value itself
CONFIG_MESSAGES = {
    ("dataset", "{tmp}"): "dataset is not a file",
    ("label_column", "99"): "label column 99",
    ("label_column", "0"): "exactly two classes in label column 0",
    ("default_label", "Q"): "default label 'Q'",
    ("k", "500"): "fewer than k=500",
    ("test_fraction", "0.999"): "too small for test_fraction",
    ("output_dir", "out/a\0b"): "output_dir holds a NUL byte",
}

# a command with a malformed or out-of-range flag, and a fragment of its error
BAD_FLAGS = [
    ("boundary --resolution=", "argument --resolution: invalid int value: ''"),
    ("boundary --resolution abc", "invalid int value: 'abc'"),
    ("boundary --resolution 1.5", "invalid int value: '1.5'"),
    ("boundary --resolution 1", "grid resolution must be >= 2"),
    ("boundary --resolution -5", "grid resolution must be >= 2"),
    ("boundary --features=", "needs two comma-separated int values"),
    ("boundary --features 0", "needs two comma-separated int values"),
    ("boundary --features 0,1,2", "needs two comma-separated int values"),
    ("boundary --features a,b", "needs two comma-separated int values"),
    ("boundary --features 1,1", "boundary features must be distinct"),
    ("boundary --features 0,4", "feature index 4 outside 0..3"),
    ("boundary --features=-1,2", "feature index -1 outside 0..3"),
    ("loss-curve --samples=", "argument --samples: invalid int value"),
    ("loss-curve --samples x", "invalid int value: 'x'"),
    ("loss-curve --samples 1", "samples must be >= 2"),
    ("loss-curve --samples -3", "samples must be >= 2"),
    ("loss-curve --y-true=", "argument --y-true: invalid int value"),
    ("loss-curve --y-true 5", "invalid choice: 5"),
    ("loss-curve --y-true -1", "invalid choice: -1"),
    ("loss-curve --y-true 0.5", "invalid int value: '0.5'"),
    ("bias --ensemble-size=", "argument --ensemble-size: invalid int value"),
    ("bias --ensemble-size two", "invalid int value: 'two'"),
    ("bias --ensemble-size 1", "ensemble_size must be >= 2"),
    ("bias --ensemble-size -2", "ensemble_size must be >= 2"),
    ("bias --variants=", "variants must be non-empty"),
    ("bias --variants ,", "variants must be non-empty"),
    ("bias --variants nope", "bad variant 'nope'"),
    ("bias --variants xm:1", "xtreme-margin variant needs xm:L1:L2"),
    ("bias --variants bce:3", "bce variant takes no lambdas"),
    ("bias --variants xm:1:x", "bad variant 'xm:1:x'"),
    ("bias --variants xm:1:x,bce", "bad variant 'xm:1:x'"),
    ("bias --variants xm:-1:1", "must be finite and >= 0"),
    ("bias --variants xm:nan:1", "must be finite and >= 0"),
    ("bias --variants xm:1:inf", "must be finite and >= 0"),
    ("grid", "the following arguments are required: --lambda-grid"),
    ("grid --lambda-grid=", "lambda grid must be non-empty"),
    ("grid --lambda-grid ;", "lambda grid must be non-empty"),
    ("grid --lambda-grid 1", "needs two comma-separated float values"),
    ("grid --lambda-grid 1,x", "needs two comma-separated float values"),
    ("grid --lambda-grid 1,1;1,-1", "must be finite and >= 0"),
    ("grid --lambda-grid nan,1", "must be finite and >= 0"),
    ("grid --lambda-grid 1,1;inf,1", "must be finite and >= 0"),
    ("grid --lambda-grid 1,1 --override k=500", "class 0 has 20 members, fewer than k=500"),
    # a grid fails once, before any cell, not once per cell
    ("grid --lambda-grid 1,1;2,2 --override k=500",
     "class 0 has 20 members, fewer than k=500"),
    # only the Xtreme Margin loss reads lambda
    ("grid --lambda-grid 1,1;50,1 --override loss_family=bce",
     "grid needs loss_family = xtreme_margin: bce has no lambda to vary"),
    ("train --override epochs", "--override: expected 'key = value', got 'epochs'"),
    ("risk", "exactly one of --confidence / --confidence-column is required"),
    ("risk --confidence=", "needs two comma-separated float values"),
    ("risk --confidence 0.5", "needs two comma-separated float values"),
    ("risk --confidence x,y", "needs two comma-separated float values"),
    ("risk --confidence 0.3,0.3", "confidence must be a distribution"),
    ("risk --confidence=-0.5,1.5", "confidence must be a distribution"),
    ("risk --confidence nan,1", "confidence must be a distribution"),
    ("risk --confidence nan,nan", "confidence must be a distribution"),
    ("risk --confidence inf,0", "confidence must be a distribution"),
    ("risk --confidence-column=", "argument --confidence-column: invalid int value"),
    ("risk --confidence-column x", "invalid int value: 'x'"),
    ("risk --confidence-column 99", "confidence column 99 out of range"),
    ("risk --confidence-column -1", "confidence column -1 out of range"),
    ("risk --confidence-column 0", "not a probability"),
    ("risk --confidence 0.5,0.5 --confidence-column 0", "exactly one of"),
]

# a whole command line that BAD_FLAGS cannot build, and a fragment of its error
ARGV_AS_GIVEN = [
    ("boundary --resolution 5", "required: --config"),
    ("frobnicate --config {cfg}", "invalid choice: 'frobnicate'"),
]

# a dataset whose contents cannot be used, its config overrides and the error
# that follows the file's name
BAD_DATASETS = {
    "not_utf8": (b"1,2,pos\n3,4,n\xe9g\n", [],
                 "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 13: "
                 "invalid continuation byte"),
    "ragged_row": ("1,2,pos\n3,neg\n", [], "row 2 has 2 cells, expected 3"),
    "only_a_label_column": ("pos\nneg\n", [], "rows hold only the label column, no features"),
    "unparseable_cell": ("1,2,pos\n3,oops,neg\n", [],
                         "unparseable cell at row 2, column 2: 'oops'"),
    "nan_cell": ("1,nan,pos\n3,4,neg\n", [], "non-finite feature value at row 1, column 2: nan"),
    "overflowing_cell": ("1,2,pos\n1e999,4,neg\n", [],
                         "non-finite feature value at row 2, column 1: inf"),
    "over_long_field": ("1,2,pos\n" + "9" * 131073 + ",4,neg\n", [],
                        "field larger than field limit (131072)"),
    "empty_file": ("", [], "no data rows"),
    "empty_file_with_a_header": ("", ["header=true"], "empty file"),
    "header_only": ("f1,f2,cls\n", ["header=true"], "no data rows"),
}


def run_cli(workspace, capsys, command, *args):
    """`main` on the workspace config: (exit code, stderr)."""
    code = main([command, "--config", str(workspace["cfg"]), *args])
    return code, capsys.readouterr().err


def assert_config_error(code, err):
    """Exit 1 with one `error:` line, followed only by the lines of its list of
    problems."""
    lines = err.splitlines()
    assert code == 1, err
    assert lines[0].startswith("error: "), err
    assert all(line.startswith("  - ") for line in lines[1:]), err


@pytest.mark.usefixtures("no_training")
class TestExitCodeTable:
    """Every bad input exits before any training and leaves no output
    directory: 1 for a command line or config value that is malformed or
    does not fit the data, 2 for unusable data."""

    @pytest.mark.parametrize("command,key,value", CONFIG_CASES,
                             ids=[f"{c}-{k}={'<missing>' if v is MISSING else repr(v)}"
                                  for c, k, v in CONFIG_CASES])
    def test_bad_config_value_is_one(self, workspace, capsys, command, key, value):
        cfg, message = workspace["cfg"], CONFIG_MESSAGES.get((key, value), "")
        if value is MISSING:
            cfg.write_text("".join(line for line in cfg.read_text().splitlines(True)
                                   if not line.startswith(f"{key} =")))
            args = []
        else:
            value = value.format(tmp=workspace["tmp"])
            args = ["--override", f"{key}={value}"]
        code, err = run_cli(workspace, capsys, command, *args, *COMMAND_FLAGS.get(command, []))
        assert_config_error(code, err)
        # the message names the key, and the value as repr escapes it
        assert key in err.replace(" ", "_"), err
        assert value is MISSING or repr(value)[1:-1] in err, err
        assert message in err, err
        assert not workspace["out"].exists()

    @pytest.mark.parametrize("argv,fragment", BAD_FLAGS, ids=[a for a, _ in BAD_FLAGS])
    def test_bad_flag_is_one(self, workspace, capsys, argv, fragment):
        command, *args = argv.split(" ")
        code, err = run_cli(workspace, capsys, command, *args)
        assert_config_error(code, err)
        assert fragment in err
        assert not workspace["out"].exists()

    @pytest.mark.parametrize("argv,fragment", ARGV_AS_GIVEN, ids=[a for a, _ in ARGV_AS_GIVEN])
    def test_argv_as_given_is_one(self, workspace, capsys, argv, fragment):
        code = main([a.format(cfg=workspace["cfg"]) for a in argv.split(" ")])
        err = capsys.readouterr().err
        assert_config_error(code, err)
        assert fragment in err
        assert not workspace["out"].exists()

    @pytest.mark.parametrize("case", list(BAD_DATASETS))
    def test_unusable_dataset_is_two(self, workspace, capsys, case):
        content, overrides, message = BAD_DATASETS[case]
        data = workspace["data"]
        if isinstance(content, bytes):
            data.write_bytes(content)
        else:
            data.write_text(content)
        code, err = run_cli(workspace, capsys, "train",
                            *(a for o in overrides for a in ("--override", o)))
        assert (code, err) == (2, f"runtime failure: {data}: {message}\n")
        assert not workspace["out"].exists()


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

    def test_header_and_label_in_column_0_give_the_same_payload(self, workspace):
        data, cfg, out = workspace["data"], workspace["cfg"], workspace["out"]
        moved_csv = workspace["tmp"] / "moved.csv"
        rows = [line.rsplit(",", 1) for line in data.read_text().splitlines()]
        moved_csv.write_text("class,f1,f2,f3,f4\n"
                             + "".join(f"{label},{features}\n" for features, label in rows))
        assert main(["cv", "--config", str(cfg)]) == 0
        assert main(["cv", "--config", str(cfg), "--override", f"dataset={moved_csv}",
                     "--override", "header=true", "--override", "label_column=0",
                     "--override", f"output_dir={out}-moved"]) == 0
        plain, moved = ((path / "report.txt").read_text().split("payload:\n")[1]
                        for path in (out, workspace["tmp"] / "out-moved"))
        assert "  fold_scores:\n" in plain and moved == plain


class RecordingGenerator:
    """A numpy Generator that keeps its seed and the uniforms its `uniform`
    and `random` draws were made of."""

    def __init__(self, seed, generator):
        self.seed, self.generator = seed, generator
        self.uniforms, self.randoms = [], []

    def uniform(self, low, high, size):
        out = self.generator.uniform(low, high, size)
        self.uniforms.append((out - low) / (high - low))
        return out

    def random(self, size):
        out = self.generator.random(size)
        self.randoms.append(out)
        return out

    def __getattr__(self, name):
        return getattr(self.generator, name)


def record_generators(monkeypatch) -> list[RecordingGenerator]:
    """From now on, every generator `np.random.default_rng` makes, in order."""
    made, real = [], np.random.default_rng

    def default_rng(seed=None):
        made.append(RecordingGenerator(seed, real(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made


class TestStreams:
    """Every random draw takes its generator from its own documented stream
    path below the run seed (7 in the workspace config)."""

    @pytest.mark.parametrize("args,paths", [
        (["train"], [(SPLIT,), (MODEL, INIT), (MODEL, DRAWS)]),
        (["boundary", "--resolution", "2"], [(MODEL, INIT), (MODEL, DRAWS)]),
        (["risk", "--confidence", "0.25,0.75"], [(SPLIT,), (MODEL, INIT), (MODEL, DRAWS)]),
        (["cv"], [(PARTITION, 0), (PARTITION, 1)]
                 + [(CELL, r, f, child) for r in range(2) for f in range(2)
                    for child in (INIT, DRAWS)]),
        (["bias", "--variants", "bce", "--ensemble-size", "3"],
         [(SPLIT,)] + [(MEMBER, m, child) for m in range(3) for child in (INIT, DRAWS)]),
    ], ids=["train", "boundary", "risk", "cv", "bias"])
    def test_no_two_draws_share_a_path(self, workspace, monkeypatch, args, paths):
        made = record_generators(monkeypatch)
        assert main([args[0], "--config", str(workspace["cfg"]), *args[1:]]) == 0
        assert all(isinstance(g.seed, np.random.SeedSequence) and g.seed.entropy == 7
                   for g in made)
        keys = [g.seed.spawn_key for g in made]
        assert len(set(keys)) == len(keys)
        assert sorted(keys) == sorted(paths)

    @pytest.mark.parametrize("many", [False, True], ids=["_fit", "_fit_many"])
    def test_initial_weights_and_dropout_draws_share_no_uniforms(self, workspace,
                                                                 monkeypatch, many):
        cfg = load_config(str(workspace["cfg"]), ["epochs=1"])
        data = cli._load_dataset(cfg)
        made = record_generators(monkeypatch)
        if many:
            list(cli._fit_many(build_experiment_model, cfg,
                               [(data.features, data.labels, stream(cfg.seed, CELL, 0, 0))]))
        else:
            cli._fit(build_experiment_model, cfg, data.features, data.labels,
                     stream(cfg.seed, MODEL))
        init, draws = made  # the model's generator, then its training's
        glorot = np.sort(np.concatenate([u.ravel() for u in init.uniforms]))
        dropout = draws.randoms[0].ravel()  # epoch 1's
        assert glorot.size == 4 * 64 + 64 * 32 + 32 * 16 + 16 * 8 + 8
        assert dropout.size == 40 * 112
        # the nearest Glorot uniform to each dropout uniform: one stream for
        # both would give thousands of equal pairs, two streams none
        i = np.clip(np.searchsorted(glorot, dropout), 1, glorot.size - 1)
        gap = np.minimum(np.abs(dropout - glorot[i - 1]), np.abs(dropout - glorot[i]))
        assert np.count_nonzero(gap < 1e-12) == 0


class TestGridCommand:
    def test_cells_of_equal_lambdas_are_paired(self, workspace, monkeypatch):
        reports = []

        def recording_cv(*args, **kwargs):
            reports.append(repeated_cv(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "repeated_cv", recording_cv)
        made = record_generators(monkeypatch)
        assert main(["grid", "--config", str(workspace["cfg"]),
                     "--lambda-grid", "1,1;1,1"]) == 0
        rows = (workspace["out"] / "grid.csv").read_text().splitlines()
        assert len(rows) == 3 and rows[1] == rows[2] and rows[1].endswith(",ok")
        assert len(reports) == 2 and reports[0].fold_scores == reports[1].fold_scores
        # each cell draws from the same tree of streams
        paths = [(g.seed.entropy, g.seed.spawn_key) for g in made]
        assert len(paths) == 2 * 10 and paths[:10] == paths[10:]

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

    def test_failed_cell_is_left_out_of_the_argmax(self, tmp_path, capsys):
        assert main(["grid", *SONAR, "--lambda-grid", "1,1;1e308,1e308",
                     "--override", "repeats=1", "--override", "epochs=1",
                     "--override", f"output_dir={tmp_path}"]) == 0
        err = capsys.readouterr().err.splitlines()
        # which model of the stack overflows first depends on the seeds
        assert len(err) == 1 and re.match(
            r"warning: grid cell \(lambda1=1e\+308, lambda2=1e\+308\) failed: "
            r"CV cell failed at repeat 0, fold 0: model [0-9]+: ", err[0]), err
        grid = (tmp_path / "grid.csv").read_text().splitlines()
        assert grid[1].startswith("1.0,1.0,") and grid[1].endswith(",ok")
        assert grid[2] == "1e+308,1e+308,nan,nan,failed"
        report = (tmp_path / "report.txt").read_text()
        assert "  cells_evaluated: 1\n  cells_failed: 1\n" in report
        assert "  argmax:\n    lambda1: 1.0\n    lambda2: 1.0\n" in report

    def test_grid_whose_every_cell_fails_keeps_its_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "fresh" / "a"
        assert main(["grid", *SONAR, "--lambda-grid", "1e308,1e308",
                     "--override", "repeats=1", "--override", "epochs=1",
                     "--override", f"output_dir={out}"]) == 2
        assert capsys.readouterr().err.endswith("runtime failure: every grid cell failed\n")
        assert (out / "grid.csv").read_text().splitlines()[1:] == [
            "1e+308,1e+308,nan,nan,failed"]

    def test_error_that_is_not_a_failed_cell_is_not_hidden(self, workspace, capsys,
                                                           monkeypatch):
        def broken_cv(*args, **kwargs):
            raise TypeError("a programming error")

        monkeypatch.setattr(cli, "repeated_cv", broken_cv)
        assert main(["grid", "--config", str(workspace["cfg"]),
                     "--lambda-grid", "1,1;2,2"]) == 2
        assert capsys.readouterr().err == "runtime failure: a programming error\n"
        assert not (workspace["out"] / "grid.csv").exists()

    def test_argmax_tiebreak_prefers_small_std_then_small_lambda(self, workspace, monkeypatch,
                                                                 no_training):
        # dyadic fold scores make the three means of 0.875 bit-equal; the
        # argmax takes the largest mean, then the smaller std (0 before 0.125),
        # then the smaller lambda1 and only then lambda2; the grid lists the
        # larger lambda1 first, so a key without the lambdas picks the wrong cell
        folds = {(10.0, 1.0): [0.875, 0.875], (0.5, 0.5): [0.75, 1.0],
                 (1.0, 10.0): [0.875, 0.875], (0.25, 0.25): [0.75, 0.75]}
        monkeypatch.setattr(cli, "_cv", lambda cfg, data: CvReport(
            [folds[cfg.lambda1, cfg.lambda2]]))
        assert main(["grid", "--config", str(workspace["cfg"]),
                     "--lambda-grid", "10,1;0.5,0.5;1,10;0.25,0.25"]) == 0
        assert ("\n  argmax:\n    lambda1: 1.0\n    lambda2: 10.0\n"
                "    mean_cv_accuracy: 0.875\n    std_cv_accuracy: 0.0\n"
                in (workspace["out"] / "report.txt").read_text())


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
        for r in rows:
            _, _, prob, hard = r.split(",")
            assert 0.0 <= float(prob) <= 1.0
            assert hard == ("1" if float(prob) >= 0.5 else "0")
        return rows

    def test_grid_rows_and_probabilities(self, workspace):
        rows = self.grid_rows(workspace, 5)
        assert len(rows) == 25
        pts = (workspace["out"] / "boundary_points.csv").read_text().splitlines()
        assert len(pts) == 1 + 40

    def test_grid_order_across_row_blocks(self, workspace, monkeypatch):
        # 4225 rows: a full 4096-row block and a ragged last one, with both
        # labels by construction: the probabilities ramp from 0 to 1
        monkeypatch.setattr(cli, "predict_proba", lambda model, X: np.linspace(0.0, 1.0, len(X)))
        rows = self.grid_rows(workspace, 65)
        assert len(rows) == 65 ** 2
        assert {r.rsplit(",", 1)[1] for r in rows} == {"0", "1"}

    @pytest.mark.parametrize("scaling", list(Scaling), ids=lambda s: s.value)
    def test_scaled_axes_give_the_scaled_grid(self, scaling):
        # scaling is elementwise per column, so crossing the scaled axes
        # equals scaling the crossed grid bit for bit
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(50, 2)) * [3.0, 0.01] + [7.0, -2.0]
        stats = fit_scaler(feats, scaling, np.arange(50))
        g1, g2 = np.linspace(-2.3, 17.9, 101), np.linspace(-2.05, -1.9, 101)
        grid = np.column_stack([g.ravel() for g in np.meshgrid(g1, g2)])
        s1, s2 = apply_scaler(np.column_stack([g1, g2]), stats).T
        crossed = np.column_stack([g.ravel() for g in np.meshgrid(s1, s2)])
        assert crossed.tobytes() == apply_scaler(grid, stats).tobytes()

    def test_constant_feature_rejected(self, workspace, capsys):
        path = workspace["tmp"] / "const.csv"
        lines = [f"1.0,{i}.0,{'pos' if i % 2 else 'neg'}" for i in range(10)]
        path.write_text("\n".join(lines) + "\n")
        cfg = workspace["tmp"] / "const.cfg"
        make_config(cfg, path, workspace["out"])
        assert main(["boundary", "--config", str(cfg),
                     "--features", "0,1"]) == 1
        assert "constant" in capsys.readouterr().err


EDGE = np.array([0.5, np.nextafter(0.5, 0.0)])  # class 1, then class 0


def classes_by_final_metrics(probs, workspace, monkeypatch):
    metrics = scores(probs, np.array([1, 0]))
    return [metrics["tp"], metrics["fp"]]  # row 0 is class 1 iff tp, row 1 iff fp


def classes_by_accuracy_metric(probs, workspace, monkeypatch):
    return [_accuracy_metric(lambda X, p=p: np.array([p]), None, np.array([1]))
            for p in probs]


def classes_by_boundary_csv(probs, workspace, monkeypatch):
    monkeypatch.setattr(cli, "_fit", lambda *args: SimpleNamespace(model=None))
    monkeypatch.setattr(cli, "predict_proba", lambda model, X: np.resize(probs, len(X)))
    assert main(["boundary", "--config", str(workspace["cfg"]), "--features", "0,1",
                 "--resolution", "2"]) == 0
    rows = (workspace["out"] / "boundary_grid.csv").read_text().splitlines()[1:]
    return [int(row.rsplit(",", 1)[1]) for row in rows[:len(probs)]]


def classes_by_boundary_train_accuracy(probs, workspace, monkeypatch):
    make_dataset(workspace["data"], n0=10, n1=30)  # all class 1 scores 0.75, all class 0 0.25
    monkeypatch.setattr(cli, "_fit", lambda *args: SimpleNamespace(model=None))
    classes = []
    for p in probs:
        monkeypatch.setattr(cli, "predict_proba", lambda model, X, p=p: np.full(len(X), p))
        assert main(["boundary", "--config", str(workspace["cfg"]), "--features", "0,1",
                     "--resolution", "2"]) == 0
        report = (workspace["out"] / "report.txt").read_text()
        assert "\n  train_accuracy: 0.75\n" in report or "\n  train_accuracy: 0.25\n" in report
        classes.append("\n  train_accuracy: 0.75\n" in report)
    return classes


def classes_by_branches(probs, workspace, monkeypatch):
    # both rows are far from y_true = 1: agreeing with it is SIGMA_BOUNDARY
    return [b is Branch.SIGMA_BOUNDARY for b in branches(probs, [1, 1])]


def classes_by_epoch_accuracy(probs, workspace, monkeypatch):
    classes = []
    for p in probs:
        monkeypatch.setattr(optimizer, "predict_proba", lambda model, X: np.full(len(X), p))
        X, y = np.zeros((1, 2)), np.array([1])
        result = train(build_boundary_model(2, 0), X, y, LossParams(), OptimizerConfig(),
                       epochs=1, batch_size=1, rng=np.random.default_rng(0),
                       eval_X=X, eval_y=y)
        classes.append(result.history[0].train_acc)
    return classes


@pytest.mark.parametrize("scorer", [
    classes_by_final_metrics, classes_by_accuracy_metric, classes_by_boundary_csv,
    classes_by_boundary_train_accuracy, classes_by_branches, classes_by_epoch_accuracy],
    ids=lambda f: f.__name__[11:])
def test_every_scorer_calls_one_half_class_one(workspace, monkeypatch, scorer):
    """The decision rule's edge: y = 0.5 is class 1, the float below it class 0."""
    assert [int(c) for c in scorer(EDGE, workspace, monkeypatch)] == [1, 0]


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
        assert "\n  lambda_active: 1.0\n" in (workspace["out"] / "report.txt").read_text()

    def test_lambda_zero_correct_piece_is_flat(self, workspace):
        assert main(["loss-curve", "--config", str(workspace["cfg"]),
                     "--override", "lambda2=0", "--samples", "21"]) == 0
        rows = self.read_rows(workspace["out"])
        assert {r[3] for r in rows} == {"1.0"}

    @pytest.mark.parametrize("family,at_half", [("bce", math.log(2.0)), ("hinge", 1.0)])
    def test_other_families_draw_their_own_loss(self, workspace, family, at_half):
        assert main(["loss-curve", "--config", str(workspace["cfg"]), "--y-true", "1",
                     "--override", f"loss_family={family}", "--samples", "3"]) == 0
        text = (workspace["out"] / "loss_curve.csv").read_text()
        assert text.splitlines()[0] == "y,loss"  # the branch columns are Xtreme Margin's
        y, loss = self.read_rows(workspace["out"])[1]
        assert float(y) == 0.5 and abs(float(loss) - at_half) < 1e-12
        # these families have no λ
        assert "\n  lambda_active: N/A\n" in (workspace["out"] / "report.txt").read_text()


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
        monkeypatch.setattr(cli, "build_experiment_model",
                            lambda input_dim, seed: build_experiment_model(input_dim, 1234))
        assert main(["bias", "--config", str(workspace["cfg"]),
                     "--variants", "bce", "--ensemble-size", "2",
                     "--override", "alpha=0"]) == 0
        report = (workspace["out"] / "report.txt").read_text()
        assert "degenerate ensemble" in report

    def test_nearly_identical_ensemble_does_not_warn(self, workspace, monkeypatch):
        # member m predicts 0.3 * (1 + 1e-7 * m): members that differ, although
        # by less than np.allclose's default relative tolerance of 1e-5
        monkeypatch.setattr(cli, "_fit_many", lambda build, cfg, jobs: (
            SimpleNamespace(model=m) for m, _ in enumerate(jobs)))
        monkeypatch.setattr(cli, "predict_proba",
                            lambda model, X: np.full(len(X), 0.3 * (1 + 1e-7 * model)))
        assert main(["bias", "--config", str(workspace["cfg"]),
                     "--variants", "bce", "--ensemble-size", "2"]) == 0
        assert "degenerate ensemble" not in (workspace["out"] / "report.txt").read_text()


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

    def test_probability_column_accepted(self, workspace):
        lines = workspace["data"].read_text().splitlines()
        rng = np.random.default_rng(1)
        workspace["data"].write_text("\n".join(f"{rng.random():.4f},{line}"
                                               for line in lines) + "\n")
        assert main(["risk", "--config", str(workspace["cfg"]),
                     "--confidence-column", "0", "--override", "epochs=1"]) == 0
        assert len((workspace["out"] / "risk.csv").read_text().splitlines()) == 1 + 12


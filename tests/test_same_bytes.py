"""scripts/same_bytes.py, on a few cheap entries and copies of this repository."""

import importlib.util
import pathlib
import shutil

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("same_bytes", REPO / "scripts" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bytes)

LOSS_CURVE = same_bytes.Entry("loss-curve --config presets/ionosphere_curves.cfg")
TRAIN = same_bytes.Entry("train --config presets/ionosphere_curves.cfg --override epochs=1")


@pytest.fixture
def tree(tmp_path):
    """Copy what the CLI runs on into a new tree, with `old` replaced by
    `new` in one file of it."""

    def copy(name, path=None, old="", new=""):
        root = tmp_path / name
        for part in ("src", "presets", "data"):
            shutil.copytree(REPO / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if path:
            text = (root / path).read_text()
            assert text.count(old) == 1
            (root / path).write_text(text.replace(old, new))
        return root

    return copy


def test_reruns_pass(tree, capsys):
    assert same_bytes.check([tree("a")], [LOSS_CURVE, TRAIN])
    assert capsys.readouterr().out == "".join(f"ok   {e.argv}\n" for e in (LOSS_CURVE, TRAIN))


def test_swapped_streams_fail_and_name_the_training_files(tree, capsys):
    swapped = tree("b", "src/xmargin/data_pipeline.py",
                   "INIT, DRAWS = range(2)", "DRAWS, INIT = range(2)")
    assert not same_bytes.check([tree("a"), swapped], [LOSS_CURVE, TRAIN])
    loss_curve, train = capsys.readouterr().out.splitlines()
    assert loss_curve == f"ok   {LOSS_CURVE.argv}"
    assert train == f"FAIL {TRAIN.argv} | differ: curves.csv, report.txt"


def test_wrong_exit_code_fails(tree, capsys):
    root = tree("a")
    assert not same_bytes.check([root], [LOSS_CURVE._replace(code=1)])
    assert capsys.readouterr().out == (f"FAIL {LOSS_CURVE.argv} | {root}: exit 0, expected 1"
                                       f" | {root}: exit 0, expected 1\n")


def test_a_changed_meta_txt_alone_passes(tree):
    bumped = tree("b", "src/xmargin/__init__.py", '__version__ = "', '__version__ = "9')
    assert same_bytes.check([tree("a"), bumped], [LOSS_CURVE])

"""Run a table of CLI commands and check that they write the same bytes.

    python scripts/same_bytes.py TREE           # each entry twice in TREE
    python scripts/same_bytes.py TREE_A TREE_B  # each entry once in each tree

A tree is a checkout of this repository (say, the parent of a change, from
`git archive HEAD~1 | tar -x -C DIR`). Each run is `python -m xmargin.cli`
on the tree's own `src/`, from the tree's root, writing to `out/same-bytes`.
Two runs of an entry must give the same exit code, stdout, stderr and output
files, `meta.txt` (wall-clock timing) aside. Each run must also give the
entry's exit code and a stderr that its pattern fully matches, and a run that
fails must leave no output directory. One line is printed per entry; the exit
code is 1 if any entry failed.

Nothing is imported from `xmargin`, so trees whose module layouts differ can
be compared.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

OUT = "out/same-bytes"


class Entry(NamedTuple):
    argv: str  # split on whitespace
    code: int = 0
    stderr: str = ""  # a pattern that must match the whole of stderr


CURVES = "--config presets/ionosphere_curves.cfg"
SONAR = "--config presets/sonar_table1.cfg"
CV = f"cv {SONAR} --override repeats=1"
OVERFLOW = "runtime failure: model 0: non-finite parameters after epoch 1\n"

TABLE = [
    Entry(f"loss-curve {CURVES}"),
    # a CSV of more than one 4096-row block, with a list column beside numpy ones
    Entry(f"loss-curve {CURVES} --samples 4097"),
    Entry(f"train {CURVES} --override epochs=5"),
    Entry(f"train {CURVES} --override epochs=2 --override optimizer=RMSprop"
          " --override loss_family=Xtreme-Margin --override scaling=ZScore"),
    Entry(f"train {CURVES} --override epochs=5 --override scaling=minmax"),
    Entry("boundary --config presets/ionosphere_boundary.cfg --resolution 40"),
    # exactly one inference block, the most rows that add a broadcast bias, not a tile
    Entry("boundary --config presets/ionosphere_boundary.cfg --resolution 64"),
    Entry("boundary --config presets/ionosphere_boundary.cfg --resolution 600"),
    Entry(f"{CV} --override epochs=5"),
    Entry(f"{CV} --override epochs=5 --override k=3 --override batch_size=7"),
    Entry(f"{CV} --override epochs=5 --override scaling=minmax"),
    Entry(f"{CV} --override epochs=5 --override scaling=none"),
    Entry(f"{CV} --override epochs=5 --override loss_family=bce --override optimizer=subgradient"
          " --override k=3 --override batch_size=7"),
    Entry(f"{CV} --override epochs=50"),
    Entry(f"{CV} --override epochs=5 --override batch_size=11"),
    Entry(f"{CV} --override epochs=5 --override k=3 --override batch_size=138"),
    Entry(f"grid {SONAR} --lambda-grid 1,1;1,50 --override repeats=1 --override epochs=2"),
    Entry(f"bias {SONAR} --ensemble-size 2 --override epochs=2"),
    Entry(f"bias {SONAR} --ensemble-size 7 --override epochs=2"),
    Entry(f"risk {SONAR} --confidence 0.25,0.75 --override epochs=2"),
    # a step that overflows fails the run once, naming the model, with no
    # numpy warnings beside it
    Entry(f"{CV} --override epochs=1 --override alpha=1e308", 2,
          r"runtime failure: CV cell failed at repeat 0, fold 0: model \d+: [^\n]*\n"),
    Entry(f"train {CURVES} --override batch_size=1000 --override alpha=1e308"
          " --override epochs=2", 2, re.escape(OVERFLOW)),
    Entry(f"risk {SONAR} --confidence 0.25,0.75 --override epochs=1"
          " --override batch_size=1000 --override alpha=1e308", 2, re.escape(OVERFLOW)),
    # a bad flag, and a k no class can fill, found before grid.csv is made
    Entry("boundary --config presets/ionosphere_boundary.cfg --resolution abc", 1,
          re.escape("error: xmargin boundary: argument --resolution: invalid int value: 'abc'\n")),
    Entry(f"grid {SONAR} --lambda-grid 1,1 --override k=500", 1,
          re.escape("error: class 0 has 105 members, fewer than k=500\n")),
]


def run(tree: Path, entry: Entry) -> tuple[dict[str, object], list[str]]:
    """One run of `entry` in `tree`: what it wrote, by file name or stream
    (`meta.txt` left out), and how it broke the entry's expectations."""
    out = tree / OUT
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run([sys.executable, "-m", "xmargin.cli", *entry.argv.split(),
                           "--override", f"output_dir={OUT}"],
                          cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True)
    wrote = {"<exit code>": proc.returncode, "<stdout>": proc.stdout, "<stderr>": proc.stderr}
    problems = []
    if proc.returncode != entry.code:
        problems.append(f"{tree}: exit {proc.returncode}, expected {entry.code}")
    stderr = proc.stderr.decode(errors="replace")
    if not re.fullmatch(entry.stderr, stderr):
        problems.append(f"{tree}: stderr {stderr!r}")
    if out.exists():
        if proc.returncode:
            problems.append(f"{tree}: a failed run left {OUT}")
        wrote.update((p.name, p.read_bytes()) for p in out.iterdir() if p.name != "meta.txt")
        shutil.rmtree(out)
    return wrote, problems


def check(trees: list[Path], table: list[Entry] = TABLE) -> bool:
    """Run each entry twice, in `trees[0]` and then in `trees[-1]`, print one
    line per entry, and say whether every entry passed."""
    passed = True
    for entry in table:
        (first, problems), (second, more) = (run(tree, entry) for tree in (trees[0], trees[-1]))
        differ = sorted(name for name in first.keys() | second.keys()
                        if first.get(name) != second.get(name))
        problems += more + ([f"differ: {', '.join(differ)}"] if differ else [])
        print(f"{'FAIL' if problems else 'ok  '} {entry.argv}"
              + "".join(f" | {p}" for p in problems), flush=True)
        passed = passed and not problems
    return passed


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 3:
        sys.exit(__doc__)
    sys.exit(0 if check([Path(tree).resolve() for tree in sys.argv[1:]]) else 1)

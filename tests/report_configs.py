"""The acceptance CLI configs whose reports a change compares byte for byte.

Each entry is (name, argv, exit code).  Run

    PYTHONPATH=src python tests/report_configs.py OUT_DIR

to write every config's report files as OUT_DIR/<name>.json (plus .csv and
_tidy.csv where the report has rows) and print each exit code; then diff two
such directories, ignoring the ``timestamp`` line.  ``test_cli.py`` runs the
same list and pins the exit codes.
"""

from __future__ import annotations

import sys
from pathlib import Path

COMB = ["--model", "comb"]
UNIT = ["--model", "bd:unit"]
EXPLOSIVE = ["--model", "bd:explosive"]
GEO = ["--model", "bd:geo"]
RANDOM60 = ["--model", "random:60", "--seed", "3"]
PATH12 = ["--model", "path:12"]


def _run(model, experiment, *rest):
    return [*model, "--experiment", experiment, *rest]


CONFIGS = [
    ("comb-nc-ref9", _run(COMB, "neumann-convergence", "--truncations", "2:6",
                          "--ref", "9", "--alpha", "1.0"), 0),
    ("comb-nc-2-9", _run(COMB, "neumann-convergence", "--truncations", "2:9"), 2),
    ("comb-feller", _run(COMB, "feller", "--truncations", "2:18"), 0),
    ("comb-feller-neumann", _run(COMB, "feller", "--kind", "neumann",
                                 "--truncations", "2:12"), 2),
    ("comb-beta", _run(COMB, "comb-beta", "--depth", "40"), 0),
    ("comb-dgap", _run(COMB, "dirichlet-gap", "--truncations", "2:6"), 0),
    ("comb-classify", _run(COMB, "classify"), 1),
    ("comb-ul1", _run(COMB, "uniform-l1", "--truncations", "2:5"), 0),
    ("comb-ul1-neumann", _run(COMB, "uniform-l1", "--truncations", "2:5",
                              "--kind", "neumann"), 0),
    ("comb-ec", _run(COMB, "ec"), 0),
    ("unit-l1", _run(UNIT, "l1-defect"), 0),
    ("unit-gap", _run(UNIT, "gap", "--truncations", "10:60:10"), 0),
    ("unit-classify", _run(UNIT, "classify"), 0),
    ("explosive-l1", _run(EXPLOSIVE, "l1-defect"), 0),
    ("explosive-l1-700", _run(EXPLOSIVE, "l1-defect", "--truncations", "10:700:10"), 1),
    ("explosive-feller-neumann", _run(EXPLOSIVE, "feller", "--kind", "neumann",
                                      "--truncations", "10:200:10"), 2),
    ("explosive-classify", _run(EXPLOSIVE, "classify"), 0),
    ("geo-dgap", _run(GEO, "dirichlet-gap"), 0),
    ("geo-gap", _run(GEO, "gap", "--truncations", "10:50:10"), 0),
    ("geo-ec", _run(GEO, "ec"), 0),
    ("geo-classify", _run(GEO, "classify"), 0),
    ("tail-classify", _run(["--model", "bd:tail"], "classify"), 0),
    ("random60-feller", _run(RANDOM60, "feller"), 0),
    ("random60-feller-neumann", _run(RANDOM60, "feller", "--kind", "neumann"), 0),
    ("random60-gap", _run(RANDOM60, "gap"), 0),
    ("random80-dgap", _run(["--model", "random:80", "--seed", "5"], "dirichlet-gap"), 0),
    ("path12-nc", _run(PATH12, "neumann-convergence"), 0),
    ("path12-l1", _run(PATH12, "l1-defect"), 0),
    ("path12-nc-0-3", _run(PATH12, "neumann-convergence", "--truncations", "0:3"), 2),
    ("path12-ec-dump", _run(PATH12, "ec", "--truncations", "0:3", "--dump-matrix"), 0),
    ("custom-classify", _run(["--model", "bd:custom", "--rate", "(r+1)**2",
                              "--measure", "1"], "classify", "--horizon", "200"), 3),
    ("comb-nc-ref12", _run(COMB, "neumann-convergence", "--truncations", "2:6",
                           "--ref", "12", "--alpha", "1.0"), 0),
    ("comb-nc-ref5", _run(COMB, "neumann-convergence", "--truncations", "2:6",
                          "--ref", "5"), 1),
    ("comb-l1", _run(COMB, "l1-defect", "--truncations", "2:6"), 0),
    ("explosive-nc-ref150", _run(EXPLOSIVE, "neumann-convergence",
                                 "--truncations", "10:100:10", "--ref", "150"), 0),
    ("random60-l1", _run(RANDOM60, "l1-defect"), 0),
    ("unit-nc-t-nan", _run(UNIT, "neumann-convergence", "--t", "nan"), 1),
    ("comb-ul1-t-inf", _run(COMB, "uniform-l1", "--truncations", "2:4", "--t", "inf"), 1),
]


def write_reports(out_dir) -> dict[str, int]:
    """Run every config with ``--out OUT_DIR/<name>``; returns the exit codes."""
    from neumann_lab.cli import main

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {name: main(argv + ["--out", str(out_dir / name)])
            for name, argv, _ in CONFIGS}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/report_configs.py OUT_DIR")
    for name, code in write_reports(sys.argv[1]).items():
        print(f"{code} {name}")

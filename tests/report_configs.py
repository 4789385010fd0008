"""The acceptance CLI configs whose reports a change compares value by value.

Each entry is (name, argv, exit code).  Run

    PYTHONPATH=src python tests/report_configs.py OUT_DIR

to write every config's report files as OUT_DIR/<name>.json (plus .csv and
_tidy.csv where the report has rows) and the exit codes as
OUT_DIR/exit_codes.json, printing each code.  Then

    python tests/report_configs.py --compare OLD_DIR NEW_DIR

prints every exit-code change, every changed non-float value and every
changed float with its path, relative and absolute change (``timestamp``
is ignored), and exits 1 on any exit-code or non-float difference.
``test_cli.py`` runs the same list and pins the exit codes.
"""

from __future__ import annotations

import csv
import json
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
    ("geo-dgap-600", _run(GEO, "dirichlet-gap", "--truncations", "10:600:10"), 1),
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
    ("custom-classify-certified",
     _run(["--model", "bd:custom", "--rate", "(r+1)**2", "--measure", "1"], "classify",
          "--horizon", "100", "--certify",
          "measure=infinite,inv_b=convergent:p-series,hamburger=divergent:grows"), 0),
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
    ("comb-ec-dump", _run(COMB, "ec", "--truncations", "2:4", "--dump-matrix"), 0),
    ("geo-classify-4000", _run(GEO, "classify", "--horizon", "4000"), 0),
    ("custom-classify-overflow", _run(["--model", "bd:custom", "--rate", "1",
                                       "--measure", "2**(2*r)"], "classify",
                                      "--horizon", "1000"), 3),
    ("geo-classify-infinite-measure", _run(GEO, "classify", "--certify", "measure=infinite"), 1),
]


EXIT_CODES = "exit_codes.json"


def write_reports(out_dir, configs=CONFIGS) -> dict[str, int]:
    """Run every config with ``--out OUT_DIR/<name>`` and write the exit
    codes to OUT_DIR/exit_codes.json; returns them."""
    from neumann_lab.cli import main

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {name: main(argv + ["--out", str(out_dir / name)]) for name, argv, _ in configs}
    (out_dir / EXIT_CODES).write_text(json.dumps(codes, indent=2) + "\n")
    return codes


def _cell(text: str):
    """A CSV cell as a float when it is one, else as its text."""
    try:
        return text if text.lstrip("-").isdigit() else float(text)
    except ValueError:
        return text


def _load(path: Path):
    if not path.exists():
        return None
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
    return json.loads(path.read_text())


def _differences(old, new, where=""):
    """Yield (path, old, new, is_float) for every differing leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key != "timestamp":
                yield from _differences(old.get(key), new.get(key), f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _differences(a, b, f"{where}[{i}]")
    elif type(old) is float and type(new) is float:
        if old != new and not (old != old and new != new):
            yield where, old, new, True
    elif type(old) is not type(new) or old != new:
        yield where, old, new, False


def compare(old_dir, new_dir) -> int:
    """Print the differences between two written directories; 1 when an
    exit code or a non-float value differs, else 0."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    hard = False
    old_codes, new_codes = (_load(d / EXIT_CODES) or {} for d in (old_dir, new_dir))
    for name in sorted(old_codes.keys() | new_codes.keys()):
        if old_codes.get(name) != new_codes.get(name):
            print(f"exit code {name}: {old_codes.get(name)} -> {new_codes.get(name)}")
            hard = True
    files = {p.name for d in (old_dir, new_dir) for p in d.iterdir()} - {EXIT_CODES}
    for name in sorted(files):
        old, new = _load(old_dir / name), _load(new_dir / name)
        for where, a, b, is_float in _differences(old, new, name):
            if is_float:
                rel = abs(b - a) / abs(a) if a else float("inf")
                print(f"float {where}: {a!r} -> {b!r} "
                      f"(relative {rel:.1e}, absolute {abs(b - a):.1e})")
            else:
                print(f"value {where}: {a!r} -> {b!r}")
                hard = True
    return int(hard)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/report_configs.py OUT_DIR\n"
                 "       python tests/report_configs.py --compare OLD_DIR NEW_DIR")
    for name, code in write_reports(sys.argv[1]).items():
        print(f"{code} {name}")

"""Command-line front end: named experiments, CSV/JSON reports, plot data.

Exit codes: 0 success, 1 input or invariant error, 2 truncation
insufficient, 3 a classification report flagged undetermined.  Reports
carry a schema version and a machine-readable error reason; re-running a
config reproduces the report byte for byte apart from the timestamp.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from itertools import zip_longest

from . import analysis, birth_death, convergence, models
from .errors import InputError, NeumannLabError, OverflowCapError, TruncationInsufficientError
from .graphs import VertexFunction
# assemble_neumann is not called here; the benchmark's tracer patches it
from .operators import OperatorKind, assemble_neumann, dump_matrix, restrict

EXPERIMENTS = ("neumann-convergence", "dirichlet-gap", "l1-defect", "feller",
               "gap", "classify", "comb-beta", "uniform-l1", "ec")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="neumann-lab",
        description="Run truncation experiments for Dirichlet/Neumann graph "
                    "Laplacian semigroups and emit CSV/JSON reports.")
    p.add_argument("--model", required=True,
                   help="preset (comb, bd:unit, bd:geo, bd:explosive, bd:tail), "
                        "path:N, random[:N], or file:PATH")
    p.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p.add_argument("--t", type=float, default=1.0,
                   help="heat time, or the window length for uniform-l1")
    p.add_argument("--alpha", type=float, default=None,
                   help="resolvent parameter (enables pairing columns)")
    p.add_argument("--horizon", type=int, default=1000,
                   help="series horizon for classify, at least 1")
    p.add_argument("--truncations", default=None,
                   help="exhaustion parameters: 'a:b[:step]' inclusive, or 'i,j,k'; "
                        "rectangle indices for the comb (default 2:8), prefix sizes "
                        "for chains (10:200:10), hop radii otherwise (0 to the "
                        "origin's eccentricity + 1); every experiment but "
                        "classify and comb-beta runs on these sets")
    p.add_argument("--ref", type=int, default=None,
                   help="explicit reference truncation parameter (default: "
                        "self-consistency or 4x extension)")
    p.add_argument("--tol", type=float, default=convergence.DEFAULT_REFERENCE_TOL,
                   help="reference stopping tolerance")
    p.add_argument("--out", default=None,
                   help="output path prefix; writes PREFIX.json, PREFIX.csv, "
                        "PREFIX_tidy.csv (stdout JSON when omitted)")
    p.add_argument("--seed", type=int, default=None, help="seed for random models")
    p.add_argument("--certify", default=None,
                   help="series certificates 'inv_b=divergent:note,measure=infinite'")
    p.add_argument("--depth", type=int, default=40,
                   help=f"tooth depth for comb-beta, 6 to {birth_death.MAX_COMB_DEPTH}")
    p.add_argument("--x", type=int, default=None,
                   help="source vertex id (default: the model's origin)")
    p.add_argument("--grid", type=int, default=64, help="time grid size for uniform-l1")
    p.add_argument("--kind", choices=("dirichlet", "neumann"), default="dirichlet",
                   help="restriction kind for feller and uniform-l1")
    p.add_argument("--rate", default=None,
                   help="rate expression in r for --model bd:custom, e.g. '4**r'")
    p.add_argument("--measure", default=None,
                   help="measure expression in r for --model bd:custom")
    p.add_argument("--dump-matrix", action="store_true",
                   help="also write the largest truncation's matrix as triples")
    return p


def parse_truncations(text: str) -> list[int]:
    try:
        if ":" in text:
            parts = [int(v) for v in text.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError("too many ':'")
            if step < 1 or hi < lo:
                raise ValueError("empty range")
            return list(range(lo, hi + 1, step))
        return [int(v) for v in text.split(",")]
    except ValueError as ex:
        raise InputError(f"cannot parse --truncations {text!r}: {ex}") from None


def parse_certificates(text: str | None) -> dict:
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise InputError(f"certificate {item!r} must look like key=verdict[:note]")
        key, value = item.split("=", 1)
        note = ""
        if ":" in value:
            value, note = value.split(":", 1)
        key, value = key.strip(), value.strip()
        if key in out:
            raise InputError(f"certificate key {key!r} given twice")
        if key == "measure":
            # a finite measure is a convergent series sum m(r)
            if value not in ("finite", "infinite"):
                raise InputError("measure certificate must be finite or infinite")
            value = "convergent" if value == "finite" else "divergent"
        elif key not in birth_death.CERTIFICATE_KEYS:
            raise InputError(f"unknown certificate key {key!r}")
        if value == "divergent":
            out[key] = birth_death.divergent(note)
        elif value == "convergent":
            out[key] = birth_death.convergent(note)
        else:
            raise InputError(f"verdict {value!r} must be divergent or convergent")
    return out


def _csv_text(columns, rows) -> str:
    """CSV with a header row; ``None`` cells are written empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _report_table(report):
    """(columns, rows, number of leading key columns), or None without rows."""
    if isinstance(report, convergence.ConvergenceReport):
        cols = report.CSV_COLUMNS
        return cols, [[r[c] for c in cols] for r in report.rows()], 2
    if isinstance(report, analysis.FellerReport):
        return ("radius", "sup_outside"), list(zip(report.ball_radii, report.sup_outside)), 1
    if isinstance(report, birth_death.BdClassification):
        # the inv_b series is the longest; the others are padded with None
        series = (report.series_inv_b, report.series_tail, report.hamburger)
        rows = [(r, *sums) for r, sums in
                enumerate(zip_longest(*(s.partial_sums for s in series)))]
        return ("r", "inv_b_partial", "tail_partial", "hamburger_partial"), rows, 1
    if isinstance(report, birth_death.CombBetaResult):
        lo = report.window[0]
        return ("k", "ratio"), [(lo + i, ratio) for i, ratio in enumerate(report.ratios)], 1
    return None


def run(args) -> tuple[dict, object]:
    """Execute the configured experiment; returns (json payload, report)."""
    if args.horizon < 1:
        raise InputError("horizon must be >= 1")
    for flag, value in (("--t", args.t), ("--alpha", args.alpha), ("--tol", args.tol)):
        if value is not None and not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value}")
    if args.tol <= 0:
        raise InputError(f"--tol must be positive, got {args.tol}")
    if args.model == "bd:custom":
        if not args.rate or not args.measure:
            raise InputError("bd:custom needs --rate and --measure expressions")
        model = models.make_bd_chain(args.rate, args.measure, name="bd:custom")
    else:
        model = models.build_model(args.model, seed=args.seed)
    g = model.graph
    x = args.x if args.x is not None else model.origin
    indices = (parse_truncations(args.truncations) if args.truncations
               else models.default_indices(model))
    phi = VertexFunction.indicator(x)
    on_exhaustion = args.experiment not in ("classify", "comb-beta")
    later = ref_ex = None  # one exhaustion: the iterates, then a reference's later sets
    if args.experiment == "neumann-convergence" and args.ref is not None:
        if args.ref <= max(indices):
            raise InputError("--ref must exceed the largest truncation")
        later = [args.ref]
    elif args.experiment in ("dirichlet-gap", "l1-defect"):
        ref = models.reference_indices(model, indices)
        later = None if ref == indices else ref[1:]  # hop balls: the iterates
    ex = (models.make_exhaustion(model, 0, indices=indices + (later or []))
          if on_exhaustion else None)
    if later is not None:
        ex, ref_ex = ex[:len(indices)], ex[len(indices) - 1:]

    if args.experiment == "neumann-convergence":
        report = convergence.neumann_convergence_experiment(
            g, ex, args.t, phi, alpha=args.alpha, probe=x, ref_exhaustion=ref_ex)
    elif args.experiment in ("dirichlet-gap", "l1-defect"):
        experiment = (convergence.dirichlet_gap_experiment
                      if args.experiment == "dirichlet-gap"
                      else convergence.l1_defect_experiment)
        report = experiment(g, ex, args.t, phi, ref_exhaustion=ref_ex, tol=args.tol,
                            probe=x)
    elif args.experiment == "feller":
        alpha = args.alpha if args.alpha is not None else 1.0
        report = analysis.feller_estimate(g, ex, alpha, x, kind=args.kind, tol=args.tol)
    elif args.experiment == "gap":
        gap, info = analysis.semigroup_gap(g, ex, args.t, x, tol=args.tol)
        report = {"schema": 1, "experiment": "gap", "t": args.t, "source": x,
                  "gap_at_source": info["gap_at_source"],
                  "max_gap": info["max_gap"],
                  "self_distance": info["self_distance"],
                  "metadata": {"graph": model.name, "tol": args.tol,
                               "clamped_entries": info["clamped_entries"]}}
    elif args.experiment == "classify":
        if model.chain is None:
            raise InputError("classify needs a birth-death chain model")
        certs = parse_certificates(args.certify)
        report = birth_death.classify(model.chain, args.horizon, certs)
    elif args.experiment == "comb-beta":
        if model.family != "comb":
            raise InputError("comb-beta runs on the comb model")
        report = birth_death.comb_beta_extraction(args.depth)
    elif args.experiment == "uniform-l1":
        subset = ex.sets[-1]
        res = analysis.uniform_l1_check(g, subset, args.t, phi, grid=args.grid,
                                        kind=args.kind)
        report = {"schema": 1, "experiment": "uniform-l1", "T": args.t,
                  "value": res.value, "bound": res.bound,
                  "grid": res.grid_size, "kind": res.kind,
                  "metadata": {"graph": model.name, "subset_size": len(subset)}}
    elif args.experiment == "ec":
        constants = [analysis.ec_constant(g, subset) for subset in ex.sets]
        sizes = [len(subset) for subset in ex.sets]
        report = {"schema": 1, "experiment": "ec", "constant": constants[-1],
                  "window_size": sizes[-1], "sizes": sizes, "constants": constants,
                  "metadata": {"graph": model.name}}
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown experiment {args.experiment!r}")

    payload = report if isinstance(report, dict) else report.to_json_dict()
    payload = dict(payload)
    payload["status"] = "ok"
    payload["config"] = {
        "model": args.model, "experiment": args.experiment, "t": args.t,
        "alpha": args.alpha, "horizon": args.horizon,
        "truncations": indices if on_exhaustion else None,
        "tol": args.tol, "seed": args.seed, "depth": args.depth,
        "x": x, "grid": args.grid, "kind": args.kind, "ref": args.ref,
    }
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    if args.dump_matrix and ex is not None:
        payload["matrix_dump"] = dump_matrix(restrict(ex, -1, OperatorKind.NEUMANN))
    return payload, report


def _emit(payload: dict, report, out_prefix: str | None):
    text = json.dumps(payload, indent=2, default=float)
    if out_prefix is None:
        print(text)
        return
    with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    table = _report_table(report)
    if table is not None:
        columns, rows, keys = table
        # tidy: one (first key, metric, value) row per non-empty metric cell
        tidy = [(row[0], metric, value) for row in rows
                for metric, value in zip(columns[keys:], row[keys:]) if value is not None]
        with open(out_prefix + ".csv", "w", encoding="utf-8") as fh:
            fh.write(_csv_text(columns, rows))
        with open(out_prefix + "_tidy.csv", "w", encoding="utf-8") as fh:
            fh.write(_csv_text(("k", "metric", "value"), tidy))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, report = run(args)
    except TruncationInsufficientError as ex:
        _emit_error(args, ex, "truncation-insufficient")
        return 2
    except (InputError, OverflowCapError) as ex:
        _emit_error(args, ex, "input-error")
        return 1
    except NeumannLabError as ex:
        _emit_error(args, ex, "invariant-violation")
        return 1
    _emit(payload, report, args.out)
    undetermined = isinstance(report, birth_death.BdClassification) and report.undetermined
    return 3 if undetermined else 0


def _emit_error(args, ex: Exception, kind: str):
    payload = {
        "schema": 1,
        "status": "error",
        "error_kind": kind,
        "reason": str(ex),
        "config": {"model": args.model, "experiment": args.experiment},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    extra = getattr(ex, "last_increment", None)
    if extra is not None:
        payload["last_increment"] = float(extra)
    increments = getattr(ex, "increments", None)
    if increments is not None:
        payload["increments"] = [float(v) for v in increments]
    cap = getattr(ex, "usable_cap", None)
    if cap is not None:
        payload["usable_cap"] = cap
    _emit(payload, None, args.out)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: mi, mc, select, run, ttest, discretize.  Exit codes: 0 on
success, 1 for input or configuration problems, 2 for numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

from . import harness
from .core import mi_upper_bound
from .dist import FALLBACK, FIT_FAMILIES, fit
from .errors import ConfigurationError, InputError, NumericalError
from .filters import FILTERS, FilterConfig, decide
from .mc import ks_distance, sample_mi
from .tables import PRIOR_KINDS, PriorSpec, apply_prior, table_from_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise InputError(message)


def _prior(args) -> PriorSpec:
    if args.prior == "custom" and args.prior_weight is None:
        raise InputError("--prior custom needs --prior-weight")
    return PriorSpec(args.prior, args.prior_weight)  # a named prior rejects a weight


def _warn_fallbacks(family: str, count: int) -> None:
    """The one ``warning:`` line, naming ``dist.FALLBACK[family]``, for ``count`` tables whose fit fell back, if any did."""
    if count:
        laws = " or ".join(FALLBACK[family])
        print(f"warning: {count} {family} moment pair(s) infeasible; falling back to the {laws} family", file=sys.stderr)


def _config(args) -> FilterConfig:
    return FilterConfig(epsilon=args.epsilon, p_level=args.p, family=args.family, prior=_prior(args))


def _read_json(path):
    """The decoded JSON file at ``path``; text that does not decode is an ``InputError`` naming the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def _dataset(args) -> harness.Dataset:
    return harness.load_dataset(
        args.data,
        delimiter=args.delimiter,
        header=not args.no_header,
        class_column=args.class_column,
        missing_token=args.missing_token,
    )


def _add_dataset_options(parser) -> None:
    parser.add_argument("--data", required=True, help="CSV file of categorical data")
    parser.add_argument("--delimiter", default=",")
    parser.add_argument("--no-header", action="store_true")
    parser.add_argument("--class-column", default=None, help="header name or 0-based index (default: last column)")
    parser.add_argument("--missing-token", default=harness.DEFAULT_MISSING_TOKEN)


def _add_prior_options(parser) -> None:
    parser.add_argument("--prior", default=PriorSpec().kind, choices=PRIOR_KINDS)
    parser.add_argument("--prior-weight", type=float, default=None, help="per-cell weight for --prior custom")


def _add_filter_options(parser) -> None:
    """The options ``_config`` reads, defaulting to ``FilterConfig()``'s fields."""
    defaults = FilterConfig()
    parser.add_argument("--epsilon", type=float, default=defaults.epsilon)
    parser.add_argument("--p", type=float, default=defaults.p_level)
    parser.add_argument("--family", default=defaults.family, choices=FIT_FAMILIES)
    _add_prior_options(parser)


def cmd_mi(args) -> int:
    table = table_from_json(_read_json(args.table))
    cfg = FilterConfig(epsilon=args.epsilon, family=args.dist or "normal", prior=_prior(args))
    d = decide(table, cfg)
    _warn_fallbacks(cfg.family, int(d.fit_fallback is not None))
    out = {"mode": d.route, "j": d.j, "mean": d.mean, "variance": d.variance, "variance_clamped": d.variance_clamped}
    if d.route.startswith("missing_"):
        out["prior_extrapolation"] = d.prior_extrapolation
    if args.dist:
        approx = fit(d.fit_fallback or args.dist, d.mean, d.variance, mi_upper_bound(table.r, table.s))
        out["dist"] = {
            "family": approx.family,
            "params": approx.params,
            "fallback": d.fit_fallback,
            "prob_exceeds_epsilon": d.prob_exceeds_eps,
            "quantile_05": approx.quantile(0.05),
            "quantile_95": approx.quantile(0.95),
        }
    print(json.dumps(out))
    return 0


def cmd_mc(args) -> int:
    table = table_from_json(_read_json(args.table))
    prior = _prior(args)
    if table.has_missing():
        raise InputError("the sampler needs a complete table (no partial margins)")
    pc = apply_prior(table, prior)
    summary = sample_mi(pc, args.samples, args.seed)
    out = {
        "sample_count": summary.sample_count,
        "mean": summary.mean,
        "variance": summary.variance,
        "mean_std_error": summary.mean_std_error,
        "seed": summary.seed,
        "i_max": summary.i_max,
        "storage": "samples" if summary.samples is not None else "histogram",
    }
    if args.fit:
        d = decide(table, FilterConfig(family=args.fit, prior=prior))
        _warn_fallbacks(args.fit, int(d.fit_fallback is not None))
        approx = fit(d.fit_fallback or args.fit, d.mean, d.variance, summary.i_max)
        out["fit"] = {"family": approx.family, "params": approx.params, "fallback": d.fit_fallback}
        out["ks_distance"] = ks_distance(summary, approx)
    if args.dump:
        if summary.samples is None:
            raise ConfigurationError("--dump needs stored samples; lower --samples")
        with open(args.dump, "wb") as fh:
            fh.write(summary.samples.astype("<f8").tobytes())
        out["dump"] = args.dump
    print(json.dumps(out))
    return 0


def cmd_select(args) -> int:
    dataset = _dataset(args)
    cfg = _config(args)
    cfg.check_filters([args.filter])
    decisions = harness.decide_attributes(dataset, cfg)
    _warn_fallbacks(cfg.family, sum(d.fit_fallback is not None for d in decisions))
    for decision in decisions:
        print(json.dumps(asdict(decision)))
    kept = [d.attribute for d in decisions if getattr(d, f"keep_{args.filter}")]
    print(json.dumps({"filter": args.filter, "kept": kept}))
    return 0


def cmd_run(args) -> int:
    dataset = _dataset(args)
    filters = [f.strip() for f in args.filters.split(",") if f.strip()]
    cfg = _config(args)
    prepared = harness.prepare(dataset, mode=f"{args.missing}_missing", seed=args.seed)
    report = harness.run_incremental(prepared, cfg, filters)
    _warn_fallbacks(cfg.family, report.fit_fallbacks)
    harness.write_report(report, args.out, format=args.format)
    print(
        json.dumps(
            {
                "instances": report.instance_count,
                "final_accuracy": {f: report.runs[f].final_accuracy for f in filters},
                "mean_selected": {f: report.runs[f].mean_selected for f in filters},
                "order_hash": report.order_hash,
                "out": args.out,
            }
        )
    )
    return 0


def cmd_ttest(args) -> int:
    report = harness.report_from_dict(_read_json(args.report))
    names = [p.strip() for p in args.pair.split(",")]
    if len(names) != 2:
        raise InputError("--pair needs two comma-separated filter names, e.g. ff,f")
    for name in names:
        if name not in report.runs:
            raise InputError(f"filter {name!r} not present in the report (has {list(report.runs)})")
    a, b = names
    k = args.k if args.k is not None else report.instance_count
    t, significant = harness.paired_t_test(report.runs[a].correct, report.runs[b].correct, k)
    print(json.dumps({"pair": f"{a},{b}", "k": k, "t": t, "significant": significant}))
    return 0


def cmd_discretize(args) -> int:
    names, body, class_index = harness.read_rows(args.data, args.delimiter, not args.no_header, args.class_column)
    columns = list(map(list, zip(*body)))
    for idx, column in enumerate(columns):
        if idx == class_index:
            continue
        observed = [(pos, cell) for pos, cell in enumerate(column) if cell != args.missing_token]
        try:
            numeric = [float(cell) for _, cell in observed]
        except ValueError:
            continue  # categorical column, pass through
        if not numeric:
            continue  # no observed cell, nothing to bin
        for (_, cell), value in zip(observed, numeric):
            if not math.isfinite(value):
                raise InputError(f"{args.data}: column {names[idx]!r} has the non-finite cell {cell!r}")
        if len(set(numeric)) < args.bins:
            note = f"only {len(set(numeric))} distinct values for {args.bins} bins; using one bin per value"
            print(f"warning: column {names[idx]!r}: {note}", file=sys.stderr)
        labels = harness.discretize_equal_frequency(numeric, args.bins)
        for (pos, _), label in zip(observed, labels):
            column[pos] = label
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=args.delimiter)
        if not args.no_header:
            writer.writerow(names)
        writer.writerows(zip(*columns))
    print(json.dumps({"out": args.out, "bins": args.bins}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="midist", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("mi", help="posterior information moments of one table")
    p.add_argument("--table", required=True, help="JSON table literal file")
    _add_prior_options(p)
    p.add_argument("--dist", default=None, choices=FIT_FAMILIES)
    p.add_argument("--epsilon", type=float, default=FilterConfig().epsilon)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("mc", help="Monte Carlo summary of the information posterior")
    p.add_argument("--table", required=True)
    _add_prior_options(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit", default=None, choices=FIT_FAMILIES)
    p.add_argument("--dump", default=None, help="write raw draws as little-endian float64")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("select", help="filter attributes of a CSV dataset")
    _add_dataset_options(p)
    p.add_argument("--filter", required=True, choices=FILTERS)
    _add_filter_options(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("run", help="incremental classify-then-update experiment")
    _add_dataset_options(p)
    p.add_argument("--filters", default=",".join(FILTERS))
    _add_filter_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--missing", default="drop", choices=("drop", "keep"))
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ttest", help="paired t test between two filters of a JSON report")
    p.add_argument("--report", required=True)
    p.add_argument("--pair", required=True, help="two filter names, e.g. ff,f")
    p.add_argument("--k", type=int, default=None, help="prefix length (default: all instances)")
    p.set_defaults(func=cmd_ttest)

    p = sub.add_parser("discretize", help="equal-frequency binning of numeric columns")
    _add_dataset_options(p)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_discretize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except (InputError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

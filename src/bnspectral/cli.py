"""Command-line front-end.

Subcommands: spectrum, measures, collapse, analyze, baseline, selftest.
Exit codes: 0 success, 2 usage error, 3 input error, 4 arity cap exceeded;
1 when standard output closes before the output is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from itertools import takewhile
from pathlib import Path

from . import __version__
from .analysis import (
    BASELINE_MODES,
    BaselineSpec,
    baseline_curves,
    determinative_power,
    node_spectra,
    sensitivity_scatter,
    uncertainty_curve,
)
from .boolfn import (
    ArityCapError,
    BoolFn,
    ProductDist,
    indices_of,
    mask_of,
    relevant_variables,
    transform,
)
from .measures import (
    avg_sensitivity,
    entropy_bounds,
    influence,
    influence_entropy_identity,
    independence_test,
    mi_influence_bound_check,
    mutual_information,
    output_entropy,
    unateness,
)
from .netlang import (
    NetParseError,
    Network,
    collapse,
    collapsed_to_json,
    effective_inputs,
    localize,
    parse,
    parse_expression,
    references,
)
from .reports import (
    _rounded,
    baseline_to_json,
    curve_csv,
    curve_svg,
    ranking_table,
    round12,
    scatter_csv,
    scatter_svg,
    write_json,
)
from .selftest import format_reports, run_selftest

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CAP = 4


class InputError(ValueError):
    pass


def _function_from_args(args) -> BoolFn:
    if args.expr is not None:
        for flag, value in (("--table-hex", args.table_hex), ("--labels", args.labels)):
            if value is not None:
                raise InputError(f"--expr cannot be combined with {flag}")
        expr = parse_expression(args.expr)
        net = Network(references(expr), (("f", expr),))
        return BoolFn(len(net.inputs), net.inputs, localize(net, args.cap).nodes[0].table)
    if args.table_hex:
        if not args.labels:
            raise InputError("--table-hex requires --labels")
        labels = args.labels.split(",")
        if "" in labels:
            raise InputError(f"empty name in --labels {args.labels!r}")
        return BoolFn.from_hex(args.table_hex, labels)
    raise InputError("provide --expr or --table-hex")


def _dist_for(labels: tuple[str, ...], p_spec: str | None) -> ProductDist:
    n = len(labels)
    if p_spec is None:
        return ProductDist.uniform(n)
    if p_spec.startswith("@"):
        by_name = {}
        for lineno, line in enumerate(Path(p_spec[1:]).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{p_spec[1:]}:{lineno}:"
            parts = line.replace("=", " ").split()
            if len(parts) != 2:
                raise InputError(f"{where} expected 'name p'")
            name, value = parts
            if name in by_name:
                raise InputError(f"{where} {name!r} listed twice")
            try:
                by_name[name] = p = float(value)
            except ValueError:
                raise InputError(f"{where} {name!r}: {value!r} is not a number") from None
            if not 0.0 < p < 1.0:
                raise InputError(f"{where} {name!r}: probability {p} "
                                 "outside the open interval (0,1)")
        missing = [name for name in labels if name not in by_name]
        if missing:
            raise InputError(f"missing probabilities for: {', '.join(missing)}")
        return ProductDist(tuple(by_name[name] for name in labels))
    values = _p_values(p_spec)
    if len(values) == 1:
        values = values * n
    if len(values) != n:
        raise InputError(f"got {len(values)} probabilities for {n} variables")
    return ProductDist(tuple(values))


def _p_values(p_spec: str) -> list[float]:
    """The probabilities of a comma-list or single-value ``--p``."""
    try:
        values = [float(v) for v in p_spec.split(",")]
    except ValueError:
        raise InputError(f"--p {p_spec!r} is not a comma list of numbers") from None
    for v in values:
        if not 0.0 < v < 1.0:
            raise InputError(f"--p value {v} outside the open interval (0,1)")
    return values


def _mask_from_names(arg: str | None, labels: tuple[str, ...]) -> int:
    if arg is None:
        return (1 << len(labels)) - 1
    if arg.strip() == "":
        return 0
    names = arg.split(",")
    for k, name in enumerate(names):
        if name not in labels:
            raise InputError(f"unknown variable in --A: {name!r}")
        if name in names[:k]:
            raise InputError(f"variable listed twice in --A: {name!r}")
    return mask_of(labels.index(name) for name in names)


def _subset_label(mask: int, labels: tuple[str, ...]) -> str:
    return "{" + ",".join(labels[i] for i in indices_of(mask)) + "}"


def cmd_spectrum(args) -> int:
    f = _function_from_args(args)
    d = _dist_for(f.labels, args.p)
    s = transform(f, d, cap=args.cap)
    order = sorted(range(1 << f.arity), key=lambda m: (bin(m).count("1"), m))
    if args.format == "json":
        rows = [{"mask": m, "subset": _subset_label(m, f.labels),
                 "degree": bin(m).count("1"), "coefficient": round12(s.coeff(m))}
                for m in order]
        print(json.dumps(rows, indent=2))
    else:
        print("mask,degree,subset,coefficient")
        for m in order:
            print(f"{m},{bin(m).count('1')},{_subset_label(m, f.labels)},{round12(s.coeff(m))!r}")
    return EXIT_OK


def cmd_measures(args) -> int:
    f = _function_from_args(args)
    d = _dist_for(f.labels, args.p)
    mask = _mask_from_names(args.A, f.labels)
    s = transform(f, d, cap=args.cap)
    bounds = entropy_bounds(s, mask)
    lhs = rhs = None
    if mask:
        lhs, rhs = mi_influence_bound_check(s, mask)
    prof = unateness(f)
    report = {
        "labels": list(f.labels),
        "table_hex": f.to_hex(),
        "relevant": [f.labels[i] for i in indices_of(relevant_variables(f))],
        "A": _subset_label(mask, f.labels),
        "influence": {f.labels[i]: influence(f, d, i) for i in range(f.arity)},
        "avg_sensitivity": avg_sensitivity(f, d),
        "avg_sensitivity_A": avg_sensitivity(f, d, mask),
        "output_entropy": output_entropy(f, d),
        "cond_entropy_A": bounds.exact,
        "mutual_information_A": mutual_information(s, mask),
        "entropy_bounds_A": {"lower": bounds.lower, "exact": bounds.exact,
                             "upper": bounds.upper},
        "sensitivity_mi_bound_A": None if lhs is None else {"lhs": lhs, "rhs": rhs},
        "influence_entropy_pairs": {
            f.labels[i]: list(influence_entropy_identity(s, i)) for i in range(f.arity)
        },
        "independent_of_A": independence_test(s, mask),
        "unate": {"is_unate": prof.is_unate,
                  "polarity": {f.labels[i]: prof.polarity[i] for i in range(f.arity)}},
    }
    print(json.dumps(_rounded(report), indent=2, sort_keys=True))
    return EXIT_OK


def _out_dir(args) -> Path:
    """Create the output directory ``args.out`` before any work, so a path
    mistake ends the run at once.  Each missing directory on the path goes
    into ``args.created``, deepest first, for ``main`` to remove if empty."""
    out = Path(args.out)
    args.created += takewhile(lambda p: not p.exists(), (out, *out.parents))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_collapse(args) -> int:
    out = _out_dir(args) if args.out else None
    net = parse(Path(args.network).read_text())
    c = collapse(net, cap=args.cap)
    payload = collapsed_to_json(c)
    if out:
        write_json(out / "collapsed.json", payload)
        print(f"wrote {out / 'collapsed.json'}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _network_run(args, mode: str | None):
    """The stages ``analyze`` and ``baseline`` share.  The baseline spec and
    the output directory come first, so a flag mistake costs no work; then
    parse, collapse, distribution, node spectra, D(j) ranking, the A(l) curve
    and, with a ``mode``, its baseline.  Returns (out, text, spectra, ranking,
    L, curve, baseline)."""
    spec = None if mode is None else BaselineSpec(mode=mode, trials=args.trials,
                                                  seed=args.seed)
    out = _out_dir(args)
    text = Path(args.network).read_text()
    net = parse(text)
    c = collapse(net, cap=args.cap)
    spectra = node_spectra(c, _dist_for(c.inputs, args.p))
    ranking = determinative_power(spectra)
    L = args.L if args.L is not None else len(ranking.tau)
    curve = uncertainty_curve(spectra, ranking.tau, L)
    baseline = None if spec is None else baseline_curves(net, spec, spectra.d, L, cap=args.cap)
    return out, text, spectra, ranking, L, curve, baseline


def cmd_analyze(args) -> int:
    if args.top < 0:
        raise InputError(f"--top must be nonnegative, got {args.top}")
    out, text, spectra, ranking, L, curve, baseline = _network_run(args, args.baseline)
    scatter = sensitivity_scatter(spectra)
    c, d = spectra.c, spectra.d

    eff, non_eff = effective_inputs(c)
    report = {
        "metadata": {
            "tool": "bnspectral",
            "version": __version__,
            "network_file": str(args.network),
            "dataset_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "seed": args.seed,
            "distribution": {"kind": "uniform"} if args.p is None else
                            {"kind": "product", "p": {name: round12(p) for name, p
                                                      in zip(c.inputs, d.probs)}},
            "counts": {
                "inputs": len(c.inputs),
                "nodes": len(c.nodes),
                "effective_inputs": len(eff),
                "non_effective_inputs": len(non_eff),
                "constants": len(c.constants),
            },
            "cap": args.cap,
            "L": L,
        },
        "d_values": dict(ranking.d_values),
        "tau": list(ranking.tau),
        "curve": [[l, v] for l, v in curve.points],
        "baseline": None if baseline is None else baseline_to_json(baseline),
        "scatter": [
            {"name": r.name, "in_degree": r.in_degree,
             "avg_sensitivity": r.avg_sensitivity, "prob_one": r.prob_one,
             "poincare_lower": r.poincare_lower}
            for r in scatter
        ],
        "non_effective_inputs": list(non_eff),
    }

    write_json(out / "report.json", report)
    (out / "curve.csv").write_text(curve_csv(curve, baseline))
    (out / "scatter.csv").write_text(scatter_csv(scatter))
    if args.svg:
        (out / "curve.svg").write_text(curve_svg(curve, baseline))
        (out / "scatter.svg").write_text(scatter_svg(scatter))
    print(ranking_table(ranking, args.top))
    print("\ncollapsed in-degree histogram:", {k: len(rows) for k, rows, *_ in spectra.groups})
    print(f"\nwrote report.json, curve.csv, scatter.csv to {out}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    out, *_, curve, baseline = _network_run(args, args.mode)
    (out / "baseline.csv").write_text(curve_csv(curve, baseline))
    write_json(out / "baseline.json", {**baseline_to_json(baseline),
                                       "true_curve": [[l, v] for l, v in curve.points]})
    print(f"wrote baseline.csv, baseline.json to {out}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    reports = run_selftest(trials=args.trials, seed=args.seed)
    print(format_reports(reports))
    return EXIT_OK if all(r.passed for r in reports) else 1


def _add_function_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--expr", help="inline expression, e.g. 'x1 AND x2'")
    sub.add_argument("--table-hex", help="little-endian truth table hex")
    sub.add_argument("--labels", help="comma list of variable names (with --table-hex)")
    sub.add_argument("--p", help="probabilities: comma list, single value, or @file")


def _add_network_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("network")
    sub.add_argument("--p", help="probabilities: comma list, single value, or @file")
    sub.add_argument("--L", type=int, default=None, help="curve length (default: all inputs)")
    sub.add_argument("--trials", type=int, default=25)
    sub.add_argument("--out", default="out")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cap", type=int, default=None, help="arity cap override")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bnspectral",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="coefficients of a single function")
    _add_function_args(sp)
    _add_common(sp)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(fn=cmd_spectrum)

    sm = subs.add_parser("measures", help="influence/entropy/MI report for a function")
    _add_function_args(sm)
    _add_common(sm)
    sm.add_argument("--A", help="comma list of conditioning variables (default: all)")
    sm.set_defaults(fn=cmd_measures)

    sc = subs.add_parser("collapse", help="collapse a network file to input-layer tables")
    sc.add_argument("network")
    sc.add_argument("--out", help="output directory (default: print JSON)")
    _add_common(sc)
    sc.set_defaults(fn=cmd_collapse)

    sa = subs.add_parser("analyze", help="full network analysis with reports")
    _add_network_args(sa)
    sa.add_argument("--baseline", choices=list(BASELINE_MODES), default=None)
    sa.add_argument("--top", type=int, default=10)
    sa.add_argument("--svg", action="store_true", help="also write SVG figures")
    _add_common(sa)
    sa.set_defaults(fn=cmd_analyze)

    sb = subs.add_parser("baseline", help="randomized baseline curves for a network")
    _add_network_args(sb)
    sb.add_argument("--mode", choices=list(BASELINE_MODES), required=True)
    _add_common(sb)
    sb.set_defaults(fn=cmd_baseline)

    st = subs.add_parser("selftest", help="randomized identity suite")
    st.add_argument("--trials", type=int, default=1000)
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(fn=cmd_selftest)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    args.created = []
    try:
        if getattr(args, "trials", 1) < 1:
            raise InputError(f"--trials must be at least 1, got {args.trials}")
        if getattr(args, "cap", None) is not None and args.cap < 0:
            raise InputError(f"--cap must be nonnegative, got {args.cap}")
        if args.seed < 0:
            raise InputError(f"--seed must be nonnegative, got {args.seed}")
        if getattr(args, "L", None) is not None and args.L < 0:
            raise InputError(f"--L must be nonnegative, got L = {args.L}")
        p_spec = getattr(args, "p", None)
        if p_spec is not None and not p_spec.startswith("@"):
            _p_values(p_spec)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: send what is still buffered, and the flush at
        # interpreter exit, to the null device instead of failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except ArityCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (NetParseError, InputError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, FileExistsError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        # a successful run has written into each of these, so only a
        # failed one leaves an empty directory of its own to remove
        for path in args.created:
            with contextlib.suppress(OSError):
                path.rmdir()


if __name__ == "__main__":
    sys.exit(main())

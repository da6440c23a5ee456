"""Command-line front-end.

Subcommands: spectrum, measures, collapse, analyze, baseline, selftest.
Exit codes: 0 success, 2 usage error, 3 input error, 4 arity cap exceeded;
1 when standard output closes before the output is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
from itertools import takewhile
from pathlib import Path

from . import __version__
from .analysis import (
    BASELINE_MODES,
    BaselineSpec,
    _check_L,
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
    check_probability,
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
    _tabulate,
    collapse,
    collapsed_to_json,
    effective_inputs,
    parse,
    parse_expression,
    references,
    split_lines,
)
from .reports import (
    baseline_to_json,
    curve_csv,
    curve_svg,
    json_text,
    ranking_table,
    scatter_csv,
    scatter_svg,
    spectrum_csv,
    write_json,
)
from .selftest import format_reports, run_selftest

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CAP = 4


def _function_from_args(args) -> BoolFn:
    if args.expr is not None:
        for flag, value in (("--table-hex", args.table_hex), ("--labels", args.labels)):
            if value is not None:
                raise ValueError(f"--expr cannot be combined with {flag}")
        expr = parse_expression(args.expr)
        labels = references(expr)
        return BoolFn(len(labels), labels, _tabulate("f", expr, labels, args.cap))
    if args.table_hex:
        if not args.labels:
            raise ValueError("--table-hex requires --labels")
        labels = args.labels.split(",")
        if "" in labels:
            raise ValueError(f"empty name in --labels {args.labels!r}")
        return BoolFn.from_hex(args.table_hex, labels)
    raise ValueError("provide --expr or --table-hex")


def _read_p(p_spec: str) -> list[float] | dict[str, float]:
    """``--p`` read and checked: a list for a comma list or single value, a
    name-to-p dict for ``@file``, whose lines are ``name p`` split on whitespace."""
    if not p_spec.startswith("@"):
        try:
            values = [float(v) for v in p_spec.split(",")]
        except ValueError:
            raise ValueError(f"--p {p_spec!r} is not a comma list of numbers") from None
        for v in values:
            check_probability(v)
        return values
    by_name = {}
    for lineno, line in enumerate(split_lines(Path(p_spec[1:]).read_text()), 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        where = f"{p_spec[1:]}:{lineno}:"
        if len(parts) != 2:
            raise ValueError(f"{where} expected 'name p'")
        name, value = parts
        if name in by_name:
            raise ValueError(f"{where} {name!r} listed twice")
        try:
            by_name[name] = p = float(value)
        except ValueError:
            raise ValueError(f"{where} {name!r}: {value!r} is not a number") from None
        try:
            check_probability(p)
        except ValueError as exc:
            raise ValueError(f"{where} {name!r}: {exc}") from None
    return by_name


def _dist_for(labels: tuple[str, ...], p: list[float] | dict[str, float] | None) -> ProductDist:
    """``ProductDist`` of the ``_read_p`` value ``p`` over ``labels``."""
    n = len(labels)
    if p is None:
        return ProductDist.uniform(n)
    if isinstance(p, dict):
        missing = [name for name in labels if name not in p]
        if missing:
            raise ValueError(f"missing probabilities for: {', '.join(missing)}")
        return ProductDist(tuple(p[name] for name in labels))
    if len(p) == 1:
        p = p * n
    if len(p) != n:
        raise ValueError(f"got {len(p)} probabilities for {n} variables")
    return ProductDist(tuple(p))


def _mask_from_names(arg: str | None, labels: tuple[str, ...]) -> int:
    if arg is None:
        return (1 << len(labels)) - 1
    if arg.strip() == "":
        return 0
    names = arg.split(",")
    for k, name in enumerate(names):
        if name not in labels:
            raise ValueError(f"unknown variable in --A: {name!r}")
        if name in names[:k]:
            raise ValueError(f"variable listed twice in --A: {name!r}")
    return mask_of(labels.index(name) for name in names)


def _subset_label(mask: int, labels: tuple[str, ...]) -> str:
    return "{" + ",".join(labels[i] for i in indices_of(mask)) + "}"


def cmd_spectrum(args) -> int:
    f = _function_from_args(args)
    d = _dist_for(f.labels, args.p)
    s = transform(f, d, cap=args.cap)
    rows = [{"mask": m, "subset": _subset_label(m, f.labels),
             "degree": bin(m).count("1"), "coefficient": s.coeff(m)}
            for m in sorted(range(1 << f.arity), key=lambda m: (bin(m).count("1"), m))]
    sys.stdout.write(json_text(rows) if args.format == "json" else spectrum_csv(rows))
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
    sys.stdout.write(json_text(report))
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
        sys.stdout.write(json_text(payload))
    return EXIT_OK


def _network_run(args, mode: str | None):
    """The stages ``analyze`` and ``baseline`` share.  The baseline spec and
    the output directory come first, so a flag mistake costs no work; then
    parse and ``--L`` against the inputs, so an L too large costs no
    collapse; then collapse, distribution, node spectra, D(j) ranking, the
    A(l) curve and, with a ``mode``, its baseline.  Returns (out, text,
    spectra, ranking, L, curve, baseline)."""
    spec = None if mode is None else BaselineSpec(mode=mode, trials=getattr(args, "trials", 25),
                                                  seed=args.seed)
    out = _out_dir(args)
    text = Path(args.network).read_text()
    net = parse(text)
    L = len(net.inputs) if args.L is None else args.L
    _check_L(L, len(net.inputs))
    c = collapse(net, cap=args.cap)
    spectra = node_spectra(c, _dist_for(c.inputs, args.p))
    ranking = determinative_power(spectra)
    curve = uncertainty_curve(spectra, ranking.tau, L)
    baseline = None if spec is None else baseline_curves(net, spec, spectra.d, L, cap=args.cap)
    return out, text, spectra, ranking, L, curve, baseline


def cmd_analyze(args) -> int:
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
                            {"kind": "product", "p": dict(zip(c.inputs, d.probs))},
            "counts": {
                "inputs": len(c.inputs),
                "nodes": len(c.names),
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
        "scatter": [vars(r) for r in scatter],
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
    sub.add_argument("--trials", type=int, default=argparse.SUPPRESS,
                     help="baseline trials (default 25)")
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
    if args.command == "analyze" and args.baseline is None and "trials" in args:
        ap.error("analyze: --trials needs --baseline")  # exits 2
    args.created = []
    try:
        # every flag is checked, and --p read, before any command starts work
        for flag, least in (("trials", 1), ("cap", 0), ("seed", 0), ("L", 0), ("top", 0)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                rule = f"at least {least}" if least else "nonnegative"
                raise ValueError(f"--{flag} must be {rule}, got {value}")
        if getattr(args, "p", None) is not None:
            args.p = _read_p(args.p)
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
    except (OSError, ValueError, KeyError, MemoryError) as exc:
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

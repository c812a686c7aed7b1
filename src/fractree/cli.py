"""Command-line surface.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 resource cap exceeded.  All data outputs are deterministic: repeated
runs on the same inputs are byte-identical.

Every command that steps a recurrence is refused (exit 3) before any work
when the numbers it would reach pass a cap: a stage, ``--iters`` or a
wheel's base order n predicts the bit length of the largest count it
steps to, and ``invariants sizes`` the digits it would print.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import construct, clustering, sequences, spanning, verify
from .errors import DomainViolationError, FractreeError, OverflowCapError, SizeCapError
from .exact import decimal_str, factored_expand, short_count_str
from .graph import (
    block_census,
    degree_histogram,
    dot_chunks,
    edgelist_chunks,
    format_block_census,
    json_chunks,
)
from .params import Family, FractalParams

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3


# the most digits `invariants sizes` may print
MAX_SIZES_DIGITS = 1 << 24
# a wheel's base count L_2n - 2 is a factored count's base, and prints as a
# JSON int only within the interpreter's default int-to-str digit limit
MAX_WHEEL_BASE_DIGITS = 4300
_LOG10_GOLDEN = math.log10((1 + math.sqrt(5)) / 2)


class _UsageError(Exception):
    pass


def _check_wheel_base(params: FractalParams) -> None:
    """Refuse a wheel whose base count L_2n - 2, about 2n * log10(golden
    ratio) digits, would pass MAX_WHEEL_BASE_DIGITS."""
    if params.family is Family.WHEEL:
        sequences.check_cap(2 * params.n, _LOG10_GOLDEN, MAX_WHEEL_BASE_DIGITS, "digit",
                            f"wheel n = {short_count_str(params.n)} would step its base count to")


class _Parser(argparse.ArgumentParser):
    def print_help(self):
        """Write the help through :func:`_emit`, as every stdout write: the
        writer argparse uses drops an ``OSError``."""
        _emit([self.format_help()], None)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fractree",
        description="Construct self-similar cycle/wheel graphs and verify their invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("family_pos", nargs="?", metavar="FAMILY", help="cycle or wheel")
        p.add_argument("n_pos", nargs="?", type=int, metavar="N")
        p.add_argument("m_pos", nargs="?", type=int, metavar="M")
        p.add_argument("i_pos", nargs="?", type=int, metavar="I")
        p.add_argument("--family", choices=["cycle", "wheel"])
        p.add_argument("-n", "--n", type=int, dest="n")
        p.add_argument("-m", "--m", type=int, dest="m")
        p.add_argument("-i", "--stage", type=int, dest="i")

    gen = sub.add_parser("generate", help="build a graph and write it out")
    add_params(gen)
    gen.add_argument("--format", choices=["edgelist", "json", "dot"], default="edgelist")
    gen.add_argument("--out", help="output path (default: stdout)")

    cnt = sub.add_parser("count", help="count spanning trees")
    add_params(cnt)
    cnt.add_argument(
        "--method", choices=["formula", "matrix-tree", "blocks", "all"], default="formula"
    )
    cnt.add_argument("--json", action="store_true", dest="as_json")
    cnt.add_argument("--out", help="output path (default: stdout)")

    inv = sub.add_parser("invariants", help="print direct and closed-form invariants")
    inv.add_argument(
        "which", choices=["entropy", "clustering", "sizes", "census", "degrees"]
    )
    add_params(inv)
    inv.add_argument("--iters", type=int, help="entropy: iterations "
                     f"(default {sequences.DEFAULT_ENTROPY_ITERS})")
    inv.add_argument("--upto", type=int, help="sizes: highest index (default 10)")
    inv.add_argument("--out", help="output path (default: stdout)")

    surf = sub.add_parser("surface", help="entropy surface as CSV over (n, m) ranges")
    surf.add_argument("family_pos", nargs="?", metavar="FAMILY")
    surf.add_argument("n_range_pos", nargs="?", metavar="NRANGE", help="e.g. 3..6")
    surf.add_argument("m_range_pos", nargs="?", metavar="MRANGE", help="e.g. 2..4")
    surf.add_argument("--family", choices=["cycle", "wheel"])
    surf.add_argument("--n-range")
    surf.add_argument("--m-range")
    surf.add_argument("--out", help="output path (default: stdout)")

    ver = sub.add_parser("verify", help="run the cross-check suite")
    ver.add_argument("--quick", action="store_true", help="leave out the larger graphs")
    ver.add_argument("--json", dest="json_path", help="also write the JSON report here")

    return parser


def _parse_family(name: str) -> Family:
    try:
        return Family(name)
    except ValueError:
        raise _UsageError(f"unknown family {name!r}") from None


def _either(option, positional, name: str):
    """The value given as an option or positionally; two different values are refused."""
    if positional is not None and option not in (None, positional):
        raise _UsageError(f"{name} given twice: {positional} and {option}")
    return positional if option is None else option


def _resolve_params(args, default_stage=None) -> FractalParams:
    family = _either(args.family, args.family_pos, "family")
    n = _either(args.n, args.n_pos, "n")
    m = _either(args.m, args.m_pos, "m")
    i = _either(args.i, args.i_pos, "stage")
    if family is None or n is None or m is None:
        raise _UsageError("family, n and m are required (positional or --family/--n/--m)")
    if i is None:
        if default_stage is None:
            raise _UsageError("stage is required (positional or -i/--stage)")
        i = default_stage
    params = FractalParams(_parse_family(family), n, m, i)
    # the stage-i graph has u_{i+1} vertices
    sequences.check_steps(params, params.i + 1, f"stage {short_count_str(params.i)}")
    return params


def _emit(chunks, out_path) -> None:
    """Write the strings of ``chunks`` to ``out_path``, or to stdout, as
    they come.  Every stdout write goes through here and is flushed, so a
    closed pipe or a full disk is a usage error, with nothing left to fail
    as the interpreter exits."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc.strerror}") from None
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # what stays buffered would fail again at exit: send it to the null device
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise _UsageError(f"cannot write stdout: {exc.strerror}") from None


_EXPORTS = {"edgelist": edgelist_chunks, "json": json_chunks, "dot": dot_chunks}


def _cmd_generate(args) -> int:
    params = _resolve_params(args, default_stage=0)
    g = construct.build(params)
    _emit(_EXPORTS[args.format](g), args.out)
    return EXIT_OK


def _cmd_count(args) -> int:
    params = _resolve_params(args, default_stage=0)
    results = {}
    if args.method in ("formula", "all"):
        _check_wheel_base(params)
        results["formula"] = spanning.tau_closed(params)
    if args.method in ("matrix-tree", "all"):
        # refuse before building: index doubling gives the vertex count
        spanning.check_oracle_cap(sequences.vertex_count(params, params.i + 1))
    if args.method in ("matrix-tree", "blocks", "all"):
        g = construct.build(params)
        if args.method in ("matrix-tree", "all"):
            results["matrix-tree"] = spanning.tau_oracle(g)
        if args.method in ("blocks", "all"):
            results["blocks"] = spanning.tau_blocks(g)

    values = {
        method: factored_expand(result) if method == "formula" else result
        for method, result in results.items()
    }
    texts = {method: decimal_str(value) for method, value in values.items()}
    agree = len(set(values.values())) == 1
    if args.as_json:
        payload = {}
        for method, text in texts.items():
            entry = {"factored": results[method].to_json()} if method == "formula" else {}
            payload[method] = {**entry, "decimal": text, "digits": len(text)}
        if args.method == "all":
            payload["agree"] = agree
        _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    else:
        lines = []
        for method, text in texts.items():
            shown = f"{results[method]} = {text}" if method == "formula" else text
            lines.append(f"{method}: {shown} ({len(text)} digits)")
        if args.method == "all":
            lines.append("agreement: all methods agree" if agree else "agreement: DISAGREEMENT")
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_MISMATCH if args.method == "all" and not agree else EXIT_OK


def _fmt10(x) -> str:
    return f"{x:.10g}"


def _cmd_invariants(args) -> int:
    # entropy is a limit over all stages, so it takes none but the default 0
    if args.which == "entropy" and _either(args.i, args.i_pos, "stage"):
        raise _UsageError("invariants entropy is a limit over all stages and takes no stage")
    if args.iters is not None and args.which != "entropy":
        raise _UsageError("--iters applies only to invariants entropy")
    if args.upto is not None and args.which != "sizes":
        raise _UsageError("--upto applies only to invariants sizes")
    if args.upto is not None and args.upto < 0:
        raise _UsageError(f"--upto must be an integer >= 0, got {args.upto}")
    lines = []
    if args.which == "entropy":
        params = _resolve_params(args, default_stage=0)
        iters = sequences.DEFAULT_ENTROPY_ITERS if args.iters is None else args.iters
        _check_wheel_base(params)
        sequences.check_steps(params, iters + 1, f"--iters {short_count_str(iters)}")
        off, same = sequences.entropy_estimates(params, iters)
        lines.append(f"offset-stage: {_fmt10(off.value)} (delta {off.delta:.3e})")
        lines.append(f"same-stage: {_fmt10(same.value)} (delta {same.delta:.3e})")
        try:
            lines.append(f"closed-form: {_fmt10(sequences.entropy_closed(params))}")
        except DomainViolationError as exc:
            lines.append(f"closed-form: not applicable ({exc})")
    elif args.which == "clustering":
        params = _resolve_params(args)
        report = clustering.average_clustering(construct.build(params))
        closed = clustering.clustering_closed(params)
        payload = report.to_json(closed_form=closed)
        published = verify.PUBLISHED_CLUSTERING.get(
            (params.family, params.n, params.m, params.i)
        )
        if published is not None:
            payload["published"] = str(published)
            payload["published_match"] = published == report.average
        lines.append(json.dumps(payload, indent=2))
    elif args.which == "sizes":
        params = _resolve_params(args, default_stage=0)
        upto = max(10 if args.upto is None else args.upto, params.i + 1)
        what = f"invariants sizes to index {short_count_str(upto)}"
        sequences.check_steps(params, upto, what)
        # u_j and e_j have about j * log10(root) digits each
        sequences.check_cap(upto * upto, sequences.growth(params, math.log10),
                            MAX_SIZES_DIGITS, "digit", f"{what} would print")
        seq = sequences.size_sequences(params, upto)
        lines.append(f"u: {', '.join(map(decimal_str, seq.u))}")
        lines.append(f"e: {', '.join(map(decimal_str, seq.e))}")
        lines.append(
            f"stage-{params.i} graph: {decimal_str(seq.u[params.i + 1])} vertices, "
            f"{decimal_str(seq.e[params.i + 1])} edges"
        )
    elif args.which == "census":
        params = _resolve_params(args)
        # build first: the build's vertex cap bounds the predictions' work
        actual = block_census(construct.build(params))
        census = construct.copy_census(params)
        for t in sorted(census.stage_counts, reverse=True):
            lines.append(f"stage-{t} copies: {census.stage_counts[t]}")
        lines.append(f"central: {census.central}")
        predicted = construct.predicted_block_multiset(params)
        lines.append(f"predicted blocks: {format_block_census(predicted)}")
        lines.append(f"structural blocks: {format_block_census(actual)}")
        lines.append(f"match: {actual == predicted}")
    else:  # degrees
        params = _resolve_params(args)
        actual = degree_histogram(construct.build(params))
        predicted = clustering.degree_census_predicted(params)
        lines.append(
            "predicted: " + "; ".join(f"{d}:{c}" for d, c in sorted(predicted.items()))
        )
        lines.append(
            "built: " + "; ".join(f"{d}:{c}" for d, c in sorted(actual.items()))
        )
        lines.append(f"match: {actual == predicted}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


def _parse_range(text, lo, hi, what) -> range:
    try:
        if ".." in text:
            a, b = text.split("..")
            first, last = int(a), int(b)
        else:
            first = last = int(text)
    except (ValueError, AttributeError):
        raise _UsageError(f"bad {what} range {text!r}, expected e.g. 3..6") from None
    if first > last or first < lo or last > hi:
        raise _UsageError(f"{what} range must lie within [{lo},{hi}] and be ascending")
    return range(first, last + 1)


def _cmd_surface(args) -> int:
    family = _either(args.family, args.family_pos, "family")
    n_text = _either(args.n_range, args.n_range_pos, "n range")
    m_text = _either(args.m_range, args.m_range_pos, "m range")
    if family is None or n_text is None or m_text is None:
        raise _UsageError("surface needs FAMILY, NRANGE and MRANGE")
    family = _parse_family(family)
    n_range = _parse_range(n_text, 3, 64, "n")
    m_range = _parse_range(m_text, 2, 64, "m")
    rows = sequences.entropy_surface_rows(family, n_range, m_range)
    out = ["family,n,m,sigma_offset,sigma_same,sigma_closed"]
    for n, m, offset, same, closed in rows:
        closed_text = _fmt10(closed) if closed is not None else ""
        out.append(f"{family.value},{n},{m},{_fmt10(offset)},{_fmt10(same)},{closed_text}")
    _emit(["\n".join(out) + "\n"], args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify.verify_suite("quick" if args.quick else "full")
    _emit([report.to_table_text()], None)
    if args.json_path:
        _emit([report.to_json_text()], args.json_path)
    return report.exit_code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 0 once --help is written, and 2 for usage errors
            return EXIT_USAGE if exc.code else EXIT_OK
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "invariants":
            return _cmd_invariants(args)
        if args.command == "surface":
            return _cmd_surface(args)
        return _cmd_verify(args)
    except (SizeCapError, OverflowCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (_UsageError, FractreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

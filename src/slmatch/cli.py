"""Command-line front end.

Exit codes: 0 = success / no counterexample, 1 = counterexample or property
violation, 2 = refused input: any InputError (see errors.py) or OSError.
Numbers are printed with 12 significant digits so goldens are portable.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import IO

from .errors import InputError
from .graph import Graph
from .graph6 import decode_graph6, read_edge_list
from .proof_harness import (
    ProofInstance,
    check_scenario,
    run_proof_suite,
    verify_polynomial_transcriptions,
)
from .spectral import closed_form_r, edge_threshold, q1, q1_threshold, r_of_n
from .verify import (
    JSONL_FIELDS,
    VERDICT_COUNTEREXAMPLE,
    CorpusSummary,
    check_graph,
    run_exhaustive,
    run_random,
    run_stream,
    sharpness_row,
)


def _text(value) -> str:
    """CLI text: floats to 12 significant digits, lower-case booleans, witness a,b or null."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "null" if value is None else str(value)


def _print_fields(stdout: IO[str], **fields) -> None:
    for name, value in fields.items():
        print(f"{name} {_text(value)}", file=stdout)


def _load_graph(args) -> Graph:
    if args.graph6 is not None:
        return decode_graph6(args.graph6)
    # latin-1 maps every byte to one character, so a stray byte reaches the
    # parser, which refuses it, instead of failing to decode
    with open(args.edges, "r", encoding="latin-1") as handle:
        return read_edge_list(handle)


def _refuse_out_onto_input(out: str | None, source: str | None) -> None:
    """Refuse an --out that is the input file, or a link to it, before either
    is opened: writing it would truncate the input while it is being read."""
    try:
        same = out and source and os.path.samefile(out, source)
    except OSError:  # a missing file is reported where the command opens it
        return
    if same:
        raise InputError(f"--out {out} would overwrite the input file {source}")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph6", help="graph6 line")
    source.add_argument("--edges", help="edge-list file ('n m' header, 'u v' lines)")


def _print_summary(summary: CorpusSummary, stdout: IO[str]) -> None:
    print(f"checked {summary.checked}", file=stdout)
    if summary.expected_count is not None:
        print(f"expected {summary.expected_count}", file=stdout)
    for verdict in sorted(summary.verdicts):
        print(f"verdict {verdict} {summary.verdicts[verdict]}", file=stdout)
    print(f"counterexamples {len(summary.counterexamples)}", file=stdout)
    print(f"edge-violations {len(summary.edge_violations)}", file=stdout)
    for reason in sorted(summary.skipped):
        print(f"skipped {reason} {summary.skipped[reason]}", file=stdout)
    for record in summary.counterexamples:
        print(f"COUNTEREXAMPLE {record.to_json()}", file=stdout)


def _cmd_q1(args, stdout) -> int:
    print(_text(q1(_load_graph(args))), file=stdout)
    return 0


def _cmd_threshold(args, stdout) -> int:
    n = args.n
    # every value first, so a refused order prints nothing
    q, r, e = q1_threshold(n), r_of_n(n), edge_threshold(n)
    _print_fields(stdout, n=n, q1_threshold=q, r_n=r, edge_threshold=e)
    return 0


def _cmd_rn(args, stdout) -> int:
    # both values first, so a refused order prints nothing
    fields = {"r_n": r_of_n(args.n)}
    if args.closed_form:
        fields["closed_form"] = closed_form_r(args.n)
    _print_fields(stdout, **fields)
    return 0


def _cmd_check(args, stdout) -> int:
    _refuse_out_onto_input(args.out, args.edges)
    record = check_graph(_load_graph(args))
    _print_fields(stdout, **{name: getattr(record, name) for name in JSONL_FIELDS})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            sink.write(record.to_json() + "\n")
    return 1 if record.verdict == VERDICT_COUNTEREXAMPLE else 0


class _LazySink:
    """A text file created or truncated at its first write, so a sweep
    refused before its first record leaves an existing file as it was."""

    def __init__(self, path: str):
        self._path = path
        self._handle: IO[str] | None = None

    def write(self, text: str) -> int:
        if self._handle is None:
            self._handle = open(self._path, "w", encoding="utf-8")
        return self._handle.write(text)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()


def _cmd_verify(args, stdout) -> int:
    _refuse_out_onto_input(args.out, args.graph6_file)
    sink = _LazySink(args.out) if args.out else None
    try:
        if args.exhaustive is not None:
            summary = run_exhaustive(args.exhaustive, out=sink, jobs=args.jobs)
        elif args.graph6_file is not None:
            # graph6 is ASCII; latin-1 maps every byte to one character, so a
            # stray non-ASCII byte becomes a counted parse error
            with open(args.graph6_file, "r", encoding="latin-1") as handle:
                summary = run_stream(handle, out=sink, jobs=args.jobs)
        else:
            if args.count is None or args.p is None:
                raise InputError("--random needs --p and --count")
            summary = run_random(
                args.random, args.p, args.count, args.seed, out=sink, jobs=args.jobs
            )
        if sink is not None:
            sink.write("")  # a clean sweep with no records still writes the file
    finally:
        if sink is not None:
            sink.close()
    _print_summary(summary, stdout)
    return summary.exit_code()


def _cmd_extremal(args, stdout) -> int:
    row = sharpness_row(args.n)
    names = ("n", "edges", "q1", "q1_threshold", "has_pm", "witness")
    fields = {name: getattr(row.record, name) for name in names}
    _print_fields(stdout, **fields, sharp=row.passed)
    if args.emit_graph6:
        print(row.record.graph6, file=stdout)
    return 0 if row.passed else 1


def _parse_instance(text: str) -> ProofInstance:
    try:
        numbers = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise InputError(f"--instance expects integers 's,n1,n2,...', got {text!r}") from exc
    if len(numbers) < 2:
        raise InputError("--instance needs s followed by at least one part")
    return ProofInstance(numbers[0], tuple(numbers[1:]))


def _cmd_proof_check(args, stdout) -> int:
    if args.instance is not None:
        reports = check_scenario(_parse_instance(args.instance))
        for report in reports:
            print(report, file=stdout)
    else:
        reports = run_proof_suite(nmax=args.nmax)
        counts = Counter((r.name, r.status) for r in reports)
        for name in sorted({name for name, _ in counts}):
            passed, skipped, failed = (counts[name, s] for s in ("PASS", "SKIP", "FAIL"))
            print(f"{name} pass {passed} skip {skipped} fail {failed}", file=stdout)
        for report in reports:
            if report.status == "FAIL":
                print(f"FAIL {report}", file=stdout)
        for record in verify_polynomial_transcriptions():
            print(f"transcription {record}", file=stdout)
    return 1 if any(r.status == "FAIL" for r in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slmatch",
        description="Signless-Laplacian spectral thresholds for perfect matchings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("q1", help="spectral radius of one graph")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_q1)

    p = sub.add_parser("threshold", help="thresholds for an even order n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("rn", help="largest root of the threshold cubic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--closed-form", action="store_true", dest="closed_form")
    p.set_defaults(func=_cmd_rn)

    p = sub.add_parser("check", help="full verdict record for one graph")
    _add_graph_source(p)
    p.add_argument("--out", help="also write the record as JSONL")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="sweep a corpus for counterexamples")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--exhaustive", type=int, metavar="N")
    source.add_argument("--graph6-file", dest="graph6_file", metavar="PATH")
    source.add_argument("--random", type=int, metavar="N")
    p.add_argument("--p", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write one JSONL record per graph")
    jobs_help = "worker processes, one compute thread each (output is the same)"
    p.add_argument("--jobs", type=int, default=1, help=jobs_help)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extremal", help="sharpness row of the threshold-attaining graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit-graph6", action="store_true", dest="emit_graph6")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("proof-check", help="run the proof-step property sweep")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--instance", metavar="s,n1,n2,...")
    nmax_help = "order limit for --all (even, >= 4); --instance ignores it"
    p.add_argument("--nmax", type=int, default=12, help=nmax_help)
    p.set_defaults(func=_cmd_proof_check)

    return parser


def main(argv: list[str] | None = None, stdout: IO[str] | None = None) -> int:
    stdout = stdout or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, stdout)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())

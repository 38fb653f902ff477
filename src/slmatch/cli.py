"""Command-line front end.

Exit codes: 0 = success / no counterexample, 1 = counterexample or property
violation, 2 = input error (an order too large to compute at included).
Numbers are printed with 12 significant digits so goldens are portable.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import IO

from .errors import Graph6ParseError, InputError, NumericalError, SamplingError
from .graph import Graph
from .graph6 import decode_graph6, read_edge_list
from .proof_harness import (
    ProofInstance,
    check_merge_singletons,
    check_root_bounds,
    check_vertex_shift,
    run_proof_suite,
)
from .spectral import closed_form_r, edge_threshold, q1, q1_threshold, r_of_n
from .verify import (
    VERDICT_COUNTEREXAMPLE,
    CorpusSummary,
    check_graph,
    run_exhaustive,
    run_random,
    run_stream,
    sharpness_row,
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_graph(args) -> Graph:
    if args.graph6 is not None:
        return decode_graph6(args.graph6)
    with open(args.edges, "r", encoding="utf-8") as handle:
        return read_edge_list(handle)


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph6", help="graph6 line")
    source.add_argument("--edges", help="edge-list file ('n m' header, 'u v' lines)")


def _witness_text(witness: tuple[int, ...] | None) -> str:
    return "null" if witness is None else ",".join(map(str, witness))


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
    print(_fmt(q1(_load_graph(args))), file=stdout)
    return 0


def _cmd_threshold(args, stdout) -> int:
    n = args.n
    # every value first, so a refused order prints nothing
    q, r, e = _fmt(q1_threshold(n)), _fmt(r_of_n(n)), edge_threshold(n)
    print(f"n {n}\nq1_threshold {q}\nr_n {r}\nedge_threshold {e}", file=stdout)
    return 0


def _cmd_rn(args, stdout) -> int:
    # both values first, so a refused order prints nothing
    r = _fmt(r_of_n(args.n))
    closed = f"\nclosed_form {_fmt(closed_form_r(args.n))}" if args.closed_form else ""
    print(f"r_n {r}{closed}", file=stdout)
    return 0


def _cmd_check(args, stdout) -> int:
    record = check_graph(_load_graph(args))
    for name in ("graph6", "n", "edges"):
        print(f"{name} {getattr(record, name)}", file=stdout)
    print(f"q1 {_fmt(record.q1)}", file=stdout)
    print(f"q1_threshold {_fmt(record.q1_threshold)}", file=stdout)
    print(f"edge_threshold {record.edge_threshold}", file=stdout)
    print(f"has_pm {str(record.has_pm).lower()}", file=stdout)
    print(f"verdict {record.verdict}", file=stdout)
    print(f"witness {_witness_text(record.witness)}", file=stdout)
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
    record = row.record
    print(f"n {record.n}", file=stdout)
    print(f"edges {record.edges}", file=stdout)
    print(f"q1 {_fmt(record.q1)}", file=stdout)
    print(f"q1_threshold {_fmt(record.q1_threshold)}", file=stdout)
    print(f"has_pm {str(record.has_pm).lower()}", file=stdout)
    print(f"witness {_witness_text(record.witness)}", file=stdout)
    print(f"sharp {str(row.passed).lower()}", file=stdout)
    if args.emit_graph6:
        print(record.graph6, file=stdout)
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
        inst = _parse_instance(args.instance)
        reports = [
            check_root_bounds(inst),
            check_vertex_shift(inst),
            check_merge_singletons(inst),
        ]
        for report in reports:
            print(report, file=stdout)
        return 1 if any(r.status == "FAIL" for r in reports) else 0

    result = run_proof_suite(nmax=args.nmax)
    counts = Counter((r.name, r.status) for r in result.reports)
    for name in sorted({name for name, _ in counts}):
        passed, skipped, failed = (counts[name, status] for status in ("PASS", "SKIP", "FAIL"))
        print(f"{name} pass {passed} skip {skipped} fail {failed}", file=stdout)
    for report in result.failures:
        print(f"FAIL {report}", file=stdout)
    for record in result.transcriptions:
        print(f"transcription {record}", file=stdout)
    return 0 if result.passed else 1


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
    p.add_argument("--jobs", type=int, default=1, help="worker processes (output is the same)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extremal", help="sharpness row of the threshold-attaining graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit-graph6", action="store_true", dest="emit_graph6")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("proof-check", help="run the proof-step property sweep")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--instance", metavar="s,n1,n2,...")
    p.add_argument("--nmax", type=int, default=12)
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
    except (InputError, Graph6ParseError, NumericalError, SamplingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())

"""Command-line interface.

Subcommands: lines, bound, construct, verify, sweep.  Exit status 0 on
success, 1 on input errors (including violated preconditions), 2 on
internal invariant violations, 3 when a verification finds a theorem
violation.

``INPUT_KINDS`` is the one place where an input kind is described: how
its text becomes the line system that ``lines`` prints and the report
that ``verify`` checks.  Sweepable kinds are described in
``sweeps.SWEEP_KINDS``, and ``sweep --kind`` offers exactly its keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .bounds import dbe_bound, min_pair_sum
from .construct import build_certificate
from .core import bits_of, hypergraph_lines
from .errors import InternalError, LinesysError
from .formats import (
    parse_graph,
    parse_hypergraph,
    parse_metric,
    parse_poset,
    render_line_system,
    render_points,
)
from .graphs import graph_lines
from .metrics import metric_lines
from .posets import comparability_graph
from .sweeps import (
    SWEEP_KINDS,
    graph_report,
    metric_report,
    poset_report,
    run_sweep,
    shape_mismatch,
    sweep_kind,
)
# Not called here: the per-layer tracer of perfbench/ wraps these names.
from .core import all_lines  # noqa: F401
from .graphs import graph_betweenness  # noqa: F401

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_VIOLATION = 3

# Python's documented default int-to-str digit limit.  ``main`` runs
# under it whatever the interpreter's own setting (PYTHONINTMAXSTRDIGITS,
# -X int_max_str_digits), so which ids and numbers print, and so every
# command's bytes and exit code, do not depend on that setting.
INT_MAX_STR_DIGITS = 4300


class _UsageError(LinesysError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this package reserves 2 for
    # internal invariant violations, so route usage errors to exit 1.
    def error(self, message):
        raise _UsageError(message)


def _read_input(path: str) -> str:
    # Files and standard input are both decoded strictly as UTF-8, so
    # the same bytes give the same result whatever the locale.
    if path == "-":
        if not hasattr(sys.stdin, "buffer"):  # already text, as io.StringIO
            return sys.stdin.read()
        source, data = "standard input", sys.stdin.buffer.read()
    else:
        source, data = path, Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot decode {source}: {exc}") from None


def _write_json(out, row: dict) -> None:
    out.write(json.dumps(row) + "\n")


class _InputKind(NamedTuple):
    parse: Callable[[str], object]  # text -> structure
    lines: Callable[[object], Iterator]  # structure -> runs of line_system
    # (structure, instance id) -> (report, certificate defect or None).
    # Only a jsonl row prints the id: it passes None, the report's
    # default id, and text passes "", so no kind builds an id it will
    # not print (a poset's is a base-3 number of up to C(n, 2) digits).
    verify: Callable[[object, int | str | None], tuple] | None


# The one place an input kind is described; verify is None when no
# line-count theorem covers the kind.  Entries look the parsers, line
# builders and reports up when called, so patching or tracing those
# module names reaches every subcommand.  Every line builder reads the
# kind's own rows (a poset's through its comparability graph, which
# induces the same lines) into ``core.line_system``.
INPUT_KINDS = {
    "graph": _InputKind(
        lambda text: parse_graph(text), lambda g: graph_lines(g),
        lambda g, instance_id: (graph_report(g, instance_id), None),
    ),
    "poset": _InputKind(
        lambda text: parse_poset(text), lambda p: graph_lines(comparability_graph(p)),
        lambda p, instance_id: poset_report(p, instance_id),
    ),
    "metric": _InputKind(
        lambda text: parse_metric(text), lambda m: metric_lines(m),
        lambda m, instance_id: (metric_report(m, instance_id), None),
    ),
    "hypergraph": _InputKind(
        lambda text: parse_hypergraph(text), lambda h: hypergraph_lines(*h), None
    ),
}


def _cmd_lines(args, out) -> int:
    kind = INPUT_KINDS[args.kind]
    # The builder raises every input error when called, so nothing is
    # written before it has succeeded; the rows are then streamed.
    runs = kind.lines(kind.parse(_read_input(args.input)))
    render_line_system(runs, out, args.format)
    return EXIT_OK


def _cmd_bound(args, out) -> int:
    wants_poset = args.poset_n is not None or args.height is not None
    wants_pairs = args.pair_sum_n is not None or args.parts is not None
    if not wants_poset and not wants_pairs:
        raise _UsageError(
            "request --poset-n N --height H and/or --pair-sum-n N --parts R"
        )
    # Both requests are checked and evaluated before anything is
    # written, so a failing one leaves stdout empty.
    values = []
    if wants_poset:
        if args.poset_n is None or args.height is None:
            raise _UsageError("--poset-n and --height go together")
        values.append(dbe_bound(args.poset_n, args.height))
    if wants_pairs:
        if args.pair_sum_n is None or args.parts is None:
            raise _UsageError("--pair-sum-n and --parts go together")
        values.append(min_pair_sum(args.pair_sum_n, args.parts))
    out.writelines(f"{value}\n" for value in values)
    return EXIT_OK


def _cmd_construct(args, out) -> int:
    poset = parse_poset(_read_input(args.input))
    cert = build_certificate(poset)
    distinct, bound = cert.total_distinct, cert.bound
    if distinct < bound:
        raise InternalError(
            f"process found {distinct} distinct lines, below the guaranteed {bound}"
        )
    if args.format == "jsonl":
        # The first row, as json.dumps writes it, streamed pair by pair.
        pairs = map("[%d, %d]".__mod__, cert.layer_pairs())
        chain = json.dumps(cert.chain)
        out.write(f'{{"chain": {chain}, "layer_lines": [{next(pairs, "")}')
        out.writelines(map(", ".__add__, pairs))
        out.write("]}\n")
        for iteration, step in enumerate(cert.steps, 1):
            row = {
                "iteration": iteration,
                "step": step.kind.value,
                "bottom": step.bottom,
                "top": step.top,
                "probe": step.probe,
                "lines": [list(bits_of(mask)) for mask in step.lines],
            }
            _write_json(out, row)
        _write_json(out, {"distinct": distinct, "bound": bound})
    else:
        out.write("chain: " + " ".join(map(str, cert.chain)) + "\n")
        out.writelines(map("layer line: %d %d\n".__mod__, cert.layer_pairs()))
        for iteration, step in enumerate(cert.steps, 1):
            head = (
                f"iteration {iteration} step {step.kind.value} "
                f"window {step.bottom}..{step.top}"
            )
            if step.probe is not None:
                head += f" outside {step.probe}"
            out.write(head + "\n")
            for mask in step.lines:
                out.write("  line: " + render_points(mask) + "\n")
        out.write(f"distinct {distinct} >= bound {bound}\n")
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    kind = INPUT_KINDS[args.kind]
    if kind.verify is None:
        raise _UsageError(
            "no line-count theorem covers general 3-uniform hypergraphs; "
            "verify supports graph, poset, and metric"
        )
    structure = kind.parse(_read_input(args.input))
    report, cert_issue = kind.verify(structure, None if args.format == "jsonl" else "")
    if args.format == "jsonl":
        out.write(report.json_line() + "\n")
    else:
        out.write(f"kind {report.structure_kind} n {report.n}\n")
        out.write(
            f"lines {report.line_count} bound {report.bound} "
            f"universal {'yes' if report.has_universal else 'no'}\n"
        )
        out.write(f"equality case: {'yes' if report.is_equality_case else 'no'}\n")
        out.write(
            f"extremal shape: {'yes' if report.extremal_shape_match else 'no'}\n"
        )
    violation = not report.meets_bound or shape_mismatch(report)
    if cert_issue is not None:
        # jsonl output stays one JSON row; the problem goes to stderr.
        target = sys.stderr if args.format == "jsonl" else out
        target.write(f"certificate problem: {cert_issue}\n")
        return EXIT_INTERNAL
    if violation:
        if args.format != "jsonl":
            out.write("result: THEOREM VIOLATION\n")
        return EXIT_VIOLATION
    if args.format != "jsonl":
        out.write("result: ok\n")
    return EXIT_OK


def _cmd_sweep(args, out) -> int:
    if args.workers < 1:
        raise _UsageError(f"--workers needs at least 1, got {args.workers}")
    if args.out is not None and args.format != "jsonl":
        raise _UsageError("--out needs --format jsonl")
    # Reject a bad size, or a jsonl stream past the kind's jsonl cap,
    # before --out is opened.
    sweep_kind(args.kind, args.n, args.format == "jsonl")
    with ExitStack() as stack:
        stream = None
        if args.format == "jsonl":
            stream = out
            if args.out is not None:
                stream = stack.enter_context(open(args.out, "w"))
        summary = run_sweep(args.kind, args.n, workers=args.workers, jsonl=stream)
    target = sys.stderr if args.format == "jsonl" and args.out is None else out
    target.write(
        f"kind {summary.kind} n {summary.n}\n"
        f"enumerated {summary.enumerated} reported {summary.reported} "
        f"checked {summary.checked}\n"
        f"universal {summary.universal_count}\n"
        f"violations {len(summary.violations)}\n"
        f"equality cases {summary.equality_cases}\n"
        f"shape matches {summary.shape_matches}\n"
        f"certificate failures {len(summary.certificate_failures)}\n"
    )
    for issue in summary.issues:
        target.write(f"issue: {issue}\n")
    target.write(f"result: {'ok' if summary.ok else 'VIOLATION'}\n")
    if summary.certificate_failures:
        return EXIT_INTERNAL
    return EXIT_OK if summary.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linesys",
        description=(
            "Lines induced by betweenness in graphs, posets, metric spaces, "
            "and 3-uniform hypergraphs: line systems, lower bounds, "
            "constructive certificates, and exhaustive verification sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lines = sub.add_parser("lines", help="print the distinct lines of one structure")
    lines.add_argument("--kind", choices=tuple(INPUT_KINDS), required=True)
    lines.add_argument("--format", choices=("text", "jsonl"), default="text")
    lines.add_argument("input", nargs="?", default="-", help="input path or - for stdin")

    bound = sub.add_parser("bound", help="evaluate the line-count bounds")
    bound.add_argument("--poset-n", type=int)
    bound.add_argument("--height", type=int)
    bound.add_argument("--pair-sum-n", type=int)
    bound.add_argument("--parts", type=int)

    construct = sub.add_parser(
        "construct", help="run the line-finding process on a poset"
    )
    construct.add_argument("--format", choices=("text", "jsonl"), default="text")
    construct.add_argument("input", nargs="?", default="-")

    verify = sub.add_parser("verify", help="check one instance against its bound")
    verify.add_argument("--kind", choices=tuple(INPUT_KINDS), required=True)
    verify.add_argument("--format", choices=("text", "jsonl"), default="text")
    verify.add_argument("input", nargs="?", default="-")

    sweep = sub.add_parser("sweep", help="exhaustively verify all instances of size n")
    sweep.add_argument("--kind", choices=tuple(SWEEP_KINDS), required=True)
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--format", choices=("text", "jsonl"), default="text")
    sweep.add_argument("--out", help="write jsonl reports to this path")
    return parser


_COMMANDS = {
    "lines": _cmd_lines,
    "bound": _cmd_bound,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None, out=None) -> int:
    """Run one command and return its exit status.  The digit limit is
    set before the arguments are parsed, inherited by forked sweep
    workers, and restored on return."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(INT_MAX_STR_DIGITS)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except LinesysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        sys.set_int_max_str_digits(limit)


def main_entry() -> None:
    sys.exit(main())

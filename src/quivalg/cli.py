"""Command-line interface.

Subcommands: verify-paper (built-in end-to-end pipeline), end-quiver,
gldim, domdim, tau2, cartan, probe-ext.  Reports are line-oriented
`key = value` pairs in human format, or a JSON object with the same
keys in structured format.  Exit codes: 0 all checks pass, 1 a check
failed, 2 inconclusive (a search bound or the path length cap was hit,
with the reason on stderr or in the report), 3 input error, usage
errors and out-of-range options included.  Each subcommand takes only
the options it reads.
"""

import argparse
import json
import sys
from typing import List, Optional

from .algebra import PresentedAlgebra, build_algebra
from .endquiver import end_as_quiver_algebra
from .errors import (
    DecompositionInconclusiveError,
    NotFiniteDimensionalError,
    ParseError,
    QuivalgError,
)
from .homological import (
    AtLeastBound,
    ExceedsBound,
    cartan_determinant,
    cartan_matrix,
    dominant_dimension,
    ext_dim,
    global_dimension,
    tau2,
)
from .modules import direct_sum, regular_module, validate
from .presets import builtin_algebra, two_loop_local_algebra
from .textio import format_algebra, format_module, parse_algebra, parse_module
from .verify import dual_regular_translates, run_verification

BUILTIN_PREFIX = "builtin:"


class _InputError(Exception):
    pass


def _load_algebra(ref: str, length_cap: int = 20) -> PresentedAlgebra:
    if ref.startswith(BUILTIN_PREFIX):
        try:
            return builtin_algebra(ref[len(BUILTIN_PREFIX) :], length_cap)
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
        except NotFiniteDimensionalError as exc:
            raise NotFiniteDimensionalError(f"{ref}: {exc}") from exc
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {ref}: {exc}") from exc
    try:
        quiver, relations = parse_algebra(text)
        return build_algebra(quiver, relations, length_cap=length_cap)
    except NotFiniteDimensionalError as exc:
        raise NotFiniteDimensionalError(f"{ref}: {exc}") from exc
    except QuivalgError as exc:
        raise _InputError(f"{ref}: {exc}") from exc


def _load_module(path: str, length_cap: int = 20):
    """Parsed and validated representation plus its algebra reference."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    refs: List[str] = []

    def load(ref: str) -> PresentedAlgebra:
        refs.append(ref)
        return _load_algebra(ref, length_cap)

    try:
        rep = parse_module(text, algebra_loader=load)
    except ParseError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    problem = validate(rep)
    if problem is not None:
        raise _InputError(f"{path}: not a module over its algebra: {problem}")
    return rep, refs[0]


class _Report:
    """Ordered key = value report with a format switch."""

    def __init__(self, structured: bool):
        self.structured = structured
        self.items: List = []

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def emit(self) -> None:
        if self.structured:
            json.dump(dict(self.items), sys.stdout, indent=2, default=str)
            sys.stdout.write("\n")
        else:
            for k, v in self.items:
                sys.stdout.write(f"{k} = {v}\n")


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 3); argparse's own exit 2 is
    this CLI's code for an inconclusive run."""

    def error(self, message):
        raise _InputError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quivalg",
        description="exact computations with presented algebras and their modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    algebra = ("algebra", dict(help="algebra file or builtin:<name>"))
    module = ("module", dict(help="module file"))
    bound = {
        low: ("--bound", dict(type=_int_at_least(low), default=6, help="dimension search bound"))
        for low in (0, 1)
    }
    out = ("--out", dict(help="write the translate as a module file"))
    imax = ("--imax", dict(type=_int_at_least(1), default=2, help="largest Ext degree to report"))
    max_length = ("--max-length", dict(type=_int_at_least(2), default=20, help="path length cap"))
    styles = "human renders key = value lines, structured renders JSON"
    formats = ("--format", dict(choices=("human", "structured"), default="human", help=styles))
    commands = {
        "verify-paper": ("run the built-in end-to-end verification pipeline", [bound[1]]),
        "end-quiver": ("present End(module) by quiver and relations", [module]),
        "gldim": ("bounded global dimension of an algebra", [algebra, bound[0]]),
        "domdim": ("bounded dominant dimension of an algebra", [algebra, bound[1]]),
        "tau2": ("second translate of a module", [module, out]),
        "cartan": ("Cartan matrix and determinant of an algebra", [algebra]),
        "probe-ext": ("Ext dimensions for the built-in pipeline modules", [imax]),
    }
    # each subcommand takes --max-length, --format and what its _cmd_* reads
    for name, (text, arguments) in commands.items():
        p = sub.add_parser(name, help=text)
        for flag, kwargs in arguments + [max_length, formats]:
            p.add_argument(flag, **kwargs)
    return parser


def _cmd_verify(args) -> int:
    rep = run_verification(bound=args.bound, max_length=args.max_length)
    result = "pass" if rep.passed else ("fail" if rep.failed else "inconclusive")
    if args.format == "structured":
        obj = {
            "checks": [
                {"key": c.key, "value": c.value, "status": c.status}
                for c in rep.checks
            ],
            "result": result,
        }
        if rep.first_failure is not None:
            obj["first_failure"] = rep.first_failure.key
        json.dump(obj, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        for c in rep.checks:
            sys.stdout.write(f"{c.key} = {c.value}  [{c.status}]\n")
        sys.stdout.write(f"result = {result}\n")
        if rep.first_failure is not None:
            sys.stdout.write(f"first_failure = {rep.first_failure.key}\n")
    return rep.exit_code


def _cmd_end_quiver(args) -> int:
    m, _ = _load_module(args.module, length_cap=args.max_length)
    if m.is_zero():
        raise _InputError(f"{args.module}: the zero module has no endomorphism algebra")
    pres = end_as_quiver_algebra(m, max_length=args.max_length)
    out = sys.stdout
    report = _Report(args.format == "structured")
    text = format_algebra(pres.quiver, pres.relations)
    summand_dims = {
        pres.quiver.vertex_labels[k]: x.total_dim
        for k, x in enumerate(pres.summands)
    }
    if report.structured:
        report.add("presentation", text)
    else:
        out.write(text)
        out.write("# summary\n")
    report.add(
        "vertex_summand_dims",
        " ".join(f"{k}:{v}" for k, v in summand_dims.items()),
    )
    report.add("adjacency", pres.adjacency)
    report.add("relation_count", len(pres.relations))
    report.add("end_dim", pres.end_dim)
    report.add("incomplete", pres.incomplete)
    report.emit()
    return 2 if pres.incomplete else 0


def _bounded_report(value, key: str, report: _Report) -> int:
    if isinstance(value, ExceedsBound):
        report.add(key, "exceeds-bound")
        report.add("bound", value.bound)
        return 2
    if isinstance(value, AtLeastBound):
        report.add(key, "at-least-bound")
        report.add("bound", value.bound)
        return 2
    report.add(key, value)
    return 0


def _cmd_gldim(args) -> int:
    a = _load_algebra(args.algebra, length_cap=args.max_length)
    report = _Report(args.format == "structured")
    code = _bounded_report(global_dimension(a, args.bound), "gldim", report)
    report.emit()
    return code


def _cmd_domdim(args) -> int:
    a = _load_algebra(args.algebra, length_cap=args.max_length)
    report = _Report(args.format == "structured")
    code = _bounded_report(dominant_dimension(a, args.bound), "domdim", report)
    report.emit()
    return code


def _cmd_tau2(args) -> int:
    m, algebra_ref = _load_module(args.module, length_cap=args.max_length)
    t = tau2(m)
    text = format_module(t, algebra_ref)
    report = _Report(args.format == "structured")
    report.add("dims", list(t.dims))
    report.add("total_dim", t.total_dim)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        report.add("written", args.out)
    elif args.format == "structured":
        report.add("module_text", text)
    else:
        sys.stdout.write(text)
        sys.stdout.write("# summary\n")
    report.emit()
    return 0


def _cmd_cartan(args) -> int:
    a = _load_algebra(args.algebra, length_cap=args.max_length)
    report = _Report(args.format == "structured")
    cm = cartan_matrix(a)
    report.add("cartan_matrix", [[int(x) for x in row] for row in cm.rows])
    report.add("cartan_det", int(cartan_determinant(a)))
    report.emit()
    return 0


def _cmd_probe_ext(args) -> int:
    a = two_loop_local_algebra(length_cap=args.max_length)
    reg = regular_module(a)
    translates = dual_regular_translates(a)
    da = translates[0]
    m = direct_sum(translates)
    report = _Report(args.format == "structured")
    for i in range(1, args.imax + 1):
        report.add(f"ext{i}_da_a", ext_dim(da, reg, i))
    for i in range(1, args.imax + 1):
        report.add(f"ext{i}_m_m", ext_dim(m, m, i))
    report.emit()
    return 0


_COMMANDS = {
    "verify-paper": _cmd_verify,
    "end-quiver": _cmd_end_quiver,
    "gldim": _cmd_gldim,
    "domdim": _cmd_domdim,
    "tau2": _cmd_tau2,
    "cartan": _cmd_cartan,
    "probe-ext": _cmd_probe_ext,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (NotFiniteDimensionalError, DecompositionInconclusiveError) as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 2
    except QuivalgError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

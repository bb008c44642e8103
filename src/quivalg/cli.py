"""Command-line interface.

Subcommands: verify-paper (built-in end-to-end pipeline), end-quiver,
gldim, domdim, tau2, cartan, probe-ext.  Reports are line-oriented
`key = value` pairs in human format, or a JSON object with the same
keys in structured format.  Exit codes: 0 all checks pass, 1 a check
failed, 2 inconclusive (a search bound or the path length cap was hit,
with the reason on stderr or in the report), 3 input error.
"""

import argparse
import json
import sys
from typing import List, Optional

from .algebra import PresentedAlgebra, build_algebra
from .endquiver import end_as_quiver_algebra
from .errors import NotFiniteDimensionalError, ParseError, QuivalgError
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


def _module_algebra_ref(text: str) -> str:
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split(None, 1)
        if words and words[0] == "algebra":
            return words[1].strip() if len(words) > 1 else ""
    return ""


def _load_module(path: str, length_cap: int = 20):
    """Parsed and validated representation plus its algebra reference."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        rep = parse_module(
            text, algebra_loader=lambda ref: _load_algebra(ref, length_cap)
        )
    except ParseError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    problem = validate(rep)
    if problem is not None:
        raise _InputError(f"{path}: not a module over its algebra: {problem}")
    return rep, _module_algebra_ref(text)


class _Report:
    """Ordered key = value report with a format switch."""

    def __init__(self, structured: bool):
        self.structured = structured
        self.items: List = []

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def emit(self, out=None) -> None:
        out = out if out is not None else sys.stdout
        if self.structured:
            obj = {k: v for k, v in self.items}
            json.dump(obj, out, indent=2, default=str)
            out.write("\n")
        else:
            for k, v in self.items:
                out.write(f"{k} = {v}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="decomposition seed")
    parser.add_argument("--bound", type=int, default=6, help="dimension search bound")
    parser.add_argument(
        "--max-length", type=int, default=20, help="path length cap"
    )
    parser.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="human renders key = value lines, structured renders JSON",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivalg",
        description="exact computations with presented algebras and their modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-paper",
        help="run the built-in end-to-end verification pipeline",
    )
    _add_common(p)

    p = sub.add_parser("end-quiver", help="present End(module) by quiver and relations")
    p.add_argument("module", help="module file")
    _add_common(p)

    p = sub.add_parser("gldim", help="bounded global dimension of an algebra")
    p.add_argument("algebra", help="algebra file or builtin:<name>")
    _add_common(p)

    p = sub.add_parser("domdim", help="bounded dominant dimension of an algebra")
    p.add_argument("algebra", help="algebra file or builtin:<name>")
    _add_common(p)

    p = sub.add_parser("tau2", help="second translate of a module")
    p.add_argument("module", help="module file")
    p.add_argument("--out", help="write the translate as a module file")
    _add_common(p)

    p = sub.add_parser("cartan", help="Cartan matrix and determinant of an algebra")
    p.add_argument("algebra", help="algebra file or builtin:<name>")
    _add_common(p)

    p = sub.add_parser(
        "probe-ext",
        help="Ext dimensions for the built-in pipeline modules",
    )
    p.add_argument(
        "--imax", type=int, default=2, help="largest Ext degree to report"
    )
    _add_common(p)
    return parser


def _cmd_verify(args) -> int:
    rep = run_verification(seed=args.seed, bound=args.bound, max_length=args.max_length)
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
    pres = end_as_quiver_algebra(m, max_length=args.max_length, seed=args.seed)
    out = sys.stdout
    report = _Report(args.format == "structured")
    text = format_algebra(pres.quiver, pres.relations)
    summand_dims = {
        pres.quiver.vertex_labels[k]: s.rep.total_dim
        for k, s in enumerate(pres.vertex_summands)
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
    report.add("end_dim", pres.presented.dim if pres.presented else "unknown")
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
    if args.imax < 1:
        raise _InputError("--imax must be at least 1")
    a = two_loop_local_algebra(length_cap=args.max_length)
    reg = regular_module(a)
    translates = dual_regular_translates(a)
    da = translates[0]
    m = direct_sum(translates)[0]
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
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except NotFiniteDimensionalError as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 2
    except QuivalgError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

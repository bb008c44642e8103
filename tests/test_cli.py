"""Command line behavior: outputs, exit codes, determinism."""

import argparse
import ast
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import quivalg
import quivalg.verify
from quivalg import (
    IncompletePresentationWarning,
    Matrix,
    Quiver,
    Representation,
    build_algebra,
    direct_sum,
    format_algebra,
    format_module,
    indec_projectives,
    simples,
)
from quivalg import algebra, cli, endos, endquiver, errors, modules
from quivalg.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def l2_files(tmp_path_factory, l2):
    """Algebra file plus a two-summand module file referencing it by path."""
    root = tmp_path_factory.mktemp("l2io")
    alg_path = root / "l2.alg"
    alg_path.write_text(format_algebra(l2.quiver, l2.relations))
    mixed = direct_sum([simples(l2)[0], indec_projectives(l2)[0]])
    mod_path = root / "mixed.mod"
    mod_path.write_text(format_module(mixed, str(alg_path)))
    return alg_path, mod_path


def test_verify_paper_passes(capsys, count_calls):
    structures = count_calls(endos.EndStructure, "__init__")
    decompositions = count_calls(endos, "decompose")
    whole_presentations = count_calls(endquiver, "end_as_quiver_algebra")
    presentations = count_calls(endquiver, "end_of_summands")
    builds = count_calls(algebra, "build_algebra")
    sweeps = count_calls(algebra, "_stabilize")
    covers = count_calls(modules, "_cover_data")
    radicals = count_calls(modules, "_radical_rows")
    cover_maps = count_calls(modules, "projective_cover")
    products = count_calls(modules.ModuleHom, "__mul__")
    hom_spaces = count_calls(modules, "hom_basis")
    sums = count_calls(modules, "direct_sum")
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    assert "dim_b_hom = 165  [pass]" in out
    assert "gldim_b = 3  [pass]" in out
    assert "ext2_simples_total = 10  [info]" in out
    assert out.strip().endswith("result = pass")
    # End(M)'s presentation once, from the translates, which are M's
    # summands already, so nothing is decomposed; A built once, and B's
    # table read off the path search.
    # End(M) is built in summand blocks: one EndStructure per translate
    # for its radical, none over M, and one hom_basis(X, M) per translate
    assert structures["calls"] == 5
    assert hom_spaces["calls"] <= 9
    assert decompositions["calls"] == 0
    assert whole_presentations["calls"] == 0
    assert presentations["calls"] == 1
    assert builds["calls"] == 1
    # A, B's raw relations in minimize_relations (the kept set), the kept
    # set rebuilt and the reference presentation; the Ext^2 total is read
    # off the resolutions of B's simples that gldim builds
    assert sweeps["calls"] == 4
    # projectivity is read off the top, so covers are built only where
    # their maps are read: a resolved module, Hom, transposes and
    # envelopes; past the cover, syzygies and their tops are rows over
    # the algebra's table
    assert covers["calls"] == 27
    assert radicals["calls"] == 36
    assert cover_maps["calls"] == 0
    # the homs out of the translates are cut into blocks, not carried into
    # End(M) by products; decompose's products are pinned in
    # tests/test_endos.py
    assert products["calls"] == 0
    # four regular modules and M, built once by end_of_summands; the
    # verdict reads M off the presentation
    assert sums["calls"] == 5


def test_verify_paper_report_bytes_pinned(capsys):
    """verify-paper's report, byte for byte, in both formats.  Changes
    that keep every output keep these digests."""
    digests = []
    for fmt in ("human", "structured"):
        code, out, _ = run_cli(capsys, "verify-paper", "--format", fmt)
        assert code == 0
        digests.append(hashlib.md5(out.encode()).hexdigest())
    assert digests == ["a2f41907ddc79d1525303efa24845995", "c4eaad849fdae3d90c48e8f13c30a1a9"]


# (arguments, exit code, md5 of stdout); "DA" stands for a module file
# holding the dual regular module of the two-loop algebra
PINNED_OUTPUTS = [
    (["cartan", "builtin:end-reference"], 0, "f411a222fba8a0f6e5f1d1e35137f469"),
    (["cartan", "builtin:end-reference", "--format", "structured"], 0, "4fdfdc7fb40c51eba1a0a7cf0cc394c0"),
    (["gldim", "builtin:end-reference"], 0, "0308cbdb30e763ba2881c6606abec072"),
    (["gldim", "builtin:end-reference", "--format", "structured"], 0, "60b03370510fe0f052a4c2d2b6267290"),
    (["domdim", "builtin:end-reference"], 0, "f9eaf847efa7c115f353e95cd80276c1"),
    (["domdim", "builtin:end-reference", "--format", "structured"], 0, "b2a1ab7d589a5fe7b3f38995d6a044b5"),
    (["domdim", "builtin:two-loop-local"], 0, "ade3865b811b010b98919404ceff9928"),
    (["gldim", "builtin:two-loop-local", "--bound", "4"], 2, "35fe1d2b4ade16428d6fdd89869dad6c"),
    (["tau2", "DA"], 0, "9459c5e00f9931efdf13f9e8c9cca100"),
    (["end-quiver", "DA"], 0, "488ab672bd556fcbd7def2e04257b34c"),
    (["probe-ext"], 0, "39cb3cb9dc13f748def062883f88703c"),
    (["probe-ext", "--format", "structured"], 0, "b936dc65a093ab46a2d4584bf04e9d7d"),
]


def test_cli_outputs_pinned(capsys, tmp_path, translates):
    """The other subcommands' reports, byte for byte: a change that keeps
    every output keeps these digests and exit codes."""
    da = tmp_path / "da.mod"
    da.write_text(format_module(translates[0], "builtin:two-loop-local"))
    for argv, expected_code, digest in PINNED_OUTPUTS:
        code, out, _ = run_cli(capsys, *[str(da) if a == "DA" else a for a in argv])
        assert (code, hashlib.md5(out.encode()).hexdigest()) == (expected_code, digest), argv


def _readme_report_keys():
    """The verify-paper report keys the README lists, in its order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("`verify-paper` report keys, in order:")
    end = readme.index("then `inconclusive_reason`", start)
    return re.findall(r"`(\w+)`", readme[start:end])


def test_verify_paper_structured_keys_in_readme_order(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--format", "structured")
    assert code == 0
    obj = json.loads(out)
    assert [c["key"] for c in obj["checks"]] == _readme_report_keys()
    assert obj["result"] == "pass"
    assert "first_failure" not in obj


def test_verify_paper_names_its_first_failure(capsys, monkeypatch):
    """An adjacency that disagrees with the reference fails
    end_adjacency_matches, which both formats name as the first failure."""
    monkeypatch.setattr(quivalg.verify, "REFERENCE_ADJACENCY", Counter())
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 1
    assert "end_adjacency_matches = False  [fail]" in out
    assert out.endswith("result = fail\nfirst_failure = end_adjacency_matches\n")
    code, out, _ = run_cli(capsys, "verify-paper", "--format", "structured")
    assert code == 1
    obj = json.loads(out)
    assert (obj["result"], obj["first_failure"]) == ("fail", "end_adjacency_matches")


def test_verify_paper_leaves_the_shared_zero_row_empty(capsys):
    """Every table, certified or opposite, holds one shared empty row for
    a basis path and an arrow not leaving its target; nothing writes to
    it during a verify-paper run."""
    code, _out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    assert algebra._ZERO_ROW == {}
    b = quivalg.reference_end_algebra()
    for alg in (b, b.opposite):
        assert any(row is algebra._ZERO_ROW for rows in alg._action for row in rows)


def test_verify_paper_length_cap_inconclusive(capsys):
    with pytest.warns(IncompletePresentationWarning):
        code, out, _ = run_cli(capsys, "verify-paper", "--max-length", "5")
    assert code == 2
    for key in (
        "dim_b_presented",
        "gldim_b",
        "domdim_b",
        "cartan_det_b",
        "minimized_relations",
        "ext2_simples_total",
        "minimized_dim_preserved",
        "reference_presentation_dim_165",
        "cluster_tilting",
    ):
        assert f"{key} = inconclusive  [inconclusive]" in out
    assert "inconclusive_reason = presentation search stopped at path length 5  [info]" in out
    assert "[fail]" not in out
    assert out.strip().endswith("result = inconclusive")

    # at length 3 A itself does not stabilize: the report names A and stops
    reason = "A (builtin:two-loop-local): dimension did not stabilize up to path length 3"
    code, out, err = run_cli(capsys, "verify-paper", "--max-length", "3")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert lines[2] == "dim_a = inconclusive  [inconclusive]"
    assert lines[3].startswith(f"inconclusive_reason = {reason} (") and lines[3].endswith("[info]")
    assert lines[4:] == ["result = inconclusive"]
    code, out, err = run_cli(capsys, "verify-paper", "--max-length", "3", "--format", "structured")
    assert (code, err) == (2, "")
    obj = json.loads(out)
    assert obj["result"] == "inconclusive" and "first_failure" not in obj
    checks = [(c["key"], c["status"]) for c in obj["checks"]]
    assert checks == [
        ("bound", "info"),
        ("max_length", "info"),
        ("dim_a", "inconclusive"),
        ("inconclusive_reason", "info"),
    ]
    assert obj["checks"][3]["value"].startswith(reason)


def test_verify_paper_reads_ext2_when_the_ext2_sweep_would_not_stabilize(capsys):
    """At --max-length 9 B is presented, but the IJ+JI sweep of its kept
    relations needs paths of length 10; the Ext^2 total comes from the
    simples' resolutions, so the report still reads 10."""
    code, out, _ = run_cli(capsys, "verify-paper", "--max-length", "9")
    assert code == 0
    assert "ext2_simples_total = 10  [info]" in out
    assert out.strip().endswith("result = pass")


def test_verify_paper_low_bound_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--bound", "2")
    assert code == 2
    assert "[inconclusive]" in out
    assert "result = inconclusive" in out


def test_end_quiver_file_roundtrip(capsys, l2_files):
    _, mod_path = l2_files
    code, out, _ = run_cli(capsys, "end-quiver", str(mod_path))
    assert code == 0
    assert "# summary" in out
    assert "adjacency = " in out
    assert "end_dim = 5" in out
    assert "incomplete = False" in out


def test_end_quiver_structured(capsys, l2_files):
    _, mod_path = l2_files
    code, out, _ = run_cli(capsys, "end-quiver", str(mod_path), "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["end_dim"] == 5
    assert payload["relation_count"] == len(
        [ln for ln in payload["presentation"].splitlines() if ln.startswith("relation")]
    )
    assert payload["incomplete"] is False


def test_end_quiver_reports_end_dim_when_the_search_stops_early(capsys, tmp_path, m_module):
    """The paper's whole M at --max-length 6: the path search stops before
    End(M) closes, so end-quiver exits 2 with incomplete = True, yet dim
    End(M) = 165 is known from Hom and is reported.  The summand
    dimensions pin decompose's order on M, the translates' order."""
    path = tmp_path / "m.mod"
    path.write_text(format_module(m_module, "builtin:two-loop-local"))
    with pytest.warns(IncompletePresentationWarning):
        code, out, _ = run_cli(capsys, "end-quiver", str(path), "--max-length", "6")
    assert code == 2
    summary = out[out.index("# summary\n") :].splitlines()
    assert summary[1:] == [
        "vertex_summand_dims = m1:6 m2:8 m3:5 m4:8 m5:6",
        "adjacency = [[0, 0, 0, 2, 0], [1, 0, 0, 0, 2], [0, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0]]",
        "relation_count = 141",
        "end_dim = 165",
        "incomplete = True",
    ]


def test_tau2_chain_through_files(capsys, tmp_path):
    da = tmp_path / "da.mod"
    da.write_text(
        subprocess.run(
            [
                sys.executable,
                "-c",
                "from quivalg import two_loop_local_algebra, regular_module, dual, format_module;"
                "a = two_loop_local_algebra();"
                "print(format_module(dual(regular_module(a.opposite)), 'builtin:two-loop-local'), end='')",
            ],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    )
    out1 = tmp_path / "u1.mod"
    code, out, _ = run_cli(capsys, "tau2", str(da), "--out", str(out1))
    assert code == 0
    assert "total_dim = 8" in out
    code, out, _ = run_cli(capsys, "tau2", str(out1))
    assert code == 0
    assert "total_dim = 5" in out


def test_gldim_and_domdim_builtin(capsys):
    code, out, _ = run_cli(capsys, "gldim", "builtin:end-reference")
    assert code == 0 and "gldim = 3" in out
    code, out, _ = run_cli(capsys, "domdim", "builtin:end-reference")
    assert code == 0 and "domdim = 3" in out


def test_builtin_algebra_honours_max_length(capsys):
    code, out, err = run_cli(capsys, "gldim", "builtin:end-reference", "--max-length", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("inconclusive: builtin:end-reference: ")
    assert "up to path length 5" in err


# KQ/(ab, ba) on the 2-cycle is selfinjective, so its dominant dimension
# is infinite; a listed first makes b the first arrow of the basis
TWO_CYCLE_ARROWS = ("arrow a: v2 -> v1\n", "arrow b: v1 -> v2\n")


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_domdim_selfinjective_two_cycle_either_arrow_order(capsys, tmp_path, order):
    p = tmp_path / "cycle.alg"
    arrows = "".join(TWO_CYCLE_ARROWS[i] for i in order)
    p.write_text("vertices v1 v2\n" + arrows + "relation a*b\nrelation b*a\n")
    code, out, _ = run_cli(capsys, "domdim", str(p))
    assert code == 2
    assert "domdim = at-least-bound" in out


def test_gldim_bound_exit_two(capsys):
    code, out, _ = run_cli(capsys, "gldim", "builtin:two-loop-local", "--bound", "4")
    assert code == 2
    assert "gldim = exceeds-bound" in out
    assert "bound = 4" in out


def test_domdim_bound_exit_two(capsys, l2_files):
    alg_path, _ = l2_files
    code, out, _ = run_cli(capsys, "domdim", str(alg_path), "--bound", "3")
    assert code == 2
    assert "domdim = at-least-bound" in out


def test_cartan_local(capsys):
    code, out, _ = run_cli(capsys, "cartan", "builtin:two-loop-local")
    assert code == 0
    assert "cartan_matrix = [[6]]" in out
    assert "cartan_det = 6" in out


def test_probe_ext(capsys):
    code, out, _ = run_cli(capsys, "probe-ext", "--imax", "1")
    assert code == 0
    assert "ext1_da_a = 0" in out
    assert "ext1_m_m = 0" in out


def test_input_errors_exit_three(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gldim", str(tmp_path / "missing.alg"))
    assert code == 3 and "cannot read" in err
    code, _, err = run_cli(capsys, "gldim", "builtin:nope")
    assert code == 3 and "unknown builtin" in err
    bad = tmp_path / "bad.mod"
    bad.write_text("algebra builtin:two-loop-local\nvertex v 1\narrow zz\n0\n")
    code, _, err = run_cli(capsys, "tau2", str(bad))
    assert code == 3 and "unknown arrow" in err
    code, _, err = run_cli(capsys, "probe-ext", "--imax", "0")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["cartan"],
        ["gldim", "builtin:two-loop-local", "--bogus"],
        ["verify-paper", "--seed", "1"],
        ["end-quiver", "x.mod", "--seed", "1"],
    ],
    ids=["missing-argument", "unknown-flag", "verify-paper-seed", "end-quiver-seed"],
)
def test_usage_errors_exit_three(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: quivalg") and err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gldim", "--help"])
    assert exc.value.code == 0
    assert "--bound" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, low",
    [
        (["verify-paper", "--bound", "0"], 1),
        (["domdim", "builtin:two-loop-local", "--bound", "0"], 1),
        (["gldim", "builtin:two-loop-local", "--bound", "-1"], 0),
        # below 2 the quotient sweep takes no level, so no input can stabilize
        (["verify-paper", "--max-length", "-3"], 2),
        (["cartan", "builtin:two-loop-local", "--max-length", "1"], 2),
    ],
    ids=["verify-paper", "domdim", "gldim", "verify-paper-max-length", "cartan-max-length"],
)
def test_out_of_range_bound_is_an_input_error(capsys, argv, low):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    flag, value = argv[-2:]
    assert err == f"error: quivalg {argv[0]}: argument {flag}: must be at least {low}, got {value}\n"


def _args_read(fn):
    """Names of the args.<name> attributes a command function reads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def test_each_subcommand_takes_only_what_it_reads():
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._COMMANDS)
    for name, parser in sub.choices.items():
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        assert dests == _args_read(cli._COMMANDS[name]), name


# K<x,y>/(y^3, yx - 2xy) has the basis x^i y^j, j < 3, in every length
def test_end_quiver_rejects_a_zero_module(capsys, tmp_path):
    zero = tmp_path / "zero.mod"
    zero.write_text("algebra builtin:two-loop-local\nvertex v 0\n")
    code, out, err = run_cli(capsys, "end-quiver", str(zero))
    assert code == 3 and out == ""
    assert err.startswith(f"error: {zero}: ") and err.count("\n") == 1


def test_end_quiver_undecided_corner_is_inconclusive(capsys, tmp_path):
    """On the Kronecker quiver, a = I and b the companion matrix of
    t^6 - 2 give End = Q[t]/(t^6 - 2), a field whose elements' minimal
    polynomials of degree 6 have no factor of degree <= 2: decompose
    can neither split the corner nor certify it, a search bound hit."""
    q = Quiver(["u", "w"], [("a", "u", "w"), ("b", "u", "w")])
    alg = tmp_path / "kronecker.alg"
    alg.write_text(format_algebra(q, []))
    companion = [[1 if j == i + 1 else 0 for j in range(6)] for i in range(5)] + [[2, 0, 0, 0, 0, 0]]
    x = Representation(build_algebra(q, []), [6, 6], [Matrix.identity(6), Matrix.from_rows(companion)])
    mod = tmp_path / "field.mod"
    mod.write_text(format_module(x, str(alg)))
    code, out, err = run_cli(capsys, "end-quiver", str(mod))
    assert code == 2 and out == ""
    assert err.startswith("inconclusive: could not split a corner of dimension 6")
    assert err.count("\n") == 1


@pytest.mark.parametrize("case", ["dual-numbers-S+S", "kronecker-Q(i)"])
def test_end_quiver_refuses_a_module_that_is_not_basic(capsys, tmp_path, l2, case):
    """S + S over the dual numbers has two isomorphic summands, and on the
    Kronecker quiver a = I, b = the companion matrix of t^2 + 1 give one
    summand whose End is the field Q(i): End/rad is larger than K.  Each
    is an error with one stderr line."""
    if case == "dual-numbers-S+S":
        alg_text, x = format_algebra(l2.quiver, l2.relations), direct_sum([simples(l2)[0]] * 2)
    else:
        q = Quiver(["u", "w"], [("a", "u", "w"), ("b", "u", "w")])
        alg_text = format_algebra(q, [])
        x = Representation(build_algebra(q, []), [2, 2], [Matrix.identity(2), Matrix.from_rows([[0, 1], [-1, 0]])])
    alg = tmp_path / "base.alg"
    alg.write_text(alg_text)
    mod = tmp_path / "not-basic.mod"
    mod.write_text(format_module(x, str(alg)))
    code, out, err = run_cli(capsys, "end-quiver", str(mod))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# exit code and stderr prefix of each error raised past loading
ERROR_EXITS = {
    "QuivalgError": (1, "error: "),
    "IncomposableError": (1, "error: "),
    "MalformedRelationError": (1, "error: "),
    "NotFiniteDimensionalError": (2, "inconclusive: "),
    "DimensionMismatchError": (1, "error: "),
    "DecompositionInconclusiveError": (2, "inconclusive: "),
    "ParseError": (1, "error: "),
}


def test_each_error_class_has_its_exit_code(capsys, monkeypatch):
    """Every QuivalgError subclass in quivalg.errors has a row, and gldim
    raising it after loading its algebra exits with that row's code and
    one stderr line with that row's prefix."""
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.QuivalgError)
    }
    assert sorted(classes) == sorted(ERROR_EXITS)
    for name, cls in classes.items():
        exc = cls("raised", 1, 1) if cls is errors.ParseError else cls("raised")

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "global_dimension", fail)
        code, out, err = run_cli(capsys, "gldim", "builtin:two-loop-local")
        expected_code, prefix = ERROR_EXITS[name]
        assert (name, code, out, err) == (name, expected_code, "", f"{prefix}{exc}\n")


INFINITE_PLANE = "vertices v\narrow x: v -> v\narrow y: v -> v\nrelation y*y*y\nrelation y*x - 2*x*y\n"


def test_length_cap_exits_inconclusive(capsys, tmp_path):
    p = tmp_path / "infplane.alg"
    p.write_text(INFINITE_PLANE)
    code, out, err = run_cli(capsys, "gldim", str(p), "--max-length", "12")
    assert code == 2
    assert out == ""
    assert err.startswith("inconclusive: ") and "up to path length 12" in err


def _src_env():
    src = str(Path(quivalg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_non_stabilizing_input_in_bounded_memory(tmp_path):
    """A length cap far past what every path up to it would fill still
    ends in exit 2, not an out-of-memory kill, under a 1 GiB address space."""
    resource = pytest.importorskip("resource")
    p = tmp_path / "infplane.alg"
    p.write_text(INFINITE_PLANE)

    def limit_memory():
        # runs in the child only, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "quivalg.cli", "gldim", str(p), "--max-length", "40"],
        capture_output=True,
        text=True,
        env=_src_env(),
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "up to path length 40" in proc.stderr


def test_invalid_module_rejected(capsys, tmp_path):
    # x acting as identity breaks x^2 = 0 over the one-loop algebra
    p = tmp_path / "l2.alg"
    p.write_text("vertices v\narrow x: v -> v\nrelation x*x\n")
    bad = tmp_path / "notmod.mod"
    bad.write_text(f"algebra {p}\nvertex v 1\narrow x\n1\n")
    code, _, err = run_cli(capsys, "tau2", str(bad))
    assert code == 3
    assert "not a module" in err


def test_cartan_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "cartan", "builtin:end-reference")
    code2, out2, _ = run_cli(capsys, "cartan", "builtin:end-reference")
    assert (code1, out1) == (code2, out2)


def test_console_script_wiring():
    """The declared `quivalg` script reaches a CLI that reads argv and returns its exit code.

    Runs the same code an installer's wrapper script runs, built from the
    `[project.scripts]` target, so no installed executable is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["quivalg"]
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "gldim", "builtin:end-reference"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "gldim = 3" in proc.stdout, proc.stderr


def _third_party_imports(tree):
    """Top-level names of absolute non-stdlib imports, split into those
    outside and those inside a try block that catches ImportError."""
    unguarded, guarded = set(), set()

    def catches_import_error(handler):
        if handler.type is None:
            return True
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(
            isinstance(t, ast.Name) and t.id in ("ImportError", "ModuleNotFoundError")
            for t in types
        )

    def visit(node, optional):
        if isinstance(node, ast.Try) and any(catches_import_error(h) for h in node.handlers):
            for child in node.body:
                visit(child, True)
            for child in node.handlers + node.orelse + node.finalbody:
                visit(child, optional)
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top != "quivalg":
                (guarded if optional else unguarded).add(top)
        for child in ast.iter_child_nodes(node):
            visit(child, optional)

    visit(tree, False)
    return unguarded, guarded


def test_declared_dependencies_match_imports():
    """`[project].dependencies` names exactly the packages quivalg imports,
    and no import is guarded by `except ImportError`: an optional
    dependency would fork the package into two code paths."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    }
    unguarded, guarded = set(), set()
    for path in sorted(Path(quivalg.__file__).resolve().parent.glob("*.py")):
        found, optional = _third_party_imports(ast.parse(path.read_text(), str(path)))
        unguarded |= found
        guarded |= optional
    assert unguarded == declared, f"imported {sorted(unguarded)}, declared {sorted(declared)}"
    assert not guarded, f"optional imports: {sorted(guarded)}"


def _annotation_names(node):
    """Names an annotation refers to, inside string annotations too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def _unused_imports(tree):
    """Names a module imports but never references; `from __future__`
    imports are exempt."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for field in ("annotation", "returns"):
            ann = getattr(node, field, None)
            if ann is not None:
                used |= _annotation_names(ann)
    return imported - used


def test_no_unused_imports():
    """Every name a quivalg module imports is referenced in that module;
    `__init__.py`, whose imports are re-exports, is exempt."""
    unused = {}
    for path in sorted(Path(quivalg.__file__).resolve().parent.glob("*.py")):
        if path.name != "__init__.py":
            names = _unused_imports(ast.parse(path.read_text(), str(path)))
            if names:
                unused[path.name] = sorted(names)
    assert not unused, f"unused imports: {unused}"


_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _name_counts(tree):
    """How often a module refers to each name: names, attributes,
    imported names, and the parts of strings that are dotted names, which
    is how perfbench's TRACED and count_calls look functions up."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED_NAME.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def _named(tree):
    """Every name a module refers to, as _name_counts finds them."""
    return set(_name_counts(tree))


def test_no_dead_definitions():
    """Every function, method and class defined in quivalg is named
    somewhere in src, tests, perfbench, demos or pyproject.toml, apart
    from its own definition; dunder methods are exempt."""
    root = Path(__file__).resolve().parents[1]
    defined = {}
    for path in sorted(Path(quivalg.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, path.name)
    named = set(re.findall(r"\w+", (root / "pyproject.toml").read_text()))
    for part in ("src", "tests", "perfbench", "demos"):
        for path in sorted((root / part).rglob("*.py")):
            named |= _named(ast.parse(path.read_text(), str(path)))
    dead = sorted(
        f"{where}:{name}"
        for name, where in defined.items()
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    )
    assert not dead, f"defined but never named: {dead}"


def test_exports_have_callers():
    """Every name in quivalg.__all__ is named by the package itself,
    outside __init__.py and outside its own definition, or by demos or
    perfbench: an export that only tests reach is test-only surface."""
    root = Path(__file__).resolve().parents[1]
    named = set()
    for path in sorted(Path(quivalg.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            named |= _named(node) - {getattr(node, "name", None)}
    for part in ("perfbench", "demos"):
        for path in sorted((root / part).rglob("*.py")):
            named |= _named(ast.parse(path.read_text(), str(path)))
    uncalled = sorted(set(quivalg.__all__) - named)
    assert not uncalled, f"exported but named only by tests: {uncalled}"


# definitions that only tests call, each kept as the independent reference
# a test checks the pipeline against
ORACLES = {
    "coefficients_in_span": "fresh dense elimination that SpanSolver and solve_left are checked against",
    "PresentedAlgebra.multiply_vec": "products of whole vectors for the unit and associativity checks of a table",
    "ModuleHom.is_valid": "commuting-square check of the homs that hom_basis and is_isomorphic return",
    "ModuleHom.total_matrix": "one matrix per hom for the idempotent and summand identities of decompose",
    "path_endomorphism": "folds B's relations back to endomorphisms of M, which must vanish",
    "EndStructure.radical_homs": "the global trace-form radical that end_of_summands' blockwise one is checked against",
}


def _definitions(tree):
    """(qualified name, name, node) of every module-level function, every
    method other than a dunder and every UPPER_CASE module constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id.isupper():
                    yield t.id, t.id, node


def test_definitions_have_callers():
    """Every definition _definitions lists is named, by the _named rule,
    in src outside its own definition, or anywhere in demos or perfbench;
    only the ORACLES, which tests alone read, are not."""
    root = Path(__file__).resolve().parents[1]
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted((root / "src").rglob("*.py"))]
    in_src = sum((_name_counts(tree) for tree in trees), Counter())
    outside = set()
    for part in ("perfbench", "demos"):
        for path in sorted((root / part).rglob("*.py")):
            outside |= _named(ast.parse(path.read_text(), str(path)))
    uncalled = sorted(
        qualified
        for tree in trees
        for qualified, name, node in _definitions(tree)
        if in_src[name] == _name_counts(node)[name] and name not in outside
    )
    assert uncalled == sorted(ORACLES), "defined but named only by tests"


def test_no_random_import_and_no_seed_parameter():
    """Every answer, decompose's included, comes from a deterministic
    computation: no quivalg module imports random, and no function takes
    an rng or a seed, apart from the unread seeds of run_verification and
    end_as_quiver_algebra that perfbench/workloads.py still passes.  The
    comment above each names that file and ROADMAP item 1, whose
    benchmark change removes both."""
    importers, seeds = set(), {}
    for path in sorted(Path(quivalg.__file__).resolve().parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            if any(name.split(".")[0] == "random" for name in names):
                importers.add(path.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg in ("seed", "rng"):
                        # the run of comment lines directly above the parameter
                        k = arg.lineno - 1
                        while k and lines[k - 1].lstrip().startswith("#"):
                            k -= 1
                        seeds[(path.name, node.name, arg.arg)] = " ".join(lines[k : arg.lineno - 1])
    assert importers == set()
    assert set(seeds) == {
        ("verify.py", "run_verification", "seed"),
        ("endquiver.py", "end_as_quiver_algebra", "seed"),
    }
    for comment in seeds.values():
        assert "perfbench/workloads.py" in comment and "ROADMAP item 1" in comment, comment


def test_import_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quivalg; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_paper_leaves_sympy_out():
    """quivalg has no runtime dependency: a whole verify-paper run, which
    decomposes End(M) and so factors minimal polynomials, imports no
    sympy module."""
    script = (
        "import sys\n"
        "from quivalg.cli import main\n"
        "code = main(['verify-paper'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.skipif(shutil.which("quivalg") is None, reason="no installed quivalg executable on PATH")
def test_installed_console_script():
    proc = subprocess.run(
        ["quivalg", "gldim", "builtin:end-reference"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "gldim = 3" in proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "demo, line",
    [
        ("cluster_tilting_walkthrough.py", "M is 2-cluster-tilting: True"),
        ("file_formats.py", "round trips agree"),
    ],
)
def test_demo_runs_from_source_checkout(demo, line):
    """Each demo runs as documented: PYTHONPATH=src python3 demos/<name>."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines(), proc.stdout

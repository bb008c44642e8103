"""Seeded inputs and known answers for the three benchmark workloads.

A workload is a list of cases.  Each case runs the public API of
quivalg on inputs generated here from the benchmark seed, and returns
its outputs as a dict; the checker compares every output with an
answer known independently of the program (the paper's table, closed
forms, or an expected error).  The program's own pass/fail statuses are
never consulted.

quivalg is looked up at call time (``quivalg.name``), so a tracer that
rebinds the package's functions sees every call made from here.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import quivalg

WORKLOADS = ("verify-paper", "auslander", "quotients")

# the paper's answers for verify-paper, keyed by report entry
PAPER_ANSWERS = {
    "dim_a": "6",
    "translate_dims": "8 5 8 6",
    "end_vertices": "5",
    "end_arrows": "10",
    "dim_b_hom": "165",
    "dim_b_presented": "165",
    "gldim_b": "3",
    "domdim_b": "3",
    "cartan_det_b": "1",
    "ext1_da_a": "0",
    "ext1_m_m": "0",
    "cluster_tilting": "True",
    "exit_code": 0,
}

AUSLANDER_NS = (4, 5, 6, 7)
DENSE_BASES_PER_N = 2
HOM_BOUND = 6
PLANES = ((9, 9), (9, 10))
GRIDS = ((5, 6), (6, 6))
INFINITE_PLANE = (9, 3)  # x^9 is dropped, y^3 and yx - q xy stay
INFINITE_CAP = 18


@dataclass
class Case:
    """One unit of work with its known answer.

    run() returns the outputs; expected maps output keys to the known
    values.  When raises is set, the case is correct only if run()
    raises that error.  relations names the output that counts the
    relations of the presentation the case produces.
    """

    name: str
    run: Callable[[], Dict[str, object]]
    expected: Dict[str, object] = field(default_factory=dict)
    raises: Optional[type] = None
    relations: Optional[str] = None


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    relations_kept: int = 0
    failures: List[str] = field(default_factory=list)


def check_case(case: Case) -> Tuple[Optional[str], Dict[str, object]]:
    """(None, outputs) when the case matches its known answer, else
    (the reason, outputs)."""
    try:
        out = case.run()
    except Exception as exc:
        if case.raises is not None and isinstance(exc, case.raises):
            return None, {}
        return "%s: raised %s: %s" % (case.name, type(exc).__name__, exc), {}
    if case.raises is not None:
        return "%s: returned %r instead of raising %s" % (case.name, out, case.raises.__name__), out
    wrong = {
        key: (out.get(key, "<missing>"), want)
        for key, want in case.expected.items()
        if out.get(key, "<missing>") != want
    }
    if wrong:
        detail = ", ".join("%s=%r (known %r)" % (k, got, want) for k, (got, want) in wrong.items())
        return "%s: %s" % (case.name, detail), out
    return None, out


def run_pass(cases: List[Case]) -> PassResult:
    """One closed-loop pass: each case starts after the previous returns."""
    res = PassResult()
    for case in cases:
        res.attempted += 1
        reason, out = check_case(case)
        if reason is not None:
            res.failed += 1
            res.failures.append(reason)
        elif case.relations is not None:
            res.relations_kept += int(out[case.relations])
    return res


# -- verify-paper ---------------------------------------------------------


def verify_paper_cases(seed: int) -> List[Case]:
    def run():
        report = quivalg.run_verification(seed, bound=6, max_length=20)
        out: Dict[str, object] = {c.key: c.value for c in report.checks}
        out["exit_code"] = report.exit_code
        return out

    return [Case("verify-paper", run, dict(PAPER_ANSWERS), relations="minimized_relations")]


# -- auslander ------------------------------------------------------------


def truncated_polynomial_text(n: int) -> str:
    """K[x]/(x^n) as algebra-format text."""
    return "vertices v\narrow x: v -> v\nrelation %s\n" % "*".join(["x"] * n)


def jordan_matrix(n: int) -> List[List[int]]:
    """x acting on K[x]/(x) + ... + K[x]/(x^n), one Jordan block each."""
    size = n * (n + 1) // 2
    mat = [[0] * size for _ in range(size)]
    off = 0
    for block in range(1, n + 1):
        for k in range(block - 1):
            mat[off + k][off + k + 1] = 1
        off += block
    return mat


def _matmul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def dense_basis_matrix(jordan: List[List[int]], rng: random.Random) -> List[List[int]]:
    """The same module in the basis P = I + N, with N^2 = 0.

    N sends a random half S of the basis into the other half T, one
    entry of +-1 per row of S, so P^-1 = I - N and the conjugated matrix
    keeps small integer entries while its fill grows.
    """
    size = len(jordan)
    idx = list(range(size))
    rng.shuffle(idx)
    rows, cols = idx[: size // 2], idx[size // 2 :]
    nil = [[0] * size for _ in range(size)]
    for i in rows:
        nil[i][rng.choice(cols)] = rng.choice((-1, 1))
    p = [[int(i == j) + nil[i][j] for j in range(size)] for i in range(size)]
    p_inv = [[int(i == j) - nil[i][j] for j in range(size)] for i in range(size)]
    return _matmul(_matmul(p, jordan), p_inv)


def module_text(mat: List[List[int]], algebra_ref: str) -> str:
    lines = ["algebra %s" % algebra_ref, "vertex v %d" % len(mat), "arrow x"]
    lines += [" ".join(str(e) for e in row) for row in mat]
    return "\n".join(lines) + "\n"


def auslander_case(n: int, basis: str, text: str, seed: int) -> Case:
    """End of K[x]/(x) + ... + K[x]/(x^n): the Auslander algebra of K[x]/(x^n)."""
    algebra_text = truncated_polynomial_text(n)

    def run():
        quiver, relations = quivalg.parse_algebra(algebra_text)
        a = quivalg.build_algebra(quiver, relations)
        m = quivalg.parse_module(text, algebra=a)
        pres = quivalg.end_as_quiver_algebra(m, seed=seed)
        b = pres.presented
        return {
            "dim": b.dim,
            "vertices": pres.quiver.num_vertices,
            "arrows": len(pres.quiver.arrows),
            "gldim": quivalg.global_dimension(b, HOM_BOUND),
            "domdim": quivalg.dominant_dimension(b, HOM_BOUND),
            "cartan_det": quivalg.cartan_determinant(b),
            "relations": len(pres.relations),
        }

    expected = {
        "dim": n * (n + 1) * (2 * n + 1) // 6,
        "vertices": n,
        "arrows": 2 * (n - 1),
        "gldim": 2,
        "domdim": 2,
        "cartan_det": 1,
    }
    return Case("auslander-n%d-%s" % (n, basis), run, expected, relations="relations")


def auslander_cases(seed: int) -> List[Case]:
    cases = []
    for n in AUSLANDER_NS:
        jordan = jordan_matrix(n)
        ref = "truncated-polynomial-%d" % n
        cases.append(auslander_case(n, "jordan", module_text(jordan, ref), seed))
        for k in range(DENSE_BASES_PER_N):
            rng = random.Random("auslander-%d-%d-%d" % (seed, n, k))
            dense = dense_basis_matrix(jordan, rng)
            cases.append(auslander_case(n, "dense%d" % k, module_text(dense, ref), seed))
    return cases


# -- quotients ------------------------------------------------------------


def _seeded_rational(rng: random.Random) -> Fraction:
    """A rational other than 0 and 1, with one-digit numerator and denominator."""
    while True:
        q = Fraction(rng.randint(2, 9), rng.randint(2, 9)) * rng.choice((-1, 1))
        if q != 1:
            return q


def _signed(coeff: Fraction) -> str:
    return ("- %s" if coeff < 0 else "+ %s") % abs(coeff)


def quantum_plane_text(p: int, r: int, q: Fraction, keep_x_power: bool = True) -> str:
    """K<x,y>/(x^p, y^r, yx - q xy), of dimension p*r."""
    lines = ["vertices v", "arrow x: v -> v", "arrow y: v -> v"]
    if keep_x_power:
        lines.append("relation " + "*".join(["x"] * p))
    lines.append("relation " + "*".join(["y"] * r))
    lines.append("relation y*x %s*x*y" % _signed(-q))
    return "\n".join(lines) + "\n"


def commutative_grid_text(m: int, n: int, rng: random.Random) -> str:
    """A_m (x) A_n: an m-by-n grid quiver with every square commuting up
    to a seeded nonzero scalar, of dimension C(m+1, 2) * C(n+1, 2)."""
    verts = ["g%d_%d" % (i, j) for i in range(m) for j in range(n)]
    lines = ["vertices " + " ".join(verts)]
    for i in range(m):
        for j in range(n):
            if i + 1 < m:
                lines.append("arrow h%d_%d: g%d_%d -> g%d_%d" % (i, j, i, j, i + 1, j))
            if j + 1 < n:
                lines.append("arrow w%d_%d: g%d_%d -> g%d_%d" % (i, j, i, j, i, j + 1))
    for i in range(m - 1):
        for j in range(n - 1):
            c = _seeded_rational(rng)
            lines.append(
                "relation h%d_%d*w%d_%d %s*w%d_%d*h%d_%d" % (i, j, i + 1, j, _signed(-c), i, j, i, j + 1)
            )
    return "\n".join(lines) + "\n"


def reference_text(rng: random.Random) -> str:
    """The frozen eleven-relation presentation of B, relations shuffled."""
    quiver = quivalg.reference_end_quiver()
    relations = quivalg.reference_end_relations(quiver)
    rng.shuffle(relations)
    return quivalg.format_algebra(quiver, relations)


def build_case(name: str, text: str, dim: int, length_cap: int = 20) -> Case:
    def run():
        quiver, relations = quivalg.parse_algebra(text)
        a = quivalg.build_algebra(quiver, relations, length_cap=length_cap)
        return {"dim": a.dim, "relations": len(a.relations)}

    return Case(name, run, {"dim": dim}, relations="relations")


def probe_case(name: str, text: str, dim: int) -> Case:
    def run():
        quiver, relations = quivalg.parse_algebra(text)
        return {"dim": quivalg.build_dimension_only(quiver, relations), "relations": len(relations)}

    return Case(name, run, {"dim": dim}, relations="relations")


def not_finite_case(name: str, text: str, length_cap: int) -> Case:
    def run():
        quiver, relations = quivalg.parse_algebra(text)
        a = quivalg.build_algebra(quiver, relations, length_cap=length_cap)
        return {"dim": a.dim}

    return Case(name, run, raises=quivalg.NotFiniteDimensionalError)


def quotients_cases(seed: int) -> List[Case]:
    rng = random.Random("quotients-%d" % seed)
    cases = []
    for p, r in PLANES:
        text = quantum_plane_text(p, r, _seeded_rational(rng))
        cases.append(build_case("plane-%dx%d" % (p, r), text, p * r))
    for m, n in GRIDS:
        dim = (m * (m + 1) // 2) * (n * (n + 1) // 2)
        cases.append(build_case("grid-%dx%d" % (m, n), commutative_grid_text(m, n, rng), dim))
    ref = reference_text(rng)
    cases.append(build_case("reference-full", ref, 165))
    cases.append(probe_case("reference-probe", ref, 165))
    p, r = INFINITE_PLANE
    text = quantum_plane_text(p, r, _seeded_rational(rng), keep_x_power=False)
    cases.append(not_finite_case("plane-no-x-power", text, INFINITE_CAP))
    return cases


def cases_for(workload: str, seed: int) -> List[Case]:
    if workload == "verify-paper":
        return verify_paper_cases(seed)
    if workload == "auslander":
        return auslander_cases(seed)
    if workload == "quotients":
        return quotients_cases(seed)
    raise ValueError("unknown workload %r (known: %s)" % (workload, ", ".join(WORKLOADS)))

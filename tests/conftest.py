"""Shared fixtures.

Small oracle algebras are cheap and rebuilt per session anyway; the
translate pipeline over the two-loop algebra is shared session-wide so
its cost is paid once.
"""

import sys

import pytest

from quivalg import (
    Quiver,
    build_algebra,
    decompose,
    direct_sum,
    dual,
    end_as_quiver_algebra,
    regular_module,
    tau2,
    two_loop_local_algebra,
)
from quivalg.endos import EndStructure
from quivalg.quiver import PathAlgElement


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Criterion verdict lines are printed inside captured stdout; echo
    # them here so they show up in a plain -v run too.
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) counts the calls of owner.name during a test.

    A function is rebound in every quivalg namespace that imported it, so
    calls made inside the package are counted too; a method is rebound on
    its class.  Returns a dict whose "calls" entry counts the calls.
    """

    def install(owner, name):
        orig = getattr(owner, name)
        counter = {"calls": 0}

        def counted(*args, **kwargs):
            counter["calls"] += 1
            return orig(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, counted)
        else:
            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] == "quivalg" and vars(mod).get(name) is orig:
                    monkeypatch.setattr(mod, name, counted)
        return counter

    return install


def element(quiver, *terms):
    """Sum of (coeff, [labels]) pairs as a path algebra element."""
    out = None
    for coeff, labels in terms:
        part = PathAlgElement.from_path(quiver, quiver.path(list(labels)), coeff)
        out = part if out is None else out + part
    return out


@pytest.fixture(scope="session")
def l2():
    """Dual numbers as a one-loop quotient: selfinjective, not semisimple."""
    q = Quiver(["v"], [("x", "v", "v")])
    return build_algebra(q, [element(q, (1, ["x", "x"]))])


@pytest.fixture(scope="session")
def a2():
    """Path algebra of v1 -> v2, no relations: hereditary, dim 3."""
    q = Quiver(["v1", "v2"], [("a", "v1", "v2")])
    return build_algebra(q, [])


@pytest.fixture(scope="session")
def two_loop():
    return two_loop_local_algebra()


@pytest.fixture(scope="session")
def translates(two_loop):
    """Dual regular module and its first four second translates."""
    da = dual(regular_module(two_loop.opposite))
    out = [da]
    for _ in range(4):
        out.append(tau2(out[-1]))
    return out


@pytest.fixture(scope="session")
def m_module(translates):
    return direct_sum(translates)[0]


@pytest.fixture(scope="session")
def m_structure(m_module):
    return EndStructure(m_module)


@pytest.fixture(scope="session")
def m_summands(m_module, m_structure):
    return decompose(m_module, seed=0, structure=m_structure)


@pytest.fixture(scope="session")
def m_presentation(m_module, m_structure, m_summands):
    return end_as_quiver_algebra(m_module, max_length=20, seed=0, structure=m_structure)

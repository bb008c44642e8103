"""Text formats and the command line, shown on the dual numbers.

Writes an algebra file and a module file to a scratch directory, runs
the same computations through the Python API and the CLI, and checks
the round trips agree.

Run:  PYTHONPATH=src python3 demos/file_formats.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from quivalg import (
    build_algebra,
    direct_sum,
    format_algebra,
    format_module,
    indec_projectives,
    parse_algebra,
    parse_module,
    simples,
    two_loop_local_algebra,
)
from quivalg.quiver import PathAlgElement, Quiver


def main():
    scratch = Path(tempfile.mkdtemp(prefix="quivalg-demo-"))
    q = Quiver(["v"], [("x", "v", "v")])
    rel = PathAlgElement.from_path(q, q.path(["x", "x"]))
    l2 = build_algebra(q, [rel])

    alg_path = scratch / "dual_numbers.alg"
    alg_path.write_text(format_algebra(q, [rel]))
    print(f"algebra file {alg_path}:")
    print(alg_path.read_text())

    mixed = direct_sum([simples(l2)[0], indec_projectives(l2)[0]])
    mod_path = scratch / "mixed.mod"
    mod_path.write_text(format_module(mixed, str(alg_path)))
    print(f"module file {mod_path}:")
    print(mod_path.read_text())

    quiver, relations = parse_algebra(alg_path.read_text())
    assert build_algebra(quiver, relations).dim == l2.dim
    rep = parse_module(mod_path.read_text(), algebra=l2)
    assert rep == mixed
    print("round trips agree\n")

    for args in (
        ["end-quiver", str(mod_path)],
        ["gldim", str(alg_path), "--bound", "4"],
        ["cartan", str(alg_path)],
        ["tau2", str(mod_path)],
    ):
        print(f"$ quivalg {' '.join(args)}")
        proc = subprocess.run(
            [sys.executable, "-m", "quivalg.cli", *args],
            capture_output=True,
            text=True,
        )
        print(proc.stdout, end="")
        print(f"(exit {proc.returncode})\n")

    print("builtin references also work: quivalg domdim builtin:end-reference")


if __name__ == "__main__":
    main()

"""numpy at the edge: importing the package and its CLI loads no numpy, nor
does a command that fails before its first array, nor analyze, transform,
pde or verify, which run on floats; no command loads numpy.random, since the package
draws from its own generator; and no module imports numpy at module level.
Each child runs isolated (-I), so neither the environment nor site-packages'
.pth hooks can preload numpy.  scripts/check_numpy_free.py pins the digests
of the numpy-free reference commands, and a test here holds those pins to
scripts/output_digests.py."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

from clairaut.fixtures import BUNDLED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# runs each argv list through cli.main in one isolated interpreter and
# prints, per command, its exit code and which of the watched modules had
# loaded when it returned
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
watched = sys.argv[2]
import clairaut, clairaut.cli
out = [["import clairaut, clairaut.cli", 0, watched in sys.modules]]
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = clairaut.cli.main(argv)
    out.append([" ".join(argv), code, watched in sys.modules])
print(json.dumps(out))
"""


def run_isolated(watched, argvs):
    proc = subprocess.run([sys.executable, "-I", "-c", CHILD, SRC, watched, json.dumps(argvs)],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_numpy_at_import_help_and_early_errors(tmp_path):
    bad = tmp_path / "bad.lag"
    bad.write_text("coord x; lagrangian = d(x)^;\n")
    runs = run_isolated("numpy", [["--help"], ["analyze"], ["analyze", str(bad)]])
    assert [code for _, code, _ in runs] == [0, 0, 2, 2]
    assert [what for what, _, loaded in runs if loaded] == []


def test_analyze_transform_and_pde_load_no_numpy():
    argvs = [["analyze", name] for name in BUNDLED] + [
        ["transform", "particle", "--at", "x0=0,x=0,y=0,z=0,p_x=3,p_y=0,p_z=4"],
        ["transform", "cawley", "--at", "x=0.4,y=0,z=2.0,p_x=1.1,p_y=-0.3"],
        ["transform", "synthetic_gauge", "--at", "x=0.4,a=0.1,b=0.2,u=0.3,w=0.5,p_x=1.1"],
        ["pde", "--f", "z1^2+z2^2", "--mode", "general", "--c", "c1=1,c2=2",
         "--at", "x1=2,x2=2"],
        ["pde", "--f", "-(5*sqrt(1 - z1^2))", "--mode", "envelope", "--at", "x1=3"],
        ["pde", "--f", "z1^2+z2^2+z3", "--mode", "mixed", "--s", "2", "--c", "c3=1",
         "--at", "x1=2,x2=2,x3=3"],
    ]
    runs = run_isolated("numpy", argvs)
    assert [code for _, code, _ in runs] == [0] * (len(argvs) + 1)
    assert [what for what, _, loaded in runs if loaded] == []


def test_verify_loads_no_numpy():
    runs = run_isolated("numpy", [["verify", name] for name in BUNDLED])
    assert [code for _, code, _ in runs] == [0] * (len(BUNDLED) + 1)
    assert [what for what, _, loaded in runs if loaded] == []


def test_numpy_free_check_pins_the_output_digests():
    # the script computes each pinned command's digest with output_digests
    child = ("import sys; sys.path[:0] = sys.argv[1:]; import check_numpy_free as c; "
             "assert len(c.pinned_digests()) == 23; c.main()")
    proc = subprocess.run([sys.executable, "-I", "-c", child, os.path.join(ROOT, "scripts"), SRC],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "23 numpy-free reference commands: the pinned digests" in proc.stdout


def test_no_command_loads_numpy_random(tmp_path):
    argvs = [
        ["analyze", "cawley"],
        ["transform", "particle", "--at", "x0=0,x=0,y=0,z=0,p_x=3,p_y=0,p_z=4"],
        ["pde", "--f", "z1^2+z2^2+z3", "--mode", "mixed", "--s", "2", "--c", "c3=1",
         "--at", "x1=2,x2=2,x3=3"],
        ["verify", "christ_lee", "--seed", "42"],
        ["simulate", "particle", "--gauge", "x0=1+0.1*sin(t)", "--init", "p_x=0.4,p_y=0.1,p_z=0.2",
         "--t1", "0.01", "--dt", "1e-3", "--out", str(tmp_path / "traj.csv")],
    ]
    runs = run_isolated("numpy.random", argvs)
    assert [code for _, code, _ in runs] == [0] * 6
    assert [what for what, _, loaded in runs if loaded] == []


def outside_functions(nodes):
    """The nodes, and all they hold, that run when the module is imported:
    everything but function bodies."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from outside_functions(ast.iter_child_nodes(node))


def numpy_uses(source):
    """(line, what) for each module-level numpy import and each np.random or
    numpy.random attribute in the module source."""
    tree = ast.parse(source)
    found = []
    for node in outside_functions(tree.body):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append((node.lineno, "module-level numpy import"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"{node.value.id}.random"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "clairaut", "*.py"))),
                         ids=os.path.basename)
def test_numpy_imports_only_inside_functions(path):
    with open(path, encoding="utf-8") as fh:
        assert numpy_uses(fh.read()) == []


def test_the_source_check_sees_what_it_looks_for():
    source = ("import numpy as np\n"
              "class A:\n    from numpy import linalg\n"
              "def f():\n    import numpy\n    return np.random\n")
    assert numpy_uses(source) == [(1, "module-level numpy import"),
                                  (3, "module-level numpy import"), (6, "np.random")]


def test_manytime_imports_nothing_from_dynamics():
    # the Dirac constraint brackets are read off G, so imports run one way:
    # dynamics -> manytime -> gauge
    with open(os.path.join(SRC, "clairaut", "manytime.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    assert [name for name in names if "dynamics" in name.split(".")] == []

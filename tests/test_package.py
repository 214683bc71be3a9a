"""The package is what its pipelines run, plus the API README documents.

A fresh interpreter sets a profile function before ``import sglab``, so
calls made at import count, and then runs ``cli.main`` once per pipeline,
env model, weight model, basis, ``--mixture`` and format on small inputs.
Every public function, method, classmethod and property defined in an
``sglab`` module must have been called, or be named in ``DOCUMENTED_API``;
README.md names every entry of that tuple.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sglab

README = Path(__file__).resolve().parents[1] / "README.md"

# Public names that no pipeline calls, kept as API that README documents.
DOCUMENTED_API = (
    "SpinPrep.balanced",
    "parse_config_echo",
    "RowTable.__iter__",
    "RowTable.__eq__",
    "RowTable.__repr__",
    "Coded.tolist",
)

ARGVS = (
    ["local", "--shots=5"],
    ["local", "--shots=5", "--basis=X", "--mixture", "--format=csv"],
    ["joint", "--observables=IZZ,ZZI,ZIZ,XXX"],
    ["condition"],
    ["ordinary", "--format=csv"],
    ["blindness", "--d=2"],
    ["absorbing", "--d=2", "--env-model=phases", "--weights=geometric"],
    ["sweep", "--d=2,3", "--trials=2", "--env-model=identity"],
)

# argv: output directory, JSON list of run argvs.  Writes reach.json there.
TRACE = r"""
import importlib, inspect, json, pkgutil, sys
import numpy

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
import sglab.cli
out_dir, argvs = sys.argv[1], json.loads(sys.argv[2])
codes = [sglab.cli.main(["run", *argv, "--seed=1", f"--out={out_dir}/{k}.report"])
         for k, argv in enumerate(argvs)]
sys.setprofile(None)

def public(name):
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))

defined = {}
for info in pkgutil.iter_modules(sglab.__path__):
    module = importlib.import_module("sglab." + info.name)
    for name, obj in vars(module).items():
        if not public(name):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members = [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                       if public(attr)]
        for qualname, member in members:
            if isinstance(member, property):
                member = member.fget
            code = getattr(inspect.unwrap(getattr(member, "__func__", member)), "__code__", None)
            # Only code written in this module: not by-name imports, not
            # the methods a dataclass generates.
            if code is not None and code.co_filename == module.__file__:
                defined[qualname] = code
with open(f"{out_dir}/reach.json", "w") as fh:
    json.dump({"exit_codes": codes, "defined": sorted(defined),
               "unreached": sorted(q for q, code in defined.items() if code not in called)}, fh)
"""


def test_every_public_definition_is_reached_or_documented(tmp_path):
    src = str(Path(sglab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", TRACE, str(tmp_path), json.dumps(ARGVS)],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    reach = json.loads((tmp_path / "reach.json").read_text())
    assert reach["exit_codes"] == [0] * len(ARGVS)
    assert set(DOCUMENTED_API) <= set(reach["defined"])
    assert set(reach["unreached"]) <= set(DOCUMENTED_API), reach["unreached"]


def test_readme_names_every_documented_name():
    readme = README.read_text(encoding="utf-8")
    assert [name for name in DOCUMENTED_API if f"`{name}`" not in readme] == []


def test_no_module_binds_an_unused_import():
    # __init__ is left out: its imports are the package's exports.
    unused = []
    for path in sorted(Path(sglab.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        for node in imports:
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []

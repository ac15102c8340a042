import ast
import os
import subprocess
import sys
from pathlib import Path

import kocover


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(Path(kocover.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and \
                    (node.level > 0 or (node.module or "").split(".")[0] == "kocover"):
                offenders += [f"{path.name}: {a.name} from {node.module}"
                              for a in node.names if a.name.startswith("_")]
    assert not offenders


def test_no_module_reads_a_private_attribute_of_another():
    # x._name may be read only in a module that defines _name: as a def or
    # class, or by assigning to it
    offenders = []
    for path in sorted(Path(kocover.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        own |= {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
        own |= {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        offenders += [f"{path.name}:{node.lineno}: .{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                      and node.attr.startswith("_") and not node.attr.endswith("__")
                      and node.attr not in own]
    assert not offenders


def used_names(trees) -> set[str]:
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_definition_is_referenced():
    src = Path(kocover.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (src, Path(__file__).parent) for path in folder.glob("*.py")}
    used = used_names(trees.values())
    dead = [f"{path.name}: {node.name}"
            for path, tree in trees.items() if path.parent == src
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in used]
    assert not dead


def test_definitions_used_only_by_tests_are_exported():
    # a module-level function or class that no package module uses is either
    # package API, re-exported from kocover, or test scaffolding for tests/
    src = Path(kocover.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in src.glob("*.py") if path.name != "__init__.py"}
    used = used_names(trees.values())
    scaffolding = [f"{path.name}: {node.name}"
                   for path, tree in trees.items() for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name not in used and node.name not in kocover.__all__]
    assert not scaffolding


def test_only_the_tower_converts_cell_numbers_to_arrays():
    # cell numbers at rest are array('i') and index tables intp; the two
    # meet only in tower.index_array and tower.numbers_array
    offenders = []
    for path in sorted(Path(kocover.__file__).parent.glob("*.py")):
        if path.name == "tower.py":
            continue
        offenders += [f"{path.name}:{node.lineno}: np.{node.attr}"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr in ("int32", "frombuffer")
                      and isinstance(node.value, ast.Name) and node.value.id == "np"]
    assert not offenders


def test_the_benchmark_set_up_leaves_out_numpy():
    # bench/worker.py imports these and builds its random complexes before
    # it starts the clock; none of it may load numpy
    src = str(Path(kocover.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, kocover, kocover.cli, kocover.cover, kocover.product; "
            "kocover.builtin('random:2:7:716971'); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

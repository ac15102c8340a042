import ast
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


def test_every_definition_is_referenced():
    src = Path(kocover.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (src, Path(__file__).parent) for path in folder.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = [f"{path.name}: {node.name}"
            for path, tree in trees.items() if path.parent == src
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in used]
    assert not dead

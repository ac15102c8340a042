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

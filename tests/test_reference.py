"""The reference oracles must stay independent of the code they check."""
import ast
from pathlib import Path

import faultpath

ALLOWED = {"graph", "weights"}


def test_reference_imports_only_graph_and_weights():
    path = Path(faultpath.__file__).with_name("reference.py")
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "faultpath":
                parts = node.module.split(".")[1:]
            elif node.level > 0:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            used.update([parts[0]] if parts else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "faultpath":
                    used.add(parts[1] if len(parts) > 1 else "faultpath")
    assert used <= ALLOWED, f"reference.py imports {sorted(used - ALLOWED)}"

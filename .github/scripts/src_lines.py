"""Print the code, docstring, comment and blank lines of src/falm as one JSON line.

    python .github/scripts/src_lines.py [SRC_DIR]

A line is docstring when it lies in a module, class or function docstring,
blank when it holds only whitespace, comment when it starts with ``#``, and
code otherwise.
"""

import ast
import json
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    doc = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        kind = ("docstring" if number in doc else "blank" if not line.strip()
                else "comment" if line.lstrip().startswith("#") else "code")
        out[kind] += 1
    return out


root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/falm")
files = {path.name: count(path) for path in sorted(root.glob("*.py"))}
total = {kind: sum(f[kind] for f in files.values()) for kind in KINDS}
print(json.dumps({"files": files, "total": {**total, "lines": sum(total.values())}}))

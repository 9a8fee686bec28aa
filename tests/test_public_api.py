"""Every exported name is used by the package or documented for users.

A name that only tests read is dead weight in the public API: it has to
be kept working without serving the pipeline. This check fails when one
appears in ``ofdmjrc.__all__``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import ofdmjrc

_PACKAGE = Path(ofdmjrc.__file__).parent
_README = Path(__file__).resolve().parent.parent / "README.md"


def _names_read_by_the_package() -> set[str]:
    read = set()
    for path in _PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def test_every_exported_name_is_used_or_documented():
    read = _names_read_by_the_package()
    readme = _README.read_text(encoding="utf-8")
    unread = [name for name in ofdmjrc.__all__
              if name not in read
              and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unread == [], f"exported but neither used by src nor in README: {unread}"

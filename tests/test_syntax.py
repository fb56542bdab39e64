"""Every Python file of the project parses under Python 3.10 grammar.

pyproject.toml promises Python >= 3.10.  Parsing with feature_version
(3, 10) rejects newer syntax (for example `except*`) on any interpreter
version; it does not check standard-library names that 3.10 lacks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_310():
    paths = sorted(p for top in ("src", "tests", "perfbench", "tools")
                   for p in (ROOT / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

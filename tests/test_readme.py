"""The README's public API list and its quickstart imports agree with the package."""

import ast
import re
from pathlib import Path

import sumprod

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _section(heading):
    """The README text under a heading, up to the next heading."""
    start = README.index(f"\n{heading}\n") + len(heading) + 2
    end = README.find("\n#", start)
    return README[start : end if end >= 0 else None]


def test_public_api_list_is_what_the_package_imports():
    tree = ast.parse((ROOT / "src" / "sumprod" / "__init__.py").read_text())
    imported = {n.module: sorted(a.name for a in n.names) for n in tree.body if isinstance(n, ast.ImportFrom)}
    section = _section("### Public API")
    listed = {
        module: sorted(re.findall(r"`(\w+)`", names))
        for module, names in re.findall(r"^\* `(\w+)`: (.*?)(?=^\* |\Z)", section, re.M | re.S)
    }
    assert listed == imported
    count = sum(map(len, listed.values()))
    assert f"exports these {count} names" in section
    assert all(hasattr(sumprod, name) for names in listed.values() for name in names)


def test_quickstart_imports_exist():
    block = README.split("\n## Library quickstart\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = [a.name for n in ast.parse(block).body if isinstance(n, ast.ImportFrom) and n.module == "sumprod"
             for a in n.names]
    assert names
    assert [name for name in names if not hasattr(sumprod, name)] == []

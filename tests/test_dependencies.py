"""Every declared runtime dependency is imported by some module in src/.

An unused dependency still has to be installed by every user; this
keeps one from creeping back into ``pyproject.toml`` unnoticed.
"""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules():
    modules = set()
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.name.split(".")[0] for a in node.names)
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module):
                modules.add(node.module.split(".")[0])
    return modules


def module_name(requirement):
    """``"numpy>=1.24"`` -> ``"numpy"`` (distribution name as a module)."""
    dist = re.split(r"[\s<>=!~;\[(]", requirement.strip(), maxsplit=1)[0]
    return dist.lower().replace("-", "_")


def test_every_dependency_is_imported_under_src():
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    deps = project["dependencies"]
    assert deps, "pyproject.toml declares no runtime dependencies"
    imported = imported_top_level_modules()
    unused = [d for d in deps if module_name(d) not in imported]
    assert not unused, (
        f"declared in pyproject.toml but imported nowhere under src/: "
        f"{unused}")

import ast
import importlib
from pathlib import Path

import pytest

import framepcm

_PACKAGE = Path(framepcm.__file__).parent
_MODULES = sorted(path.stem for path in _PACKAGE.glob("*.py") if not path.stem.startswith("_"))


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"framepcm.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse((_PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        exported = importlib.import_module(f"framepcm.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == [], \
            node.module

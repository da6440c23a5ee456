"""The brute-force oracles stay independent of the paths they check."""

import ast
import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ORACLE_FILES = (ROOT / "tests" / "oracles.py", ROOT / "src" / "bnspectral" / "reference.py")

# the fast paths: an oracle that imported one would check it against itself
FORBIDDEN_MODULES = {"measures", "analysis", "sampling", "selftest"}
FORBIDDEN_NAMES = ("transform", "kron_apply", "conditional_expectation*", "_subset_sums",
                   "collapse*", "localize", "_compile", "_tabulate")


def imported(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for every import in ``tree``, a plain ``import m``
    giving (m, ""), and ("", attr) for every attribute read, so that
    ``boolfn.transform`` counts as well as ``from .boolfn import transform``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out += [(node.module or "", alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute):
            out.append(("", node.attr))
    return out


def forbidden(module: str, name: str) -> bool:
    parts = set(module.split(".")) | {name}
    return bool(parts & FORBIDDEN_MODULES) or any(
        fnmatch.fnmatchcase(name, pattern) for pattern in FORBIDDEN_NAMES)


@pytest.mark.parametrize("path", ORACLE_FILES, ids=lambda p: p.name)
def test_oracles_import_no_fast_path(path):
    found = [(m, n) for m, n in imported(ast.parse(path.read_text())) if forbidden(m, n)]
    assert found == []


def test_the_rule_refuses_a_fast_path_and_allows_the_data_types():
    for module, name in (("bnspectral.measures", "influence"), ("", "measures"),
                         ("bnspectral.boolfn", "transform"), ("boolfn", "kron_apply"),
                         ("bnspectral.boolfn", "conditional_expectation_table"),
                         ("bnspectral.netlang", "collapse_local"), ("netlang", "localize"),
                         ("bnspectral.netlang", "_compile"), ("bnspectral.sampling", "")):
        assert forbidden(module, name), (module, name)
    for module, name in (("bnspectral.boolfn", "BoolFn"), ("boolfn", "ProductDist"),
                         ("bnspectral.boolfn", "Spectrum"), ("boolfn", "SubsetMask"),
                         ("bnspectral.boolfn", "indices_of"), ("bnspectral.netlang", "Expr"),
                         ("bnspectral.netlang", "Network"),
                         ("bnspectral.reference", "_group_index"), ("numpy", "")):
        assert not forbidden(module, name), (module, name)

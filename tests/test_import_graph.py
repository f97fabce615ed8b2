"""The package's import graph, read from the source: the survey's terms stay importable from every layer.

`ldp` holds the survey configuration and imports nothing from the package, so `ledger` can read the
terms without reaching `protocol`, which imports `ledger`. These tests keep that cycle from coming back.
"""

import ast
from pathlib import Path

import privmarket

SOURCE = Path(privmarket.__file__).parent


def imported_modules(path: Path) -> set[str]:
    """The package modules that one module imports, by their short names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "privmarket":
                parts = node.module.split(".")[1:]
            elif node.level:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            # `from . import ledger` and `from privmarket import ledger` name the modules in their names
            found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("privmarket."))
    return found


GRAPH = {path.stem: imported_modules(path) for path in SOURCE.glob("*.py") if path.stem != "__init__"}


def reachable(module: str) -> set[str]:
    seen, stack = set(), [module]
    while stack:
        for name in GRAPH.get(stack.pop(), ()):
            if name not in seen:
                seen.add(name)
                stack.append(name)
    return seen


def test_the_graph_is_read_from_the_source():
    assert set(GRAPH) == {"cli", "envelope", "ldp", "ledger", "protocol", "simulate"}
    assert GRAPH["protocol"] == {"envelope", "ldp", "ledger"}
    assert GRAPH["simulate"] == {"ldp", "ledger", "protocol"}


def test_ldp_imports_nothing_from_the_package():
    assert GRAPH["ldp"] == set()


def test_ledger_reaches_neither_protocol_nor_simulate():
    assert not reachable("ledger") & {"protocol", "simulate"}


def test_the_survey_terms_are_defined_in_ldp_alone():
    from privmarket import cli, ldp, protocol, simulate

    for name in ("CONFIG_HEADER", "FilterCriteria", "SurveyConfiguration", "render_config_file", "parse_config_file"):
        assert getattr(protocol, name) is getattr(ldp, name)  # imported under its name, not redefined
    assert cli.SurveyConfiguration is simulate.SurveyConfiguration is ldp.SurveyConfiguration

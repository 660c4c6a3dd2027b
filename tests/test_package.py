"""The package's public names are its modules' ``__all__``, concatenated."""

import odgraph
from odgraph import cli, errors, formulas, graph, groups, verify

MODULES = (errors, groups, graph, formulas, verify, cli)


def test_package_all_is_the_modules_all_in_order():
    assert odgraph.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(odgraph.__all__)) == len(odgraph.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(odgraph, name) is getattr(module, name), name
    # public in their modules, once missing from a hand-kept package list
    drifted = {
        "class_degrees",
        "is_star_profile",
        "family_formulas",
        "SWEEP_FAMILIES",
        "MAX_SWEEP_INSTANCES",
    }
    assert drifted <= set(odgraph.__all__)

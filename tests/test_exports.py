"""Tests that the public names of each module are the ones it lists."""

import pytest

import dpc_perm
from dpc_perm import channel, linalg, modem, ordering, precoding, sim


@pytest.mark.parametrize(
    "module", [linalg, channel, precoding, ordering, modem, sim], ids=lambda m: m.__name__
)
def test_all_lists_exactly_the_public_definitions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
    }
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"{module.__name__} defines public {unlisted} outside __all__"


def test_package_all_resolves():
    assert [name for name in dpc_perm.__all__ if not hasattr(dpc_perm, name)] == []

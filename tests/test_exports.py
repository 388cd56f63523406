"""The package's export list: every name in ``switchmux.__all__`` resolves."""

import pytest

import switchmux


@pytest.mark.parametrize("name", switchmux.__all__)
def test_exported_name_resolves(name):
    assert getattr(switchmux, name) is not None


def test_exports_are_listed_once():
    assert len(set(switchmux.__all__)) == len(switchmux.__all__)

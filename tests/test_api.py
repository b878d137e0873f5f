"""The package's deliberate public API."""

import types

import snoopdns


def test_all_lists_exactly_the_re_exported_names():
    exported = {name for name, value in vars(snoopdns).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(snoopdns.__all__) == len(set(snoopdns.__all__))
    assert set(snoopdns.__all__) == exported

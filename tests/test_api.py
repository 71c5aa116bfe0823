"""The package's export list."""

import simsup


def test_all_names_resolve():
    missing = [name for name in simsup.__all__ if not hasattr(simsup, name)]
    assert not missing

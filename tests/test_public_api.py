"""The package's public surface: every exported name resolves."""

import arsusim


def test_every_name_in_all_resolves():
    missing = [name for name in arsusim.__all__
               if not hasattr(arsusim, name)]
    assert missing == []
    assert len(set(arsusim.__all__)) == len(arsusim.__all__)

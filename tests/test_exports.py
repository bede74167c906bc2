"""The package's export list."""

import optbranch


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from optbranch import *", namespace)
    assert len(set(optbranch.__all__)) == len(optbranch.__all__)
    for name in optbranch.__all__:
        assert namespace[name] is getattr(optbranch, name)

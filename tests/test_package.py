"""The public surface: every exported name exists."""

import gbflab


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from gbflab import *", namespace)
    for name in gbflab.__all__:
        assert namespace[name] is getattr(gbflab, name), name
    assert len(set(gbflab.__all__)) == len(gbflab.__all__)

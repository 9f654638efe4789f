import mvolt


def test_every_exported_name_resolves():
    # a star import fails on any name of __all__ that the package lacks
    namespace = {}
    exec("from mvolt import *", namespace)
    assert sorted(set(mvolt.__all__) - set(namespace)) == []
    assert len(set(mvolt.__all__)) == len(mvolt.__all__)

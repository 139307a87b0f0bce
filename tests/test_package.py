import quadspec


def test_every_exported_name_resolves():
    namespace = {}
    exec("from quadspec import *", namespace)  # raises AttributeError on a name that does not resolve
    assert set(quadspec.__all__) <= set(namespace)

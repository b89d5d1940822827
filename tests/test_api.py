import tce


def test_every_export_resolves_once_in_sorted_order():
    assert tce.__all__ == sorted(set(tce.__all__))
    namespace = {}
    exec("from tce import *", namespace)
    for name in tce.__all__:
        assert namespace[name] is getattr(tce, name)

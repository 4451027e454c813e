"""The public API: what ``cdkd.__all__`` names is what an import finds."""

import cdkd


def test_every_exported_name_resolves_and_star_import_succeeds():
    """A name left in ``__all__`` after its definition went (as ``kd_loss``
    would be) fails here rather than in a user's import."""
    assert [name for name in cdkd.__all__ if not hasattr(cdkd, name)] == []
    namespace = {}
    exec("from cdkd import *", namespace)
    assert set(cdkd.__all__) <= namespace.keys()

"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name to count its calls, for this
    test only, and returns the list that grows by one per call."""
    def patch(owner, name):
        calls = []
        orig = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls
    return patch

"""The public contract: ``greedymis.__all__`` and the engine's entry point."""

import inspect

import greedymis


def test_all_is_sorted_unique_and_resolves():
    names = greedymis.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(greedymis, name) is not None, name


def test_run_greedy_has_one_keyword_only_parameter():
    params = inspect.signature(greedymis.run_greedy).parameters.values()
    keyword_only = tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY)
    assert keyword_only == ("target",)

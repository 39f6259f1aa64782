"""Exact mode calculus and sheaf-cohomology checks for twisted chiral
differential operators on the projective line."""

__version__ = "0.1.0"


def _lru_caches() -> dict:
    """Every lru_cache of the loaded modules, by "module.name", each listed
    once under the module that defines it."""
    import sys

    return {
        f"{name[len(__name__) + 1:]}.{attr}": value
        for name, module in list(sys.modules.items()) if name.startswith(__name__ + ".")
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == name
    }


def _containers() -> dict:
    """Every module-level cache container, by "module.name": the node
    sectors each shape was glued in (``p1tcdo``) and the intern table of
    ``modespace`` with its id-keyed memos; the table also holds the keys of
    the gluing's memoized images."""
    from . import modespace, p1tcdo

    return {
        "p1tcdo._SECTORS": p1tcdo._SECTORS,
        "modespace._MONOS": modespace._MONOS,
        "modespace._IDS": modespace._IDS,
        "modespace._REACH": modespace._REACH,
        "modespace._HEADS": modespace._HEADS,
        "modespace._CREATED": modespace._CREATED,
        "modespace._CONTRACTED": modespace._CONTRACTED,
    }


def clear_caches() -> None:
    """Empty every cache of the package together: the lru_caches of its
    loaded modules and every module-level cache container, so the next
    request starts cold and no memo keeps an id of a cleared intern
    table."""
    for cache in _lru_caches().values():
        cache.cache_clear()
    for state in _containers().values():
        state.clear()


def cache_stats() -> dict:
    """A read-only snapshot of every cache: {"lru": {"module.name":
    cache_info()}} for each lru_cache of the loaded modules, and
    {"containers": {"module.name": size}} for each module-level cache
    container (the intern table of ``modespace`` among them)."""
    return {
        "lru": {name: cache.cache_info() for name, cache in _lru_caches().items()},
        "containers": {name: len(state) for name, state in _containers().items()},
    }

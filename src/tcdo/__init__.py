"""Exact mode calculus and sheaf-cohomology checks for twisted chiral
differential operators on the projective line."""

__version__ = "0.1.0"


# every lru_cache of the package by "module.name", entered where it is
# defined, so the cache hooks reach a cache whatever its module attribute is
# later bound to (a test's recorder, say); filled as the modules load, never
# by a request
_REGISTERED: dict = {}

# every module-level cache container by "module.name", entered by its own
# module beside the definitions: the node sectors each shape was glued in
# (``p1tcdo``) and the intern table of ``modespace`` with its id-keyed memos;
# the table also holds the keys of the gluing's memoized images
_CONTAINERS: dict = {}


def _registered(cache):
    """Enter the lru_cache ``cache`` in ``_REGISTERED`` and return it: the
    decorator above each ``@lru_cache`` of the package."""
    _REGISTERED[f"{cache.__module__[len(__name__) + 1:]}.{cache.__name__}"] = cache
    return cache


def _register_containers(module: str, **containers) -> None:
    """Enter the cache containers of the module named ``module`` in
    ``_CONTAINERS``, each by its name there."""
    prefix = module[len(__name__) + 1:]
    _CONTAINERS.update((f"{prefix}.{name}", state) for name, state in containers.items())


def clear_caches() -> None:
    """Empty every cache of the package together: the lru_caches of its
    loaded modules and every module-level cache container, so the next
    request starts cold and no memo keeps an id of a cleared intern
    table."""
    for cache in _REGISTERED.values():
        cache.cache_clear()
    for state in _CONTAINERS.values():
        state.clear()


def cache_stats() -> dict:
    """A read-only snapshot of every cache: {"lru": {"module.name":
    cache_info()}} for each lru_cache of the loaded modules, and
    {"containers": {"module.name": size}} for each module-level cache
    container (the intern table of ``modespace`` among them)."""
    return {
        "lru": {name: cache.cache_info() for name, cache in _REGISTERED.items()},
        "containers": {name: len(state) for name, state in _CONTAINERS.items()},
    }

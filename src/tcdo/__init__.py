"""Exact mode calculus and sheaf-cohomology checks for twisted chiral
differential operators on the projective line."""

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache of the package together: the lru_caches of its
    loaded modules and the gluing state of ``p1tcdo`` (the shared glued
    keys, the sectors each shape was glued in and the shared tables), so
    the next request starts cold and no shape is left half switched."""
    import sys

    from . import p1tcdo

    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    for state in (p1tcdo._GLUED_KEYS, p1tcdo._SECTORS, p1tcdo._SHARED):
        state.clear()

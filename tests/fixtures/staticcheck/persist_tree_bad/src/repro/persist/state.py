"""Minimal allowlist module mirroring repro/persist/state.py's shape."""

_REGISTRY = {}


def _registry():
    if not _REGISTRY:
        from ..core.widget import TaggedWidget, Widget

        for klass in (Widget, TaggedWidget):
            _REGISTRY[klass.__name__] = klass
    return _REGISTRY

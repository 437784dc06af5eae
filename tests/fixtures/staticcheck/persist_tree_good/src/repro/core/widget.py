"""Allowlisted classes satisfying the SC-PERSIST contract.

``_scale`` is derived: state_dict() reads it while building the state
tree, which counts as coverage (the flattened-representation case).
``TinyWidget`` inherits Widget's contract: it defines no ``__init__``,
``state_dict`` or ``from_state`` and declares empty ``__slots__``.
"""


class Widget:
    def __init__(self, size, salt):
        self.size = size
        self.salt = salt
        self._scale = size * 2

    def state_dict(self):
        return {
            "size": self.size,
            "salt": self.salt,
            "scale_hint": self._scale // 2,
        }

    @classmethod
    def from_state(cls, state):
        obj = cls(state["size"], state["salt"])
        obj._scale = state.get("scale_hint", obj.size) * 2
        return obj


class TinyWidget(Widget):
    __slots__ = ()
    limit = 8

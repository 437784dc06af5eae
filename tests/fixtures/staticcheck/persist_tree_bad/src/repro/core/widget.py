"""Allowlisted classes violating all three SC-PERSIST properties, plus a
subclass whose own slot the inherited contract never captures."""


class Widget:
    def __init__(self, size, salt):
        self.size = size
        self.salt = salt            # never captured by state_dict()
        self._scale = size * 2      # never captured by state_dict()

    def state_dict(self):
        return {
            "size": self.size,
            "extra": 0,             # emitted but never consumed
        }

    @classmethod
    def from_state(cls, state):
        # consumes "seed", which state_dict() never emits
        return cls(state["size"], state["seed"])


class TaggedWidget(Widget):
    __slots__ = ("tag",)        # inherited state_dict() never captures it

"""Fixture: un-slotted classes are no lint finding — ``__slots__`` is
checked on the live hot-path classes, not on source text."""


class ColdConfig:
    def __init__(self):
        self.verbose = False


class AnotherPlainClass:
    pass

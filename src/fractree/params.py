"""Parameters identifying a graph in either self-similar family."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BadParameterError


class Family(str, Enum):
    CYCLE = "cycle"
    WHEEL = "wheel"


@dataclass(frozen=True)
class FractalParams:
    """(family, n, m, i): base graph order, path length, growth stage.

    n, m and i must be plain ``int``s; a ``bool`` is refused, as it is for
    a vertex id.
    """

    family: Family
    n: int
    m: int
    i: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if type(self.n) is not int or self.n < 3:
            raise BadParameterError(f"n must be an integer >= 3, got {self.n!r}")
        if type(self.m) is not int or self.m < 2:
            raise BadParameterError(f"m must be an integer >= 2, got {self.m!r}")
        if type(self.i) is not int or self.i < 0:
            raise BadParameterError(f"stage i must be an integer >= 0, got {self.i!r}")

    def with_stage(self, i: int) -> "FractalParams":
        return FractalParams(self.family, self.n, self.m, i)

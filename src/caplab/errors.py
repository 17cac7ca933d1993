"""Exception types and the number rules shared across the package."""

import math
import operator
from dataclasses import dataclass
from typing import Optional


class CapLabError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(CapLabError, ValueError):
    """A tensor or layer dimension does not match its contract."""


class NumericsError(CapLabError, ArithmeticError):
    """A computation produced non-finite values (NaN/Inf)."""


class CsvParseError(CapLabError, ValueError):
    """A CSV file violates the expected format; message carries the line number."""


class ConfigError(CapLabError, ValueError):
    """A run configuration is malformed; message names the offending field."""


@dataclass(frozen=True)
class _Number:
    """Range rule for a finite int or float, bounded below by ``low`` (``> low``
    when ``strict``, else ``>= low``) and, if given, strictly below ``high``.
    Calling it parses a config file's or a flag's text; ``check(value, field)``
    tests a value, and its error message then begins with the field's name."""

    cast: type
    low: float = 0
    strict: bool = True
    high: Optional[float] = None

    def __call__(self, raw: str):
        try:
            value = self.cast(raw)
        except ValueError:
            noun = "an integer" if self.cast is int else "a number"
            raise ValueError(f"expected {noun}, got {raw!r}") from None
        self.check(value)
        return value

    def check(self, value, field: str = "") -> None:
        name = f"{field} " if field else ""
        if self.cast is int:
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name}must be an integer, got {value!r}") from None
        if value != value or value in (math.inf, -math.inf):
            raise ValueError(f"{name}must be finite")
        if value <= self.low if self.strict else value < self.low:
            raise ValueError(f"{name}must be {'>' if self.strict else '>='} {self.low}, got {value}")
        if self.high is not None and value >= self.high:
            raise ValueError(f"{name}must be < {self.high}, got {value}")


# config._SCHEMA gives each key one of these rules, and every library entry
# point that a key feeds (the config dataclasses, the data generators, split,
# init_mlp) checks the value with the same rule object.
_COUNT = _Number(int)  # an integer > 0
_INDEX = _Number(int, strict=False)  # an integer >= 0
_POSITIVE = _Number(float)  # a finite number > 0
_NONNEGATIVE = _Number(float, strict=False)  # a finite number >= 0
_FRACTION = _Number(float, high=1)  # a finite number in (0, 1)

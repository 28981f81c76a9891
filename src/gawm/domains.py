"""Declared domains of numeric dataclass fields: a ``bounded`` field keeps
its interval in its metadata, and building a ``Checked`` dataclass rejects
a value outside it with a ``FieldError`` naming the field."""

from __future__ import annotations

import math
from dataclasses import field, fields
from typing import NamedTuple

# The bound on every field that scales a draw: action means and spreads,
# start and evaluation noise, a perturbed model's noise and asymmetric gains,
# Dirichlet concentrations and the input-layer init gain. Tiny runs at 1e150
# still finished; at 1e154 noisy probe and GAR poses overflowed, at 1e200 the
# probe's report did, and at 1e308 so did the sums of Dirichlet variates and
# of the first layer's products.
MAX_SCALE = 1e100


class FieldError(ValueError):
    """``value`` lies outside the domain of the field ``name``."""

    def __init__(self, name: str, rule: str, value):
        super().__init__(f"{name} must be {rule}, got {value!r}")
        self.name, self.rule, self.value = name, rule, value


class Domain(NamedTuple):
    """From ``lo`` (excluded if ``strict``) to ``hi``; an infinite end is open."""

    lo: float = -math.inf
    hi: float = math.inf
    strict: bool = False

    def rule(self) -> str:
        return (f"in {'(' if self.strict or self.lo == -math.inf else '['}{self.lo!r}, "
                f"{self.hi!r}{']' if self.hi < math.inf else ')'}")

    def check(self, name: str, value) -> None:
        """Raise FieldError unless ``value`` (a tuple's every element) is in the domain or None."""
        for v in value if isinstance(value, tuple) else () if value is None else (value,):
            if not ((self.lo < v if self.strict else self.lo <= v) and v <= self.hi
                    and abs(v) < math.inf):
                raise FieldError(name, self.rule(), value)


def bounded(default, lo: float = -math.inf, hi: float = math.inf, strict: bool = False):
    """A dataclass field with ``default`` whose values lie in ``Domain(lo, hi, strict)``."""
    return field(default=default, metadata={"domain": Domain(lo, hi, strict)})


def domain(cls, name: str) -> Domain:
    """The domain that dataclass ``cls`` declares for its field ``name``."""
    return cls.__dataclass_fields__[name].metadata["domain"]


class Checked:
    """A dataclass base whose construction checks every ``bounded`` field."""

    def __post_init__(self):
        for f in fields(self):
            if "domain" in f.metadata:
                f.metadata["domain"].check(f.name, getattr(self, f.name))

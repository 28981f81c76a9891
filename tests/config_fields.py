"""The fields of a config class, walked through its nested sections, and
edits of a config dict at a dotted path."""

import types
import typing
from dataclasses import fields, is_dataclass


def config_fields(cls, path=""):
    """(dotted path, kind, domain) of every field under config class ``cls``,
    sections included: kind is "section", "array" or a scalar type, and
    domain the field's declared ``Domain``, or None."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        dotted = f"{path}.{f.name}" if path else f.name
        tp = hints[f.name]
        if isinstance(tp, types.UnionType):
            (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        if is_dataclass(tp):
            yield dotted, "section", None
            yield from config_fields(tp, dotted)
        else:
            yield dotted, "array" if typing.get_origin(tp) is tuple else tp, f.metadata.get("domain")


def edited(d: dict, section: str, key: str, value) -> dict:
    """Config dict ``d`` with ``value`` at dotted ``section`` plus ``key``."""
    target = d
    for part in filter(None, section.split(".")):
        if target.get(part) is None:  # pretrain is null in the tests' tiny configs
            target[part] = {}
        target = target[part]
    target[key] = value
    return d

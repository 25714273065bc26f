"""The scenario config schema: one table of every key, its check and its reader.

``SCHEMA`` gives each key of a scenario config, by dotted name, its JSON
type, its range, the model kinds it applies to and its default.
``check`` holds a config to the table: it rejects an unknown key (naming
the nearest known one), a key of the other model kind, a missing
required key, and a value of the wrong JSON type or out of its range.
``read`` is the one way to get a key's value or default.  No value is
truncated or coerced: a flag is a JSON boolean, an integer a JSON
integer (not a float, a boolean or a string), a number a finite JSON
number.  The rules that tie keys together are left to the loader.
"""

from __future__ import annotations

import json
import math
import operator
from typing import NamedTuple

__all__ = ["ConfigError", "Key", "KINDS", "REQUIRED", "SCHEMA", "check", "read", "entries"]

KINDS = ("cylinder", "saddle")
_CYL, _SAD = KINDS[:1], KINDS[1:]
REQUIRED = "required"


class ConfigError(ValueError):
    """Configuration file is malformed or violates a model invariant."""


class Key(NamedTuple):
    """A row of SCHEMA.

    ``type`` is a key of ``_TYPES``, or "x[]" for a list of x (nonempty
    unless x is term).  ``range`` is a tuple of the allowed values or an
    "op limit" string that the value, or each element, meets.
    ``default`` is REQUIRED, a value or a {kind: value} dict; null stands
    for a key only where its default is None.
    """

    type: str
    range: tuple | str | None = None
    kinds: tuple = KINDS
    default: object = REQUIRED


#: every config key by dotted name.  The keys of a block are the rows
#: under its name; the "term" rows are the keys of each entry of
#: model.perturbation and model.higher_terms.
SCHEMA = {
    "schema_version": Key("int", (1,)),
    "model": Key("block"),
    "model.kind": Key("text", KINDS),
    "model.orientable": Key("flag", None, _CYL, True),
    "model.action": Key("number", None, _CYL, 0.0),
    "model.energy_coeffs": Key("number[]", None, _CYL),
    "model.rate_coeffs": Key("number[]", None, _CYL),
    "model.perturbation": Key("term[]", None, _CYL, []),
    "model.energy0": Key("number", default={"cylinder": None, "saddle": 0.0}),
    "model.lambda_unstable": Key("number", "> 0", _SAD),
    "model.lambda_stable": Key("number", "> 0", _SAD),
    "model.higher_terms": Key("term[]", None, _SAD, []),
    "term.m": Key("number", None, _CYL, 0),
    "term.a": Key("int", ">= 0", _CYL, 0),
    "term.alpha": Key("int[]", ">= 0"),
    "term.beta": Key("int[]", ">= 0"),
    "term.j": Key("int", ">= 0", default=0),
    "term.re": Key("number", default=0.0),
    "term.im": Key("number", default=0.0),
    "compute": Key("block"),
    "compute.order": Key("int", ">= 2"),
    "compute.tau_order": Key("int", ">= 0", _CYL, None),
    "compute.h_values": Key("number[]", "> 0"),
    "compute.window": Key("block"),
    "compute.window.half_width": Key("number", "> 0"),
    "compute.window.depth": Key("number", "> 0"),
    "compute.basis": Key("block", default=None),
    "compute.basis.k_min": Key("int", None, _CYL),
    "compute.basis.k_max": Key("int", None, _CYL),
    "compute.basis.levels": Key("int", ">= 0", _CYL),
    "compute.basis.levels1": Key("int", ">= 0", _SAD),
    "compute.basis.levels2": Key("int", ">= 0", _SAD),
    "compute.stability_check": Key("flag", default=True),
    "compute.direct": Key("flag", default=True),
    "compute.sweep": Key("flag", default=False),
    "compute.dump_matrices": Key("flag", default=False),
    "compute.match_radius": Key("number", "> 0", default=None),
    "compute.label_cap": Key("int", ">= 0", default=3),
    "compute.k_cap": Key("int", ">= 0", _SAD, None),
    "compute.l_cap": Key("int", ">= 0", default=None),
    "output": Key("block", default=None),
    "output.directory": Key("text", default="qbnf_out"),
    "output.plot_data": Key("flag", default=True),
}

#: type: (its name in words, whether a JSON value has it)
_TYPES = {
    "flag": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("number", lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and math.isfinite(v)),
    "text": ("string", lambda v: isinstance(v, str)),
    "block": ("object", lambda v: isinstance(v, dict)),
    "term": ("object", lambda v: isinstance(v, dict)),
}
_OPS = {">": operator.gt, ">=": operator.ge}
_ADJECTIVES = {"> 0": "positive ", ">= 0": "non-negative "}


def _describe(key: Key) -> str:
    """What ``key`` accepts, in words: "a positive number", "an integer >= 2"."""
    if isinstance(key.range, tuple):
        return " or ".join(json.dumps(v) for v in key.range)
    if key.type == "flag":
        return _TYPES["flag"][0]
    item = key.type.removesuffix("[]")
    noun = _ADJECTIVES.get(key.range, "") + _TYPES[item][0]
    limit = f" {key.range}" if key.range and key.range not in _ADJECTIVES else ""
    if item != key.type:
        return f"a {'' if item == 'term' else 'nonempty '}list of {noun}s{limit}"
    return f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}{limit}"


def _fits(key: Key, v) -> bool:
    item = key.type.removesuffix("[]")
    if item == key.type:
        values = [v]
    elif isinstance(v, (list, tuple)) and (v or item == "term"):
        values = v
    else:
        return False
    return all(_TYPES[item][1](x) and _in_range(key.range, x) for x in values)


def _in_range(range_, v) -> bool:
    if isinstance(range_, tuple):
        return v in range_
    if range_ is None:
        return True
    op, limit = range_.split()
    return _OPS[op](v, float(limit))


def _default(key: Key, kind):
    return key.default.get(kind) if isinstance(key.default, dict) else key.default


def check(raw) -> None:
    """ConfigError unless the config ``raw`` holds to SCHEMA."""
    model = raw.get("model") if isinstance(raw, dict) else None
    _check("", raw, model.get("kind") if isinstance(model, dict) else None, "config")


def _check(path: str, block, kind, label: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{label} must be an object, got {json.dumps(block, default=repr)}")
    rows = {name.rpartition(".")[2]: (name, key) for name, key in SCHEMA.items()
            if name.rpartition(".")[0] == path}
    for name in block:
        if name not in rows:
            import difflib  # only a rejected config pays for the import

            near = difflib.get_close_matches(name, rows, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            raise ConfigError(f"{label}: unknown key {name!r}{hint}")
    for name, (dotted, key) in rows.items():
        applies = kind not in KINDS or kind in key.kinds  # all do until model.kind is checked
        v = block.get(name)
        if name not in block:
            if applies and key.default == REQUIRED:
                raise ConfigError(f"{label}: missing required key {name!r}")
        elif not applies:
            raise ConfigError(f"{label}: {name} is for {key.kinds[0]} models, "
                              f"not for a {kind} model")
        elif v is None and _default(key, kind) is None:
            pass
        elif not _fits(key, v):
            raise ConfigError(f"{label}: {name} must be {_describe(key)}, "
                              f"got {json.dumps(v, default=repr)}")
        elif key.type == "block":
            _check(dotted, v, kind, f"{dotted} block")
        elif key.type == "term[]":
            for i, term in enumerate(v):
                _check("term", term, kind, f"{dotted} entry {i}")


def read(block: dict, name: str, kind=None):
    """The value of the key with dotted ``name`` in ``block``, the checked
    object that holds it, or its default for a model of ``kind``.

    Numbers read as floats, so a JSON 1 and 1.0 give the same run.
    """
    key, v = SCHEMA[name], block.get(name.rpartition(".")[2])
    if v is None:
        return _default(key, kind)
    if key.type == "number":
        return float(v)
    return [float(x) for x in v] if key.type == "number[]" else v


def entries():
    """(name, what it accepts, model kinds, default) of every row, as the docs list them."""
    for name, key in SCHEMA.items():
        d = key.default
        if isinstance(d, dict):
            default = ", ".join(f"{json.dumps(v)} ({kind})" for kind, v in d.items())
        else:
            default = d if d == REQUIRED else json.dumps(d)
        yield name, _describe(key), "both" if key.kinds == KINDS else key.kinds[0], default

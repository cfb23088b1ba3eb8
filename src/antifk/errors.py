"""Exception types shared across the package, and the one reader of every
JSON block: config, potential, interaction, coupling, zero set, certificate."""

import functools
import inspect
import json

import numpy as np

__all__ = ["CertificateError", "CertificationError", "DomainError", "ConvergenceError",
           "ConvexityError", "ConfigError"]


class CertificateError(Exception):
    """A certificate is structurally unusable for the requested query
    (e.g. an anchor lookup outside the validity range of a finite zero set,
    or linearization bounds inconsistent with the certificate).

    Attributes:
        row: the first failing row of a zero-set lookup (None otherwise).
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class CertificationError(Exception):
    """Certificate estimation failed a proof or the zero check; carries a
    description of what failed."""


class DomainError(Exception):
    """A local-inverse target left the admissible ball B_rm(0).

    Attributes:
        site: lattice site at which the violation occurred (None if scalar).
        norm: norm of the offending target.
        limit: admissible radius r*m.
    """

    def __init__(self, message, site=None, norm=None, limit=None):
        super().__init__(message)
        self.site = site
        self.norm = norm
        self.limit = limit


class ConvergenceError(Exception):
    """An iteration exhausted its budget without meeting its tolerance.

    Attributes:
        trace: per-iteration step distances (may be None for scalar solves).
        row: the failing row of a local-inverse batch (None otherwise).
    """

    def __init__(self, message, trace=None, row=None):
        super().__init__(message)
        self.trace = trace
        self.row = row


class ConvexityError(Exception):
    """A coupling violated its declared convexity bounds."""


class ConfigError(ValueError):
    """A JSON block or an argument failed strict validation (unknown, missing
    or malformed key or block). Carries the offending key path in the message."""


# kind -> (check of a JSON value, what an error says the value must be)
_KINDS = {
    "int": (lambda v: type(v) is int, "an integer"),
    "number": (lambda v: type(v) in (int, float), "a number"),  # not a boolean
    "bool": (lambda v: type(v) is bool, "true or false"),
    "path": (lambda v: type(v) is str, "a string"),
    "object": (lambda v: type(v) is dict, "a JSON object"),
    "list": (lambda v: type(v) is list, "a list"),  # not walked: its reader checks the items
    "vector": (lambda v: _is("number", v) or _is("numbers", v), "a number or a list of numbers"),
    "rho": (lambda v: _is("vector", v), "a number or a list of numbers"),
    "numbers": (lambda v: type(v) is list and all(_is("number", x) for x in v),
                "a list of numbers"),
    "window": (lambda v: type(v) is list and len(v) == 2 and (
        _is("numbers", v) or all(_is("numbers", x) for x in v)),
        "a number pair [lo, hi] or a box [[lo, ...], [hi, ...]]"),
    "pairs": (lambda v: type(v) is list and all(_is("numbers", x) and len(x) == 2 for x in v),
              "a list of [lam, rho] number pairs"),
    "weights": (lambda v: type(v) is dict and all(
        k.removeprefix("-").isdecimal() and _is("number", c) for k, c in v.items()),
        "a JSON object of numbers keyed by integers"),
}


def _is(kind, value):
    return _KINDS[kind][0](value)


def _check_block(block, keys, where, required=()):
    """ConfigError unless block is a JSON object holding every key of required
    and only keys of keys, each value of its key's kind: the one key check."""
    if type(block) is not dict:
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    for key, value in block.items():
        if not _is(keys[key], value):
            name = key if where == "config" else f"{where}.{key}"
            raise ConfigError(f"{name} must be {_KINDS[keys[key]][1]}, got {json.dumps(value)}")
    for key in required:
        if key not in block:
            raise ConfigError(f"missing required key '{key}' in {where}")


def _read_block(block, tag, families, where, read={}):
    """What build makes of the JSON object block, families[block[tag]] being
    (build, keys): block's other keys, checked against keys with each
    parameter of build that has no default required (its signature sets
    every default), and passed on through read[key] where given."""
    name = block.get(tag) if type(block) is dict else None
    if not (type(name) is str and name in families):  # a JSON list is unhashable
        raise ConfigError(f"unknown {where} {tag}: {json.dumps(name)}")
    build, keys = families[name]
    kwargs = {k: v for k, v in block.items() if k != tag}
    _check_block(kwargs, keys, where, _required(build))
    return build(**{k: read[k](v) if k in read else v for k, v in kwargs.items()})


@functools.cache  # a signature costs about 15 us to build
def _required(build):
    return tuple(k for k, p in inspect.signature(build).parameters.items() if p.default is p.empty)


def _write_block(obj, tag, families):
    """obj as the JSON object that _read_block reads back: its tag (a class attribute)
    and its family's keys, arrays and numpy scalars as lists and Python numbers."""
    name = getattr(obj, tag)
    return {tag: name, **{k: np.asarray(getattr(obj, k)).tolist() for k in families[name][1]}}

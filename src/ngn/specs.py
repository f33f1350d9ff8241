"""The spec grammar ``name(key=value, ...)`` and the one table behind it.

Each table entry declares its parameters once: a default value, or a type
when the parameter is required, and beside it the `Bound` that each value
must meet, if any. Parsing, type conversion, defaults, the checks and every
error message for problem, policy and dataset specs come from these tables;
every policy is built through them (`build` or `build_spec`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objectives import (
    load_libsvm,
    make_blobs_dataset,
    make_linear_regression,
    make_logistic,
    make_nonconvex_sum,
    make_quadratic1d,
    make_two_quadratics,
)
from .stepsizes import (
    APS,
    GGN,
    NGN,
    AdaGradNorm,
    Armijo,
    Constant,
    PolyakKnownFStar,
    SPSMax,
)


class SpecError(ValueError):
    """Unparsable spec, unknown name, or unknown, missing, mistyped or out-of-bounds parameter."""


@dataclass(frozen=True)
class Bound:
    """What each value of a parameter must be: `text` says it, `holds(value)` tests one value."""

    text: str
    holds: Callable[[object], bool]


FINITE = Bound("finite", math.isfinite)  # every float parameter's
POSITIVE = Bound("positive", lambda v: v > 0)
NONNEGATIVE = Bound("nonnegative", lambda v: v >= 0)
OPEN_UNIT = Bound("in (0, 1)", lambda v: 0 < v < 1)
ABOVE_ONE = Bound("above 1", lambda v: v > 1)


def one_of(*choices: str) -> Bound:
    return Bound(f"one of {', '.join(choices)}", choices.__contains__)


@dataclass(frozen=True)
class Entry:
    build: Callable
    params: dict  # name -> default value, or its type when required; alone or (it, Bound)


def declaration(declared) -> tuple:
    """(default value or type, Bound or None) of a parameter that a table declares."""
    return declared if isinstance(declared, tuple) else (declared, None)


PROBLEMS = {
    "quadratic1d": Entry(lambda lam, xstar, fstar: make_quadratic1d(lam, xstar, fstar),
                         {"lam": float, "xstar": 0.0, "fstar": 0.0}),
    "two_quadratics": Entry(make_two_quadratics, {}),
    "linear_regression": Entry(make_linear_regression,
                               {"d": 10, "n": 40, "seed": 0, "noise_std": 0.0}),
    "logistic_blobs": Entry(
        lambda n, d, classes, seed, l2: make_logistic(make_blobs_dataset(n, d, classes, seed), l2),
        {"n": 60, "d": 5, "classes": 3, "seed": 0, "l2": 1e-4}),
    "logistic_file": Entry(lambda path, l2: make_logistic(load_libsvm(path), l2),
                           {"path": str, "l2": 1e-4}),
    "nonconvex_sum": Entry(make_nonconvex_sum, {"n": 8, "seed": 0, "eps": 0.5}),
}

# A numeric policy parameter takes one value, or an array of one value per row of a run
POLICIES = {
    "ngn": Entry(NGN, {"sigma": (float, POSITIVE),
                       "schedule": ("constant", one_of(*NGN.SCHEDULES))}),
    "ggn": Entry(GGN, {"sigma": (float, POSITIVE), "h": ("quadratic", one_of(*GGN.KINDS)),
                       "p": (2.0, ABOVE_ONE)}),
    "aps": Entry(APS, {}),
    "sps_max": Entry(SPSMax, {"c": (1.0, POSITIVE), "gamma_b": (float, POSITIVE),
                              "fstar": (0.0, NONNEGATIVE)}),
    "polyak": Entry(PolyakKnownFStar, {"fstar": (0.0, NONNEGATIVE)}),
    "adagrad_norm": Entry(AdaGradNorm, {"eta": (float, POSITIVE), "delta0": (float, POSITIVE)}),
    "constant": Entry(Constant, {"gamma": (float, POSITIVE)}),
    "armijo": Entry(Armijo, {"c1": (1e-4, OPEN_UNIT), "backtrack": (0.5, OPEN_UNIT),
                             "gamma_init": (1.0, POSITIVE)}),
}

# `ngn datagen KIND key=value ...`
DATASETS = {
    "blobs": Entry(make_blobs_dataset, {"n": 200, "d": 5, "classes": 3, "seed": 0}),
}

_CALL_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*\((.*)\)\s*$", re.DOTALL)


def parse_call(text: str) -> tuple[str, dict]:
    """Parse "name(key=value, ...)" into (name, kwargs).

    Values are floats when numeric, bare strings otherwise; no key may repeat.
    """
    m = _CALL_RE.match(text)
    if not m:
        raise SpecError(f"cannot parse call expression {text!r}")
    name, argstr = m.group(1), m.group(2).strip()
    kwargs: dict = {}
    if argstr:
        for part in argstr.split(","):
            if "=" not in part:
                raise SpecError(f"expected key=value in {part!r}")
            key, value = (s.strip() for s in part.split("=", 1))
            if key in kwargs:
                raise SpecError(f"parameter {key!r} repeats in {text!r}")
            try:
                kwargs[key] = float(value)
            except ValueError:
                kwargs[key] = value.strip("\"'")
    return name, kwargs


def build(table: dict, name: str, **given):
    """Build the object `name` names in `table` from the parameters `given`, checked
    against its declarations; a float parameter may hold one value per row (a 1-d array)."""
    if name not in table:
        raise SpecError(f"unknown name {name!r}; choose from {', '.join(table)}")
    entry = table[name]
    for key in given:
        if key not in entry.params:
            raise SpecError(f"{name}() has no parameter {key!r}; "
                            f"it takes {', '.join(entry.params) or 'none'}")
    kwargs = {}
    for key, declared in entry.params.items():
        default, bound = declaration(declared)
        required = isinstance(default, type)
        kind = default if required else type(default)
        if required and key not in given:
            raise SpecError(f"{name}() missing required parameter {key!r}")
        value = given.get(key, default)
        try:
            if np.ndim(value):  # one value per row
                if kind is not float or np.ndim(value) > 1:
                    raise ValueError(value)
                kwargs[key] = np.array(value, dtype=float)
            elif kind is int and not float(value).is_integer():
                raise ValueError(value)  # int() would truncate it silently
            else:
                kwargs[key] = kind(value)
        except (ValueError, OverflowError):
            raise SpecError(f"{name}() parameter {key!r} must be {kind.__name__}, "
                            f"got {value!r}") from None
        for test in ((FINITE,) if kind is float else ()) + ((bound,) if bound else ()):
            bad = [v for v in np.ravel(kwargs[key]).tolist() if not test.holds(v)]
            if bad:
                raise SpecError(f"{name}() parameter {key!r} must be {test.text}, "
                                f"got {bad[0]!r}")
    return entry.build(**kwargs)


def build_spec(table: dict, spec: str, **overrides):
    """Build the object `spec` names in `table`; `overrides` replace parameters."""
    name, given = parse_call(spec)
    return build(table, name, **{**given, **overrides})

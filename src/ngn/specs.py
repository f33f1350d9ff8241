"""The spec grammar ``name(key=value, ...)`` and the one table behind it.

Each table entry declares its parameters once: a default value, or a type
when the parameter is required. Parsing, type conversion, defaults and
every error message for problem and policy specs come from these tables.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

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
    """Unparsable spec, unknown name, or unknown, missing, mistyped or non-finite parameter."""


@dataclass(frozen=True)
class Entry:
    build: Callable
    params: dict  # name -> default value, or its type when required


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

POLICIES = {
    "ngn": Entry(NGN, {"sigma": float}),
    "ngn_annealed": Entry(lambda sigma0, schedule: NGN(sigma0, schedule),
                          {"sigma0": float, "schedule": "inv_sqrt"}),
    "ggn": Entry(lambda sigma, h, p: GGN(sigma, h, p),
                 {"sigma": float, "h": "quadratic", "p": 2.0}),
    "aps": Entry(APS, {}),
    "sps_max": Entry(SPSMax, {"c": 1.0, "gamma_b": float, "fstar": 0.0}),
    "polyak": Entry(lambda fstar: PolyakKnownFStar(fstar), {"fstar": 0.0}),
    "adagrad_norm": Entry(AdaGradNorm, {"eta": float, "delta0": float}),
    "constant": Entry(Constant, {"gamma": float}),
    "armijo": Entry(Armijo, {"c1": 1e-4, "backtrack": 0.5, "gamma_init": 1.0}),
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


def build_spec(table: dict, spec: str, **overrides):
    """Build the object `spec` names in `table`; `overrides` replace parameters."""
    name, given = parse_call(spec)
    if name not in table:
        raise SpecError(f"unknown name {name!r}; choose from {', '.join(table)}")
    entry = table[name]
    given.update(overrides)
    for key in given:
        if key not in entry.params:
            raise SpecError(f"{name}() has no parameter {key!r}; "
                            f"it takes {', '.join(entry.params) or 'none'}")
    kwargs = {}
    for key, declared in entry.params.items():
        required = isinstance(declared, type)
        kind = declared if required else type(declared)
        if required and key not in given:
            raise SpecError(f"{name}() missing required parameter {key!r}")
        value = given.get(key, declared)
        try:
            if kind is int and not float(value).is_integer():
                raise ValueError(value)  # int() would truncate it silently
            kwargs[key] = kind(value)
        except (ValueError, OverflowError):
            raise SpecError(f"{name}() parameter {key!r} must be {kind.__name__}, "
                            f"got {value!r}") from None
        if kind is float and not math.isfinite(kwargs[key]):
            raise SpecError(f"{name}() parameter {key!r} must be finite, got {value!r}")
    return entry.build(**kwargs)

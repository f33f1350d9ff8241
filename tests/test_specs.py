import re
from pathlib import Path

import numpy as np
import pytest

from ngn.specs import (
    DATASETS,
    POLICIES,
    PROBLEMS,
    SpecError,
    build,
    build_spec,
    declaration,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def bullet(name: str, params: dict) -> str:
    """How the README lists a table entry: required parameters bare, then each bound."""
    parts, bounds = [], []
    for key, declared in params.items():
        default, bound = declaration(declared)
        parts.append(key if isinstance(default, type) else f"{key}={default}")
        if bound is not None:
            bounds.append(f"`{key}` {bound.text}")
    return f"- `{name}({', '.join(parts)})`" + (f": {'; '.join(bounds)}" if bounds else "")


@pytest.mark.parametrize("heading,table", [("Problems", PROBLEMS), ("Policies", POLICIES),
                                           ("Datasets", DATASETS)])
def test_readme_lists_the_table(heading, table):
    section = README.read_text().split(f"\n{heading} (")[1].split("\n\n", 2)[1]
    listed = [line for line in section.splitlines() if line.startswith("- `")]
    assert len(listed) == len(table)
    for line, (name, entry) in zip(listed, table.items()):
        expected = bullet(name, entry.params)
        assert line == expected or line.startswith(expected + " ("), (line, expected)


# a value out of each bound, by the bound's text
OUT_OF_BOUNDS = {"positive": 0.0, "nonnegative": -1.0, "in (0, 1)": 1.0, "above 1": 1.0}


def test_every_bound_rejects_a_value_and_names_the_key():
    # each bounded parameter, alone out of bounds in an otherwise good spec,
    # as one value or among one value per row
    checked = 0
    for name, entry in POLICIES.items():
        good = {key: 0.5 for key, declared in entry.params.items()
                if declaration(declared)[0] is float}
        build(POLICIES, name, **good)
        for key, declared in entry.params.items():
            default, bound = declaration(declared)
            if bound is None:
                continue
            bad = OUT_OF_BOUNDS.get(bound.text, "bogus")
            message = re.escape(f"{name}() parameter {key!r} must be {bound.text}, got {bad!r}")
            with pytest.raises(SpecError, match=message):
                build(POLICIES, name, **{**good, key: bad})
            if bad != "bogus":
                ok = good.get(key, default)
                with pytest.raises(SpecError, match=message):
                    build(POLICIES, name, **{**good, key: [ok, bad]})
            checked += 1
    assert checked == 15


@pytest.mark.parametrize("spec", ["sps_max(gamma_b=1, fstar=-1)", "polyak(fstar=-1)"])
def test_fstar_is_nonnegative_for_both_polyak_policies(spec):
    name = spec.split("(")[0]
    with pytest.raises(SpecError, match=re.escape(f"{name}() parameter 'fstar' must be "
                                                  "nonnegative, got -1.0")):
        build_spec(POLICIES, spec)
    assert build_spec(POLICIES, spec.replace("-1", "0.5")).fstar == 0.5


def test_a_float_parameter_may_hold_one_value_per_row():
    policy = build_spec(POLICIES, "constant(gamma=1)", gamma=[0.1, 0.2])
    assert np.array_equal(policy.gamma, [0.1, 0.2]) and policy.row_params(2) == [(0.1,), (0.2,)]
    with pytest.raises(SpecError, match="'gamma' must be finite, got nan"):
        build_spec(POLICIES, "constant(gamma=1)", gamma=[0.1, float("nan")])
    with pytest.raises(SpecError, match="'gamma' must be float"):
        build_spec(POLICIES, "constant(gamma=1)", gamma=[[0.1, 0.2]])
    with pytest.raises(SpecError, match="'schedule' must be str"):
        build_spec(POLICIES, "ngn(sigma=1)", schedule=["inv_sqrt", "inv_linear"])


def test_defaults_types_and_overrides():
    obj = build_spec(PROBLEMS, "linear_regression(d=3.0)")
    assert (obj.dim, obj.n) == (3, 40)
    assert build_spec(POLICIES, "ngn(sigma=1)", sigma=2.5).sigma == 2.5
    with pytest.raises(SpecError, match="no parameter 'sigmaa'"):
        build_spec(POLICIES, "ngn(sigma=1)", sigmaa=2.5)
    with pytest.raises(SpecError, match="'n' must be int"):
        build_spec(PROBLEMS, "nonconvex_sum(n=many)")
    with pytest.raises(SpecError, match="'d' must be int, got 2.7"):
        build_spec(PROBLEMS, "linear_regression(d=2.7)")
    with pytest.raises(SpecError, match="'sigma' must be finite, got nan"):
        build_spec(POLICIES, "ngn(sigma=1)", sigma=float("nan"))
    with pytest.raises(SpecError, match="takes none"):
        build_spec(PROBLEMS, "two_quadratics(nn=5)")


def test_repeated_parameter_is_an_error():
    # the spec names each parameter once; an override still replaces one
    spec = "ngn(sigma=1.0, sigma=5.0)"
    with pytest.raises(SpecError, match=re.escape(f"parameter 'sigma' repeats in {spec!r}")):
        build_spec(POLICIES, spec)
    with pytest.raises(SpecError, match="'n' repeats"):
        build_spec(PROBLEMS, "nonconvex_sum(n=4, seed=1, n=4)")
    assert build_spec(POLICIES, "ngn(sigma=1.0)", sigma=5.0).sigma == 5.0

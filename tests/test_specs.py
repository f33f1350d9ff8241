import re
from pathlib import Path

import pytest

from ngn.specs import POLICIES, PROBLEMS, SpecError, build_spec

README = Path(__file__).resolve().parent.parent / "README.md"


def signature(name: str, params: dict) -> str:
    """How the README writes a table entry: required parameters bare."""
    parts = [k if isinstance(v, type) else f"{k}={v}" for k, v in params.items()]
    return f"{name}({', '.join(parts)})"


@pytest.mark.parametrize("heading,table", [("Problems", PROBLEMS), ("Policies", POLICIES)])
def test_readme_lists_the_table(heading, table):
    section = README.read_text().split(f"\n{heading} (")[1].split("\n\n", 2)[1]
    listed = re.findall(r"^- `([^`]*)`", section, re.MULTILINE)
    assert listed == [signature(name, entry.params) for name, entry in table.items()]


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

"""Property tests of the per-point closed forms n_two_level, n_scheme_a and
n_scheme_b against their definitions.

Each point classifies its regime lazily (the bracket vertex only off the
lasing branch) and clamps the bracket without calling max; both must give
exactly what the eager definitions give.  Draws cover 0, magnitudes from
1e-300 to 1e300, the exact roots of the bracket numerator (where the
bracket's sign is decided by rounding) and pumps whose bracket is nan,
which must raise a ValueError that names the pump and the record.  So must
a three-level point off the lasing branch whose no-field weights overflow.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasekit import (
    DimensionlessSchemeA,
    DimensionlessSchemeB,
    DimensionlessTwoLevel,
    n_scheme_a,
    n_scheme_b,
    n_two_level,
    raw_bracket_scheme_a,
    raw_bracket_scheme_b,
    raw_bracket_two,
)
from lasekit.steady import (
    _classify,
    _coeffs_scheme_a,
    _coeffs_scheme_b,
    _coeffs_two,
    _quadratic_roots,
    _vertex_scheme_b,
    _vertex_two,
)

# (record, n_*, raw bracket, numerator coefficients, vertex); scheme A's
# numerator is linear, so it has no upper edge: an infinite divide
MODELS = {
    "two-level": (DimensionlessTwoLevel, n_two_level, raw_bracket_two, _coeffs_two, _vertex_two),
    "scheme-A": (DimensionlessSchemeA, n_scheme_a, raw_bracket_scheme_a, _coeffs_scheme_a,
                 lambda d: math.inf),
    "scheme-B": (DimensionlessSchemeB, n_scheme_b, raw_bracket_scheme_b, _coeffs_scheme_b,
                 _vertex_scheme_b),
}

# the sum of each three-level scheme's no-field weights (rho00, rho11, rho22)
WEIGHT_SUMS = {
    "scheme-A": lambda d, pump: pump * d.decay_ratio + pump + d.decay_ratio,
    "scheme-B": lambda d, pump: d.decay_ratio + pump + pump * d.decay_ratio,
}

magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
positive = st.one_of(magnitudes, st.sampled_from([1e-300, 0.5, 1.0, 2.0, 1e300]))
non_negative = st.one_of(st.just(0.0), positive)


def bits(x: float) -> str:
    return x.hex()  # tells -0.0 from 0.0 and compares nan equal to nan


@st.composite
def points(draw, model: str):
    cls, _, _, coeffs, _ = MODELS[model]
    extra = () if cls is DimensionlessTwoLevel else (draw(non_negative),)
    d = cls(draw(positive), draw(non_negative), *extra, draw(non_negative))
    roots = [r for r in _quadratic_roots(*coeffs(d)) or () if 0.0 <= r < math.inf]
    kind = draw(st.sampled_from(["value", "root", "nan-bracket"]))
    if kind == "root" and roots:
        pump = draw(st.sampled_from(roots))
    elif kind == "nan-bracket":
        pump = draw(st.sampled_from([math.inf, math.nan]))
    else:
        pump = draw(non_negative)
    return d, pump


@pytest.mark.parametrize("model", list(MODELS))
def test_point_matches_its_eager_definition(model):
    _, evaluate, raw_bracket, _, vertex = MODELS[model]

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(points(model))
    def check(point):
        d, pump = point
        raw = raw_bracket(d, pump)
        weights = WEIGHT_SUMS.get(model)
        if math.isnan(raw) or (not raw > 0.0 and weights and weights(d, pump) == math.inf):
            with pytest.raises(ValueError, match=re.escape(f"pump={pump!r} for {d!r}")):
                evaluate(d, pump)
            return
        res = evaluate(d, pump)
        assert bits(res.raw_bracket) == bits(raw)
        assert res.regime is _classify(raw, pump, vertex(d))
        assert bits(res.photon_number) == bits(d.photon_scale * max(0.0, raw))

    check()

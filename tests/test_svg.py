"""Chart bytes: line_chart output on small fixed tables is pinned by sha256."""

import hashlib

import numpy as np
import pytest

from gamescale.svg import line_chart

# (header, rows, spec, sha256 of the SVG text)
CHARTS = {
    "markers": (
        ["n", "gap"], [(1, 0.5), (2, 0.25), (4, 0.125)], dict(x="n", ys=["gap"], markers=True),
        "c2797928d84a57821c7221d5bc527a2ee62c75bc47a0eea609bc8ad23aa2b8f5",
    ),
    "step": (
        ["p", "v"], [(0.5, 3.0), (0.75, 2.0), (1.0, 2.0)], dict(x="p", ys=["v"], step=True),
        "b06f1b9f3128199d36580df35bdd4ce66f31d826061ebc9870ca91c8d579e509",
    ),
    # rows as an ndarray, as the regression curve passes them
    "vlines_two_series": (
        ["k", "small", "large"],
        np.array([(0.0, 1.0, 2.0), (1.0, 0.5, 1.5), (2.0, 0.75, 0.25)]),
        dict(x="k", ys=["small", "large"], vlines=[(0.5, "#1f77b4"), (1.5, "#d62728")]),
        "e91ad915fdc4cfd37b04e383517fc087ff062c1b0822099fbb2a5bf705a1ddeb",
    ),
    "single_row": (
        ["x", "y"], [(0, 1.0)], dict(x="x", ys=["y"]),
        "6ac4e6bc6c1cc4d8f10302022428d97cd9f712993cdf2ab2d4fbb4805658cf6a",
    ),
}


@pytest.mark.parametrize("case", sorted(CHARTS))
def test_line_chart_bytes_are_pinned(case):
    header, rows, spec, digest = CHARTS[case]
    text = line_chart(header, rows, title="t", x_label="x", y_label="y", **spec)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# every option, alone and together, on an ndarray table and on its rows as tuples
SPECS = {
    "plain": {},
    "step": dict(step=True),
    "markers": dict(markers=True),
    "vlines": dict(vlines=[(0.25, "#1f77b4"), (1.5, "#d62728")]),
    "all": dict(step=True, markers=True, vlines=[(0.0, "#2ca02c")]),
}


@pytest.mark.parametrize("case", sorted(SPECS))
def test_line_chart_of_an_array_matches_its_rows_as_tuples(case):
    rng = np.random.default_rng(14)
    data = np.column_stack((np.sort(rng.uniform(-1.0, 2.0, 60)), rng.standard_normal((60, 2)) * 1e3))
    header, spec = ["x", "u", "v"], dict(x="x", ys=["u", "v"], title="t", x_label="x", y_label="y", **SPECS[case])
    tuples = [tuple(row) for row in data.tolist()]
    assert line_chart(header, data, **spec) == line_chart(header, tuples, **spec)

"""Golden bytes of the three SVG writers.

Each case writes one plot from small fixed inputs, the degenerate ones
included (a NaN gap, a constant series, an all-NaN series, an empty group, a
single value, a NaN-only group), and pins the sha256 of the file. A change
to the SVG format changes these hashes on purpose; README's test section
says how to regenerate them.
"""

import hashlib

import numpy as np
import pytest

from sscavi import svgplot

_LABELS = dict(title="t", xlabel="x", ylabel="y")
_NAN = float("nan")

CASES = {
    "line": lambda path: svgplot.line_plot(
        path, [0, 1, 2, 3], [1.0, -2.5, 0.25, 3.0], **_LABELS),
    "line_nan_gap": lambda path: svgplot.line_plot(
        path, [0, 1, 2, 3, 4], [1.0, _NAN, 2.0, float("inf"), 0.5], **_LABELS),
    "line_constant": lambda path: svgplot.line_plot(
        path, [0, 1, 2], [4.0, 4.0, 4.0], **_LABELS),
    "line_all_nan": lambda path: svgplot.line_plot(
        path, [0, 1], [_NAN, _NAN], **_LABELS),
    "line_overflowing_limits": lambda path: svgplot.line_plot(
        path, [0, 1], [-1e308, 1e308], **_LABELS),
    "scatter": lambda path: svgplot.scatter_plot(
        path, [(np.arange(4), [0.5, -1.0, 2.0, 0.0], "a"),
               (np.arange(4), [0.0, 1.0, _NAN, 1e-3], "b")], **_LABELS),
    "scatter_constant": lambda path: svgplot.scatter_plot(
        path, [([2, 2], [0.0, 0.0], "c")], **_LABELS),
    "box": lambda path: svgplot.box_plot(
        path, [("g0", [0.1, 0.4, 0.35, 0.2, 5.0], 1),
               ("g1", [-1.0, -0.5, -0.75, _NAN], 0)], **_LABELS),
    "box_empty_single_nan_only": lambda path: svgplot.box_plot(
        path, [("empty", [], 1), ("single", [2.0], 0), ("nan", [_NAN, _NAN], 7)],
        **_LABELS),
    "box_all_empty": lambda path: svgplot.box_plot(path, [("none", [], 0)], **_LABELS),
    "box_no_groups": lambda path: svgplot.box_plot(path, [], **_LABELS),
}

SHA256 = {
    "box": "797c54da21b41db3b15669e88796c5cb59644a04a1ca2f0e1864dd56064754d6",
    "box_all_empty": "c7b421cb55c1c7c11fb6eedbeb5077dcc942f55495d9149d106b793542bedb88",
    "box_empty_single_nan_only": "b781c02d60e4c00a58aaf4f17effccc9322a583a11597831e289db34bc496198",
    "box_no_groups": "bb22222f60b79d22ebb29dc9345615fed0a767cab0b3dd2aa64399638fed4abc",
    "line": "47eb2be99cb45bc749c1b1a5451cb06e4f8c4e9cddc658678ce37cd62b11675f",
    "line_all_nan": "007354ee239a5793e16728739a67aefbcdd92e182f7533402f3dae5965794341",
    "line_constant": "266fc35b669b13706fac1d4ac404b21750ded45424cb14b5937b2244ba9f3da9",
    "line_nan_gap": "866420b2c6c5d630e666678b4d6c91a8dbd1eb7e89a220fddb096296a5defa23",
    "line_overflowing_limits": "271bda3feefb411452b635c2915d54206a19bc90f3c94a06e4dd31ffb1651668",
    "scatter": "63c4a6b5d661a83e4717f71c4af0b80899cf17e6db5bc0451b35256ba891571e",
    "scatter_constant": "0fd2d0c3ce67f66679f990b8f0a5051019dfa01c65b47b68b8b4e0d3da7ef681",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_svg_bytes_are_pinned(tmp_path, case):
    path = tmp_path / f"{case}.svg"
    with np.errstate(invalid="ignore"):  # overflowing limits put marks at nan
        CASES[case](str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SHA256[case], f"{case} now hashes to {digest}"

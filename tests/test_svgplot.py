"""render_svg: the checks on its sizes and on the breakpoints it draws."""

import re

import numpy as np
import pytest

from segscan import render_svg, validate_breakpoints, validate_signal
from segscan.exceptions import BadParamError, MismatchedLengthError

SIGNAL = validate_signal(np.arange(20.0).reshape(10, 2))
SEGMENTATION = validate_breakpoints((4, 10), 10)


@pytest.mark.parametrize(
    "size",
    [
        {"width": 0},
        {"width": 58},
        {"width": -900},
        {"width": 30, "panel_height": -5},
        {"panel_height": 0},
        {"panel_height": -1},
        {"width": 900.5},
        {"width": "900"},
        {"panel_height": True},
    ],
    ids=repr,
)
def test_render_svg_refuses_sizes_that_leave_no_plot_area(size):
    with pytest.raises(BadParamError):
        render_svg(SIGNAL, SEGMENTATION, **size)


def test_render_svg_takes_the_smallest_plot_area():
    markup = render_svg(SIGNAL, SEGMENTATION, width=np.int64(59), panel_height=1)
    assert 'width="59"' in markup
    assert re.search(r"(?<![A-Z])-\d", markup) is None  # no negative coordinate or size


def test_render_svg_refuses_breakpoints_of_another_length():
    other = validate_breakpoints((4, 20), 20)
    with pytest.raises(MismatchedLengthError):
        render_svg(SIGNAL, other)
    with pytest.raises(MismatchedLengthError):
        render_svg(SIGNAL, SEGMENTATION, truth=other)


def test_render_svg_draws_a_constant_column_across_the_middle_of_its_panel():
    """A column with no spread gets a unit span centred on its value, so its
    line runs halfway down the panel instead of dividing by zero."""
    signal = validate_signal(np.column_stack([np.full(10, 3.0), np.arange(10.0)]))
    markup = render_svg(signal, SEGMENTATION, width=900, panel_height=100)
    first = re.search(r'<g class="panel" data-dim="0">.*?points="([^"]*)"', markup, re.S)
    heights = {point.split(",")[1] for point in first.group(1).split()}
    assert heights == {"62.00"}  # the top margin, 12, plus half of 100


def test_render_svg_marks_each_internal_truth_end_once():
    truth = validate_breakpoints((3, 7, 10), 10)
    markup = render_svg(SIGNAL, SEGMENTATION, truth=truth, width=158, panel_height=50)
    lines = re.findall(r'<line x1="([\d.]+)" y1="12.00" x2="\1" y2="126.00"', markup)
    # 100 plot pixels from x = 46: the ends 3 and 7 of 10 samples; two 50
    # pixel panels and a 14 pixel gap under the 12 pixel top margin end at 126
    assert lines == ["76.00", "116.00"]
    assert markup.count('<g class="truth">') == 1
    assert '<g class="truth">' not in render_svg(
        SIGNAL, SEGMENTATION, truth=validate_breakpoints((10,), 10)
    )

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

"""svg.line_plot bytes, one render per branch, against recorded digests.

The benchmark digests pin only the plots its workloads draw. These cases
pin the branches they do not reach: labels present and absent, linear and
log axes, flat axes past 2**53 and at the float maximum, a palette that
wraps, and titles holding markup or non-ASCII characters. A change meant
to move plot bytes re-records the digests and says so.
"""

import hashlib
import math
import re
import sys

import pytest

from qdds.svg import line_plot

LABELS = dict(title="run", x_label="iteration", y_label="best cost")
XS = [1, 2, 3, 5, 8, 13]
YS = [4.5, 2.25, 1.0, 0.3, 0.07, 0.0125]

CASES = {
    "labels-linear": ([(XS, YS), (XS, [y * 1.5 for y in YS])], LABELS),
    "bare-linear": ([(XS, [-y for y in YS])], {}),
    "labels-log": ([(XS, YS)], dict(LABELS, log_y=True)),
    "flat-past-2-53": ([([1, 2, 3], [2.0**60] * 3)], {}),
    "flat-log-float-max": ([([1, 2], [1.7e308] * 2)], dict(log_y=True)),
    "flat-tiny": ([([0, 1], [5e-324] * 2)], {}),
    "palette-wraps": (
        [(XS, [math.sin(i + x) for x in XS]) for i in range(12)],
        dict(title="twelve"),
    ),
    "markup-title": ([(XS, YS)], dict(title='a < b & "c" > d', y_label="<dB>")),
    "non-ascii-title": ([(XS, YS)], dict(title="café Δ² ≤ 1", log_y=True)),
}

DIGESTS = {
    "labels-linear": "322d544d34247cbdb329f8eff040a7c149575c90bdd00c7c0c073fef24977f33",
    "bare-linear": "33c8ce4fed01e878ba3e3868aa1c7efcb4b17ef6455a10f435236ae2a650e546",
    "labels-log": "4535c364fd98436b6cefa384fe4913a92285d9b25517c9dfd90b724f58c79148",
    "flat-past-2-53": "49cf851a0ed136cd6b290ebe79f51614a8551bf40282105c16a9e312cbc40100",
    "flat-log-float-max": "fd24e2ab5bc75dd0a59465663c489cc8a79a91cd45744e82c74dea58617d762a",
    "flat-tiny": "6a53d24f6f1f081af67465dd76f623e80c8dd3cddd9a00c047496ffe9639f671",
    "palette-wraps": "e335b08783d072f48bc7c5128dd7565d9d5b44ee604a3690299fde132f4c5265",
    "markup-title": "988b4d768f52344992b175aac69c48324b2924738863e276279d34d098021f0f",
    "non-ascii-title": "3ea312b846b0f08ba65ef84a0535628d00302ed8a875d321c0a729ddc0e76624",
}


@pytest.mark.parametrize("case", CASES)
def test_line_plot_bytes_unchanged(case):
    series, kwargs = CASES[case]
    text = line_plot(series, **kwargs)
    assert text.isascii()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[case]


@pytest.mark.parametrize(
    "value",
    [
        3.0, 5e-324, 1e17, 2.0**52 + 1, 2.0**60, -(2.0**60),
        sys.float_info.max, -sys.float_info.max,
    ],
    ids=["3", "5e-324", "1e17", "2**52+1", "2**60", "-2**60", "float-max", "-float-max"],
)
def test_flat_axis_ticks_distinct(value):
    # a flat axis is padded so that its five quarter-span ticks land on five pixels
    text = line_plot([([1, 2, 3], [value] * 3)])
    y_ticks = re.findall(r'<line x1="59" y1="([^"]+)"', text)
    assert len(y_ticks) == 5
    assert len(set(y_ticks)) == 5

"""Property: a capture exported to JSON lines re-imports *exactly*.

Span ids are assigned depth-first at export and parents refer to earlier
ids, so a one-pass reader rebuilds the original trees; floats survive at
``repr`` precision and attributes are sanitized at record time.  Together
those make the round trip an equality, not an approximation — which is
what hypothesis checks here, against arbitrary span forests and metric
mixes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ReproError
from repro.obs.capture import Capture
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span

names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                           whitelist_characters="._-"),
    min_size=1, max_size=20)
floats = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e9, max_value=1e9)
attr_values = st.one_of(
    st.none(), st.booleans(), st.integers(-10**9, 10**9), floats, names)
attributes = st.dictionaries(names, attr_values, max_size=4)


@st.composite
def spans(draw, depth=0):
    span = Span(draw(names), start=draw(floats), end=draw(floats),
                attributes=draw(attributes))
    if depth < 3:
        span.children = draw(st.lists(spans(depth=depth + 1), max_size=3))
    return span


@st.composite
def registries(draw):
    registry = MetricsRegistry()
    labels = st.dictionaries(st.sampled_from(["link", "kind", "host"]),
                             names, max_size=2)
    for name in draw(st.lists(names, max_size=4, unique=True)):
        registry.counter(name, **draw(labels)).inc(
            draw(st.floats(min_value=0, max_value=1e9)))
    for name in draw(st.lists(names, max_size=3, unique=True)):
        gauge = registry.gauge("g." + name)
        for value in draw(st.lists(floats, max_size=4)):
            gauge.set(value)
    for name in draw(st.lists(names, max_size=2, unique=True)):
        hist = registry.histogram("h." + name)
        for value in draw(st.lists(floats, max_size=5)):
            hist.observe(value)
    return registry


@settings(max_examples=60, deadline=None)
@given(metrics=registries(), roots=st.lists(spans(), max_size=4),
       label=names | st.just(""))
def test_capture_round_trips_exactly(metrics, roots, label):
    capture = Capture(metrics, roots, label)
    text = capture.dumps()
    rebuilt = Capture.loads(text)
    assert rebuilt.label == capture.label
    assert rebuilt.metrics.to_lines() == capture.metrics.to_lines()
    assert rebuilt.spans == capture.spans  # dataclass equality, recursive
    # And the rebuilt capture serializes to the same bytes.
    assert rebuilt.dumps() == text


class TestMalformedCaptures:
    def test_bad_json_rejected(self):
        with pytest.raises(ReproError, match="invalid JSON"):
            Capture.loads('{"type": "meta", broken\n')

    @pytest.mark.parametrize("line", [
        '[1, 2]',
        '{"type": "span", "id": 0, "start": 0.0, "end": 1.0}',
        '{"type": "counter"}',
        '{"type": "histogram", "name": "x"}',
    ], ids=["not-an-object", "span-without-name", "bare-counter",
            "histogram-without-buckets"])
    def test_malformed_line_rejected_with_line_number(self, line):
        text = '{"type": "meta", "version": 1, "label": ""}\n' + line + "\n"
        with pytest.raises(ReproError, match="capture line 2"):
            Capture.loads(text)

    def test_unknown_version_rejected(self):
        with pytest.raises(ReproError, match="version"):
            Capture.loads('{"type": "meta", "version": 99, "label": ""}\n')

    def test_unknown_line_type_rejected(self):
        with pytest.raises(ReproError, match="unknown type"):
            Capture.loads('{"type": "mystery"}\n')

    def test_forward_parent_reference_rejected(self):
        line = ('{"type": "span", "id": 0, "parent": 7, "name": "x", '
                '"start": 0.0, "end": 1.0, "attrs": {}}')
        with pytest.raises(ReproError, match="parent"):
            Capture.loads(line + "\n")

    def test_blank_lines_ignored(self):
        capture = Capture.loads(
            '{"type": "meta", "version": 1, "label": "ok"}\n\n\n')
        assert capture.label == "ok"

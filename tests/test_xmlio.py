"""XML infrastructure tests."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import XmlError
from repro.xmlio import (
    child,
    children,
    element,
    optional_child,
    parse_document,
    pretty_xml,
    read_attr,
    read_bool_attr,
    read_float_attr,
    read_int_attr,
    read_optional_attr,
    subelement,
    text_of,
    to_bytes,
    to_string,
)


# Text with everything the writer must escape or encode: markup
# characters, quotes, newlines and tabs (escaped in attributes only),
# non-ASCII, astral code points, and lone surrogates (which UTF-8 cannot
# encode, so the stdlib falls back to a character reference).
_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("<>&\"' \n\t\r"),
        st.characters(min_codepoint=0x20, max_codepoint=0x2FFF),
        st.characters(min_codepoint=0x1F300, max_codepoint=0x1F64F),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    ),
    max_size=12,
)
_names = st.sampled_from(["a", "b", "soapenv:Body", "value", "état"])


@st.composite
def _trees(draw, depth=3):
    node = ET.Element(draw(_names))
    for name in draw(st.lists(_names, max_size=3, unique=True)):
        node.set(name, draw(_text))
    node.text = draw(st.none() | _text)  # None and no children: <a />
    if depth:
        for _ in range(draw(st.integers(0, 3))):
            sub = draw(_trees(depth - 1))
            sub.tail = draw(st.none() | _text)
            node.append(sub)
    return node


class TestWriting:
    def test_element_with_attrs(self):
        node = element("state", {"id": "s1", "count": 3, "flag": True})
        assert node.get("id") == "s1"
        assert node.get("count") == "3"
        assert node.get("flag") == "true"

    def test_false_attr_stringified(self):
        node = element("x", {"flag": False})
        assert node.get("flag") == "false"

    def test_none_attrs_skipped(self):
        node = element("x", {"a": None, "b": "1"})
        assert node.get("a") is None
        assert node.get("b") == "1"

    def test_subelement_appends(self):
        parent = element("p")
        sub = subelement(parent, "c", text="hello")
        assert list(parent) == [sub]
        assert sub.text == "hello"

    def test_to_string_compact(self):
        node = element("a")
        subelement(node, "b")
        assert to_string(node) == "<a><b /></a>"

    def test_to_bytes_has_declaration(self):
        data = to_bytes(element("doc"))
        assert data.startswith(b"<?xml")

    @settings(max_examples=200, deadline=None)
    @given(_trees())
    def test_to_bytes_is_the_stdlib_utf8_rendering(self, node):
        """``to_bytes`` skips the stdlib's stream wrapper, not its bytes."""
        assert to_bytes(node) == ET.tostring(
            node, encoding="utf-8", xml_declaration=True
        )

    def test_pretty_xml_is_indented(self):
        node = element("a")
        subelement(node, "b")
        rendered = pretty_xml(node)
        assert "\n  <b" in rendered

    def test_pretty_xml_reparses_equal_structure(self):
        node = element("a", {"x": "1"})
        subelement(node, "b", text="t")
        reparsed = parse_document(pretty_xml(node))
        assert reparsed.get("x") == "1"
        assert text_of(child(reparsed, "b")) == "t"


class TestParsing:
    def test_parse_text(self):
        assert parse_document("<a/>").tag == "a"

    def test_parse_bytes(self):
        assert parse_document(b"<a/>").tag == "a"

    def test_malformed_raises_xml_error(self):
        with pytest.raises(XmlError):
            parse_document("<a><b></a>")

    def test_child_found(self):
        node = parse_document("<a><b/></a>")
        assert child(node, "b").tag == "b"

    def test_child_missing_raises(self):
        with pytest.raises(XmlError, match="missing required child"):
            child(parse_document("<a/>"), "b")

    def test_optional_child(self):
        node = parse_document("<a><b/></a>")
        assert optional_child(node, "b") is not None
        assert optional_child(node, "c") is None

    def test_children_iterates_in_order(self):
        node = parse_document("<a><b i='1'/><c/><b i='2'/></a>")
        assert [b.get("i") for b in children(node, "b")] == ["1", "2"]


class TestAttributeReaders:
    def setup_method(self):
        self.node = parse_document(
            "<x s='hello' i='42' f='2.5' t='true' n='no'/>"
        )

    def test_read_attr(self):
        assert read_attr(self.node, "s") == "hello"

    def test_read_attr_missing_raises(self):
        with pytest.raises(XmlError):
            read_attr(self.node, "missing")

    def test_read_optional_attr(self):
        assert read_optional_attr(self.node, "missing", "d") == "d"

    def test_read_int(self):
        assert read_int_attr(self.node, "i") == 42

    def test_read_int_default(self):
        assert read_int_attr(self.node, "missing", default=7) == 7

    def test_read_int_bad_value_raises(self):
        with pytest.raises(XmlError):
            read_int_attr(self.node, "s")

    def test_read_int_missing_no_default_raises(self):
        with pytest.raises(XmlError):
            read_int_attr(self.node, "missing")

    def test_read_float(self):
        assert read_float_attr(self.node, "f") == 2.5

    def test_read_float_accepts_int_text(self):
        assert read_float_attr(self.node, "i") == 42.0

    def test_read_float_bad_raises(self):
        with pytest.raises(XmlError):
            read_float_attr(self.node, "s")

    def test_read_bool_true_variants(self):
        for raw in ("true", "1", "yes"):
            node = parse_document(f"<x b='{raw}'/>")
            assert read_bool_attr(node, "b") is True

    def test_read_bool_false_variants(self):
        for raw in ("false", "0", "no"):
            node = parse_document(f"<x b='{raw}'/>")
            assert read_bool_attr(node, "b") is False

    def test_read_bool_bad_raises(self):
        with pytest.raises(XmlError):
            read_bool_attr(self.node, "s")

    def test_read_bool_default(self):
        assert read_bool_attr(self.node, "missing", default=True) is True

    def test_text_of_strips(self):
        node = parse_document("<a>  hi  </a>")
        assert text_of(node) == "hi"

    def test_text_of_empty(self):
        assert text_of(parse_document("<a/>")) == ""

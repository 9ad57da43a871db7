"""Helpers for building and rendering XML documents."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Mapping, Optional


_XML_DECLARATION = b"<?xml version='1.0' encoding='utf-8'?>\n"


def _stringify(value: Any) -> str:
    """Render an attribute value the way our readers expect to parse it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def element(
    tag: str,
    attrs: Optional[Mapping[str, Any]] = None,
    text: Optional[str] = None,
) -> ET.Element:
    """Create an element with stringified attributes and optional text."""
    node = ET.Element(tag)
    if attrs:
        for key, value in attrs.items():
            if value is None:
                continue
            node.set(key, _stringify(value))
    if text is not None:
        node.text = text
    return node


def subelement(
    parent: ET.Element,
    tag: str,
    attrs: Optional[Mapping[str, Any]] = None,
    text: Optional[str] = None,
) -> ET.Element:
    """Create a child element under ``parent``; same contract as element."""
    node = element(tag, attrs, text)
    parent.append(node)
    return node


def _indent(node: ET.Element, level: int = 0) -> None:
    pad = "\n" + "  " * level
    if len(node):
        if not node.text or not node.text.strip():
            node.text = pad + "  "
        for sub in node:
            _indent(sub, level + 1)
            if not sub.tail or not sub.tail.strip():
                sub.tail = pad + "  "
        last = node[-1]
        if not last.tail or not last.tail.strip():
            last.tail = pad
    elif level and (not node.tail or not node.tail.strip()):
        node.tail = pad


def pretty_xml(node: ET.Element) -> str:
    """Render ``node`` as an indented, human-readable XML string.

    The service editor in the demo shows the generated XML document in a
    panel (Figure 2); this is the renderer behind that view.
    """
    clone = ET.fromstring(ET.tostring(node, encoding="unicode"))
    _indent(clone)
    return ET.tostring(clone, encoding="unicode")


def to_string(node: ET.Element) -> str:
    """Render ``node`` compactly (no added whitespace)."""
    return ET.tostring(node, encoding="unicode")


def to_bytes(node: ET.Element) -> bytes:
    """Render ``node`` as UTF-8 bytes with an XML declaration.

    This is the on-the-wire form carried by the transport layer, matching
    the original platform's "XML documents over sockets" design.
    """
    # Byte-for-byte what ET.tostring(node, encoding="utf-8",
    # xml_declaration=True) returns, without its per-call TextIOWrapper.
    return _XML_DECLARATION + ET.tostring(node, encoding="unicode").encode(
        "utf-8", "xmlcharrefreplace"
    )

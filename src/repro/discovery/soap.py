"""SOAP 1.1-style envelopes and a registry-side dispatcher.

Every registry interaction goes through :class:`SoapClient.call`, which
*really* serialises the request to XML bytes and parses the response back,
so the XML encode/decode path the original platform exercised on every
UDDI operation is exercised here too.

The body encoding maps Python values to a small XML vocabulary::

    <value type="string|int|float|boolean|null">text</value>
    <record> <field name="...">value...</field> ... </record>
    <list> value... </list>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.exceptions import SoapFault, XmlError
from repro.xmlio import element, parse_document, subelement, to_bytes

SOAP_ENV = "soapenv"


def _encode_value(parent: ET.Element, value: Any) -> None:
    if value is None:
        subelement(parent, "value", {"type": "null"})
    elif isinstance(value, bool):
        subelement(parent, "value", {"type": "boolean"},
                   text="true" if value else "false")
    elif isinstance(value, int):
        subelement(parent, "value", {"type": "int"}, text=str(value))
    elif isinstance(value, float):
        subelement(parent, "value", {"type": "float"}, text=repr(value))
    elif isinstance(value, str):
        subelement(parent, "value", {"type": "string"}, text=value)
    elif isinstance(value, Mapping):
        record = subelement(parent, "record")
        for key, item in value.items():
            field_node = subelement(record, "field", {"name": str(key)})
            _encode_value(field_node, item)
    elif isinstance(value, (list, tuple)):
        list_node = subelement(parent, "list")
        for item in value:
            _encode_value(list_node, item)
    else:
        raise XmlError(
            f"cannot SOAP-encode value of type {type(value).__name__}"
        )


def _decode_value(node: ET.Element) -> Any:
    if node.tag == "value":
        vtype = node.get("type", "string")
        text = node.text or ""
        if vtype == "null":
            return None
        if vtype == "boolean":
            return text.strip() == "true"
        if vtype == "int":
            return int(text)
        if vtype == "float":
            return float(text)
        if vtype == "string":
            return text
        raise XmlError(f"unknown SOAP value type {vtype!r}")
    if node.tag == "record":
        result: Dict[str, Any] = {}
        for field_node in node.findall("field"):
            name = field_node.get("name")
            if name is None:
                raise XmlError("<field> is missing its name")
            children = list(field_node)
            if len(children) != 1:
                raise XmlError(f"<field name={name!r}> must hold one value")
            result[name] = _decode_value(children[0])
        return result
    if node.tag == "list":
        return [_decode_value(child) for child in node]
    raise XmlError(f"unexpected SOAP body element <{node.tag}>")


@dataclass
class SoapEnvelope:
    """A SOAP message: an operation name plus a payload mapping."""

    operation: str
    payload: Dict[str, Any] = field(default_factory=dict)
    is_fault: bool = False
    faultcode: str = ""
    faultstring: str = ""

    def to_bytes(self) -> bytes:
        """Encode as an XML document (UTF-8, with declaration)."""
        envelope = element(f"{SOAP_ENV}:Envelope", {
            f"xmlns:{SOAP_ENV}": "http://schemas.xmlsoap.org/soap/envelope/",
        })
        body = subelement(envelope, f"{SOAP_ENV}:Body")
        if self.is_fault:
            fault = subelement(body, f"{SOAP_ENV}:Fault")
            subelement(fault, "faultcode", text=self.faultcode)
            subelement(fault, "faultstring", text=self.faultstring)
        else:
            call = subelement(body, "call", {"operation": self.operation})
            _encode_value(call, dict(self.payload))
        return to_bytes(envelope)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SoapEnvelope":
        # ElementTree expands declared prefixes to {uri}Tag form on parse.
        ns = "{http://schemas.xmlsoap.org/soap/envelope/}"
        root = parse_document(data)
        if root.tag not in (f"{SOAP_ENV}:Envelope", f"{ns}Envelope"):
            raise XmlError(f"not a SOAP envelope: <{root.tag}>")
        body = root.find(f"{ns}Body")
        if body is None:
            body = root.find(f"{SOAP_ENV}:Body")
        if body is None:
            raise XmlError("SOAP envelope has no Body")
        fault = body.find(f"{ns}Fault")
        if fault is None:
            fault = body.find(f"{SOAP_ENV}:Fault")
        if fault is not None:
            code_node = fault.find("faultcode")
            string_node = fault.find("faultstring")
            return cls(
                operation="",
                is_fault=True,
                faultcode=(code_node.text or "") if code_node is not None
                else "soapenv:Server",
                faultstring=(string_node.text or "")
                if string_node is not None else "",
            )
        call = body.find("call")
        if call is None:
            raise XmlError("SOAP body holds neither <call> nor Fault")
        operation = call.get("operation")
        if operation is None:
            raise XmlError("SOAP <call> is missing its operation")
        children = list(call)
        if len(children) != 1:
            raise XmlError("SOAP <call> must hold exactly one payload value")
        payload = _decode_value(children[0])
        if not isinstance(payload, dict):
            raise XmlError("SOAP payload must be a record")
        return cls(operation=operation, payload=payload)


SoapHandler = Callable[[Dict[str, Any]], Dict[str, Any]]


class SoapServer:
    """Dispatches SOAP calls to named handlers (the registry's HTTP side)."""

    def __init__(self, name: str = "soap-server") -> None:
        self.name = name
        self._handlers: Dict[str, SoapHandler] = {}
        self.calls_served = 0
        #: Response bytes returned, faults included.
        self.bytes_served = 0

    def expose(self, operation: str, handler: SoapHandler) -> None:
        self._handlers[operation] = handler

    def handle(self, request_bytes: bytes) -> bytes:
        """Process one encoded request; always returns an encoded response."""
        response_bytes = self._respond(request_bytes)
        self.bytes_served += len(response_bytes)
        return response_bytes

    def _respond(self, request_bytes: bytes) -> bytes:
        try:
            request = SoapEnvelope.from_bytes(request_bytes)
            handler = self._handlers.get(request.operation)
            if handler is None:
                raise SoapFault(
                    "soapenv:Client",
                    f"unknown operation {request.operation!r}",
                )
            self.calls_served += 1
            result = handler(request.payload)
            return SoapEnvelope(
                operation=f"{request.operation}Response",
                payload=result or {},
            ).to_bytes()
        except SoapFault as fault:
            return SoapEnvelope(
                operation="", is_fault=True,
                faultcode=fault.faultcode, faultstring=fault.faultstring,
            ).to_bytes()
        except XmlError as exc:
            return SoapEnvelope(
                operation="", is_fault=True,
                faultcode="soapenv:Client", faultstring=str(exc),
            ).to_bytes()
        except Exception as exc:  # noqa: BLE001 - server boundary
            return SoapEnvelope(
                operation="", is_fault=True,
                faultcode="soapenv:Server", faultstring=str(exc),
            ).to_bytes()


class SoapClient:
    """Client side: encodes a call, ships bytes, decodes the response."""

    def __init__(self, server: SoapServer) -> None:
        self._server = server
        self.calls_made = 0
        #: Encoded request / response sizes, summed over every call.
        self.bytes_sent = 0
        self.bytes_received = 0

    def call(
        self, operation: str, payload: Optional[Mapping[str, Any]] = None
    ) -> "Dict[str, Any]":
        """Perform one SOAP call; raises :class:`SoapFault` on fault."""
        self.calls_made += 1
        request = SoapEnvelope(operation=operation,
                               payload=dict(payload or {}))
        request_bytes = request.to_bytes()
        self.bytes_sent += len(request_bytes)
        response_bytes = self._server.handle(request_bytes)
        self.bytes_received += len(response_bytes)
        response = SoapEnvelope.from_bytes(response_bytes)
        if response.is_fault:
            raise SoapFault(response.faultcode, response.faultstring)
        return response.payload

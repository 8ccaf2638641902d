"""xADL-style XML (de)serialization of deployment architectures.

Section 4.3: "Some properties are known at design time (e.g., initial
deployment of the system, available memory on each host, etc.), and can be
captured in architectural description of the system.  To this end, DeSi has
been integrated with xADL 2.0, an extensible architecture description
language."

We emit a compact xADL-flavored schema (``deploymentArchitecture`` root
with ``host``/``component``/``physicalLink``/``logicalLink``/``deployment``
/``constraint`` elements) using the standard library's ElementTree; the
round trip preserves every explicitly-set parameter, the deployment map,
and location/collocation constraints.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Dict, Optional

from repro.core.constraints import (
    CollocationConstraint, LocationConstraint,
)
from repro.core.errors import SerializationError, XadlError
from repro.core.model import DeploymentModel

_ROOT_TAG = "deploymentArchitecture"


def _params_to_xml(element: ET.Element, params: Dict[str, Any]) -> None:
    for name, value in sorted(params.items()):
        child = ET.SubElement(element, "param")
        child.set("name", name)
        child.set("value", repr(value))
        child.set("type", type(value).__name__)


def _params_from_xml(element: ET.Element) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for child in element.findall("param"):
        name = child.get("name")
        raw = child.get("value")
        kind = child.get("type")
        if name is None or raw is None:
            raise SerializationError("param element missing name/value")
        if kind == "bool":
            out[name] = raw == "True"
        elif kind in ("int", "float"):
            try:
                out[name] = int(raw) if kind == "int" else float(raw)
            except ValueError:
                raise XadlError(
                    f"param {name!r} of {_describe(element)} has invalid "
                    f"{kind} value {raw!r}") from None
        else:
            out[name] = raw.strip("'\"")
    return out


def _describe(element: ET.Element) -> str:
    """``<tag attr='value' ...>`` naming *element* in error messages."""
    attrs = "".join(f" {key}={value!r}"
                    for key, value in sorted(element.attrib.items()))
    return f"<{element.tag}{attrs}>"


def to_xml(model: DeploymentModel) -> str:
    """Serialize *model* (explicit parameters only) to an xADL-style string."""
    root = ET.Element(_ROOT_TAG)
    root.set("name", model.name)
    for host in model.hosts:
        element = ET.SubElement(root, "host")
        element.set("id", host.id)
        _params_to_xml(element, host.params.explicit())
    for component in model.components:
        element = ET.SubElement(root, "component")
        element.set("id", component.id)
        _params_to_xml(element, component.params.explicit())
    for link in model.physical_links:
        element = ET.SubElement(root, "physicalLink")
        element.set("hostA", link.hosts[0])
        element.set("hostB", link.hosts[1])
        _params_to_xml(element, link.params.explicit())
    for link in model.logical_links:
        element = ET.SubElement(root, "logicalLink")
        element.set("componentA", link.components[0])
        element.set("componentB", link.components[1])
        _params_to_xml(element, link.params.explicit())
    for component_id, host_id in sorted(model.deployment.items()):
        element = ET.SubElement(root, "deployment")
        element.set("component", component_id)
        element.set("host", host_id)
    for constraint in model.constraints:
        element = _constraint_to_xml(constraint)
        if element is not None:
            root.append(element)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def _constraint_to_xml(constraint: Any) -> Optional[ET.Element]:
    if isinstance(constraint, LocationConstraint):
        element = ET.Element("constraint")
        element.set("kind", "location")
        element.set("component", constraint.component)
        if constraint.allowed is not None:
            element.set("allowed", ",".join(sorted(constraint.allowed)))
        else:
            element.set("forbidden",
                        ",".join(sorted(constraint.forbidden or ())))
        return element
    if isinstance(constraint, CollocationConstraint):
        element = ET.Element("constraint")
        element.set("kind", "collocation")
        element.set("components", ",".join(constraint.components))
        element.set("together", "true" if constraint.together else "false")
        return element
    return None  # resource constraints are structural, not per-entity


def from_xml(text: str) -> DeploymentModel:
    """Parse an xADL-style document back into a :class:`DeploymentModel`.

    Documents whose link or deployment elements reference undeclared
    hosts/components are rejected with :class:`XadlError` *before* any
    model construction — a dangling reference means the document is wrong,
    and half-built models must never reach algorithms or effectors.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SerializationError(f"malformed xADL document: {exc}") from exc
    if root.tag != _ROOT_TAG:
        raise SerializationError(
            f"expected root <{_ROOT_TAG}>, got <{root.tag}>")
    _validate_references(root)
    model = DeploymentModel(name=root.get("name") or "imported")
    for element in root.findall("host"):
        model.add_host(element.get("id"), **_params_from_xml(element))
    for element in root.findall("component"):
        model.add_component(element.get("id"), **_params_from_xml(element))
    for element in root.findall("physicalLink"):
        model.connect_hosts(element.get("hostA"), element.get("hostB"),
                            **_params_from_xml(element))
    for element in root.findall("logicalLink"):
        model.connect_components(element.get("componentA"),
                                 element.get("componentB"),
                                 **_params_from_xml(element))
    for element in root.findall("deployment"):
        model.deploy(element.get("component"), element.get("host"))
    for element in root.findall("constraint"):
        model.constraints.append(_constraint_from_xml(element))
    return model


def _validate_references(root: ET.Element) -> None:
    """Raise :class:`XadlError` on undeclared or missing entity references."""
    hosts = _collect_ids(root, "host")
    components = _collect_ids(root, "component")
    for element in root.findall("physicalLink"):
        for attr in ("hostA", "hostB"):
            host_id = element.get(attr)
            if host_id is None:
                raise XadlError(f"<physicalLink> is missing its {attr} "
                                "attribute")
            if host_id not in hosts:
                raise XadlError(
                    f"physical link endpoint references undeclared host "
                    f"{host_id!r}")
    for element in root.findall("logicalLink"):
        for attr in ("componentA", "componentB"):
            component_id = element.get(attr)
            if component_id is None:
                raise XadlError(f"<logicalLink> is missing its {attr} "
                                "attribute")
            if component_id not in components:
                raise XadlError(
                    f"logical link endpoint references undeclared "
                    f"component {component_id!r}")
    for element in root.findall("deployment"):
        component_id = element.get("component")
        host_id = element.get("host")
        if component_id is None or host_id is None:
            raise XadlError("<deployment> needs component and host "
                            "attributes")
        if component_id not in components:
            raise XadlError(f"deployment references undeclared component "
                            f"{component_id!r}")
        if host_id not in hosts:
            raise XadlError(f"deployment places {component_id!r} on "
                            f"undeclared host {host_id!r}")


def _collect_ids(root: ET.Element, tag: str) -> set:
    out = set()
    for element in root.findall(tag):
        identifier = element.get("id")
        if identifier is None:
            raise XadlError(f"<{tag}> element has no id attribute")
        if identifier in out:
            raise XadlError(f"duplicate {tag} id {identifier!r}")
        out.add(identifier)
    return out


def _constraint_from_xml(element: ET.Element) -> Any:
    kind = element.get("kind")
    if kind == "location":
        component = element.get("component")
        allowed = element.get("allowed")
        forbidden = element.get("forbidden")
        if allowed is not None:
            return LocationConstraint(component, allowed=allowed.split(","))
        return LocationConstraint(component,
                                  forbidden=(forbidden or "").split(","))
    if kind == "collocation":
        return CollocationConstraint(
            (element.get("components") or "").split(","),
            together=element.get("together") == "true")
    raise SerializationError(f"unknown constraint kind {kind!r}")


def save(model: DeploymentModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_xml(model))


def load(path: str) -> DeploymentModel:
    with open(path, "r", encoding="utf-8") as handle:
        return from_xml(handle.read())

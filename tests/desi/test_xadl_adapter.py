"""Tests for xADL serialization and the MiddlewareAdapter."""

import pytest

from repro.algorithms import AvalaAlgorithm
from repro.core import (
    AvailabilityObjective, ConstraintSet, DeploymentModel, MemoryConstraint,
)
from repro.core.constraints import CollocationConstraint, LocationConstraint
from repro.core.errors import SerializationError, XadlError
from repro.desi import DeSiModel, MiddlewareAdapter, xadl
from repro.middleware import DistributedSystem
from repro.scenarios import build_crisis_scenario
from repro.sim import InteractionWorkload, SimClock


class TestXadlRoundTrip:
    def test_structure_preserved(self, small_model):
        clone = xadl.from_xml(xadl.to_xml(small_model))
        assert clone.host_ids == small_model.host_ids
        assert clone.component_ids == small_model.component_ids
        assert len(clone.physical_links) == len(small_model.physical_links)
        assert len(clone.logical_links) == len(small_model.logical_links)

    def test_parameters_preserved(self, small_model):
        clone = xadl.from_xml(xadl.to_xml(small_model))
        for link in small_model.physical_links:
            twin = clone.physical_link(*link.hosts)
            assert twin.params.get("reliability") == pytest.approx(
                link.params.get("reliability"))
        for component in small_model.components:
            assert clone.component(component.id).memory == pytest.approx(
                component.memory)

    def test_deployment_preserved(self, small_model):
        clone = xadl.from_xml(xadl.to_xml(small_model))
        assert dict(clone.deployment) == dict(small_model.deployment)

    def test_constraints_roundtrip(self, tiny_model):
        tiny_model.constraints.append(
            LocationConstraint("c1", allowed=["hA"]))
        tiny_model.constraints.append(
            LocationConstraint("c2", forbidden=["hB"]))
        tiny_model.constraints.append(
            CollocationConstraint(["c1", "c3"], together=False))
        clone = xadl.from_xml(xadl.to_xml(tiny_model))
        location_a, location_b, collocation = clone.constraints
        assert location_a.allowed == {"hA"}
        assert location_b.forbidden == {"hB"}
        assert collocation.components == ("c1", "c3")
        assert collocation.together is False

    def test_bool_and_string_params(self, tiny_model):
        tiny_model.set_physical_link_param("hA", "hB", "connected", False)
        clone = xadl.from_xml(xadl.to_xml(tiny_model))
        assert clone.physical_link("hA", "hB").params.get("connected") is False

    def test_file_roundtrip(self, tiny_model, tmp_path):
        path = str(tmp_path / "arch.xml")
        xadl.save(tiny_model, path)
        clone = xadl.load(path)
        assert dict(clone.deployment) == dict(tiny_model.deployment)

    def test_malformed_document_rejected(self):
        with pytest.raises(SerializationError):
            xadl.from_xml("<not-even-close")
        with pytest.raises(SerializationError, match="root"):
            xadl.from_xml("<wrongRoot/>")


class TestReferenceValidation:
    """Dangling references must fail with XadlError before model build."""

    def doc(self, extra=""):
        return f"""
        <deploymentArchitecture name="t">
          <host id="h1"/>
          <component id="c1"/>
          <component id="c2"/>
          <logicalLink componentA="c1" componentB="c2"/>
          <deployment component="c1" host="h1"/>
          {extra}
        </deploymentArchitecture>
        """

    def test_dangling_logical_link_endpoint(self):
        text = self.doc('<logicalLink componentA="c1" componentB="ghost"/>')
        with pytest.raises(XadlError, match="undeclared component 'ghost'"):
            xadl.from_xml(text)

    def test_dangling_physical_link_endpoint(self):
        text = self.doc('<physicalLink hostA="h1" hostB="h9"/>')
        with pytest.raises(XadlError, match="undeclared host 'h9'"):
            xadl.from_xml(text)

    def test_dangling_deployment_component(self):
        text = self.doc('<deployment component="nope" host="h1"/>')
        with pytest.raises(XadlError, match="undeclared component 'nope'"):
            xadl.from_xml(text)

    def test_dangling_deployment_host(self):
        text = self.doc('<deployment component="c2" host="h9"/>')
        with pytest.raises(XadlError, match="undeclared host 'h9'"):
            xadl.from_xml(text)

    def test_duplicate_id_rejected(self):
        text = self.doc('<host id="h1"/>')
        with pytest.raises(XadlError, match="duplicate host id 'h1'"):
            xadl.from_xml(text)

    def test_missing_link_attribute(self):
        text = self.doc('<physicalLink hostA="h1"/>')
        with pytest.raises(XadlError, match="hostB"):
            xadl.from_xml(text)

    def test_xadl_error_is_serialization_error(self):
        assert issubclass(XadlError, SerializationError)


class TestCorruptedParamValues:
    """A numeric param that does not parse must raise XadlError naming the
    param and its element, never a bare ValueError."""

    @pytest.fixture(scope="class")
    def crisis_xml(self):
        return xadl.to_xml(build_crisis_scenario().model)

    def test_bad_float_names_param_and_host(self, crisis_xml):
        good = '<host id="hq">\n    <param name="memory" value="1000.0"'
        assert good in crisis_xml
        text = crisis_xml.replace(
            good, '<host id="hq">\n    <param name="memory" value="lots"')
        with pytest.raises(XadlError, match=(
                r"param 'memory' of <host id='hq'> has invalid float "
                r"value 'lots'")):
            xadl.from_xml(text)

    def test_bad_float_on_link_names_endpoints(self, crisis_xml):
        text = crisis_xml.replace('name="frequency" value="',
                                  'name="frequency" value="x', 1)
        with pytest.raises(XadlError,
                           match=r"'frequency' of <logicalLink componentA="):
            xadl.from_xml(text)

    def test_bad_int_is_rejected(self, crisis_xml):
        text = crisis_xml.replace('value="80.0" type="float"',
                                  'value="80.5" type="int"', 1)
        with pytest.raises(XadlError, match=r"invalid int value '80.5'"):
            xadl.from_xml(text)


class TestMiddlewareAdapter:
    def build(self):
        model = DeploymentModel()
        for host in ("h0", "h1"):
            model.add_host(host, memory=100.0)
        model.connect_hosts("h0", "h1", reliability=0.7, bandwidth=200.0)
        for component in ("a", "b"):
            model.add_component(component, memory=10.0)
        model.connect_components("a", "b", frequency=4.0, evt_size=1.0)
        model.deploy("a", "h0")
        model.deploy("b", "h1")
        clock = SimClock()
        system = DistributedSystem(model, clock, seed=6)
        # DeSi starts from a *blank-parameter* copy of the topology: the
        # monitored values must come in from the platform.
        desi_model = model.copy(name="desi-view")
        desi_model.set_physical_link_param("h0", "h1", "reliability", 1.0)
        desi = DeSiModel(desi_model)
        adapter = MiddlewareAdapter(desi, system, epsilon=0.1, window=2)
        return model, clock, system, desi, adapter

    def test_monitoring_flows_into_desi_model(self):
        model, clock, system, desi, adapter = self.build()
        system.install_monitoring(ping_interval=0.25, pings_per_round=20,
                                  report_interval=1.0)
        workload = InteractionWorkload(model, clock, system.emit,
                                       seed=2).start()
        for __ in range(4):
            clock.run(1.0)
            adapter.sync_from_platform()
        workload.stop()
        measured = desi.deployment_model.physical_link(
            "h0", "h1").params.get("reliability")
        assert measured == pytest.approx(0.7, abs=0.1)
        assert adapter.monitor.reports_received >= 3

    def test_effector_deploys_algorithm_result(self):
        model, clock, system, desi, adapter = self.build()
        result = AvalaAlgorithm(
            AvailabilityObjective(), ConstraintSet([MemoryConstraint()]),
            seed=1).run(desi.deployment_model)
        report = adapter.deploy_to_platform(result)
        assert report.succeeded
        assert system.actual_deployment() == dict(result.deployment)

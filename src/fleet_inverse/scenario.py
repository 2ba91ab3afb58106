"""Scenario files: JSON documents describing a network, demand, strategy,
and optional observations, with eager validation.

Every validation failure raises ScenarioError carrying a machine-readable
code and the path of the offending field.  parse -> serialize -> parse is
the identity on the validated model.

The parser checks only the document's shape: JSON types, required fields,
finite numbers, the schema.  What the model assumes of its values (positive
slopes, non-negative demands, unique ids that resolve, units that partition
the routes) the model's constructors check, each fact once, and the
ModelInputError they raise becomes a ScenarioError with the same code at
the JSON path of the offending field.

Delays and the `simulation` and `tolerances` sections are read and
written from the model's own declarations: a delay by its class's `kind`
(network.py) and its dataclass fields in order, the two sections by the
fields of SimulationConfig and SolverConfig, whose defaults fill what a
document omits.  Each field is read by its declared type: a float as a
finite number, an int as a JSON integer, a str as a string, never a bool.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .dynamics import SimulationConfig
from .errors import ModelInputError
from .network import Delay, Link, Network, ODUnit, Route
from .objective import PRESETS, FleetStrategy

__all__ = [
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "parse_scenario_dict",
    "scenario_to_dict",
    "fixture_path",
    "list_fixtures",
]

SCHEMA_VERSION = 1

FIXTURES_DIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    """Path of a bundled scenario; name may omit the .json suffix."""
    if not name.endswith(".json"):
        name += ".json"
    path = FIXTURES_DIR / name
    if not path.exists():
        available = sorted(p.stem for p in FIXTURES_DIR.glob("*.json"))
        raise FileNotFoundError(f"no bundled scenario {name!r}; available: {available}")
    return path


def list_fixtures() -> list[str]:
    return sorted(p.stem for p in FIXTURES_DIR.glob("*.json"))


class ScenarioError(Exception):
    """Validation failure with a machine-readable code and field path."""

    def __init__(self, code: str, field_path: str, message: str):
        self.code = code
        self.field_path = field_path
        super().__init__(f"{code} at {field_path}: {message}")


@dataclass(frozen=True)
class Scenario:
    network: Network
    strategy: FleetStrategy
    strategy_name: str | None
    hdv_route_flows: np.ndarray | None
    fleet_route_flows: np.ndarray | None
    observed_route_flows: np.ndarray | None
    observed_link_flows: np.ndarray | None
    simulation: SimulationConfig
    config: SolverConfig
    tolerance_overrides: dict = field(default_factory=dict)
    simulation_given: bool = False


def _fail(code: str, path: str, message: str) -> None:
    raise ScenarioError(code, path, message)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        _fail("missing-field", f"{path}.{key}", "required field is absent")
    return mapping[key]


def _number(value, path: str, nonnegative: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail("bad-value", path, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        _fail("bad-value", path, "number must be finite")
    if nonnegative and value < 0.0:
        _fail("negative-flow", path, "must be >= 0.0")
    return value


def _list(mapping: dict, key: str, path: str) -> list:
    value = _require(mapping, key, path)
    if not isinstance(value, list):
        _fail("malformed", f"{path}.{key}", "expected a list")
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail("malformed", path, "expected an object")
    return value


def _construct(path: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), a model constructor, with the ModelInputError
    it raises reported at path followed by the error's position."""
    try:
        return cls(*args, **kwargs)
    except ModelInputError as exc:
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in exc.position)
        _fail(exc.code, path + where, str(exc))


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail("bad-value", path, f"expected an integer, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        _fail("bad-value", path, f"expected a string, got {value!r}")
    return value


def _slopes(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail("malformed", path, "expected an object of link id to slope")
    return {k: _number(v, f"{path}.{k}") for k, v in value.items()}


_READERS = {float: _number, int: _integer, str: _string, Mapping[str, float]: _slopes}


def _document_fields(cls) -> dict:
    """name -> (reader, required) for each field of the dataclass cls that a
    document gives, in declaration order; a field is required when it has no
    default.  Fields of other types (a simulation's strategy) are not read
    from documents."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (_READERS[hints[f.name]], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
        if hints[f.name] in _READERS
    }


_DELAY_KINDS = {cls.kind: cls for cls in typing.get_args(Delay)}
_FIELDS = {
    cls: _document_fields(cls) for cls in (*_DELAY_KINDS.values(), SimulationConfig, SolverConfig)
}


def _read_fields(cls, doc: dict, path: str) -> dict:
    """The fields of cls that doc gives, each read by its declared type."""
    values = {}
    for name, (read, required) in _FIELDS[cls].items():
        if required or name in doc:
            values[name] = read(_require(doc, name, path), f"{path}.{name}")
    return values


def _fields_to_dict(obj) -> dict:
    """The inverse of _read_fields, mappings sorted by key."""
    doc = {}
    for name in _FIELDS[type(obj)]:
        value = getattr(obj, name)
        doc[name] = dict(sorted(value.items())) if isinstance(value, dict) else value
    return doc


def _parse_delay(spec, path: str) -> Delay:
    kind = _require(_object(spec, path), "kind", path)
    # a JSON array or object kind is unhashable
    cls = _DELAY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        _fail("unknown-delay", f"{path}.kind", f"unknown delay variant {kind!r}")
    return _construct(path, cls, **_read_fields(cls, spec, path))


def _flow_vector(section: dict, key: str, path: str, length: int, name: str) -> np.ndarray | None:
    """section[key], a list of length non-negative numbers, as an array;
    None when the section does not give it."""
    if key not in section:
        return None
    values, path = section[key], f"{path}.{key}"
    if not isinstance(values, list):
        _fail("malformed", path, f"expected a list of {length} numbers")
    if len(values) != length:
        _fail("bad-value", path, f"expected {length} entries for {name}, got {len(values)}")
    return np.array([_number(v, f"{path}[{i}]", nonnegative=True) for i, v in enumerate(values)])


def parse_scenario_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        _fail("malformed", "$", "scenario must be a JSON object")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        _fail("bad-value", "$.schema", f"expected schema {SCHEMA_VERSION}, got {schema!r}")

    links = []
    for i, item in enumerate(_list(doc, "links", "$")):
        path = f"$.links[{i}]"
        link_id = _require(_object(item, path), "id", path)
        if not isinstance(link_id, str) or not link_id:
            _fail("bad-value", f"{path}.id", "link id must be a non-empty string")
        links.append(Link(id=link_id, delay=_parse_delay(_require(item, "delay", path), f"{path}.delay")))

    routes = []
    for i, item in enumerate(_list(doc, "routes", "$")):
        path = f"$.routes[{i}]"
        route_id = _require(_object(item, path), "id", path)
        routes.append(_construct(path, Route, id=route_id, link_ids=tuple(_list(item, "links", path))))

    units = []
    for i, item in enumerate(_list(doc, "units", "$")):
        path = f"$.units[{i}]"
        route_ids = tuple(_list(_object(item, path), "routes", path))
        units.append(
            _construct(
                path,
                ODUnit,
                origin=str(item.get("origin", f"O{i}")),
                destination=str(item.get("destination", f"D{i}")),
                q_hdv=_number(_require(item, "q_hdv", path), f"{path}.q_hdv"),
                q_crv=_number(_require(item, "q_crv", path), f"{path}.q_crv"),
                route_ids=route_ids,
            )
        )
    network = _construct("$", Network, links, routes, units=units)

    strategy_doc = _require(doc, "strategy", "$")
    strategy_name = None
    if isinstance(strategy_doc, str):
        if strategy_doc not in PRESETS:
            _fail("bad-value", "$.strategy", f"unknown preset {strategy_doc!r}")
        strategy_name = strategy_doc
        strategy = PRESETS[strategy_doc]
    elif isinstance(strategy_doc, dict):
        strategy = FleetStrategy(
            lam_hdv=_number(_require(strategy_doc, "lambda_hdv", "$.strategy"), "$.strategy.lambda_hdv"),
            lam_crv=_number(_require(strategy_doc, "lambda_crv", "$.strategy"), "$.strategy.lambda_crv"),
        )
    else:
        _fail("malformed", "$.strategy", "expected a preset name or a lambda pair")

    n_routes, n_links = network.n_routes, network.n_links
    hdv_flows = _flow_vector(doc, "hdv_route_flows", "$", n_routes, "routes")
    fleet_flows = _flow_vector(doc, "fleet_route_flows", "$", n_routes, "routes")
    observed = _object(doc.get("observed", {}), "$.observed")
    if "observed" in doc and ("route_flows" in observed) == ("link_flows" in observed):
        _fail("bad-value", "$.observed", "exactly one of route_flows or link_flows must be present")
    observed_routes = _flow_vector(observed, "route_flows", "$.observed", n_routes, "routes")
    observed_links = _flow_vector(observed, "link_flows", "$.observed", n_links, "links")

    simulation_given = "simulation" in doc
    sim_doc = _object(doc.get("simulation", {}), "$.simulation")
    try:
        simulation = SimulationConfig(
            **_read_fields(SimulationConfig, sim_doc, "$.simulation"), strategy=strategy
        )
    except ValueError as exc:
        _fail("bad-value", "$.simulation", str(exc))

    tolerances = _object(doc.get("tolerances", {}), "$.tolerances")
    unknown = sorted(set(tolerances) - set(_FIELDS[SolverConfig]))
    if unknown:
        _fail("bad-value", "$.tolerances", f"unknown tolerance fields: {unknown}")
    overrides = _read_fields(SolverConfig, tolerances, "$.tolerances")
    try:
        config = DEFAULT_CONFIG.replace(**overrides) if overrides else DEFAULT_CONFIG
    except ValueError as exc:
        _fail("bad-value", "$.tolerances", str(exc))

    return Scenario(
        network=network,
        strategy=strategy,
        strategy_name=strategy_name,
        hdv_route_flows=hdv_flows,
        fleet_route_flows=fleet_flows,
        observed_route_flows=observed_routes,
        observed_link_flows=observed_links,
        simulation=simulation,
        config=config,
        tolerance_overrides=overrides,
        simulation_given=simulation_given,
    )


def parse_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError("malformed", "$", f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("malformed", "$", f"invalid JSON: {exc}") from exc
    return parse_scenario_dict(doc)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical serialization; parsing it back yields an identical model."""
    net = scenario.network
    doc: dict = {
        "schema": SCHEMA_VERSION,
        "links": [
            {"id": link.id, "delay": {"kind": link.delay.kind, **_fields_to_dict(link.delay)}}
            for link in net.links
        ],
        "routes": [
            {"id": route.id, "links": list(route.link_ids)} for route in net.routes
        ],
        "units": [
            {
                "origin": unit.origin,
                "destination": unit.destination,
                "q_hdv": unit.q_hdv,
                "q_crv": unit.q_crv,
                "routes": list(unit.route_ids),
            }
            for unit in net.units_or_raise()
        ],
    }
    if scenario.strategy_name is not None:
        doc["strategy"] = scenario.strategy_name
    else:
        doc["strategy"] = {
            "lambda_hdv": scenario.strategy.lam_hdv,
            "lambda_crv": scenario.strategy.lam_crv,
        }
    if scenario.hdv_route_flows is not None:
        doc["hdv_route_flows"] = list(map(float, scenario.hdv_route_flows))
    if scenario.fleet_route_flows is not None:
        doc["fleet_route_flows"] = list(map(float, scenario.fleet_route_flows))
    if scenario.observed_route_flows is not None:
        doc["observed"] = {"route_flows": list(map(float, scenario.observed_route_flows))}
    if scenario.observed_link_flows is not None:
        doc["observed"] = {"link_flows": list(map(float, scenario.observed_link_flows))}
    if scenario.simulation_given:
        doc["simulation"] = _fields_to_dict(scenario.simulation)
    if scenario.tolerance_overrides:
        doc["tolerances"] = dict(scenario.tolerance_overrides)
    return doc

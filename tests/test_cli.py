"""Scenario parsing, CSV reports, determinism, error categories."""

import collections
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fleet_inverse import forward
from fleet_inverse.cli import (
    EXIT_INFEASIBLE,
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    OPTIONS,
    SUBCOMMANDS,
    _parse_args,
    _usage,
    main,
)
from fleet_inverse.config import DEFAULT_CONFIG
from fleet_inverse.dynamics import SimulationConfig
from fleet_inverse.scenario import (
    ScenarioError,
    fixture_path,
    list_fixtures,
    parse_scenario,
    parse_scenario_dict,
)
from conftest import scenario_to_dict

ALL_FIXTURES = list_fixtures()

# sha256 of the CSV report and of the standard output of every fixture x
# subcommand cell that exits 0 with default flags, keyed by (subcommand,
# fixture): a change that claims the same results keeps every byte
REPORT_SHA256 = {
    ("forward", "signalized_link"): (
        "8b643346186e627302418085d1aea14f11231a925509f96babe2b326f5f1d997",
        "f877fea30e5fcd4443498c8190053a33cff0dd130d4bb8e6c0f6e491cd876596"),
    ("forward", "stackelberg_symmetric"): (
        "d2dd697c10b6d7f7d7ba4f20d1074c9902e16b04206a641242ecc57d6febf42d",
        "aa735f3bdde521ff7c7ce167895c72a399de2ed47298deadfb6a26b809f856aa"),
    ("forward", "two_route_asymmetric"): (
        "d14ec6b3302176d4554cdbd8edeb43ba20f4d0ee1cee03345101c11c5483a4ee",
        "12782491a3e531b6669e113279ae42dcd14513a649189ad21789597e65bde2e9"),
    ("inverse", "cross_dependent_stable"): (
        "f87c085707e83bf728f4ae5418d2b1a4f0a33c0bc673ca676746aa76f58656e8",
        "390d8386bfb12fd57d61df08a4daf1aa409c78f544be957447720d3aa94f393d"),
    ("inverse", "cross_dependent_unstable"): (
        "86310412eb0da2a3e8219f46593cd485be0bb20ae6314e45a5d421d54f7091b7",
        "b919dd302463e2147cfd3196bea1b858e0f8261c479c0d198570d6d2f77d3090"),
    ("inverse", "discrete_two_route"): (
        "72179a2a666aa9b591e6465b83d9d111b01155f6b87326990c5b7ed1869b619e",
        "831f107c10e527ce05ddeeeaf4e0ba2192bbf2cbdf03b8e4f11ceac81104b1bb"),
    ("inverse", "two_od"): (
        "5be6ef6f89d601702e84b5f91cdf97cdda4d7cfe17271160a98057a2184ff2a4",
        "f8f25b32d90718899efbe9aff464bf03a3e34ca849be6bd199b83fd843f772d6"),
    ("inverse", "two_route_common_links"): (
        "bdd59fb911a6607d5241d3f01a210bc1c56dd2363a1c950dcc2640e3e3997b1f",
        "94b55a7ce7b657198800df2ddb1eb7cffe3e94ffb373d1517b43b221cd2dbbe9"),
    ("inverse", "two_stage_overlap"): (
        "6d720170d6b6bc9365d658e78a4b6f2632efaf3044b985781488b93c5c61dc6c",
        "4589b34dcd9fe135947d5da2362dcd752fc3b506f10fb58b438a00b73b2fae75"),
    ("inverse", "two_stage_overlap_concentrated"): (
        "8f754b22af6aca83fc6c373c1b4c5ba71672a0e33963c81d455bf2f8e0829be4",
        "bdb6ff5aaac6022a21414bc5ac0c7026d5cc834ca9880df43ff3a428c85819c9"),
    ("inverse", "two_unit"): (
        "2b4352c0a4e51106cbe24b1c366bdb64a667d172a864771c321374933d71ad30",
        "d9d037bbbf822c8c71b15802c0eb2a4ce9331bb1e01fbd329b7ec9e761f0e01c"),
    ("classify", "cross_dependent_stable"): (
        "4d54d2bc86f3020c21533cb36dc8747c74619b268fdfd2988c42cf99a975f9ce",
        "c42267e6f9d4459bea934fc2108e83cfec192b3f76824da7c6e10e2342b9b202"),
    ("classify", "cross_dependent_unstable"): (
        "6f301e19ed9cfa3cd8280f727ff53d498fff4d11e46effec8da4401af305f0af",
        "363f9561f85e661a306ac1f272bdd0c386641fbd8a1933cd701b2ad218f1f440"),
    ("classify", "discrete_two_route"): (
        "4d54d2bc86f3020c21533cb36dc8747c74619b268fdfd2988c42cf99a975f9ce",
        "c42267e6f9d4459bea934fc2108e83cfec192b3f76824da7c6e10e2342b9b202"),
    ("classify", "signalized_link"): (
        "4d54d2bc86f3020c21533cb36dc8747c74619b268fdfd2988c42cf99a975f9ce",
        "c42267e6f9d4459bea934fc2108e83cfec192b3f76824da7c6e10e2342b9b202"),
    ("classify", "stackelberg_symmetric"): (
        "586065b97bcbe4b20a9de8ab3c044e03cf52ef41aa069889fb44736bb549cb1f",
        "363f9561f85e661a306ac1f272bdd0c386641fbd8a1933cd701b2ad218f1f440"),
    ("classify", "two_od"): (
        "4d54d2bc86f3020c21533cb36dc8747c74619b268fdfd2988c42cf99a975f9ce",
        "c42267e6f9d4459bea934fc2108e83cfec192b3f76824da7c6e10e2342b9b202"),
    ("classify", "two_route_asymmetric"): (
        "4d54d2bc86f3020c21533cb36dc8747c74619b268fdfd2988c42cf99a975f9ce",
        "c42267e6f9d4459bea934fc2108e83cfec192b3f76824da7c6e10e2342b9b202"),
    ("classify", "two_route_common_links"): (
        "4d54d2bc86f3020c21533cb36dc8747c74619b268fdfd2988c42cf99a975f9ce",
        "c42267e6f9d4459bea934fc2108e83cfec192b3f76824da7c6e10e2342b9b202"),
    ("classify", "two_stage_overlap"): (
        "4d54d2bc86f3020c21533cb36dc8747c74619b268fdfd2988c42cf99a975f9ce",
        "c42267e6f9d4459bea934fc2108e83cfec192b3f76824da7c6e10e2342b9b202"),
    ("classify", "two_stage_overlap_concentrated"): (
        "4d54d2bc86f3020c21533cb36dc8747c74619b268fdfd2988c42cf99a975f9ce",
        "c42267e6f9d4459bea934fc2108e83cfec192b3f76824da7c6e10e2342b9b202"),
    ("classify", "two_unit"): (
        "4d54d2bc86f3020c21533cb36dc8747c74619b268fdfd2988c42cf99a975f9ce",
        "c42267e6f9d4459bea934fc2108e83cfec192b3f76824da7c6e10e2342b9b202"),
    ("simulate", "signalized_link"): (
        "5756104348ee5a0bcee30b9f2bc7a4ab91b778d5ed68ab81b536fe26cdfd2539",
        "f511c3eef34830ffded13d5bf2e2ed1ef2a5fa98b9fc38dd511439d7a9837352"),
    ("simulate", "stackelberg_symmetric"): (
        "841e40d2552e009fd16c7148ccd271550439728f0d9cc7fa17763e8442f84cc2",
        "18e0cef76b8aa9a148022999d6b894b9ba45da17ecff8b56251e3858ad417c46"),
    ("simulate", "two_route_asymmetric"): (
        "895ec15dee0e62e9db934ab012778cc7a0345b28431236756a3b0388d1b4beb1",
        "3f64e89f8eae83f07b45bd3c8398d0391c601f6bb4efda2974af6e3e754f4af8"),
    ("stackelberg", "cross_dependent_stable"): (
        "975f7c4abb5298eaad89ac3b20ebed2254783d8cc906c8947b7ebf1c15ba06d8",
        "3751d29fe2541055a4194ce558d0dc7bb12b99404c52e10cd9467f9aee757289"),
    ("stackelberg", "cross_dependent_unstable"): (
        "2755284f4ffb92ec5d91c39a32029e4cb449a5c7dce1e1612a6366539ca0136b",
        "5e615b80e3b0b515c87cfc23f6d96f0bd4b5195821b714b1065b84c22ecd125b"),
    ("stackelberg", "discrete_two_route"): (
        "69e19403f6729f744f19b33c82a1343debe5e6f1818ed72f3d3af755283626ad",
        "cd7ed8bfb56d4cc8a9fa31c0ee29cde774b7abe7b22c583eea38c4290d2a8b5f"),
    ("stackelberg", "signalized_link"): (
        "1ffc4dcf1e1aed2b1a4013064494c6c32dc3c285d2836597ce257af516763ba7",
        "c32a985f60c528100cb0c435b3cd7173fcc00be640932593cbae72baefbe08fe"),
    ("stackelberg", "stackelberg_symmetric"): (
        "bd69dd9ea7ff838494411352752628e57ed11d3bbcea3d5de51d8a1e357c6191",
        "2ef6d21950a5832f8a7ae019964b824750821ec7186c9703cc00839fe949496b"),
    ("stackelberg", "two_route_asymmetric"): (
        "291252ab36ed7daf3dad6bb66084e2292f5efbfeb2ea0010b3aa3c3dbfbce7af",
        "1120ea0f66ef226d883d4a0548c8c4e1ef996674e7dfd9671e3744409c947f94"),
    ("stackelberg", "two_route_common_links"): (
        "01f54ae03da0c81e40dfb5f63ae35858723a6a2d9d9ff86edd69cbaefe779f2f",
        "3300b69fa287c1cfe78ca6207375a78d076d8556447b4fe4332e7fc619a99543"),
    ("lipschitz", "cross_dependent_stable"): (
        "feb8448e5b5422b3e6fa0b189aa946a83accbbb1f200a0fa30ee8f9214316312",
        "bb48c72a44595941f399df793c555cf48a3277abf4f9d4b59d614e74610869b6"),
    ("lipschitz", "cross_dependent_unstable"): (
        "e1aeb428a2a0400a419a077e3a0daf024a87afa3cfa3329e6626a49c036c20f2",
        "11e9c280627eb77a30fab6fa68e4decf86bf2e95224b2ffd5f63f01e04373bc6"),
    ("lipschitz", "discrete_two_route"): (
        "8fe360781d088f4ca497d761fe2316459133914e432dce792e469e7ceec940b2",
        "fdf130ca6c4e8b8a4cce2b47e3fe98a2e9ae4f06334dde46767b12a50228a166"),
    ("lipschitz", "signalized_link"): (
        "1b81ccc587ed57ef654b2f7e5a313fc883e7fdddf7025f4a5974f68388051a52",
        "2fbb763f660fbd48f3cb7c488c44c9e22195817944850f79fd6d951542102694"),
    ("lipschitz", "stackelberg_symmetric"): (
        "dc8fb70542a863cd55359463775794300a19d081b06c237bc8c5d91d248018f2",
        "46810e58d4fcea59742407f0c939fad4522b22cb52548c8e4d5006c4eb4fc870"),
    ("lipschitz", "two_od"): (
        "00afce080f8430490b162f432a2c3d6c74d7735e4741bc3bbaba1dba2ec914d2",
        "3bd45cf4d5e00c80219ae0696c3888e1c592e3ae732fc9682c8342658f941a96"),
    ("lipschitz", "two_route_asymmetric"): (
        "95349eddba090204a3782a673b1cab2903f142347b8aa92ccbdd8ac281bc5102",
        "cc400ebece8752540c2411b91b476ee392f285d9f252916a3983463200ece062"),
    ("lipschitz", "two_route_common_links"): (
        "974ee5d7d0970fd5c36f5459fb2d8066b65ac4abbfac62b3b01466c281a253d5",
        "08e67be7f23a9082d466e7be9d0fd69d0a38d19213426bdd38346f8bfd134652"),
    ("lipschitz", "two_stage_overlap"): (
        "1259eb532f0b25855ea11d6fbb14e22b611d62823f2f7ea8fc7e01c07d1b44e5",
        "399a62b0471201749cf0ae671dd35f11a777636cfbfd24ec5818af34c094aecc"),
    ("lipschitz", "two_stage_overlap_concentrated"): (
        "1259eb532f0b25855ea11d6fbb14e22b611d62823f2f7ea8fc7e01c07d1b44e5",
        "399a62b0471201749cf0ae671dd35f11a777636cfbfd24ec5818af34c094aecc"),
    ("lipschitz", "two_unit"): (
        "de837bbb58ca598dbaf0c29e8e0f5874b8d9ef71d84db02d8be6bf79eee90868",
        "d63708baf58b8dc5aa6a2e099682f8b4f496b8821fd1a67f43f02df08e166124"),
    ("fiber", "cross_dependent_stable"): (
        "624dac670b184e860193bee45b797fdcb972ee97e6ffa49f2e5b1eace9fc3795",
        "e7e59e7b095432e76fef55713892a89bbff6288f0d6ce937310a202e09472332"),
    ("fiber", "cross_dependent_unstable"): (
        "763cb29e4769bb59675a5ed1e09a39a977e79981035dba0e6a6676a23386aabd",
        "40c616a664edf1379121918447e8eeca0ac2a298e7413451bc123ddd6a434868"),
    ("fiber", "discrete_two_route"): (
        "064c096e12db2da1b633fca2e1931f1f4468fd444f0c3c09afbc078c6ad2de1e",
        "8e3fdaded9b0829b1b1e1cb6eafb0c617895640323864d9e1ce8671306b345e0"),
    ("fiber", "two_od"): (
        "279ec4d86ddff8dcffbfece7fdcdf84851433ad059af3884c1ed6fc744d4a991",
        "f157f3ece5d49acb45e39ed3dbbc9c170dd9672dcca257ee30b915b37441f096"),
    ("fiber", "two_route_common_links"): (
        "7ee8addcc3ce3e017b0bbe5a2fc4a5f8b4cf39941adea4344c9e63c90ebb463b",
        "abe7c7ab5d282d075c5d3987af1eab90861684ace5853f25e8601770dff0096b"),
    ("fiber", "two_stage_overlap"): (
        "1be7618e34f086dd81e0c21d8cc794bba1170e32e3f7ee2fb1d58581350c27a9",
        "f54d8090cb73ac220425728513fbcf867ac80b98298f23b40d6d4e1382c69af8"),
    ("fiber", "two_stage_overlap_concentrated"): (
        "5d1ca946d520df79a41825fe06e83d0f997fc9ec778bfe0b9da1d51480222d89",
        "cd0578c685914e457029efd406ba732f08cfb59ad4744a921287ec1b7fe3e7ac"),
    ("fiber", "two_unit"): (
        "2e06a60a46a9822fe761711666613a247c5833491fa2a5a16c30cfa47412b66e",
        "bf4b125c8ddfa6c5021a4af858c5dcfd90fd1931abb01ea9e0c9c46e327dfee7"),
}


def load_doc(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


class TestParsing:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_bundled_fixture_parses(self, name):
        scenario = parse_scenario(fixture_path(name))
        assert scenario.network.n_routes >= 1
        # module-level sanity: flows evaluate and the incidence matrix is 0/1
        q = np.ones(scenario.network.n_routes) * 0.1
        assert np.all(np.isfinite(scenario.network.route_times(q)))
        assert set(np.unique(scenario.network.incidence)) <= {0.0, 1.0}

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_round_trip_identity(self, name):
        scenario = parse_scenario(fixture_path(name))
        doc = scenario_to_dict(scenario)
        again = parse_scenario_dict(doc)
        assert scenario_to_dict(again) == doc

    def test_two_route_fixture_times(self):
        scenario = parse_scenario(fixture_path("two_route_asymmetric"))
        h = scenario.hdv_route_flows
        np.testing.assert_allclose(h, [10.0, 40.0])
        times = scenario.network.route_times(np.array([60.0, 40.0]))
        np.testing.assert_allclose(times, [12.2, 18.75])

    def test_fixture_module_contracts(self):
        from fleet_inverse import solve_inverse, fleet_assign, inverse_link_flows

        # common-links two-route network: conversion sums the shared links
        sc = parse_scenario(fixture_path("two_route_common_links"))
        a = sc.network.route_to_link(np.array([3.0, 7.0]))
        by_id = dict(zip([l.id for l in sc.network.links], a))
        assert by_id == {"a": 3.0, "b": 7.0, "c": 10.0, "d": 10.0}
        assert sc.network.routes_linearly_independent().independent

        # overlapping four-route network: dependent routes, link-level unique
        sc = parse_scenario(fixture_path("two_stage_overlap"))
        assert not sc.network.routes_linearly_independent().independent
        link_inv = inverse_link_flows(sc.strategy, sc.network.route_to_link(sc.observed_route_flows), sc.network)
        np.testing.assert_allclose(link_inv.f_hat, [50.0] * 4, atol=1e-6)

        # cross-dependent pair: the stable fixture passes the PD gate, the
        # unstable one fails it
        stable = parse_scenario(fixture_path("cross_dependent_stable"))
        cert = stable.network.feasible_direction_pd(stable.observed_route_flows)
        assert cert.passes and cert.min_rayleigh == pytest.approx(1.0, abs=1e-9)
        unstable = parse_scenario(fixture_path("cross_dependent_unstable"))
        cert = unstable.network.feasible_direction_pd(unstable.observed_route_flows)
        assert not cert.passes and cert.min_rayleigh == pytest.approx(-1.0, abs=1e-9)
        inv = solve_inverse(unstable.strategy, unstable.observed_route_flows, unstable.network)
        assert not inv.certificate.theorem_applies

        # signalized link stays inside its saturation domain during a solve
        sc = parse_scenario(fixture_path("signalized_link"))
        result = fleet_assign(sc.strategy, sc.hdv_route_flows, sc.network)
        assert result.certificate.is_local_min

        # two demand units, one of them captive to a single route
        sc = parse_scenario(fixture_path("two_unit"))
        inv = solve_inverse(sc.strategy, sc.observed_route_flows, sc.network)
        assert inv.certificate.theorem_applies
        assert inv.f_hat[2] == pytest.approx(sc.network.units[1].q_crv, abs=1e-9)

        # two OD pairs over shared links: strict PD fails on the boundary
        # direction, the route answer is a one-dimensional set
        sc = parse_scenario(fixture_path("two_od"))
        inv = solve_inverse(sc.strategy, sc.observed_route_flows, sc.network)
        assert not inv.certificate.theorem_applies
        assert inv.certificate.min_rayleigh == pytest.approx(0.0, abs=1e-9)
        assert inv.fiber is not None and inv.fiber.dimension == 1

    @pytest.mark.parametrize(
        "name,subcommand",
        [
            ("two_route_asymmetric", "forward"),
            ("two_route_common_links", "inverse"),
            ("two_stage_overlap", "fiber"),
            ("two_stage_overlap_concentrated", "fiber"),
            ("cross_dependent_stable", "inverse"),
            ("signalized_link", "forward"),
            ("two_unit", "inverse"),
            ("two_od", "inverse"),
            ("discrete_two_route", "inverse"),
            ("stackelberg_symmetric", "classify"),
        ],
    )
    def test_fixture_cli_smoke(self, name, subcommand, tmp_path):
        out = tmp_path / "out.csv"
        code = main([subcommand, "--scenario", str(fixture_path(name)), "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().count("\n") >= 2

    def test_negative_fleet_size_names_field(self):
        doc = load_doc("two_route_asymmetric")
        doc["units"][0]["q_crv"] = -5.0
        with pytest.raises(ScenarioError) as err:
            parse_scenario_dict(doc)
        assert err.value.code == "negative-flow"
        assert "units[0].q_crv" in err.value.field_path

    def test_dangling_link_reference(self):
        doc = load_doc("two_route_asymmetric")
        doc["routes"][0]["links"] = ["z"]
        with pytest.raises(ScenarioError) as err:
            parse_scenario_dict(doc)
        assert err.value.code == "dangling-id"
        assert "routes[0].links[0]" in err.value.field_path

    def test_unknown_delay_variant(self):
        doc = load_doc("two_route_asymmetric")
        doc["links"][0]["delay"] = {"kind": "cubic", "a": 1.0}
        with pytest.raises(ScenarioError) as err:
            parse_scenario_dict(doc)
        assert err.value.code == "unknown-delay"

    def test_observed_exclusive(self):
        doc = load_doc("discrete_two_route")
        doc["observed"] = {"route_flows": [50.0, 50.0], "link_flows": [50.0, 50.0]}
        with pytest.raises(ScenarioError) as err:
            parse_scenario_dict(doc)
        assert err.value.code == "bad-value"

    def test_schema_version_required(self):
        doc = load_doc("two_route_asymmetric")
        doc["schema"] = 2
        with pytest.raises(ScenarioError):
            parse_scenario_dict(doc)

    def test_tolerance_overrides(self):
        doc = load_doc("two_route_asymmetric")
        doc["tolerances"] = {"tol_vi": 1e-6, "n_starts": 5}
        scenario = parse_scenario_dict(doc)
        assert scenario.config.tol_vi == 1e-6
        assert scenario.config.n_starts == 5
        doc["tolerances"] = {"no_such_knob": 1}
        with pytest.raises(ScenarioError):
            parse_scenario_dict(doc)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(tmp_path / "missing.json")
        assert (err.value.code, err.value.field_path) == ("malformed", "$")

    def test_fleet_flows_and_observed_link_flows_round_trip(self):
        doc = load_doc("two_od")
        doc["fleet_route_flows"] = [5.0, 5.0, 5.0, 5.0]
        doc["observed"] = {"link_flows": [20.0, 20.0, 20.0, 20.0]}
        assert scenario_to_dict(parse_scenario_dict(doc)) == doc

    def test_lambda_pair_round_trip(self):
        doc = load_doc("two_od")
        doc["strategy"] = {"lambda_hdv": 0.25, "lambda_crv": 1.5}
        scenario = parse_scenario_dict(doc)
        assert scenario.strategy_name is None
        assert (scenario.strategy.lam_hdv, scenario.strategy.lam_crv) == (0.25, 1.5)
        again = scenario_to_dict(scenario)
        assert again["strategy"] == {"lambda_hdv": 0.25, "lambda_crv": 1.5}
        assert scenario_to_dict(parse_scenario_dict(again)) == again


# a valid spec of every delay kind for links[1] of two_od, parameters in
# documented order
DELAY_SPECS = {
    "bpr": {"kind": "bpr", "t0": 1.0, "d": 1.0, "capacity": 50.0, "power": 2.0},
    "affine": {"kind": "affine", "intercept": 1.0, "slope": 0.5},
    "quadratic": {"kind": "quadratic", "intercept": 1.0, "coefficient": 0.01},
    "webster": {"kind": "webster", "green_ratio": 0.5, "saturation_flow": 100.0, "cycle": 60.0},
    "cross_affine": {"kind": "cross_affine", "intercept": 1.0, "own_slope": 0.5, "cross": {"a": 0.1}},
}
DELAY_PARAMETERS = [
    (kind, key) for kind, spec in DELAY_SPECS.items() for key in spec if key not in ("kind", "cross")
]


def parse_error(doc) -> tuple[str, str]:
    with pytest.raises(ScenarioError) as err:
        parse_scenario_dict(doc)
    return err.value.code, err.value.field_path


def _with(*keys, value):
    """A mutation of a scenario document: the field at keys set to value."""
    def mutate(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return doc
    return mutate


CROSS_ON_L1 = {"kind": "cross_affine", "intercept": 1.0, "own_slope": 0.5}
# the two facts only the network checks: a cross-affine link referencing
# itself, and a route two units list (r1, in unit 0 and in a copy of it)
SELF_CROSS = _with("links", 0, "delay", value={**CROSS_ON_L1, "cross": {"l1": 0.1}})


def r1_in_two_units(doc):
    return {**doc, "units": [{**doc["units"][0], "routes": ["r1"]}, doc["units"][0]]}


# one document mutation of two_route_asymmetric per validation failure, with
# the code and the field path it reports; the model's facts (an empty list,
# a parameter out of range, a duplicate or dangling id, a negative demand, a
# route shared or left out by the units) are the constructors' checks
VALIDATION_BRANCHES = [
    (lambda doc: [doc], "malformed", "$"),
    (_with("links", value=[]), "malformed", "$.links"),
    (_with("links", 0, value="l1"), "malformed", "$.links[0]"),
    (_with("links", 0, "id", value=""), "bad-value", "$.links[0].id"),
    (_with("links", 0, "delay", value=5.0), "malformed", "$.links[0].delay"),
    (_with("links", 0, "delay", "capacity", value=0.0), "bad-value", "$.links[0].delay.capacity"),
    (_with("links", 1, "id", value="l1"), "bad-value", "$.links[1].id"),
    (_with("links", 0, "delay", value={**CROSS_ON_L1, "cross": {"z": 0.1}}),
     "dangling-id", "$.links[0].delay.cross.z"),
    (SELF_CROSS, "bad-value", "$.links[0].delay.cross.l1"),
    (_with("routes", value=[]), "malformed", "$.routes"),
    (_with("routes", 0, value=["l1"]), "malformed", "$.routes[0]"),
    (_with("routes", 0, "links", value=[]), "malformed", "$.routes[0].links"),
    (_with("routes", 0, "links", value=["z"]), "dangling-id", "$.routes[0].links[0]"),
    (_with("routes", 1, "id", value="r1"), "bad-value", "$.routes[1].id"),
    (_with("units", value=[]), "malformed", "$.units"),
    (_with("units", 0, value="O"), "malformed", "$.units[0]"),
    (_with("units", 0, "routes", value=[]), "malformed", "$.units[0].routes"),
    (_with("units", 0, "q_hdv", value=-1.0), "negative-flow", "$.units[0].q_hdv"),
    (_with("units", 0, "routes", value=["r1", "r3"]), "dangling-id", "$.units[0].routes[1]"),
    (_with("units", 0, "routes", value=["r1", "r1", "r2"]), "bad-value", "$.units[0].routes[1]"),
    (r1_in_two_units, "bad-value", "$.units[1].routes[0]"),
    # the network refuses a route that no unit covers
    (_with("units", 0, "routes", value=["r1"]), "bad-value", "$"),
    (_with("strategy", value="greedy"), "bad-value", "$.strategy"),
    (_with("strategy", value=1.0), "malformed", "$.strategy"),
    (_with("hdv_route_flows", value="10, 40"), "malformed", "$.hdv_route_flows"),
    (_with("hdv_route_flows", value=[10.0]), "bad-value", "$.hdv_route_flows"),
    (_with("hdv_route_flows", value=[-1.0, 51.0]), "negative-flow", "$.hdv_route_flows[0]"),
    (_with("observed", value=[50.0, 50.0]), "malformed", "$.observed"),
    (_with("simulation", value=[]), "malformed", "$.simulation"),
    (_with("tolerances", value=[]), "malformed", "$.tolerances"),
]


@pytest.mark.parametrize("mutate, code, path", VALIDATION_BRANCHES,
                         ids=[f"{code} at {path}" for _, code, path in VALIDATION_BRANCHES])
def test_each_validation_branch_names_its_field(mutate, code, path):
    assert parse_error(mutate(load_doc("two_route_asymmetric"))) == (code, path)


@pytest.mark.parametrize(
    "keys", [("links",), ("routes",), ("units",), ("routes", 0, "links"), ("units", 0, "routes")]
)
@pytest.mark.parametrize("value", [{}, "r1", None])
def test_a_list_field_that_is_not_a_list(keys, value):
    path = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    assert parse_error(_with(*keys, value=value)(load_doc("two_route_asymmetric"))) == ("malformed", path)


def run_document(doc, subcommand, tmp_path, capsys) -> tuple[int, str, str]:
    """The exit code, standard output and standard error of the subcommand
    on the scenario document doc, the report written to stdout."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code = main([subcommand, "--scenario", str(path), "--out", "-"])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestModelFactsThroughTheCli:
    @pytest.mark.parametrize(
        "mutate, where",
        [
            (r1_in_two_units, "bad-value at $.units[1].routes[0]: units must not share routes: 'r1' is listed twice"),
            (SELF_CROSS, "bad-value at $.links[0].delay.cross.l1: link 'l1' cross-references itself"),
        ],
    )
    def test_network_only_facts_exit_parse(self, mutate, where, tmp_path, capsys):
        code, _, err = run_document(mutate(load_doc("two_route_asymmetric")), "classify", tmp_path, capsys)
        assert code == EXIT_PARSE
        assert err == f"error[parse]: {where}\n"

    @pytest.mark.parametrize("value", [["r1"], 1])
    @pytest.mark.parametrize(
        "keys, path", [(("routes", 0, "id"), "$.routes[0].id"), (("routes", 0, "links", 0), "$.routes[0].links[0]"),
                       (("units", 0, "routes", 0), "$.units[0].routes[0]")],
    )
    def test_an_id_that_is_not_a_string_exits_parse(self, keys, path, value, tmp_path, capsys):
        # a JSON array here used to crash classify with "unhashable type:
        # 'list'" (exit 1); an integer id used to parse
        doc = _with(*keys, value=value)(load_doc("two_route_asymmetric"))
        code, _, err = run_document(doc, "classify", tmp_path, capsys)
        assert code == EXIT_PARSE
        assert err == f"error[parse]: bad-value at {path}: expected a string, got {value!r}\n"

    def test_the_first_defect_is_reported(self, tmp_path, capsys):
        # certify needs fleet_route_flows, which two_route_asymmetric lacks,
        # and the document's routes and units are bad too: the model's facts
        # come before a subcommand's fields, and a route's link before the
        # units' partition of the routes
        doc = r1_in_two_units(load_doc("two_route_asymmetric"))
        doc["routes"][1]["links"] = ["l2", "z"]

        def reported():
            code, _, err = run_document(doc, "certify", tmp_path, capsys)
            return code, err.split(": ")[1]

        assert reported() == (EXIT_PARSE, "dangling-id at $.routes[1].links[1]")
        doc["routes"][1]["links"] = ["l2"]
        assert reported() == (EXIT_PARSE, "bad-value at $.units[1].routes[0]")
        del doc["units"][0]
        assert reported() == (EXIT_PARSE, "missing-field at $.fleet_route_flows")


def with_delay(spec) -> dict:
    doc = load_doc("two_od")
    doc["links"][1]["delay"] = spec
    return doc


class TestDelayDocuments:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixture_serializes_to_its_own_text(self, name):
        doc = scenario_to_dict(parse_scenario(fixture_path(name)))
        assert json.dumps(doc, indent=2) + "\n" == fixture_path(name).read_text()

    @pytest.mark.parametrize("kind", DELAY_SPECS)
    def test_every_kind_round_trips(self, kind):
        doc = with_delay(DELAY_SPECS[kind])
        doc["simulation"] = {"days": 7, "mu": 0.5, "model": "logit", "theta": 2.0, "seed": 3}
        doc["tolerances"] = {"tol_vi": 1e-6, "vertex_cap": 8}
        assert scenario_to_dict(parse_scenario_dict(doc)) == doc

    @pytest.mark.parametrize("kind,key", DELAY_PARAMETERS)
    def test_missing_parameter(self, kind, key):
        spec = dict(DELAY_SPECS[kind])
        del spec[key]
        assert parse_error(with_delay(spec)) == ("missing-field", f"$.links[1].delay.{key}")

    @pytest.mark.parametrize("value", ["1.0", True, None, [1.0], float("nan"), float("inf")])
    @pytest.mark.parametrize("kind,key", DELAY_PARAMETERS)
    def test_parameter_not_a_finite_number(self, kind, key, value):
        spec = {**DELAY_SPECS[kind], key: value}
        assert parse_error(with_delay(spec)) == ("bad-value", f"$.links[1].delay.{key}")

    @pytest.mark.parametrize("kind", [["bpr"], {}, 3, None, "BPR"])
    def test_unknown_kind(self, kind):
        spec = {**DELAY_SPECS["bpr"], "kind": kind}
        assert parse_error(with_delay(spec)) == ("unknown-delay", "$.links[1].delay.kind")

    @pytest.mark.parametrize("cross", [[0.1], "a", 3, None])
    def test_cross_not_an_object(self, cross):
        spec = {**DELAY_SPECS["cross_affine"], "cross": cross}
        assert parse_error(with_delay(spec)) == ("malformed", "$.links[1].delay.cross")

    def test_cross_slopes(self):
        spec = {**DELAY_SPECS["cross_affine"], "cross": {"a": True}}
        assert parse_error(with_delay(spec)) == ("bad-value", "$.links[1].delay.cross.a")
        spec["cross"] = {"z": 0.1}
        assert parse_error(with_delay(spec)) == ("dangling-id", "$.links[1].delay.cross.z")
        del spec["cross"]
        assert parse_scenario_dict(with_delay(spec)).network.links[1].delay.cross == {}

    def test_out_of_domain_parameter_names_the_delay(self):
        spec = {**DELAY_SPECS["webster"], "green_ratio": 1.5}
        assert parse_error(with_delay(spec)) == ("bad-value", "$.links[1].delay.green_ratio")


class TestTypedSections:
    """simulation and tolerances values are read by the declared types of
    SimulationConfig and SolverConfig fields."""

    def test_omitted_fields_take_the_dataclass_defaults(self):
        doc = load_doc("two_od")
        doc["simulation"] = {"mu": 0.5}
        scenario = parse_scenario_dict(doc)
        assert scenario.simulation == SimulationConfig(mu=0.5, strategy=scenario.strategy)
        assert scenario.config == DEFAULT_CONFIG

    @pytest.mark.parametrize(
        "key,value",
        [("days", "5"), ("days", 2.7), ("days", 5.0), ("days", True), ("mu", "0.5"), ("mu", True),
         ("theta", float("inf")), ("theta", float("nan")), ("model", 3), ("seed", 1.5)],
    )
    def test_malformed_simulation_value(self, key, value):
        doc = load_doc("two_od")
        doc["simulation"] = {key: value}
        assert parse_error(doc) == ("bad-value", f"$.simulation.{key}")

    @pytest.mark.parametrize(
        "key,value",
        [("vertex_cap", "x"), ("vertex_cap", 2.5), ("vertex_cap", 20000.0), ("tol_vi", "1e-8"),
         ("tol_vi", float("nan")), ("tol_vi", float("inf")), ("tol_vi", True)],
    )
    def test_malformed_tolerance_exits_parse(self, key, value, tmp_path, capsys):
        # each of these used to crash (exit 1), spin to max_vi_iter (exit 4)
        # or run (exit 0) on the inverse
        doc = load_doc("two_od")
        doc["tolerances"] = {key: value}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["inverse", "--scenario", str(path), "--out", "-"]) == EXIT_PARSE
        assert f"error[parse]: bad-value at $.tolerances.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [("tol_p", -1.0), ("tol_vi", 0.0), ("tol_vi", -1e-9), ("ue_tol", 0.0), ("mixture_grid", 0),
         ("mixture_grid", 1), ("n_starts", -1), ("discrete_starts", -1),
         ("vertex_cap", -1), ("vertex_cap", 0), ("max_pg_iter", 0), ("max_vi_iter", -1),
         ("max_outer_iter", 0), ("armijo_factor", 1.0), ("armijo_c1", 0.0),
         ("extragradient_safety", 1.5), ("seed", -3), ("seed", 2**63)],
    )
    def test_out_of_range_tolerance(self, key, value):
        # well-typed values outside a field's range: a negative tol_p used to
        # hang stackelberg, mixture_grid 0 crashed it (exit 1), and the rest
        # were accepted silently; max_vi_iter, extragradient_safety, seed
        # (the scenario's seed is simulation.seed) and the fields that
        # became method constants (tol_p, ue_tol, mixture_grid,
        # discrete_starts, max_outer_iter and armijo_*) are deleted fields
        # now, refused at the same path as unknown ones
        doc = load_doc("stackelberg_symmetric")
        doc["tolerances"] = {key: value}
        assert parse_error(doc) == ("bad-value", "$.tolerances")

    @pytest.mark.parametrize("subcommand", ["simulate", "lipschitz"])
    def test_negative_simulation_seed_exits_parse(self, subcommand, tmp_path, capsys):
        # the disruptive strategy is indefinite on this fixture, so each
        # day's forward solve draws random starts: a negative seed used to
        # crash numpy's generators (exit 1)
        doc = load_doc("signalized_link")
        doc["strategy"] = "disruptive"
        doc["simulation"] = {"seed": -2}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main([subcommand, "--scenario", str(path), "--out", "-"]) == EXIT_PARSE
        assert "error[parse]: bad-value at $.simulation: seed must lie in [0, 2**63)" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["forward", "simulate", "stackelberg", "lipschitz"])
    def test_a_tolerances_seed_exits_parse(self, subcommand, tmp_path, capsys):
        # the scenario has one seed, simulation.seed: the solver's own seed
        # field is gone, in range or not
        doc = load_doc("stackelberg_symmetric")
        doc["tolerances"] = {"seed": 0}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main([subcommand, "--scenario", str(path), "--out", "-"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "error[parse]: bad-value at $.tolerances:" in err
        assert "unknown tolerance fields: ['seed']" in err

    @pytest.mark.parametrize("flags,seed", [([], 7), (["--seed", "11"], 11)])
    def test_the_simulation_seed_reaches_the_forward_solve(self, flags, seed, tmp_path, monkeypatch):
        # the disruptive strategy is indefinite on this fixture, so forward
        # draws random starts from simulation.seed, or from --seed
        doc = load_doc("signalized_link")
        doc["strategy"] = "disruptive"
        doc["simulation"] = {"seed": 7}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        seeds = []
        solve_general = forward.solve_general

        def spy(*args, seed, **kwargs):
            seeds.append(seed)
            return solve_general(*args, seed=seed, **kwargs)

        monkeypatch.setattr(forward, "solve_general", spy)
        assert main(["forward", "--scenario", str(path), "--out", str(tmp_path / "out.csv")] + flags) == EXIT_OK
        assert seeds == [seed]

    def test_deleted_certificate_knobs_exit_parse(self, tmp_path, capsys):
        # the certificate samples no directions and takes no finite
        # differences, and its positive-definiteness and rank thresholds
        # are fixed in code: a scenario still setting one of these knobs,
        # even to its former default, exits 2
        doc = load_doc("two_route_asymmetric")
        path = tmp_path / "scenario.json"
        for knobs in ({"n_dirs": 50, "tol_curv": 1e-8}, {"pd_rtol": 1e-9}, {"rank_rtol": 1e-9}):
            doc["tolerances"] = knobs
            path.write_text(json.dumps(doc))
            assert main(["certify", "--scenario", str(path), "--out", "-"]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert "error[parse]: bad-value at $.tolerances:" in err
            assert f"unknown tolerance fields: {sorted(knobs)}" in err

    @pytest.mark.parametrize(
        "key,value",
        [("tol_pg", 1e-9), ("tol_tie", 1e-9), ("tol_dd", 1e-8), ("tol_distinct", 1e-6),
         ("armijo_factor", 0.5), ("armijo_c1", 1e-4), ("discrete_starts", 20), ("max_outer_iter", 300),
         ("image_distance_norm", "l2"), ("ue_tol", 1e-10), ("tol_p", 1e-6), ("mixture_grid", 1001)],
    )
    def test_fixed_method_constants_exit_parse(self, key, value, tmp_path, capsys):
        # the line-search constants, the tie and distinct windows, the
        # discrete search's budget and the Stackelberg tolerances and grid
        # are fixed in code: a scenario still setting one, even to its
        # value, exits 2
        doc = load_doc("stackelberg_symmetric")
        doc["tolerances"] = {key: value}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["stackelberg", "--scenario", str(path), "--out", "-"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "error[parse]: bad-value at $.tolerances:" in err
        assert f"unknown tolerance fields: ['{key}']" in err

    def test_deleted_inverse_knobs_exit_parse(self, tmp_path, capsys):
        # no inverse runs an extragradient: a scenario still setting its
        # iteration cap or its step factor exits 2, in range or not
        for knobs in ({"max_vi_iter": 20000, "extragradient_safety": 0.9},
                      {"max_vi_iter": -1, "extragradient_safety": 1.5}):
            doc = load_doc("two_od")
            doc["tolerances"] = knobs
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(doc))
            assert main(["inverse", "--scenario", str(path), "--out", "-"]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert "error[parse]: bad-value at $.tolerances:" in err
            assert "unknown tolerance fields: ['extragradient_safety', 'max_vi_iter']" in err


def run_cli(args) -> int:
    return main(args)


def usage_error(args, capsys) -> list[str]:
    """The stderr lines of a run that must exit 2 on a parse error."""
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == EXIT_PARSE
    return capsys.readouterr().err.splitlines()


class TestParser:
    SCENARIO = str(fixture_path("stackelberg_symmetric"))

    def test_flags_take_their_values_and_defaults(self):
        subcommand, args = _parse_args(["stackelberg", "--scenario", self.SCENARIO, "--seed=3", "--mu", "0.5"])
        assert subcommand == "stackelberg"
        assert vars(args) == {"scenario": self.SCENARIO, "out": "-", "days": None, "mu": 0.5,
                              "resolution": 0.1, "seed": 3}
        assert vars(_parse_args(["lipschitz", "--scenario=x"])[1]) == {
            "scenario": "x", "out": "-", "samples": 200, "seed": None}

    def test_seed_given_with_an_equals_sign(self, tmp_path, capsys):
        reports = []
        for seed in (["--seed", "3"], ["--seed=3"]):
            out = tmp_path / "report.csv"
            assert run_cli(["simulate", "--scenario", self.SCENARIO, "--out", str(out), "--days", "5"] + seed) == EXIT_OK
            reports.append((out.read_bytes(), capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert "seed=3)" in reports[1][1]

    def test_repeated_flag_last_wins(self, tmp_path, capsys):
        out = tmp_path / "days.csv"
        args = ["simulate", "--scenario", self.SCENARIO, "--out", str(out), "--days", "2", "--days", "3"]
        assert run_cli(args) == EXIT_OK
        assert "simulated 3 days" in capsys.readouterr().out
        assert _parse_args(args)[1].days == 3

    @pytest.mark.parametrize("tail", [["--seed"], ["--seed", "--out", "-"]])
    def test_flag_without_a_value(self, tail, capsys):
        err = usage_error(["forward", "--scenario", self.SCENARIO] + tail, capsys)
        assert err == [
            "usage: fleet-inverse forward --scenario <path> --out <path> [--seed N]",
            "fleet-inverse forward: error: argument --seed: expected one argument",
        ]

    def test_negative_number_is_a_value(self, capsys):
        err = usage_error(["forward", "--scenario", self.SCENARIO, "--seed", "-1"], capsys)
        assert err[1] == "fleet-inverse forward: error: argument --seed: must lie in [0, 2**63), got '-1'"

    def test_value_of_the_wrong_type(self, capsys):
        err = usage_error(["simulate", "--scenario", self.SCENARIO, "--days", "two"], capsys)
        assert err[1] == "fleet-inverse simulate: error: argument --days: invalid int value: 'two'"

    def test_unknown_subcommand(self, capsys):
        err = usage_error(["frobnicate", "--scenario", self.SCENARIO], capsys)
        assert err == [
            "usage: fleet-inverse <subcommand> --scenario <path> --out <path>",
            "fleet-inverse: error: argument subcommand: invalid choice: 'frobnicate' (choose from "
            + ", ".join(repr(name) for name in SUBCOMMANDS) + ")",
        ]

    def test_missing_subcommand(self, capsys):
        assert usage_error([], capsys) == [
            "usage: fleet-inverse <subcommand> --scenario <path> --out <path>",
            "fleet-inverse: error: the following arguments are required: subcommand",
        ]

    def test_missing_scenario(self, capsys):
        # a missing flag is named before an unrecognized one
        assert usage_error(["simulate", "--out", "-", "--bogus"], capsys) == [
            "usage: fleet-inverse simulate --scenario <path> --out <path> [--days D] [--mu X] [--seed N]",
            "fleet-inverse simulate: error: the following arguments are required: --scenario",
        ]

    def test_prefix_abbreviations_are_not_flags(self, capsys):
        err = usage_error(["forward", "--scenario", self.SCENARIO, "--se", "3", "--out=-"], capsys)
        assert err[1] == "fleet-inverse forward: error: unrecognized arguments: --se 3"

    @pytest.mark.parametrize("args", [["--help"], ["forward", "-h"], ["simulate", "--scenario", "x", "--help"]])
    def test_help(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: " + _usage().replace("\n", "\n       ") + "\n")
        for flag in OPTIONS:
            assert f"--{flag} " in out

    def test_a_run_imports_no_argparse(self, tmp_path):
        # the option table's parser needs neither argparse nor the gettext
        # and locale modules argparse loads; a run of one fixture in a fresh
        # interpreter imports none of them
        out = tmp_path / "forward.csv"
        code = (
            "import sys\n"
            "from fleet_inverse.cli import main\n"
            f"code = main(['forward', '--scenario', {self.SCENARIO!r}, '--out', {str(out)!r}])\n"
            "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
            "sys.exit(code)\n"
        )
        src = str(Path(forward.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert out.read_text().startswith("route,")


class TestCLI:
    def test_inverse_discrete_fixture(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli(
            ["inverse", "--scenario", str(fixture_path("discrete_two_route")), "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        for row in rows:
            assert float(row["fleet_flow_hat"]) == pytest.approx(9.5, abs=1e-6)
            assert row["theorem_applies"] == "1"

    def test_classify_concave(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli(
            ["classify", "--scenario", str(fixture_path("stackelberg_symmetric")), "--out", str(out)]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert "ConcaveEverywhere" in text

    def test_forward_no_fleet(self, tmp_path):
        doc = load_doc("two_route_asymmetric")
        doc["units"][0]["q_crv"] = 0.0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.csv"
        assert run_cli(["forward", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["fleet_flow"]) == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["simulate", "--scenario", str(fixture_path("stackelberg_symmetric")), "--days", "40"]
        assert run_cli(args + ["--out", str(out1)]) == EXIT_OK
        assert run_cli(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["forward", "--scenario", str(bad), "--out", "-"]) == EXIT_PARSE
        assert "error[parse]" in capsys.readouterr().err

    def test_infeasible_exit_code(self, tmp_path, capsys):
        doc = load_doc("discrete_two_route")
        doc["observed"] = {"route_flows": [1.0, 2.0]}  # less than the fleet size
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["inverse", "--scenario", str(path), "--out", "-"]) == EXIT_INFEASIBLE
        assert "error[infeasible]" in capsys.readouterr().err

    def test_delay_domain_exit_code(self, tmp_path, capsys):
        # BPR power 0.5 has no derivative on the route without flow
        doc = load_doc("two_route_asymmetric")
        for link in doc["links"]:
            link["delay"]["power"] = 0.5
        doc["hdv_route_flows"] = [10.0, 0.0]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["forward", "--scenario", str(path), "--out", "-"]) == EXIT_INFEASIBLE
        assert "error[infeasible]" in capsys.readouterr().err

    def test_resolution_whose_grid_overshoots_one(self, capsys):
        # np.arange(0, 1.075, 0.15) ends at 1.05; the unclipped sweep raised
        # a ValueError on that split fraction (exit 1, a code not documented)
        args = ["stackelberg", "--scenario", str(fixture_path("stackelberg_symmetric")), "--out", "-"]
        assert run_cli(args + ["--resolution", "0.15"]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err

    def test_unsupported_exit_code(self, tmp_path, capsys):
        # the Stackelberg analysis is limited to two-route networks
        assert (
            run_cli(["stackelberg", "--scenario", str(fixture_path("two_od")), "--out", "-"])
            == EXIT_UNSUPPORTED
        )
        err = capsys.readouterr().err
        assert "error[unsupported]" in err
        assert "covers two-route networks" in err

    @pytest.mark.parametrize(
        "subcommand,flag,value",
        [
            ("forward", "--days", "5"),
            ("inverse", "--mu", "0.5"),
            ("simulate", "--resolution", "0.25"),
            ("stackelberg", "--samples", "10"),
            ("lipschitz", "--days", "5"),
            ("classify", "--seed", "1"),
            ("certify", "--seed", "1"),
            ("inverse", "--seed", "1"),
            ("fiber", "--seed", "1"),
        ],
    )
    def test_flag_only_where_read(self, subcommand, flag, value, capsys):
        args = [subcommand, "--scenario", str(fixture_path("stackelberg_symmetric")), "--out", "-"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args + [flag, value])
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_usage_matches_the_parser(self):
        # the README's usage block is the usage text the option table gives,
        # and lists for each subcommand exactly the flags the table gives it:
        # the "<subcommand>" line those of every subcommand, a named line the
        # ones only that subcommand adds
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command-line interface", 1)[1].split("```")[1]
        assert block.strip("\n") == _usage()
        listed = {}
        for line in _usage().splitlines():
            name = line.split()[1]
            assert name not in listed, f"{name} listed twice"
            listed[name] = set(re.findall(r"--[a-z]+", line))
        common = listed.pop("<subcommand>")
        assert set(listed) <= set(SUBCOMMANDS)
        for name in SUBCOMMANDS:
            taken = {f"--{flag}" for flag, option in OPTIONS.items() if name in option.subcommands}
            assert common | listed.get(name, set()) == taken, name

    def test_inverse_above_vertex_cap(self, tmp_path, capsys):
        # each unit of two_od has three active partitions that hold its
        # fleet, so the solution set is listed at vertex_cap 9 and refused,
        # like every other enumeration, at 8: exit 5 and no report
        full = tmp_path / "full.csv"
        assert run_cli(["inverse", "--scenario", str(fixture_path("two_od")), "--out", str(full)]) == EXIT_OK
        assert "3 distinct solutions exhibited" in capsys.readouterr().out.splitlines()
        lines = full.read_text().splitlines()
        col = lines[0].split(",").index("n_solutions")
        assert {line.split(",")[col] for line in lines[1:]} == {"3"}
        doc = load_doc("two_od")
        for cap, code in ((9, EXIT_OK), (8, EXIT_UNSUPPORTED)):
            doc["tolerances"] = {"vertex_cap": cap}
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(doc))
            capped = tmp_path / f"capped{cap}.csv"
            assert run_cli(["inverse", "--scenario", str(path), "--out", str(capped)]) == code
            captured = capsys.readouterr()
            if code == EXIT_OK:
                assert capped.read_text() == full.read_text()
            else:
                assert not capped.exists()
                assert "face enumeration exceeded the cap of 8; raise vertex_cap" in captured.err

    def test_forward_without_starts_above_vertex_cap(self, tmp_path, capsys):
        # the disruptive objective is indefinite here, so the forward starts
        # from the vertices and n_starts random points: with neither, the
        # vertex enumeration's refusal is the answer, exit 5
        doc = load_doc("signalized_link")
        doc["strategy"] = "disruptive"
        doc["tolerances"] = {"n_starts": 0, "vertex_cap": 1}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["forward", "--scenario", str(path), "--out", "-"]) == EXIT_UNSUPPORTED
        assert "vertex enumeration exceeded the cap of 1; raise vertex_cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand,flag,value",
        [
            ("simulate", "--days", "0"),
            ("stackelberg", "--days", "0"),
            ("simulate", "--mu", "2"),
            ("stackelberg", "--mu", "-0.5"),
            ("simulate", "--mu", "nan"),
            ("stackelberg", "--resolution", "0"),
            ("stackelberg", "--resolution", "-1"),
            ("stackelberg", "--resolution", "1.5"),
            ("lipschitz", "--samples", "-3"),
            ("lipschitz", "--samples", "0"),
            ("forward", "--seed", "-1"),
            ("simulate", "--seed", "-1"),
            ("lipschitz", "--seed", "99999999999999999999999"),
            ("lipschitz", "--seed", str(2**63)),
        ],
    )
    def test_override_out_of_range(self, subcommand, flag, value, capsys):
        # --days 0 and --mu 2 used to exit 1 with a ValueError, --resolution
        # 0 with a ZeroDivisionError; --resolution -1 reported "worst margin
        # inf over 0 mixtures" and --samples -3 a report of -3 samples; a
        # negative --seed and one of 2**64 or more crashed numpy's generators
        # (exit 1)
        args = [subcommand, "--scenario", str(fixture_path("stackelberg_symmetric")), "--out", "-"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args + [flag, value])
        assert exc.value.code == EXIT_PARSE
        assert f"argument {flag}: must " in capsys.readouterr().err

    def test_cross_dependent_unstable_stackelberg_terminates(self, tmp_path):
        # the malicious objective is linear on this network, so each
        # simulated day is one corner enumeration
        out = tmp_path / "stackelberg.csv"
        args = ["stackelberg", "--scenario", str(fixture_path("cross_dependent_unstable"))]
        assert run_cli(args + ["--out", str(out)]) == EXIT_OK
        assert out.read_text().count("\n") == 2

    @pytest.mark.parametrize(
        "name,label",
        [
            ("signalized_link", "ConvexEverywhere"),
            ("cross_dependent_stable", "ConvexEverywhere"),
            ("cross_dependent_unstable", "ConcaveEverywhere"),
        ],
    )
    def test_classify_by_structure(self, name, label, capsys):
        assert run_cli(["classify", "--scenario", str(fixture_path(name)), "--out", "-"]) == EXIT_OK
        assert f"objective classification: {label}" in capsys.readouterr().out

    def test_fiber_concentrated(self, tmp_path):
        out = tmp_path / "fiber.csv"
        code = run_cli(
            [
                "fiber",
                "--scenario",
                str(fixture_path("two_stage_overlap_concentrated")),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        rep = {row["route"]: float(row["representative"]) for row in rows}
        assert rep["r1"] == pytest.approx(50.0, abs=1e-6)
        assert rep["r2"] == pytest.approx(0.0, abs=1e-6)
        assert rep["r3"] == pytest.approx(0.0, abs=1e-6)
        assert rep["r4"] == pytest.approx(50.0, abs=1e-6)

    def test_certify_needs_flows(self, capsys):
        code = run_cli(
            ["certify", "--scenario", str(fixture_path("two_route_asymmetric")), "--out", "-"]
        )
        assert code == EXIT_PARSE  # fleet_route_flows missing

    def test_certify_full_report(self, tmp_path):
        from fleet_inverse import fleet_assign
        from fleet_inverse.scenario import parse_scenario

        base = parse_scenario(fixture_path("two_route_asymmetric"))
        best = fleet_assign(base.strategy, base.hdv_route_flows, base.network)
        doc = load_doc("two_route_asymmetric")
        doc["fleet_route_flows"] = [float(x) for x in best.f]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "certify.csv"
        assert run_cli(["certify", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["is_local_min"] == "1"
        assert row["pd_passes"] == "1"
        assert row["routes_independent"] == "1"
        assert float(row["margin"]) == 1.0

    def test_certify_reports_the_route_fiber_dimension(self, tmp_path):
        # r2 and r3 share link b but lie in different units, whose sums pin
        # them: the route fiber is a point, as the inverse reports, though
        # the link-route incidence has a null direction (the column read 1)
        from fleet_inverse import solve_inverse
        from fleet_inverse.scenario import parse_scenario

        doc = load_doc("two_unit")
        doc["fleet_route_flows"] = [5.0, 5.0, 5.0]
        doc["hdv_route_flows"] = [15.0, 15.0, 5.0]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "certify.csv"
        assert run_cli(["certify", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert (row["routes_independent"], row["fiber_dimension"]) == ("0", "0")
        base = parse_scenario(fixture_path("two_unit"))
        assert solve_inverse(base.strategy, base.observed_route_flows, base.network).fiber.dimension == 0

    @pytest.mark.parametrize("flows", [[0.0, 0.0], [30.0, 30.0]])
    def test_certify_outside_the_feasible_set_exits_infeasible(self, flows, tmp_path, capsys):
        # the fleet size is 50: at (0, 0) no pair swap is feasible, and the
        # certificate used to pass with derivative inf (exit 0)
        doc = load_doc("two_route_asymmetric")
        doc["fleet_route_flows"] = flows
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["certify", "--scenario", str(path), "--out", str(tmp_path / "certify.csv")])
        assert code == EXIT_INFEASIBLE
        assert "error[infeasible]: fleet flows must be finite and lie in the feasible set" in capsys.readouterr().err

    def test_inverse_on_a_lambda_pair(self, tmp_path, capsys):
        # the pair of the selfish preset gives the preset's report, byte for
        # byte; another pair gives its own margin
        doc = load_doc("two_od")
        for pair, margin in (((0.0, 1.0), 1.0), ((0.25, 1.5), 1.25)):
            doc["strategy"] = {"lambda_hdv": pair[0], "lambda_crv": pair[1]}
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / "report.csv"
            assert run_cli(["inverse", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
            stdout = capsys.readouterr().out
            if pair == (0.0, 1.0):
                digests = (hashlib.sha256(out.read_bytes()).hexdigest(), hashlib.sha256(stdout.encode()).hexdigest())
                assert digests == REPORT_SHA256["inverse", "two_od"]
            lines = out.read_text().splitlines()
            assert {float(dict(zip(lines[0].split(","), line.split(",")))["margin"]) for line in lines[1:]} == {margin}

    def test_forward_at_its_iteration_cap_exits_nonconverged(self, tmp_path, capsys):
        doc = load_doc("two_route_asymmetric")
        doc["tolerances"] = {"max_pg_iter": 1}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["forward", "--scenario", str(path), "--out", str(tmp_path / "out.csv")]) == EXIT_NONCONVERGED
        assert "error[nonconverged]: forward solver hit its iteration cap" in capsys.readouterr().err

    def test_inverse_short_of_its_residual_target_exits_nonconverged(self, tmp_path, capsys):
        # no solution's VI gap meets a tolerance of 1e-300
        doc = load_doc("cross_dependent_stable")
        doc["tolerances"] = {"tol_vi": 1e-300}
        code, out, err = run_document(doc, "inverse", tmp_path, capsys)
        assert (code, out) == (EXIT_NONCONVERGED, "")
        assert err == "error[nonconverged]: inverse solver did not reach its residual target\n"

    def test_tied_minimizers_are_summarized(self, tmp_path, capsys):
        # the malicious objective is concave, and with the HDVs split evenly
        # over two equal routes, the fleet on either route is a minimizer
        doc = load_doc("stackelberg_symmetric")
        doc["hdv_route_flows"] = [25.0, 25.0]
        code, out, _ = run_document(doc, "forward", tmp_path, capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].endswith(",n_minimizers") and lines[1].endswith(",2") and lines[2].endswith(",2")
        assert lines[-1] == "2 tied minimizers found"

    def test_fiber_with_observed_link_flows(self, tmp_path, capsys):
        # the observation given as link flows is the observed total, as
        # inverse reads it: fiber recovers the same fleet link flow from it
        # as from the route flows it is the image of
        scenario = parse_scenario(fixture_path("two_od"))
        doc = load_doc("two_od")
        doc["observed"] = {"link_flows": scenario.network.route_to_link(scenario.observed_route_flows).tolist()}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        fleet_link_flows = []
        for scenario_path in (fixture_path("two_od"), path):
            out = tmp_path / "fiber.csv"
            assert run_cli(["fiber", "--scenario", str(scenario_path), "--out", str(out)]) == EXIT_OK
            summary = capsys.readouterr().out.splitlines()
            fleet_link_flows.append(summary[1])
        assert summary[0] == "fleet link flow recovered from observed link flows"
        assert fleet_link_flows[0] == fleet_link_flows[1] == "fleet link flow: a=20, b=20, c=20, d=20"

    def test_inverse_with_observed_link_flows(self, tmp_path):
        doc = load_doc("two_stage_overlap")
        doc["observed"] = {"link_flows": [200.0, 200.0, 200.0, 200.0]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "link_inverse.csv"
        assert run_cli(["inverse", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "link"
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["fleet_flow_hat"]) == pytest.approx(50.0, abs=1e-6)
            assert row["theorem_applies"] == "1"

    def test_stackelberg_summary(self, tmp_path, capsys):
        out = tmp_path / "stack.csv"
        code = run_cli(
            [
                "stackelberg",
                "--scenario",
                str(fixture_path("stackelberg_symmetric")),
                "--out",
                str(out),
                "--days",
                "60",
                "--resolution",
                "0.25",
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["nash_exists"] == "0"
        assert float(row["p_best"]) == pytest.approx(0.5, abs=1e-4)

    def test_lipschitz_report(self, tmp_path):
        out = tmp_path / "lip.csv"
        code = run_cli(
            [
                "lipschitz",
                "--scenario",
                str(fixture_path("two_route_asymmetric")),
                "--out",
                str(out),
                "--samples",
                "50",
            ]
        )
        assert code == EXIT_OK
        row = dict(
            zip(
                out.read_text().splitlines()[0].split(","),
                out.read_text().splitlines()[1].split(","),
            )
        )
        assert float(row["bound"]) > 0
        assert row["defined"] == "1"


class TestReportBytes:
    """Every report that exits 0 keeps the bytes of its CSV and of its
    summary."""

    @pytest.mark.parametrize("subcommand,name", list(REPORT_SHA256))
    def test_report_sha256(self, subcommand, name, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run_cli([subcommand, "--scenario", str(fixture_path(name)), "--out", str(out)]) == EXIT_OK
        digests = (hashlib.sha256(out.read_bytes()).hexdigest(),
                   hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert digests == REPORT_SHA256[subcommand, name]

    def test_fixture_descents_accept_their_first_trial(self, tmp_path, monkeypatch, capsys):
        # the forward descent's line search tries the full step first; no
        # fixture descent rejects it, so the interpolated backtracking
        # (forward._backtrack) changes no report byte
        backtracks, iterations = [], []
        descend = forward._descend

        def counting(*args):
            out = descend(*args)
            iterations.append(out[1])
            return out

        monkeypatch.setattr(forward, "_descend", counting)
        monkeypatch.setattr(forward, "_backtrack", lambda *args: backtracks.append(args) or 0.0)
        for subcommand, name in REPORT_SHA256:
            run_cli([subcommand, "--scenario", str(fixture_path(name)), "--out", str(tmp_path / "out.csv")])
        capsys.readouterr()
        assert backtracks == []
        assert sum(iterations) >= 800  # 810 descent iterations in all


# fixtures that give observed flows and no HDV flows: the inverse side reads
# them, the forward side (forward, simulate) rejects them; certify needs both
# kinds of flow, which no fixture gives
OBSERVED_ONLY = {
    "cross_dependent_stable", "cross_dependent_unstable", "discrete_two_route", "two_od",
    "two_route_common_links", "two_stage_overlap", "two_stage_overlap_concentrated", "two_unit",
}
# networks of more than two routes, which the Stackelberg analysis does not cover
NOT_TWO_ROUTE = {"two_od", "two_stage_overlap", "two_stage_overlap_concentrated", "two_unit"}
# about 0.2 s for the slowest cell in-process; a cell that overruns has hung
CELL_BUDGET_S = 30.0


def documented_exit(name: str, subcommand: str) -> int:
    if subcommand == "certify":
        return EXIT_PARSE
    if subcommand in ("forward", "simulate"):
        return EXIT_PARSE if name in OBSERVED_ONLY else EXIT_OK
    if subcommand in ("inverse", "fiber"):
        return EXIT_OK if name in OBSERVED_ONLY else EXIT_PARSE
    if subcommand == "stackelberg" and name in NOT_TWO_ROUTE:
        return EXIT_UNSUPPORTED
    return EXIT_OK


class TestCliMatrix:
    """Every fixture x subcommand cell ends within its budget with its
    documented exit code."""

    def test_documented_exit_counts(self):
        counts = collections.Counter(
            documented_exit(name, sub) for name in ALL_FIXTURES for sub in SUBCOMMANDS
        )
        assert counts == {EXIT_OK: 51, EXIT_PARSE: 33, EXIT_UNSUPPORTED: 4}

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_cell_exit_code_within_budget(self, name, subcommand, tmp_path, capsys):
        def overrun(signum, frame):
            pytest.fail(f"{name} {subcommand} ran past its {CELL_BUDGET_S:.0f} s budget")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, CELL_BUDGET_S)
        try:
            code = main([subcommand, "--scenario", str(fixture_path(name)), "--out", str(tmp_path / "out.csv")])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code == documented_exit(name, subcommand)

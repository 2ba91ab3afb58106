"""Scenario parsing, CSV reports, determinism, error categories."""

import collections
import hashlib
import json
import signal

import numpy as np
import pytest

from fleet_inverse.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    SUBCOMMANDS,
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
    scenario_to_dict,
)

ALL_FIXTURES = list_fixtures()

# sha256 of each report with default flags, as the per-link scalar kernels and
# the one-mixture-at-a-time Stackelberg solves wrote it; the batched paths keep
# every byte
STACKELBERG_SHA256 = {
    "cross_dependent_stable": "975f7c4abb5298eaad89ac3b20ebed2254783d8cc906c8947b7ebf1c15ba06d8",
    "cross_dependent_unstable": "2755284f4ffb92ec5d91c39a32029e4cb449a5c7dce1e1612a6366539ca0136b",
    "discrete_two_route": "69e19403f6729f744f19b33c82a1343debe5e6f1818ed72f3d3af755283626ad",
    "signalized_link": "1ffc4dcf1e1aed2b1a4013064494c6c32dc3c285d2836597ce257af516763ba7",
    "stackelberg_symmetric": "bd69dd9ea7ff838494411352752628e57ed11d3bbcea3d5de51d8a1e357c6191",
    "two_route_asymmetric": "291252ab36ed7daf3dad6bb66084e2292f5efbfeb2ea0010b3aa3c3dbfbce7af",
    "two_route_common_links": "01f54ae03da0c81e40dfb5f63ae35858723a6a2d9d9ff86edd69cbaefe779f2f",
}
LIPSCHITZ_SHA256 = {
    "cross_dependent_stable": "feb8448e5b5422b3e6fa0b189aa946a83accbbb1f200a0fa30ee8f9214316312",
    "cross_dependent_unstable": "e1aeb428a2a0400a419a077e3a0daf024a87afa3cfa3329e6626a49c036c20f2",
    "discrete_two_route": "8fe360781d088f4ca497d761fe2316459133914e432dce792e469e7ceec940b2",
    "signalized_link": "1b81ccc587ed57ef654b2f7e5a313fc883e7fdddf7025f4a5974f68388051a52",
    "stackelberg_symmetric": "dc8fb70542a863cd55359463775794300a19d081b06c237bc8c5d91d248018f2",
    "two_od": "00afce080f8430490b162f432a2c3d6c74d7735e4741bc3bbaba1dba2ec914d2",
    "two_route_asymmetric": "95349eddba090204a3782a673b1cab2903f142347b8aa92ccbdd8ac281bc5102",
    "two_route_common_links": "974ee5d7d0970fd5c36f5459fb2d8066b65ac4abbfac62b3b01466c281a253d5",
    "two_stage_overlap": "1259eb532f0b25855ea11d6fbb14e22b611d62823f2f7ea8fc7e01c07d1b44e5",
    "two_stage_overlap_concentrated": "1259eb532f0b25855ea11d6fbb14e22b611d62823f2f7ea8fc7e01c07d1b44e5",
    "two_unit": "de837bbb58ca598dbaf0c29e8e0f5874b8d9ef71d84db02d8be6bf79eee90868",
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
        doc["tolerances"] = {"tol_vi": 1e-6, "vertex_cap": 8, "image_distance_norm": "l1"}
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
        assert parse_error(with_delay(spec)) == ("bad-value", "$.links[1].delay")


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
        [("tol_p", -1.0), ("tol_vi", 0.0), ("pd_rtol", -1e-9), ("ue_tol", 0.0), ("mixture_grid", 0),
         ("mixture_grid", 1), ("n_starts", -1), ("discrete_starts", -1),
         ("vertex_cap", -1), ("vertex_cap", 0), ("max_pg_iter", 0), ("max_vi_iter", -1),
         ("max_outer_iter", 0), ("armijo_factor", 1.0), ("armijo_c1", 0.0),
         ("extragradient_safety", 1.5)],
    )
    def test_out_of_range_tolerance(self, key, value):
        # well-typed values outside a field's range: a negative tol_p used to
        # hang stackelberg, mixture_grid 0 crashed it (exit 1), and the rest
        # were accepted silently
        doc = load_doc("stackelberg_symmetric")
        doc["tolerances"] = {key: value}
        assert parse_error(doc) == ("bad-value", "$.tolerances")

    def test_deleted_certificate_knobs_exit_parse(self, tmp_path, capsys):
        # the certificate samples no directions and takes no finite
        # differences: a scenario still setting its two knobs exits 2
        doc = load_doc("two_route_asymmetric")
        doc["tolerances"] = {"n_dirs": 50, "tol_curv": 1e-8}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", "--scenario", str(path), "--out", "-"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "error[parse]: bad-value at $.tolerances:" in err
        assert "unknown tolerance fields: ['n_dirs', 'tol_curv']" in err


def run_cli(args) -> int:
    return main(args)


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
        ],
    )
    def test_flag_only_where_read(self, subcommand, flag, value, capsys):
        args = [subcommand, "--scenario", str(fixture_path("stackelberg_symmetric")), "--out", "-"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args + [flag, value])
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_inverse_above_vertex_cap(self, tmp_path, capsys):
        # each unit of two_od has three active partitions that hold its fleet
        def n_solutions(path):
            lines = path.read_text().splitlines()
            col = lines[0].split(",").index("n_solutions")
            return lines[0], {line.split(",")[col] for line in lines[1:]}

        full = tmp_path / "full.csv"
        assert run_cli(["inverse", "--scenario", str(fixture_path("two_od")), "--out", str(full)]) == EXIT_OK
        full_stdout = capsys.readouterr().out.splitlines()
        doc = load_doc("two_od")
        doc["tolerances"] = {"vertex_cap": 8}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        capped = tmp_path / "capped.csv"
        assert run_cli(["inverse", "--scenario", str(path), "--out", str(capped)]) == EXIT_OK
        capped_stdout = capsys.readouterr().out.splitlines()
        assert [line for line in capped_stdout if line not in full_stdout] == [
            "solution set not enumerated: more than vertex_cap = 8 active partitions"
        ]
        assert [line for line in full_stdout if line not in capped_stdout] == [
            "3 distinct solutions exhibited"
        ]
        header, counts = n_solutions(full)
        assert counts == {"3"}
        assert n_solutions(capped) == (header, {"1"})

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
        ],
    )
    def test_override_out_of_range(self, subcommand, flag, value, capsys):
        # --days 0 and --mu 2 used to exit 1 with a ValueError, --resolution
        # 0 with a ZeroDivisionError; --resolution -1 reported "worst margin
        # inf over 0 mixtures" and --samples -3 a report of -3 samples
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
    """The stackelberg report of every two-route fixture and the lipschitz
    report of every fixture keep their bytes."""

    @pytest.mark.parametrize(
        "subcommand,name",
        [("stackelberg", name) for name in STACKELBERG_SHA256]
        + [("lipschitz", name) for name in LIPSCHITZ_SHA256],
    )
    def test_report_sha256(self, subcommand, name, tmp_path):
        digests = STACKELBERG_SHA256 if subcommand == "stackelberg" else LIPSCHITZ_SHA256
        out = tmp_path / "report.csv"
        assert run_cli([subcommand, "--scenario", str(fixture_path(name)), "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[name]


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

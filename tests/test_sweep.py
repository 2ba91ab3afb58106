"""One digest per forward and inverse case of a fixed sweep: a change that
claims the same results keeps every one.

The cases:

- every bundled fixture x the 5 presets and 6 weight pairs: `fleet_assign`
  from the fixture's HDV flows (each unit's q_hdv split equally over its
  routes where the fixture has none), and `solve_inverse` and
  `inverse_link_flows` at the fixture's observation, or at h plus the
  forward's f where it has none;
- the 36 selfish route-ladder draws (instance seeds 2024, 77, 2) at both
  inverse levels, observed at h plus the selfish forward's f;
- the overlapping-route draws at R = 20, 50, 100: the selfish forward and
  both inverse levels at h plus its f.

A forward case hashes f, the objective, the certificate and the tie set;
an inverse case f_hat, the residual, every solution, the certificate's
verdict and reason, `converged` and the route fiber; a case that raises,
the error's type and message.  A moved case is named in the failure.
"""

import hashlib
import struct

import numpy as np
import pytest

from fleet_inverse import FleetStrategy, fleet_assign, inverse_link_flows, solve_inverse
from fleet_inverse.config import DEFAULT_CONFIG
from fleet_inverse.objective import PRESETS
from fleet_inverse.scenario import fixture_path, list_fixtures, parse_scenario
from conftest import overlapping_routes, route_ladder

PAIRS = ((0.5, 0.2), (1.0, 0.5), (2.0, 1.0), (0.2, 0.5), (0.5, 1.0), (1.0, 2.0))
STRATEGIES = {**PRESETS, **{f"{h},{c}": FleetStrategy(h, c) for h, c in PAIRS}}
SELFISH = PRESETS["selfish"]


class _Digest:
    """sha256 over a case's values, each tagged by its kind; 16 hex digits."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, *values):
        for value in values:
            if value is None:
                self.sha.update(b"N")
            elif isinstance(value, str):
                self.sha.update(b"S" + struct.pack("<q", len(value)) + value.encode())
            elif isinstance(value, (bool, np.bool_)):
                self.sha.update(b"B" + bytes([bool(value)]))
            elif isinstance(value, (tuple, list)):
                self.sha.update(b"T" + struct.pack("<q", len(value)))
                self.add(*value)
            else:
                array = np.ascontiguousarray(value, dtype=np.float64)
                self.sha.update(b"A" + struct.pack("<q", array.ndim) + struct.pack(f"<{array.ndim}q", *array.shape))
                self.sha.update(array.tobytes())
        return self

    def hexdigest(self) -> str:
        return self.sha.hexdigest()[:16]


def _error(digest: _Digest, error: Exception) -> str:
    return digest.add("raised", type(error).__name__, str(error)).hexdigest()


def _forward_case(strategy, h, network, config=DEFAULT_CONFIG):
    """(digest, f or None) of one fleet_assign."""
    digest = _Digest()
    try:
        result = fleet_assign(strategy, h, network, config=config)
    except Exception as error:  # noqa: BLE001 (the error is the case's result)
        return _error(digest, error), None
    cert = result.certificate
    digest.add(result.f, result.objective, cert.is_local_min, cert.min_directional_derivative, list(result.minimizer_set))
    return digest.hexdigest(), result.f


def _inverse_case(solve, *args, **kwargs) -> str:
    digest = _Digest()
    try:
        result = solve(*args, **kwargs)
    except Exception as error:  # noqa: BLE001
        return _error(digest, error)
    cert = result.certificate
    digest.add(
        result.f_hat, result.residual, list(result.solutions),
        cert.theorem_applies, cert.reason, result.converged,
    )
    fiber = result.fiber
    digest.add(None if fiber is None else [fiber.representative, fiber.basis, [list(i) for i in fiber.intervals]])
    return digest.hexdigest()


def _split_hdv(network) -> np.ndarray:
    h = np.zeros(network.n_routes)
    for unit, block in zip(network.units_or_raise(), network.unit_blocks()):
        h[block] = unit.q_hdv / len(block)
    return h


def fixture_sweep() -> dict:
    out = {}
    for name in list_fixtures():
        sc = parse_scenario(fixture_path(name))
        net, config = sc.network, sc.config
        h = sc.hdv_route_flows if sc.hdv_route_flows is not None else _split_hdv(net)
        for label, strategy in STRATEGIES.items():
            out[f"forward/{name}/{label}"], f = _forward_case(strategy, h, net, config)
            q = sc.observed_route_flows
            if q is None and f is None:
                out[f"route/{name}/{label}"] = out[f"link/{name}/{label}"] = "forward raised"
                continue
            if q is None:
                q = h + f
            out[f"route/{name}/{label}"] = _inverse_case(solve_inverse, strategy, q, net, config=config)
            out[f"link/{name}/{label}"] = _inverse_case(
                inverse_link_flows, strategy, net.route_to_link(q), net, config=config
            )
    return out


def ladder_sweep() -> dict:
    out = {}
    for seed in (2024, 77, 2):
        for i, (h, net) in enumerate(route_ladder(seed)):
            q = h + fleet_assign(SELFISH, h, net, certify=False).f
            out[f"route/ladder{seed}/{i}"] = _inverse_case(solve_inverse, SELFISH, q, net)
            out[f"link/ladder{seed}/{i}"] = _inverse_case(inverse_link_flows, SELFISH, net.route_to_link(q), net)
    return out


def overlapping_sweep() -> dict:
    out = {}
    for r in (20, 50, 100):
        h, net = overlapping_routes(r)
        out[f"forward/overlap{r}"], f = _forward_case(SELFISH, h, net)
        out[f"route/overlap{r}"] = _inverse_case(solve_inverse, SELFISH, h + f, net)
        out[f"link/overlap{r}"] = _inverse_case(inverse_link_flows, SELFISH, net.route_to_link(h + f), net)
    return out


SWEEPS = {"fixtures": fixture_sweep, "ladder": ladder_sweep, "overlapping": overlapping_sweep}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_every_case_keeps_its_digest(sweep):
    got = SWEEPS[sweep]()
    expected = {case: digest for case, digest in SWEEP_SHA256.items() if _family(case) == sweep}
    moved = sorted(case for case in expected.keys() | got.keys() if got.get(case) != expected.get(case))
    assert not moved, f"{len(moved)} cases moved: {moved}"


def _family(case: str) -> str:
    name = case.split("/")[1]
    if name.startswith("ladder"):
        return "ladder"
    if name.startswith("overlap"):
        return "overlapping"
    return "fixtures"


SWEEP_SHA256 = {
    "forward/cross_dependent_stable/selfish": "c282ab873b54f569",
    "route/cross_dependent_stable/selfish": "39648857e7855f60",
    "link/cross_dependent_stable/selfish": "1cee97579e524f38",
    "forward/cross_dependent_stable/altruistic": "bc99c4b73340b49b",
    "route/cross_dependent_stable/altruistic": "ac1dbc4a56bcade4",
    "link/cross_dependent_stable/altruistic": "ca741d8ae8a9d3f6",
    "forward/cross_dependent_stable/malicious": "6909dcbce15743a9",
    "route/cross_dependent_stable/malicious": "ae1914605057f74c",
    "link/cross_dependent_stable/malicious": "85c35646bd69eb7c",
    "forward/cross_dependent_stable/social": "ab25cb09356cee2b",
    "route/cross_dependent_stable/social": "c4e015869390fce5",
    "link/cross_dependent_stable/social": "110a9a1268ba1416",
    "forward/cross_dependent_stable/disruptive": "8d13fb0def6e06be",
    "route/cross_dependent_stable/disruptive": "3366e444bf348332",
    "link/cross_dependent_stable/disruptive": "9506e946e08cac3c",
    "forward/cross_dependent_stable/0.5,0.2": "9f46327fa56401ed",
    "route/cross_dependent_stable/0.5,0.2": "c4e015869390fce5",
    "link/cross_dependent_stable/0.5,0.2": "c1c7978a444b4bcd",
    "forward/cross_dependent_stable/1.0,0.5": "8a2990fa4c499625",
    "route/cross_dependent_stable/1.0,0.5": "e92173a1556b2f48",
    "link/cross_dependent_stable/1.0,0.5": "2e37061097620de6",
    "forward/cross_dependent_stable/2.0,1.0": "1c3ae447e86daf28",
    "route/cross_dependent_stable/2.0,1.0": "5ee8cb54881b37d6",
    "link/cross_dependent_stable/2.0,1.0": "759c795af5729e37",
    "forward/cross_dependent_stable/0.2,0.5": "19f56b418b9021fc",
    "route/cross_dependent_stable/0.2,0.5": "cc3bfcb779c0df7d",
    "link/cross_dependent_stable/0.2,0.5": "e486306e66a740f2",
    "forward/cross_dependent_stable/0.5,1.0": "9ceb53958c359e12",
    "route/cross_dependent_stable/0.5,1.0": "96a7eff7c192fce7",
    "link/cross_dependent_stable/0.5,1.0": "7a26af6c30528c96",
    "forward/cross_dependent_stable/1.0,2.0": "851f292c04c384d8",
    "route/cross_dependent_stable/1.0,2.0": "035d519c2527b51b",
    "link/cross_dependent_stable/1.0,2.0": "4698b913e4178908",
    "forward/cross_dependent_unstable/selfish": "d10b64f85648953a",
    "route/cross_dependent_unstable/selfish": "04270129c318a578",
    "link/cross_dependent_unstable/selfish": "0d8bbd21564f7472",
    "forward/cross_dependent_unstable/altruistic": "f3941b2b8ae58575",
    "route/cross_dependent_unstable/altruistic": "bbdff4b82fb1ae1c",
    "link/cross_dependent_unstable/altruistic": "c1c7978a444b4bcd",
    "forward/cross_dependent_unstable/malicious": "98ec94bd85dd3c4a",
    "route/cross_dependent_unstable/malicious": "34bef876cf6439e7",
    "link/cross_dependent_unstable/malicious": "4f018d15ea39c7be",
    "forward/cross_dependent_unstable/social": "aa5edbc246cf6cd5",
    "route/cross_dependent_unstable/social": "ccd10d390e30a164",
    "link/cross_dependent_unstable/social": "35be1bf92734fdbc",
    "forward/cross_dependent_unstable/disruptive": "8e980123985c5089",
    "route/cross_dependent_unstable/disruptive": "78794d118636d8b1",
    "link/cross_dependent_unstable/disruptive": "e45ec89eeced6728",
    "forward/cross_dependent_unstable/0.5,0.2": "3e68b533ceb94674",
    "route/cross_dependent_unstable/0.5,0.2": "d4fa61d64f3c58db",
    "link/cross_dependent_unstable/0.5,0.2": "56e4e1a239d60215",
    "forward/cross_dependent_unstable/1.0,0.5": "ee98ec29d88e1686",
    "route/cross_dependent_unstable/1.0,0.5": "a7c6f22a2ef61b45",
    "link/cross_dependent_unstable/1.0,0.5": "748b8d5fc188b0fb",
    "forward/cross_dependent_unstable/2.0,1.0": "4afd956f19bafdc9",
    "route/cross_dependent_unstable/2.0,1.0": "c41df90d23aa969f",
    "link/cross_dependent_unstable/2.0,1.0": "ebdeeb3f9d88bf7d",
    "forward/cross_dependent_unstable/0.2,0.5": "bcfa8d3cfb04e5a3",
    "route/cross_dependent_unstable/0.2,0.5": "41973ad6a36ca2ff",
    "link/cross_dependent_unstable/0.2,0.5": "9c7133a770526664",
    "forward/cross_dependent_unstable/0.5,1.0": "e2113c60c41ab6ed",
    "route/cross_dependent_unstable/0.5,1.0": "6d346828f24817cc",
    "link/cross_dependent_unstable/0.5,1.0": "1cfdbebf2f88e142",
    "forward/cross_dependent_unstable/1.0,2.0": "ba9acf3b6fe777d1",
    "route/cross_dependent_unstable/1.0,2.0": "1d8bd45a7f0ed82e",
    "link/cross_dependent_unstable/1.0,2.0": "078e3985675c6790",
    "forward/discrete_two_route/selfish": "3ef090ea3f3c4628",
    "route/discrete_two_route/selfish": "0a85b1eacbe4fb00",
    "link/discrete_two_route/selfish": "c76824db074ba359",
    "forward/discrete_two_route/altruistic": "4676d66c8bf96a74",
    "route/discrete_two_route/altruistic": "c48d34125bac1e20",
    "link/discrete_two_route/altruistic": "a92b922cfff6e833",
    "forward/discrete_two_route/malicious": "b005ec5e22140ce2",
    "route/discrete_two_route/malicious": "0a85b1eacbe4fb00",
    "link/discrete_two_route/malicious": "c76824db074ba359",
    "forward/discrete_two_route/social": "1c1ba857394d8bed",
    "route/discrete_two_route/social": "2c1d3d8d4ea182a9",
    "link/discrete_two_route/social": "959f63a2ce8f89bd",
    "forward/discrete_two_route/disruptive": "dc08f325e2abf96c",
    "route/discrete_two_route/disruptive": "0a85b1eacbe4fb00",
    "link/discrete_two_route/disruptive": "c76824db074ba359",
    "forward/discrete_two_route/0.5,0.2": "aa756c73532a4e9c",
    "route/discrete_two_route/0.5,0.2": "c48d34125bac1e20",
    "link/discrete_two_route/0.5,0.2": "a92b922cfff6e833",
    "forward/discrete_two_route/1.0,0.5": "ec33156eeba0f14c",
    "route/discrete_two_route/1.0,0.5": "c48d34125bac1e20",
    "link/discrete_two_route/1.0,0.5": "a92b922cfff6e833",
    "forward/discrete_two_route/2.0,1.0": "12f07f8ab4e622a1",
    "route/discrete_two_route/2.0,1.0": "c48d34125bac1e20",
    "link/discrete_two_route/2.0,1.0": "a92b922cfff6e833",
    "forward/discrete_two_route/0.2,0.5": "f5ce99b670fbae82",
    "route/discrete_two_route/0.2,0.5": "0a85b1eacbe4fb00",
    "link/discrete_two_route/0.2,0.5": "c76824db074ba359",
    "forward/discrete_two_route/0.5,1.0": "f0f306f3bf2624ca",
    "route/discrete_two_route/0.5,1.0": "0a85b1eacbe4fb00",
    "link/discrete_two_route/0.5,1.0": "c76824db074ba359",
    "forward/discrete_two_route/1.0,2.0": "b3fa86f7659f5380",
    "route/discrete_two_route/1.0,2.0": "0a85b1eacbe4fb00",
    "link/discrete_two_route/1.0,2.0": "c76824db074ba359",
    "forward/signalized_link/selfish": "36c17e591bca794f",
    "route/signalized_link/selfish": "ab1eaf48d55060fc",
    "link/signalized_link/selfish": "d087e22012d7b1a4",
    "forward/signalized_link/altruistic": "0318ce2fe7f8b22b",
    "route/signalized_link/altruistic": "5f8e8caadaacd00f",
    "link/signalized_link/altruistic": "4031852b8b47a0db",
    "forward/signalized_link/malicious": "a02c9acaa48dd192",
    "route/signalized_link/malicious": "d5613d3d639876fc",
    "link/signalized_link/malicious": "d0934fd482f36ad4",
    "forward/signalized_link/social": "ca137cc0a401459b",
    "route/signalized_link/social": "eb79388052e7bb72",
    "link/signalized_link/social": "167446a430ea98bd",
    "forward/signalized_link/disruptive": "ccf988c15de02092",
    "route/signalized_link/disruptive": "c4012d272920bce2",
    "link/signalized_link/disruptive": "770e5659ae4749ae",
    "forward/signalized_link/0.5,0.2": "e3edd73d23791c00",
    "route/signalized_link/0.5,0.2": "04cc73ff2e4cd1a5",
    "link/signalized_link/0.5,0.2": "4ef3a02c0abfafea",
    "forward/signalized_link/1.0,0.5": "cdb7d15c3432ff20",
    "route/signalized_link/1.0,0.5": "9b0272e94babd90b",
    "link/signalized_link/1.0,0.5": "2b66363cae4ab35c",
    "forward/signalized_link/2.0,1.0": "9c30ce213224eca1",
    "route/signalized_link/2.0,1.0": "9b0272e94babd90b",
    "link/signalized_link/2.0,1.0": "2b66363cae4ab35c",
    "forward/signalized_link/0.2,0.5": "77a117337fad821c",
    "route/signalized_link/0.2,0.5": "e5a9fd89005d34d3",
    "link/signalized_link/0.2,0.5": "140d4c272c9cd7a0",
    "forward/signalized_link/0.5,1.0": "9e0a3b66bdbda843",
    "route/signalized_link/0.5,1.0": "4eba9ac6d98f0db7",
    "link/signalized_link/0.5,1.0": "7e3109239dba9329",
    "forward/signalized_link/1.0,2.0": "049a5ff8b0e3a2cd",
    "route/signalized_link/1.0,2.0": "4eba9ac6d98f0db7",
    "link/signalized_link/1.0,2.0": "7e3109239dba9329",
    "forward/stackelberg_symmetric/selfish": "9e1585563a008e7a",
    "route/stackelberg_symmetric/selfish": "65e51ebfc33146b6",
    "link/stackelberg_symmetric/selfish": "6077dc95308b134a",
    "forward/stackelberg_symmetric/altruistic": "82a997bcae8af998",
    "route/stackelberg_symmetric/altruistic": "adf4a96db2e7d6ff",
    "link/stackelberg_symmetric/altruistic": "76107a6f698178d9",
    "forward/stackelberg_symmetric/malicious": "a339c711b12df9a7",
    "route/stackelberg_symmetric/malicious": "5d56429b90f6120e",
    "link/stackelberg_symmetric/malicious": "db1207004d51bf94",
    "forward/stackelberg_symmetric/social": "99c78363874b6b6c",
    "route/stackelberg_symmetric/social": "b2df857c017e7586",
    "link/stackelberg_symmetric/social": "c132548bfa3de64a",
    "forward/stackelberg_symmetric/disruptive": "b4678055e75698ef",
    "route/stackelberg_symmetric/disruptive": "0ef6ce058fa0e196",
    "link/stackelberg_symmetric/disruptive": "b2048b5e56111751",
    "forward/stackelberg_symmetric/0.5,0.2": "d6239fd7dd55ad82",
    "route/stackelberg_symmetric/0.5,0.2": "add4468b28d64fff",
    "link/stackelberg_symmetric/0.5,0.2": "7175220396fbe123",
    "forward/stackelberg_symmetric/1.0,0.5": "3d40812613c8f5e1",
    "route/stackelberg_symmetric/1.0,0.5": "e73e355bafdb9dfe",
    "link/stackelberg_symmetric/1.0,0.5": "42a60fb7f24aa394",
    "forward/stackelberg_symmetric/2.0,1.0": "83aad7903335c035",
    "route/stackelberg_symmetric/2.0,1.0": "9ba3f95295ba0e83",
    "link/stackelberg_symmetric/2.0,1.0": "42a60fb7f24aa394",
    "forward/stackelberg_symmetric/0.2,0.5": "12e55795b7be0540",
    "route/stackelberg_symmetric/0.2,0.5": "2a3fcbe41c539667",
    "link/stackelberg_symmetric/0.2,0.5": "06d809bf3e4f5283",
    "forward/stackelberg_symmetric/0.5,1.0": "f48d1dacce60cd97",
    "route/stackelberg_symmetric/0.5,1.0": "eee907fbd6c69231",
    "link/stackelberg_symmetric/0.5,1.0": "44268fe23dc22dbe",
    "forward/stackelberg_symmetric/1.0,2.0": "63b4f4d8dab209ac",
    "route/stackelberg_symmetric/1.0,2.0": "eee907fbd6c69231",
    "link/stackelberg_symmetric/1.0,2.0": "44268fe23dc22dbe",
    "forward/two_od/selfish": "acb8e3e598b78eb0",
    "route/two_od/selfish": "817ee3ba671aee06",
    "link/two_od/selfish": "3c308ab7fd91938e",
    "forward/two_od/altruistic": "dc91df0ef3bfa399",
    "route/two_od/altruistic": "120e4602714573db",
    "link/two_od/altruistic": "e17b68258c1dbc10",
    "forward/two_od/malicious": "8c392f43e3c79c1c",
    "route/two_od/malicious": "b8274b9fe159322c",
    "link/two_od/malicious": "1562996d0f363fc3",
    "forward/two_od/social": "3f98ac6fed173ca2",
    "route/two_od/social": "0c90d6374acf0bad",
    "link/two_od/social": "0d457833f8b01b90",
    "forward/two_od/disruptive": "7e0691f4a8ec2b83",
    "route/two_od/disruptive": "e8ea808f4e99f4bd",
    "link/two_od/disruptive": "838617e439edf519",
    "forward/two_od/0.5,0.2": "be26063b375e9281",
    "route/two_od/0.5,0.2": "04c51d391ec12e25",
    "link/two_od/0.5,0.2": "dede6d9ee3feda46",
    "forward/two_od/1.0,0.5": "182ea269b411f858",
    "route/two_od/1.0,0.5": "836a3e0719f702e6",
    "link/two_od/1.0,0.5": "af5103f0a5db75a3",
    "forward/two_od/2.0,1.0": "9dc06c59fa53f861",
    "route/two_od/2.0,1.0": "259905a564ce2ec9",
    "link/two_od/2.0,1.0": "4324c4f91a1543bd",
    "forward/two_od/0.2,0.5": "6bf62b40d57a50f1",
    "route/two_od/0.2,0.5": "1e29645bfb84a456",
    "link/two_od/0.2,0.5": "c762e807b702d09c",
    "forward/two_od/0.5,1.0": "c04700977fa1a26d",
    "route/two_od/0.5,1.0": "f87cf1af6843c0d8",
    "link/two_od/0.5,1.0": "4eff541e9770faa9",
    "forward/two_od/1.0,2.0": "79d4ca62da281e5a",
    "route/two_od/1.0,2.0": "924cc2e791bace15",
    "link/two_od/1.0,2.0": "94996d548b1d0b13",
    "forward/two_route_asymmetric/selfish": "e838f94db721e65d",
    "route/two_route_asymmetric/selfish": "aedebef5132e78ef",
    "link/two_route_asymmetric/selfish": "a5a101cc35d40dca",
    "forward/two_route_asymmetric/altruistic": "42221fef99612f36",
    "route/two_route_asymmetric/altruistic": "55952d4c070041fa",
    "link/two_route_asymmetric/altruistic": "ebb9ad3c3c7e4a04",
    "forward/two_route_asymmetric/malicious": "035022d8b16be13e",
    "route/two_route_asymmetric/malicious": "37041c8f6a37a56c",
    "link/two_route_asymmetric/malicious": "87849a162d5fab30",
    "forward/two_route_asymmetric/social": "32de3a29dab820e6",
    "route/two_route_asymmetric/social": "c080e23ed4991a64",
    "link/two_route_asymmetric/social": "f0ea9b59c72e344d",
    "forward/two_route_asymmetric/disruptive": "6c60bc547c92ff1c",
    "route/two_route_asymmetric/disruptive": "7539b9684b2ec80b",
    "link/two_route_asymmetric/disruptive": "550b7d4115fddd0e",
    "forward/two_route_asymmetric/0.5,0.2": "35f0c5d121aa23ed",
    "route/two_route_asymmetric/0.5,0.2": "ad8bee47d2a4ec23",
    "link/two_route_asymmetric/0.5,0.2": "58e284d79aa3a872",
    "forward/two_route_asymmetric/1.0,0.5": "d4f7c7ba275046f1",
    "route/two_route_asymmetric/1.0,0.5": "750e4d8c7570e5f4",
    "link/two_route_asymmetric/1.0,0.5": "d4f753b381cae67e",
    "forward/two_route_asymmetric/2.0,1.0": "1c76156cc63e1fa2",
    "route/two_route_asymmetric/2.0,1.0": "deba8a27e14db0e3",
    "link/two_route_asymmetric/2.0,1.0": "e5ec2594e55fd678",
    "forward/two_route_asymmetric/0.2,0.5": "d7019cc44af7d9e1",
    "route/two_route_asymmetric/0.2,0.5": "1046fc82511d0cbd",
    "link/two_route_asymmetric/0.2,0.5": "2258edf26ff08169",
    "forward/two_route_asymmetric/0.5,1.0": "f3607433e6030a5b",
    "route/two_route_asymmetric/0.5,1.0": "76055f164ec5a202",
    "link/two_route_asymmetric/0.5,1.0": "9aa67f76eb56be65",
    "forward/two_route_asymmetric/1.0,2.0": "c6d72fcbf845226c",
    "route/two_route_asymmetric/1.0,2.0": "76055f164ec5a202",
    "link/two_route_asymmetric/1.0,2.0": "9aa67f76eb56be65",
    "forward/two_route_common_links/selfish": "2722f7a67659ab4b",
    "route/two_route_common_links/selfish": "2054d4852f7e9c12",
    "link/two_route_common_links/selfish": "b7a237d186d06af8",
    "forward/two_route_common_links/altruistic": "a435f8fe9ca27233",
    "route/two_route_common_links/altruistic": "515d6ff8f1b48c47",
    "link/two_route_common_links/altruistic": "fcd978640151217b",
    "forward/two_route_common_links/malicious": "ac07f4c89ca3b24c",
    "route/two_route_common_links/malicious": "435162a8696e7fda",
    "link/two_route_common_links/malicious": "95c5487a874841e2",
    "forward/two_route_common_links/social": "25d57bac897b235b",
    "route/two_route_common_links/social": "acc97fb8734102bf",
    "link/two_route_common_links/social": "bba3100f5417ba7a",
    "forward/two_route_common_links/disruptive": "20d8f658cae774d3",
    "route/two_route_common_links/disruptive": "c79251aedc6b78fc",
    "link/two_route_common_links/disruptive": "7ff8d44c039c6a90",
    "forward/two_route_common_links/0.5,0.2": "7ef1149484657875",
    "route/two_route_common_links/0.5,0.2": "e802be86219d2675",
    "link/two_route_common_links/0.5,0.2": "8ce334e38d25b1c3",
    "forward/two_route_common_links/1.0,0.5": "7a406224eb19bc6b",
    "route/two_route_common_links/1.0,0.5": "acc97fb8734102bf",
    "link/two_route_common_links/1.0,0.5": "bba3100f5417ba7a",
    "forward/two_route_common_links/2.0,1.0": "92865c81dbbcc1e2",
    "route/two_route_common_links/2.0,1.0": "8b93b3ce20868458",
    "link/two_route_common_links/2.0,1.0": "680342683582db3f",
    "forward/two_route_common_links/0.2,0.5": "c3d31cdd6d198215",
    "route/two_route_common_links/0.2,0.5": "9da4b8587d61d294",
    "link/two_route_common_links/0.2,0.5": "b7a237d186d06af8",
    "forward/two_route_common_links/0.5,1.0": "2287bf757af1febd",
    "route/two_route_common_links/0.5,1.0": "50c197215e1d0db5",
    "link/two_route_common_links/0.5,1.0": "95b35b261ad93d72",
    "forward/two_route_common_links/1.0,2.0": "1e266921e7882f54",
    "route/two_route_common_links/1.0,2.0": "2a6100bbc1810c6b",
    "link/two_route_common_links/1.0,2.0": "0fdc8600324b17f1",
    "forward/two_stage_overlap/selfish": "6c74e0e62d563215",
    "route/two_stage_overlap/selfish": "d8a921cf855b1018",
    "link/two_stage_overlap/selfish": "4c133cd1e25f5dc9",
    "forward/two_stage_overlap/altruistic": "7df26d0484c4a67b",
    "route/two_stage_overlap/altruistic": "c1a3d1c09b749aa2",
    "link/two_stage_overlap/altruistic": "e0f7dc0cb07910ad",
    "forward/two_stage_overlap/malicious": "93c883d3b49210c8",
    "route/two_stage_overlap/malicious": "90ba15634505def0",
    "link/two_stage_overlap/malicious": "d0682cc3ee00c3b4",
    "forward/two_stage_overlap/social": "e419263ed87ac0b6",
    "route/two_stage_overlap/social": "2a937e5edcec92ac",
    "link/two_stage_overlap/social": "86e2ac7dea3a0d5d",
    "forward/two_stage_overlap/disruptive": "9ed721355771cd1b",
    "route/two_stage_overlap/disruptive": "0269f9c51048f9b8",
    "link/two_stage_overlap/disruptive": "d8579415f834d205",
    "forward/two_stage_overlap/0.5,0.2": "3ef69b3d71fd918b",
    "route/two_stage_overlap/0.5,0.2": "7fd43adfcadfba74",
    "link/two_stage_overlap/0.5,0.2": "b8ec4ce883a81c1d",
    "forward/two_stage_overlap/1.0,0.5": "7171d6db8b658b55",
    "route/two_stage_overlap/1.0,0.5": "54b0996fa42da76c",
    "link/two_stage_overlap/1.0,0.5": "f64c0be519ef3ed0",
    "forward/two_stage_overlap/2.0,1.0": "976e6dd9cc6137b7",
    "route/two_stage_overlap/2.0,1.0": "938925ceee72dbf3",
    "link/two_stage_overlap/2.0,1.0": "7122311b5586e079",
    "forward/two_stage_overlap/0.2,0.5": "1b6805990783330f",
    "route/two_stage_overlap/0.2,0.5": "b4cbfc7e9dee1a6d",
    "link/two_stage_overlap/0.2,0.5": "04cb02ec6e938317",
    "forward/two_stage_overlap/0.5,1.0": "c8303bde4f740429",
    "route/two_stage_overlap/0.5,1.0": "80843c172a56938b",
    "link/two_stage_overlap/0.5,1.0": "3af7056518c81421",
    "forward/two_stage_overlap/1.0,2.0": "05a90f360942e903",
    "route/two_stage_overlap/1.0,2.0": "9761abf39bc1baa4",
    "link/two_stage_overlap/1.0,2.0": "3b7c295c993648f2",
    "forward/two_stage_overlap_concentrated/selfish": "6c74e0e62d563215",
    "route/two_stage_overlap_concentrated/selfish": "9923be6df00a2f9d",
    "link/two_stage_overlap_concentrated/selfish": "4c133cd1e25f5dc9",
    "forward/two_stage_overlap_concentrated/altruistic": "7df26d0484c4a67b",
    "route/two_stage_overlap_concentrated/altruistic": "d5f528997cfe5cb1",
    "link/two_stage_overlap_concentrated/altruistic": "e0f7dc0cb07910ad",
    "forward/two_stage_overlap_concentrated/malicious": "93c883d3b49210c8",
    "route/two_stage_overlap_concentrated/malicious": "9b062b63d5076b15",
    "link/two_stage_overlap_concentrated/malicious": "d0682cc3ee00c3b4",
    "forward/two_stage_overlap_concentrated/social": "e419263ed87ac0b6",
    "route/two_stage_overlap_concentrated/social": "5f645511e74d6389",
    "link/two_stage_overlap_concentrated/social": "86e2ac7dea3a0d5d",
    "forward/two_stage_overlap_concentrated/disruptive": "9ed721355771cd1b",
    "route/two_stage_overlap_concentrated/disruptive": "38c7bc1f58139c99",
    "link/two_stage_overlap_concentrated/disruptive": "d8579415f834d205",
    "forward/two_stage_overlap_concentrated/0.5,0.2": "3ef69b3d71fd918b",
    "route/two_stage_overlap_concentrated/0.5,0.2": "5f86b84d7be13752",
    "link/two_stage_overlap_concentrated/0.5,0.2": "b8ec4ce883a81c1d",
    "forward/two_stage_overlap_concentrated/1.0,0.5": "7171d6db8b658b55",
    "route/two_stage_overlap_concentrated/1.0,0.5": "5ba78d5d130fd3f5",
    "link/two_stage_overlap_concentrated/1.0,0.5": "f64c0be519ef3ed0",
    "forward/two_stage_overlap_concentrated/2.0,1.0": "976e6dd9cc6137b7",
    "route/two_stage_overlap_concentrated/2.0,1.0": "e53e36c911a2a329",
    "link/two_stage_overlap_concentrated/2.0,1.0": "7122311b5586e079",
    "forward/two_stage_overlap_concentrated/0.2,0.5": "1b6805990783330f",
    "route/two_stage_overlap_concentrated/0.2,0.5": "f98e6054a0479e8c",
    "link/two_stage_overlap_concentrated/0.2,0.5": "04cb02ec6e938317",
    "forward/two_stage_overlap_concentrated/0.5,1.0": "c8303bde4f740429",
    "route/two_stage_overlap_concentrated/0.5,1.0": "b07180978c1d9477",
    "link/two_stage_overlap_concentrated/0.5,1.0": "3af7056518c81421",
    "forward/two_stage_overlap_concentrated/1.0,2.0": "05a90f360942e903",
    "route/two_stage_overlap_concentrated/1.0,2.0": "9e59f7a55e3c463e",
    "link/two_stage_overlap_concentrated/1.0,2.0": "3b7c295c993648f2",
    "forward/two_unit/selfish": "6b9c6052e87c4ac8",
    "route/two_unit/selfish": "dde11fddd1da01ba",
    "link/two_unit/selfish": "9ead1104dd4d8c74",
    "forward/two_unit/altruistic": "b9018c1bf71e55a2",
    "route/two_unit/altruistic": "39979c8e6b320840",
    "link/two_unit/altruistic": "c921d62b427ca87f",
    "forward/two_unit/malicious": "8ede9af78c1b0a18",
    "route/two_unit/malicious": "be5cb5eb1fc2ddb2",
    "link/two_unit/malicious": "0c35192616f6cfec",
    "forward/two_unit/social": "8e4d3ce494b2db0e",
    "route/two_unit/social": "c865811567653b69",
    "link/two_unit/social": "1c0267ee6354bb1f",
    "forward/two_unit/disruptive": "c41a1eca5af9d084",
    "route/two_unit/disruptive": "196e7f5fc59bf157",
    "link/two_unit/disruptive": "c969f6f393c80a87",
    "forward/two_unit/0.5,0.2": "820105bacf011ed8",
    "route/two_unit/0.5,0.2": "a7b4226310481f4b",
    "link/two_unit/0.5,0.2": "dabfe1b497de145b",
    "forward/two_unit/1.0,0.5": "d8f34ee9fd4ac216",
    "route/two_unit/1.0,0.5": "dba977b23a4c1b55",
    "link/two_unit/1.0,0.5": "ee3bbf3ac5f40135",
    "forward/two_unit/2.0,1.0": "e2d816e01682b20c",
    "route/two_unit/2.0,1.0": "3e339e10904a9964",
    "link/two_unit/2.0,1.0": "12c2d9a8449ce68a",
    "forward/two_unit/0.2,0.5": "7e985449034978b0",
    "route/two_unit/0.2,0.5": "9d0a0170b66dfbc1",
    "link/two_unit/0.2,0.5": "3aacef79c2e69a83",
    "forward/two_unit/0.5,1.0": "f541e5fa67e992b5",
    "route/two_unit/0.5,1.0": "36444510fe12b4a3",
    "link/two_unit/0.5,1.0": "a6282934e9faaf19",
    "forward/two_unit/1.0,2.0": "81983629608a2f00",
    "route/two_unit/1.0,2.0": "e3cb780e4658f0c4",
    "link/two_unit/1.0,2.0": "9cc24db9e4d6f80d",
    "route/ladder2024/0": "0449123795fe7e91",
    "link/ladder2024/0": "1547cca7b53c305a",
    "route/ladder2024/1": "b9b753c3cfc82e7e",
    "link/ladder2024/1": "09a7105c71e65640",
    "route/ladder2024/2": "62515d776d9f65ea",
    "link/ladder2024/2": "b509e13ae06bf6bd",
    "route/ladder2024/3": "65aca9f093f478e0",
    "link/ladder2024/3": "378af7010eba0fa5",
    "route/ladder2024/4": "9410ff90dd107c60",
    "link/ladder2024/4": "928e4c714005f368",
    "route/ladder2024/5": "18030f11ebd478a7",
    "link/ladder2024/5": "200b954e45c6a9e2",
    "route/ladder2024/6": "065bfe9ffbcbaaf3",
    "link/ladder2024/6": "db2ffa9c4f1b9e36",
    "route/ladder2024/7": "b5b14c656c3bffe2",
    "link/ladder2024/7": "b2ff1acc53b4cc79",
    "route/ladder2024/8": "8a020d7cf3c16cf5",
    "link/ladder2024/8": "d2ec4d8c6efbef3d",
    "route/ladder2024/9": "4338a396d0146920",
    "link/ladder2024/9": "a419eeda496843e6",
    "route/ladder2024/10": "1fcc7d0f1c05b852",
    "link/ladder2024/10": "1837f507fbf231e6",
    "route/ladder2024/11": "05b47d125985d04a",
    "link/ladder2024/11": "196eaf99f277216f",
    "route/ladder77/0": "f52ce5adcf91aa23",
    "link/ladder77/0": "3867558bb97cf2c1",
    "route/ladder77/1": "e15522408e431a8e",
    "link/ladder77/1": "c4883569e9aaf02e",
    "route/ladder77/2": "a2ba152e17ae1683",
    "link/ladder77/2": "838d2d886ef7d837",
    "route/ladder77/3": "ca8d2f687e4ec5da",
    "link/ladder77/3": "43f3a80ed3411c72",
    "route/ladder77/4": "519e8ca299de8679",
    "link/ladder77/4": "dd48b697c5931a7d",
    "route/ladder77/5": "179dc577babe9ed7",
    "link/ladder77/5": "afcbc65f678971e4",
    "route/ladder77/6": "26c1711a9c2e2974",
    "link/ladder77/6": "dc54c47f9ad42dc9",
    "route/ladder77/7": "8e68027205f5ae66",
    "link/ladder77/7": "f9dc9b5f68489198",
    "route/ladder77/8": "a6828cb6d29a4d4c",
    "link/ladder77/8": "57a880411c3140f7",
    "route/ladder77/9": "6f2008e2d3320dc9",
    "link/ladder77/9": "c53ef59c5f845a0c",
    "route/ladder77/10": "de96d3da982a234d",
    "link/ladder77/10": "01bb3c6ee59f4745",
    "route/ladder77/11": "37760b915d3b2e70",
    "link/ladder77/11": "e5b0830993cacf41",
    "route/ladder2/0": "e87b611dd0b4d37b",
    "link/ladder2/0": "852bf448d315b7ca",
    "route/ladder2/1": "9f8b3d632b6c326d",
    "link/ladder2/1": "4f1f8b48553dca8e",
    "route/ladder2/2": "023d68c6028dad59",
    "link/ladder2/2": "33ba296816e63ad7",
    "route/ladder2/3": "7f644f1716c741e3",
    "link/ladder2/3": "ba8888ce73e4bd76",
    "route/ladder2/4": "2bd91c48d0fbc73d",
    "link/ladder2/4": "a3970b3303f1ba64",
    "route/ladder2/5": "8ae980b654570282",
    "link/ladder2/5": "537b8af6d5e22eef",
    "route/ladder2/6": "aae6c7d302d0ac25",
    "link/ladder2/6": "cf3f9471a5f49d57",
    "route/ladder2/7": "91509c17c34d8ae2",
    "link/ladder2/7": "a11981c3d7891ce8",
    "route/ladder2/8": "a79c356e4d9c3a42",
    "link/ladder2/8": "3a07dd3303f86e91",
    "route/ladder2/9": "7b749714f11d8abe",
    "link/ladder2/9": "db39a850e8508aad",
    "route/ladder2/10": "0005f866f4a24480",
    "link/ladder2/10": "74cbccfa7d69c9c7",
    "route/ladder2/11": "e4576a2c453099b1",
    "link/ladder2/11": "594a63f6e9ba0ba3",
    "forward/overlap20": "da5e538582dc6a3f",
    "route/overlap20": "2fd4596bde6bcd4f",
    "link/overlap20": "ae12f84f7e6a55b7",
    "forward/overlap50": "498878125e6d9f58",
    "route/overlap50": "29cb39ea56d50afd",
    "link/overlap50": "b16b4f1c8782bea9",
    "forward/overlap100": "0690b1d8e9b067f4",
    "route/overlap100": "392b0604fdea18a5",
    "link/overlap100": "db5cce5f2e5dd8d3",
}

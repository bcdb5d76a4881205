"""Report bytes pinned on the paper's traces.

The SHA-256 of the canonical ``explore_request`` report JSON for each of
the 24 PowerStone ``large`` traces (12 kernels, data and instruction) at
5/10/20 % budgets.  One pin per trace holds under both the ``auto`` and
``python`` preludes: the report names the engine that ran, and ``auto``
resolves to ``vectorized`` under either prelude.  Any engine, prelude or
postlude change that moves a single report byte fails here.  The
``auto`` prelude feeds the packed postlude path and ``python`` the
bigint one, so both walk inputs are covered.
"""

import hashlib
import json

import pytest

from repro.core.request import ExplorationRequest, explore_request
from repro.workloads.registry import WORKLOAD_NAMES, run_workload_by_name

PERCENTS = (5, 10, 20)

PINS = {
    ("adpcm", "data"): "bae9fdf8dbb710710c006e54e78aad102e93e3e2add180abf041fc431e2dfe28",
    ("adpcm", "inst"): "bb7116e813a90fd677aa03c025397d76fbf56015febb1bf39b13bb08e21d24f3",
    ("bcnt", "data"): "beef5714d01b6109d030f0cccaec36f74972085933232f7e14eca1cc80283890",
    ("bcnt", "inst"): "f1ab4467259c0a1d24ba7161a820d6cf48856961e0cba33434f4d2334b39a59a",
    ("blit", "data"): "04db9c06cd1c3019d2e9c32cac06797e058de08a230cff520e46af51b13a72f4",
    ("blit", "inst"): "98bb2de77dcad8d59ed9089b7ca3484d84d2dc55eb1b00349d71955546a78b42",
    ("compress", "data"): "6777a84455e3b1a718ab106574fa77a19cc41733245397f6929b08cb9617515b",
    ("compress", "inst"): "d50f5f5ddd0ba4c89c2f5ac1c5f90e1312b01b5bf7f69ad2b8e8cc33ec987630",
    ("crc", "data"): "d6fc28fd0ce258565d46de72a06b70d49eefa8020e3e6a30cd5c4fe786f86391",
    ("crc", "inst"): "b481a6008c135c106a9a4e04271ff986a82b5e01d08c28eb9c35ffb7b0db5415",
    ("des", "data"): "40538f10b9860a761772a8042c53c0785a74aa1de3071c7f62b27ba1a9be8baa",
    ("des", "inst"): "044bf14f96882155501f0fd0ff8ea4de3f0082f8a091c964e7d97a1854f40dc7",
    ("engine", "data"): "03abc88d1b9f18a73bfb5264b5d43563c266d5774448a23844f7c32746be087b",
    ("engine", "inst"): "7522fc254097673133486575e8ca4cf2f11058718fcc06df03ca6db40aaf5f62",
    ("fir", "data"): "f741dc58a48f4f395f817961d2854dedfacd4b5c5688557d25ba164c6a788aeb",
    ("fir", "inst"): "5443e0e99d4c25dfe875e9b1cb156eca2eca49de9400e5a4e68b6eb33c40ef20",
    ("g3fax", "data"): "eb707cc9b427ac40b502c6a1f092be177c29005ca46f5b096afbed29cea217a5",
    ("g3fax", "inst"): "f42471b096014dcb1ce18e0ae90adb60a0b77dc285e948ad78f46413ba509c6e",
    ("pocsag", "data"): "03762ae258ac41126886c0981e65975039952f82d345e941ec2f5a4be2041ee6",
    ("pocsag", "inst"): "6e92b45a0cc4ccc28c04c644aa06bdb9504e53a9533cb0037ed4c76e0443cc1f",
    ("qurt", "data"): "fb026fc260a7f13233b2d849f72169ea024dafda0464801ed394e9ecec033756",
    ("qurt", "inst"): "a27f04d5f0f7ac21c4a1ad1beda877d5b1ca843eec78504b04e65f47c8cbf7d1",
    ("ucbqsort", "data"): "b9b9117543928d3440f808a2d8bfde2271991d19d0b3cd905f77cb14e3fb3230",
    ("ucbqsort", "inst"): "812553e4f2d41e106b509b736cc3e167cecd1a00a79eff18b21c72ed894cbe47",
}


@pytest.fixture(scope="module")
def large_traces():
    traces = {}
    for name in WORKLOAD_NAMES:
        run = run_workload_by_name(name, "large")
        traces[name, "data"] = run.data_trace
        traces[name, "inst"] = run.instruction_trace
    return traces


def _report_sha256(report) -> str:
    text = json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_pins_cover_every_powerstone_trace():
    assert set(PINS) == {
        (name, kind) for name in WORKLOAD_NAMES for kind in ("data", "inst")
    }


@pytest.mark.slow
@pytest.mark.parametrize("prelude", ["auto", "python"])
def test_reports_match_pins(large_traces, prelude):
    moved = []
    for (name, kind), trace in sorted(large_traces.items()):
        report = explore_request(
            ExplorationRequest.single(trace, percents=PERCENTS, prelude=prelude)
        )
        if _report_sha256(report) != PINS[name, kind]:
            moved.append(f"{name}.{kind}")
    assert not moved, f"report bytes moved under prelude={prelude}: {moved}"

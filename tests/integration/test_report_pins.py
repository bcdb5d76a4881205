"""Report bytes pinned on the paper's traces.

The SHA-256 of the canonical ``explore_request`` report JSON for each of
the 24 PowerStone ``large`` traces (12 kernels, data and instruction) at
5/10/20 % budgets, under the ``auto`` and ``python`` preludes.  The
pins were taken before the level-synchronous postlude walk replaced the
per-node walk; any engine, prelude or postlude change that moves a
single report byte fails here.  The ``auto`` prelude feeds the packed
postlude path and ``python`` the bigint one, so both walk inputs are
covered.
"""

import hashlib
import json

import pytest

from repro.core.request import ExplorationRequest, explore_request
from repro.workloads.registry import WORKLOAD_NAMES, run_workload_by_name

PERCENTS = (5, 10, 20)

PINS = {
    ("adpcm", "data", "auto"): "d72f639c1a69d02e18e702e73b6d9bf3123080ec7893d0e4a1a54c200361a711",
    ("adpcm", "data", "python"): "d72f639c1a69d02e18e702e73b6d9bf3123080ec7893d0e4a1a54c200361a711",
    ("adpcm", "inst", "auto"): "bb7116e813a90fd677aa03c025397d76fbf56015febb1bf39b13bb08e21d24f3",
    ("adpcm", "inst", "python"): "bb7116e813a90fd677aa03c025397d76fbf56015febb1bf39b13bb08e21d24f3",
    ("bcnt", "data", "auto"): "beef5714d01b6109d030f0cccaec36f74972085933232f7e14eca1cc80283890",
    ("bcnt", "data", "python"): "e65317ad71277e2840ea46d13df2d885fd35bd1a24600eba392dc35396fb0614",
    ("bcnt", "inst", "auto"): "f1ab4467259c0a1d24ba7161a820d6cf48856961e0cba33434f4d2334b39a59a",
    ("bcnt", "inst", "python"): "f1ab4467259c0a1d24ba7161a820d6cf48856961e0cba33434f4d2334b39a59a",
    ("blit", "data", "auto"): "04db9c06cd1c3019d2e9c32cac06797e058de08a230cff520e46af51b13a72f4",
    ("blit", "data", "python"): "c229ec4ba115f9f4b7a9b9a54eaa75aee5f42b924c4a004cc4b7646c7be4cd60",
    ("blit", "inst", "auto"): "98bb2de77dcad8d59ed9089b7ca3484d84d2dc55eb1b00349d71955546a78b42",
    ("blit", "inst", "python"): "98bb2de77dcad8d59ed9089b7ca3484d84d2dc55eb1b00349d71955546a78b42",
    ("compress", "data", "auto"): "6777a84455e3b1a718ab106574fa77a19cc41733245397f6929b08cb9617515b",
    ("compress", "data", "python"): "36ea4b2bfa1a1833a2530de8e623b5108a04b6a4118ef233f6ff1e58dce85018",
    ("compress", "inst", "auto"): "d50f5f5ddd0ba4c89c2f5ac1c5f90e1312b01b5bf7f69ad2b8e8cc33ec987630",
    ("compress", "inst", "python"): "d50f5f5ddd0ba4c89c2f5ac1c5f90e1312b01b5bf7f69ad2b8e8cc33ec987630",
    ("crc", "data", "auto"): "d6fc28fd0ce258565d46de72a06b70d49eefa8020e3e6a30cd5c4fe786f86391",
    ("crc", "data", "python"): "bfc65e93f981301866d77f987d8bdd59e82d623015fb209f9bba277407ac6bdb",
    ("crc", "inst", "auto"): "b481a6008c135c106a9a4e04271ff986a82b5e01d08c28eb9c35ffb7b0db5415",
    ("crc", "inst", "python"): "b481a6008c135c106a9a4e04271ff986a82b5e01d08c28eb9c35ffb7b0db5415",
    ("des", "data", "auto"): "40538f10b9860a761772a8042c53c0785a74aa1de3071c7f62b27ba1a9be8baa",
    ("des", "data", "python"): "9331995867a2e2f19f36ffe220866195bc000cfb470a1f8b68d4342403e53927",
    ("des", "inst", "auto"): "044bf14f96882155501f0fd0ff8ea4de3f0082f8a091c964e7d97a1854f40dc7",
    ("des", "inst", "python"): "044bf14f96882155501f0fd0ff8ea4de3f0082f8a091c964e7d97a1854f40dc7",
    ("engine", "data", "auto"): "5a8522c0ea5aff50291b8491d1eeaa6d2447ea643a086839bb380412d5a2e257",
    ("engine", "data", "python"): "5a8522c0ea5aff50291b8491d1eeaa6d2447ea643a086839bb380412d5a2e257",
    ("engine", "inst", "auto"): "7522fc254097673133486575e8ca4cf2f11058718fcc06df03ca6db40aaf5f62",
    ("engine", "inst", "python"): "7522fc254097673133486575e8ca4cf2f11058718fcc06df03ca6db40aaf5f62",
    ("fir", "data", "auto"): "f741dc58a48f4f395f817961d2854dedfacd4b5c5688557d25ba164c6a788aeb",
    ("fir", "data", "python"): "f741dc58a48f4f395f817961d2854dedfacd4b5c5688557d25ba164c6a788aeb",
    ("fir", "inst", "auto"): "5443e0e99d4c25dfe875e9b1cb156eca2eca49de9400e5a4e68b6eb33c40ef20",
    ("fir", "inst", "python"): "5443e0e99d4c25dfe875e9b1cb156eca2eca49de9400e5a4e68b6eb33c40ef20",
    ("g3fax", "data", "auto"): "eb707cc9b427ac40b502c6a1f092be177c29005ca46f5b096afbed29cea217a5",
    ("g3fax", "data", "python"): "f0e84a2536605a5d8a776fecdc4eb596017e3edc25a8c3400bda1b3a08f1298f",
    ("g3fax", "inst", "auto"): "f42471b096014dcb1ce18e0ae90adb60a0b77dc285e948ad78f46413ba509c6e",
    ("g3fax", "inst", "python"): "f42471b096014dcb1ce18e0ae90adb60a0b77dc285e948ad78f46413ba509c6e",
    ("pocsag", "data", "auto"): "fa8cf1ea84baf48f8fe2862c8c52d2f3e76c2726bc2e33fd2e962d77a3b9cb77",
    ("pocsag", "data", "python"): "fa8cf1ea84baf48f8fe2862c8c52d2f3e76c2726bc2e33fd2e962d77a3b9cb77",
    ("pocsag", "inst", "auto"): "6e92b45a0cc4ccc28c04c644aa06bdb9504e53a9533cb0037ed4c76e0443cc1f",
    ("pocsag", "inst", "python"): "6e92b45a0cc4ccc28c04c644aa06bdb9504e53a9533cb0037ed4c76e0443cc1f",
    ("qurt", "data", "auto"): "771afdac2d1ae5c1f9c53ee9108b63cecf2d9f07ba9ee20c83304eba86c42ff4",
    ("qurt", "data", "python"): "771afdac2d1ae5c1f9c53ee9108b63cecf2d9f07ba9ee20c83304eba86c42ff4",
    ("qurt", "inst", "auto"): "a27f04d5f0f7ac21c4a1ad1beda877d5b1ca843eec78504b04e65f47c8cbf7d1",
    ("qurt", "inst", "python"): "a27f04d5f0f7ac21c4a1ad1beda877d5b1ca843eec78504b04e65f47c8cbf7d1",
    ("ucbqsort", "data", "auto"): "b9b9117543928d3440f808a2d8bfde2271991d19d0b3cd905f77cb14e3fb3230",
    ("ucbqsort", "data", "python"): "a192699df7f3176cf5498b5eeb94575382052087e77e5ad0665f2bd8ae28e0db",
    ("ucbqsort", "inst", "auto"): "812553e4f2d41e106b509b736cc3e167cecd1a00a79eff18b21c72ed894cbe47",
    ("ucbqsort", "inst", "python"): "812553e4f2d41e106b509b736cc3e167cecd1a00a79eff18b21c72ed894cbe47",
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
    assert {(name, kind) for name, kind, _ in PINS} == {
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
        if _report_sha256(report) != PINS[name, kind, prelude]:
            moved.append(f"{name}.{kind}")
    assert not moved, f"report bytes moved under prelude={prelude}: {moved}"

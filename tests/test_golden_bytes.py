"""Golden bytes: the exit code, stdout and stderr of fixed CLI invocations.

Each invocation runs in a fresh interpreter, and the sha256 of
``repr((exit code, stdout bytes, stderr bytes))`` must equal the pinned
digest.  A change that claims byte-identical output keeps this file as it
is; a change that means to alter some output updates those digests and says
why.  To print the digests of the current tree:

    PYTHONPATH=src python tests/test_golden_bytes.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SINE_TANGENT = ["--A", "-cos t", "--B", "1", "--C", "t*cos t - sin t"]
SINE_EVOLUTE = ["--A", "1", "--B", "cos t", "--C", "-t - cos t*sin t"]

INVOCATIONS = {
    **{f"example-{k}-grid-{n}": ["analyze", "--example", str(k), "--grid-n", str(n)]
       for k in range(1, 8) for n in (16, 257, 1001)},
    # the sine-tangent-fine benchmark operation: a 1,179,409-byte document
    "example-1-grid-10001": ["analyze", "--example", "1", "--grid-n", "10001"],
    "sine-tangent-envelope-csv": ["envelope", *SINE_TANGENT, "--format", "csv"],
    "sine-tangent-discriminant-csv": ["discriminant", *SINE_TANGENT, "--format", "csv"],
    "sine-tangent-compare": ["compare", *SINE_TANGENT],
    "sine-tangent-plot": ["plot", *SINE_TANGENT],
    "sine-evolute-wide": ["analyze", *SINE_EVOLUTE, "--domain", "-1000:1000",
                          "--grid-n", "10001"],
    # inconclusive (exit 4), after the creator reads b's series in 637 zones
    "sine-tangent-wide": ["analyze", *SINE_TANGENT, "--domain", "-1000:1000",
                          "--grid-n", "10001"],
    "probe-log-plus-cos": ["analyze", "--theta", "log(t)+cos(t)", "--a", "t",
                           "--domain", "-1:1"],
    "probe-constant-exponent": ["analyze", "--theta", "t^(log(0-1))", "--a", "t",
                                "--domain", "-1:1"],
    "probe-general-sqrt-log": ["analyze", "--A", "sqrt(t)", "--B", "1",
                               "--C", "log(t+0.5)", "--domain", "-1:1"],
    "probe-log-bracket": ["analyze", "--theta", "log((t^2 - 1e-8)*((t-0.5)^2 - 1e-8))",
                          "--a", "t", "--domain", "-1:1.0013"],
    "sine-tangent-envelope-json": ["envelope", *SINE_TANGENT, "--grid-n", "257",
                                   "--format", "json"],
    "sine-tangent-discriminant-json": ["discriminant", *SINE_TANGENT, "--grid-n", "257",
                                       "--format", "json"],
    "example-2-user-b": ["analyze", "--example", "2", "--user-b", "t"],
    # not creative, so the malformed --user-b is never parsed: exit 3, not 5
    "example-6-unparsed-user-b": ["analyze", "--example", "6", "--user-b", "(("],
    # the creator is undefined on the verification grid: exit 4
    "probe-steep-cubic": ["analyze", "--theta", "1e10*t^3", "--a", "t", "--grid-n", "16"],
    "probe-hidden-stall": ["analyze", "--theta", "t - 0.0001*atan((t - 0.00013)/0.0001)",
                           "--a", "t", "--domain", "-1:1"],
    "sine-evolute-compare": ["compare", *SINE_EVOLUTE],
    "sine-evolute-plot": ["plot", *SINE_EVOLUTE],
    # a domain error at a parameter of the verification grid alone: exit 5
    "probe-sqrt-verification-grid": ["analyze", "--theta", "t",
                                     "--a", "sqrt((t-0.001025)^2-1e-10)", "--domain", "-1:1",
                                     "--grid-n", "40001"],
}

DIGESTS = {
    "example-1-grid-16": "4b14979494e977f13703b96f8a190625744460768a9cf09e51f8c284e9e5097e",
    "example-1-grid-257": "2cb8ccaff12ce504437b77c80f70f665fa40def791567f00d8c28621b1ecfd1f",
    "example-1-grid-1001": "e1afc8cc655877e68e0c1a8589c1a4908992cd17439b235742108b176fe4b878",
    "example-1-grid-10001": "f1b1c496983af5e7c54033f38c2404a3d738b62b83129f7b46508e1cdab752b4",
    "example-2-grid-16": "f37ab878a7b26704a55fa6e90af9bb0e1123ce3b2b499a0b28a7fc460a672606",
    "example-2-grid-257": "21acdc61e59984427dfdd5c43c97c3413af27f2acc99f7dff4f2bdbed50191c1",
    "example-2-grid-1001": "3b7d08f4640cdde16452c25a4329e4daf74a137bb2db290721c51d44cca7abc2",
    "example-3-grid-16": "a71a2e90f2ea49e073de51f76c767bd34d5715e0af75792d4df2df4687adf5d4",
    "example-3-grid-257": "0daa028808297b7de74408ee16ee7220ca96a05754ebbd848c894f65675eaa3e",
    "example-3-grid-1001": "b9a5226e8cc9be737adc66fb6cd2da503bd45276d41022c2d3545278e596939f",
    "example-4-grid-16": "8007a497934e21085a237b53627ebf9705e56f41bac9625540959018fe8120e6",
    "example-4-grid-257": "71077c477aa9fe6222ee254cc603db43d0f05a98f6281b9dba770d59da25c444",
    "example-4-grid-1001": "bc7e4da0a47f70e457c95f81616445218dd4ef506d3de0009f803e3032b422f4",
    "example-5-grid-16": "4b15ebe93e7a434d3125f4688fcbfe073335b73a48e15ffc396200ea91f1647f",
    "example-5-grid-257": "c8de626d22426247c44ef920cfd9dda9a32b1c7ba819bd4ff08b6e2144e9eb3f",
    "example-5-grid-1001": "ce7de76bec9e5dfeac1b1db96ce48c6b51f961776026f7c42d36eb61e58666a0",
    "example-6-grid-16": "65f946c1c24b1080078de494dd5e2078ffb0ba5ea71a72b29b8334fb49192f45",
    "example-6-grid-257": "e01c6035e8cbb74d4388faa00062144771664d9a01bffc790254ba243d824068",
    "example-6-grid-1001": "cdc2d7753216564a7c5e0d0745e33c645cb82c3e6e04f5ddd8dd48939f9f24f5",
    "example-7-grid-16": "63f3a5d6ffc02438d5ef66f72408da334a4071c9e8cb6aa3f7d8e599bf8cb9bb",
    "example-7-grid-257": "ff35d52ac65ec2a8bd88de95ebc91383329633ddab1171c409cb8dce5f0ec69a",
    "example-7-grid-1001": "d94f50334ac606ecfdf737df1b62dacf6ec7f3580e83bf832e593015ef4a2ea4",
    "sine-tangent-envelope-csv": "5ddae99859913a7b5223970457a80d0a0d7037546e183edc5ab16af00100d616",
    "sine-tangent-discriminant-csv": "401fd6cd1049222d5d21e5a84a8bd06a001fa6555423d08aff7fa501230fa3b7",
    "sine-tangent-compare": "f596aa4fc9622f0429e2429259fe75c6ebb9d29bd54cc816f1de9e2c48bf4766",
    "sine-tangent-plot": "6f8901941b6de62bae1ee502e76cf95f146167fb7b10ec985d160ea1c29c726f",
    "sine-evolute-wide": "f29bcf44395df7dd510f11b3592b768110e3fb9c4890136659812ddef630d6fc",
    "sine-tangent-wide": "0409300c7af2019e072a1f3afd0d0e3e62395f6a126e0cbe0e42264572194bd0",
    "probe-log-plus-cos": "433902fd833542201c99d1eb8791c8814d2210b7910721151b49d5ff1060e4dc",
    "probe-constant-exponent": "fd7536043fdcee4c8ac4f027480d5524f96bfc1d4a949e96f8ac37c95ff9fbb2",
    "probe-general-sqrt-log": "310f4d28945134c0bc27945571b03fbf8af43a8690b1f9af030b93bb9d79e9dd",
    "probe-log-bracket": "d8e09980ddf30ce8eafa01891637dd9e07011610b4575c16cf7c475f84f24692",
    "sine-tangent-envelope-json": "c161756cdf00bf910ebedbe7645d3736ba1063c57b06d305013c1958c1a07d96",
    "sine-tangent-discriminant-json": "ee6c4b8c5bc2d0bb1268c70efa6eeadec179ae3138bd9975f4317b9b69502fce",
    "example-2-user-b": "27a0a9ea8220f17ab0cbb9b6f84ef7c1afbf19dd1822025fd83623516d8edd10",
    "example-6-unparsed-user-b": "86251fae58e670eb3c889968ecd58c991f78a41cfb1c35fc69fd62194597d8fa",
    "probe-steep-cubic": "339269bde6c0a2761c0ab1ccc18aeef0d84afefc6c8b894b5e89f123f87369d3",
    "probe-hidden-stall": "bb5fb41398fe1ee6272352df4055db34d0bc12b31bd9f8bfdea4265acd0c2f03",
    "sine-evolute-compare": "e596ca678b1bf1a31f05fb113e1a5b632c8323752408d883355838e05cff1f94",
    "sine-evolute-plot": "e8ed1a97131e9ecfc43f3295c9b93ff9aa1acf24f3e666af4823c78b18adab66",
    "probe-sqrt-verification-grid": "7d9a3efb0a2f2fbb06b23170c1e6e91cb5bb9330efcbb6d8bf9ada6af9603298",
}


def _digest(argv: list[str]) -> str:
    env = {key: value for key, value in os.environ.items() if key != "ENVELOPE_GRID_N"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from envlines.cli import main; sys.exit(main())",
         *argv], env=env, capture_output=True, timeout=120)
    return hashlib.sha256(repr((proc.returncode, proc.stdout, proc.stderr)).encode()).hexdigest()


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(INVOCATIONS, pool.map(_digest, INVOCATIONS.values())))


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_output_bytes_are_pinned(digests, name):
    assert digests[name] == DIGESTS[name]


if __name__ == "__main__":
    with ThreadPoolExecutor(2) as pool:
        for name, digest in zip(INVOCATIONS, pool.map(_digest, INVOCATIONS.values())):
            print(f'    "{name}": "{digest}",')

"""Golden bytes: the exit code, stdout and stderr of fixed CLI invocations.

Each invocation runs in a fresh interpreter, and the sha256 of
``repr((exit code, stdout bytes, stderr bytes))`` must equal the pinned
digest.  A change that claims byte-identical output keeps this file as it
is; a change that means to alter some output updates those digests and says
why.  To print the digests of the current tree, each one that differs from
its pinned digest marked, and the count of those last:

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
    "example-1-grid-16": "50ea5fa2b522dbe9c754630f2ea0ddb0000be17669fc829eac5ec4d2cad865aa",
    "example-1-grid-257": "0cb6ab5d7b6f5c50f315f7e95b1d6065349614d8e5fc9c588bc15b261e4ede3f",
    "example-1-grid-1001": "0c138fc8accc6736a97fab967393d385ad1fa351bc83c267844366585bbcf878",
    "example-1-grid-10001": "a11e92a620f0e8f88c0d60f9cae92ab2d67e0b0942bb88071faeb675197fc742",
    "example-2-grid-16": "78744a6a20e346169e9ecd79b31fccb8bc1840eb9a0d923a7297c72c762ff34e",
    "example-2-grid-257": "6dc980c6c3435ed506bc6755724ea1c3328d83338254eb9b431cca70ef1e36cc",
    "example-2-grid-1001": "14c7e1da41410e2769189c04e3ea17090b3c4a861194ed63ddb8b4ba30d5b490",
    "example-3-grid-16": "443401675a3e89458c81681b63f4c4560421cdabcbf52a43baf0a99d697a67c4",
    "example-3-grid-257": "7f0df14df52c0d4f575035828dbde86c903aca1032093051f6de79173fcaf9e4",
    "example-3-grid-1001": "76186905d7a1f1bef21e6d5a96653d780c7e6ba9e8131e198401e807fb9d40ee",
    "example-4-grid-16": "0ac3e4e7706cac1826d10ac448f34c6705d5dff05d1d8750caa2eab3196fc511",
    "example-4-grid-257": "fc367862a1d60987a9871c7014951cebd441bdf2c1afd53095e68e877ca4eed2",
    "example-4-grid-1001": "9526185ebec73862256c0d50c12d1afa48c4337fd2612512860770dfbc9a6c4f",
    "example-5-grid-16": "f01f142ca6e74b7614281bb50ea89dedd3ce89d2cb01f2b11ac2a10dec63ee3c",
    "example-5-grid-257": "08fc8dae70ad54b81477f2445e247082990de175d8c1eaa9ab44e8e374086227",
    "example-5-grid-1001": "6da3990bc6784038754f51908259c1718bc6ec508beb4a30855fe338070bf328",
    "example-6-grid-16": "225200154256edb2d7a3c5474f92c2da0086cc74fd13dc53678570addaf125c4",
    "example-6-grid-257": "04462e4ca5bf61029e30363ed4cb749069defa6c4068fa84ba84ed2040b8018e",
    "example-6-grid-1001": "1187a5376ddc143eadb3fca13d20636475524e83f1eba8541c556c36756fe549",
    "example-7-grid-16": "56e01cff952c238d1b33d1806719baf5edbb8f22784584427cb15560a89e96d9",
    "example-7-grid-257": "e997cba45be82f041e9cb15e07e111e56fec68604e329786c17a9bd5ed075bc2",
    "example-7-grid-1001": "6f845d0339ff1a4eb4ff3efbce9179abbf1bcd56d4d3e37060d386fed4ca67ec",
    "sine-tangent-envelope-csv": "5ddae99859913a7b5223970457a80d0a0d7037546e183edc5ab16af00100d616",
    "sine-tangent-discriminant-csv": "401fd6cd1049222d5d21e5a84a8bd06a001fa6555423d08aff7fa501230fa3b7",
    "sine-tangent-compare": "f596aa4fc9622f0429e2429259fe75c6ebb9d29bd54cc816f1de9e2c48bf4766",
    "sine-tangent-plot": "6f8901941b6de62bae1ee502e76cf95f146167fb7b10ec985d160ea1c29c726f",
    "sine-evolute-wide": "3cbb115b3234ecfa39e459ecb8c8a5487251ffb4affd95f178b7497297ae074b",
    "sine-tangent-wide": "f5894eb1cd6d9680e92434a71819fd39f0b57d852494bb91903494e64bace761",
    "probe-log-plus-cos": "433902fd833542201c99d1eb8791c8814d2210b7910721151b49d5ff1060e4dc",
    "probe-constant-exponent": "fd7536043fdcee4c8ac4f027480d5524f96bfc1d4a949e96f8ac37c95ff9fbb2",
    "probe-general-sqrt-log": "310f4d28945134c0bc27945571b03fbf8af43a8690b1f9af030b93bb9d79e9dd",
    "probe-log-bracket": "d8e09980ddf30ce8eafa01891637dd9e07011610b4575c16cf7c475f84f24692",
    "sine-tangent-envelope-json": "c161756cdf00bf910ebedbe7645d3736ba1063c57b06d305013c1958c1a07d96",
    "sine-tangent-discriminant-json": "ee6c4b8c5bc2d0bb1268c70efa6eeadec179ae3138bd9975f4317b9b69502fce",
    "example-2-user-b": "4e19a77bab6c1655f9640e9e5567f6a6405d2a11e7fa5b2923bc833ce337bbb8",
    "example-6-unparsed-user-b": "13652885ae15bca2cc8310cc595fe6dc3d5bd366bcfb775e3026e7ffa18bde31",
    "probe-steep-cubic": "536f558edae9af14f4c960c0fc21dd19c2ee4ffaa64b003b5fad2724c385c581",
    "probe-hidden-stall": "05c72942f07d89c37f91a1611d891532cbe89d7bc5f4c8dc7e3d8804d74b9426",
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
    moved = 0
    with ThreadPoolExecutor(2) as pool:
        for name, digest in zip(INVOCATIONS, pool.map(_digest, INVOCATIONS.values())):
            mark = "" if digest == DIGESTS.get(name) else "  # differs from DIGESTS"
            moved += bool(mark)
            print(f'    "{name}": "{digest}",{mark}')
    print(f"# {moved} of {len(INVOCATIONS)} digests differ from DIGESTS")

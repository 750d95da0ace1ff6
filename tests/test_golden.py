"""Golden output bytes: full sha256 of stdout for fixed deterministic calls.

Any change to a report's fields, key order, number formatting or verdict
changes a digest.  A mismatch names the call and the new digest; update the
table only when the output is meant to change.
"""

import hashlib

import pytest

from perminv import cli

GOLDEN = {
    "young dims --n 5": "a349bc69cfad18ecee0f7f0f59e64cf0ad4a92ee1a9cbb78e9e50526af972e42",
    "young branching --n 5": "47db9bcc3e48ac69879a4019c94096e86d44df630b2814146a19f06fb5a51e5b",
    "young characters --n 5": "2a01cc912d57aff1f0415109475bce304a9f61d7f2cd1e1581e7b0cec516afc1",
    "young eigenvalues --n 6": "eded4329d30727cb797c1e2ed311c90842716f3d932e0f3d4b7042869f1f1682",
    "young identities --max-n 12": "85efb73b307e1dd37ad3ba666ba2936fb2abc25e29e2700fac9d3bfb283105c3",
    "young identities --max-n 30": "8a63d4e18c772a54748b8b12c9c6b28b4dda744f8835733073e3681acbcc075f",
    "young eigenvalues --n 4 --format text": "1b651294890f2280b99d6a25acf5f581270a0210fad80d08da34238b5ccdbfa6",
    "spectrum --n 4": "40da2abb1d89310c7859ae1cdbb24fef7d5e80c1d9a7011eef7fc87c7d7f5dde",
    "spectrum --n 4 --format text": "aef707f6e8b01421e51a2b857718c017210df55409b440c7517951195b9c2c2b",
    "spectrum --n 5": "16f33cc8b7c8fe55db9c1d3736da3260532180815e7de72b1992f39d3b71234c",
    "spectrum --n 6": "daafb2adf34e94156b1f0952fd1eecd3a3033f74d219ec862e96154ce77d2e43",
    "decomp-check --n 4 --seed 1": "7dbbcc5db29959ce824d180761ab1b6d56d799adf97f6968d2f4c232e0bfea91",
    "decomp-check --n 5 --seed 0": "ca9ec3e9634327a25aaed561a2cd653f6d6029a3a96693234761e2fefb65a310",
    "decomp-check --n 6 --seed 0": "1effd803685c64b97c048b58e608f441965342379ff7ab682e10d31ae4345888",
    "avgbound --n 4 --k 1 --samples 10 --seed 3": "08272b18d2b8ba85924e190fc1e26608b38fc78a5b911c958db49e96e66727af",
    "avgbound --n 6 --k 3 --seed 0": "854a4be477d4505f9411e23a5714a6e85cef614d33877f5ea54ad6faaee3db3c",
    "lemma-check --n 3 --p 1 --t 1 --programs 3 --seed 2": "0b091008d49923cffcf16fe9845df38e07db6c0825e08290ca68d35bebbb3bad",
    "game --n 3 --p 1 --t 1 --seed 5": "2c615323fad89670fdaed36c469d6122a730cc4f3a6d5a4c1979b0bf76f22624",
    "game --n 3 --p 1 --t 1 --seed 5 --format text": "260302c1e1dcca59db70d2adc1080322f30ce0fd82b923f2af1138000bd734e4",
    "altgame --n 3 --t 1 --g 3 --adversaries 2 --seed 1": "cdbf4ff95580e9e5ff44fdc8af958eb670133cb27e8d5fd22806d5fcf73bdd3d",
    "altgame --n 4 --t 1 --g 3 --seed 0": "390c4707bc8afc6d75621ccb2f64d4874bd80740385a4fdfd34fedbd77550c06",
    "grover --grid": "41340412cddcdb65e7ee76329287768e069aca6d65e59ba0f99327b67d2a3aa2",
    "hellman --log-n 10 --t 16 --t 32 --trials 2 --seed 7": "cbe63c4db4c8b4cc329023ddd8088990934251ec7bfdcee8f13f4ed01258df8f",
    "hellman --log-n 10 --t 16 --trials 1 --seed 7 --format json": "fc1dda5b5e49957a5ccc59c728ffe6aa667e6b525c92cf4e837a8964ecb3e5df",
}


@pytest.mark.parametrize("call", list(GOLDEN))
def test_golden_stdout(call, capsys):
    code = cli.main(call.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[call], f"perminv {call}: stdout sha256 is now {digest}"
    assert code == 0, f"perminv {call}: exit {code}"

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
    "young eigenvalues --n 4 --format text": "7648c4259314005b9cfc6e51919668bf6d3884f2f0a9961c5a5f01f3b9c782a6",
    "spectrum --n 4": "738ecd33e268c318863287bde68bfe8950d06b1fdc69d3b3b3c657aaf35ed0ec",
    "spectrum --n 4 --format text": "788eadfa56a10b6dcf071fd5b146a08a687484fa926977c45e1d05ca15cf2fce",
    "decomp-check --n 4 --seed 1": "4b5f79d43982b65eb217d9809039d3a4a17a92df357828c1084b91eb111e5b91",
    "avgbound --n 4 --k 1 --samples 10 --seed 3": "36f2c8be371768bac51098f53347b08e493fec7c0561d3d874c07975a5189d29",
    "lemma-check --n 3 --p 1 --t 1 --programs 3 --seed 2": "2084393c15547ad7297eace2ad6c6e212e053f3d6faff5b245f8d1a72906fc43",
    "game --n 3 --p 1 --t 1 --seed 5": "7725ea129745c4501e45208d1ec574d8e6292da0fadf0a0a4026fa8020706f61",
    "game --n 3 --p 1 --t 1 --seed 5 --format text": "9410195e7f327c841f5cc72c92f7b35afdb4251b9415c5ed8a5013808a288036",
    "altgame --n 3 --t 1 --g 3 --adversaries 2 --seed 1": "cdbf4ff95580e9e5ff44fdc8af958eb670133cb27e8d5fd22806d5fcf73bdd3d",
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

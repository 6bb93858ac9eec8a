"""Golden bytes: SHA-256 digests of CLI stdout and written files.

Each call below runs at a small size in one scratch directory, with
relative paths so that no machine-specific path reaches the bytes. The
digests pin the exact output of the current RNG layout and number
formatting; a change that moves any of them must say so and re-record
them (run this file with ``-s`` to print the current digests).
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from aircomp.cli import main

# Input files written into the scratch directory before the calls run.
INPUTS = {
    # l = 1 makes every encode a 3x1 matrix-vector product, where
    # ``phi @ w`` (numpy's own loop) and ``phi.dot(w)`` (BLAS) round
    # differently in the last bits; report.json prints full precision.
    # It guards the matvec rule (coding._matvec): ``dot`` only where both
    # dimensions are at least 2 and ``phi`` is C-contiguous.
    "l1.json": json.dumps({
        "k_users": 10, "l": 1, "l_tilde": 3, "p_w": 1.0, "n0": 1.0,
        "snr_db": 10.0, "rician_kappa_db": 5.0, "min_gain_floor": 1e-6,
        "master_seed": 8,
    }),
}

CALLS = [
    ("construct", ["construct", "--l", "5", "--l-tilde", "10", "--seed", "3",
                   "--out", "phi.json"], ["phi.json"]),
    ("check", ["check", "--matrix", "phi.json", "--seed", "1"], []),
    # C(16, 8) = 12870 row subsets: validation spans many SVD batches
    ("construct-16x8", ["construct", "--l", "8", "--l-tilde", "16", "--seed", "3",
                        "--out", "p16.json"], ["p16.json"]),
    ("check-16x8", ["check", "--matrix", "p16.json", "--seed", "1"], []),
    # 200 < C(10, 5) = 252 subsets, so this check samples
    ("check-sampled", ["check", "--matrix", "phi.json", "--seed", "1",
                       "--max-exhaustive", "10", "--samples", "200"], []),
    ("theory", ["theory", "--l", "5", "--l-tilde", "10", "--snr-db", "5",
                "--matrix", "phi.json"], []),
    ("regions", ["regions", "--epsilon", "0.02", "--snr-db", "0", "15", "30"], []),
    ("simulate-fixed-unit", ["simulate", "--mode", "fixed-unit", "--trials", "40",
                             "--seed", "1", "--eta", "1", "--out", "fu"],
     ["fu.trials.csv", "fu.report.json"]),
    ("simulate-rician", ["simulate", "--mode", "rician-per-trial", "--trials", "40",
                         "--seed", "2", "--eta", "1", "--out", "ri"],
     ["ri.trials.csv", "ri.report.json"]),
    ("simulate-rician-l1", ["simulate", "--config", "l1.json", "--mode",
                            "rician-per-trial", "--trials", "40", "--out", "l1"],
     ["l1.trials.csv", "l1.report.json"]),
    ("simulate-fixed-from-seed", ["simulate", "--mode", "fixed-from-seed",
                                  "--trials", "40", "--seed", "3", "--out", "fs"],
     ["fs.trials.csv", "fs.report.json"]),
    ("simulate-repetition", ["simulate", "--construction", "repetition",
                             "--mode", "fixed-unit", "--trials", "40", "--seed", "4"],
     []),
    ("simulate-custom", ["simulate", "--construction", "custom", "--matrix",
                         "phi.json", "--mode", "fixed-from-seed", "--trials", "40",
                         "--seed", "5"], []),
    ("dist-test", ["dist-test", "--seed", "0", "--ks-trials", "1000",
                   "--chernoff-trials", "1000", "--oracle-n", "1000"], []),
    ("figures-2", ["figures", "--which", "2", "--trials", "10", "--seed", "6",
                   "--out-dir", "fig"], ["fig/fig2_mse_vs_snr.csv"]),
    ("figures-3", ["figures", "--which", "3", "--out-dir", "fig"],
     ["fig/fig3_rate_regions.csv"]),
    ("figures-4", ["figures", "--which", "4", "--trials", "20", "--seed", "7",
                   "--out-dir", "fig"], ["fig/fig4_blocklength.csv"]),
]

GOLDEN = {
    'check-16x8:exit': '0',
    'check-16x8:stdout': '20e7a22758896b8d5de5e31687dfa44cbc3fe33124d60f52a05a0ef4fc712ad0',
    'check-sampled:exit': '0',
    'check-sampled:stdout': '87cdfce49060ad9bc84d122b5d840181567bb628a263e83fdc44c6f665426ea0',
    'check:exit': '0',
    'check:stdout': 'd7ea908a7cb16b5736034a2a7cb86087215dc1063cd7ad0b317c22898c3d8157',
    'construct-16x8:exit': '0',
    'construct-16x8:p16.json': '78ca71d9d8cb5ea017320c4201870f0c05b979a74897f2405630a5eb9bf2150d',
    'construct-16x8:stdout': '0e4873ff2df6d319b8fe7ff801338a55b1dd6ee6743371c93e8278678301fc39',
    'construct:exit': '0',
    'construct:phi.json': '8122f5987e66e786fc43d9dd28789ddc20a3cb7435940184dc49b4d62ccfa7ac',
    'construct:stdout': 'dc3f9ce4ae5cf830adcc9d0af98a7a6f16c9454485036e9d06de71ca3283dad5',
    'dist-test:exit': '0',
    'dist-test:stdout': '070165ae0397295919eb1d484b39a75f0a2b8e9c4ad940be0a0153aed488be46',
    'figures-2:exit': '0',
    'figures-2:fig/fig2_mse_vs_snr.csv': '738490b9bedbebb617f34608e2a4df99ff6864e739db50051fc4b2d2c78869fe',
    'figures-2:stdout': 'c880d3a75ebe9329c865e2c65a674f1a4de76b67d0163d704ae107e7263f777e',
    'figures-3:exit': '0',
    'figures-3:fig/fig3_rate_regions.csv': '951dc76cbf653bfac925d8c8add88dff78b937d79f9d4d4e409ae10d9940b9ce',
    'figures-3:stdout': 'fb86b0c34778b614b1976e5f59809e859f1c5abe872405d848bb976e7898aa5d',
    'figures-4:exit': '0',
    'figures-4:fig/fig4_blocklength.csv': 'ab94c4e8200bcba50bfa4ba6a92d1834d9d1dd0074f1a7e595182e573d1e8cf4',
    'figures-4:stdout': '67866ccfabfc18c07b1c2365141605f0f68054136d229b7e68f81543535828d9',
    'regions:exit': '0',
    'regions:stdout': '946e60c2ece418ce16a98702089ed67ec3d6fc36a4dafad9774631235032dd5e',
    'simulate-custom:exit': '0',
    'simulate-custom:stdout': 'c70e6ba3d0449884a9df45f4efa5c8637b6bc4b0e918eb86cdc89229a606be55',
    'simulate-fixed-from-seed:exit': '0',
    'simulate-fixed-from-seed:fs.report.json': 'fb4aa0b585c8ca43bdf029f6190804b321f6dea7d2baa383b926f0208485a883',
    'simulate-fixed-from-seed:fs.trials.csv': '3211c4f6cf44cf293d87ad27cd82a8a8d40c15def850492a23c34101a02f19b0',
    'simulate-fixed-from-seed:stdout': '2007485f1a3c7744a005a9d9db00c1a951634d231877f9a196d5a12507eded76',
    'simulate-fixed-unit:exit': '0',
    'simulate-fixed-unit:fu.report.json': 'c04e31d7cdd7d80c796bc383c5c4cb50c2abab29ea8e68043b2c414fe3e18dfe',
    'simulate-fixed-unit:fu.trials.csv': 'b390e39267e655d38fb164cd95b82fb1a88a9c20609a1546b3c25785b6bb1e4a',
    'simulate-fixed-unit:stdout': '5374de12adbded4f62dfbd7b518bc6427995847a0db1ec217c70a48bf9aca187',
    'simulate-repetition:exit': '0',
    'simulate-repetition:stdout': 'eaa25d404eae012da7620069fbc044871a57898af42573a6e57c13aac9dfcd9f',
    'simulate-rician-l1:exit': '0',
    'simulate-rician-l1:l1.report.json': 'f4d02bb29b7c9afef2606c893a091d712ba89b69855beb5a0d30b50302332ecf',
    'simulate-rician-l1:l1.trials.csv': 'd10f3a7d1117c30163f0442b496ed2f405c0c5dab6c0406914b49843e5c98358',
    'simulate-rician-l1:stdout': 'ebfeb7f19be7899e629b5e892bc40ed44a782865aa12ffa994ee67568bb83936',
    'simulate-rician:exit': '0',
    'simulate-rician:ri.report.json': 'b5ced79eaf6468353f8001827f602aa1439883d8b1ddc5d862081b788fd7505a',
    'simulate-rician:ri.trials.csv': 'e784cd507c91501fc897babab2395bab6898a662f1240bd75806ba2f267ae7fb',
    'simulate-rician:stdout': 'a88f56d390f152fd916934677f53a38912bf4580a7a2183edb717eeedc0b1159',
    'theory:exit': '0',
    'theory:stdout': '6f1d3933c8f13fbf92b44fa26b04266d1d5526d911e3d60a82170f89b9a06dee',
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in INPUTS.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        got = {}
        for label, argv, files in CALLS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            got[f"{label}:exit"] = str(code)
            got[f"{label}:stdout"] = _sha(out.getvalue().encode("utf-8"))
            for name in files:
                with open(name, "rb") as fh:
                    got[f"{label}:{name}"] = _sha(fh.read())
    finally:
        os.chdir(here)
    for key in sorted(got):
        print(f"    {key!r}: {got[key]!r},")
    return got


def test_every_call_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_bytes_match_golden(digests, key):
    assert digests[key] == GOLDEN[key]

"""CLI stdout on the corpus, pinned by sha256.

A change that must not move output keeps these digests; a change that
moves output on purpose updates them (``python tests/test_golden.py``
prints the current table) and says why.  Each command runs in a fresh
interpreter, as a user runs it, under a fixed ``PYTHONHASHSEED`` (stdout
must not depend on it anyway).  Weak-bisimulation witnesses are left
out: they are a known-defective stutter chain, not output worth pinning.
"""

import hashlib
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

SYSTEMS = ("adaptation", "channels", "groups", "pubsub", "robotics")
COMMANDS = (
    [f"{cmd} corpus/{name}.abc" for name in SYSTEMS for cmd in ("explore", "barbs")]
    + [
        "reach corpus/robotics.abc \"role='helper'\"",
        "bisim corpus/channels.abc corpus/pubsub.abc",
        "bisim corpus/groups.abc corpus/adaptation.abc",
    ]
    + [f"check-encoding corpus/bpi/t{k:02d}.bpi" for k in range(1, 23)]
)

# command -> (exit code, sha256 of stdout)
GOLDEN = {
    'explore corpus/adaptation.abc': (0, '11128301de56c41f4df024efc72c8710b03856770f4436b5a9ab1481c511fb05'),
    'barbs corpus/adaptation.abc': (0, 'eecc6256c7f91d871b9d3e0cd6491e6e956c1bcefc34a766d1a1a27855839b1b'),
    'explore corpus/channels.abc': (0, '8585585d82dd0273934127e2b20f37cc7dc09b988ccb2fdd89c8131f3c9889e8'),
    'barbs corpus/channels.abc': (0, 'eecc6256c7f91d871b9d3e0cd6491e6e956c1bcefc34a766d1a1a27855839b1b'),
    'explore corpus/groups.abc': (0, '62bba9e285309220dd63ac6cf3101f9244825d35bd41a32306aae4cc8a5bb578'),
    'barbs corpus/groups.abc': (0, '41500dbaab1a7e3485fc1368ce37172c5db7435d7f0c6a754068c0baaf248fb7'),
    'explore corpus/pubsub.abc': (0, '4948bd1461839ebc0c92a79faa522ef99267eac65d8c500776eeb7dd9618dfc8'),
    'barbs corpus/pubsub.abc': (0, 'eecc6256c7f91d871b9d3e0cd6491e6e956c1bcefc34a766d1a1a27855839b1b'),
    'explore corpus/robotics.abc': (0, 'f7a7be38eb5afd5d4620ef34a71a48d6317efcd8ebd1100efd3e7737ea724b8c'),
    'barbs corpus/robotics.abc': (0, 'dde7ed21db76447908e0ae4f905cbfe1de0162ee4a46fba38ce1793726dbaf24'),
    'reach corpus/robotics.abc "role=\'helper\'"': (0, 'b4c2e9b8b095288e96ccb4b54d352cf8a7570bc1f4562c98414528fa3cd96ee4'),
    'bisim corpus/channels.abc corpus/pubsub.abc': (1, '2cad691185635c938124001500dbd309824fc1f91cc0de2ab6086319321d3e41'),
    'bisim corpus/groups.abc corpus/adaptation.abc': (1, '2289a21ccd7299b33007e7370ef228e0a426cecf2d001dc5c9caa7a6db37c887'),
    'check-encoding corpus/bpi/t01.bpi': (0, 'ee82e30b0f8d8b7e8bce2c684dd1c991400c7e1e67d3874ecb3f809e41bf38eb'),
    'check-encoding corpus/bpi/t02.bpi': (0, '3799c84f3dea9f26eefca573d400888f4f542e85ae0fe196280444cea746f94b'),
    'check-encoding corpus/bpi/t03.bpi': (0, 'ee82e30b0f8d8b7e8bce2c684dd1c991400c7e1e67d3874ecb3f809e41bf38eb'),
    'check-encoding corpus/bpi/t04.bpi': (0, '946601628433ab7e58294cbf99825fc0a544862ffb23a096960db48cd4943e18'),
    'check-encoding corpus/bpi/t05.bpi': (0, '946601628433ab7e58294cbf99825fc0a544862ffb23a096960db48cd4943e18'),
    'check-encoding corpus/bpi/t06.bpi': (0, '3799c84f3dea9f26eefca573d400888f4f542e85ae0fe196280444cea746f94b'),
    'check-encoding corpus/bpi/t07.bpi': (0, '946601628433ab7e58294cbf99825fc0a544862ffb23a096960db48cd4943e18'),
    'check-encoding corpus/bpi/t08.bpi': (0, '946601628433ab7e58294cbf99825fc0a544862ffb23a096960db48cd4943e18'),
    'check-encoding corpus/bpi/t09.bpi': (0, '946601628433ab7e58294cbf99825fc0a544862ffb23a096960db48cd4943e18'),
    'check-encoding corpus/bpi/t10.bpi': (0, '946601628433ab7e58294cbf99825fc0a544862ffb23a096960db48cd4943e18'),
    'check-encoding corpus/bpi/t11.bpi': (0, '3799c84f3dea9f26eefca573d400888f4f542e85ae0fe196280444cea746f94b'),
    'check-encoding corpus/bpi/t12.bpi': (0, '3799c84f3dea9f26eefca573d400888f4f542e85ae0fe196280444cea746f94b'),
    'check-encoding corpus/bpi/t13.bpi': (0, '3799c84f3dea9f26eefca573d400888f4f542e85ae0fe196280444cea746f94b'),
    'check-encoding corpus/bpi/t14.bpi': (0, 'ee82e30b0f8d8b7e8bce2c684dd1c991400c7e1e67d3874ecb3f809e41bf38eb'),
    'check-encoding corpus/bpi/t15.bpi': (0, 'ee82e30b0f8d8b7e8bce2c684dd1c991400c7e1e67d3874ecb3f809e41bf38eb'),
    'check-encoding corpus/bpi/t16.bpi': (0, 'ee82e30b0f8d8b7e8bce2c684dd1c991400c7e1e67d3874ecb3f809e41bf38eb'),
    'check-encoding corpus/bpi/t17.bpi': (0, '3799c84f3dea9f26eefca573d400888f4f542e85ae0fe196280444cea746f94b'),
    'check-encoding corpus/bpi/t18.bpi': (0, '946601628433ab7e58294cbf99825fc0a544862ffb23a096960db48cd4943e18'),
    'check-encoding corpus/bpi/t19.bpi': (0, '566149c128b761dd12ab6ab2fcc1c653822daa5d4a813d125bbac88b1de82cf1'),
    'check-encoding corpus/bpi/t20.bpi': (0, '3799c84f3dea9f26eefca573d400888f4f542e85ae0fe196280444cea746f94b'),
    'check-encoding corpus/bpi/t21.bpi': (0, '566149c128b761dd12ab6ab2fcc1c653822daa5d4a813d125bbac88b1de82cf1'),
    'check-encoding corpus/bpi/t22.bpi': (0, '3799c84f3dea9f26eefca573d400888f4f542e85ae0fe196280444cea746f94b'),
}


def run_cli(command: str) -> tuple[int, str]:
    src = str(ROOT / "src")
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
    }
    done = subprocess.run(
        [sys.executable, "-m", "abcwb.cli", *shlex.split(command)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=300,
    )
    return done.returncode, hashlib.sha256(done.stdout).hexdigest()


def test_every_command_has_a_digest():
    assert sorted(GOLDEN) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_stdout_matches_its_digest(command):
    assert run_cli(command) == GOLDEN[command]


if __name__ == "__main__":
    for command in COMMANDS:
        print(f"    {command!r}: {run_cli(command)!r},")

"""CLI stdout on the corpus, pinned by sha256.

A change that must not move output keeps these digests; a change that
moves output on purpose updates them (``python tests/test_golden.py``
prints the current table) and says why.  Each command runs in a fresh
interpreter, as a user runs it, under a fixed ``PYTHONHASHSEED`` (stdout
must not depend on it anyway).
"""

import hashlib
import shlex
import subprocess
import sys

import pytest

from conftest import ROOT, cli_env

SYSTEMS = ("adaptation", "channels", "groups", "pubsub", "robotics")
COMMANDS = (
    [f"{cmd} corpus/{name}.abc" for name in SYSTEMS for cmd in ("explore", "barbs")]
    + [
        "reach corpus/robotics.abc \"role='helper'\"",
        "bisim corpus/channels.abc corpus/pubsub.abc",
        "bisim corpus/groups.abc corpus/adaptation.abc",
        "bisim --weak corpus/channels.abc corpus/pubsub.abc",
        "bisim --weak corpus/groups.abc corpus/adaptation.abc",
        # bounds, seeds, JSON output and the witness of an unreached query
        "explore --max-depth 3 corpus/robotics.abc",
        "explore --max-states 100 corpus/robotics.abc",
        "--seed 5 explore --repl-bound 2 --format json corpus/robotics.abc",
        "reach corpus/robotics.abc \"role='nobody'\"",
        "reach --max-states 100 corpus/robotics.abc \"role='helper'\"",
        "bisim --max-states 50 corpus/channels.abc corpus/pubsub.abc",
        "--seed 3 trace corpus/robotics.abc",
        "--seed 7 step corpus/robotics.abc",
        # a replicated pool that runs out of fuel
        "explore corpus/pool.abc",
        "reach corpus/pool.abc \"job=2\"",
    ]
    + [f"check-encoding corpus/bpi/t{k:02d}.bpi" for k in range(1, 23)]
    + [f"encode corpus/bpi/t{k:02d}.bpi" for k in range(1, 23)]
)

# command -> (exit code, sha256 of stdout)
GOLDEN = {
    'explore corpus/adaptation.abc': (0, '11128301de56c41f4df024efc72c8710b03856770f4436b5a9ab1481c511fb05'),
    'barbs corpus/adaptation.abc': (0, 'eecc6256c7f91d871b9d3e0cd6491e6e956c1bcefc34a766d1a1a27855839b1b'),
    'explore corpus/channels.abc': (0, '8585585d82dd0273934127e2b20f37cc7dc09b988ccb2fdd89c8131f3c9889e8'),
    'barbs corpus/channels.abc': (0, 'eecc6256c7f91d871b9d3e0cd6491e6e956c1bcefc34a766d1a1a27855839b1b'),
    'explore corpus/groups.abc': (0, '44ee223f349e9b639701a6edb5e3d4e601f14a50c532402749fbb09641559026'),
    'barbs corpus/groups.abc': (0, '41500dbaab1a7e3485fc1368ce37172c5db7435d7f0c6a754068c0baaf248fb7'),
    'explore corpus/pubsub.abc': (0, '67c8450573b15ac9038daa883f127b8f5e8860b285a071ee0826e0b8a34a01be'),
    'barbs corpus/pubsub.abc': (0, 'eecc6256c7f91d871b9d3e0cd6491e6e956c1bcefc34a766d1a1a27855839b1b'),
    'explore corpus/robotics.abc': (0, '77314778651781bbd3d9eb8f720483134c04ee673974238d263fccd9e11bc37e'),
    'barbs corpus/robotics.abc': (0, 'dde7ed21db76447908e0ae4f905cbfe1de0162ee4a46fba38ce1793726dbaf24'),
    'reach corpus/robotics.abc "role=\'helper\'"': (0, '16c409d804162414dd352e28bfd53e96dab2d9ffe7620fa3947fac2c8486be38'),
    'bisim corpus/channels.abc corpus/pubsub.abc': (1, '2cad691185635c938124001500dbd309824fc1f91cc0de2ab6086319321d3e41'),
    'bisim corpus/groups.abc corpus/adaptation.abc': (1, 'efd05e0414de307c74f4cfc5379613e125b855a9a62255ba3231a48d7d72ad47'),
    'bisim --weak corpus/channels.abc corpus/pubsub.abc': (1, '5f3d4a60e886d05bed1552e82c22b69be1ec1a51d10e6892805eb94d9c3b86c8'),
    'bisim --weak corpus/groups.abc corpus/adaptation.abc': (1, 'a796a5a9db28bce82a3c0de41ce6d4358859b1dd98f460a9ac0a70d64b015d5f'),
    'explore --max-depth 3 corpus/robotics.abc': (0, '62aa9f629f45d98ed5a80c8785b44fae1df904937f58d2b4e2b29052b9a9e041'),
    'explore --max-states 100 corpus/robotics.abc': (0, 'b3a642f79165d813385065e76e9480ad0b3ee6d2b1fe0350b9af97e1c4f536bd'),
    '--seed 5 explore --repl-bound 2 --format json corpus/robotics.abc': (0, '0400b90b3c46ed8d3cf87071a81a8994a13f5c935312a8b6c64359e812d2e7a7'),
    'reach corpus/robotics.abc "role=\'nobody\'"': (1, '58d830a67b95718afeebb42bfa39f853e9d5fbb9f641e7405ccac8c35287f458'),
    'reach --max-states 100 corpus/robotics.abc "role=\'helper\'"': (2, '4d0d7a8c399334026425e0e66778652abf795c9b9e088b6300dbaed53109e9a9'),
    'bisim --max-states 50 corpus/channels.abc corpus/pubsub.abc': (2, 'f7bc9eb07183e7e7c2f2c326c8522481ea4fa15ebfb04258f9bacac821fbc73d'),
    '--seed 3 trace corpus/robotics.abc': (0, '686f8f43154c9f3e42168ae018f9e8e2ae60e21599c238d6ecc45b38b987a086'),
    '--seed 7 step corpus/robotics.abc': (0, '92c36fd40d53558128e728e092de77e573387a170bb9d754dfd811d40be7ffd5'),
    'explore corpus/pool.abc': (0, 'f928d8616519d4cd86fbcdfa0f0a250a445df191f3b62bbfd8d5416289ad2f3f'),
    'reach corpus/pool.abc "job=2"': (2, 'a544be9b27743d826f7c4ce05975a7a842c07653b371c82f8de69e4996083bc2'),
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
    'encode corpus/bpi/t01.bpi': (0, 'e92e9eafdb87badbef64982d93cd94a6ae9a378fcbc89df5c7e7397dc899749f'),
    'encode corpus/bpi/t02.bpi': (0, 'fc855ef291448ea55a7f273915541f20176dc8c6d3ca3c8e631fd23487832bb8'),
    'encode corpus/bpi/t03.bpi': (0, '29be1d5ef1481062e6d8cdd8c201d8d35d0df75fb09643dcb1494d3067641c0d'),
    'encode corpus/bpi/t04.bpi': (0, 'd70e4d78995615600653c50227899cb7a389faf652d49705a5d18eaa1122049d'),
    'encode corpus/bpi/t05.bpi': (0, 'ef067d1b889c8a2eadc403a23ef6ac09754d21e7826c5b92d04635528ffa745f'),
    'encode corpus/bpi/t06.bpi': (0, '15e5c135bcd06fac1d10387a9e2139f8993ec6738e18cbf6ff603b5d20e8cf28'),
    'encode corpus/bpi/t07.bpi': (0, 'e4cccda417e33d3758d80727e75865f40d4797925a75d561893313af00e1cd53'),
    'encode corpus/bpi/t08.bpi': (0, '2d123ca5b930c4ce2a21446c243ae06568f248065c250fd41c42d59a36c365b5'),
    'encode corpus/bpi/t09.bpi': (0, '53f8273050283b31e16eca1edf33e62733bf0d11efe54be6d30ce86d2ba4647c'),
    'encode corpus/bpi/t10.bpi': (0, '59b65af34985cdb68882070536458c9cdd339b56d98a3c2a9bcbf3917681f6f3'),
    'encode corpus/bpi/t11.bpi': (0, 'f351e51af108f934e8b6e2f85323c2caa779cc1cd5e1fd70f0be45625734b977'),
    'encode corpus/bpi/t12.bpi': (0, '6fa8db23c2dfc31155a9f0db19449793c94d667e8ce7a6c2fd01e80112a31fb8'),
    'encode corpus/bpi/t13.bpi': (0, '2b0eca6e13fa535d2769a7b17e1dac362fbaee6792ed85c1702b9376fefa6bdf'),
    'encode corpus/bpi/t14.bpi': (0, '4ff340f933d9a4ec571070324bda670ff20f93f4892c2466c5344805544aeac6'),
    'encode corpus/bpi/t15.bpi': (0, '49cd96f43425cd8c6652222fbdf9c19e54dcd213d3a3561ead811e949510a968'),
    'encode corpus/bpi/t16.bpi': (0, '4fc44b441e1e3c74a468820be8678f76be3fbc1c01664700940d1dad3faabab8'),
    'encode corpus/bpi/t17.bpi': (0, 'ecfe92c19546197c305f8794ce7ff93bf69e738ce47ced64d37a8339af7d1447'),
    'encode corpus/bpi/t18.bpi': (0, '71ab678e7ec6539a97e8cee785159e5b7c5a2a2754586b9a4f029797082f2055'),
    'encode corpus/bpi/t19.bpi': (0, '187ef2aa0b2196222797f2f4fb3c9bb6d39529dc0bfd1b14fac821fa4fcfac31'),
    'encode corpus/bpi/t20.bpi': (0, '862dfb40d9d39fe8bd80326fa748a979ba305d57100aa2c0f7510ec5e6c7af5b'),
    'encode corpus/bpi/t21.bpi': (0, '460f48ab6109b0e9957101200e315026c2c2a650b660fcaf123f5b7b7ffa1e20'),
    'encode corpus/bpi/t22.bpi': (0, '6b336d56752cf14b334a6be8ae231910ff1c1c74377f70a252c5159fbfee466f'),
}


def run_cli(command: str) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "-m", "abcwb.cli", *shlex.split(command)],
        cwd=ROOT, env=cli_env(PYTHONHASHSEED="0"), stdout=subprocess.PIPE, timeout=300,
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

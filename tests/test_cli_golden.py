"""Golden stdout of `python -m qcrystals.cli`, pinned by sha256.

Each case runs the CLI in a fresh interpreter and compares its exit code and
the sha256 of its stdout with values recorded before the delete-and-merge
refactor of src/, so any refactor must keep the command-line output
byte-identical. Every subcommand and every --format value appears at least
once.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# s[5,1,1] x3 + s[4,3] + s[3,2,2] x2 + s[2,2,1,1,1], expanded in the F basis
SCHURIFY_INPUT = (
    "3*F[5,1,1] + F[4,3] + 3*F[4,2,1] + 3*F[4,1,2] + F[3,4] + 4*F[3,3,1]"
    " + 6*F[3,2,2] + 3*F[3,1,3] + 2*F[3,1,2,1] + 4*F[2,4,1] + 7*F[2,3,2]"
    " + 6*F[2,2,3] + 5*F[2,2,2,1] + 2*F[2,2,1,2] + F[2,2,1,1,1] + 3*F[2,1,4]"
    " + 2*F[2,1,3,1] + 2*F[2,1,2,2] + 3*F[2,1,2,1,1] + F[2,1,1,2,1]"
    " + F[2,1,1,1,2] + 3*F[1,5,1] + 4*F[1,4,2] + 4*F[1,3,3] + 3*F[1,3,2,1]"
    " + 2*F[1,3,1,2] + 3*F[1,2,4] + 3*F[1,2,3,1] + 5*F[1,2,2,2]"
    " + 3*F[1,2,2,1,1] + 2*F[1,2,1,3] + 3*F[1,2,1,2,1] + F[1,2,1,1,2]"
    " + F[1,2,1,1,1,1] + 3*F[1,1,5] + 2*F[1,1,3,1,1] + 3*F[1,1,2,2,1]"
    " + 3*F[1,1,2,1,2] + F[1,1,2,1,1,1] + F[1,1,1,2,2] + F[1,1,1,2,1,1]"
    " + F[1,1,1,1,2,1]\n")

# (argv, stdin, exit code, sha256 of stdout)
GOLDEN = [
    (["count", "ssyt", "--shape", "4,3", "--max-entry", "5"], None, 0,
     "bbcbd376433c5a51261ea0ffa291cf0c8dcc9b8ddc26f87e55896dd2880d2b42"),
    (["count", "bm", "--size", "5", "--max-entry", "4"], None, 0,
     "2a57042a43991d2ca310938e6802d7283954e38c825a548c4bee89c45238b43b"),
    (["count", "kostka", "--shape", "3,2,1", "--weight", "2,0,2,1,1"], None, 0,
     "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),
    (["count", "plethysm-monomials", "--outer", "2,1", "--inner", "2",
      "--max-entry", "3"], None, 0,
     "6442bc26a7c562f5afe6467dab36365c709909f6a81afcecfc0c25cff0f1bab0"),
    (["rsk", "--word", "3142312"], None, 0,
     "288e981c9fc64e724e7c33f6dabf5921c75551d9455c609d306406492c7b71bc"),
    (["rsk", "--word", "10,3,12,3,1"], None, 0,
     "bd5cc9b7c42edd96ba45b978f03bf3d92a54c008bfc0a59352c9243cdb43ec46"),
    (["evac", "--tableau", "[[1,1,2,3],[2,2,3],[3],[4]]", "--max-entry", "5"], None, 0,
     "fd0521eec620be4b8b014e79c2cd02067611facebe4cf7066492d08577a908b6"),
    (["evac", "--tableau", "[[1,2,4],[3]]"], None, 0,
     "81a922fafeb9fb728869093408ddbd37df783809386d55045bd0c034f18a8d3f"),
    (["crystal", "--shape", "3,2", "--max-entry", "3"], None, 0,
     "d24842becf5c41c723049f07af011fd9f045ecfa4c43b1780cb7f6763092d649"),
    (["crystal", "--shape", "3,2", "--max-entry", "3", "--format", "json"], None, 0,
     "66d836974edb0005b74f4be70560c2a2b0a6a5d078a7eecdd341e51cef803b09"),
    (["crystal", "--shape", "3,2", "--max-entry", "3", "--format", "dot"], None, 0,
     "2d699420df698fe309a43cdb348e8b12aacf41da816a7782119bcabb8d6a45b9"),
    (["crystal", "--shape", "2,1", "--max-entry", "4", "--format", "dot", "--decompose"], None, 0,
     "f5482509777a3720cde76cc471cb11d15738f66f32058ac26044b2bb1dec3206"),
    (["crystal", "--shape", "2,1", "--max-entry", "4", "--decompose"], None, 0,
     "718d94135cca86a45a2b9f5bfc4e7e88e81d52a23e9625c17886a54e10c33239"),
    (["crystal", "--shape", "2,2,1", "--max-entry", "2", "--format", "json"], None, 0,
     "3994f8037b8c19c0df8186d82361b0d7b9abcc94277c32c39b5b204ed033d3ec"),
    (["decompose", "--shape", "3,1", "--max-entry", "4"], None, 0,
     "1b33d298f2af2e37450289d86ab1f969d89c58f385b08f67f3da162ba7f2fe80"),
    (["decompose", "--shape", "3,1", "--max-entry", "4", "--format", "json"], None, 0,
     "70d7423c14e261bfe1b3664043cfd617f4caf83554885d4821480e3307f49f88"),
    (["decompose", "--shape", "3,1", "--max-entry", "4", "--format", "dot"], None, 0,
     "82d1c8357d436578d6cd97449b968b9e39d9623c14f0abe7ba467bba79d29b03"),
    (["skeleton", "--shape", "3,2,1"], None, 0,
     "5c5a82dc5104f304d90bdbb912d684d64d60e5e7a6c98b277f52174f878bebf5"),
    (["skeleton", "--shape", "3,2,1", "--format", "json"], None, 0,
     "89c93bb3b005957fffdd95f3f877f863364b48fc46d21501ab8910799b5a44b6"),
    (["skeleton", "--shape", "3,2,1", "--format", "dot"], None, 0,
     "666ff1e840de16ce5629b7f3ad4720c3aa9d8fdcff5e19f4413f03f3d19d3726"),
    (["skeleton", "--shape", "3,2,1", "--max-entry", "2", "--format", "json"], None, 0,
     "e8f6ccf108ea092e134dc82c09aa05f498d85663d2c4a46a3b7732706651647e"),
    (["skeleton", "--shape", "4,2", "--max-entry", "4", "--format", "dot"], None, 0,
     "3024af03f248c90ecdd097aea170bbcc8d4205d39e43e943f1b7d9b8d93fb3aa"),
    (["skeleton", "--shape", "4,2", "--max-entry", "3"], None, 0,
     "2ce01b389d4e7525b663c8d396a033fb1b0e2bea5ca3e348188753c38cb4d939"),
    (["dual-equivalence", "--shape", "3,2,1"], None, 0,
     "7e3de290da2391cf46b58f2856efd6eb06f686fb439808db787fe32c942d874c"),
    (["dual-equivalence", "--shape", "3,2,1", "--format", "json"], None, 0,
     "83d037061bd0e8103b5ec2a4a5179aba4805809e8f1296cb79aa50670ed5130d"),
    (["dual-equivalence", "--shape", "3,2,1", "--format", "dot"], None, 0,
     "40fcb91b9d168cbefbf082c1c7d5c81bad453c0cd188a9a5cbd4fc5aff153c5f"),
    (["schurify", "--input", "-"], SCHURIFY_INPUT, 0,
     "a424489b677c52da199f572e22e0272d86b30a1e9deb9b703a71b728503ca251"),
    (["schurify", "--input", "-"], "F[1,2]\n", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["count", "bm", "--size", "0", "--max-entry", "3"], None, 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["crystal", "--shape", "1,2", "--max-entry", "3"], None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["check", "--max-size", "3"], None, 0,
     "93e710dfa8efddf85df5caad928810747a0f4aedd5b0c9d7a100b6ec75c18c2c"),
    (["check", "--max-size", "3", "--json"], None, 0,
     "2f732e35ab0e5bfd12980f7fd731827f9ca7798115c8e2e1b43c2c45f28c967d"),
    (["check", "--max-size", "4", "--which", "conjectures", "--json"], None, 0,
     "37e6e286f75a5c53eadc268ff0312335b45ac294ebfc5feba5e4f02435b7e899"),
]


def run(argv, stdin):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-m", "qcrystals.cli", *argv],
                          input=stdin, capture_output=True, text=True, env=env,
                          timeout=300)
    return proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest()


@pytest.mark.parametrize("argv, stdin, code, digest", GOLDEN,
                         ids=[" ".join(case[0]) for case in GOLDEN])
def test_stdout_is_byte_identical(argv, stdin, code, digest):
    assert run(argv, stdin) == (code, digest)

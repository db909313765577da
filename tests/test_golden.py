"""Golden bytes: SHA-256 digests of encoded artifacts, pinned across commits.

Acceptance check 9 compares two encodes made by the same code, so a writer
that drifted would still pass it.  These digests were computed once and
must not change while the artifact format is version 1: every kind, every
report type and one ``shrinkwrap build --decoys`` artifact.  A failure here
means the bytes on disk changed, not merely that a value did.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from gen import rand_branch_tree, rand_rmap, rand_silver, rand_upreal
from shrinkwrap.cli import run
from shrinkwrap.codec import KINDS, encode
from shrinkwrap.core import ZERO, BranchTree, UPReal
from shrinkwrap.domination import check_domination
from shrinkwrap.sacks import verify_fusion_helper
from shrinkwrap.silver import (
    GroundUniverse,
    ObstructionReport,
    SilverTree,
    brute_obstruction,
    obstruct,
)
from shrinkwrap.wrapper import build_padded_wrapper, build_wrapper, verify_wrapper


def R(prefix, period=(0,)):
    return UPReal(tuple(prefix), tuple(period))


XS = (ZERO, R([1]), R([0, 1]), R([], (1,)))
P6 = SilverTree(6, frozenset({1, 3}), {0: 0, 2: 1, 4: 0, 5: 1})
G4 = GroundUniverse(frozenset(XS))
G8 = GroundUniverse(frozenset({
    *XS, R([0], (1,)), R([1, 1]), R([0, 0, 1]), R([1, 0], (1,)),
}))


def seeded_reals(seed: int, count: int, **kw) -> tuple[UPReal, ...]:
    rng = random.Random(seed)
    return tuple(rand_upreal(rng, **kw) for _ in range(count))


PADDED_XS = seeded_reals(21, 5, alphabet=3)


def padded_wrapper():
    return build_padded_wrapper(PADDED_XS, decoys=seeded_reals(22, 8, alphabet=3), seed=23)


def broken_wrapper_report():
    # A padded wrapper checked against other points fails with named words.
    return verify_wrapper(padded_wrapper(), seeded_reals(24, 5, alphabet=3))


def artifacts():
    """(name, value, kind) for every artifact the golden digests cover."""
    rng = random.Random(31)
    return [
        ("reals", seeded_reals(1, 12), None),
        ("trees", tuple(rand_branch_tree(rng) for _ in range(6)), "trees"),
        ("wrapper", padded_wrapper(), None),
        ("silver-tree", rand_silver(random.Random(2), 9, min_splits=2), None),
        ("ground-universe", GroundUniverse(frozenset({ZERO, *seeded_reals(3, 9)})), None),
        ("rmap", rand_rmap(random.Random(4), 3, 9), None),
        ("report-wrapper-pass", verify_wrapper(build_wrapper(XS), XS), None),
        ("report-wrapper-fail", broken_wrapper_report(), None),
        (
            "report-domination",
            check_domination(
                PADDED_XS, PADDED_XS + seeded_reals(5, 6, alphabet=3), wrapper=padded_wrapper()
            ),
            None,
        ),
        ("report-fusion", verify_fusion_helper(rand_rmap(random.Random(6), 3, 9)), None),
        ("report-obstruction", obstruct(build_wrapper(XS), G8, P6), None),
        (
            "report-obstruction-witnesses",
            ObstructionReport(
                1, 5, R([0, 0, 1, 0, 0, 1]), R([0, 1, 1, 0, 0, 1]),
                R([0, 0, 1, 0, 0, 1]), "3c", None, (0,), (1, 0),
                BranchTree.of(ZERO), BranchTree(frozenset({R([1]), R([2])})),
                "staged by hand",
            ),
            None,
        ),
        ("report-brute", brute_obstruction(G4, P6, max_branches=1), None),
    ]


GOLDEN = {
    "reals": "e2abd455a6ef42eccfc83400c55e48df1ac960fe47aa9960c820fc3377f0e9ad",
    "trees": "faba73d0b96247e783206ca587431681c09ee7d71dae0f8ec25cb1c3b8c10761",
    "wrapper": "48eb31577219719ee6df405b74ab310998e5bee4b88002b8d3fd302516615e55",
    "silver-tree": "a69619b369a3ba239b173979c7d17ab26a381c00b2026dc09bffbc52c868dd5e",
    "ground-universe": "c371c56507a0c38d1644e824b1597b397edc98d978ca37d996dec7527e77fef1",
    "rmap": "7b88f5fe65f9eaa58ee3b281b9eb5be07df29c63eff5952258a3f38a8ed74fef",
    "report-wrapper-pass": "46dfef51b8734bc7fa0c0e6466ce7269ad7a9427c79cb8694846866655ea92d2",
    "report-wrapper-fail": "dea4daf99eda4d179b1b9eeb1d8a2faaeb22a01f7f8f481edfc847d4847040b0",
    "report-domination": "49b044d07ed2d8124d18bf04968b40e8da8bab6b4e7ec29a0a40ae80704e59ab",
    "report-fusion": "c7726db16ac8b153ae3c33d29f882997a7615a773bd0ac544fdadda7797db372",
    "report-obstruction": "ffc0df54d1b7b8583b6b26836cade6a522a18c137ccb08e3bf9a2efc7b1af907",
    "report-obstruction-witnesses": "c26f86d5ad2261ad400c34c857813cd731ff8e6c32cc246dc7803a59f38ddc62",
    "report-brute": "210340d47a7837ce04e475294f88e71b92df8faa5a2048b4c273ce438d46f826",
    "cli-build-decoys": "75dc771be517effac3eefa0752dc93e04e5dacf4f018cd8f3fbd5466687bfa0b",
}

ARTIFACTS = artifacts()


@pytest.mark.parametrize("name,value,kind", ARTIFACTS, ids=[a[0] for a in ARTIFACTS])
def test_encoded_bytes_match_golden_digest(name, value, kind):
    assert hashlib.sha256(encode(value, kind)).hexdigest() == GOLDEN[name]


def test_every_kind_and_report_type_is_pinned():
    docs = [json.loads(encode(value, kind)) for _, value, kind in ARTIFACTS]
    assert {doc["kind"] for doc in docs} == set(KINDS)
    assert {doc["payload"]["report_type"] for doc in docs if doc["kind"] == "report"} == {
        "wrapper", "domination", "fusion", "obstruction", "brute",
    }


def test_build_with_decoys_matches_golden_digest(tmp_path, monkeypatch):
    reals, decoys, out = (tmp_path / f for f in ("xs.json", "d.json", "w.json"))
    reals.write_bytes(encode(seeded_reals(41, 6, alphabet=3)))
    decoys.write_bytes(encode(seeded_reals(42, 12, alphabet=3)))
    monkeypatch.setenv("SHRINKWRAP_SEED", "37")
    assert run(["build", "--reals", str(reals), "--decoys", str(decoys), "--out", str(out)]) == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN["cli-build-decoys"]

"""Artifact codec round-trips and the command line surface."""

from __future__ import annotations

import dataclasses
import functools
import json
import marshal
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import (
    mutate_at_level,
    naive_dec_wrapper,
    naive_decode,
    naive_encode,
    naive_from_assignments,
    rand_branch_tree,
    rand_rmap,
    rand_upreal,
)
import shrinkwrap
from shrinkwrap import cli, codec
from shrinkwrap.cli import run
from shrinkwrap.codec import CodecError, decode, encode, infer_kind
from shrinkwrap.core import ZERO, BranchTree, UPReal, pair_of
from shrinkwrap.domination import check_domination
from shrinkwrap.sacks import HorizonPerfectTree, RMap, fusion_intersect, verify_fusion_helper
from shrinkwrap.silver import (
    GroundUniverse,
    ObstructionReport,
    SilverTree,
    brute_obstruction,
    obstruct,
)
from shrinkwrap.wrapper import (
    ShrinkWrapper,
    TreeFamily,
    build_padded_wrapper,
    build_wrapper,
    verify_wrapper,
)


def R(prefix, period=(0,)):
    return UPReal(tuple(prefix), tuple(period))


def T(*branches):
    return BranchTree(frozenset(branches))


XS = (ZERO, R([1]), R([0, 1]), R([], (1,)))
P6 = SilverTree(6, frozenset({1, 3}), {0: 0, 2: 1, 4: 0, 5: 1})
G8 = GroundUniverse(frozenset({
    ZERO, R([1]), R([0, 1]), R([], (1,)),
    R([0], (1,)), R([1, 1]), R([0, 0, 1]), R([1, 0], (1,)),
}))
G4 = GroundUniverse(frozenset({ZERO, R([1]), R([0, 1]), R([], (1,))}))
G22 = GroundUniverse(frozenset(UPReal.constant(v) for v in range(22)))


class TestEncoding:
    def test_zero_layout(self):
        doc = json.loads(encode((ZERO,)))
        assert doc["kind"] == "reals" and doc["version"] == 1
        assert doc["payload"] == [{"prefix": [], "period": [0]}]

    def test_canonicalizes_before_encoding(self):
        assert encode((UPReal((0, 0), (0,)),)) == encode((ZERO,))

    def test_wrapper_layout_keys(self):
        doc = json.loads(encode(build_wrapper(XS)))
        payload = doc["payload"]
        assert list(payload) == ["scope", "F", "I"]
        assert list(payload["scope"]) == ["N", "Ntilde"]
        assert list(payload["F"][0]) == ["pair_index", "n", "s", "tree"]
        keys = [(e["pair_index"], e["n"], e["s"]) for e in payload["F"]]
        assert keys == sorted(keys)

    def test_silver_layout(self):
        doc = json.loads(encode(P6))
        assert doc["payload"] == {
            "horizon": 6,
            "split_levels": [1, 3],
            "fixed": {"0": 0, "2": 1, "4": 0, "5": 1},
        }

    def test_inference_rejects_unknown_values(self):
        with pytest.raises(CodecError, match="infer"):
            infer_kind(7)

    @pytest.mark.parametrize("make", [set, frozenset])
    @pytest.mark.parametrize("kind", ["reals", "trees"])
    def test_a_set_is_refused(self, kind, make):
        # A set is written in its iteration order, which follows insertion
        # order, so equal sets could encode to different bytes.
        items = XS if kind == "reals" else (T(ZERO), T(R([1]), R([0, 1])), T(*XS))
        for value in (make(items), make(reversed(items)), make()):
            with pytest.raises(CodecError) as e:
                encode(value, kind)
            assert str(e.value) == f"$: a {kind!r} artifact is a sequence, not a {make.__name__}"
            with pytest.raises(CodecError) as e:
                infer_kind(value)
            assert str(e.value) == f"$: cannot infer an artifact kind for {make.__name__}"
        assert decode(encode(items, kind)) == items

    def test_unknown_kind_is_refused(self):
        with pytest.raises(CodecError) as e:
            encode(ZERO, "bogus")
        assert str(e.value) == "$: unknown kind 'bogus'"

    def test_failed_save_keeps_the_file(self, tmp_path):
        kept, fresh = tmp_path / "xs.json", tmp_path / "fresh.json"
        codec.save(str(kept), XS)
        before = kept.read_bytes()
        for path in (kept, fresh):
            with pytest.raises(CodecError):
                codec.save(str(path), object())
        assert kept.read_bytes() == before
        assert not fresh.exists()


# Strings mixing ASCII, escapes, quotes and non-ASCII: a lone surrogate and
# an astral character, which encodes as a surrogate pair.
TEXT = st.text(st.sampled_from('az"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\u20ac\ud800\U0001f600'), max_size=6)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-(2**80), max_value=2**80), TEXT
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=25,
)
CONTAINERS = st.lists(JSON, min_size=1, max_size=2) | st.dictionaries(TEXT, JSON, min_size=1, max_size=2)


class TestWriter:
    """codec._dumps against its oracle, json.dumps(..., indent=2)."""

    @settings(max_examples=150, deadline=None)
    @given(JSON)
    def test_matches_stdlib(self, doc):
        assert codec._dumps(doc) == json.dumps(doc, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(CONTAINERS, TEXT)
    def test_shared_container_at_two_depths(self, shared, key):
        doc = {key: shared, "deep": [[shared, {"x": shared}]], "again": shared}
        assert codec._dumps(doc) == json.dumps(doc, indent=2)

    def test_scalars_and_empty_containers(self):
        doc = [True, 1, False, 0, None, -1, 2**70, -(2**70), [], {}, [[]], {"": {}}, "é\u2028\"\\"]
        assert codec._dumps(doc) == json.dumps(doc, indent=2)
        for value in (True, False, None, 0, "", [], {}):
            assert codec._dumps(value) == json.dumps(value, indent=2)

    @settings(max_examples=150, deadline=None)
    @given(JSON, st.integers(min_value=1, max_value=4))
    def test_matches_stdlib_below_the_top_level(self, doc, level):
        """At level L, the text json.dumps writes for the value inside L
        one-item lists, the way records write a nested value."""
        wrapped = doc
        for _ in range(level):
            wrapped = [wrapped]
        openers = "".join("[\n" + "  " * (i + 1) for i in range(level))
        closers = "".join("\n" + "  " * i + "]" for i in reversed(range(level)))
        assert json.dumps(wrapped, indent=2) == openers + codec._dumps(doc, level) + closers

    @pytest.mark.parametrize(
        "bad,message",
        [
            ([0, {"a": [1, 1.5]}], "Object of type float is not JSON serializable"),
            ({"a": [True, (1,)]}, "Object of type tuple is not JSON serializable"),
            ([{"a": 0}, {"b": {1: 0}}], "keys must be str, not int"),
        ],
    )
    def test_nested_rejection_messages(self, bad, message):
        for level in (0, 2):
            with pytest.raises(TypeError) as e:
                codec._dumps(bad, level)
            assert str(e.value) == message

    @pytest.mark.parametrize("bad", [{1, 2}, b"x", object(), 1.5, (1,), [1, {"a": frozenset()}]])
    def test_rejects_values_outside_the_artifact_types(self, bad):
        with pytest.raises(TypeError):
            codec._dumps(bad)


def seeded_wrappers():
    """Padded wrappers over 2-6 points with 0-20 decoys, and a direct build."""
    rng = random.Random(71)
    wrappers = [build_wrapper(XS)]
    for decoys in (0, 1, 3, 7, 12, 20):
        xs = tuple(rand_upreal(rng, alphabet=3) for _ in range(rng.randint(2, 6)))
        pool = tuple(rand_upreal(rng, alphabet=3) for _ in range(decoys))
        wrappers.append(build_padded_wrapper(xs, decoys=pool, seed=rng.randrange(1000)))
    return wrappers


def violating_report():
    # The probe ZERO leaves the trees of points 0 and 3, follows point 0 to
    # level 2 and point 3 to level 4: both indices fail, and f(0) = 2 <= 3.
    xs = (R([0, 0, 5]), R([1]), R([2]), R([0, 0, 0, 0, 7]))
    return check_domination(xs, (ZERO, R([0, 0, 5])), trees=[T(R([9]))] * 4)


def seeded_domination_reports():
    """Reports from both providers, with failing rows, and one with no rows."""
    rng = random.Random(72)
    reports = [violating_report(), check_domination(XS, (), wrapper=build_wrapper(XS))]
    for _ in range(6):
        xs = tuple(rand_upreal(rng, alphabet=3) for _ in range(rng.randint(2, 6)))
        battery = [rand_upreal(rng, alphabet=3) for _ in range(6)]
        battery += [mutate_at_level(rng, x, rng.randint(0, 4)) for x in xs]
        # Most trees hold their own point; the rest usually miss it.
        trees = [
            T(x, *rand_branch_tree(rng).branches) if rng.random() < 0.7 else rand_branch_tree(rng)
            for x in xs
        ]
        pool = [rand_upreal(rng, alphabet=3) for _ in range(rng.randint(0, 8))]
        w = build_padded_wrapper(xs, decoys=pool, seed=7)
        reports.append(check_domination(xs, battery, trees=trees))
        reports.append(check_domination(xs, battery, wrapper=w))
    return reports


def other_artifacts():
    """(value, kind) for every other kind and report type."""
    w = build_wrapper(XS)
    return [
        (tuple(rand_upreal(random.Random(2)) for _ in range(8)), "reals"),
        ((T(ZERO), T(R([1]), R([0, 1]))), "trees"),
        (P6, "silver-tree"),
        (G8, "ground-universe"),
        (rand_rmap(random.Random(9), 3, 9), "rmap"),
        (verify_wrapper(w, XS), "report"),
        (verify_wrapper(w, (ZERO, R([1]), R([0, 1]), R([2]))), "report"),
        (verify_fusion_helper(rand_rmap(random.Random(4), 3, 9)), "report"),
        (obstruct(w, G8, P6), "report"),
        (
            ObstructionReport(
                1, 5, ZERO, R([1]), R([2]), "3c", None, (0,), (1, 0), T(ZERO), T(R([1])), "x"
            ),
            "report",
        ),
        (brute_obstruction(G4, P6, max_branches=1), "report"),
    ]


def assert_matches_oracle(value, kind):
    """The oracle's bytes, or the exception type the oracle raises."""
    try:
        expected = naive_encode(value, kind)
    except Exception as e:  # any type: the encoder must raise the same one
        with pytest.raises(type(e)):
            encode(value, kind)
    else:
        assert encode(value, kind) == expected


class TestEncoderOracle:
    """codec.encode against naive_encode: dict documents that
    json.dumps(indent=2) writes."""

    @pytest.mark.parametrize("w", seeded_wrappers(), ids=lambda w: f"{len(w.families)}fam")
    def test_wrappers(self, w):
        assert encode(w) == naive_encode(w, "wrapper")

    @pytest.mark.parametrize(
        "shape", ["width 1", "all-0 words", "all-1 words", "override equal to default", "two overrides"]
    )
    def test_families_by_shape(self, shape):
        """Families written as one run and, for two overrides, entry by
        entry; the oracle writes every leaf."""
        w = seeded_wrappers()[-1]
        families = dict(w.families)
        for (nt, n), fam in w.families.items():
            if nt == 0 or (shape == "width 1") != (nt == 1):
                continue
            default, tree = sorted(fam.distinct_trees(), key=fam.distinct_trees().get, reverse=True)
            overrides = {
                "width 1": {(n % 2,): tree},
                "all-0 words": {(0,) * nt: tree},
                "all-1 words": {(1,) * nt: tree},
                "override equal to default": {(1,) * nt: default},
                "two overrides": {(0,) * nt: tree, (1,) * nt: T(R([7]))},
            }[shape]
            families[(nt, n)] = TreeFamily.from_assignments(nt, default, overrides)
        changed = dataclasses.replace(w, families=families)
        assert sum(f is not w.families[key] for key, f in families.items()) >= 2
        assert encode(changed) == naive_encode(changed, "wrapper")
        assert decode(encode(changed)) == changed

    def test_domination_reports(self):
        reports = seeded_domination_reports()
        for report in reports:
            assert encode(report) == naive_encode(report, "report")
        rows = [row for report in reports for row in report.rows]
        for field in ("failure_set", "violating_pairs", "pointwise_failures"):
            assert any(getattr(row, field) for row in rows), field
        assert any(not report.rows for report in reports)

    @pytest.mark.parametrize("value,kind", other_artifacts())
    def test_every_other_kind(self, value, kind):
        assert encode(value, kind) == naive_encode(value, kind)

    @pytest.mark.parametrize("odd", [1.5, (1, 2), True, False])
    @pytest.mark.parametrize(
        "field", ["f_values", "g_values", "failure_set", "violating_pairs", "pointwise_failures"]
    )
    def test_odd_value_in_an_int_field_of_a_row(self, field, odd):
        report = violating_report()
        row = report.rows[0]
        if field == "violating_pairs":
            values = ((odd, 3),) + row.violating_pairs
        else:
            values = (odd,) + getattr(row, field)
        report = dataclasses.replace(report, rows=(dataclasses.replace(row, **{field: values}),))
        assert_matches_oracle(report, "report")

    @pytest.mark.parametrize(
        "field,first,second",
        [
            ("g_values", (1, 2, 3, 4), (True, 2, 3, 4)),
            ("in_tree", (True, False, True, False), (1, 0, 1, 0)),
            ("failure_set", (1,), [1]),
            ("f_values", (0, 1), (0, 1.0)),
        ],
    )
    def test_equal_rows_of_other_types(self, field, first, second):
        # Rows that compare equal are still written each as its types say.
        report = violating_report()
        row = report.rows[0]
        rows = tuple(dataclasses.replace(row, **{field: v}) for v in (first, second, first))
        assert_matches_oracle(dataclasses.replace(report, rows=rows), "report")

    @pytest.mark.parametrize("odd", [1, 0, 1.0, None])
    def test_odd_value_in_the_bool_field_of_a_row(self, odd):
        report = violating_report()
        row = dataclasses.replace(report.rows[0], in_tree=(odd,) + report.rows[0].in_tree)
        assert_matches_oracle(dataclasses.replace(report, rows=(row,)), "report")

    @pytest.mark.parametrize("odd", [1.5, (1,), True])
    def test_odd_value_in_the_report_header(self, odd):
        report = dataclasses.replace(violating_report(), n_reals=odd)
        assert_matches_oracle(report, "report")


class TestRoundTrip:
    def test_reals(self):
        rng = random.Random(2)
        xs = tuple(rand_upreal(rng, alphabet=2) for _ in range(12))
        assert decode(encode(xs)) == xs

    def test_trees(self):
        ts = (T(ZERO), T(R([1]), R([0, 1])))
        assert decode(encode(ts, kind="trees")) == ts

    def test_wrapper(self):
        w = build_padded_wrapper(XS, decoys=[R([1, 1]), R([0, 0, 1])], seed=5)
        assert decode(encode(w)) == w
        assert encode(decode(encode(w))) == encode(w)

    @pytest.mark.parametrize("one", [True, 1.0])
    def test_family_bits_given_as_true_or_float(self, one):
        t0, t1 = T(ZERO), T(R([1]))
        odd = TreeFamily(1, (((0,), t0), ((one,), t1)))
        plain = TreeFamily(1, (((0,), t0), ((1,), t1)))
        assert odd == plain
        assert [odd.tree_at(s) for s in ((0,), (1,), (one,))] == [t0, t1, t1]
        assert odd.leaves == plain.leaves == ((b"\x00", t0), (b"\x01", t1))
        w = build_wrapper(XS)
        families = dict(w.families)
        families[(1, 0)] = odd
        w = ShrinkWrapper(w.scope, families, w.isolated)
        assert decode(encode(w)) == w
        assert encode(w) == encode(ShrinkWrapper(w.scope, {**families, (1, 0): plain}, w.isolated))

    def test_silver_tree(self):
        assert decode(encode(P6)) == P6

    def test_ground_universe(self):
        assert decode(encode(G8)) == G8

    def test_rmap(self):
        r = rand_rmap(random.Random(9), 3, 9)
        assert decode(encode(r)) == r

    def test_wrapper_report(self):
        report = verify_wrapper(build_wrapper(XS), XS)
        assert decode(encode(report)) == report

    def test_domination_report(self):
        w = build_wrapper(XS)
        report = check_domination(XS, XS + (R([2]),), wrapper=w)
        assert decode(encode(report)) == report

    def test_fusion_report(self):
        report = verify_fusion_helper(rand_rmap(random.Random(4), 3, 9))
        assert decode(encode(report)) == report

    def test_obstruction_report(self):
        report = obstruct(build_wrapper(XS), G8, P6)
        assert decode(encode(report)) == report

    def test_obstruction_report_with_witness_trees(self):
        report = ObstructionReport(
            1, 5, R([0, 0, 1, 0, 0, 1]), R([0, 1, 1, 0, 0, 1]),
            R([0, 0, 1, 0, 0, 1]), "3c", None, (0,), (1, 0),
            T(ZERO), T(R([1])), "staged by hand",
        )
        assert decode(encode(report)) == report

    def test_brute_summary(self):
        summary = brute_obstruction(G4, P6, max_branches=1)
        assert decode(encode(summary)) == summary


class TestDecodeErrors:
    def check(self, data, fragment):
        with pytest.raises(CodecError, match=fragment):
            decode(data)

    def test_invalid_json(self):
        self.check(b"{", r"\$: invalid JSON")

    def test_missing_kind(self):
        self.check(b'{"version": 1, "payload": []}', "missing key 'kind'")

    def test_unknown_kind(self):
        self.check(b'{"kind": "nope", "version": 1, "payload": []}', r"\$\.kind")

    def test_unsupported_version(self):
        self.check(b'{"kind": "reals", "version": 2, "payload": []}', r"\$\.version")

    def test_payload_shape(self):
        self.check(b'{"kind": "reals", "version": 1, "payload": 3}', r"\$\.payload: expected a list")

    def test_element_location(self):
        doc = {"kind": "reals", "version": 1, "payload": [{"prefix": [0], "period": "x"}]}
        self.check(json.dumps(doc), r"\$\.payload\[0\]\.period")

    def test_empty_period(self):
        doc = {"kind": "reals", "version": 1, "payload": [{"prefix": [], "period": []}]}
        self.check(json.dumps(doc), "nonempty")

    def test_kind_pinning(self):
        with pytest.raises(CodecError, match="expected a 'wrapper' artifact"):
            decode(encode((ZERO,)), expect="wrapper")

    def test_wrapper_scope_invariant(self):
        doc = json.loads(encode(build_wrapper((ZERO, R([1])))))
        doc["payload"]["scope"]["Ntilde"] = 2
        self.check(json.dumps(doc), r"\$\.payload")

    @pytest.mark.parametrize("key", ["N", "Ntilde"])
    def test_wrapper_negative_scope(self, key):
        doc = json.loads(encode(build_wrapper((ZERO, R([1])))))
        doc["payload"]["scope"][key] = -1
        message = re.escape("$.payload.scope: scope bounds must be nonnegative")
        self.check(json.dumps(doc), message)
        with pytest.raises(CodecError, match=message):
            naive_dec_wrapper(doc["payload"])

    def test_wrapper_missing_family(self):
        doc = json.loads(encode(build_wrapper((ZERO, R([1])))))
        doc["payload"]["F"] = doc["payload"]["F"][:1]
        self.check(json.dumps(doc), "missing family")

    def test_huge_scope_without_families_fails_fast(self):
        # 4.5 M pair positions: totality fails at the first, without a walk.
        doc = json.loads(encode(build_wrapper((ZERO, R([1])))))
        doc["payload"]["scope"] = {"N": 3000, "Ntilde": 3000 * 2999 // 2}
        doc["payload"]["F"] = []
        doc["payload"]["I"] = [[] for _ in range(3000)]
        message = "$.payload: missing family for pair position 0, index 0"
        start = time.perf_counter()
        self.check(json.dumps(doc), "^" + re.escape(message) + "$")
        assert time.perf_counter() - start < 0.5

    def test_wrapper_duplicate_leaf(self):
        doc = json.loads(encode(build_wrapper((ZERO, R([1])))))
        doc["payload"]["F"].append(doc["payload"]["F"][0])
        self.check(json.dumps(doc), "duplicate leaf")

    def test_rmap_duplicate_word(self):
        doc = json.loads(encode(rand_rmap(random.Random(1), 1, 3)))
        assert [leaf["s"] for leaf in doc["payload"]["trees"]] == ["", "0", "1"]
        doc["payload"]["trees"][2]["s"] = "0"
        message = "$.payload.trees[2].s: duplicate word '0'"
        self.check(json.dumps(doc), "^" + re.escape(message) + "$")

    def test_tree_needs_branches(self):
        doc = {"kind": "trees", "version": 1, "payload": [{"branches": []}]}
        self.check(json.dumps(doc), "at least one branch")

    def test_silver_level_keys(self):
        doc = json.loads(encode(P6))
        doc["payload"]["fixed"]["a"] = 0
        self.check(json.dumps(doc), "level keys")

    @pytest.mark.parametrize("key", ["--1", "\u00b2"])
    def test_silver_level_keys_int_cannot_parse(self, key):
        # Both pass a bare isdigit() test after stripping dashes.
        doc = json.loads(encode(P6))
        doc["payload"]["fixed"][key] = 0
        self.check(json.dumps(doc), re.escape(f"$.payload.fixed[{key!r}]: level keys must be integers"))

    @pytest.mark.parametrize("keys", [("2", "02"), ("0", "-0"), ("004", "4")])
    def test_silver_level_named_twice(self, keys):
        doc = json.loads(encode(P6))
        fixed = {k: v for k, v in doc["payload"]["fixed"].items() if k not in keys}
        doc["payload"]["fixed"] = {**fixed, keys[0]: 1, keys[1]: 0}
        level = int(keys[0])
        self.check(json.dumps(doc), re.escape(
            f"$.payload.fixed[{keys[1]!r}]: level {level} is fixed twice"
        ))

    @pytest.mark.parametrize("entry", [["condition2"], ["condition2", 1, 2]])
    def test_histogram_entries_are_pairs(self, entry):
        doc = json.loads(encode(brute_obstruction(G4, P6, max_branches=1)))
        doc["payload"]["histogram"][0] = entry
        self.check(json.dumps(doc), re.escape(
            f"$.payload.histogram[0]: expected 2 elements, got {len(entry)}"
        ))

    @pytest.mark.parametrize("entry", [[1], [1, 2, 3]])
    def test_violating_pairs_are_pairs(self, entry):
        report = check_domination(XS, XS, wrapper=build_wrapper(XS))
        doc = json.loads(encode(report))
        doc["payload"]["rows"][1]["violating_pairs"] = [[0, 1], entry]
        self.check(json.dumps(doc), re.escape(
            f"$.payload.rows[1].violating_pairs[1]: expected 2 elements, got {len(entry)}"
        ))

    def test_rmap_wraps_tree_errors(self):
        r = rand_rmap(random.Random(1), 1, 4)
        doc = json.loads(encode(r))
        doc["payload"]["trees"][0]["tree"]["nodes"] = ["01"]
        self.check(json.dumps(doc), r"\$\.payload\.trees\[0\]\.tree")

    @pytest.mark.parametrize(
        "horizon, nodes",
        [(10**9, [""]), (40, ["0" * l for l in range(41)])],
        ids=["huge-horizon", "deep-path"],
    )
    def test_rmap_tree_horizon_is_capped(self, horizon, nodes):
        doc = {"kind": "rmap", "version": 1, "payload": {"depth": 0, "trees": [
            {"s": "", "tree": {"horizon": horizon, "nodes": nodes}}]}}
        self.check(json.dumps(doc), re.escape(
            f"$.payload.trees[0].tree: horizon {horizon} is above the supported 20"
        ))

    def test_universe_needs_zero(self):
        doc = {"kind": "ground-universe", "version": 1,
               "payload": [{"prefix": [1], "period": [0]}]}
        self.check(json.dumps(doc), "zero")

    def test_bad_bit_string(self):
        doc = json.loads(encode(build_wrapper((ZERO, R([1])))))
        doc["payload"]["F"][0]["s"] = "012"
        self.check(json.dumps(doc), r"\$\.payload\.F\[0\]\.s: expected a bit string, got '012'")

    def test_negative_prefix_entry(self):
        # Checked before reduction, which would move the -1 into the period.
        doc = {"kind": "reals", "version": 1, "payload": [{"prefix": [-1], "period": [-1]}]}
        self.check(json.dumps(doc), r"\$\.payload\[0\]: prefix entries must be nonnegative")

    def test_boolean_in_period(self):
        doc = {"kind": "reals", "version": 1, "payload": [{"prefix": [], "period": [0, True]}]}
        self.check(json.dumps(doc), r"\$\.payload\[0\]\.period\[1\]: expected an integer, got True")

    def test_deep_nesting(self):
        data = '{"kind": "reals", "version": 1, "payload": ' + "[" * 100_000
        self.check(data, re.escape("$: invalid JSON: nested too deeply"))

    def test_deep_value_in_an_error_message(self):
        # A rejected value is printed in its message, and a row's field is
        # read a dozen frames below where the parser started: the deepest
        # value the parser takes there cannot be printed.
        doc = json.loads(encode(violating_report()))
        doc["payload"]["rows"][0]["in_tree"] = ["deep"]
        text = json.dumps(doc)
        for depth in range(1000, 0, -1):
            with pytest.raises(CodecError) as caught:
                decode(text.replace('"deep"', "[" * depth + "]" * depth))
            if "invalid JSON" not in str(caught.value):
                break
        assert str(caught.value) == "$.payload: nested too deeply"

    def test_invalid_utf8(self):
        self.check(b'{"kind": "reals", "version": 1, "payload": []}\xff', re.escape(
            "$: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 46"
        ))

    def test_integer_past_the_digit_limit(self):
        data = '{"kind": "reals", "version": 1, "payload": [{"prefix": [%s], "period": [0]}]}'
        self.check(data % ("1" * 5000), re.escape("$: invalid JSON: Exceeds the limit (4300 digits)"))

    def test_unknown_report_type(self):
        doc = {"kind": "report", "version": 1, "payload": {"report_type": "nope"}}
        self.check(json.dumps(doc), "report_type")

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_shared_tree_fails_at_the_bad_copy(self, value):
        # F[0] and F[1] hold the same tree; only F[1]'s period is not an
        # integer, although it compares and hashes equal to 1.
        one = R([], (1,))
        doc = json.loads(encode(build_wrapper((one, one))))
        entries = doc["payload"]["F"]
        assert entries[0]["tree"] == entries[1]["tree"]
        entries[1]["tree"]["branches"][0]["period"][0] = value
        self.check(json.dumps(doc), re.escape(
            f"$.payload.F[1].tree.branches[0].period[0]: expected an integer, got {value!r}"
        ))


@functools.cache
def padded_document(seed: int) -> bytes:
    rng = random.Random(seed)
    xs = [rand_upreal(rng, alphabet=3, max_prefix=3, max_period=2) for _ in range(3)]
    if seed % 2:
        xs[2] = xs[0]
    decoys = [rand_upreal(rng, alphabet=3, max_prefix=3, max_period=2) for _ in range(4)]
    return encode(build_padded_wrapper(xs, decoys=decoys, seed=seed))


def locations(value):
    """Every (container, key) pair inside a parsed JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield value, key
        if isinstance(item, (dict, list)):
            yield from locations(item)


REPLACEMENTS = (True, False, 1.0, 0.0, -1, 0, 1, 2, 7, "1", "", "01", "012", "0a", None, [], {},
                [1], [True], {"prefix": [], "period": [0]}, {"branches": []})


def outcome(decoder):
    try:
        return "ok", decoder()
    except Exception as e:
        return type(e), str(e)


def twin_trees(seed: int) -> tuple[dict, int, int]:
    """A padded wrapper document and two entries that hold equal trees."""
    doc = json.loads(padded_document(seed))
    first = {}
    for i, entry in enumerate(doc["payload"]["F"]):
        j = first.setdefault(json.dumps(entry["tree"]), i)
        if j != i:
            return doc, j, i
    raise AssertionError("no tree is repeated")


def set_branch(key, value):
    def edit(tree):
        tree["branches"][0][key] = value
    return edit


def nested(depth: int) -> list:
    value = [0]
    for _ in range(depth):
        value = [value]
    return value


def keep(tree):
    pass


# Edits that leave two equal trees differing only by what the name says,
# each with whether it breaks its tree.
MEMO_KEY_CASES = {
    "1 and true": ((set_branch("period", [1]), False), (set_branch("period", [True]), True)),
    "1 and 1.0": ((set_branch("period", [1]), False), (set_branch("period", [1.0]), True)),
    "true and 1.0": ((set_branch("period", [True]), True), (set_branch("period", [1.0]), True)),
    "[] and {} for a prefix": ((set_branch("prefix", []), False), (set_branch("prefix", {}), True)),
    "key order": ((keep, False), (lambda tree: tree["branches"].__setitem__(
        0, dict(reversed(tree["branches"][0].items()))), False)),
    "an extra key": ((keep, False), (lambda tree: tree.__setitem__("extra", 1), False)),
    "a deeply nested value": ((keep, False), (set_branch("prefix", nested(50)), True)),
}


class TestWrapperDecodeOracle:
    """The per-tree memo against the decoder that decodes every entry anew."""

    @pytest.mark.parametrize("swap", [False, True], ids=["in order", "swapped"])
    @pytest.mark.parametrize("case", MEMO_KEY_CASES)
    def test_memo_key_edge_cases(self, case, swap):
        doc, i, j = twin_trees(0)
        edits = MEMO_KEY_CASES[case][::-1] if swap else MEMO_KEY_CASES[case]
        for k, (edit, _) in zip((i, j), edits):
            edit(doc["payload"]["F"][k]["tree"])
        text = json.dumps(doc)
        got = outcome(lambda: decode(text))
        assert got == outcome(lambda: naive_dec_wrapper(json.loads(text)["payload"], "$.payload"))
        # Twins that stay equal decode as one tree; otherwise the first
        # broken twin fails, even when the other was decoded first.
        broken = [k for k, (_, breaks) in zip((i, j), edits) if breaks]
        if broken:
            assert got[0] is CodecError and got[1].startswith(f"$.payload.F[{broken[0]}].tree")
        else:
            assert got == ("ok", decode(padded_document(0)))

    def test_broken_twins_fail_at_the_first(self):
        doc, i, j = twin_trees(0)
        for k in (i, j):
            set_branch("period", [True])(doc["payload"]["F"][k]["tree"])
        text = json.dumps(doc)
        got = outcome(lambda: decode(text))
        assert got == outcome(lambda: naive_dec_wrapper(json.loads(text)["payload"], "$.payload"))
        assert got[1].startswith(f"$.payload.F[{i}].tree")

    def test_tree_past_the_marshal_depth(self):
        # A tree too deep for a memo key is read entry by entry, with the
        # error and path the oracle gives.
        doc, _, j = twin_trees(0)
        set_branch("prefix", nested(2500))(doc["payload"]["F"][j]["tree"])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(8000)  # so that json can write and parse the tree at all
        try:
            text = json.dumps(doc)
            with pytest.raises(ValueError, match="too deeply nested"):
                marshal.dumps(json.loads(text)["payload"]["F"][j]["tree"], 2)
            got = outcome(lambda: decode(text))
            want = outcome(lambda: naive_dec_wrapper(json.loads(text)["payload"], "$.payload"))
        finally:
            sys.setrecursionlimit(limit)
        assert got == want
        assert got[0] is CodecError
        assert got[1].startswith(f"$.payload.F[{j}].tree.branches[0].prefix[0]: expected an integer")

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 5),
        st.integers(0, 2**32),
        st.sampled_from(("replace", "retype", "delete", "duplicate")),
        st.sampled_from(REPLACEMENTS),
    )
    def test_corrupted_documents(self, seed, where, how, value):
        doc = json.loads(padded_document(seed))
        spots = list(locations(doc["payload"]))
        container, key = spots[where % len(spots)]
        original = container[key]
        if how == "retype" and type(original) is int:
            # An equal value of another type: true for 1, 2.0 for 2.
            container[key] = bool(original) if original in (0, 1) else float(original)
        elif how == "delete":
            del container[key]
        elif how == "duplicate" and isinstance(container, list):
            container.insert(key, json.loads(json.dumps(container[key])))
        else:
            container[key] = value
        text = json.dumps(doc)
        got = outcome(lambda: decode(text))
        want = outcome(lambda: naive_dec_wrapper(json.loads(text)["payload"], "$.payload"))
        assert got == want

    @pytest.mark.parametrize("seed", range(6))
    def test_clean_documents(self, seed, monkeypatch):
        data = padded_document(seed)
        want = decode(data)
        assert want == naive_dec_wrapper(json.loads(data)["payload"], "$.payload")
        # Entries sorted by word interleave the families, so the
        # entry-by-entry reader decodes them.
        doc = json.loads(data)
        doc["payload"]["F"].sort(key=lambda e: (e["s"], e["pair_index"], e["n"]))
        text = json.dumps(doc)
        read = []
        checked = codec._dec_entries_checked

        def counting(entries, path):
            read.append(path)
            return checked(entries, path)

        monkeypatch.setattr(codec, "_dec_entries_checked", counting)
        assert decode(text) == want == naive_dec_wrapper(json.loads(text)["payload"], "$.payload")
        assert read == ["$.payload.F"]

    def test_each_distinct_tree_is_built_once(self, monkeypatch):
        rng = random.Random(12)
        xs = [rand_upreal(rng) for _ in range(12)]
        decoys = [rand_upreal(rng) for _ in range(40)]
        data = encode(build_padded_wrapper(xs, decoys=decoys, seed=12))
        entries = json.loads(data)["payload"]["F"]
        distinct = {json.dumps(e["tree"]) for e in entries}
        built = []
        post_init = BranchTree.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(BranchTree, "__post_init__", counting)
        decode(data)
        assert len(built) == len(distinct) < len(entries)


# One entry of a canonical wrapper document: its pair index, index, word and tree.
ENTRY_TEXT = re.compile(
    r'\{\n {8}"pair_index": (\d+),\n {8}"n": (\d+),\n {8}"s": "([01]*)",\n {8}"tree": (\{.*?\n {8}\})\n {6}\}',
    re.S,
)


def text_outcome(data):
    """What decode must give for these bytes or this text: the error that
    reading them as JSON gives, or naive_decode's outcome on what they
    parse to."""
    try:
        document = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except json.JSONDecodeError as e:
        return CodecError, f"$: invalid JSON at line {e.lineno} column {e.colno}"
    except ValueError as e:
        return CodecError, f"$: invalid JSON: {e}"
    return outcome(lambda: naive_decode(document))


def canonical_mutants(text: str) -> dict[str, str]:
    """Named edits of a canonical padded wrapper document."""
    entries = list(ENTRY_TEXT.finditer(text))
    assert "".join(e.group() for e in entries) in text.replace(",\n      {", "{")

    def put(match, group, new):
        return text[:match.start(group)] + new + text[match.end(group):]

    def swap(a, b):
        return text[:a.start()] + b.group() + text[a.end():b.start()] + a.group() + text[b.end():]

    def flip(bit):
        return "1" if bit == "0" else "0"

    pairs = list(zip(entries, entries[1:]))
    same = next((a, b) for a, b in pairs if a.group(1, 2) == b.group(1, 2))
    across = next((a, b) for a, b in pairs if a.group(1, 2) != b.group(1, 2))
    worded = next(e for e in entries if e.group(3))
    entry, tree = entries[1], entries[2]
    digit = re.search(r"\d", tree.group(4))
    at = tree.start(4) + digit.start()
    # The later of two entries holding one tree text, and a line of that
    # tree that is a bit, so that 1.0, true, 0.0 or false equal it.
    first_seen = {}
    twin = next(e for e in entries if first_seen.setdefault(e.group(4), e) is not e)
    bit = re.search(r"\n *([01]),?\n", twin.group(4))
    bit_at = twin.start(4) + bit.start(1)
    floats, bools = ("0.0", "false") if bit.group(1) == "0" else ("1.0", "true")
    n_line = text.index('"n"', entry.start())
    f_key = text.index(',\n    "F": [')
    return {
        "clean": text,
        "head: pair index digit": put(entry, 1, flip(entry.group(1)[0]) + entry.group(1)[1:]),
        "head: key letter": text[:n_line + 1] + "m" + text[n_line + 2:],
        "head: tab for a space": text[:n_line + 4] + "\t" + text[n_line + 5:],
        "head: leading zero": put(entry, 1, "0" + entry.group(1)),
        "head: family repeated after another": text[:entries[2].start()] + entries[0].group()
        + ",\n      " + text[entries[2].start():],
        "word: bit flipped": put(worded, 3, flip(worded.group(3)[0]) + worded.group(3)[1:]),
        "word: not a bit": put(worded, 3, "2" + worded.group(3)[1:]),
        "word: a letter after the last word": put(entries[-1], 3, entries[-1].group(3) + "x"),
        "tree: digit changed": text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:],
        "tree: bracket broken": put(tree, 4, tree.group(4).replace("[", "(", 1)),
        "whitespace: space after a word": text[:worded.end(3) + 1] + " " + text[worded.end(3) + 1:],
        "whitespace: indent lost in a tree": put(tree, 4, tree.group(4).replace("\n  ", "\n", 1)),
        "whitespace: CRLF line ends": text.replace("\n", "\r\n"),
        "keys reordered in one entry": put(
            entry, 0, entry.group().replace(
                f'"pair_index": {entry.group(1)},\n        "n": {entry.group(2)}',
                f'"n": {entry.group(2)},\n        "pair_index": {entry.group(1)}',
            )
        ),
        "entries swapped in a family": swap(*same),
        "entries swapped across families": swap(*across),
        "tree repeated with a float": text[:bit_at] + floats + text[bit_at + 1:],
        "tree repeated with a boolean": text[:bit_at] + bools + text[bit_at + 1:],
        "word repeated in a family": put(same[1], 3, same[0].group(3)),
        "second F key after I": text[:-len("\n  }\n}\n")] + ',\n    "F": []' + "\n  }\n}\n",
        "second F key before F": text[:f_key] + ',\n    "F": []' + text[f_key:],
        "kind changed": text.replace('"wrapper"', '"trees"', 1),
        "kind renamed": text.replace('"wrapper"', '"wrappex"', 1),
        "version changed": text.replace('"version": 1', '"version": 2', 1),
        "scope in another layout": text.replace('{\n      "N"', '{"N"', 1),
        "nested in another kind": '{\n  "kind": "reals",\n  "version": 1,\n  "payload": '
        + text.rstrip("\n").replace("\n", "\n  ") + "\n}\n",
        "trailing text": text + "x",
        "cut inside F": text[:tree.start(4) + 40],
    }


class TestCanonicalReader:
    """The canonical-layout wrapper reader against the oracles, on canonical
    documents and on edits of their text."""

    MUTANTS = tuple(canonical_mutants(padded_document(0).decode()))

    def test_canonical_documents_skip_the_entry_reader(self, monkeypatch):
        read = []
        checked = codec._dec_entries_checked

        def counting(entries, path):
            read.append(path)
            return checked(entries, path)

        monkeypatch.setattr(codec, "_dec_entries_checked", counting)
        documents = [padded_document(seed) for seed in range(6)]
        documents += [encode(w) for w in seeded_wrappers()]
        for data in documents:
            want = naive_dec_wrapper(json.loads(data)["payload"], "$.payload")
            assert decode(data) == decode(data.decode(), "wrapper") == want
        assert read == []
        # A document in another layout is read entry by entry.
        assert decode(json.dumps(json.loads(documents[0]))) == decode(documents[0])
        assert read == ["$.payload.F"]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", MUTANTS)
    def test_mutated_canonical_text(self, seed, name):
        text = canonical_mutants(padded_document(seed).decode())[name]
        want = text_outcome(text)
        assert outcome(lambda: decode(text)) == want
        assert outcome(lambda: decode(text.encode())) == want

    def test_a_pinned_kind_is_checked_first(self):
        with pytest.raises(CodecError) as e:
            decode(padded_document(0), "reals")
        assert str(e.value) == "$.kind: expected a 'reals' artifact, got 'wrapper'"

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 5),
        st.integers(0, 2**32),
        st.sampled_from(("delete", "insert", "replace")),
        st.one_of(st.sampled_from(b'01 29\n\r\t",:{}[]-.ex\\'), st.integers(0, 255)),
    )
    def test_one_byte_edited_in_f(self, seed, where, how, byte):
        data = padded_document(seed)
        start, end = data.index(b'"F": [') + 5, data.index(b'"I": ')
        at = start + where % (end - start)
        data = data[:at] + (b"" if how == "delete" else bytes([byte])) + data[at + (how != "insert"):]
        want = text_outcome(data)
        assert outcome(lambda: decode(data)) == want
        try:
            text = data.decode()
        except UnicodeDecodeError:
            return
        assert outcome(lambda: decode(text)) == want


def closed_document(seed: int) -> str:
    """A canonical padded wrapper document over five points, so that its
    closed-form families reach width 9."""
    rng = random.Random(2600 + seed)
    xs = [rand_upreal(rng, alphabet=3, max_prefix=3, max_period=2) for _ in range(5)]
    decoys = [rand_upreal(rng, alphabet=3, max_prefix=3, max_period=2) for _ in range(6)]
    return encode(build_padded_wrapper(xs, decoys=decoys, seed=seed)).decode()


def is_closed_form(fam: TreeFamily) -> bool:
    """Two trees, one of them at a single class.  In a reduced family every
    class off that class's path would merge with its sibling, so the class
    is one full-length word and the others are the siblings of its letters."""
    return fam.width > 0 and sorted(Counter(t for _, t in fam.leaves).values()) == [1, fam.width]


def override_entry(run: list) -> "re.Match":
    """The entry of a closed-form run whose tree text no other entry has."""
    texts = [e.group(4) for e in run]
    return next(e for e in run if texts.count(e.group(4)) == 1)


def closed_form_mutants(text: str) -> dict[str, str]:
    """Named edits of one closed-form family of width 4 or more, whose
    override tree has two branches or more, and of the width-1 families,
    in a canonical wrapper document."""
    runs: dict = {}
    for e in ENTRY_TEXT.finditer(text):
        runs.setdefault((int(e.group(1)), int(e.group(2))), []).append(e)
    nt, run = next(
        (nt, run) for (nt, _), run in runs.items()
        if nt >= 4 and len(run) == nt + 1
        and len(json.loads(override_entry(run).group(4))["branches"]) > 1
    )
    word = override_entry(run)
    last_sibling = run[2 * nt - 1 - run.index(word)]  # the other full-length word
    separator = text[run[0].end():run[1].start()]

    def edit(*changes):
        # (start, end, new text) edits, applied from the end.
        out = text
        for start, end, new in sorted(changes, reverse=True):
            out = out[:start] + new + out[end:]
        return out

    def flip(e, at):
        # The word of entry e with its letter at position ``at`` flipped.
        i = e.start(3) + at % len(e.group(3))
        return i, i + 1, "1" if text[i] == "0" else "0"

    def put_tree(e, tree):
        return e.start(4), e.end(4), tree

    def trade_trees(e, f):
        return put_tree(e, f.group(4)), put_tree(f, e.group(4))

    reordered = json.loads(word.group(4))
    reordered["branches"].reverse()
    swapped = json.dumps(reordered, indent=2).replace("\n", "\n        ")
    assert swapped != word.group(4)
    widths1 = [run1 for (n1, _), run1 in runs.items() if n1 == 1]
    # The default's tree spelled with every period twice over, which the
    # reals reduce away: another text of an equal tree.
    doubled = json.loads(run[0].group(4))
    for branch in doubled["branches"]:
        branch["period"] *= 2
    respelled = json.dumps(doubled, indent=2).replace("\n", "\n        ")
    assert respelled != run[0].group(4)

    def run_words(w: str) -> list[str]:
        # The words of a closed-form run of word w, in the run's order.
        flips = [w[:j] + {"0": "1", "1": "0"}.get(w[j], w[j]) for j in range(len(w))]
        return flips[:-1] + sorted([flips[-1], w])

    assert run_words(word.group(3)) == [e.group(3) for e in run]
    lettered = word.group(3)[:1] + "2" + word.group(3)[2:]
    return {
        "clean": text,
        "sibling letter flipped": edit(flip(run[2], 0)),
        "sibling last letter flipped": edit(flip(run[2], -1)),
        "override text on the last sibling": edit(*trade_trees(word, last_sibling)),
        "override text on the first sibling": edit(*trade_trees(word, run[0])),
        "entry dropped": edit((run[0].end(), run[1].end(), "")),
        "entry repeated": edit((run[1].end(), run[1].end(), separator + run[1].group())),
        "equal trees with branches swapped": edit(*(put_tree(e, swapped) for e in run if e is not word)),
        "width-1 families in the other reading": edit(*(c for r in widths1 for c in trade_trees(*r))),
        # Hostile runs.
        "width sends the jump past the end of F": edit(*((e.start(1), e.end(1), "1000000") for e in run)),
        "pair index of 5,000 digits": edit(*((e.start(1), e.end(1), "7" * 5000) for e in run)),
        "negative pair index": edit(*((e.start(1), e.end(1), "-1") for e in run)),
        "both full-length entries hold the default text": edit(put_tree(word, last_sibling.group(4))),
        "override word with the letter 2": edit(
            *((e.start(3), e.end(3), w) for e, w in zip(run, run_words(lettered)))
        ),
        "two tree texts of equal trees": edit(put_tree(word, respelled)),
    }


def assert_walks_match_the_constructor(wrapper: ShrinkWrapper) -> None:
    """Each family's distinct trees, in order, and representatives equal
    those of the checking constructor over the same leaves."""
    for fam in wrapper.families.values():
        checked = TreeFamily(fam.width, fam.leaves)
        assert list(fam.distinct_trees().items()) == list(checked.distinct_trees().items())
        assert [fam.representative(t) for t in fam.distinct_trees()] == [
            checked.representative(t) for t in checked.distinct_trees()
        ]


class TestClosedFormReader:
    """The canonical reader builds a family in closed form without the
    checking constructor only when its entries are exactly that form."""

    MUTANTS = tuple(closed_form_mutants(closed_document(0)))
    # A hang guard per case, for both decodes: 1 s, or on a machine slow
    # enough, 100 times the best of three decodes of the clean document.
    # test_failed_closed_forms_are_charged checks the linear cost itself.
    SECONDS, TIMES = 1.0, 100

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", MUTANTS)
    def test_mutated_family(self, seed, name):
        clean = closed_document(seed)
        text = closed_form_mutants(clean)[name]
        want = text_outcome(text)

        def seconds(text):
            started = time.perf_counter()
            got = outcome(lambda: decode(text)), outcome(lambda: decode(text.encode()))
            return got, time.perf_counter() - started

        limit = max(self.SECONDS, self.TIMES * min(seconds(clean)[1] for _ in range(3)))
        got, elapsed = seconds(text)
        assert got == (want, want)
        assert elapsed < limit
        if want[0] == "ok":
            assert_walks_match_the_constructor(decode(text))

    @pytest.mark.parametrize("top, general", [(3, False), (45, True)])
    def test_failed_closed_forms_are_charged(self, top, general, monkeypatch):
        """A family of the two classes 0 and 1 looks closed at its first
        entry, and its failed closed form renders about one entry per
        letter.  Below width 3 the charges stay small; at every width up to
        44 they pass the document's length, and the reader hands the
        document to the general path."""
        rng = random.Random(2911)
        w = build_wrapper([rand_upreal(rng, alphabet=3) for _ in range(10)])
        other = T(R([], (7,)))
        families = dict(w.families)
        for (nt, n), fam in w.families.items():
            if 1 <= nt < top:
                families[(nt, n)] = TreeFamily(nt, ((b"\x00", fam.leaves[0][1]), (b"\x01", other)))
        data = encode(dataclasses.replace(w, families=families))
        read = []
        checked = codec._dec_entries_checked
        monkeypatch.setattr(
            codec, "_dec_entries_checked", lambda obj, path: read.append(path) or checked(obj, path)
        )
        assert decode(data) == naive_dec_wrapper(json.loads(data)["payload"], "$.payload")
        assert read == (["$.payload.F"] if general else [])

    def test_all_zero_and_all_one_words(self):
        rng = random.Random(2604)
        xs = [rand_upreal(rng, alphabet=3) for _ in range(5)]
        w = build_padded_wrapper(xs, decoys=[rand_upreal(rng, alphabet=3) for _ in range(6)], seed=4)
        families = dict(w.families)
        for (nt, n), fam in w.families.items():
            if nt:
                default, tree = sorted(fam.distinct_trees(), key=fam.distinct_trees().get, reverse=True)
                word = (n % 2,) * nt
                families[(nt, n)] = TreeFamily.from_assignments(nt, default, {word: tree})
        text = encode(dataclasses.replace(w, families=families)).decode()
        assert outcome(lambda: decode(text)) == text_outcome(text)
        assert decode(text).families == families
        assert_walks_match_the_constructor(decode(text))

    @pytest.mark.parametrize("seed", range(4))
    def test_constructor_reads_only_other_families(self, seed, monkeypatch):
        text = closed_document(seed)
        mixed = decode(text)
        # At each width from 2, the smaller index's family becomes a
        # constant (odd widths) or a family of two overrides (even widths).
        families = dict(mixed.families)
        for (nt, n), fam in mixed.families.items():
            if nt >= 2 and n == pair_of(nt)[0]:
                tree = next(iter(fam.distinct_trees()))
                two = {(0,) * nt: T(R([7])), (1,) * nt: T(R([8]))}
                families[(nt, n)] = (
                    TreeFamily.constant(nt, tree) if nt % 2 else TreeFamily.from_assignments(nt, tree, two)
                )
        for value in (mixed, dataclasses.replace(mixed, families=families)):
            data = encode(value)
            checked = []
            post_init = TreeFamily.__post_init__

            def counting(self):
                checked.append(self)
                post_init(self)

            with monkeypatch.context() as patch:
                patch.setattr(TreeFamily, "__post_init__", counting)
                got = decode(data)
            assert got == value == naive_dec_wrapper(json.loads(data)["payload"], "$.payload")
            assert sorted(f.width for f in checked) == sorted(
                f.width for f in value.families.values() if not is_closed_form(f)
            )


class TestLazyLeaves:
    """A padded family is kept as its shape, so no step from build to
    domination works out its leaves."""

    def test_no_step_splits_a_padded_family(self, paths, monkeypatch, capsys):
        tmp, save = paths
        split = shrinkwrap.wrapper._split
        calls = []

        def counting(*args):
            calls.append(args)
            return split(*args)

        monkeypatch.setattr(shrinkwrap.wrapper, "_split", counting)
        loaded = []
        for seed in range(4):
            rng = random.Random(2900 + seed)
            xs = tuple(rand_upreal(rng, alphabet=3) for _ in range(5))
            decoys = tuple(rand_upreal(rng, alphabet=3) for _ in range(3 + 2 * seed))
            reals, pool = save("xs.json", xs), save("decoys.json", decoys)
            out, report = str(tmp / "w.json"), str(tmp / "r.json")
            monkeypatch.setenv("SHRINKWRAP_SEED", str(seed))
            assert run(["build", "--reals", reals, "--decoys", pool, "--out", out]) == 0
            built = build_padded_wrapper(xs, decoys=decoys, seed=seed)
            assert encode(built) == Path(out).read_bytes()
            assert run(["verify", "--wrapper", out, "--reals", reals, "--cond4"]) == 0
            trees = {t for fam in built.families.values() for t in fam.distinct_trees()}
            battery = save("battery.json", xs + tuple(sorted({b for t in trees for b in t.branches}, key=repr)))
            argv = ["dominate", "--reals", reals, "--wrapper", out, "--battery", battery, "--out", report]
            assert run(argv) == 0
            loaded.append(codec.load(out))
        assert calls == []
        capsys.readouterr()
        # Read as its shape, each family gives what the checking constructor
        # and the tuple oracle give over its leaves.
        closed = 0
        for w in loaded:
            for fam in w.families.values():
                counts = fam.distinct_trees()
                if fam.width == 0 or sorted(counts.values()) != [1, 2**fam.width - 1]:
                    continue
                closed += 1
                tree, default = sorted(counts, key=counts.get)
                word = fam.representative(tree)
                naive = naive_from_assignments(fam.width, default, {word: tree})
                checked = TreeFamily(fam.width, naive)
                assert hash(fam) == hash(checked)
                assert fam == checked and repr(fam) == repr(checked)
                assert fam.leaves == checked.leaves == tuple((bytes(p), t) for p, t in naive)
                for s in (word, (0,) * fam.width, (1,) * fam.width):
                    assert fam.tree_at(s) == checked.tree_at(s)
                assert list(map(fam.representative, counts)) == list(map(checked.representative, counts))
        assert closed == 4 * 2 * 9 and calls  # every family of width 1 to 9


def every_artifact():
    """(value, kind) for every kind and report type, small enough to corrupt
    one element at a time."""
    rmap = rand_rmap(random.Random(3), 1, 3)
    padded = build_padded_wrapper((ZERO, R([1])), decoys=(R([0, 1]), R([1, 1])), seed=3)
    return [
        (XS + (R([2, 1], (0, 1)),), "reals"),
        ((T(ZERO), T(R([1]), R([0, 1]))), "trees"),
        (padded, "wrapper"),
        (P6, "silver-tree"),
        (G4, "ground-universe"),
        (rmap, "rmap"),
        (verify_wrapper(build_wrapper(XS), (ZERO, R([1]), R([0, 1]), R([2]))), "report"),
        (violating_report(), "report"),
        (check_domination(XS, (R([2]),), wrapper=build_wrapper(XS)), "report"),
        (verify_fusion_helper(rmap), "report"),
        (obstruct(build_wrapper(XS), G8, P6), "report"),
        (
            ObstructionReport(
                1, 5, ZERO, R([1]), R([2]), "3c", None, (0,), (1, 0), T(ZERO), T(R([1])), "x"
            ),
            "report",
        ),
        (brute_obstruction(G4, P6, max_branches=1), "report"),
    ]


ARTIFACTS = [encode(value, kind) for value, kind in every_artifact()]


def both_decoders(text: str):
    """decode's outcome and the oracle's, each a value or an error."""
    return outcome(lambda: decode(text)), outcome(lambda: naive_decode(json.loads(text)))


class TestRealsReader:
    """A list of reals is read at the cost of its distinct entries, and
    any list the fast path does not take reports what the entry reader
    reports."""

    def battery(self) -> list:
        rng = random.Random(2605)
        xs = [rand_upreal(rng, alphabet=5) for _ in range(40)]
        return xs + rng.choices(xs, k=60) + [UPReal((2**70,), (0, 300))]

    def test_clean_lists_skip_the_entry_reader(self, monkeypatch):
        battery = self.battery()
        data = encode(battery, "reals")
        read = []
        real_read = codec._REAL.read

        def counting(obj, path):
            read.append(path)
            return real_read(obj, path)

        monkeypatch.setattr(codec._REAL, "read", counting)
        got = decode(data)
        assert got == tuple(battery) == naive_decode(json.loads(data))
        assert read == []
        made = {}
        assert all(made.setdefault(x, x) is x for x in got)  # equal entries share one value
        assert decode(encode([T(*battery[:5])], "trees")) == (T(*battery[:5]),)
        assert read == []

    EDITS = {
        "a bool letter": lambda e: e["prefix"].append(True),
        "a float letter": lambda e: e["period"].append(1.0),
        "a negative letter": lambda e: e["prefix"].append(-1),
        "an empty period": lambda e: e["period"].clear(),
        "a missing key": lambda e: e.pop("period"),
        "an extra key": lambda e: e.update(extra=[1]),
        "a string prefix": lambda e: e.update(prefix="01"),
        "a nested letter": lambda e: e["period"].append([1]),
    }

    @pytest.mark.parametrize("first", sorted(EDITS))
    @pytest.mark.parametrize("second", [None, "a negative letter", "a missing key"])
    def test_edited_entries(self, first, second):
        rng = random.Random(f"{first} / {second}")
        doc = json.loads(encode(self.battery(), "reals"))
        entries = doc["payload"]
        i = rng.randrange(len(entries) // 2)
        self.EDITS[first](entries[i])
        if second:
            self.EDITS[second](entries[i + 1 + rng.randrange(len(entries) // 2)])
        for payload in (entries, "not a list", entries[:i] + ["an entry"] + entries[i:]):
            doc["payload"] = payload
            text = json.dumps(doc)
            assert outcome(lambda: decode(text)) == outcome(lambda: naive_decode(json.loads(text)))


class TestDecodeOracle:
    """The table-driven decoder against hand-written walkers, on every kind
    and report type."""

    def test_clean_documents(self):
        for (value, kind), data in zip(every_artifact(), ARTIFACTS):
            assert decode(data) == naive_decode(json.loads(data)) == decode(encode(value, kind))

    @settings(max_examples=600, deadline=None)
    @given(
        st.integers(0, len(ARTIFACTS) - 1),
        st.integers(0, 2**32),
        st.sampled_from(("replace", "retype", "delete", "duplicate", "extend")),
        st.sampled_from(REPLACEMENTS + ("x", 2.0, -1, [0, 1, 2], ["condition2", 1, 2])),
    )
    def test_corrupted_documents(self, which, where, how, value):
        doc = json.loads(ARTIFACTS[which])
        spots = list(locations(doc["payload"]))
        container, key = spots[where % len(spots)]
        original = container[key]
        if how == "retype" and type(original) is int:
            container[key] = bool(original) if original in (0, 1) else float(original)
        elif how == "delete":
            del container[key]
        elif how == "duplicate" and isinstance(container, list):
            container.insert(key, json.loads(json.dumps(container[key])))
        elif how == "extend" and isinstance(original, list) and original:
            original.append(original[-1])  # a pair with three elements
        else:
            container[key] = value
        got, want = both_decoders(json.dumps(doc))
        assert got == want

    @pytest.mark.parametrize("empty", [{}, []], ids=["object", "list"])
    def test_every_container_emptied(self, empty):
        for data in ARTIFACTS:
            doc = json.loads(data)
            for container, key in locations(doc["payload"]):
                original = container[key]
                if isinstance(original, (dict, list)):
                    container[key] = empty
                    got, want = both_decoders(json.dumps(doc))
                    assert got == want
                    container[key] = original

    def test_keys_are_read_in_document_order(self):
        # An emptied record reports the first key it lacks in document order.
        failed = verify_wrapper(build_wrapper(XS), (ZERO, R([1]), R([0, 1]), R([2])))
        emptied = ((failed, "violations", "condition"), (violating_report(), "rows", "x"))
        for report, field, key in emptied:
            doc = json.loads(encode(report))
            doc["payload"][field][0] = {}
            with pytest.raises(CodecError, match=re.escape(f"[0]: missing key {key!r}")):
                decode(json.dumps(doc))


@pytest.fixture
def paths(tmp_path):
    def save(name, value, kind=None):
        p = tmp_path / name
        codec.save(str(p), value, kind)
        return str(p)

    return tmp_path, save


class TestCli:
    def test_build_then_verify(self, paths, capsys):
        tmp, save = paths
        reals = save("xs.json", XS)
        out = str(tmp / "w.json")
        assert run(["build", "--reals", reals, "--out", out]) == 0
        assert run(["verify", "--wrapper", out, "--reals", reals, "--cond4"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_names_the_broken_condition(self, paths, capsys):
        tmp, save = paths
        reals = save("xs.json", XS)
        out = str(tmp / "w.json")
        run(["build", "--reals", reals, "--out", out])
        doc = json.loads(Path(out).read_text())
        doc["payload"]["F"][0]["tree"]["branches"] = [{"prefix": [9], "period": [0]}]
        Path(out).write_text(json.dumps(doc))
        assert run(["verify", "--wrapper", out, "--reals", reals]) == 1
        captured = capsys.readouterr().out
        assert "condition" in captured and "FAIL" in captured

    def test_verify_prints_each_law_3_reason(self, paths, capsys):
        # Pair 0: index 1's tree meets index 0's without equalling it.
        # Pair 1: both indices share a tree through their two points.
        tmp, save = paths
        reals = save("xs.json", XS)
        w = build_wrapper(XS)
        shared = TreeFamily.constant(1, T(ZERO, R([0, 1])))
        families = {
            **w.families,
            (0, 1): TreeFamily.constant(0, T(ZERO, R([1]))),
            (1, 0): shared,
            (1, 2): shared,
        }
        bad = save("w.json", ShrinkWrapper(w.scope, families, w.isolated))
        assert run(["verify", "--wrapper", bad, "--reals", reals, "--cond4"]) == 1
        assert capsys.readouterr().out == (
            "condition 3, pair 0, word '', word '': branch sets overlap without being equal"
            " or a shared isolated singleton\n"
            "condition 3, pair 1, word 0, word 0: equal branch sets pass through one of the"
            " points but the points differ\n"
            "condition 4, pair 1, index 0, word 0: words sharing a tree need an isolated"
            " singleton\n"
            "condition 4, pair 1, index 2, word 0: words sharing a tree need an isolated"
            " singleton\n"
            "wrapper over 4 sequences, 6 pair positions: FAIL (4 violations)\n"
        )

    def test_build_with_decoys_is_seed_stable(self, paths, monkeypatch):
        tmp, save = paths
        reals = save("xs.json", XS)
        decoys = save("decoys.json", (R([1, 1]), R([0, 0, 1])))
        monkeypatch.setenv("SHRINKWRAP_SEED", "11")
        out1, out2 = str(tmp / "a.json"), str(tmp / "b.json")
        assert run(["build", "--reals", reals, "--decoys", decoys, "--out", out1]) == 0
        assert run(["build", "--reals", reals, "--decoys", decoys, "--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        assert run(["verify", "--wrapper", out1, "--reals", reals]) == 0

    def test_seed_must_be_unsigned(self, paths, monkeypatch, capsys):
        tmp, save = paths
        reals = save("xs.json", XS)
        decoys = save("d.json", (R([1, 1]),))
        # "\u00b2" and "\u0661" pass str.isdigit; int() reads the second as 1.
        for raw in ("abc", "\u00b2", "\u0661"):
            monkeypatch.setenv("SHRINKWRAP_SEED", raw)
            code = run(["build", "--reals", reals, "--decoys", decoys,
                        "--out", str(tmp / "w.json")])
            assert code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: SHRINKWRAP_SEED must be an unsigned integer, got {raw!r}\n"
            assert not (tmp / "w.json").exists()

    def test_dominate_with_wrapper(self, paths):
        tmp, save = paths
        reals = save("xs.json", XS)
        out = str(tmp / "w.json")
        run(["build", "--reals", reals, "--out", out])
        battery = save("battery.json", XS + (R([2]), R([1, 2])))
        report_path = str(tmp / "report.json")
        assert run(["dominate", "--reals", reals, "--wrapper", out,
                    "--battery", battery, "--out", report_path]) == 0
        report = codec.load(report_path, "report")
        assert report.passed and len(report.rows) == 6

    def test_dominate_with_trees_reports_violations(self, paths, capsys):
        tmp, save = paths
        a, b, c = ZERO, R([0, 1, 1]), R([0, 1])
        reals = save("xs.json", (a, b))
        shared = T(a, b, c)
        trees = save("trees.json", (shared, shared), kind="trees")
        battery = save("battery.json", (c,))
        report_path = str(tmp / "report.json")
        code = run(["dominate", "--reals", reals, "--trees", trees,
                    "--battery", battery, "--out", report_path])
        assert code == 1
        assert "violating pairs" in capsys.readouterr().out
        assert not codec.load(report_path, "report").passed

    def test_dominate_on_long_unreduced_periods_is_fast(self, tmp_path, capsys):
        # Two zero sequences written with unreduced periods of coprime
        # lengths 997 and 991, and two distinct sequences with coprime
        # periods 9973 and 9967 that agree up to position 9966.
        raw = [
            {"prefix": [], "period": [0] * 997},
            {"prefix": [0], "period": [0] * 991},
            {"prefix": [], "period": [0] * 9972 + [1]},
            {"prefix": [], "period": [0] * 9966 + [1]},
        ]
        reals = tmp_path / "xs.json"
        reals.write_text(json.dumps({"kind": "reals", "version": 1, "payload": raw}))
        trees = tmp_path / "trees.json"
        trees.write_text(json.dumps(
            {"kind": "trees", "version": 1, "payload": [{"branches": [x]} for x in raw]}
        ))
        start = time.perf_counter()
        code = run(["dominate", "--reals", str(reals), "--trees", str(trees),
                    "--battery", str(reals), "--out", str(tmp_path / "report.json")])
        elapsed = time.perf_counter() - start
        assert code in (0, 1), capsys.readouterr().err
        assert elapsed < 1.0, f"dominate took {elapsed:.2f}s"

    def test_fusion_pass(self, paths, capsys):
        # The whole output, against the line built from the library's own
        # chain collapse, on seeded maps of every depth up to 4.
        tmp, save = paths
        rng = random.Random(6)
        for depth in range(5):
            for _ in range(8):
                rmap = rand_rmap(rng, depth, rng.randint(9, 12))
                report = verify_fusion_helper(rmap)
                assert report.passed
                inter = fusion_intersect(report.chain[1:] or report.chain)
                assert run(["fusion", "--rmap", save("rmap.json", rmap)]) == 0
                assert capsys.readouterr().out == (
                    f"fusion helper over depth {depth}: PASS; intersection keeps "
                    f"gap {inter.gap()} within horizon {inter.horizon}\n"
                )

    def test_fusion_reports_comparable_stems(self, paths, capsys):
        tmp, save = paths
        full = HorizonPerfectTree.full(2)
        rmap = save("rmap.json", RMap(1, {(): full, (0,): full, (1,): full}))
        assert run(["fusion", "--rmap", rmap]) == 1
        assert "comparable" in capsys.readouterr().out

    def test_fusion_on_a_huge_declared_depth(self, tmp_path, capsys):
        # One tree, but 2**61 - 1 words up to the declared depth: rejected
        # by counting the keys, without listing the words.
        doc = json.loads(encode(RMap(0, {(): HorizonPerfectTree.full(2)})))
        doc["payload"]["depth"] = 60
        rmap = tmp_path / "rmap.json"
        rmap.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = run(["fusion", "--rmap", str(rmap)])
        assert code == 2
        assert "need exactly one tree per word up to the depth" in capsys.readouterr().err
        assert time.perf_counter() - start < 1.0

    def test_silver_obstruct_wrapper(self, paths, capsys):
        tmp, save = paths
        assert run([
            "silver-obstruct",
            "--universe", save("g.json", G8),
            "--tree", save("p.json", P6),
            "--wrapper", save("w.json", build_wrapper(XS)),
        ]) == 1
        assert "condition2" in capsys.readouterr().out

    def test_silver_obstruct_brute(self, paths, capsys):
        tmp, save = paths
        g = save("g.json", G4)
        p = save("p.json", P6)
        assert run(["silver-obstruct", "--universe", g, "--tree", p,
                    "--brute", "--max-branches", "1"]) == 1
        assert "survivors 0" in capsys.readouterr().out
        assert run(["silver-obstruct", "--universe", g, "--tree", p,
                    "--brute", "--max-branches", "0"]) == 0

    def test_silver_obstruct_brute_on_a_huge_horizon(self, paths, capsys):
        # 10**8 levels with no fixed bits: rejected without listing them.
        tmp, save = paths
        tree = save("p.json", SilverTree(10**8, frozenset(), {}))
        start = time.perf_counter()
        code = run(["silver-obstruct", "--universe", save("g.json", G4), "--tree", tree,
                    "--brute", "--max-branches", "1"])
        assert code == 2
        assert "not a valid silver representation" in capsys.readouterr().err
        assert time.perf_counter() - start < 1.0

    def test_build_on_deeply_nested_reals(self, tmp_path, capsys):
        # Exit code 1 is reserved for a reported failure; a file that cannot
        # be read exits 2 with its path in the message.
        reals = tmp_path / "xs.json"
        reals.write_text('{"kind": "reals", "version": 1, "payload": ' + "[" * 100_000)
        assert run(["build", "--reals", str(reals), "--out", str(tmp_path / "w.json")]) == 2
        assert capsys.readouterr().err == "error: $: invalid JSON: nested too deeply\n"

    def test_brute_needs_a_bound(self, paths):
        tmp, save = paths
        code = run(["silver-obstruct", "--universe", save("g.json", G4),
                    "--tree", save("p.json", P6), "--brute"])
        assert code == 2

    def test_brute_bound_must_be_nonnegative(self, paths, capsys):
        tmp, save = paths
        code = run(["silver-obstruct", "--universe", save("g.json", G4),
                    "--tree", save("p.json", P6), "--brute", "--max-branches", "-1"])
        assert code == 2
        assert "max_branches must be nonnegative" in capsys.readouterr().err

    def test_brute_cap_is_checked_before_listing(self, paths, capsys):
        tmp, save = paths
        start = time.perf_counter()
        code = run(["silver-obstruct", "--universe", save("g.json", G22),
                    "--tree", save("p.json", P6), "--brute", "--max-branches", "8"])
        assert code == 2
        assert "exceed the sweep cap" in capsys.readouterr().err
        assert time.perf_counter() - start < 0.5

    def test_missing_file(self, paths):
        tmp, save = paths
        reals = save("xs.json", XS)
        assert run(["verify", "--wrapper", str(tmp / "nope.json"),
                    "--reals", reals]) == 2

    def test_kind_mismatch(self, paths):
        tmp, save = paths
        reals = save("xs.json", XS)
        assert run(["verify", "--wrapper", reals, "--reals", reals]) == 2

    def test_cached_parser_carries_no_state(self, paths, capsys):
        """Commands run back to back in one process, on the one parser, exit
        and print as each does in a fresh process."""
        tmp, save = paths
        xs = (ZERO, R([1]), R([2]))
        reals = save("xs.json", xs)
        plain = build_wrapper(xs)
        # Passes the main laws, but a two-branch tree is shared by two words.
        fat = TreeFamily.constant(1, T(ZERO, R([3])))
        wrapper = save("w.json", ShrinkWrapper(plain.scope, {**plain.families, (1, 0): fat}, plain.isolated))
        battery = save("battery.json", xs + (R([2, 1]), R([0, 1])))
        a, b, c = ZERO, R([0, 1, 1]), R([0, 1])
        shared = T(a, b, c)
        bad_reals = save("ab.json", (a, b))
        trees = save("trees.json", (shared, shared), kind="trees")
        probe = save("probe.json", (c,))
        commands = [
            ["verify", "--wrapper", wrapper, "--reals", reals, "--cond4"],
            ["verify", "--wrapper", wrapper, "--reals", reals],
            ["verify", "--wrapper", wrapper],
            ["verify", "--wrapper", wrapper, "--reals", reals],
            ["dominate", "--reals", reals, "--wrapper", wrapper, "--battery", battery,
             "--out", str(tmp / "r1.json")],
            ["dominate", "--reals", bad_reals, "--trees", trees, "--battery", probe,
             "--out", str(tmp / "r2.json")],
        ]
        capsys.readouterr()
        in_process = []
        for argv in commands:
            code = run(argv)
            in_process.append((code, capsys.readouterr().out))
        assert cli._build_parser() is cli._build_parser()
        env = {**os.environ, "PYTHONPATH": str(Path(shrinkwrap.__file__).parents[1])}
        fresh = []
        for argv in commands:
            done = subprocess.run(
                [sys.executable, "-c", "from shrinkwrap.cli import main; main()", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            fresh.append((done.returncode, done.stdout))
        assert [code for code, _ in in_process] == [1, 0, 2, 0, 0, 1]
        assert in_process == fresh

    def test_module_entry_point(self, paths):
        """``python -m shrinkwrap.cli`` runs the command line: it prints the
        usage, and a build writes the bytes ``run`` writes."""
        tmp, save = paths
        reals = save("xs.json", XS)
        decoys = save("decoys.json", (R([2]), R([0, 2], (1,)), R([1, 1])))
        env = {**os.environ, "PYTHONPATH": str(Path(shrinkwrap.__file__).parents[1])}

        def module(*argv):
            return subprocess.run(
                [sys.executable, "-m", "shrinkwrap.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )

        done = module("--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: shrinkwrap")
        build = ["build", "--reals", reals, "--decoys", decoys, "--out"]
        assert module(*build, str(tmp / "fresh.json")).returncode == 0
        assert run([*build, str(tmp / "here.json")]) == 0
        assert (tmp / "fresh.json").read_bytes() == (tmp / "here.json").read_bytes()

    def test_unknown_flags(self, capsys):
        assert run(["verify", "--bogus"]) == 2
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

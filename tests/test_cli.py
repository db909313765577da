"""Artifact codec round-trips and the command line surface."""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import (
    mutate_at_level,
    naive_dec_wrapper,
    naive_encode,
    rand_branch_tree,
    rand_rmap,
    rand_upreal,
)
from shrinkwrap import codec
from shrinkwrap.cli import run
from shrinkwrap.codec import CodecError, decode, encode, infer_kind
from shrinkwrap.core import ZERO, BranchTree, UPReal
from shrinkwrap.domination import check_domination
from shrinkwrap.sacks import HorizonPerfectTree, RMap, verify_fusion_helper
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
        assert [type(b) for prefix, _ in odd.leaves for b in prefix] == [int, int]
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

    def test_wrapper_duplicate_leaf(self):
        doc = json.loads(encode(build_wrapper((ZERO, R([1])))))
        doc["payload"]["F"].append(doc["payload"]["F"][0])
        self.check(json.dumps(doc), "duplicate leaf")

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


class TestWrapperDecodeOracle:
    """The per-tree memo against the decoder that decodes every entry anew."""

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
    def test_clean_documents(self, seed):
        data = padded_document(seed)
        assert decode(data) == naive_dec_wrapper(json.loads(data)["payload"], "$.payload")

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

    def test_seed_must_be_unsigned(self, paths, monkeypatch):
        tmp, save = paths
        reals = save("xs.json", XS)
        decoys = save("d.json", (R([1, 1]),))
        monkeypatch.setenv("SHRINKWRAP_SEED", "abc")
        code = run(["build", "--reals", reals, "--decoys", decoys,
                    "--out", str(tmp / "w.json")])
        assert code == 2

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
        tmp, save = paths
        rmap = save("rmap.json", rand_rmap(random.Random(6), 3, 9))
        assert run(["fusion", "--rmap", rmap]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fusion_reports_comparable_stems(self, paths, capsys):
        tmp, save = paths
        full = HorizonPerfectTree.full(2)
        rmap = save("rmap.json", RMap(1, {(): full, (0,): full, (1,): full}))
        assert run(["fusion", "--rmap", rmap]) == 1
        assert "comparable" in capsys.readouterr().out

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

    def test_brute_needs_a_bound(self, paths):
        tmp, save = paths
        code = run(["silver-obstruct", "--universe", save("g.json", G4),
                    "--tree", save("p.json", P6), "--brute"])
        assert code == 2

    def test_missing_file(self, paths):
        tmp, save = paths
        reals = save("xs.json", XS)
        assert run(["verify", "--wrapper", str(tmp / "nope.json"),
                    "--reals", reals]) == 2

    def test_kind_mismatch(self, paths):
        tmp, save = paths
        reals = save("xs.json", XS)
        assert run(["verify", "--wrapper", reals, "--reals", reals]) == 2

    def test_unknown_flags(self, capsys):
        assert run(["verify", "--bogus"]) == 2
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

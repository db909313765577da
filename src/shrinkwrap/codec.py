"""JSON artifact files for every value the package trades in.

One value per file, wrapped as {"kind", "version", "payload"}.  Sequences
are canonical and collections are emitted in a fixed order, so equal
values produce byte-identical documents and golden files stay stable.
Decoding validates shape as it walks and reports the path to the first
offending element.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from shrinkwrap.core import (
    DEFAULT_CODERS,
    BranchTree,
    Node,
    UPReal,
    up_sort_key,
)
from shrinkwrap.domination import DominationReport, DominationRow
from shrinkwrap.sacks import FusionReport, HorizonPerfectTree, RMap
from shrinkwrap.silver import (
    BruteSummary,
    GroundUniverse,
    ObstructionReport,
    SilverTree,
)
from shrinkwrap.wrapper import (
    ShrinkWrapper,
    TreeFamily,
    Violation,
    WrapperReport,
    WrapperScope,
)

VERSION = 1

KINDS = (
    "reals",
    "trees",
    "wrapper",
    "silver-tree",
    "ground-universe",
    "rmap",
    "report",
)


class CodecError(ValueError):
    """Malformed document; the message starts with the offending path."""


def _fail(path: str, message: str):
    raise CodecError(f"{path}: {message}")


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        _fail(path, f"missing key {key!r}")
    return obj[key]


def _as_obj(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _as_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        _fail(path, f"expected a list, got {type(obj).__name__}")
    return obj


def _as_int(obj: Any, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        _fail(path, f"expected an integer, got {obj!r}")
    return obj


def _as_ints(obj: Any, path: str) -> tuple[int, ...]:
    items = _as_list(obj, path)
    if not all(type(v) is int for v in items):
        for i, v in enumerate(items):
            _as_int(v, f"{path}[{i}]")
    return tuple(items)


def _as_bool(obj: Any, path: str) -> bool:
    if not isinstance(obj, bool):
        _fail(path, f"expected a boolean, got {obj!r}")
    return obj


def _as_str(obj: Any, path: str) -> str:
    if not isinstance(obj, str):
        _fail(path, f"expected a string, got {type(obj).__name__}")
    return obj


# ---------------------------------------------------------------- encoding
#
# The bytes are exactly json.dumps(document, indent=2) plus a newline.  A
# wrapper's F entries and a domination report's rows hold almost all of
# them, so those two lists are rendered straight to text: each record shape
# is a field table with one template per indent level, each distinct tree is
# rendered once, and each list of ints is one join.  The generic writer
# _dumps renders the rest of the document, and one join of the parts makes
# the whole text.

_DOCUMENT = ("kind", "version", "payload")
_WRAPPER = ("scope", "F", "I")
_ENTRY = ("pair_index", "n", "s", "tree")
_TREE = ("branches",)
_REAL = ("prefix", "period")
_DOMINATION = ("report_type", "passed", "n_reals", "pointwise_enforced", "rows")
_ROW = (
    "x", "f_values", "g_values", "in_tree", "failure_set", "violating_pairs", "pointwise_failures",
)

_BITS = bytes.maketrans(b"\x00\x01", b"01")
_LITERALS = {True: "true", False: "false"}


@functools.cache
def _template(fields: tuple[str, ...], level: int) -> str:
    """An object with these keys at this indent level, one %s per value."""
    inner = "\n" + "  " * (level + 1)
    keys = ",".join(f"{inner}{encode_basestring_ascii(k)}: %s" for k in fields)
    return "{" + keys + "\n" + "  " * level + "}"


def _items(texts, level: int) -> str:
    """A list at this indent level of items already rendered one level in."""
    inner = "\n" + "  " * (level + 1)
    body = ("," + inner).join(texts)
    return "[" + inner + body + "\n" + "  " * level + "]" if body else "[]"


def _flat(values, level: int) -> str:
    """A list of ints, or of booleans, in one join.  Any other list goes to
    _dumps, which writes a bool among ints as true and raises TypeError on a
    float or a tuple."""
    types = set(map(type, values))
    if types == {int}:
        texts = map(int.__repr__, values)
    elif types <= {bool}:  # or empty
        texts = map(_LITERALS.__getitem__, values)
    else:
        return _dumps(list(values), level)
    return _items(texts, level)


def _word_text(s: Node) -> str:
    # Sound because TreeFamily stores its class prefixes as 0/1 ints.
    return '"' + bytes(s).translate(_BITS).decode("ascii") + '"'


def _real_text(r: UPReal, level: int) -> str:
    return _template(_REAL, level) % (_flat(r.prefix, level + 1), _flat(r.period, level + 1))


def _tree_text(t: BranchTree, level: int) -> str:
    branches = [_real_text(b, level + 2) for b in t.sorted_branches()]
    return _template(_TREE, level) % _items(branches, level + 1)


def _parts(template: str, values: tuple) -> list[str]:
    """``template % values`` as parts of one string; a value that is a list
    of parts is spliced in, so a bulk list is copied only by the final join."""
    segments = template.split("%s")
    parts = [segments[0]]
    for value, segment in zip(values, segments[1:]):
        parts += value if isinstance(value, list) else (value,)
        parts.append(segment)
    return parts


def _wrapper_parts(w: ShrinkWrapper, level: int) -> list[str]:
    # An entry's tree is its last field, and one shared part: a padded
    # family's filler tree fills almost every leaf.
    head, tail = _template(_ENTRY, level + 2).rsplit("%s", 1)
    inner = "\n" + "  " * (level + 2)
    lead, sep = "[" + inner, tail + "," + inner
    trees: dict[frozenset[UPReal], str] = {}
    entries = []
    for (nt, n) in sorted(w.families):
        pair = (_dumps(nt), _dumps(n))
        leaves = sorted(w.families[(nt, n)].leaves, key=lambda leaf: (len(leaf[0]), leaf[0]))
        for prefix, tree in leaves:
            # Keyed by the branch set, a frozenset, which keeps its hash.
            text = trees.get(tree.branches)
            if text is None:
                text = trees[tree.branches] = _tree_text(tree, level + 3)
            entries += (lead + head % (*pair, _word_text(prefix)), text)
            lead = sep
    entries.append(tail + "\n" + "  " * (level + 1) + "]" if entries else "[]")
    scope = {"N": w.scope.n_reals, "Ntilde": w.scope.n_pairs}
    isolated = [[_enc_real(x) for x in sorted(part, key=up_sort_key)] for part in w.isolated]
    return _parts(
        _template(_WRAPPER, level), (_dumps(scope, level + 1), entries, _dumps(isolated, level + 1))
    )


def _domination_text(report: DominationReport, level: int) -> str:
    row = _template(_ROW, level + 2)
    v = level + 3
    rows = [
        row % (
            _real_text(r.x, v),
            _flat(r.f_values, v),
            _flat(r.g_values, v),
            _flat(r.in_tree, v),
            _flat(r.failure_set, v),
            _items([_flat(p, v + 1) for p in r.violating_pairs], v),
            _flat(r.pointwise_failures, v),
        )
        for r in report.rows
    ]
    header = (report.passed, report.n_reals, report.pointwise_enforced)
    return _template(_DOMINATION, level) % (
        '"domination"', *(_dumps(value, level + 1) for value in header), _items(rows, level + 1),
    )


def _enc_word(s: Node) -> str:
    return "".join(map(str, s))


def _enc_real(r: UPReal) -> dict:
    return {"prefix": list(r.prefix), "period": list(r.period)}


def _enc_tree(t: BranchTree) -> dict:
    return {"branches": [_enc_real(b) for b in t.sorted_branches()]}


def _enc_silver(p: SilverTree) -> dict:
    return {
        "horizon": p.horizon,
        "split_levels": sorted(p.split_levels),
        "fixed": {str(l): b for l, b in sorted(p.fixed)},
    }


def _enc_hpt(p: HorizonPerfectTree) -> dict:
    return {
        "horizon": p.horizon,
        "nodes": [_enc_word(t) for t in sorted(p.nodes, key=lambda t: (len(t), t))],
    }


def _enc_rmap(r: RMap) -> dict:
    return {
        "depth": r.depth,
        "trees": [
            {"s": _enc_word(s), "tree": _enc_hpt(r.trees[s])}
            for s in sorted(r.trees, key=lambda s: (len(s), s))
        ],
    }


def _opt(value, enc):
    return None if value is None else enc(value)


def _enc_report(report) -> dict:
    if isinstance(report, WrapperReport):
        return {
            "report_type": "wrapper",
            "passed": report.passed,
            "violations": [
                {
                    "condition": v.condition,
                    "pair_index": v.ntilde,
                    "n": v.n,
                    "s1": _opt(v.s1, _enc_word),
                    "s2": _opt(v.s2, _enc_word),
                    "reason": v.reason,
                }
                for v in report.violations
            ],
        }
    if isinstance(report, FusionReport):
        return {
            "report_type": "fusion",
            "passed": report.passed,
            "failures": list(report.failures),
            "chain": [_enc_hpt(p) for p in report.chain],
        }
    if isinstance(report, ObstructionReport):
        return {
            "report_type": "obstruction",
            "n": report.n,
            "ntilde": report.ntilde,
            "r0": _enc_real(report.r0),
            "r1": _enc_real(report.r1),
            "u": _enc_real(report.u),
            "clause": report.clause,
            "index": report.index,
            "s1": _opt(report.s1, _enc_word),
            "s2": _opt(report.s2, _enc_word),
            "tree1": _opt(report.tree1, _enc_tree),
            "tree2": _opt(report.tree2, _enc_tree),
            "reason": report.reason,
        }
    if isinstance(report, BruteSummary):
        return {
            "report_type": "brute",
            "n": report.n,
            "ntilde": report.ntilde,
            "u": _enc_real(report.u),
            "total": report.total,
            "histogram": [[clause, count] for clause, count in report.histogram],
            "survivors": report.survivors,
            "vacuous": report.vacuous,
            "s_uniform": report.s_uniform,
            "max_branches": report.max_branches,
        }
    raise CodecError(f"$: no report encoding for {type(report).__name__}")


_REPORT_TYPES = (WrapperReport, DominationReport, FusionReport, ObstructionReport, BruteSummary)


def infer_kind(value) -> str:
    if isinstance(value, ShrinkWrapper):
        return "wrapper"
    if isinstance(value, SilverTree):
        return "silver-tree"
    if isinstance(value, GroundUniverse):
        return "ground-universe"
    if isinstance(value, RMap):
        return "rmap"
    if isinstance(value, _REPORT_TYPES):
        return "report"
    if isinstance(value, (list, tuple, frozenset, set)):
        items = list(value)
        if all(isinstance(x, UPReal) for x in items):
            return "reals"
        if items and all(isinstance(x, BranchTree) for x in items):
            return "trees"
    raise CodecError(f"$: cannot infer an artifact kind for {type(value).__name__}")


def _enc_payload(value, kind: str):
    """Any other payload, as the dicts and lists that _dumps writes."""
    if kind == "reals":
        return [_enc_real(x) for x in value]
    if kind == "trees":
        return [_enc_tree(t) for t in value]
    if kind == "silver-tree":
        return _enc_silver(value)
    if kind == "ground-universe":
        return [_enc_real(x) for x in sorted(value.reals, key=up_sort_key)]
    if kind == "rmap":
        return _enc_rmap(value)
    return _enc_report(value)


def encode(value, kind: Optional[str] = None) -> bytes:
    """Serialize a value as a UTF-8 JSON artifact document."""
    if kind is None:
        kind = infer_kind(value)
    if kind not in KINDS:
        raise CodecError(f"$: unknown kind {kind!r}")
    if kind == "wrapper":
        payload = _wrapper_parts(value, 1)
    elif kind == "report" and isinstance(value, DominationReport):
        payload = _domination_text(value, 1)
    else:
        payload = _dumps(_enc_payload(value, kind), 1)
    parts = _parts(_template(_DOCUMENT, 0) + "\n", (_dumps(kind), _dumps(VERSION), payload))
    return "".join(parts).encode("utf-8")


def _dumps(value, level: int = 0) -> str:
    """Exactly ``json.dumps(value, indent=2)`` for dicts with string keys,
    lists, strings, ints, booleans and None, indented as if the value sat
    at ``level`` in a larger document.

    The stdlib runs its C encoder only without ``indent``; this writer is
    one recursive function appending to a list.
    """
    out: list[str] = []
    _write(value, level, out)
    return "".join(out)


def _write(value, level: int, out: list[str]) -> None:
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, dict)):
        if not value:
            out.append("[]" if isinstance(value, list) else "{}")
            return
        inner = "\n" + "  " * (level + 1)
        if isinstance(value, list):
            out.append("[")
            for item in value:
                out.append(inner)
                _write(item, level + 1, out)
                out.append(",")
            out[-1] = "\n" + "  " * level + "]"
        else:
            out.append("{")
            for k, item in value.items():
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                out.append(inner + encode_basestring_ascii(k) + ": ")
                _write(item, level + 1, out)
                out.append(",")
            out[-1] = "\n" + "  " * level + "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------- decoding

_UNBITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(s: str) -> Node:
    """The word of a string of "0"s and "1"s, in one translate."""
    return tuple(s.encode("ascii").translate(_UNBITS))


def _dec_word(obj: Any, path: str) -> Node:
    s = _as_str(obj, path)
    if not set(s) <= {"0", "1"}:
        _fail(path, f"expected a bit string, got {s!r}")
    return _bits(s)


def _dec_real(obj: Any, path: str) -> UPReal:
    obj = _as_obj(obj, path)
    prefix = _as_ints(_get(obj, "prefix", path), f"{path}.prefix")
    period = _as_ints(_get(obj, "period", path), f"{path}.period")
    if not period:
        _fail(f"{path}.period", "period must be nonempty")
    try:
        return UPReal(prefix, period)
    except ValueError as e:
        _fail(path, str(e))


def _dec_tree(obj: Any, path: str) -> BranchTree:
    obj = _as_obj(obj, path)
    branches = _as_list(_get(obj, "branches", path), f"{path}.branches")
    if not branches:
        _fail(f"{path}.branches", "a tree needs at least one branch")
    return BranchTree(
        frozenset(_dec_real(b, f"{path}.branches[{i}]") for i, b in enumerate(branches))
    )


def _dec_entry(entry: Any, epath: str) -> tuple[int, int, Node, Any]:
    entry = _as_obj(entry, epath)
    nt = _as_int(_get(entry, "pair_index", epath), f"{epath}.pair_index")
    n = _as_int(_get(entry, "n", epath), f"{epath}.n")
    prefix = _dec_word(_get(entry, "s", epath), f"{epath}.s")
    return nt, n, prefix, _get(entry, "tree", epath)


def _dec_wrapper(obj: Any, path: str) -> ShrinkWrapper:
    obj = _as_obj(obj, path)
    spath = f"{path}.scope"
    scope_obj = _as_obj(_get(obj, "scope", path), spath)
    bounds = [_as_int(_get(scope_obj, key, spath), f"{spath}.{key}") for key in ("N", "Ntilde")]
    try:
        scope = WrapperScope(*bounds)
    except ValueError as e:
        _fail(spath, str(e))
    tables: dict[tuple[int, int], dict[Node, BranchTree]] = {}
    # A padded family repeats one filler tree in almost every leaf, so each
    # distinct tree object is decoded once.  repr() is an exact key for
    # parsed JSON: 1, True and 1.0 print differently, although they compare
    # and hash equal.  Only successes are kept, so a bad tree still fails
    # at the first entry that holds it.
    trees: dict[str, BranchTree] = {}
    for i, entry in enumerate(_as_list(_get(obj, "F", path), f"{path}.F")):
        try:
            nt, n, s, tree_obj = entry["pair_index"], entry["n"], entry["s"], entry["tree"]
        except (TypeError, KeyError):
            nt = None
        # Path strings are built only for an entry that fails these checks;
        # _dec_entry then reports the first failure in document order.
        if type(nt) is int and type(n) is int and type(s) is str and not s.strip("01"):
            prefix = _bits(s)
        else:
            nt, n, prefix, tree_obj = _dec_entry(entry, f"{path}.F[{i}]")
        key = repr(tree_obj)
        tree = trees.get(key)
        if tree is None:
            tree = trees[key] = _dec_tree(tree_obj, f"{path}.F[{i}].tree")
        table = tables.setdefault((nt, n), {})
        if prefix in table:
            _fail(f"{path}.F[{i}].s", f"duplicate leaf {_enc_word(prefix)!r}")
        table[prefix] = tree
    isolated = tuple(
        frozenset(
            _dec_real(x, f"{path}.I[{i}][{j}]") for j, x in enumerate(_as_list(part, f"{path}.I[{i}]"))
        )
        for i, part in enumerate(_as_list(_get(obj, "I", path), f"{path}.I"))
    )
    try:
        families = {
            (nt, n): TreeFamily(nt, tuple(sorted(table.items())))
            for (nt, n), table in tables.items()
        }
        wrapper = ShrinkWrapper(scope, families, isolated)
        wrapper.check_total(DEFAULT_CODERS)
    except ValueError as e:
        _fail(path, str(e))
    return wrapper


def _dec_silver(obj: Any, path: str) -> SilverTree:
    obj = _as_obj(obj, path)
    horizon = _as_int(_get(obj, "horizon", path), f"{path}.horizon")
    levels = frozenset(_as_ints(_get(obj, "split_levels", path), f"{path}.split_levels"))
    fixed = {}
    for key, bit in _as_obj(_get(obj, "fixed", path), f"{path}.fixed").items():
        kpath = f"{path}.fixed[{key!r}]"
        digits = key[1:] if key.startswith("-") else key
        if not (digits.isascii() and digits.isdigit()):
            _fail(kpath, "level keys must be integers")
        if int(key) in fixed:
            _fail(kpath, f"level {int(key)} is fixed twice")
        fixed[int(key)] = _as_int(bit, kpath)
    return SilverTree(horizon, levels, fixed)


def _dec_hpt(obj: Any, path: str) -> HorizonPerfectTree:
    obj = _as_obj(obj, path)
    horizon = _as_int(_get(obj, "horizon", path), f"{path}.horizon")
    nodes = frozenset(
        _dec_word(t, f"{path}.nodes[{i}]")
        for i, t in enumerate(_as_list(_get(obj, "nodes", path), f"{path}.nodes"))
    )
    try:
        return HorizonPerfectTree(horizon, nodes)
    except ValueError as e:
        _fail(path, str(e))


def _dec_rmap(obj: Any, path: str) -> RMap:
    obj = _as_obj(obj, path)
    depth = _as_int(_get(obj, "depth", path), f"{path}.depth")
    trees = {}
    for i, entry in enumerate(_as_list(_get(obj, "trees", path), f"{path}.trees")):
        epath = f"{path}.trees[{i}]"
        entry = _as_obj(entry, epath)
        word = _dec_word(_get(entry, "s", epath), f"{epath}.s")
        if word in trees:
            _fail(f"{epath}.s", f"duplicate word {_enc_word(word)!r}")
        trees[word] = _dec_hpt(_get(entry, "tree", epath), f"{epath}.tree")
    try:
        return RMap(depth, trees)
    except ValueError as e:
        _fail(path, str(e))


def _dec_pair(obj: Any, path: str, first, second) -> tuple:
    items = _as_list(obj, path)
    if len(items) != 2:
        _fail(path, f"expected 2 elements, got {len(items)}")
    return first(items[0], f"{path}[0]"), second(items[1], f"{path}[1]")


def _dec_opt(obj: Any, path: str, dec):
    return None if obj is None else dec(obj, path)


def _dec_report(obj: Any, path: str):
    obj = _as_obj(obj, path)
    rtype = _as_str(_get(obj, "report_type", path), f"{path}.report_type")
    if rtype == "wrapper":
        violations = []
        for i, v in enumerate(_as_list(_get(obj, "violations", path), f"{path}.violations")):
            vpath = f"{path}.violations[{i}]"
            v = _as_obj(v, vpath)
            n = _get(v, "n", vpath)
            violations.append(
                Violation(
                    _as_str(_get(v, "condition", vpath), f"{vpath}.condition"),
                    _as_int(_get(v, "pair_index", vpath), f"{vpath}.pair_index"),
                    None if n is None else _as_int(n, f"{vpath}.n"),
                    _dec_opt(_get(v, "s1", vpath), f"{vpath}.s1", _dec_word),
                    _dec_opt(_get(v, "s2", vpath), f"{vpath}.s2", _dec_word),
                    _as_str(_get(v, "reason", vpath), f"{vpath}.reason"),
                )
            )
        return WrapperReport(
            _as_bool(_get(obj, "passed", path), f"{path}.passed"), tuple(violations)
        )
    if rtype == "domination":
        rows = []
        for i, row in enumerate(_as_list(_get(obj, "rows", path), f"{path}.rows")):
            rpath = f"{path}.rows[{i}]"
            row = _as_obj(row, rpath)

            def ints(key):
                return _as_ints(_get(row, key, rpath), f"{rpath}.{key}")

            pairs = tuple(
                _dec_pair(p, f"{rpath}.violating_pairs[{j}]", _as_int, _as_int)
                for j, p in enumerate(
                    _as_list(_get(row, "violating_pairs", rpath), f"{rpath}.violating_pairs")
                )
            )
            rows.append(
                DominationRow(
                    _dec_real(_get(row, "x", rpath), f"{rpath}.x"),
                    ints("f_values"),
                    ints("g_values"),
                    tuple(
                        _as_bool(v, f"{rpath}.in_tree[{j}]")
                        for j, v in enumerate(_as_list(_get(row, "in_tree", rpath), f"{rpath}.in_tree"))
                    ),
                    ints("failure_set"),
                    pairs,
                    ints("pointwise_failures"),
                )
            )
        return DominationReport(
            _as_bool(_get(obj, "passed", path), f"{path}.passed"),
            _as_int(_get(obj, "n_reals", path), f"{path}.n_reals"),
            _as_bool(_get(obj, "pointwise_enforced", path), f"{path}.pointwise_enforced"),
            tuple(rows),
        )
    if rtype == "fusion":
        return FusionReport(
            _as_bool(_get(obj, "passed", path), f"{path}.passed"),
            tuple(
                _as_str(f, f"{path}.failures[{i}]")
                for i, f in enumerate(_as_list(_get(obj, "failures", path), f"{path}.failures"))
            ),
            tuple(
                _dec_hpt(p, f"{path}.chain[{i}]")
                for i, p in enumerate(_as_list(_get(obj, "chain", path), f"{path}.chain"))
            ),
        )
    if rtype == "obstruction":
        index = _get(obj, "index", path)
        return ObstructionReport(
            _as_int(_get(obj, "n", path), f"{path}.n"),
            _as_int(_get(obj, "ntilde", path), f"{path}.ntilde"),
            _dec_real(_get(obj, "r0", path), f"{path}.r0"),
            _dec_real(_get(obj, "r1", path), f"{path}.r1"),
            _dec_real(_get(obj, "u", path), f"{path}.u"),
            _as_str(_get(obj, "clause", path), f"{path}.clause"),
            None if index is None else _as_int(index, f"{path}.index"),
            _dec_opt(_get(obj, "s1", path), f"{path}.s1", _dec_word),
            _dec_opt(_get(obj, "s2", path), f"{path}.s2", _dec_word),
            _dec_opt(_get(obj, "tree1", path), f"{path}.tree1", _dec_tree),
            _dec_opt(_get(obj, "tree2", path), f"{path}.tree2", _dec_tree),
            _as_str(_get(obj, "reason", path), f"{path}.reason"),
        )
    if rtype == "brute":
        histogram = tuple(
            _dec_pair(h, f"{path}.histogram[{i}]", _as_str, _as_int)
            for i, h in enumerate(_as_list(_get(obj, "histogram", path), f"{path}.histogram"))
        )
        return BruteSummary(
            _as_int(_get(obj, "n", path), f"{path}.n"),
            _as_int(_get(obj, "ntilde", path), f"{path}.ntilde"),
            _dec_real(_get(obj, "u", path), f"{path}.u"),
            _as_int(_get(obj, "total", path), f"{path}.total"),
            histogram,
            _as_int(_get(obj, "survivors", path), f"{path}.survivors"),
            _as_bool(_get(obj, "vacuous", path), f"{path}.vacuous"),
            _as_bool(_get(obj, "s_uniform", path), f"{path}.s_uniform"),
            _as_int(_get(obj, "max_branches", path), f"{path}.max_branches"),
        )
    _fail(f"{path}.report_type", f"unknown report type {rtype!r}")


def decode(data, expect: Optional[str] = None):
    """Parse an artifact document back into its value.

    ``expect`` pins the kind; a mismatch is a decode error.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        document = json.loads(data)
    except json.JSONDecodeError as e:
        raise CodecError(f"$: invalid JSON at line {e.lineno} column {e.colno}") from None
    document = _as_obj(document, "$")
    kind = _as_str(_get(document, "kind", "$"), "$.kind")
    if kind not in KINDS:
        _fail("$.kind", f"unknown kind {kind!r}")
    if expect is not None and kind != expect:
        _fail("$.kind", f"expected a {expect!r} artifact, got {kind!r}")
    version = _as_int(_get(document, "version", "$"), "$.version")
    if version != VERSION:
        _fail("$.version", f"unsupported version {version}")
    payload = _get(document, "payload", "$")
    path = "$.payload"
    if kind == "reals":
        return tuple(
            _dec_real(x, f"{path}[{i}]") for i, x in enumerate(_as_list(payload, path))
        )
    if kind == "trees":
        return tuple(
            _dec_tree(t, f"{path}[{i}]") for i, t in enumerate(_as_list(payload, path))
        )
    if kind == "wrapper":
        return _dec_wrapper(payload, path)
    if kind == "silver-tree":
        return _dec_silver(payload, path)
    if kind == "ground-universe":
        reals = frozenset(
            _dec_real(x, f"{path}[{i}]") for i, x in enumerate(_as_list(payload, path))
        )
        try:
            return GroundUniverse(reals)
        except ValueError as e:
            _fail(path, str(e))
    if kind == "rmap":
        return _dec_rmap(payload, path)
    return _dec_report(payload, path)


def save(path: str, value, kind: Optional[str] = None) -> None:
    with open(path, "wb") as fh:
        fh.write(encode(value, kind))


def load(path: str, expect: Optional[str] = None):
    with open(path, "rb") as fh:
        return decode(fh.read(), expect)

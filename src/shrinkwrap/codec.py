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
from itertools import chain
from operator import attrgetter, itemgetter
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple, Optional

from shrinkwrap.core import BIT_DIGITS, BranchTree, Node, UPReal, up_sorted
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
    return tuple(_as_int(v, f"{path}[{i}]") for i, v in enumerate(_as_list(obj, path)))


def _as_bool(obj: Any, path: str) -> bool:
    if not isinstance(obj, bool):
        _fail(path, f"expected a boolean, got {obj!r}")
    return obj


def _as_str(obj: Any, path: str) -> str:
    if not isinstance(obj, str):
        _fail(path, f"expected a string, got {type(obj).__name__}")
    return obj


# ----------------------------------------------------------------- writing
#
# The bytes are exactly json.dumps(document, indent=2) plus a newline.  Each
# record shape is a field table, and its keys make one template per indent
# level; each distinct tree of a wrapper is rendered once, and each list of
# ints is one join.  The generic writer _dumps renders scalars and hands
# whatever else is not a record to json.dumps, and one join of the parts
# makes the whole text.

_DOCUMENT = ("kind", "version", "payload")

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


def _flat_column(rows: list, level: int) -> list[str]:
    """_flat of each of many lists.  When the lists are tuples and all their
    items are ints, or all booleans, each distinct tuple is written once:
    equal tuples then have equal texts, while (1,) and (True,), which are
    equal, are written apart."""
    types = set(map(type, chain.from_iterable(rows)))
    if set(map(type, rows)) <= {tuple} and (types <= {int} or types <= {bool}):
        texts = dict.fromkeys(rows)
        for row in texts:
            texts[row] = _flat(row, level)
        return list(map(texts.__getitem__, rows))
    return [_flat(row, level) for row in rows]


def _enc_word(s: Node) -> str:
    return "".join(map(str, s))


def _parts(template: str, values: tuple) -> list[str]:
    """``template % values`` as parts of one string; a value that is a list
    of parts is spliced in, so a bulk list is copied only by the final join."""
    segments = template.split("%s")
    parts = [segments[0]]
    for value, segment in zip(values, segments[1:]):
        parts += value if isinstance(value, list) else (value,)
        parts.append(segment)
    return parts


def _dumps(value, level: int = 0) -> str:
    """Exactly ``json.dumps(value, indent=2)`` for dicts with string keys,
    lists, strings, ints, booleans and None, indented as if the value sat
    at ``level`` in a larger document.  Scalars, the record fields, are
    written here.  A container is checked, as json.dumps would write a tuple
    or a float; its text holds no raw newline inside a string, so shifting
    each newline by ``level`` indents it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return _LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    _check(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _check(value) -> None:
    """Raise json.dumps's TypeError at the first key that is not a string,
    or leaf that is not a str, int, bool or None."""
    if isinstance(value, list):
        for item in value:
            _check(item)
    elif isinstance(value, dict):
        for k, item in value.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            _check(item)
    elif not isinstance(value, (str, int, type(None))):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ----------------------------------------------------------------- reading

# "0" and "1" become the bytes 0 and 1, and every other byte becomes 2.
_UNBITS = bytes(c - 48 if c in b"01" else 2 for c in range(256))


def _bits(s: str) -> Node:
    """The word of a string of "0"s and "1"s, in one translate."""
    return tuple(s.encode("ascii").translate(_UNBITS))


def _dec_word(obj: Any, path: str) -> Node:
    s = _as_str(obj, path)
    if not set(s) <= {"0", "1"}:
        _fail(path, f"expected a bit string, got {s!r}")
    return _bits(s)


def _made(make: Callable, path: str, *values):
    """``make(*values)``, with a ValueError reported at ``path``."""
    try:
        return make(*values)
    except ValueError as e:
        _fail(path, str(e))


# ------------------------------------------------------------------ fields
#
# A field writes one value shape at an indent level and reads it back from
# parsed JSON at a path.  A record is a field too: its table of (key, field)
# entries, in document order, is the only place its keys are spelled.


class _Field(NamedTuple):
    write: Callable[[Any, int], str]
    read: Callable[[Any, str], Any]
    many: Optional[Callable[[list, int], list[str]]] = None  # writes many values at once


class _Record:
    """An object whose keys and fields come from one table.  It is written
    from the value's attributes, named like the keys unless ``attrs``
    renames them, through one template per indent level, and read back as
    ``make(*fields)`` in document order."""

    def __init__(self, make: Callable, table: tuple, **attrs: str):
        self.make = make
        self.keys = tuple(key for key, _ in table)
        self.writers = tuple(
            (attrgetter(attrs.get(key, key)), field.write, _many(field)) for key, field in table
        )
        self.readers = tuple((key, field.read) for key, field in table)

    def texts(self, value, level: int) -> tuple:
        """The text of each field, one level in."""
        return tuple([write(get(value), level + 1) for get, write, _ in self.writers])

    def write(self, value, level: int) -> str:
        return _template(self.keys, level) % self.texts(value, level)

    def write_many(self, values, level: int) -> list[str]:
        """Many values, written a field at a time: a list of records pays
        for its template and its field dispatch once, not once a record."""
        values = list(values)
        columns = [many(list(map(get, values)), level + 1) for get, _, many in self.writers]
        return list(map(_template(self.keys, level).__mod__, zip(*columns)))

    def read(self, obj: Any, path: str):
        obj = _as_obj(obj, path)
        try:
            values = [read(obj[key], f"{path}.{key}") for key, read in self.readers]
        except KeyError:
            for key in self.keys:
                _get(obj, key, path)  # fails at the first missing key
            raise
        return _made(self.make, path, *values)


def _many(field: _Field) -> Callable[[list, int], list[str]]:
    """A writer of many values of a field, one text each."""
    if isinstance(field, _Record):
        return field.write_many
    if field.many:
        return field.many
    write = field.write
    return lambda values, level: [write(v, level) for v in values]


def _list(field: _Field) -> _Field:
    many, read = _many(field), field.read
    return _Field(
        lambda values, level: _items(many(values, level + 1), level),
        lambda obj, path: tuple(read(v, f"{path}[{i}]") for i, v in enumerate(_as_list(obj, path))),
    )


def _sorted_set(items: _Field, order: Callable[[Any], list] = sorted) -> _Field:
    """A set written as the list field ``items`` in ``order``."""
    write, read, _ = items
    return _Field(
        lambda values, level: write(order(values), level),
        lambda obj, path: frozenset(read(obj, path)),
    )


def _optional(field: _Field) -> _Field:
    write, read = field.write, field.read
    return _Field(
        lambda value, level: "null" if value is None else write(value, level),
        lambda obj, path: None if obj is None else read(obj, path),
    )


def _pair(first: _Field, second: _Field) -> _Field:
    """Two scalars, written by _flat."""

    def read(obj: Any, path: str) -> tuple:
        items = _as_list(obj, path)
        if len(items) != 2:
            _fail(path, f"expected 2 elements, got {len(items)}")
        return first.read(items[0], f"{path}[0]"), second.read(items[1], f"{path}[1]")

    return _Field(_flat, read)


def _nonempty(field: _Field, message: str) -> _Field:
    read_field = field.read

    def read(obj: Any, path: str):
        value = read_field(obj, path)
        if not value:
            _fail(path, message)
        return value

    return _Field(field.write, read)


_INT = _Field(_dumps, _as_int)
_BOOL = _Field(_dumps, _as_bool)
_STR = _Field(_dumps, _as_str)
_INTS = _Field(_flat, _as_ints)
_BOOLS = _Field(_flat, _list(_BOOL).read)
_WORD = _Field(lambda s, level: encode_basestring_ascii(_enc_word(s)), _dec_word)

_REAL = _Record(UPReal, (("prefix", _INTS), ("period", _nonempty(_INTS, "period must be nonempty"))))
_REAL_EACH = _list(_REAL)
_PREFIX, _PERIOD = map(itemgetter, _REAL.keys)


def _read_reals(obj: Any, path: str) -> tuple[UPReal, ...]:
    """A list of reals, read at the cost of its distinct entries when each
    entry is an object whose prefix and period are lists of exact ints and
    each real is valid: a battery repeats its points and branches.  Any
    other list is read entry by entry, which reports the first fault at
    its path."""
    items = _as_list(obj, path)
    try:
        words = [*map(_PREFIX, items), *map(_PERIOD, items)]
    except (KeyError, TypeError):  # an entry that is not an object, or lacks a key
        return _REAL_EACH.read(obj, path)
    if set(map(type, words)) <= {list} and set(map(type, chain.from_iterable(words))) <= {int}:
        count = len(items)
        keys = list(zip(map(tuple, words[:count]), map(tuple, words[count:])))
        made = dict.fromkeys(keys)
        try:
            for key in made:
                made[key] = UPReal(*key)
        except ValueError:
            return _REAL_EACH.read(obj, path)
        return tuple(map(made.__getitem__, keys))
    return _REAL_EACH.read(obj, path)


_REAL_LIST = _REAL_EACH._replace(read=_read_reals)
_REALS = _sorted_set(_REAL_LIST, up_sorted)
_TREE = _Record(BranchTree, (("branches", _nonempty(_REALS, "a tree needs at least one branch")),))
_NODES = _sorted_set(_list(_WORD), functools.partial(sorted, key=lambda t: (len(t), t)))
_HPT = _Record(HorizonPerfectTree, (("horizon", _INT), ("nodes", _NODES)))

# --------------------------------------------------------------- wrappers
#
# A wrapper's F entries hold almost all of its bytes.  Each distinct real is
# rendered once per indent level, and each tree and isolated set is one join
# of those texts.  A family in closed form is one run of entries that
# _closed_run renders from its word and its two trees' texts; any other
# family is written entry by entry.  A document in exactly that layout is
# read back a run at a time (_dec_canonical); any other document is parsed
# whole and read entry by entry.

_SCOPE = _Record(WrapperScope, (("N", _INT), ("Ntilde", _INT)), N="n_reals", Ntilde="n_pairs")
_ENTRY = _Record(
    lambda *fields: fields, (("pair_index", _INT), ("n", _INT), ("s", _WORD), ("tree", _TREE))
)
_ISOLATED = _list(_REALS)


@functools.cache
def _entry_texts(level: int) -> tuple[str, ...]:
    """The fixed text of an entry of a list at this level: before its pair
    index, before n, before its word, after its word, and after its tree.
    The list's entries are joined by ","."""
    seg = _template(_ENTRY.keys, level + 1).split("%s")
    return "\n" + "  " * (level + 1) + seg[0], seg[1], seg[2] + '"', '"' + seg[3], seg[4]


_FLIP = str.maketrans("01", "10")


def _closed_run(head: str, word: str, default: str, override: str) -> str:
    """The entries of a family in closed form, in the writer's (length,
    word) order, each ``head``, a prefix and the text after the prefix: the
    siblings of the word's letters, shortest first, hold ``default``, and
    the word, before or after its last sibling, holds ``override``."""
    flipped = word.translate(_FLIP)
    prefixes = [word[:j] + flipped[j] for j in range(len(word))]
    last = "" if word[-1] == "1" else f",{head}{prefixes.pop()}{default}"
    return head + (default + "," + head).join([*prefixes, word]) + override + last


def _entries_parts(families: dict, level: int, write_set: Callable) -> list[str]:
    # A family in closed form is one part, and any other entry two: its
    # head and word, then its tree, one shared part per distinct tree.
    open_, n_key, word_start, word_end, close = _entry_texts(level)
    tree_template = _template(_TREE.keys, level + 2)
    tails: dict[frozenset[UPReal], str] = {}

    def tail(tree: BranchTree) -> str:
        # Keyed by the branch set, a frozenset, which keeps its hash.
        if tree.branches not in tails:
            tails[tree.branches] = word_end + tree_template % write_set(tree.branches, level + 3) + close
        return tails[tree.branches]

    parts = ["["]
    for nt, n in sorted(families):
        family = families[(nt, n)]
        head = f"{open_}{_dumps(nt)}{n_key}{_dumps(n)}{word_start}"
        if family._shape is not None:
            bits, tree, default = family._shape
            parts += (_closed_run(head, bits.translate(BIT_DIGITS).decode(), tail(default), tail(tree)), ",")
            continue
        # TreeFamily stores its leaves in lexicographic order, so a stable
        # sort by length gives the (length, word) order, and its prefixes
        # are bytes 0 and 1, so one translate writes a word.
        for prefix, tree in sorted(family.leaves, key=lambda leaf: len(leaf[0])):
            parts += (head + prefix.translate(BIT_DIGITS).decode(), tail(tree), ",")
    parts[-1] = "\n" + "  " * level + "]"  # in place of the last ",", or of "[" when F is empty
    return parts if len(parts) > 1 else ["[]"]


def _dec_entries_checked(obj: Any, path: str) -> dict:
    # Every entry through _ENTRY's reader, so that the first failure in
    # document order is the one reported.
    tables: dict[tuple[int, int], dict[Node, BranchTree]] = {}
    for i, entry in enumerate(_as_list(obj, path)):
        nt, n, prefix, tree = _ENTRY.read(entry, f"{path}[{i}]")
        table = tables.setdefault((nt, n), {})
        if prefix in table:
            _fail(f"{path}[{i}].s", f"duplicate leaf {_enc_word(prefix)!r}")
        table[prefix] = tree
    return {fam: list(table.items()) for fam, table in tables.items()}


def _wrapper(scope: WrapperScope, tables: dict, isolated: tuple) -> ShrinkWrapper:
    families = {(nt, n): TreeFamily(nt, leaves) for (nt, n), leaves in tables.items()}
    wrapper = ShrinkWrapper(scope, families, isolated)
    wrapper.check_total()
    return wrapper


# A wrapper is written by _wrapper_parts, which renders F and I from one
# table of real texts, and never by _Record.write, so F has no writer.  F's
# reader is looked up when it runs, so that a test can count its calls.
_F = _Field(None, lambda obj, path: _dec_entries_checked(obj, path))
_WRAPPER = _Record(_wrapper, (("scope", _SCOPE), ("F", _F), ("I", _ISOLATED)), F="families", I="isolated")
# A wrapper document's text before its scope, before F, before I and after I.
_WRAPPER_DOCUMENT = (
    _template(_DOCUMENT, 0) % ('"wrapper"', VERSION, _template(_WRAPPER.keys, 1)) + "\n"
).split("%s")


def _wrapper_parts(w: ShrinkWrapper, level: int) -> list[str]:
    # Each distinct real is rendered once per indent level, and a set of
    # reals is one join of those texts in the reals' up_sorted order, which
    # orders every subset as the subset's own sort does.
    trees = [f._shape[1:] if f._shape else map(itemgetter(1), f.leaves) for f in w.families.values()]
    order = up_sorted(set().union(*w.isolated, *(t.branches for ts in trees for t in ts)))
    rank = {x: i for i, x in enumerate(order)}
    texts: dict[int, list[str]] = {}

    def write_set(values: frozenset[UPReal], level: int) -> str:
        if level not in texts:
            texts[level] = _REAL.write_many(order, level + 1)
        return _items(map(texts[level].__getitem__, sorted(map(rank.__getitem__, values))), level)

    isolated = _items([write_set(part, level + 2) for part in w.isolated], level + 1)
    entries = _entries_parts(w.families, level + 1, write_set)
    return _parts(_template(_WRAPPER.keys, level), (_SCOPE.write(w.scope, level + 1), entries, isolated))


def _dec_canonical(text: str) -> Optional[ShrinkWrapper]:
    """The wrapper of a document in the layout encode writes, or None for
    any other input, a faulty one included.

    The text must be a wrapper document's fixed text around its scope, F
    and I.  F is read one run of entries, one family, at a time, and each
    entry's head must be what the writer writes.  A run whose text is what
    _closed_run renders from its first entry's text, and the word and text
    of its two full-length entries, which that text puts at a known
    distance, is built by from_assignments; two texts of equal trees give
    the constant family.  Any other run is read entry by entry and goes to
    the checking constructor.  json.loads must read the scope, I and each
    distinct tree text as one value each, and parses each once.  So
    json.loads would parse the whole document to the values read here, and
    the general path would read them to an equal wrapper.  A failed closed
    form is charged its rendered length, and the reader gives up past the
    document's length, so that its cost stays linear.
    """
    opening, f_key, i_key, closing = _WRAPPER_DOCUMENT
    open_, n_key, word_start, word_end, close = _entry_texts(2)
    between, after = close + "," + open_, close + "\n    ]" + i_key
    try:
        start, end = text.find(f_key + "[" + open_), text.rfind(after)
        if not (text.startswith(opening) and text.endswith(closing) and len(opening) < start < end):
            return None
        scope = _SCOPE.read(json.loads(text[len(opening):start]), "$.payload.scope")
        isolated = _ISOLATED.read(json.loads(text[end + len(after):-len(closing)]), "$.payload.I")
        stop, budget = end + len(close), len(text)
        trees: dict[str, BranchTree] = {}

        def tail(at: int) -> str:  # the text from ``at`` to the end of its entry
            k = text.find(between, at, end)
            return text[at:(end if k < 0 else k) + len(close)]

        def tree(rest: str) -> BranchTree:  # read once per distinct text after a word
            if rest not in trees:
                if not rest.startswith(word_end):
                    raise ValueError("not the text after a word")
                trees[rest] = _TREE.read(json.loads(rest[len(word_end):-len(close)]), "$.payload.F")
            return trees[rest]

        built = {}
        pos = start + len(f_key) + 1
        while True:
            j = text.index(n_key, pos, stop)
            k = text.index(word_start, j, stop)
            nt, n = int(text[pos + len(open_):j]), int(text[j + len(n_key):k])
            head = f"{open_}{nt}{n_key}{n}{word_start}"
            h = len(head)
            if not text.startswith(head, pos) or (nt, n) in built:
                return None
            family = None
            if nt > 0 and text.startswith(word_end, pos + h + 1):
                default = tail(pos + h + 1)
                # The first full-length entry follows nt - 1 entries of the
                # default; it holds the default too when the word ends in 1.
                at = pos + (nt - 1) * (h + len(default) + 1) + nt * (nt - 1) // 2
                if text.startswith(default, at + h + nt):
                    at += h + nt + len(default) + 1
                if at + h + nt <= end:
                    word, override = text[at + h:at + h + nt], tail(at + h + nt)
                    run = _closed_run(head, word, default, override)
                    if text.startswith(run, pos):
                        bits = word.encode("ascii").translate(_UNBITS)
                        family = TreeFamily.from_assignments(nt, tree(default), {bits: tree(override)})
                        pos += len(run)
                    elif (budget := budget - len(run)) < 0:
                        return None
            if family is None:
                leaves = []
                while True:
                    k = text.index('"', pos + h, stop)  # the end of the word
                    rest = tail(k)
                    leaves.append((text[pos + h:k].encode("ascii").translate(_UNBITS), tree(rest)))
                    pos = k + len(rest)
                    if not text.startswith("," + head, pos):
                        break
                    pos += 1
                family = TreeFamily(nt, leaves)
            built[(nt, n)] = family
            if pos == stop:
                break
            if not text.startswith(",", pos):
                return None
            pos += 1
        wrapper = ShrinkWrapper(scope, built, isolated)
        wrapper.check_total()
        return wrapper
    except (ValueError, TypeError, RecursionError):  # the general path reports the fault
        return None


# ---------------------------------------------------------- other records


def _dec_fixed(obj: Any, path: str) -> dict[int, int]:
    fixed = {}
    for key, bit in _as_obj(obj, path).items():
        kpath = f"{path}[{key!r}]"
        digits = key[1:] if key.startswith("-") else key
        if not (digits.isascii() and digits.isdigit()):
            _fail(kpath, "level keys must be integers")
        if int(key) in fixed:
            _fail(kpath, f"level {int(key)} is fixed twice")
        fixed[int(key)] = _as_int(bit, kpath)
    return fixed


_FIXED = _Field(lambda fixed, level: _dumps({str(l): b for l, b in sorted(fixed)}, level), _dec_fixed)
_SILVER = _Record(SilverTree, (
    ("horizon", _INT), ("split_levels", _sorted_set(_list(_INT))), ("fixed", _FIXED),
))
_Leaf = NamedTuple("_Leaf", [("s", Node), ("tree", HorizonPerfectTree)])
_LEAF = _Record(_Leaf, (("s", _WORD), ("tree", _HPT)))
_LEAF_LIST = _list(_LEAF)


def _dec_leaves(obj: Any, path: str) -> dict[Node, HorizonPerfectTree]:
    trees = {}
    for i, leaf in enumerate(_as_list(obj, path)):
        s, tree = _LEAF.read(leaf, f"{path}[{i}]")
        if s in trees:
            _fail(f"{path}[{i}].s", f"duplicate word {_enc_word(s)!r}")
        trees[s] = tree
    return trees


_LEAVES = _Field(
    lambda trees, level: _LEAF_LIST.write(
        [_Leaf(s, trees[s]) for s in sorted(trees, key=lambda s: (len(s), s))], level
    ),
    _dec_leaves,
)
_RMAP = _Record(RMap, (("depth", _INT), ("trees", _LEAVES)))
_UNIVERSE = _Field(
    lambda u, level: _REALS.write(u.reals, level),
    lambda obj, path: _made(GroundUniverse, path, _REALS.read(obj, path)),
)

# ----------------------------------------------------------------- reports

_VIOLATION = _Record(Violation, (
    ("condition", _STR),
    ("pair_index", _INT),
    ("n", _optional(_INT)),
    ("s1", _optional(_WORD)),
    ("s2", _optional(_WORD)),
    ("reason", _STR),
), pair_index="ntilde")
# A report's rows repeat their values, so each of its list columns is
# written once per distinct list.
_ROW_INTS, _ROW_BOOLS = (field._replace(many=_flat_column) for field in (_INTS, _BOOLS))
_ROW = _Record(DominationRow, (
    ("x", _REAL),
    ("f_values", _ROW_INTS),
    ("g_values", _ROW_INTS),
    ("in_tree", _ROW_BOOLS),
    ("failure_set", _ROW_INTS),
    ("violating_pairs", _list(_pair(_INT, _INT))),
    ("pointwise_failures", _ROW_INTS),
))


def _write_rows(rows: list, level: int) -> list[str]:
    """_ROW's texts of many rows, each row object written once: a battery's
    repeated probes share one row."""
    distinct = {id(row): row for row in rows}
    texts = dict(zip(distinct, _ROW.write_many(distinct.values(), level)))
    return list(map(texts.__getitem__, map(id, rows)))


# Each report is written after its "report_type" key, which decode reads
# first to pick the table.
_REPORTS = {
    "wrapper": _Record(WrapperReport, (("passed", _BOOL), ("violations", _list(_VIOLATION)))),
    "domination": _Record(DominationReport, (
        ("passed", _BOOL),
        ("n_reals", _INT),
        ("pointwise_enforced", _BOOL),
        ("rows", _list(_Field(_ROW.write, _ROW.read, _write_rows))),
    )),
    "fusion": _Record(FusionReport, (
        ("passed", _BOOL), ("failures", _list(_STR)), ("chain", _list(_HPT)),
    )),
    "obstruction": _Record(ObstructionReport, (
        ("n", _INT),
        ("ntilde", _INT),
        ("r0", _REAL),
        ("r1", _REAL),
        ("u", _REAL),
        ("clause", _STR),
        ("index", _optional(_INT)),
        ("s1", _optional(_WORD)),
        ("s2", _optional(_WORD)),
        ("tree1", _optional(_TREE)),
        ("tree2", _optional(_TREE)),
        ("reason", _STR),
    )),
    "brute": _Record(BruteSummary, (
        ("n", _INT),
        ("ntilde", _INT),
        ("u", _REAL),
        ("total", _INT),
        ("histogram", _list(_pair(_STR, _INT))),
        ("survivors", _INT),
        ("vacuous", _BOOL),
        ("s_uniform", _BOOL),
        ("max_branches", _INT),
    )),
}
_REPORT_TYPES = {record.make: name for name, record in _REPORTS.items()}


def _write_report(report, level: int) -> str:
    name = _REPORT_TYPES.get(type(report))
    if name is None:
        raise CodecError(f"$: no report encoding for {type(report).__name__}")
    record = _REPORTS[name]
    template = _template(("report_type",) + record.keys, level)
    return template % (_dumps(name), *record.texts(report, level))


def _read_report(obj: Any, path: str):
    obj = _as_obj(obj, path)
    name = _as_str(_get(obj, "report_type", path), f"{path}.report_type")
    if name not in _REPORTS:
        _fail(f"{path}.report_type", f"unknown report type {name!r}")
    return _REPORTS[name].read(obj, path)


# ------------------------------------------------------------------- kinds

_KINDS = {
    "reals": _REAL_LIST,
    "trees": _list(_TREE),
    "wrapper": _Field(_wrapper_parts, _WRAPPER.read),
    "silver-tree": _SILVER,
    "ground-universe": _UNIVERSE,
    "rmap": _RMAP,
    "report": _Field(_write_report, _read_report),
}
KINDS = tuple(_KINDS)
_KIND_OF = {
    ShrinkWrapper: "wrapper", SilverTree: "silver-tree", GroundUniverse: "ground-universe", RMap: "rmap",
    **dict.fromkeys(_REPORT_TYPES, "report"),
}


def infer_kind(value) -> str:
    for cls, kind in _KIND_OF.items():
        if isinstance(value, cls):
            return kind
    if isinstance(value, (list, tuple)):
        if all(isinstance(x, UPReal) for x in value):
            return "reals"
        if value and all(isinstance(x, BranchTree) for x in value):
            return "trees"
    raise CodecError(f"$: cannot infer an artifact kind for {type(value).__name__}")


def encode(value, kind: Optional[str] = None) -> bytes:
    """Serialize a value as a UTF-8 JSON artifact document."""
    if kind is None:
        kind = infer_kind(value)
    if kind not in _KINDS:
        raise CodecError(f"$: unknown kind {kind!r}")
    if kind in ("reals", "trees") and isinstance(value, (set, frozenset)):
        # A set has no order of its own to write, so equal sets could differ.
        raise CodecError(f"$: a {kind!r} artifact is a sequence, not a {type(value).__name__}")
    payload = _KINDS[kind].write(value, 1)
    parts = _parts(_template(_DOCUMENT, 0) + "\n", (_dumps(kind), _dumps(VERSION), payload))
    return "".join(parts).encode("utf-8")


def decode(data, expect: Optional[str] = None):
    """Parse an artifact document back into its value.

    ``expect`` pins the kind; a mismatch is a decode error.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        if isinstance(data, str) and expect in (None, "wrapper"):
            if (wrapper := _dec_canonical(data)) is not None:
                return wrapper
        document = json.loads(data)
    except json.JSONDecodeError as e:
        raise CodecError(f"$: invalid JSON at line {e.lineno} column {e.colno}") from None
    except ValueError as e:  # bad UTF-8, or an integer longer than int() may parse
        raise CodecError(f"$: invalid JSON: {e}") from None
    except RecursionError:
        raise CodecError("$: invalid JSON: nested too deeply") from None
    document = _as_obj(document, "$")
    kind = _as_str(_get(document, "kind", "$"), "$.kind")
    if kind not in KINDS:
        _fail("$.kind", f"unknown kind {kind!r}")
    if expect is not None and kind != expect:
        _fail("$.kind", f"expected a {expect!r} artifact, got {kind!r}")
    version = _as_int(_get(document, "version", "$"), "$.version")
    if version != VERSION:
        _fail("$.version", f"unsupported version {version}")
    try:
        return _KINDS[kind].read(_get(document, "payload", "$"), "$.payload")
    except RecursionError:
        # The repr of a deeply nested value in a message.
        raise CodecError("$.payload: nested too deeply") from None


def save(path: str, value, kind: Optional[str] = None) -> None:
    data = encode(value, kind)  # before the file is opened, so a failure leaves it be
    with open(path, "wb") as fh:
        fh.write(data)


def load(path: str, expect: Optional[str] = None):
    with open(path, "rb") as fh:
        return decode(fh.read(), expect)

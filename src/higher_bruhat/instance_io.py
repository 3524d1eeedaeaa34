"""Instance files: a small JSON schema for posets and dissection instances.

Schema version 1.  A document either spells out the pieces explicitly:

    {
      "schema": 1,
      "P": {"labels": [...], "covers": [["a","b"], ...],
            "bottom": "a", "top": "z"},
      "Q": {...},                 # optional
      "green": ["a", ...],        # optional
      "maps": {"f": {"a": "qa", ...}, "i": {...}, "j": {...}}   # optional
    }

or names a Bruhat order by parameters, in a bruhat block that stands
alone (the command line's --bruhat N K ORDER is the same block inline):

    {"schema": 1, "bruhat": {"n": 4, "k": 1, "order": "single_step"}}

schema is the integer 1.  A bruhat block takes the keys n, k and order
(default single_step) and no other.  Labels must be unique; covers,
green and maps refer to labels, and parse_instance_doc resolves them all
into indices, with one label-to-index dict per poset.  A Bruhat instance
exports in the explicit form, written straight from its enumeration
(bruhat.dissection_doc), an explicit one from its indices.  Exported
documents are byte-deterministic for a fixed input and library version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bruhat import OrderKind, dissection_doc, enumerate_bruhat
from .errors import ParameterError
from .posets import FiniteBoundedPoset
from .subsets import GroundParams
from .suspension_check import DissectionInstance

__all__ = [
    "SCHEMA_VERSION",
    "LoadedInstance",
    "parse_bruhat_block",
    "parse_instance_doc",
    "load_instance",
    "poset_to_doc",
    "poset_from_doc",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LoadedInstance:
    """Bruhat parameters, or P, Q, P's green indices and the image tables f, i, j."""

    bruhat: tuple[GroundParams, OrderKind] | None = None
    p: FiniteBoundedPoset | None = None
    q: FiniteBoundedPoset | None = None
    green: frozenset[int] | None = None
    maps: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None = None

    def resolve_dissection(self) -> DissectionInstance:
        """An explicit instance's dissection, or ParameterError if it lacks a piece.

        A Bruhat instance is not resolved here: check-lemma decides it from
        member columns, and to_doc writes its document from the order.
        """
        _require_complete(self.p, self.q, self.green, self.maps is not None)
        return DissectionInstance(self.p, self.q, self.green, *self.maps)

    def to_doc(self, max_subsets: int | None = None) -> dict:
        """The explicit document of this instance, as export writes it.

        A Bruhat instance's document is written from its enumeration by
        dissection_doc; in the base case n = k+1 there is no level below,
        and it holds P and green alone.  An explicit instance's document is
        written from its indices, so a table key outside its source is not
        written back.  Maps are read only with a complete instance, so
        check-lemma reads every export that has them.
        """
        if self.bruhat is not None:
            params, kind = self.bruhat
            order = enumerate_bruhat(params, max_subsets=max_subsets)
            return {"schema": SCHEMA_VERSION, **dissection_doc(order, kind)}
        p, q = self.p, self.q
        doc = {"schema": SCHEMA_VERSION, "P": poset_to_doc(p)}
        if q is not None:
            doc["Q"] = poset_to_doc(q)
        if self.green is not None:
            doc["green"] = [p.labels[x] for x in sorted(self.green)]
        if self.maps is not None:
            doc["maps"] = {
                name: dict(zip(source.labels, map(target.labels.__getitem__, images)))
                for name, source, target, images in zip("fij", (p, q, q), (q, p, p), self.maps)
            }
        return doc


def _require_complete(p, q, green, has_maps: bool) -> None:
    """Refuse a dissection that lacks P and Q, green or the maps f, i and j."""
    if p is None or q is None:
        raise ParameterError("instance needs both P and Q poset blocks")
    if green is None:
        raise ParameterError("instance needs a green list")
    if not has_maps:
        raise ParameterError("instance needs label maps f, i and j")


def _resolve_table(
    name: str, table: dict, source: tuple[str, ...], target_pos: dict[str, int]
) -> tuple[int, ...]:
    """The image indices of a label table, in source order.

    A table that misses a label of its source, or sends one to a label its
    target does not have, raises ParameterError.
    """
    images = []
    for lbl in source:
        if lbl not in table:
            raise ParameterError(f"map {name} is not total: missing {lbl!r}")
        img = table[lbl]
        if not isinstance(img, str) or img not in target_pos:
            raise ParameterError(f"map {name} sends {lbl!r} to unknown {img!r}")
        images.append(target_pos[img])
    return tuple(images)


def poset_from_doc(doc) -> tuple[FiniteBoundedPoset, dict[str, int]]:
    """The poset of a poset block and the index of each of its labels."""
    if not isinstance(doc, dict):
        raise ParameterError("poset block must be an object")
    try:
        labels = doc["labels"]
        covers = doc["covers"]
        bottom = doc["bottom"]
        top = doc["top"]
    except KeyError as missing:
        raise ParameterError(f"poset block lacks key {missing}")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParameterError("labels must be a list of strings")
    pos = {lbl: i for i, lbl in enumerate(labels)}
    if len(pos) != len(labels):
        raise ParameterError("labels must be unique")
    if not isinstance(covers, list):
        raise ParameterError("covers must be a list of label pairs")
    pairs = []
    for pair in covers:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParameterError(f"malformed cover pair {pair!r}")
        if not all(isinstance(x, str) and x in pos for x in pair):
            raise ParameterError(f"cover pair {pair!r} references unknown labels")
        pairs.append((pos[pair[0]], pos[pair[1]]))
    if not all(isinstance(x, str) and x in pos for x in (bottom, top)):
        raise ParameterError("bottom/top must be existing labels")
    return FiniteBoundedPoset(tuple(labels), pairs, pos[bottom], pos[top]), pos


def poset_to_doc(p: FiniteBoundedPoset) -> dict:
    return {
        "labels": list(p.labels),
        "covers": [[p.labels[a], p.labels[b]] for a, b in p.covers()],
        "bottom": p.labels[p.bottom],
        "top": p.labels[p.top],
    }


def parse_bruhat_block(block) -> tuple[GroundParams, OrderKind]:
    """The parameters and order kind that a bruhat block names."""
    if not isinstance(block, dict):
        raise ParameterError("bruhat block must be an object")
    unknown = sorted(set(block) - {"n", "k", "order"})
    if unknown:
        raise ParameterError(f"bruhat block has unknown key {unknown[0]!r}; use n, k and order")
    try:
        n, k = block["n"], block["k"]
    except KeyError as missing:
        raise ParameterError(f"bruhat block lacks key {missing}")
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (n, k)):
        raise ParameterError("bruhat n and k must be integers")
    kind_name = block.get("order", "single_step")
    try:
        kind = OrderKind(kind_name)
    except ValueError:
        raise ParameterError(f"unknown order kind {kind_name!r}; use single_step or inclusion")
    return GroundParams(n, k), kind


def parse_instance_doc(doc) -> LoadedInstance:
    """The instance a document describes, its labels resolved into indices.

    Maps call for a complete instance, checked before the green labels and
    the tables f, i and j are resolved; ParameterError refuses a document.
    """
    if not isinstance(doc, dict):
        raise ParameterError("instance document must be a JSON object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ParameterError(f"unsupported schema {schema!r}, expected {SCHEMA_VERSION}")
    if "bruhat" in doc:
        extra = [name for name in ("P", "Q", "green", "maps") if name in doc]
        if extra:
            raise ParameterError(
                f"a bruhat block stands alone, but the document also has {', '.join(extra)}"
            )
        return LoadedInstance(bruhat=parse_bruhat_block(doc["bruhat"]))
    if "P" not in doc:
        raise ParameterError("instance document needs a P block or a bruhat block")
    p, p_pos = poset_from_doc(doc["P"])
    q, q_pos = poset_from_doc(doc["Q"]) if "Q" in doc else (None, None)
    green = doc.get("green")
    if green is not None and (
        not isinstance(green, list) or not all(isinstance(x, str) for x in green)
    ):
        raise ParameterError("green must be a list of labels")
    maps = doc.get("maps")
    if maps is not None:
        if not isinstance(maps, dict) or not all(isinstance(t, dict) for t in maps.values()):
            raise ParameterError("maps must be an object of label tables")
        _require_complete(p, q, green, bool(maps) and set(maps) == {"f", "i", "j"})
    if green is not None:
        try:
            green = frozenset(map(p_pos.__getitem__, green))
        except KeyError as exc:
            raise ParameterError(f"green label {exc.args[0]!r} is not an element")
    if maps is not None:
        maps = (
            _resolve_table("f", maps["f"], p.labels, q_pos),
            _resolve_table("i", maps["i"], q.labels, p_pos),
            _resolve_table("j", maps["j"], q.labels, p_pos),
        )
    return LoadedInstance(p=p, q=q, green=green, maps=maps)


def load_instance(path: str) -> LoadedInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read instance file: {exc}")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"instance file is not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"instance file is not valid JSON: {exc}")
    return parse_instance_doc(doc)

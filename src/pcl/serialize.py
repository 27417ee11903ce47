"""JSON formats for classes, samples, biclique graphs, and the CLI's outputs.

Class files look like ``{"domain_size": n, "concepts": ["01*", ...]}`` with an
optional ``names`` list mapping indices to external point names.  Samples are
``[[x, y], ...]``.  Points, labels and vertices must be JSON integers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .core import LabeledSample, PartialConcept, PartialConceptClass
from .disambiguation import BicliqueInstance, Disambiguation
from .learners import CompressionOutput


class FormatError(ValueError):
    """Input JSON did not match the expected schema; the message names the field."""


def _require(obj: dict, field: str, kind, where: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if field not in obj:
        raise FormatError(f"{where}: missing field {field!r}")
    value = obj[field]
    # JSON true/false load as bool, which Python counts as an int
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(
            f"{where}: field {field!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(entry, where: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple; ``where`` names the entry otherwise."""
    if not isinstance(entry, list) or not all(map(_is_int, entry)):
        raise FormatError(f"{where} {json.dumps(entry)} must be a list of integers")
    return tuple(entry)


def _int_pair(entry, where: str) -> tuple[int, ...]:
    """A JSON pair of integers as a tuple; ``where`` names the entry otherwise."""
    if not isinstance(entry, list) or len(entry) != 2 or not all(map(_is_int, entry)):
        raise FormatError(f"{where} {json.dumps(entry)} must be a pair of integers")
    return tuple(entry)


def class_to_dict(cls: PartialConceptClass) -> dict:
    return {
        "domain_size": cls.domain_size,
        "concepts": [str(h) for h in cls.concepts],
    }


def class_from_dict(obj: dict) -> tuple[PartialConceptClass, Optional[list[str]]]:
    n = _require(obj, "domain_size", int, "class")
    rows = _require(obj, "concepts", list, "class")
    names = obj.get("names")
    if names is not None:
        if not isinstance(names, list) or len(names) != n:
            raise FormatError("class: field 'names' must list one name per point")
    for row in rows:
        if not isinstance(row, str):
            raise FormatError(f"class: field 'concepts' must hold strings, got {row!r}")
    try:
        cls = PartialConceptClass(
            n, tuple(PartialConcept.parse(r) for r in rows)
        )
    except ValueError as exc:
        raise FormatError(f"class: {exc}") from None
    return cls, names


def sample_from_list(obj) -> LabeledSample:
    if not isinstance(obj, list):
        raise FormatError("sample: expected a list of [x, y] pairs")
    pairs = tuple(_int_pair(entry, f"sample: entry {i}") for i, entry in enumerate(obj))
    try:
        return LabeledSample(pairs)
    except ValueError as exc:
        raise FormatError(f"sample: {exc}") from None


def biclique_to_dict(inst: BicliqueInstance) -> dict:
    return {
        "vertices": inst.n_vertices,
        "edges": [list(e) for e in inst.edges],
        "partition": [[list(left), list(right)] for left, right in inst.partition],
    }


def biclique_from_dict(obj: dict) -> BicliqueInstance:
    n = _require(obj, "vertices", int, "graph")
    edges = _require(obj, "edges", list, "graph")
    partition = _require(obj, "partition", list, "graph")
    edge_pairs = tuple(_int_pair(e, f"graph: edge {i}") for i, e in enumerate(edges))
    pieces = []
    for i, piece in enumerate(partition):
        if not isinstance(piece, list) or len(piece) != 2:
            raise FormatError(f"graph: biclique {i} must be a [left, right] pair")
        pieces.append(tuple(_int_list(side, f"graph: biclique {i} side") for side in piece))
    try:
        return BicliqueInstance(n, edge_pairs, tuple(pieces))
    except ValueError as exc:
        raise FormatError(f"graph: {exc}") from None


def compression_to_dict(comp: CompressionOutput) -> dict:
    bits_int = int("".join(str(b) for b in comp.bits), 2) if comp.bits else 0
    return {
        "subsample": [[x, y] for x, y in comp.subsample],
        "bits_hex": format(bits_int, "x"),
        "n_bits": len(comp.bits),
    }


def hypothesis_to_dict(hyp: PartialConcept) -> dict:
    return {"labels": str(hyp)}


def disambiguation_to_dict(res: Disambiguation) -> dict:
    out = {
        "algorithm": res.algorithm,
        "totals": [str(h) for h in res.totals.concepts],
        "info": json_value(res.info),
    }
    if res.extension_of is not None:
        out["extensions"] = {str(h): str(t) for h, t in res.extension_of.items()}
    if res.update_positions is not None:
        out["updates"] = {
            str(h): list(pos) for h, pos in res.update_positions.items()
        }
    return out


def json_value(v):
    """``v`` as plain JSON: Fractions as strings, and containers rebuilt with
    their items converted."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return {k: json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [json_value(x) for x in v]
    return v


def load_json(path: Union[str, Path]):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None


def dump_json(obj, path: Union[str, Path, None]) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text

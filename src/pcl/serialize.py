"""JSON formats for classes, samples, distributions, graphs, and compressions.

Class files look like ``{"domain_size": n, "concepts": ["01*", ...]}`` with an
optional ``names`` list mapping indices to external point names.  Samples are
``[[x, y], ...]``; distributions ``{"atoms": [[x, y, "p/q"], ...]}``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import (
    FiniteDistribution,
    LabeledSample,
    PartialConcept,
    PartialConceptClass,
    labeled_sample,
)
from .disambiguation import BicliqueInstance, Disambiguation
from .learners import CompressionOutput, Hypothesis


class FormatError(ValueError):
    """Input JSON did not match the expected schema; the message names the field."""


def _require(obj: dict, field: str, kind, where: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if field not in obj:
        raise FormatError(f"{where}: missing field {field!r}")
    value = obj[field]
    # JSON true/false load as bool, which Python counts as an int
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise FormatError(
            f"{where}: field {field!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def class_to_dict(cls: PartialConceptClass, names: Optional[list[str]] = None) -> dict:
    out = {
        "domain_size": cls.domain_size,
        "concepts": [str(h) for h in cls.concepts],
    }
    if names is not None:
        out["names"] = list(names)
    return out


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
    try:
        return labeled_sample(obj)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"sample: {exc}") from None


def distribution_to_dict(dist: FiniteDistribution) -> dict:
    return {"atoms": [[x, y, str(w)] for (x, y), w in dist.atoms]}


def distribution_from_dict(obj: dict) -> FiniteDistribution:
    atoms = _require(obj, "atoms", list, "distribution")
    parsed = []
    for entry in atoms:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FormatError("distribution: atoms must be [x, y, weight] triples")
        x, y, w = entry
        try:
            parsed.append(((int(x), int(y)), Fraction(str(w))))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"distribution: bad weight {w!r} ({exc})") from None
    try:
        return FiniteDistribution(tuple(parsed))
    except ValueError as exc:
        raise FormatError(f"distribution: {exc}") from None


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
    try:
        inst = BicliqueInstance(
            n,
            tuple(tuple(map(int, e)) for e in edges),
            tuple((tuple(map(int, l)), tuple(map(int, r))) for l, r in partition),
        )
        inst.validate()
    except (TypeError, ValueError) as exc:
        raise FormatError(f"graph: {exc}") from None
    return inst


def compression_to_dict(comp: CompressionOutput) -> dict:
    bits_int = int("".join(str(b) for b in comp.bits), 2) if comp.bits else 0
    return {
        "subsample": [[x, y] for x, y in comp.subsample],
        "bits_hex": format(bits_int, "x"),
        "n_bits": len(comp.bits),
    }


def compression_from_dict(obj: dict) -> CompressionOutput:
    sub = _require(obj, "subsample", list, "compression")
    hexstr = _require(obj, "bits_hex", str, "compression")
    n_bits = _require(obj, "n_bits", int, "compression")
    try:
        pairs = tuple((int(x), int(y)) for x, y in sub)
        value = int(hexstr, 16) if n_bits else 0
        bits = tuple(int(ch) for ch in format(value, "b").zfill(n_bits)) if n_bits else ()
        if n_bits and len(bits) != n_bits:
            raise ValueError("bit payload wider than declared")
        return CompressionOutput(pairs, bits)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"compression: {exc}") from None


def hypothesis_to_dict(hyp: Hypothesis) -> dict:
    return {"labels": "".join(str(v) for v in hyp.labels)}


def disambiguation_to_dict(res: Disambiguation) -> dict:
    out = {
        "algorithm": res.algorithm,
        "totals": [str(h) for h in res.totals.concepts],
        "info": {k: _plain(v) for k, v in res.info.items()},
    }
    if res.extension_of is not None:
        out["extensions"] = {str(h): str(t) for h, t in res.extension_of.items()}
    if res.update_positions is not None:
        out["updates"] = {
            str(h): list(pos) for h, pos in res.update_positions.items()
        }
    return out


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


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

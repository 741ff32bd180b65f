"""Tower description files (extension .arl.json).

A file declares a prime, named groups (invariant factors plus optional
operator matrices), named homs, named modules in the ``Zl^r + Z/l^a`` text
form, and towers assembled from those pieces with an explicit tail rule.
Everything is validated on load, down to the JSON type of every field, since
the library trusts the values it derives from what it loads: a float, string
or null where an integer belongs is an error, never a truncation.
Diagnostics carry the offending name and, for matrices, the row and column.

Example::

    {
      "format": 1,
      "l": 2,
      "symbols": ["h", "d1", "d2"],
      "groups": {"A0": {"factors": [2]}, "A1": {"factors": [4]}},
      "homs": {"u1": {"source": "A1", "target": "A0", "matrix": [[1]]}},
      "modules": {"M": "Zl^1"},
      "towers": {
        "T": {"levels": ["A0", "A1"], "maps": ["u1"],
               "tail": {"kind": "eventually-l-adic", "start": 0, "module": "M"}}
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import NegativeResult, TowerFileError, UndeclaredSymbol
from .groups import PRIME_LIMIT, FinAbGroup, GroupHom, is_prime
from .hypernat import SYMBOL, HyperNat
from .intmat import IntMatrix
from .towers import TailRule, Tower
from .zlmod import ZlModule


@dataclass
class TowerFile:
    l: int
    groups: dict[str, FinAbGroup] = field(default_factory=dict)
    homs: dict[str, GroupHom] = field(default_factory=dict)
    modules: dict[str, ZlModule] = field(default_factory=dict)
    towers: dict[str, Tower] = field(default_factory=dict)
    symbols: tuple[str, ...] = ("h", "d1", "d2")

    def tower(self, name: str) -> Tower:
        if name not in self.towers:
            raise TowerFileError(
                f"no tower named {name!r}; available: {sorted(self.towers)}")
        return self.towers[name]

    def index(self, text: str) -> HyperNat:
        """The index term text, over the symbols this file declares."""
        try:
            h = HyperNat.parse(text)
        except (ValueError, NegativeResult) as exc:
            raise TowerFileError(f"index term: {exc}") from exc
        for name in h.symbols():
            if name not in self.symbols:
                raise UndeclaredSymbol(f"index term {text!r}: symbol {name!r} is not declared; "
                                       f"declared: {list(self.symbols)}")
        return h


def _require(cond: bool, message: str):
    if not cond:
        raise TowerFileError(message)


def _integer(x, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise TowerFileError(f"{what}: expected integer, got {x!r}")
    return x


def _section(data: dict, key: str) -> dict:
    section = data.get(key)
    if section is None:
        return {}
    _require(isinstance(section, dict), f"{key!r} must be an object")
    return section


def _name(x, table: dict, what: str):
    _require(isinstance(x, str) and x in table, f"{what} {x!r}")
    return table[x]


def _parse_matrix(data, what: str, rows: int, cols: int) -> IntMatrix:
    _require(isinstance(data, list), f"{what}: matrix must be a list of rows")
    _require(len(data) == rows, f"{what}: expected {rows} rows, got {len(data)}")
    out = []
    for i, row in enumerate(data):
        _require(isinstance(row, list), f"{what}: row {i} is not a list")
        _require(len(row) == cols, f"{what}: row {i} has {len(row)} entries, expected {cols}")
        clean = []
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise TowerFileError(f"{what}: matrix row {i} col {j}: expected integer, got {x!r}")
            clean.append(x)
        out.append(clean)
    return IntMatrix.from_rows(out, cols=cols)


def load_tower_data(data: dict) -> TowerFile:
    _require(isinstance(data, dict), "top level must be an object")
    _require(type(data.get("format")) is int and data["format"] == 1,
             "unsupported or missing format (expected 1)")
    l = data.get("l")
    _require(isinstance(l, int) and l >= 2, "missing or invalid prime 'l'")
    _require(l < PRIME_LIMIT, f"prime 'l' = {l} is too large to certify (limit {PRIME_LIMIT})")
    _require(is_prime(l), f"prime 'l' = {l} is not a prime")

    tf = TowerFile(l=l)
    if "symbols" in data:
        _require(isinstance(data["symbols"], list), "'symbols' must be a list")
        for s in data["symbols"]:
            _require(isinstance(s, str) and SYMBOL.fullmatch(s), f"symbol {s!r}: not an identifier")
        tf.symbols = tuple(data["symbols"])

    for name, spec in _section(data, "modules").items():
        try:
            tf.modules[name] = ZlModule.parse(str(spec), l)
        except ValueError as exc:
            raise TowerFileError(f"module {name!r}: {exc}") from exc

    for name, spec in _section(data, "groups").items():
        _require(isinstance(spec, dict), f"group {name!r}: must be an object")
        factors = spec.get("factors")
        _require(isinstance(factors, list), f"group {name!r}: missing 'factors' list")
        factors = tuple(_integer(d, f"group {name!r}: factor {i}") for i, d in enumerate(factors))
        try:
            group = FinAbGroup(factors, prime_support=l)
        except ValueError as exc:
            raise TowerFileError(f"group {name!r}: {exc}") from exc
        ops = _section(spec, "operators")
        if ops:
            try:
                group = group.with_operators({
                    label: _parse_matrix(mat, f"group {name!r} operator {label!r}",
                                         group.rank, group.rank)
                    for label, mat in ops.items()
                })
            except ValueError as exc:
                raise TowerFileError(f"group {name!r}: {exc}") from exc
        tf.groups[name] = group

    for name, spec in _section(data, "homs").items():
        _require(isinstance(spec, dict), f"hom {name!r}: must be an object")
        for key in ("source", "target", "matrix"):
            _require(key in spec, f"hom {name!r}: missing {key!r}")
        src = _name(spec["source"], tf.groups, f"hom {name!r}: unknown source group")
        tgt = _name(spec["target"], tf.groups, f"hom {name!r}: unknown target group")
        mat = _parse_matrix(spec["matrix"], f"hom {name!r}", tgt.rank, src.rank)
        try:
            tf.homs[name] = GroupHom(src, tgt, mat)
        except ValueError as exc:
            raise TowerFileError(f"hom {name!r}: {exc}") from exc

    for name, spec in _section(data, "towers").items():
        _require(isinstance(spec, dict), f"tower {name!r}: must be an object")
        level_names = spec.get("levels")
        _require(isinstance(level_names, list) and level_names,
                 f"tower {name!r}: needs a nonempty 'levels' list")
        map_names = spec.get("maps", [])
        _require(isinstance(map_names, list) and len(map_names) == len(level_names) - 1,
                 f"tower {name!r}: needs a 'maps' list of exactly {len(level_names) - 1} maps")
        groups = [_name(g, tf.groups, f"tower {name!r}: unknown group") for g in level_names]
        maps = [_name(m, tf.homs, f"tower {name!r}: unknown hom") for m in map_names]
        tail_spec = spec.get("tail", {"kind": "truncated"})
        _require(isinstance(tail_spec, dict), f"tower {name!r}: 'tail' must be an object")
        kind = tail_spec.get("kind", "truncated")
        if kind == "truncated":
            tail = None
        elif kind == "zero":
            _require("start" in tail_spec, f"tower {name!r}: zero tail needs 'start'")
            tail = TailRule(_integer(tail_spec["start"], f"tower {name!r}: tail 'start'"))
        elif kind == "eventually-l-adic":
            _require("module" in tail_spec, f"tower {name!r}: tail needs 'module'")
            module = _name(tail_spec["module"], tf.modules, f"tower {name!r}: unknown module")
            start = _integer(tail_spec.get("start", 0), f"tower {name!r}: tail 'start'")
            tail = TailRule(start, module)
        else:
            raise TowerFileError(f"tower {name!r}: unknown tail kind {kind!r}")
        try:
            tf.towers[name] = Tower(l, tuple(groups), tuple(maps), tail=tail)
        except ValueError as exc:
            raise TowerFileError(f"tower {name!r}: {exc}") from exc

    return tf


def load_tower_file(path: str) -> TowerFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise TowerFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TowerFileError(f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}") from exc
    return load_tower_data(data)

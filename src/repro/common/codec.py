"""Field tables: one record type's codecs, driven by its field list.

A result type's ``to_dict``, ``to_row`` and ``from_dict`` read and
write the same ordered field names.  A :class:`FieldTable` holds that
list once, so every direction reads it.  A record encodes as a dict
keyed by those names or as a *row*, the list of its values in that
order.  ``decode`` accepts a dict only when its key set is exactly the
table's, and a row only when its length is: a stored record written by
another version of the type is a mismatch to report, never a partial
or padded object.  A row carries no names, so a reordered table of the
same length reads it wrongly; whoever stores rows tags them with the
tables' names (see :data:`repro.metrics.results.ROW_SCHEMA`).

:func:`canonical_json` is the one JSON rendering that content hashes
read (the result cache's keys), and :func:`json_scalar` renders one
scalar exactly as it would, for keys assembled from cached fragments.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Any, Sequence

__all__ = ["FieldTable", "canonical_json", "json_scalar", "schema_tag"]


def canonical_json(value: Any) -> str:
    """``value`` as JSON with sorted keys and compact separators.

    The text depends only on content, never on dict insertion order.
    ``value`` must be JSON-native with finite numbers: anything else
    raises ``TypeError`` (``ValueError`` for NaN or infinity).
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def json_scalar(value: Any) -> str:
    """:func:`canonical_json` of one scalar, without the encoder's set-up
    for the common exact types (the one-call encoder costs microseconds)."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return canonical_json(value)


def schema_tag(*tables: "FieldTable") -> str:
    """A short hash of ``tables``' owners and ordered field names.

    Rows written under one set of tables carry it; any renamed, added,
    dropped or reordered field changes it.
    """
    text = "\n".join(f"{t.owner}:{','.join(t.names + t.optional)}" for t in tables)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class FieldTable:
    """The ordered field names of one record type.

    Args:
        owner: the record type's name, for error messages.
        names: the fields every encoding carries, in constructor order
            (at least two, so that reading them yields a tuple).
        optional: fields after ``names`` that an encoding may omit.
    """

    __slots__ = ("owner", "names", "optional", "_keys", "_all_keys", "_get", "_read")

    def __init__(self, owner: str, names: Sequence[str], optional: Sequence[str] = ()) -> None:
        self.owner = owner
        self.names = tuple(names)
        self.optional = tuple(optional)
        self._keys = frozenset(self.names)
        self._all_keys = self._keys | frozenset(self.optional)
        self._get = itemgetter(*self.names)
        self._read = attrgetter(*self.names)

    @classmethod
    def of(cls, record: type, optional: Sequence[str] = ()) -> "FieldTable":
        """The table of a dataclass; ``optional`` names its trailing fields
        that an encoding omits when they are None."""
        names = [f.name for f in fields(record)]
        required = names[: len(names) - len(optional)]
        if tuple(names[len(required) :]) != tuple(optional):
            raise ValueError(f"{record.__name__}: optional fields must be its last fields")
        return cls(record.__name__, required, optional)

    def encode(self, record: Any) -> dict[str, Any]:
        """``{name: record.name}`` over :attr:`names`, in order."""
        return dict(zip(self.names, self._read(record)))

    def row(self, record: Any) -> list[Any]:
        """``[record.name ...]`` over :attr:`names`, in order."""
        return list(self._read(record))

    def decode(self, data: dict[str, Any] | list[Any]) -> Sequence[Any]:
        """``data``'s values in constructor order.

        A dict may omit an optional field (None in its place); a row
        holds exactly :attr:`names`, and the constructor defaults the
        optional fields after them.

        Raises:
            ValueError: ``data``'s keys are not exactly the table's, or
                the row's length is not.
        """
        if type(data) is list:
            if len(data) == len(self.names):
                return data
            raise ValueError(
                f"{self.owner} row has {len(data)} fields, expected {len(self.names)}"
            )
        keys = data.keys()
        if keys == self._keys:
            return self._get(data)
        if self.optional and keys >= self._keys and keys <= self._all_keys:
            return self._get(data) + tuple(data.get(name) for name in self.optional)
        raise ValueError(
            f"{self.owner} fields do not match: missing {sorted(self._keys.difference(keys))},"
            f" unexpected {sorted(keys - self._all_keys)}"
        )

"""Field tables: one record type's dict codec, driven by its field list.

A result type's ``to_dict`` and ``from_dict`` read and write the same
ordered field names.  A :class:`FieldTable` holds that list once, so
both directions read it.  ``decode`` accepts only a dict whose key set
is exactly the table's: a stored record written by another version of
the type is a mismatch to report, never a partial or padded object.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter, itemgetter
from typing import Any, Sequence

__all__ = ["FieldTable"]


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

    def decode(self, data: dict[str, Any]) -> tuple:
        """``data``'s values in constructor order (None for an omitted
        optional field).

        Raises:
            ValueError: ``data``'s keys are not exactly the table's.
        """
        keys = data.keys()
        if keys == self._keys:
            return self._get(data)
        if self.optional and keys >= self._keys and keys <= self._all_keys:
            return self._get(data) + tuple(data.get(name) for name in self.optional)
        raise ValueError(
            f"{self.owner} fields do not match: missing {sorted(self._keys.difference(keys))},"
            f" unexpected {sorted(keys - self._all_keys)}"
        )

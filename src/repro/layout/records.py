"""Record (struct) types with named fields and computed offsets."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError

__all__ = ["FieldSpec", "RecordType"]

#: Natural alignment applied to every field (one word).
_FIELD_ALIGN = 4


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


@dataclass(frozen=True)
class FieldSpec:
    """One field of a record.

    Attributes:
        name: field name, unique within the record.
        size: size in bytes (word-aligned in the layout).
        count: for small inline arrays, the number of elements; the field
            occupies ``size * count`` bytes and is addressed per element.
    """

    name: str
    size: int = 4
    count: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigurationError(f"field {self.name!r}: size must be >= 1")
        if self.count < 1:
            raise ConfigurationError(f"field {self.name!r}: count must be >= 1")

    @property
    def total_size(self) -> int:
        """Bytes occupied by the whole field (all elements)."""
        return self.size * self.count


class RecordType:
    """A struct-like record with word-aligned fields.

    Args:
        name: type name (for diagnostics).
        fields: ordered field specs.
        pad_to: if given, the record size is rounded up to a multiple of
            this value.  Padding records to the cache-line size is the
            core of the false-sharing-elimination restructuring.

    Example:
        >>> particle = RecordType("particle", [
        ...     FieldSpec("pos", 4, 3), FieldSpec("vel", 4, 3), FieldSpec("cell", 4),
        ... ])
        >>> particle.size
        28
        >>> particle.offset("vel", 1)
        16
    """

    def __init__(self, name: str, fields: list[FieldSpec], pad_to: int | None = None) -> None:
        if not fields:
            raise ConfigurationError(f"record {name!r} must have at least one field")
        self.name = name
        self.fields = tuple(fields)
        #: ``{field: (offset, size, count)}``: the record's one layout
        #: table, read by :meth:`offset` and by the trace emitters.
        self.field_layout: dict[str, tuple[int, int, int]] = {}
        offset = 0
        for spec in fields:
            if spec.name in self.field_layout:
                raise ConfigurationError(f"record {name!r}: duplicate field {spec.name!r}")
            offset = _align_up(offset, _FIELD_ALIGN)
            self.field_layout[spec.name] = (offset, spec.size, spec.count)
            offset += spec.total_size
        size = _align_up(offset, _FIELD_ALIGN)
        if pad_to is not None:
            if pad_to < 1:
                raise ConfigurationError(f"record {name!r}: pad_to must be >= 1")
            size = _align_up(size, pad_to)
        self.size = size

    def padded(self, pad_to: int) -> "RecordType":
        """A copy of this record type padded to a multiple of ``pad_to``."""
        return RecordType(self.name, list(self.fields), pad_to=pad_to)

    def offset(self, field: str, element: int = 0) -> int:
        """Byte offset of ``field[element]`` within the record."""
        offset, size, count = self._layout_of(field)
        if not 0 <= element < count:
            raise ConfigurationError(
                f"record {self.name!r}.{field}: element {element} out of range [0, {count})"
            )
        return offset + element * size

    def field_size(self, field: str) -> int:
        """Size in bytes of one element of ``field``."""
        return self._layout_of(field)[1]

    def _layout_of(self, field: str) -> tuple[int, int, int]:
        layout = self.field_layout.get(field)
        if layout is None:
            raise ConfigurationError(f"record {self.name!r} has no field {field!r}")
        return layout

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordType({self.name!r}, size={self.size})"


#: A bare one-word record, convenient for plain scalar/int arrays.
WORD = RecordType("word", [FieldSpec("value", 4)])

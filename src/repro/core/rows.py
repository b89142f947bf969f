"""Flat match rows: a whole answer in one machine-integer array.

One TCSM answer can hold 10^4-10^5 matches (Definition 4 counts every
timestamp combination), and a :class:`~repro.core.Match` costs five
garbage-collected objects per 3-edge match: the ``Match`` and
``TemporalEdge`` NamedTuples and the ``edge_map`` tuple holding them
stay GC-tracked for life, because CPython only untracks *exact*
tuples.  An answer kept in a long-lived cache would be rescanned by
every full collection.

:class:`MatchRows` stores the same data losslessly in one
``array('q')``: per match, the ``n`` vertex ids (``vertex_map``)
followed by the ``m`` ``(u, v, t)`` triples (``edge_map``).  It creates
no per-match objects, pickles as one byte buffer, and rebuilds equal
:class:`Match` tuples on demand.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain

from ..graphs import TemporalEdge
from .match import Match

__all__ = ["MatchRows"]


@dataclass(frozen=True, slots=True)
class MatchRows:
    """Matches of one arity as fixed-width integer rows.

    ``num_vertices`` / ``num_edges`` give the row layout (an empty
    answer may carry ``0, 0``); ``data`` holds ``len(self)`` rows of
    ``num_vertices + 3 * num_edges`` integers each, in answer order.
    """

    num_vertices: int = 0
    num_edges: int = 0
    data: array[int] = field(default_factory=lambda: array("q"))

    @property
    def width(self) -> int:
        """Integers per row."""
        return self.num_vertices + 3 * self.num_edges

    @property
    def nbytes(self) -> int:
        """Size of the row buffer in bytes."""
        return len(self.data) * self.data.itemsize

    def __len__(self) -> int:
        width = self.width
        return len(self.data) // width if width else 0

    @classmethod
    def from_matches(cls, matches: Sequence[Match]) -> MatchRows:
        """Flatten *matches* (all of one arity) into rows, keeping order."""
        if not matches:
            return cls()
        flat: list[int] = []
        extend = flat.extend
        for edge_map, vertex_map in matches:
            extend(vertex_map)
            extend(chain.from_iterable(edge_map))
        first = matches[0]
        rows = cls(len(first.vertex_map), len(first.edge_map), array("q", flat))
        if len(rows.data) != len(matches) * rows.width:
            raise ValueError("matches of one answer must share one arity")
        return rows

    @classmethod
    def concat(cls, parts: Iterable[MatchRows]) -> MatchRows:
        """The rows of *parts*, one after another."""
        nonempty = [part for part in parts if part.data]
        if not nonempty:
            return cls()
        first = nonempty[0]
        if len(nonempty) == 1:
            return first
        data = array("q")
        for part in nonempty:
            if part.width != first.width:
                raise ValueError("matches of one answer must share one arity")
            data.extend(part.data)
        return cls(first.num_vertices, first.num_edges, data)

    def head(self, count: int) -> MatchRows:
        """The first *count* rows."""
        if count >= len(self):
            return self
        return MatchRows(
            self.num_vertices, self.num_edges, self.data[: count * self.width]
        )

    def to_matches(self) -> tuple[Match, ...]:
        """The rows as :class:`Match` tuples, equal to the ones flattened."""
        if not self.data:
            return ()
        n, width = self.num_vertices, self.width
        data = self.data.tolist()
        return tuple(
            Match(
                tuple(
                    TemporalEdge(data[j], data[j + 1], data[j + 2])
                    for j in range(i + n, i + width, 3)
                ),
                tuple(data[i : i + n]),
            )
            for i in range(0, len(data), width)
        )

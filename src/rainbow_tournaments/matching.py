"""Bipartite matching between arc slots and colors.

Availability is passed as one bitmask per slot (bit c set = color c usable).
Kuhn's augmenting-path algorithm is enough at the sizes this package works
with.  Augmenting paths are searched iteratively on an explicit stack, so
no recursion limit caps the number of slots, and the same search serves
the color side of a forced-color matching.  The incremental matcher lets
backtracking search push and pop slots: a push takes the slot's lowest
free color when it has one and augments otherwise, and a pop drops the
last slot and its color, so nothing is copied.  It answers only whether a
matching exists; callers that need a witness's colors ask
perfect_matching, whose matching depends on the slots alone.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = [
    "perfect_matching",
    "matching_with_forced_colors",
    "IncrementalMatcher",
]


def _try_augment(
    slot: int,
    avail: Sequence[int],
    match_of_slot: list[int],
    match_of_color: dict[int, int],
) -> Optional[int]:
    """Kuhn's augmenting-path search from one slot, depth first: the free
    color the path ends on, or None, in which case nothing was written.

    An explicit stack replaces recursion, so chains of any length fit.  At
    each depth the colors not yet visited are tried lowest bit first, as
    the recursive form did; the stack holds (slot, its untried colors, the
    color it would take) for every depth above the current one.
    """
    stack: list[tuple[int, int, int]] = []
    s, mask = slot, avail[slot]
    seen = 0
    while True:
        # inline, not _bits: hot in every oracle-exhaustive search node
        mask &= ~seen
        if mask:
            low = mask & -mask
            mask ^= low
            seen |= low
            c = low.bit_length() - 1
            holder = match_of_color.get(c)
            if holder is not None:
                stack.append((s, mask, c))
                s, mask = holder, avail[holder]
                continue
            match_of_color[c] = s
            match_of_slot[s] = c
            free = c
            for s, _, c in stack:
                match_of_color[c] = s
                match_of_slot[s] = c
            return free
        if not stack:
            return None
        s, mask, _ = stack.pop()


def _augment_all(
    avail: Sequence[int], match_of_slot: list[int]
) -> Optional[list[int]]:
    """Augment a valid partial matching from each unmatched slot in order:
    the saturating matching, or None at the first slot that fails."""
    match_of_color = {c: s for s, c in enumerate(match_of_slot) if c != -1}
    for s in range(len(avail)):
        if match_of_slot[s] == -1 and _try_augment(
            s, avail, match_of_slot, match_of_color
        ) is None:
            return None
    return match_of_slot


def _slots_holding(avail: Sequence[int], c: int) -> int:
    """The bitmask of the slots whose mask holds color c."""
    return sum(1 << s for s, mask in enumerate(avail) if (mask >> c) & 1)


def perfect_matching(
    avail: Sequence[int], start: Optional[Sequence[int]] = None
) -> Optional[list[int]]:
    """A matching saturating every slot, or None.

    ``start`` is an optional valid partial matching (color per slot, -1 =
    unmatched) to extend.  Augmenting paths never unmatch a matched slot,
    so only the slots it leaves unmatched are augmented from.
    """
    return _augment_all(
        avail, [-1] * len(avail) if start is None else list(start))


def matching_with_forced_colors(
    avail: Sequence[int], forced: Sequence[int]
) -> Optional[list[int]]:
    """A slot-saturating matching that uses every forced color.

    Phase 1 augments from the forced colors (color side), phase 2 from the
    still-unmatched slots.  Augmenting paths never unmatch a matched vertex,
    so forced colors stay used; by the transversal-matroid exchange property
    the two phases find a witness whenever one exists.  In phase 1 forced
    color k is _try_augment's "slot", and the slots offering it its "colors".
    """
    nslots = len(avail)
    forced = list(dict.fromkeys(forced))
    if len(forced) > nslots:
        return None
    slots_of = [_slots_holding(avail, c) for c in forced]
    slot_of = [-1] * len(forced)
    holder: dict[int, int] = {}
    for k in range(len(forced)):
        if _try_augment(k, slots_of, slot_of, holder) is None:
            return None

    match_of_slot = [-1] * nslots
    for c, s in zip(forced, slot_of):
        match_of_slot[s] = c
    return _augment_all(avail, match_of_slot)


class IncrementalMatcher:
    """Arcs-vs-colors matching with push/pop for backtracking search.

    ``push(mask)`` adds a slot and reports whether the enlarged slot set
    still has a perfect matching, keeping one; a rejected push leaves the
    state as it was.  ``pop()`` drops the last slot and its color, which
    leaves a perfect matching of the slots before it.  A free color is a
    length-1 augmenting path, so taking one first accepts and rejects as
    Kuhn's search would.
    """

    def __init__(self):
        self.avail: list[int] = []
        self.match_of_slot: list[int] = []
        self.match_of_color: dict[int, int] = {}
        self._held = 0  # bitmask of the colors in match_of_color

    def push(self, mask: int) -> bool:
        s = len(self.avail)
        self.avail.append(mask)
        free = mask & ~self._held
        if free:
            c = (free & -free).bit_length() - 1
            self.match_of_color[c] = s
            self.match_of_slot.append(c)
        else:
            self.match_of_slot.append(-1)
            c = _try_augment(
                s, self.avail, self.match_of_slot, self.match_of_color
            )
            if c is None:
                self.avail.pop()
                self.match_of_slot.pop()
                return False
        self._held |= 1 << c
        return True

    def pop(self) -> None:
        self.avail.pop()
        c = self.match_of_slot.pop()
        del self.match_of_color[c]
        self._held ^= 1 << c

"""Bipartite matching between arc slots and colors.

Availability is passed as one bitmask per slot (bit c set = color c usable).
Kuhn's augmenting-path algorithm is enough at the sizes this package works
with.  Augmenting paths are searched iteratively on an explicit stack, so
no recursion limit caps the number of slots, and the same search serves
the color side of a forced-color matching.  The incremental variant keeps
per-depth snapshots so backtracking search can push and pop slots in
O(current matching size).
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = [
    "max_matching",
    "perfect_matching",
    "matching_with_forced_colors",
    "IncrementalMatcher",
]


def _try_augment(
    slot: int,
    avail: Sequence[int],
    match_of_slot: list[int],
    match_of_color: dict[int, int],
) -> bool:
    """Kuhn's augmenting-path search from one slot, depth first.

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
            for s, _, c in stack:
                match_of_color[c] = s
                match_of_slot[s] = c
            return True
        if not stack:
            return False
        s, mask, _ = stack.pop()


def max_matching(avail: Sequence[int]) -> list[int]:
    """Maximum matching; returns color per slot (-1 = unmatched)."""
    match_of_slot = [-1] * len(avail)
    match_of_color: dict[int, int] = {}
    for s in range(len(avail)):
        _try_augment(s, avail, match_of_slot, match_of_color)
    return match_of_slot


def perfect_matching(
    avail: Sequence[int], start: Optional[Sequence[int]] = None
) -> Optional[list[int]]:
    """A matching saturating every slot, or None.

    ``start`` is an optional valid partial matching (color per slot, -1 =
    unmatched) to extend.  Augmenting paths never unmatch a matched slot,
    so only the slots it leaves unmatched are augmented from.
    """
    match_of_slot = [-1] * len(avail) if start is None else list(start)
    match_of_color = {c: s for s, c in enumerate(match_of_slot) if c != -1}
    for s in range(len(avail)):
        if match_of_slot[s] == -1 and not _try_augment(
            s, avail, match_of_slot, match_of_color
        ):
            return None
    return match_of_slot


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
    slots_of = [
        sum(1 << s for s, mask in enumerate(avail) if (mask >> c) & 1)
        for c in forced
    ]
    slot_of = [-1] * len(forced)
    holder: dict[int, int] = {}
    for k in range(len(forced)):
        if not _try_augment(k, slots_of, slot_of, holder):
            return None

    match_of_slot = [-1] * nslots
    for c, s in zip(forced, slot_of):
        match_of_slot[s] = c
    match_of_color = dict(zip(forced, slot_of))
    for s in range(nslots):
        if match_of_slot[s] == -1:
            if not _try_augment(s, avail, match_of_slot, match_of_color):
                return None
    return match_of_slot


class IncrementalMatcher:
    """Arcs-vs-colors matching with push/pop for backtracking search.

    ``push(mask)`` adds a slot and reports whether the enlarged slot set
    still has a perfect matching; ``pop()`` restores the previous state.
    Snapshots are plain copies, which is the right trade at oracle sizes
    (at most ~a dozen slots) and for the absorber's combination-tree walk
    (colors as slots: |A| + ell of them, one per target arc).
    """

    def __init__(self):
        self.avail: list[int] = []
        self._stack: list[tuple[list[int], dict[int, int]]] = []
        self.match_of_slot: list[int] = []
        self.match_of_color: dict[int, int] = {}

    def push(self, mask: int) -> bool:
        self._stack.append(
            (list(self.match_of_slot), dict(self.match_of_color))
        )
        self.avail.append(mask)
        self.match_of_slot.append(-1)
        s = len(self.avail) - 1
        ok = _try_augment(
            s, self.avail, self.match_of_slot, self.match_of_color
        )
        if not ok:
            self.pop()
        return ok

    def pop(self) -> None:
        self.avail.pop()
        self.match_of_slot, self.match_of_color = self._stack.pop()

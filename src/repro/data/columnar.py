"""Columnar batch coalescing: parallel key/payload lists for kernels.

The generated batch kernels (:mod:`repro.viewtree.codegen`) flow deltas
through parallel ``(keys, payloads)`` lists instead of the
dict-of-tuples of :func:`repro.data.update.coalesce_grouped` — a
coalesced delta's keys are distinct, so the dict bought nothing on the
hot path while charging a hash per entry at every stage.
:func:`coalesce_columnar` produces that representation directly, with
exactly ``coalesce_grouped``'s semantics: same surviving entries, same
first-occurrence order for relations and keys, relations whose deltas
cancel entirely absent.

The loop touches payloads only through the ring's own ``add`` and zero
test, so every ring — ``FloatRing`` included — coalesces the same way and
keeps the payload types it was given.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..rings.base import Semiring
from ..rings.standard import Z
from .update import Update


def coalesce_columnar(
    batch: Iterable[Update], ring: Semiring = Z
) -> dict[str, tuple[list, list]]:
    """Coalesce a batch into per-relation parallel key/payload lists.

    Returns ``{relation: (keys, payloads)}`` with the content and order
    of :func:`repro.data.update.coalesce_grouped` — the columnar twin
    the generated kernels and bulk leaf writes consume.
    """
    grouped: dict[str, dict[tuple, Any]] = {}
    add = ring.add
    for update in batch:
        deltas = grouped.get(update.relation)
        if deltas is None:
            deltas = grouped[update.relation] = {}
        previous = deltas.get(update.key)
        deltas[update.key] = (
            update.payload if previous is None else add(previous, update.payload)
        )
    is_zero = ring.is_zero
    exact = ring.exact_zero
    zero = ring.zero
    result: dict[str, tuple[list, list]] = {}
    for relation, deltas in grouped.items():
        keys: list = []
        payloads: list = []
        for key, payload in deltas.items():
            if (payload != zero) if exact else not is_zero(payload):
                keys.append(key)
                payloads.append(payload)
        if keys:
            result[relation] = (keys, payloads)
    return result


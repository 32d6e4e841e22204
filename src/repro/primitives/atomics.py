"""Vectorized CRCW write-conflict resolution: writeMin, CAS races.

The paper's two decomposition variants differ precisely in the
concurrent-write rule used when several BFS frontiers reach the same
unvisited vertex in one round:

* **Decomp-Min** uses ``writeMin`` — a *priority* concurrent write: of
  all values written to a location in one step, the minimum survives.
  The paper implements it with a CAS loop; on our simulated PRAM a
  whole round of writeMins is one ``np.minimum.at`` scatter.
* **Decomp-Arb** uses a bare CAS — an *arbitrary* concurrent write: any
  single writer may win.  NumPy's "first occurrence" reduction is one
  legal arbitrary schedule (and a deterministic one, which makes tests
  reproducible; the paper's correctness does not depend on the choice).

Both are exposed as batch operations over ``(destination index, value)``
streams, mirroring one synchronous PRAM step, and charge ``atomic``
work per write attempt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Tuple

import numpy as np

from repro.pram.cost import CostTracker
from repro.runtime.context import FROM_CONTEXT, current_context

if TYPE_CHECKING:  # layering: primitives must not import engine at runtime
    from repro.engine.workspace import NullWorkspace
    from repro.pram.sanitizer import PramSanitizer

__all__ = [
    "write_min",
    "first_winner",
    "unique_winners",
    "encode_pair",
    "check_pair_domain",
    "decode_pair",
    "PAIR_SHIFT",
]

#: Bits reserved for the payload half of an encoded (priority, payload)
#: pair.  Payloads (vertex / component ids) must fit in 31 bits, which
#: caps graphs at ~2.1e9 vertices — far above anything this package runs.
PAIR_SHIFT = 31
_PAIR_MASK = (1 << PAIR_SHIFT) - 1


def _check_half(values: np.ndarray, half: str) -> None:
    if values.size and (values.min() < 0 or values.max() > _PAIR_MASK):
        raise ValueError(f"{half} out of range [0, 2^{PAIR_SHIFT})")


def check_pair_domain(priority: np.ndarray, num_payloads: int) -> None:
    """Raise unless every (priority, payload) pair with a payload in
    ``[0, num_payloads)`` is encodable by :func:`encode_pair`.

    The range check ``encode_pair(priority, arange(num_payloads))``
    performs, without building the payloads or the encoding.
    """
    _check_half(np.asarray(priority, dtype=np.int64), "priority")
    if num_payloads - 1 > _PAIR_MASK:
        raise ValueError(f"payload out of range [0, 2^{PAIR_SHIFT})")


def encode_pair(
    priority: np.ndarray,
    payload: np.ndarray,
    *,
    check: bool = True,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pack (priority, payload) into one int64 ordered lexicographically.

    ``encode_pair(p1, x1) < encode_pair(p2, x2)`` iff ``(p1, x1) <
    (p2, x2)`` lexicographically, so a writeMin on encoded pairs is a
    writeMin on pairs with ties broken by smaller payload — exactly the
    comparison Decomp-Min's pseudo-code performs on its (delta', C) pairs.

    ``check=False`` skips the range scans — only for callers that
    validated their whole value domain up front (the fast backend's
    Decomp-Min setup proves the schedule's delta' range and the vertex
    count once, instead of rescanning every round).  ``out`` receives
    the encoding in place (it may alias *priority*).
    """
    priority = np.asarray(priority, dtype=np.int64)
    payload = np.asarray(payload, dtype=np.int64)
    if check:
        _check_half(priority, "priority")
        _check_half(payload, "payload")
    if out is None:
        return (priority << PAIR_SHIFT) | payload
    np.left_shift(priority, PAIR_SHIFT, out=out)
    np.bitwise_or(out, payload, out=out)
    return out


def decode_pair(encoded: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_pair` (valid for non-sentinel entries)."""
    encoded = np.asarray(encoded, dtype=np.int64)
    return encoded >> PAIR_SHIFT, encoded & _PAIR_MASK


def write_min(
    dest: np.ndarray,
    idx: np.ndarray,
    values: np.ndarray,
    *,
    tracker: Optional[CostTracker] = None,
    workspace: Optional[NullWorkspace] = None,
    sanitizer: "Optional[PramSanitizer]" = FROM_CONTEXT,
) -> None:
    """One synchronous round of priority-CRCW writeMins.

    For every ``i``, atomically ``dest[idx[i]] = min(dest[idx[i]],
    values[i])``; concurrent writes to the same location resolve to the
    minimum, matching the paper's ``writeMin`` primitive.  Charged as
    one atomic op per write attempt plus O(1) depth for the round.

    Mutates *dest* in place.  *tracker* and *sanitizer* let round
    kernels pass what their state already resolved (no context-var read
    per primitive).  *workspace* is the execution seam: when the round
    kernel passes one, its ``minimum_scatter`` runs the scatter;
    charging and the sanitizer record stay here either way, so the
    execution strategy is cost-model invisible.
    """
    idx = np.asarray(idx)
    values = np.asarray(values)
    if idx.shape[0] != values.shape[0]:
        raise ValueError("idx and values must have equal length")
    if tracker is None:
        tracker = current_context().tracker
    tracker.add("atomic", work=float(idx.shape[0]), depth=1.0)
    if sanitizer is FROM_CONTEXT:
        sanitizer = current_context().sanitizer
    if sanitizer is not None:
        sanitizer.record_atomic(dest, idx)
    if workspace is not None:
        workspace.minimum_scatter(dest, idx, values)
    else:
        np.minimum.at(dest, idx, values)


def unique_winners(idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Uncharged sort-based race resolution: ``(positions, dests)``.

    ``dests`` are the distinct values of *idx* in ascending order and
    ``positions`` the index of each one's first occurrence — the
    reference schedule every other resolution must reproduce.
    """
    dests, positions = np.unique(idx, return_index=True)
    return positions.astype(np.int64, copy=False), dests


def first_winner(
    idx: np.ndarray,
    *,
    workspace: Optional[NullWorkspace] = None,
    tracker: Optional[CostTracker] = None,
    plan: Any = FROM_CONTEXT,
    sanitizer: "Optional[PramSanitizer]" = FROM_CONTEXT,
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve an arbitrary-CRCW race: one winner per distinct destination.

    Given the destinations ``idx`` of a batch of concurrent CAS
    attempts, returns ``(winner_positions, winner_destinations)`` where
    ``winner_positions`` indexes into the batch (first occurrence per
    destination — one legal arbitrary schedule) and
    ``winner_destinations = idx[winner_positions]``.

    Charged as one atomic op per attempt plus O(1) depth.

    *workspace* is the execution seam, as for :func:`write_min`: its
    ``winner_scatter`` resolves the race — the O(n) reverse-order
    scatter of the fast :class:`~repro.engine.workspace.Workspace`, or
    the sort-based :func:`unique_winners` of the reference workspace
    (also run when none is passed).  Both pick the first occurrence per
    destination, so the winner schedule is identical
    (``tests/test_backend_parity.py`` pins this element for element).
    *tracker* / *plan* / *sanitizer* let round kernels pass their
    cached context lookups down the hot path.

    An armed :class:`~repro.resilience.faults.FaultPlan` may flip
    winners to *other legal contenders* (a different arbitrary
    schedule) — the hook cannot invent a winner that did not race.
    """
    idx = np.asarray(idx)
    if tracker is None:
        tracker = current_context().tracker
    tracker.add("atomic", work=float(idx.shape[0]), depth=1.0)
    if idx.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), idx
    if workspace is not None:
        positions, dests = workspace.winner_scatter(idx)
    else:
        positions, dests = unique_winners(idx)
    if plan is FROM_CONTEXT:
        plan = current_context().fault_plan
    if sanitizer is FROM_CONTEXT:
        sanitizer = current_context().sanitizer
    if plan is not None:
        # The pre-perturbation resolution IS the machine's deterministic
        # schedule; an armed sanitizer validates whatever comes back
        # against it, so a cas_flip surfaces as a cas-order race.
        canonical_positions, canonical_dests = positions, dests
        positions, dests = plan.perturb_cas(idx, positions, dests)
        if sanitizer is not None:
            sanitizer.check_cas(
                idx, canonical_positions, canonical_dests, positions, dests
            )
    if sanitizer is not None:
        sanitizer.sanction(dests)
    return positions, dests

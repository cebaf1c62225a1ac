"""Seeded input generation: the same seed gives the same inputs.

The seed only draws wavelengths, thicknesses, the op order and the
held-back tune points; the program under test receives the generated
specs and nothing else.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"ledger:{workload}:{seed}:{stream}")


def wavelengths(workload: str, seed: int, n: int,
                lo: float = 9.0, hi: float = 15.0) -> List[float]:
    """``n`` distinct wavelengths in ``[lo, hi)``, millesimal precision
    (distinct values are distinct job ids: nothing dedups by accident)."""
    rng = _rng(workload, seed, "wavelengths")
    seen = set()
    out: List[float] = []
    while len(out) < n:
        w = round(rng.uniform(lo, hi), 3)
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def thicknesses(workload: str, seed: int, n: int) -> List[float]:
    """``n`` distinct absorber thicknesses (fractions of the domain)."""
    rng = _rng(workload, seed, "thicknesses")
    seen = set()
    out: List[float] = []
    while len(out) < n:
        t = round(rng.uniform(0.15, 0.35), 3)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def heldback_bandwidths(seed: int, n: int,
                        candidates: List[float]) -> List[float]:
    """``n`` distinct off-figure memory bandwidths (GB/s) for the
    held-back tune point."""
    return _rng("tune_cold", seed, "heldback").sample(
        candidates, min(n, len(candidates)))


def serve_ops(seed: int, client: int, mix: Dict[str, float],
              block: int = 20) -> Iterator[Tuple[str, float]]:
    """One client's endless op sequence: ``(kind, u)`` pairs where ``u``
    picks the completed spec a hit/read targets.

    Every block of ``block`` ops holds each kind in exactly its share of
    the mix, in a seeded order: the seed moves the order, never how much
    cold work a run contains.
    """
    rng = _rng("serve_small", seed, f"client{client}")
    pattern = [kind for kind, share in mix.items()
               for _ in range(round(share * block))]
    while True:
        rng.shuffle(pattern)
        for kind in pattern:
            yield kind, rng.random()

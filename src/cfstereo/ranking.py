"""Strongest-path (Schulze) fusion of ranked ballots.

A ballot is a sequence of method names, best first; a tie is expressed by
nesting tied names in a sub-list. The fused result is a list of rank
groups, best first, where each group holds mutually tied methods.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def _as_groups(ballot) -> list[list[str]]:
    groups = []
    for entry in ballot:
        if isinstance(entry, str):
            groups.append([entry])
        else:
            groups.append([str(x) for x in entry])
    if not groups or not all(groups):
        raise ValueError("a ballot or tie group names no method")
    return groups


def schulze_rank(ballots: Iterable[Sequence]) -> list[list[str]]:
    """Fuse ballots into one order via pairwise majorities and widest paths.

    The candidates are every name that appears on a ballot."""
    normalized = [_as_groups(b) for b in ballots]
    if not normalized:
        raise ValueError("need at least one ballot")
    names = sorted({name for groups in normalized for group in groups for name in group})

    index = {name: i for i, name in enumerate(names)}
    k = len(names)
    prefer = np.zeros((k, k), dtype=np.int64)
    for groups in normalized:
        flat = [name for group in groups for name in group]
        if len(set(flat)) != len(flat):
            raise ValueError("a method appears more than once in a ballot")
        for gi, group in enumerate(groups):
            above = [index[n] for later in groups[gi + 1 :] for n in later]
            for name in group:
                prefer[index[name], above] += 1

    strength = np.where(prefer > prefer.T, prefer, 0)
    for i in range(k):
        strength = np.maximum(strength, np.minimum(strength[:, i : i + 1], strength[i : i + 1, :]))
    beats = strength > strength.T
    wins = beats.sum(axis=1)

    order = sorted(range(k), key=lambda i: (-wins[i], names[i]))
    ranked: list[list[str]] = []
    last_wins = None
    for i in order:
        if ranked and wins[i] == last_wins:
            ranked[-1].append(names[i])
        else:
            ranked.append([names[i]])
            last_wins = wins[i]
    return ranked


def parse_ballots(text: str) -> list[list[str]]:
    """One ballot per line, comma-separated method names, best first."""
    ballots = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        names = [part.strip() for part in line.split(",") if part.strip()]
        if not names:
            raise ValueError(f"ballot on line {number} names no method: {line!r}")
        ballots.append(names)
    if not ballots:
        raise ValueError("ballot file holds no ballots")
    return ballots

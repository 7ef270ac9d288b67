"""Exponent patterns: which prime-factorization exponents an integer may carry.

An integer qualifies for a pattern when the exponent of every prime in its
factorization is allowed.  Exponent 0 (prime absent) is always allowed and is
never written explicitly, so n = 1 qualifies for every pattern.  Patterns are
unions of integer intervals, normalized to a sorted, strictly separated
canonical form.  Per-prime rules (finitely many exceptional primes on top of
one default) are captured by PrimeAwarePattern.

The text DSL is comma-separated terms ``a``, ``a..b`` or ``a..inf``; an empty
string denotes the empty pattern (no positive exponent allowed).
"""

from __future__ import annotations

import json
import numbers
import re
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import InitVar, dataclass, field

import numpy as np

from .primes import PrimeTable, is_prime, sieve_primes

# Exception keys up to this bound are checked against one sieve; larger keys
# get a Miller-Rabin test each.
_KEY_SIEVE_LIMIT = 10**7


class PatternSyntaxError(ValueError):
    """Malformed pattern DSL input; ``position`` is the character offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class ExponentInterval:
    """Closed exponent interval [lo, hi]; hi=None means unbounded above."""

    lo: int
    hi: int | None

    def __post_init__(self):
        if self.lo < 1:
            raise ValueError(f"interval lower end must be >= 1, got {self.lo}")
        if self.hi is not None and self.hi < self.lo:
            raise ValueError(f"interval [{self.lo}, {self.hi}] is empty")

    def __contains__(self, alpha: int) -> bool:
        return self.lo <= alpha and (self.hi is None or alpha <= self.hi)

    def __str__(self) -> str:
        if self.hi is None:
            return f"{self.lo}..inf"
        if self.hi == self.lo:
            return str(self.lo)
        return f"{self.lo}..{self.hi}"


@dataclass(frozen=True)
class ExponentPattern:
    """Normalized union of allowed-exponent intervals.

    Invariants: sorted ascending, strictly separated (prev.hi + 1 < next.lo),
    at most one unbounded interval and only in last position.  The empty
    tuple is legal and allows no positive exponent.
    """

    intervals: tuple[ExponentInterval, ...]

    def __post_init__(self):
        prev: ExponentInterval | None = None
        for iv in self.intervals:
            if prev is not None:
                if prev.hi is None:
                    raise ValueError("unbounded interval must be last")
                if prev.hi + 1 >= iv.lo:
                    raise ValueError(
                        f"intervals {prev} and {iv} overlap or touch; normalize first"
                    )
            prev = iv

    def __str__(self) -> str:
        return ",".join(str(iv) for iv in self.intervals)

    def allows_everything(self) -> bool:
        return len(self.intervals) == 1 and self.intervals[0] == ExponentInterval(1, None)


@dataclass(frozen=True)
class PrimeAwarePattern:
    """One default pattern plus a finite map of exceptional primes.

    ``known_primes``, when given, is a sieve table that callers already
    hold; keys up to its limit are checked against it instead of a new sieve.
    """

    default: ExponentPattern
    exceptions: Mapping[int, ExponentPattern] = field(default_factory=dict)
    known_primes: InitVar[PrimeTable | None] = None

    def __post_init__(self, known_primes: PrimeTable | None):
        keys = np.array(list(self.exceptions))
        if keys.dtype.kind not in "iu":
            # numpy turns ints beyond 64 bits into floats; keep them exact
            keys = np.array(list(self.exceptions), dtype=object)
            for p in keys:
                if not isinstance(p, numbers.Integral):
                    raise ValueError(f"exception key {p!r} is not an integer")
        in_sieve = (keys >= 0) & (keys <= _KEY_SIEVE_LIMIT)
        small = keys[in_sieve].astype(np.int64)
        if small.size:
            limit = int(small.max())
            table = known_primes
            if table is None or table.limit < limit:
                table = sieve_primes(max(limit, 2))
            is_listed = np.zeros(limit + 1, dtype=bool)
            is_listed[table.primes[table.primes <= limit]] = True
            bad = small[~is_listed[small]]
            if bad.size:
                raise ValueError(f"exception key {bad[0]} is not prime")
        for p in keys[~in_sieve].tolist():
            if not is_prime(p):
                raise ValueError(f"exception key {p} is not prime")
        # Defensive copy with deterministic iteration order.
        ascending = bool(np.all(keys[1:] > keys[:-1]))
        object.__setattr__(
            self,
            "exceptions",
            dict(self.exceptions) if ascending else dict(sorted(self.exceptions.items())),
        )


def normalize_intervals(
    raw: Iterable[tuple[int, int | None]]
) -> ExponentPattern:
    """Canonicalize raw (lo, hi) pairs into an ExponentPattern.

    Sorts by lower end and merges overlapping or adjacent intervals, so the
    result covers exactly the union of the inputs.  hi=None marks an
    unbounded interval.  Rejects lo < 1 and bounded hi < lo.
    """
    items: list[tuple[int, int | None]] = []
    for lo, hi in raw:
        if lo < 1:
            raise ValueError(f"exponent intervals start at 1, got lo={lo}")
        if hi is not None and hi < lo:
            raise ValueError(f"interval [{lo}, {hi}] is empty")
        items.append((lo, hi))
    items.sort(key=lambda t: t[0])
    merged: list[tuple[int, int | None]] = []
    for lo, hi in items:
        if merged:
            cur_lo, cur_hi = merged[-1]
            if cur_hi is None:
                continue  # an unbounded interval absorbs everything after it
            if lo <= cur_hi + 1:
                if hi is None or hi > cur_hi:
                    merged[-1] = (cur_lo, hi)
                continue
        merged.append((lo, hi))
    return ExponentPattern(tuple(ExponentInterval(lo, hi) for lo, hi in merged))


EMPTY_PATTERN = normalize_intervals([])


def contains(pattern: ExponentPattern, alpha: int) -> bool:
    """True iff exponent alpha (>= 1) is allowed by the pattern."""
    if alpha < 1:
        raise ValueError(f"exponents are >= 1, got {alpha}")
    ivs = pattern.intervals
    i = bisect_right([iv.lo for iv in ivs], alpha) - 1
    return i >= 0 and alpha in ivs[i]


def min_forbidden(pattern: ExponentPattern) -> int | None:
    """Smallest exponent >= 1 not allowed; None iff every exponent is allowed."""
    candidate = 1
    for iv in pattern.intervals:
        if candidate < iv.lo:
            return candidate
        if iv.hi is None:
            return None
        candidate = iv.hi + 1
    return candidate


def complement(pattern: ExponentPattern) -> ExponentPattern:
    """The pattern of exactly the forbidden exponents {a >= 1 : not allowed}.

    The gaps between allowed intervals are themselves sorted, strictly
    separated, and unbounded only when last, so they form a valid pattern.
    """
    gaps: list[ExponentInterval] = []
    next_start = 1
    for iv in pattern.intervals:
        if iv.lo > next_start:
            gaps.append(ExponentInterval(next_start, iv.lo - 1))
        if iv.hi is None:
            return ExponentPattern(tuple(gaps))
        next_start = iv.hi + 1
    gaps.append(ExponentInterval(next_start, None))
    return ExponentPattern(tuple(gaps))


_TERM_RE = re.compile(r"^(\d+)(?:\.\.(\d+|inf))?$")


def parse_pattern(text: str) -> ExponentPattern:
    """Parse the pattern DSL: comma-separated ``a``, ``a..b`` or ``a..inf``.

    Whitespace around terms is ignored; an all-whitespace string parses to
    the empty pattern.  Raises PatternSyntaxError with the character offset
    of the offending term.
    """
    if text.strip() == "":
        return EMPTY_PATTERN
    raw: list[tuple[int, int | None]] = []
    offset = 0
    for chunk in text.split(","):
        stripped = chunk.strip()
        position = offset + (len(chunk) - len(chunk.lstrip()))
        m = _TERM_RE.match(stripped)
        if not m:
            raise PatternSyntaxError(f"malformed term {stripped!r}", position)
        lo = int(m.group(1))
        if lo == 0:
            raise PatternSyntaxError(
                "exponent 0 is implicit and cannot appear in a pattern", position
            )
        hi_text = m.group(2)
        if hi_text is None:
            hi: int | None = lo
        elif hi_text == "inf":
            hi = None
        else:
            hi = int(hi_text)
            if hi < lo:
                raise PatternSyntaxError(f"upper end {hi} below lower end {lo}", position)
        raw.append((lo, hi))
        offset += len(chunk) + 1
    return normalize_intervals(raw)


def pattern_for_prime(pap: PrimeAwarePattern, p: int) -> ExponentPattern:
    """The pattern governing prime p: its exception if present, else the default."""
    return pap.exceptions.get(p, pap.default)


_PRIME_LE_RE = re.compile(r"^p\s*<=\s*(\d+)$")
_PRIME_IN_RE = re.compile(r"^p\s+in\s+[\[{]([\d\s,]*)[\]}]$")


def _range_bound(key: str) -> int | None:
    """q for a "p<=q" key, else None."""
    m = _PRIME_LE_RE.match(key.strip())
    return int(m.group(1)) if m else None


def _expand_prime_key(key: str, table: PrimeTable | None) -> list[int]:
    """The primes a key names; ``table`` covers every "p<=q" bound."""
    key = key.strip()
    if key.isdigit():
        p = int(key)
        if not is_prime(p):
            raise ValueError(f"exception key {p} is not prime")
        return [p]
    q = _range_bound(key)
    if q is not None:
        if q < 2:
            return []
        end = int(np.searchsorted(table.primes, q, side="right"))
        return table.primes[:end].tolist()
    m = _PRIME_IN_RE.match(key)
    if m:
        body = m.group(1).strip()
        if not body:
            return []
        out = []
        for part in body.split(","):
            p = int(part.strip())
            if not is_prime(p):
                raise ValueError(f"exception key {key!r} lists non-prime {p}")
            out.append(p)
        return out
    raise ValueError(f"unrecognized exception key {key!r}")


def parse_prime_aware(doc: Mapping) -> PrimeAwarePattern:
    """Build a PrimeAwarePattern from a spec document.

    Schema: ``{"default": "<DSL>", "exceptions": {"<key>": "<DSL>"}}``, where
    a key is a prime ("7"), "p<=q" (all primes up to q) or "p in [2,3,5]".
    Duplicate primes arising from overlapping keys are rejected.
    """
    if "default" not in doc:
        raise ValueError('pattern spec needs a "default" entry')
    default = parse_pattern(doc["default"])
    keys = doc.get("exceptions", {})
    # One sieve serves every "p<=q" key and then the check of all the keys.
    bound = max((_range_bound(str(key)) or 0 for key in keys), default=0)
    table = sieve_primes(bound) if bound >= 2 else None
    exceptions: dict[int, ExponentPattern] = {}
    for key, dsl in keys.items():
        primes = _expand_prime_key(str(key), table)
        fresh = dict.fromkeys(primes, parse_pattern(dsl))
        if len(fresh) < len(primes) or not fresh.keys().isdisjoint(exceptions):
            seen = set(exceptions)
            for p in primes:
                if p in seen:
                    raise ValueError(f"prime {p} assigned by more than one exception key")
                seen.add(p)
        if exceptions:
            exceptions.update(fresh)
        else:
            exceptions = fresh
    return PrimeAwarePattern(default=default, exceptions=exceptions, known_primes=table)


def load_spec(path: str) -> PrimeAwarePattern:
    """Load a JSON pattern spec file (schema as in parse_prime_aware)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_prime_aware(doc)

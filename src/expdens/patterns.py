"""Exponent patterns: which prime-factorization exponents an integer may carry.

An integer qualifies for a pattern when the exponent of every prime in its
factorization is allowed.  Exponent 0 (prime absent) is always allowed and is
never written explicitly, so n = 1 qualifies for every pattern.  A pattern is
a union of integer intervals, held as its boundary list: the ascending
exponents at which allowed and forbidden alternate, from 1 up.  Per-prime
rules (finitely many exceptional primes on top of one default) are captured
by PrimeAwarePattern.

The text DSL is comma-separated terms ``a``, ``a..b`` or ``a..inf``; an empty
string denotes the empty pattern (no positive exponent allowed).
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain
from operator import itemgetter, lt

from ._record import record
# sieve_primes stays a module attribute: perfbench/trace_launch.py wraps it by name.
from .primes import _check_budget, _odd_flags, is_prime, prime_segments, sieve_primes  # noqa: F401

# Exception keys up to this bound are checked against one sieve's flags;
# larger keys get a Miller-Rabin test each.
_KEY_SIEVE_LIMIT = 10**7


class PatternSyntaxError(ValueError):
    """Malformed pattern DSL input; ``position`` is the character offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@record
class ExponentPattern:
    """The allowed exponents, held as the pattern's boundary list ``ends``.

    ``ends`` is a_1, b_1 + 1, a_2, b_2 + 1, ... for the allowed intervals
    [a_i, b_i], strictly ascending from 1 up; an odd length means the last
    interval is unbounded.  So exponent a is allowed iff an odd number of
    ends are <= a, and the empty tuple allows no positive exponent.
    ``intervals`` is the same pattern as (lo, hi) pairs, hi None when
    unbounded, the pairs ``normalize_intervals`` takes.
    """

    ends: tuple[int, ...]

    def __post_init__(self):
        ends = self.ends
        if (ends and ends[0] < 1) or not all(map(lt, ends, ends[1:])):
            raise ValueError("pattern ends must ascend strictly from 1 up")

    @property
    def intervals(self) -> tuple[tuple[int, int | None], ...]:
        # an odd length leaves the last lower end without an end: hi None
        his = [end - 1 for end in self.ends[1::2]] + [None]
        return tuple(zip(self.ends[::2], his))

    def __str__(self) -> str:
        return ",".join(
            f"{lo}..inf" if hi is None else str(lo) if hi == lo else f"{lo}..{hi}"
            for lo, hi in self.intervals
        )


@record
class PrimeAwarePattern:
    """One default pattern plus a finite map of exceptional primes."""

    default: ExponentPattern
    exceptions: Mapping[int, ExponentPattern] = {}  # __post_init__ copies it

    def __post_init__(self):
        if isinstance(self.exceptions, _PrimeRange):
            return  # parse_prime_aware checked its keys
        keys = list(self.exceptions)
        if not set(map(type, keys)) <= {int}:
            import numbers  # only a key of another type needs it
            for p in keys:
                if not isinstance(p, numbers.Integral):
                    raise ValueError(f"exception key {p!r} is not an integer")
        ordered = sorted(keys)
        if ordered and ordered[0] < 2:
            raise ValueError(f"exception key {ordered[0]} is not prime")
        end = bisect_right(ordered, _KEY_SIEVE_LIMIT)
        if end:
            flags = _odd_flags(ordered[end - 1])
            # 2 is the one even prime; flags[p >> 1] marks an odd p
            odd = ordered[1:end] if ordered[0] == 2 else ordered[:end]
            bad = next((p for p in odd if not (p & 1 and flags[p >> 1])), None)
            if bad is not None:
                raise ValueError(f"exception key {bad} is not prime")
        for p in ordered[end:]:
            if not is_prime(p):
                raise ValueError(f"exception key {p} is not prime")
        # Defensive copy with deterministic iteration order.
        object.__setattr__(
            self,
            "exceptions",
            dict(self.exceptions)
            if ordered == keys
            else {p: self.exceptions[p] for p in ordered},
        )

    def runs(self, upto: int | None = None) -> list[tuple[Iterable, ExponentPattern]]:
        """The exceptional primes as (windows, pattern) runs, each window ascending.

        A "p<=q" range is the first run, its windows sieve segments made as
        they are read, up to ``upto``.  The other keys form one window, a sorted
        list (a key may pass 2^63), per distinct pattern, grouped by pattern
        object first, so that no pattern is hashed per key.
        """
        exceptions, runs = self.exceptions, []
        if isinstance(exceptions, _PrimeRange):
            runs.append((exceptions.windows(upto), exceptions.pattern))
            exceptions = exceptions.rest
        by_object: dict[int, tuple[ExponentPattern, list[int]]] = {}
        for p, pattern in exceptions.items():
            by_object.setdefault(id(pattern), (pattern, []))[1].append(p)
        by_pattern: dict[ExponentPattern, list[int]] = {}
        for pattern, keys in by_object.values():
            by_pattern.setdefault(pattern, []).extend(keys)
        return runs + [([sorted(keys)], pattern) for pattern, keys in by_pattern.items()]


def normalize_intervals(
    raw: Iterable[tuple[int, int | None]]
) -> ExponentPattern:
    """Canonicalize raw (lo, hi) pairs into an ExponentPattern.

    Sorts by lower end and merges overlapping or adjacent intervals, so the
    result covers exactly the union of the inputs.  hi=None marks an
    unbounded interval.  Rejects lo < 1 and bounded hi < lo.
    """
    ends: list[int] = []
    for lo, hi in sorted(raw, key=itemgetter(0)):
        if lo < 1:
            raise ValueError(f"exponent intervals start at 1, got lo={lo}")
        if hi is not None and hi < lo:
            raise ValueError(f"interval [{lo}, {hi}] is empty")
        if len(ends) & 1:
            continue  # an unbounded interval absorbs everything after it
        if ends and lo <= ends[-1]:
            end = ends.pop()  # [lo, hi] overlaps or touches the last interval
            if hi is not None and hi < end:
                hi = end - 1
        else:
            ends.append(lo)
        if hi is not None:
            ends.append(hi + 1)
    return ExponentPattern(tuple(ends))


EMPTY_PATTERN = ExponentPattern(())


def contains(pattern: ExponentPattern, alpha: int) -> bool:
    """True iff exponent alpha (>= 1) is allowed by the pattern."""
    if alpha < 1:
        raise ValueError(f"exponents are >= 1, got {alpha}")
    return bisect_right(pattern.ends, alpha) & 1 == 1


def min_forbidden(pattern: ExponentPattern) -> int | None:
    """Smallest exponent >= 1 not allowed; None iff every exponent is allowed."""
    ends = pattern.ends
    if ends[:1] != (1,):
        return 1
    return ends[1] if len(ends) > 1 else None


def complement(pattern: ExponentPattern) -> ExponentPattern:
    """The pattern of exactly the forbidden exponents {a >= 1 : not allowed}.

    The boundaries are the same, so the ends only gain or lose a leading 1.
    """
    ends = pattern.ends
    return ExponentPattern(ends[1:] if ends[:1] == (1,) else (1, *ends))


_TERM_RE = re.compile(r"^(\d+)(?:\.\.(\d+|inf))?$")


def parse_pattern(text: str) -> ExponentPattern:
    """Parse the pattern DSL: comma-separated ``a``, ``a..b`` or ``a..inf``.

    Whitespace around terms is ignored; an all-whitespace string parses to
    the empty pattern.  Raises PatternSyntaxError with the character offset
    of the offending term.
    """
    if not isinstance(text, str):
        raise ValueError(f"a pattern is a DSL string, not {type(text).__name__}")
    if text.strip() == "":
        return EMPTY_PATTERN
    chunks = text.split(",")
    raw: list[tuple[int, int | None]] = []
    for i, term in enumerate(map(str.strip, chunks)):
        try:
            raw.append(_parse_term(term))
        except ValueError as exc:
            position = sum(map(len, chunks[:i])) + i + len(chunks[i]) - len(chunks[i].lstrip())
            raise PatternSyntaxError(str(exc), position) from None
    return normalize_intervals(raw)


def _parse_term(term: str) -> tuple[int, int | None]:
    """(lo, hi) of one DSL term, hi = None for ``a..inf``."""
    m = _TERM_RE.match(term)
    if not m:
        raise ValueError(f"malformed term {term!r}")
    lo_text, hi_text = m.groups()
    lo = _int(lo_text, "term", term)
    hi = lo if hi_text is None else None if hi_text == "inf" else _int(hi_text, "term", term)
    if lo == 0:
        raise ValueError("exponent 0 is implicit and cannot appear in a pattern")
    if hi is not None and hi < lo:
        raise ValueError(f"upper end {hi} below lower end {lo}")
    return lo, hi


def pattern_for_prime(pap: PrimeAwarePattern, p: int) -> ExponentPattern:
    """The pattern governing prime p: its exception if present, else the default."""
    return pap.exceptions.get(p, pap.default)


_PRIME_LE_RE = re.compile(r"^p\s*<=\s*(\d+)$")
_PRIME_IN_RE = re.compile(r"^p\s+in\s+[\[{]\s*((?:\d+\s*,\s*)*\d+)?\s*[\]}]$")


def _int(digits: str, kind: str, text: str) -> int:
    """int(digits), or a ValueError naming the ``kind`` ``text`` when int() refuses its length."""
    try:
        return int(digits)
    except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
        limit = sys.get_int_max_str_digits()
        message = f"{kind} {text[:20]!r}... holds an integer of more than {limit} digits"
        raise ValueError(message) from None


def _range_bound(key: str) -> int | None:
    """q for a "p<=q" key, else None."""
    m = _PRIME_LE_RE.match(key.strip())
    return _int(m.group(1), "exception key", key) if m else None


def _expand_prime_key(key: str) -> list[int]:
    """The integers a single-prime or "p in [...]" key names, unchecked."""
    key = key.strip()
    if key.isdecimal():
        return [_int(key, "exception key", key)]
    m = _PRIME_IN_RE.match(key)
    if m:
        body = m.group(1)
        return [_int(part, "exception key", key) for part in body.split(",")] if body else []
    raise ValueError(f"unrecognized exception key {key!r}")


class _PrimeRange(Mapping):
    """Exceptions of a "p<=q" key: every prime up to ``q`` maps to ``pattern``.

    ``rest`` maps the primes of the other keys, all above q.  No prime of
    the range is kept: ``windows`` sieves it segment by segment as it is
    read, and a lookup is one primality test.  Keys iterate ascending, and
    ``reversed`` scans the range down from q by primality tests, no sieve.
    """

    def __init__(self, q: int, pattern: ExponentPattern, rest: dict):
        _check_budget(q)
        self.q, self.pattern, self.rest = q, pattern, rest

    def windows(self, upto: int | None = None) -> Iterator[Sequence[int]]:
        """The primes of the range up to ``upto``, as ascending non-empty sieve segments."""
        yield from filter(len, prime_segments(self.q if upto is None else min(self.q, upto)))

    def __getitem__(self, p: int) -> ExponentPattern:
        if 2 <= p <= self.q and is_prime(p):
            return self.pattern
        return self.rest[p]

    def __iter__(self) -> Iterator[int]:
        return chain(chain.from_iterable(self.windows()), self.rest)

    def __reversed__(self) -> Iterator[int]:
        return chain(reversed(self.rest), filter(is_prime, range(self.q, 1, -1)))

    def __len__(self) -> int:
        return sum(map(len, self.windows())) + len(self.rest)

    def __bool__(self) -> bool:
        return True  # q >= 2, so the range holds 2 without a sieve


def parse_prime_aware(doc: Mapping) -> PrimeAwarePattern:
    """Build a PrimeAwarePattern from a spec document.

    Schema: ``{"default": "<DSL>", "exceptions": {"<key>": "<DSL>"}}``, where
    a key is a prime ("7"), "p<=q" (all primes up to q) or "p in [2,3,5]".
    Duplicate primes arising from overlapping keys are rejected; two "p<=q"
    keys with q >= 2 always share the prime 2.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"pattern spec must be an object, not {type(doc).__name__}")
    if "default" not in doc:
        raise ValueError('pattern spec needs a "default" entry')
    default = parse_pattern(doc["default"])
    keys = doc.get("exceptions", {})
    if not isinstance(keys, Mapping):
        raise ValueError(f'"exceptions" must be an object, not {type(keys).__name__}')
    exceptions: dict[int, ExponentPattern] = {}
    ranges: list[tuple[int, ExponentPattern]] = []
    for key, dsl in keys.items():
        pattern = parse_pattern(dsl)
        q = _range_bound(str(key))
        if q is not None:
            if q >= 2:
                ranges.append((q, pattern))
            continue
        for p in _expand_prime_key(str(key)):
            if p in exceptions:
                raise ValueError(f"prime {p} assigned by more than one exception key")
            exceptions[p] = pattern
    if len(ranges) > 1:
        raise ValueError("prime 2 assigned by more than one exception key")
    checked = PrimeAwarePattern(default=default, exceptions=exceptions)
    if not ranges:
        return checked
    (q, pattern), = ranges
    first = next(iter(checked.exceptions), q + 1)
    if first <= q:
        raise ValueError(f"prime {first} assigned by more than one exception key")
    return PrimeAwarePattern(
        default=default, exceptions=_PrimeRange(q, pattern, checked.exceptions)
    )


def load_spec(path: str) -> PrimeAwarePattern:
    """Load a JSON pattern spec file (schema as in parse_prime_aware)."""
    import json  # only spec files need it

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, parse_int=lambda digits: _int(digits, "spec value", digits))
    return parse_prime_aware(doc)

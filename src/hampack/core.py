"""Words, codes and elementary operations in the Hamming graph H(n, q).

The vertices of H(n, q) are the length-n words over the alphabet
{0, ..., q-1}; two words are adjacent iff they differ in exactly one
coordinate.  Everything downstream (packing verification, bounds,
unitrade machinery, searches) consumes the value types defined here:

  Space -- the pair (n, q) with its validity rules
  Word  -- one vertex; binary words are bit-packed into a single int
           with coordinate 0 at the most significant bit, so integer
           order equals lexicographic order on digit strings; q-ary
           words are packed into bytes (bytes order is again lex order)
  Code  -- an immutable multiset of words of a common space, stored as
           one sorted tuple of keys, so equal codes compare equal and
           output is diffable; ``Code.words`` is built on first use

``Space``, ``Word`` and the other modules' value types are immutable,
made by ``_frozen`` without generated code: built by position or
keyword, equal when of one type with equal fields, hashable, picklable.

Multiplicities are kept on purpose: extremal arguments distinguish
codes with repeated words, and verification reports duplicates rather
than silently collapsing them.

Text interchange format (the only on-disk format used by the package)::

    q n
    <word>      # one n-digit string per line; repeats encode multiplicity

Words are ASCII digit strings over '0'..'q-1'; lines starting with '#'
and blank lines are ignored.  Writers emit words in canonical order.

Only this module turns symbols into keys and back (``_key_of``,
``_symbols_of``, ``_popcount_view``); other modules work on keys and
never branch on a key's type.  The exact packing oracle, for one,
numbers words in key order and takes its balls from ``_ball_keys``.

Input is checked at the boundary (``Word``, ``Word.from_*``, ``Code``,
``Code.from_*``, ``parse_code``).  Inside, ``_word(space, key)`` and
``_code(space, keys)`` build without checks, on the invariant that each
key is valid in that space (an int below 2^n for q = 2, else n bytes
below q), being derived from valid keys or checked once per code.
``_code`` only sorts its keys, and the library reads ``Code.keys``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import comb
from operator import attrgetter
from typing import Iterable, Iterator, Sequence, TextIO

MAX_Q = 10         # digit-string I/O: one character per symbol
MAX_BINARY_N = 64  # binary fast path: one machine word of bits
_DIGITS = b"0123456789"
_TO_SYMBOLS = bytes.maketrans(_DIGITS, bytes(range(10)))
_TO_DIGITS = bytes.maketrans(bytes(range(10)), _DIGITS)
_set = object.__setattr__


def _frozen(cls: type) -> type:
    """Make ``cls`` one of the value types described above; methods it defines are kept."""
    names = tuple(cls.__annotations__)
    slotted = "__slots__" in cls.__dict__  # then the class holds the slots, and no defaults
    defaults = {} if slotted else {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    fields, post = frozenset(names), cls.__dict__.get("__post_init__")
    values = attrgetter(*names) if len(names) > 1 else lambda self: (getattr(self, names[0]),)

    def __init__(self, *args, **kwargs):
        given = {} if slotted else self.__dict__
        given.update(defaults)
        given.update(zip(names, args))
        if kwargs or len(args) != len(names):  # keywords, or a field given twice, never or too often
            clash = len(args) > len(names) or not kwargs.keys().isdisjoint(names[:len(args)])
            given.update(kwargs)
            if clash or given.keys() != fields:
                raise TypeError(f"{cls.__name__}() takes {names}; got {len(args)} positional and {sorted(kwargs)}")
        if slotted:
            for name in names:
                _set(self, name, given[name])
        if post is not None:
            post(self)

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented
    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, names, values(self)))})"
    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": lambda self: hash(values(self)),
               "__repr__": __repr__, "__setattr__": __setattr__, "__delattr__": __setattr__,
               "__reduce__": lambda self: (type(self), values(self)), "__match_args__": names}
    for name, method in methods.items():
        if cls.__dict__.get(name) is None:  # a class body with __eq__ alone sets __hash__ = None
            setattr(cls, name, method)
    return cls


@_frozen
class Space:
    """Parameters (n, q) of the Hamming graph H(n, q)."""

    __slots__ = ("n", "q")
    n: int
    q: int

    def __init__(self, n: int, q: int) -> None:  # spelled out: spaces are built on every parse
        if type(n) is not int or type(q) is not int:
            raise ValueError(f"n and q must be ints, got n={n!r}, q={q!r}")
        if n < 1:
            raise ValueError(f"word length must be positive, got n={n}")
        if q < 2:
            raise ValueError(f"alphabet size must be at least 2, got q={q}")
        if q > MAX_Q:
            raise ValueError(f"alphabet size {q} exceeds digit-string limit {MAX_Q}")
        if q == 2 and n > MAX_BINARY_N:
            raise ValueError(f"binary length {n} exceeds bit-packing limit {MAX_BINARY_N}")
        _set(self, "n", n)
        _set(self, "q", q)

    @property
    def size(self) -> int:
        """Number of vertices q**n."""
        return self.q ** self.n

    @property
    def degree(self) -> int:
        """Vertex degree n*(q-1) of H(n, q)."""
        return self.n * (self.q - 1)

    def ball_size(self, r: int) -> int:
        """|B_r| = sum_{i<=r} C(n,i)(q-1)^i."""
        return _ball_size(self.n, self.q, r)

    def __iter__(self) -> Iterator["Word"]:
        """All q**n words in lexicographic order."""
        if self.q == 2:
            for key in range(1 << self.n):
                yield _word(self, key)
        else:
            for symbols in product(range(self.q), repeat=self.n):
                yield _word(self, bytes(symbols))

    def zero(self) -> "Word":
        return _word(self, _key_of(self, (0,) * self.n))


@_frozen
class Word:
    """One vertex of H(n, q).

    ``key`` is an int (bit-packed, q=2) or a bytes object (q>2); in both
    cases comparing keys of a common space is the lexicographic order on
    digit strings.
    """

    __slots__ = ("space", "key")
    space: Space
    key: int | bytes

    def __post_init__(self) -> None:
        if self.space.q == 2:
            if type(self.key) is not int or not 0 <= self.key < (1 << self.space.n):
                raise ValueError("binary word key out of range")
        elif not isinstance(self.key, bytes) or len(self.key) != self.space.n:
            raise ValueError("word length does not match space")
        elif any(s >= self.space.q for s in self.key):
            raise ValueError("symbol out of alphabet range")

    @classmethod
    def from_symbols(cls, symbols: Iterable[int], q: int) -> "Word":
        syms = tuple(symbols)
        space = Space(len(syms), q)
        if not all(type(s) is int and 0 <= s < q for s in syms):
            raise ValueError(f"symbols must be ints in 0..{q - 1}, got {syms}")
        return _word(space, _key_of(space, syms))

    @classmethod
    def from_string(cls, text: str, q: int) -> "Word":
        space = Space(len(text), q)
        return _word(space, _parse_keys(space, [text])[0])

    @property
    def symbols(self) -> tuple[int, ...]:
        return _symbols_of(self.space, self.key)

    @property
    def parity(self) -> int:
        """Sum of symbols mod 2 (the parity bit for q=2)."""
        return sum(self.symbols) & 1

    def __str__(self) -> str:
        return _key_text(self.space, self.key)

    def __lt__(self, other: "Word") -> bool:
        _check_same_space(self, other)
        return self.key < other.key

    def __le__(self, other: "Word") -> bool:
        _check_same_space(self, other)
        return self.key <= other.key

    def __add__(self, other: "Word") -> "Word":
        """Coordinatewise addition mod q."""
        _check_same_space(self, other)
        return _word(self.space, _add_keys(self.space.q, self.key, other.key))

    def __neg__(self) -> "Word":
        q = self.space.q
        return _word(self.space, _key_of(self.space, [(-s) % q for s in self.symbols]))

    def __sub__(self, other: "Word") -> "Word":
        return self + (-other)


_new_word = object.__new__
_set_space = Word.space.__set__
_set_key = Word.key.__set__


def _word(space: Space, key: int | bytes) -> Word:
    """A Word from a key known to be valid in ``space``, built unchecked."""
    w = _new_word(Word)
    _set_space(w, space)
    _set_key(w, key)
    return w


def _key_of(space: Space, symbols: Iterable[int]) -> int | bytes:
    """The key of the word with these symbols, each known to lie in 0..q-1."""
    if space.q == 2:
        key = 0
        for s in symbols:
            key = key << 1 | s
        return key
    return bytes(symbols)


def _symbols_of(space: Space, key: int | bytes) -> tuple[int, ...]:
    """The symbols of the word with this key, coordinate 0 first."""
    if space.q == 2:
        n = space.n
        return tuple(key >> (n - 1 - i) & 1 for i in range(n))
    return tuple(key)


def _popcount_view(space: Space, keys: Sequence[int | bytes]) -> tuple[Sequence[int], int]:
    """Ints for the keys, and a shift, such that ``(a ^ b).bit_count() >> shift``
    is the distance of two of the words.  Binary keys are their own view;
    a q-ary key is spread one-hot over q bits per symbol, so two words
    differ in two bits per differing symbol."""
    if space.q == 2:
        return keys, 0
    q = space.q
    return [sum(1 << (q * i + s) for i, s in enumerate(k)) for k in keys], 1


def _add_keys(q: int, a: int | bytes, b: int | bytes) -> int | bytes:
    """The key of the coordinatewise sum mod q of two words."""
    return a ^ b if q == 2 else bytes((x + y) % q for x, y in zip(a, b))


def _check_same_space(x: Word | Code, y: Word, mismatch: str = "space mismatch") -> None:
    """Refuse ``y`` unless it is a Word of the space of ``x`` (a Word or a
    Code).  A Word of the very space object of ``x`` costs one class test
    and one identity test."""
    try:
        if y.__class__ is Word and x.space is y.space:
            return
    except AttributeError:
        pass
    if not isinstance(y, Word):
        raise ValueError(f"expected a Word, got {y!r}")
    if not isinstance(x, (Word, Code)):
        raise ValueError(f"expected a Word or a Code, got {x!r}")
    if x.space != y.space:
        raise ValueError(f"{mismatch}: {x.space} vs {y.space}")


def hamming_distance(x: Word, y: Word) -> int:
    """Number of coordinates in which x and y differ."""
    _check_same_space(x, y)
    if x.space.q == 2:
        return (x.key ^ y.key).bit_count()
    return sum(a != b for a, b in zip(x.key, y.key))


def weight(x: Word) -> int:
    """Number of nonzero symbols."""
    return sum(s != 0 for s in x.symbols)


def antipode(x: Word) -> Word:
    """x + all-one word (binary only)."""
    if x.space.q != 2:
        raise ValueError("antipode is defined for q=2 only")
    return _word(x.space, x.key ^ ((1 << x.space.n) - 1))


def _check_radius(n: int, r: int) -> None:
    """The one check of a ball radius: an int in 0..n (a bool is refused)."""
    if type(r) is not int or not 0 <= r <= n:
        raise ValueError(f"radius must be an int in 0..{n}, got {r!r}")


def _check_lambda(lam: int) -> None:
    """The one check of a multiplicity lambda: an int >= 1 (a bool is refused)."""
    if type(lam) is not int or lam < 1:
        raise ValueError(f"lambda must be a positive int, got {lam!r}")


def _ball_size(n: int, q: int, r: int) -> int:
    """|B_r| in H(n, q), free of the length and alphabet limits of ``Space``."""
    _check_radius(n, r)
    return sum(comb(n, i) * (q - 1) ** i for i in range(r + 1))


def ball(center: Word, r: int) -> Iterator[Word]:
    """All words at distance <= r from the center, each exactly once."""
    space = center.space
    _check_radius(space.n, r)
    return (_word(space, k) for k in _ball_keys(space, center.key, r))


def _ball_keys(space: Space, key: int | bytes, r: int) -> Iterator[int | bytes]:
    """Keys of the words at distance <= r from ``key``, each exactly once:
    by distance, then by changed positions, then by symbol shifts."""
    n, q = space.n, space.q
    if q == 2:
        return map(key.__xor__, _flip_masks(n, r) or _flip_walk(n, r))
    return _qary_ball_keys(n, q, key, r)


@lru_cache(maxsize=32)
def _flip_masks(n: int, r: int) -> tuple[int, ...]:
    """The masks of a ball of at most 2,081 members (radius 2 at n = 64); () past that."""
    return tuple(_flip_walk(n, r)) if _ball_size(n, 2, r) <= 2081 else ()


def _flip_walk(n: int, r: int) -> Iterator[int]:
    """The XOR masks of a binary radius-r ball, in ``_ball_keys`` order."""
    bits = [1 << (n - 1 - i) for i in range(n)]
    for k in range(r + 1):
        for flips in combinations(bits, k):
            yield sum(flips)


def _qary_ball_keys(n: int, q: int, key: bytes, r: int) -> Iterator[bytes]:
    """Each member is cut from slices of ``key`` and one-byte slices ``cycle[j:j + 1]`` (j mod q)."""
    cycle = bytes(range(q)) * 2
    yield key
    if r:
        yield from [key[:i] + cycle[j:j + 1] + key[i + 1:]
                    for i in range(n) for j in range(key[i] + 1, key[i] + q)]
    for k in range(2, r + 1):
        for positions in combinations(range(n), k):
            pieces, end = [], n  # each changed symbol with the key up to the next change
            for i in reversed(positions):
                pieces.append([cycle[j:j + 1] + key[i + 1:end] for j in range(key[i] + 1, key[i] + q)])
                end = i
            yield from map(key[:end].__add__, map(b"".join, product(*reversed(pieces))))


def coverage_multiplicity(code: "Code", v: Word, r: int) -> int:
    """Multiset count of codewords within distance r of v."""
    _check_same_space(code, v)
    _check_radius(code.space.n, r)
    return sum(1 for c in code if hamming_distance(c, v) <= r)


class Code:
    """An immutable multiset of words of one space, stored as sorted keys."""

    __slots__ = ("space", "keys", "_words")

    def __init__(self, space: Space, words: Iterable[Word]):
        if not isinstance(space, Space):
            raise ValueError(f"space must be a Space, got {space!r}")
        keys = []
        for w in words:
            if not isinstance(w, Word) or w.space is not space and w.space != space:
                raise ValueError(f"word {w!r} does not live in {space}")
            keys.append(w.key)
        self.space, self.keys, self._words = space, tuple(sorted(keys)), None

    @property
    def words(self) -> tuple[Word, ...]:
        """The words in key order, built on first access."""
        if self._words is None:
            self._words = tuple([_word(self.space, k) for k in self.keys])
        return self._words

    @classmethod
    def from_strings(cls, texts: Iterable[str], q: int) -> "Code":
        texts = list(texts)
        if not texts:
            raise ValueError("cannot infer the space of an empty code; pass Space explicitly")
        space = Space(len(texts[0]), q)
        return _code(space, _parse_keys(space, texts))

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, w: Word) -> bool:
        return self.multiplicity(w) > 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Code) and self.space == other.space and self.keys == other.keys

    def __hash__(self) -> int:
        return hash((self.space, self.keys))

    def __repr__(self) -> str:
        return f"Code(n={self.space.n}, q={self.space.q}, size={len(self.keys)})"

    def multiplicity(self, w: Word) -> int:
        if not isinstance(w, Word) or (w.space is not self.space and w.space != self.space):
            return 0
        lo = bisect_left(self.keys, w.key)
        return bisect_right(self.keys, w.key, lo) - lo

    def duplicate_words(self) -> list[Word]:
        """Distinct words occurring with multiplicity > 1, in key order."""
        return [_word(self.space, k) for k, m in Counter(self.keys).items() if m > 1]

    def support(self) -> "Code":
        """The underlying set (multiplicities dropped)."""
        return _code(self.space, set(self.keys))

    @classmethod
    def from_bits(cls, space: Space, keys: Iterable[int]) -> "Code":
        if space.q != 2:
            raise ValueError("from_bits is available for q=2 only")
        keys, limit = list(keys), 1 << space.n
        if not all(type(k) is int and 0 <= k < limit for k in keys):
            raise ValueError("binary word key out of range")
        return _code(space, keys)

    def translate(self, t: Word) -> "Code":
        _check_same_space(self, t)
        return _code(self.space, (_add_keys(self.space.q, k, t.key) for k in self.keys))


def _code(space: Space, keys: Iterable[int | bytes]) -> Code:
    """A Code from keys known to be valid in ``space``, built unchecked."""
    code = object.__new__(Code)
    code.space, code.keys, code._words = space, tuple(sorted(keys)), None
    return code


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _parse_keys(space: Space, texts: list[str]) -> list[int | bytes]:
    """Keys of n-character strings over the ASCII digits '0'..'q-1';
    the ValueError names the first string that is not one."""
    n, q = space.n, space.q
    body = "".join(texts)
    if (not set(map(len, texts)) <= {n} or not body.isascii()
            or body.encode().translate(None, _DIGITS[:q])):
        for text in texts:
            if len(text) != n:
                raise ValueError(f"word {text!r} has length {len(text)}, expected {n}")
            if not text.isascii() or text.encode().translate(None, _DIGITS[:q]):
                raise ValueError(f"bad word {text!r} over alphabet 0..{q - 1}")
    if q == 2:
        return [int(text, 2) for text in texts]
    symbols = body.encode().translate(_TO_SYMBOLS)
    return [symbols[i:i + n] for i in range(0, len(symbols), n)]


def _key_text(space: Space, key: int | bytes) -> str:
    if space.q == 2:
        return format(key, f"0{space.n}b")
    return key.translate(_TO_DIGITS).decode()


def format_code(code: Code) -> str:
    space = code.space
    lines = [f"{space.q} {space.n}"]
    lines.extend(_key_text(space, k) for k in code.keys)
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> Code:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty code file: missing 'q n' header")
    header = lines[0].split()
    if len(header) != 2 or not all(h.isascii() and h.isdigit() for h in header):
        raise ValueError(f"bad header {lines[0]!r}: expected 'q n'")
    q, n = int(header[0]), int(header[1])
    space = Space(n, q)
    return _code(space, _parse_keys(space, lines[1:]))


def write_code(code: Code, stream: TextIO) -> None:
    stream.write(format_code(code))


def read_code(stream: TextIO) -> Code:
    return parse_code(stream.read())

"""Indented JSON text, byte-identical to ``json.dumps(obj, indent=2)``.

Setting ``indent`` makes ``json.dumps`` give up its C encoder and walk the
value with recursive Python generators, one generator per container and
one ``yield`` per token. ``dumps_indented`` writes the same text with the
C pieces the stdlib encoder is built from (``encode_basestring_ascii``
for strings and keys, ``int.__repr__`` and ``float.__repr__`` for
numbers), collects it in one list of chunks and joins it once. It walks
containers with an explicit stack, so how deeply a value nests is bounded
by memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

_int = int.__repr__
_repr = float.__repr__
_INF = float("inf")


def _float(x) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return _repr(x)


def _key(k) -> str:
    """A dict key as json writes it: str, or a scalar turned into a string."""
    if isinstance(k, str):
        return _string(k)
    if isinstance(k, float):
        return '"' + _float(k) + '"'
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return '"' + _int(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _scalar(o) -> str:
    """Any value but a list, tuple or dict, in json's order of tests."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def dumps_indented(obj) -> str:
    """``json.dumps(obj, indent=2)`` with every other option at its default:
    ASCII output, NaN and infinities allowed, a cycle is a ValueError and
    an unsupported value or key a TypeError."""
    out: list = []
    emit = out.append
    # one entry per open container: (item iterator, dict?, separator
    # before each later item, closing text, id)
    stack: list = []
    open_ids: set = set()
    newline = ["\n"]    # newline[d]: line break and indent of depth d
    o = obj
    while True:
        if not isinstance(o, (list, tuple, dict)):
            emit(_scalar(o))
        elif not o:
            emit("{}" if isinstance(o, dict) else "[]")
        else:
            ident = id(o)
            if ident in open_ids:
                raise ValueError("Circular reference detected")
            open_ids.add(ident)
            depth = len(stack) + 1
            if depth == len(newline):
                newline.append(newline[-1] + "  ")
            is_dict = isinstance(o, dict)
            items = iter(o.items() if is_dict else o)
            o = next(items)
            if is_dict:
                k, o = o
                emit("{" + newline[depth] + _key(k) + ": ")
            else:
                emit("[" + newline[depth])
            stack.append((items, is_dict, "," + newline[depth],
                          newline[depth - 1] + ("}" if is_dict else "]"),
                          ident))
            continue
        # emit the scalars of exact types that follow, and closers, up to
        # the next value the loop above has to look at
        while stack:
            items, is_dict, sep, close, ident = stack[-1]
            for o in items:
                if is_dict:
                    k, o = o
                    head = sep + (_string(k) if type(k) is str
                                  else _key(k)) + ": "
                else:
                    head = sep
                t = type(o)
                if t is str:
                    emit(head + _string(o))
                elif t is float:
                    emit(head + _float(o))
                elif t is int:
                    emit(head + _int(o))
                else:
                    emit(head)
                    break
            else:
                stack.pop()
                open_ids.discard(ident)
                emit(close)
                continue
            break
        else:
            return "".join(out)


class IndentedEncoder(json.JSONEncoder):
    """``json.dumps(obj, indent=2, cls=IndentedEncoder)`` is
    ``dumps_indented(obj)``; callers keep every other option at its
    default."""

    def encode(self, o) -> str:
        return dumps_indented(o)

"""JSON text of output values, as ``json.dumps(value, indent=2)`` writes it.

Every value is encoded by its exact type: dicts with str keys, lists, and
the scalars of ``SCALARS`` (str, int, bool and None).  Anything else raises
TypeError, a float above all, so output that carries no float is checked on
every run rather than assumed.  ``text`` gives a value's text at any
indentation, so a part made on its own (one verify record) fits unchanged
into the document it goes in; ``writer`` gives it piece by piece.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

#: JSON text of each scalar type output may carry, by exact type: no float,
#: and no subclass but bool.
SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def scalar(value) -> str:
    """The JSON text of one scalar; TypeError for any type not in ``SCALARS``."""
    text = SCALARS.get(type(value))
    if text is None:
        raise TypeError(f"output cannot carry {type(value).__name__} {value!r}")
    return text(value)


def writer(put, flush=None):
    """``write(value, pad)``: put the text of value through ``put``, piece by piece.

    ``pad`` is a newline and the value's indentation: the text of an item of
    a dict or list is indented two spaces more than its container.  Depth
    first, each value by its exact type; ``flush()``, when given, is called
    after each list element.
    """

    def write(value, pad):
        kind = type(value)
        if kind is dict and value:
            inner = pad + "  "
            sep = "{" + inner
            for key, item in value.items():
                text = SCALARS.get(type(item))
                if text is None:
                    put(sep + encode_basestring_ascii(key) + ": ")  # TypeError unless key is a str
                    write(item, inner)
                else:  # a scalar value goes out with its key in one piece
                    put(sep + encode_basestring_ascii(key) + ": " + text(item))
                sep = "," + inner
            put(pad + "}")
        elif kind is list and value:
            inner = pad + "  "
            sep = "[" + inner
            for item in value:
                put(sep)
                write(item, inner)
                if flush is not None:
                    flush()
                sep = "," + inner
            put(pad + "]")
        elif kind is dict or kind is list:
            put("{}" if kind is dict else "[]")
        else:
            put(scalar(value))

    return write


def text(value, pad: str = "\n") -> str:
    """The JSON text of value at indentation ``pad`` (see ``writer``)."""
    chunks = []
    writer(chunks.append)(value, pad)
    return "".join(chunks)

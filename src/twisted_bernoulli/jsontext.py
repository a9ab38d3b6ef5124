"""JSON text of output values, as ``json.dumps(value, indent=2)`` writes it.

Every value is encoded by its exact type: dicts with str keys, lists, and
the scalars of ``SCALARS`` (str, int, bool and None).  Anything else raises
TypeError, a float above all, so output that carries no float is checked on
every run rather than assumed.  ``text`` gives a value's text at any
indentation, so a part made on its own (one verify record) fits unchanged
into the document it goes in.
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


def text(value, pad: str = "\n") -> str:
    """The JSON text of value at indentation ``pad``.

    ``pad`` is a newline and the value's indentation: the text of an item of
    a dict or list is indented two spaces more than its container.  Depth
    first, each value by its exact type.
    """
    kind = type(value)
    if kind is dict and value:
        inner = pad + "  "
        items = []
        for key, item in value.items():
            encode = SCALARS.get(type(item))
            value_text = text(item, inner) if encode is None else encode(item)
            items.append(encode_basestring_ascii(key) + ": " + value_text)  # TypeError unless key is a str
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list and value:
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([text(item, inner) for item in value]) + pad + "]"
    if kind is dict or kind is list:
        return "{}" if kind is dict else "[]"
    return scalar(value)

"""Exact rational scalars and their textual form.

All arithmetic in this package is exact.  Every scalar that a public object
exposes is a ``fractions.Fraction``, always in lowest terms with a positive
denominator; floats are rejected everywhere so no rounding can sneak in.

One layer works over the integers first: the carrier layer (``algebroid``)
keeps its coefficients as ``exact`` returns them, integral ones as plain
``int`` and the rest as ``Fraction``.  Its elements and tensors expose their
coefficients and coordinates as ``Fraction``s; only its label-level
structure constants keep the internal form.  It only adds, subtracts and
multiplies, which are exact on mixed ``int`` and ``Fraction`` operands; it
never divides, since ``int / int`` is a float.

Every sparse coefficient map is built by ``add_terms``, which accumulates
``(key, c)`` pairs, or by ``linear``, the one fold of terms through a linear map.
"""

from __future__ import annotations

from fractions import Fraction


def rat(value) -> Fraction:
    """Coerce an int, a string like ``"3/4"`` or ``"-2"``, or a Fraction.

    Floats are rejected on purpose: they would silently destroy exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"cannot coerce {type(value).__name__} to a rational")


def exact(value):
    """``rat(value)``, but an integral value comes back as a plain ``int``.

    Accepts and rejects exactly what ``rat`` does.
    """
    if type(value) is int:
        return value
    value = rat(value)
    return value.numerator if value.denominator == 1 else value


def rat_str(value: Fraction) -> str:
    """Render as ``"p/q"``, or plain ``"p"`` when the denominator is 1."""
    value = rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def add_terms(out: dict, pairs) -> dict:
    """Add ``(key, coeff)`` pairs into the zero-free map ``out``, in place.

    A key whose coefficient cancels is removed, so ``out`` stays zero-free;
    a new key stores ``c`` itself, so callers pass Fractions.
    Every sparse coefficient map in the package (PBW monomials, carrier
    labels, same-target label tuples) is accumulated through here.
    """
    get = out.get
    for key, c in pairs:
        acc = get(key)
        if acc is None:
            if c:
                out[key] = c
        elif acc := acc + c:
            out[key] = acc
        else:
            del out[key]
    return out


def linear(terms, image) -> dict:
    """The coefficient map of ``sum c * image(key)`` over ``(key, c)`` terms.

    ``image(key)`` gives ``(key, w)`` terms, added in through one
    ``add_terms`` per input term, in order; that fixes the key order.
    """
    out = {}
    for key, c in terms:
        add_terms(out, ((k, c * w) for k, w in image(key)))
    return out

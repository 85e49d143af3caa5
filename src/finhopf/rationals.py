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
never divides, since ``int / int`` is a float.  A Lie fiber keeps its
structure constants (``LieFiber.terms``) in the same form.

Every sparse coefficient map is built by one of three folds: ``add_terms``
adds ``(key, c)`` pairs into a map, ``linear`` folds terms through a linear
map, and ``bilinear`` folds two term sequences through a bilinear one.  Each
runs the same accumulate step inline, with no generator per input term, and
keeps its map zero-free: a key whose coefficient cancels is removed.
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
    a new key stores ``c`` itself, so callers pass exact scalars.
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

    ``image(key)`` gives ``(key, w)`` terms, accumulated as ``add_terms``
    does, input term by input term, in order; that fixes the key order.
    """
    out = {}
    get = out.get
    for key, c in terms:
        for k, w in image(key):
            w = c * w
            acc = get(k)
            if acc is None:
                if w:
                    out[k] = w
            elif acc := acc + w:
                out[k] = acc
            else:
                del out[k]
    return out


def bilinear(left, right, product) -> dict:
    """The coefficient map of ``sum c1 * c2 * product(k1, k2)`` over the term pairs.

    It visits the ``(k1, c1)`` terms of ``left``, and for each the ``(k2, c2)``
    terms of ``right`` (so ``right`` is iterated once per left term), and
    accumulates as ``add_terms`` does, in that order; that fixes the key
    order, and the first pair whose ``product`` raises is the one reported.
    """
    out = {}
    get = out.get
    for k1, c1 in left:
        for k2, c2 in right:
            c12 = c1 * c2
            for k, w in product(k1, k2):
                w = c12 * w
                acc = get(k)
                if acc is None:
                    if w:
                        out[k] = w
                elif acc := acc + w:
                    out[k] = acc
                else:
                    del out[k]
    return out

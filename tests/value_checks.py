"""Checks shared by the value-type and decoder tests.

A decoder builds its value types around their checking `__new__` for the
fields its input format bounds.  `check_rebuild` runs, on a value a
decoder returned, every check the decoder skipped: rebuilding it through
the public `_make` must give it back, so a value the constructor would
refuse fails the test.
"""

import re

import pytest

from lowpan.frame import Eui64, Short16


def check_rebuild(value):
    """`type(value)._make(value) == value`, and so for each `Short16` or `Eui64` field."""
    assert type(value)._make(value) == value
    for field in value:
        if isinstance(field, (Short16, Eui64)):
            assert type(field)._make(field) == field


def raises_exactly(error, message, build):
    """`build()` raises `error` itself, not a subclass, with `message` in its text."""
    with pytest.raises(error, match=re.escape(message)) as caught:
        build()
    assert caught.type is error

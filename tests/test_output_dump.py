"""The output-hash dump at scale 1 equals the line pinned for it."""

from fractions import Fraction

import output_dump


def test_output_dump_is_pinned_at_scale_one():
    assert output_dump.summary(Fraction(1)) == output_dump.expected(Fraction(1))

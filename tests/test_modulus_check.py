"""One check for a modulus: monic of degree at least 1.

``FieldCtx.pmodulus`` is the only place that checks it; the unit group, the
stick context, the Carlitz torsion polynomial and algebra, and
``partial_fractions`` all refuse a bad modulus through it, with one message,
and the CLI turns that refusal into exit status 2.
"""

import subprocess
import sys

import pytest

from ffstick.carlitz import TorsionAlgebra, partial_fractions, psi_cyclotomic
from ffstick.fieldcore import Poly, field_context
from ffstick.groupring import unit_group
from ffstick.lseries import stick_context

C3 = field_context(3)
MESSAGE = "^modulus must be monic of degree at least 1$"


@pytest.mark.parametrize("entry", [C3.pmodulus, lambda I: unit_group(C3, I),
                                   lambda I: stick_context(C3, I),
                                   lambda I: psi_cyclotomic(C3, I),
                                   lambda I: TorsionAlgebra(C3, I),
                                   lambda I: partial_fractions(C3, I)],
                         ids=["pmodulus", "unit_group", "stick_context", "psi_cyclotomic",
                              "TorsionAlgebra", "partial_fractions"])
@pytest.mark.parametrize("I", [(1, 2), (1,)], ids=["1+2t", "1"])
def test_every_entry_refuses_a_bad_modulus_with_one_message(entry, I):
    with pytest.raises(ValueError, match=MESSAGE):
        entry(I)


def test_pmodulus_returns_the_validated_tuple():
    assert C3.pmodulus([2, 0, 1, 0]) == (2, 0, 1)
    assert C3.pmodulus(Poly(C3, [0, 1])) == (0, 1)


@pytest.mark.parametrize("command", [("stick", "verify"), ("carlitz", "psi")])
def test_the_cli_exits_two_on_a_bad_modulus(command):
    proc = subprocess.run([sys.executable, "-m", "ffstick.cli", *command,
                           "--p", "3", "--ideal", "1,2"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "modulus must be monic of degree at least 1" in proc.stderr

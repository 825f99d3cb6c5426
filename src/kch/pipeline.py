"""One pipeline per diagram: crossing data, the framed knot DGA (whose
differential is built only when read), the degree-0 presentation read off
its dB and dC, its simplification, augmentation counts and the
augmentation polynomial, each computed at most once and only on demand.
Stages are called through this module's globals, so a wrapper rebound
here by name sees every call."""

from __future__ import annotations

from functools import cached_property

from .augment import Signature, count_augmentations
from .augpoly import augmentation_polynomial
from .dga import build_dga
from .diagram import crossing_data
from .hc0 import relation_presentation, simplify


class Run:
    """The stages of one diagram, each cached on first use."""

    def __init__(self, pd):
        self.pd = pd

    @cached_property
    def cd(self):
        return crossing_data(self.pd)

    @cached_property
    def dga(self):
        return build_dga(self.cd)

    @cached_property
    def presentation(self):
        """The entries of the DGA's dB = PsiL.A and dC = A.PsiR."""
        return relation_presentation(self.dga)

    @cached_property
    def simplified(self):
        return simplify(self.presentation)

    @cached_property
    def augpoly(self):
        return augmentation_polynomial(self.simplified)

    def signature(self, primes):
        """Augmentation tables of the simplified presentation per prime."""
        pres = self.simplified
        return Signature(primes=tuple(primes), tables=tuple(
            count_augmentations(pres, p) for p in primes))

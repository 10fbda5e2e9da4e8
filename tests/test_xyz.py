"""Signatures, and the multigrading and variable symmetries of the T generators.

The multidegree split, the S3 letter permutations and the index relabelling
are test-side references (``conftest``).  Some tests here check those
references; the others check the T generators against them.
"""

import itertools
import math
import pickle

import pytest
from hypothesis import given, settings

from conftest import (
    S3,
    multidegree_components,
    permute_letters,
    polynomials,
    relabel_indices,
)
from tensorcert.ideals import generator_T
from tensorcert.parse import parse_polynomial
from tensorcert.poly import PolyRing
from tensorcert.xyz import Signature, pair_order, split_terms, uses_t, xyz_ring

R1 = xyz_ring(1)
R2 = xyz_ring(2)
R4 = xyz_ring(4)


def p(ring, text):
    return parse_polynomial(text, ring)


def compose_s3(first, then):
    """Apply ``first``, then ``then``."""
    return {w: then[first[w]] for w in "xyz"}


class TestSignature:
    def test_parse_and_str_roundtrip(self):
        sig = Signature.parse("+-+")
        assert sig.entries == (1, -1, 1)
        assert str(sig) == "+-+"

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            Signature((1, 0))
        with pytest.raises(ValueError):
            Signature(())

    def test_sweep_order_plus_first(self):
        sweep = [str(s) for s in Signature.sweep(2)]
        assert sweep == ["++", "+-", "-+", "--"]

    def test_power(self):
        sig = Signature.parse("+-")
        assert sig.power((0, 1)) == -1
        assert sig.power((2, 2)) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_power_is_the_product_definition(self, n):
        for sig in Signature.sweep(n):
            for exponents in itertools.product(range(3), repeat=n):
                expected = math.prod(e**j for e, j in zip(sig, exponents))
                assert sig.power(exponents) == expected, (str(sig), exponents)

    @pytest.mark.parametrize("text", ["+", "-", "++", "+-", "--", "-+-"])
    def test_pickle_keeps_a_working_power(self, text):
        sig = Signature.parse(text)
        back = pickle.loads(pickle.dumps(sig))
        assert back == sig and hash(back) == hash(sig)
        for exponents in itertools.product(range(3), repeat=sig.n):
            assert back.power(exponents) == sig.power(exponents)


class TestLetterShift:
    @pytest.mark.parametrize(
        "pair, letters", [(("x", "z"), "xyz"), (("x", "y"), "yzx"), (("y", "z"), "zxy")]
    )
    def test_pair_order_is_the_explicit_rotation(self, pair, letters):
        ranking = tuple(f"{w}{i}" for i in (2, 1) for w in letters)
        assert pair_order(pair, 2).ranking == ranking
        assert pair_order(pair[::-1], 2).ranking == ranking


class TestSplitTerms:
    def test_blocks_with_and_without_t(self):
        f = p(R2, "3*x1*y2^2*z1 - x2")
        expected = [((1, 0), (0, 2), (1, 0), 3), ((0, 1), (0, 0), (0, 0), -1)]
        assert sorted(split_terms(f, 2)) == sorted(expected)
        t_free = f.map_ring(xyz_ring(2, with_t=True))
        assert not uses_t(t_free)
        assert sorted(split_terms(t_free, 2)) == sorted(expected)

    def test_t_dependent_polynomial_refused(self):
        rt = xyz_ring(1, with_t=True)
        f = rt.var("t") * rt.var("x1")
        assert uses_t(f) and not uses_t(p(R1, "x1"))
        with pytest.raises(ValueError):
            split_terms(f, 1)

    def test_foreign_layout_refused(self):
        ring = PolyRing(["y1", "x1", "z1"])
        with pytest.raises(ValueError, match="layout"):
            split_terms(ring.var("x1"), 1)


class TestMultidegree:
    def test_single_component(self):
        f = p(R1, "x1*y1 + z1^2")
        comps = multidegree_components(f)
        assert list(comps) == [(2,)]
        assert comps[(2,)] == f

    def test_two_components(self):
        f = p(R1, "x1 + x1*y1")
        comps = multidegree_components(f)
        assert set(comps) == {(1,), (2,)}
        assert comps[(1,)] == p(R1, "x1")

    def test_zero_gives_empty_map(self):
        assert multidegree_components(R1.zero) == {}

    def test_t_is_rejected(self):
        rt = xyz_ring(1, with_t=True)
        with pytest.raises(ValueError):
            multidegree_components(rt.var("t") * rt.var("x1"))


@given(f=polynomials(R2, max_terms=6))
@settings(max_examples=80)
def test_components_reassemble_and_are_homogeneous(f):
    comps = multidegree_components(f)
    total = R2.zero
    for degree, comp in comps.items():
        total = total + comp
        assert set(multidegree_components(comp)) == {degree}
    assert total == f


class TestS3Action:
    def test_swap_x_y(self):
        assert permute_letters(p(R2, "x1*y2"), S3["(12)"]) == p(R2, "y1*x2")

    def test_identity(self):
        f = p(R2, "x1*z2 - y1")
        assert permute_letters(f, S3["e"]) == f

    @given(f=polynomials(R2, max_terms=4))
    @settings(max_examples=60)
    def test_group_action_composition(self, f):
        for s_name in ("(12)", "(123)"):
            for t_name in ("(13)", "(132)"):
                sigma = S3[s_name]
                tau = S3[t_name]
                lhs = permute_letters(permute_letters(f, sigma), tau)
                assert lhs == permute_letters(f, compose_s3(sigma, tau))

    def test_torsion_transport_for_all_skew(self):
        # sigma T^s = T^{sigma's} with sigma' = (132) sigma (123), all-skew case
        sig = Signature.parse("--")
        slot = {"x": 1, "y": 2, "z": 3}
        for name, sigma in S3.items():
            sigma_prime = compose_s3(
                compose_s3(S3["(132)"], sigma), S3["(123)"]
            )
            # left action on tuples: (sigma' s)_p = s_{sigma'^{-1}(p)}
            inverse = {slot[sigma_prime[w]]: slot[w] for w in sigma_prime}
            for s in [(1, 1, 2), (2, 1, 1), (1, 2, 2), (1, 2, 1)]:
                transported = tuple(s[inverse[pos] - 1] for pos in (1, 2, 3))
                lhs = permute_letters(generator_T(*s, sig, R2), sigma)
                assert lhs == generator_T(*transported, sig, R2), name

    def test_torsion_transport_mixed_signature_up_to_sign(self):
        sig = Signature.parse("+-")
        for name, sigma in S3.items():
            lhs = permute_letters(generator_T(1, 2, 1, sig, R2), sigma)
            matches = any(
                lhs == image or lhs == -image
                for image in (
                    generator_T(i, j, k, sig, R2)
                    for i in (1, 2)
                    for j in (1, 2)
                    for k in (1, 2)
                )
            )
            assert matches, name


class TestIndexMap:
    def test_relabeling(self):
        f = p(R4, "x2*y4")
        assert relabel_indices(f, {2: 1, 4: 2}) == p(R4, "x1*y2")

    def test_identity(self):
        f = p(R2, "x1*z2")
        assert relabel_indices(f, {1: 1, 2: 2}) == f

    def test_torsion_transport(self):
        # order-preserving relabeling carries T^{ijk} to T^{rho(i)rho(j)rho(k)}
        # for the signature with entry rho(i) equal to entry i (+1 elsewhere)
        sig = Signature.parse("+--+")
        rho = {1: 2, 3: 3, 4: 4}
        lhs = relabel_indices(generator_T(1, 3, 4, sig, R4), rho)
        sig_rho = Signature((1, 1, -1, 1))
        assert lhs == generator_T(2, 3, 4, sig_rho, R4)

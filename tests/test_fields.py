import pytest
from hypothesis import given, strategies as st

from lowerq import FpScalar, GeneratorFamily, GradedElement, binom_mod_p, is_prime, lucas_binom

PRIMES = [2, 3, 5, 7, 11, 13]


def pascal_rows(p, n_max):
    """Independent oracle: additive Pascal triangle reduced mod p."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append(
            [1] + [(prev[k - 1] + prev[k]) % p for k in range(1, n)] + [1]
        )
    return rows


def factorial_binom(n, k):
    """Independent oracle: direct factorial evaluation."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= n - i
        den *= i + 1
    return num // den


class TestFpScalar:
    def test_reduction_at_construction(self):
        assert FpScalar(7, 5).value == 2
        assert FpScalar(-1, 5).value == 4

    def test_nonprime_modulus_rejected(self):
        for bad in (0, 1, 4, 6, 9):
            with pytest.raises(ValueError):
                FpScalar(1, bad)

    def test_truth_hash_and_repr(self):
        assert FpScalar(3, 5) and not FpScalar(10, 5)
        assert hash(FpScalar(8, 5)) == hash(FpScalar(3, 5))
        assert {FpScalar(8, 5), FpScalar(3, 5), FpScalar(3, 7)} == {FpScalar(3, 5), FpScalar(3, 7)}
        assert repr(FpScalar(-1, 5)) == "FpScalar(4, p=5)"


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(-3)


def test_is_prime_trial_divides_each_modulus_once():
    # every GradedElement checks its modulus, so a large prime would
    # otherwise be trial-divided up to its square root per element
    x = GeneratorFamily("x", 2, 0)
    is_prime.cache_clear()
    for i in range(2000):
        GradedElement(x, 1000003, {i: 1})
    assert is_prime.cache_info().misses == 1


class TestBinom:
    def test_examples(self):
        assert factorial_binom(5, 2) == 10
        assert binom_mod_p(5, 2, 2) == FpScalar(0, 2)
        assert binom_mod_p(17, 0, 3) == FpScalar(1, 3)
        # 252 mod 5; Lucas digits 10=(2,0)_5, 5=(1,0)_5 give C(2,1)*C(0,0)=2
        assert factorial_binom(10, 5) == 252
        assert binom_mod_p(10, 5, 5) == FpScalar(2, 5)

    def test_k_above_n_is_zero(self):
        assert binom_mod_p(3, 4, 2).value == 0
        assert lucas_binom(0, 1, 7) == 0

    def test_nonprime_modulus_rejected(self):
        # checked before the digit loop, which would not stop at p = 1
        for bad in (0, 1, 4, 6, 9, True):
            with pytest.raises(ValueError):
                binom_mod_p(3, 1, bad)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_pascal_oracle(self, p):
        rows = pascal_rows(p, 200)
        for n in range(201):
            for k in range(n + 1):
                assert lucas_binom(n, k, p) == rows[n][k], (n, k, p)

    def test_matches_factorial_oracle_spot(self):
        for p in PRIMES:
            for n in range(0, 90, 7):
                for k in range(0, n + 1, 3):
                    assert lucas_binom(n, k, p) == factorial_binom(n, k) % p

    @given(
        n=st.integers(min_value=1, max_value=200),
        k=st.integers(min_value=1, max_value=200),
        p=st.sampled_from(PRIMES),
    )
    def test_pascal_identity(self, n, k, p):
        if k > n:
            k = n
        lhs = lucas_binom(n, k, p)
        rhs = (lucas_binom(n - 1, k - 1, p) + lucas_binom(n - 1, k, p)) % p
        assert lhs == rhs

    @given(
        n=st.integers(min_value=0, max_value=500),
        k=st.integers(min_value=0, max_value=500),
        p=st.sampled_from(PRIMES),
    )
    def test_symmetry(self, n, k, p):
        if k > n:
            k = n
        assert lucas_binom(n, k, p) == lucas_binom(n, n - k, p)

    def test_large_indices_are_cheap(self):
        # digit-wise computation handles indices in the millions
        assert lucas_binom(10**6, 10**6, 13) == 1
        assert lucas_binom(2**20, 2**19, 2) == 0  # base-2 carry
        assert lucas_binom(2**20 + 2**5, 2**5, 2) == 1  # disjoint bits

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_vanishing_iff_digit_exceeds(self, p):
        # Kummer/Lucas: C(n, k) = 0 mod p iff some base-p digit of k
        # exceeds the matching digit of n.
        for n in range(501):
            for k in range(n + 1):
                nn, kk = n, k
                exceeds = False
                while kk:
                    if kk % p > nn % p:
                        exceeds = True
                        break
                    nn //= p
                    kk //= p
                assert (lucas_binom(n, k, p) == 0) == exceeds, (n, k, p)

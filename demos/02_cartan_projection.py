"""The numerical Cartan projection and the wedge-square norm.

mu(g) is the unique chamber point with g in K mu(g) K; it is computed from
the singular values of g in a basis where K is block-unitary.  |rho(g)| is
the largest 2x2 minor; together they read off where subgroups sit in the
chamber.
"""

import numpy as np

from su2n import CartanPoint, mu, rho_norm, rho_norm_oracle, sample_compact_pair, sup_norm

n = 4
rng = np.random.default_rng(0)

print("== chamber points are fixed ==")
a = CartanPoint(40.0, 2.5).matrix(n)
print("  mu(diag(40, 2.5, ...)) =", mu(a).as_tuple())
print("  |a| =", sup_norm(a), " |rho(a)| =", rho_norm(a), " (= a1 * a2)")

print("\n== K-bi-invariance and inversion ==")
k1, k2 = sample_compact_pair(n, rng), sample_compact_pair(n, rng)
g = k1 @ a @ k2
print("  mu(k a k') =", tuple(round(v, 9) for v in mu(g).as_tuple()))
print("  mu(g^-1)   =", tuple(round(v, 9) for v in mu(np.linalg.inv(g)).as_tuple()))

print("\n== the wedge-square oracle agrees with the minor sweep ==")
print("  rho_norm(g)        =", rho_norm(g))
print("  brute-force wedge  =", rho_norm_oracle(g))

print("\n== the chamber sandwich |a| <= |rho(a)| <= |a|^2 ==")
for lam in (1.0, 2.0, 3.0):
    a1 = 10.0 ** lam
    for frac in (0.0, 0.5, 1.0):
        a2 = a1 ** frac
        a = CartanPoint(a1, a2).matrix(n)
        print(f"  a1=1e{lam:.0f}, a2=a1^{frac}:  |a|={sup_norm(a):9.3g}"
              f"  |rho|={rho_norm(a):9.3g}")

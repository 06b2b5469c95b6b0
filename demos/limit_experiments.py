"""
Order statistics meet two classical constants
=============================================

The mean of the largest of n unit exponentials is the harmonic number H_n,
and H_n - ln n converges to the Euler-Mascheroni constant.  Its variance
is the partial sum of 1/j^2, which converges to pi^2/6.  The shifted
maximum itself converges in law to the Gumbel distribution, with a tail
bound that is audited here on a dense grid.
"""

from exporder import (
    OrderStatParams,
    basel_table,
    euler_gamma_table,
    gumbel_approx_error,
    orderstat_var,
    tail_bound_audit,
    variance_convergence_check,
)

N_LIST = (10, 100, 1_000, 10_000, 100_000, 1_000_000)

print("H_n - ln n -> Euler-Mascheroni constant")
print(f"{'n':>9s} {'value':>18s} {'abs error':>12s}")
for row in euler_gamma_table(N_LIST):
    print(f"{row.n:>9d} {row.value:>18.12f} {row.abs_error:>12.3e}")

print()
print("partial sums of 1/j^2 -> pi^2/6, bracketed by (1/(n+1), 1/n)")
print(f"{'n':>9s} {'value':>18s} {'abs error':>12s} {'in bracket':>11s}")
for row in basel_table(N_LIST):
    inside = 1 / (row.n + 1) < row.abs_error < 1 / row.n
    print(f"{row.n:>9d} {row.value:>18.12f} {row.abs_error:>12.3e} {str(inside):>11s}")

print()
print("the variance table against the exact variance of the largest of n:")
for row in variance_convergence_check(N_LIST[:4]):
    exact = orderstat_var(OrderStatParams(row.n, row.n))
    print(f"  n={row.n:>8d}  identical={row.value == float(exact)}")

print()
print("sup distance between the shifted-maximum cdf and the Gumbel cdf:")
for row in gumbel_approx_error((10, 100, 1000)):
    print(f"  n={row.n:>5d}  sup={row.abs_error:.6f}  (0.3/n = {0.3 / row.n:.6f})")

print()
n_grid = tuple(int(round(10 ** (4 * i / 49))) for i in range(50))
x_grid = tuple(0.01 * i for i in range(1, 1001))
results = tail_bound_audit(n_grid, x_grid)
failures = sum(1 for r in results if not r.passed)
print(
    f"tail audit: G_n(-x) + 1 - G_n(x) < 2e^-x over {len(n_grid)} sizes and "
    f"{len(x_grid)} grid points -> {failures} violations"
)

"""Independent loop oracle for autocorrelation tables.

``theoretical_acf`` and the order-(1,1) closed form are checked against
this literal loop over the recursion equations.
"""


def acf_recursion_residual(table, params):
    """Max absolute recursion residual of a table, over equations whose
    lagged neighbours all lie inside the table window."""
    K, L = table.window
    order = params.order
    alpha = params.alpha
    phi = params.phi
    lags = order.lags
    worst = 0.0
    for k in range(-K + order.p1, K + 1):
        for l in range(-L + order.p2, L + 1):
            if not (k >= 1 or (k == 0 and l >= 1)):
                continue
            if l - order.p2 < -L:
                continue
            pred = alpha * sum(
                p * table.value(k - i, l - j) for (i, j), p in zip(lags, phi)
            )
            worst = max(worst, abs(table.value(k, l) - pred))
    return worst

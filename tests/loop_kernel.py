"""The bidifferential kernel and the plain product as nested Python loops,
kept as test oracles.

``qbnf.symbols._bidifferential`` computes the same sums in one array pass
and must give exactly what these loops give: the same keys in the same
insertion order and the same coefficient bits.  Only the scalar types
differ: the loops' follow Python arithmetic on their operands, the
kernel's are all ``np.complex128``.  The kernel loop visits term pairs
(left term outer, right term inner) and, per pair, the derivation counts
(k0, k1, k2, k3) in lexicographic order, multiplying in the factors one
channel at a time and adding each contribution to its key as it goes.
Both return their pruned dict.
"""

from dict_symbol import dict_prune, held


def _channels(spec):
    ch = []
    if spec.num_pairs == 1:
        ch.append(("tau", "t", 1.0))
        ch.append(("t", "tau", -1.0))
    for i in range(spec.num_pairs):
        ch.append((("xi", i), ("x", i), 1.0))
        ch.append((("x", i), ("xi", i), -1.0))
    return ch


def _operand(spec, chs, side, terms):
    """Derivative tables for (key, coef, grade) terms of one kernel operand.

    ``side`` is 0 for the left operand, 1 for the right.  Yields (key, coef,
    grade, caps, facs): caps[c] is how often the term's derivative in
    channel c can act and facs[c][kappa] the factor d^kappa pulls down, a
    falling factorial or (i m / 2)^kappa for d_t.
    """
    t_pows: dict = {}
    for key, coef, grade in terms:
        m2, a, alpha, beta, _ = key
        caps, facs = [], []
        for ch in chs:
            code = ch[side]
            if code == "t":
                cap = spec.tau_max if m2 else 0
                if m2 not in t_pows:
                    t_pows[m2] = [(0.5j * m2) ** k for k in range(cap + 1)]
                f = t_pows[m2]
            else:
                cap = a if code == "tau" else (alpha if code[0] == "x" else beta)[code[1]]
                f = [1.0]
                for r in range(cap):
                    f.append(f[-1] * (cap - r))
            caps.append(cap)
            facs.append(f)
        yield key, coef, grade, caps, facs


def loop_bidifferential(a, b, orders, h_shift, scale):
    """sum_k scale (h/2i)^k h^h_shift B_k(a, b) over the selected orders k.

    ``orders`` is "all", "odd", "first" (k = 1 only) or "zeroth" (k = 0
    only, the plain product).  B_k sums, over
    every multiset of k elementary derivations, the signed derivatives with
    1/kappa! weights per channel.  A term pair can only reach output grades
    >= g_a + g_b + 2 h_shift, so pairs above the truncation are skipped
    before any key is built; the others are expanded in a fixed order, so
    every coefficient is the same floating-point sum whatever is skipped.
    """
    a._check(b)
    spec = a.spec
    chs = _channels(spec)
    if orders == "first":
        # the expansion below meets single derivations last channel first;
        # the bracket sums them in the order of its formula, and floating-
        # point sums depend on that order
        chs = chs[::-1]
    K = spec.grade_max + spec.tau_max  # bounds every channel multiplicity
    kmax = {"zeroth": 0, "first": 1}.get(orders, 4 * K)
    odd = orders in ("first", "odd")
    kf = []
    for _, _, sign in chs:
        f = [1.0]
        for kappa in range(1, K + 1):
            f.append(f[-1] * (sign / kappa))
        kf.append(f)
    kf0, kf1, kf2, kf3 = kf
    weight = [scale * (-0.5j) ** k for k in range(kmax + 1)]
    # channels 0, 1 and 2, 3 each act on one conjugate pair: the tau slot
    # (0) or pair i (slot i + 1); a derivation in pair i lowers alpha_i and
    # beta_i together, one in the angle pair lowers tau and raises the grade
    slot0 = 0 if chs[0][0] in ("tau", "t") else chs[0][0][1] + 1
    slot1 = 0 if chs[2][0] in ("tau", "t") else chs[2][0][1] + 1
    gmax, tmax = spec.grade_max, spec.tau_max
    left = [(k, c, spec.grade(k)) for k, c in a.terms.items()]
    right = [(k, c, spec.grade(k)) for k, c in b.terms.items()]
    # a term no partner can reach the truncation with needs no tables
    room = gmax - 2 * h_shift
    gl = room - min((g for _, _, g in right), default=room + 1)
    gr = room - min((g for _, _, g in left), default=room + 1)
    right = list(_operand(spec, chs, 1, [t for t in right if t[2] <= gr]))
    out: dict = {}
    for ka, ca, ga, capa, fa in _operand(spec, chs, 0, [t for t in left if t[2] <= gl]):
        lim = room - ga
        m2a, aa, ala, bea, ja = ka
        fa0, fa1, fa2, fa3 = fa
        for kb, cb, gb, capb, fb in right:
            if gb > lim:
                continue
            m2b, ab, alb, beb, jb = kb
            fb0, fb1, fb2, fb3 = fb
            m2 = m2a + m2b
            atot = aa + ab
            gtot = ga + gb + 2 * h_shift
            jtot = ja + jb + h_shift
            al = [x + y for x, y in zip(ala, alb)]
            be = [x + y for x, y in zip(bea, beb)]
            n0 = min(capa[0], capb[0], kmax)
            n1 = min(capa[1], capb[1])
            n2 = min(capa[2], capb[2])
            n3 = min(capa[3], capb[3])
            f = ca * cb
            for k0 in range(n0 + 1):
                if k0:
                    f0 = f * kf0[k0] * fa0[k0] * fb0[k0]
                    if f0 == 0:
                        continue
                else:
                    f0 = f
                for k1 in range(min(n1, kmax - k0) + 1):
                    if k1:
                        f1 = f0 * kf1[k1] * fa1[k1] * fb1[k1]
                        if f1 == 0:
                            continue
                    else:
                        f1 = f0
                    d0 = k0 + k1
                    for k2 in range(min(n2, kmax - d0) + 1):
                        if k2:
                            f2 = f1 * kf2[k2] * fa2[k2] * fb2[k2]
                            if f2 == 0:
                                continue
                        else:
                            f2 = f1
                        for k3 in range(min(n3, kmax - d0 - k2) + 1):
                            if k3:
                                f3 = f2 * kf3[k3] * fa3[k3] * fb3[k3]
                                if f3 == 0:
                                    continue
                            else:
                                f3 = f2
                            d1 = k2 + k3
                            k = d0 + d1
                            if odd and not k % 2:
                                continue
                            drop = [0, 0, 0]
                            drop[slot0] += d0
                            drop[slot1] += d1
                            tau = atot - drop[0]
                            if tau > tmax or gtot + 2 * drop[0] > gmax:
                                continue
                            key = (
                                m2, tau,
                                tuple(x - d for x, d in zip(al, drop[1:])),
                                tuple(x - d for x, d in zip(be, drop[1:])),
                                jtot + k,
                            )
                            out[key] = out.get(key, 0.0) + f3 * weight[k]
    return dict_prune(out)


def loop_symbol(a, b, orders, h_shift, scale):
    """``loop_bidifferential`` held as a symbol, to stand in for the kernel."""
    return held(a.spec, loop_bidifferential(a, b, orders, h_shift, scale))


def loop_product(a, b):
    """The plain product a b: over term pairs (left term outer), ca * cb
    added to its key from 0.0, pairs above the tau or grade truncation
    skipped; then pruned."""
    a._check(b)
    spec = a.spec
    out = {}
    for (m2a, aa, ala, bea, ja), ca in a.terms.items():
        for (m2b, ab, alb, beb, jb), cb in b.terms.items():
            tau = aa + ab
            if tau > spec.tau_max:
                continue
            alpha = tuple(x + y for x, y in zip(ala, alb))
            beta = tuple(x + y for x, y in zip(bea, beb))
            j = ja + jb
            if sum(alpha) + sum(beta) + 2 * j > spec.grade_max:
                continue
            key = (m2a + m2b, tau, alpha, beta, j)
            out[key] = out.get(key, 0.0) + ca * cb
    return dict_prune(out)

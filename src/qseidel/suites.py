"""Named verification suites with configurable bounds.

Every suite is a pure function RunConfig -> SuiteResult. The CLI `verify`
subcommand and the acceptance tests both run these; nothing here prints.
A failure is a condition the library claims always holds; a finding is an
observation the suite is expected to report without failing (the equivariant
suite uses findings for the documented commutation divergence).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace

from .affine import (
    CentralElt,
    ExtAffElt,
    aff_inv,
    aff_length,
    aff_mul,
    affine_simple_ext,
    central_dynkin_action,
    central_elements,
    central_inv,
    central_mul,
    central_order,
    eta_P,
    ext,
    hat_decompose,
    identity_aff,
    in_parabolic_aff,
    inversion_count_oracle,
    is_antidominant,
    is_waff_minus,
    is_wpaff,
    pi_P,
    pi_P_ext,
    translation,
)
from .nilhecke import (
    EXPANSION_CAP,
    XiVector,
    act_on_xi,
    embed_group,
    nh_basis,
    nh_mod_Jtilde,
    nh_mul,
    nh_one,
)
from .poly import SPoly
from .qh import (
    QHClass,
    chevalley_multiply,
    psi_P,
    q_shift,
    qh_scale,
    qh_sub,
    qh_text,
    seidel_apply,
    seidel_element,
    seidel_multiply,
    seidel_orbit,
    sigma,
    unit_class,
)
from .rootsys import (
    CATALOG,
    RootSystem,
    Vec,
    build_root_system,
    dot,
    is_positive_vec,
    strict_int,
    strict_ints,
    vadd,
    vsub,
)
from .weyl import (
    ParabolicSet,
    WeylElt,
    enumerate_minreps,
    enumerate_parabolic_subgroup,
    enumerate_weyl,
    from_word,
    identity,
    parabolic,
    reduced_word,
    v_element,
    w_inv,
    w_mul,
)


def _type_names(v) -> tuple[str, ...]:
    if not isinstance(v, list) or not all(isinstance(t, str) for t in v):
        raise ValueError(f"types must be a list of type names, got {v!r}")
    return tuple(v)


@dataclass(frozen=True)
class RunConfig:
    types: tuple[str, ...] = CATALOG
    parabolic: tuple[int, ...] | None = None
    suite: str = "all"
    radius: int = 2
    fmt: str = "text"
    max_rank: int = 4
    expansion_cap: int = EXPANSION_CAP
    seed: int = 0

    @staticmethod
    def from_json(data: dict) -> "RunConfig":
        cfg = RunConfig()
        # int marks an integer key, read strictly (no bool, float or str)
        keys = {
            "types": _type_names,
            "parabolic": lambda v: None if v is None else strict_ints(v, "parabolic"),
            "suite": str,
            "radius": int,
            "format": str,
            "max_rank": int,
            "expansion_cap": int,
            "seed": int,
        }
        fields = {"format": "fmt"}
        updates = {}
        for k, v in data.items():
            if k not in keys:
                raise ValueError(f"unknown config key {k!r}")
            conv = keys[k]
            updates[fields.get(k, k)] = strict_int(v, k) if conv is int else conv(v)
        # nh_mul and embed_group expand words only up to EXPANSION_CAP
        if updates.get("expansion_cap", EXPANSION_CAP) > EXPANSION_CAP:
            raise ValueError(f"expansion_cap must be at most {EXPANSION_CAP}")
        return replace(cfg, **updates)


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # types a rank cap left out

    def ok(self) -> bool:
        return not self.failures

    def check(self, cond: bool, msg: str) -> None:
        self.checks += 1
        if not cond:
            self.failures.append(msg)


def _scoped_types(cfg: RunConfig, res: SuiteResult,
                  rank_cap: int | None = None) -> list[RootSystem]:
    """The configured types within both rank caps; the others go to res.skipped."""
    cap = cfg.max_rank if rank_cap is None else min(cfg.max_rank, rank_cap)
    out = []
    for name in cfg.types:
        rs = build_root_system(name)
        if rs.rank <= cap:
            out.append(rs)
        else:
            res.skipped.append(rs.name())
    return out


def _scoped_parabolics(rs: RootSystem, cfg: RunConfig) -> list[ParabolicSet]:
    if cfg.parabolic is not None:
        return [parabolic(rs, cfg.parabolic)]
    nodes = range(1, rs.rank + 1)
    subsets = []
    for r in range(1, rs.rank + 1):
        subsets.extend(itertools.combinations(nodes, r))
    return [parabolic(rs, s) for s in subsets]


def _coroot_box(rank: int, radius: int):
    return itertools.product(range(-radius, radius + 1), repeat=rank)


def _antidominant_box(rank: int, radius: int):
    return itertools.product(range(-radius, 1), repeat=rank)


# -- criterion 1: the projective-plane table -----------------------------------


def seidel_table(p: ParabolicSet) -> list[tuple[CentralElt, WeylElt, QHClass]]:
    rs = p.rs
    rows = []
    for z in central_elements(rs):
        for w in enumerate_minreps(rs, p):
            rows.append((z, w, seidel_apply(z, sigma(p, w))))
    return rows


def suite_seidel_table(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("seidel-table")
    rs = build_root_system("A2")
    p = parabolic(rs, (1,))
    s1 = from_word(rs, (1,))
    s21 = from_word(rs, (2, 1))
    e = identity(rs)
    expected = {
        (None, ()): sigma(p, e),
        (None, (1,)): sigma(p, s1),
        (None, (2, 1)): sigma(p, s21),
        (1, ()): sigma(p, s1),
        (1, (1,)): sigma(p, s21),
        (1, (2, 1)): q_shift(unit_class(p), (1,)),
        (2, ()): sigma(p, s21),
        (2, (1,)): q_shift(unit_class(p), (1,)),
        (2, (2, 1)): sigma(p, s1, q=(1,)),
    }
    table = seidel_table(p)
    res.check(len(table) == 9, f"table has {len(table)} entries, wanted 9")
    for z, w, prod in table:
        want = expected.get((z.node, reduced_word(w)))
        res.check(want is not None and prod == want,
                  f"entry z={z.node} w={reduced_word(w)}: got {qh_text(prod)}")
    return res


# -- criterion 2: Seidel/Chevalley commutation ----------------------------------


def suite_commutation(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("commutation")
    for rs in _scoped_types(cfg, res):
        for p in _scoped_parabolics(rs, cfg):
            reps = enumerate_minreps(rs, p)
            for i in rs.minuscule_nodes:
                for j in p.nodes:
                    for w in reps:
                        c = sigma(p, w)
                        lhs = seidel_multiply(i, chevalley_multiply(j, c))
                        rhs = chevalley_multiply(j, seidel_multiply(i, c))
                        res.check(
                            lhs == rhs,
                            f"{rs.name()} I_P={p.nodes} i={i} j={j} "
                            f"w={reduced_word(w)}: {qh_text(lhs)} != {qh_text(rhs)}")
    return res


# -- criterion 3: Chevalley operators commute; h^(n+1) = q ----------------------


def suite_chevalley(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("chevalley")
    for rs in _scoped_types(cfg, res):
        for p in _scoped_parabolics(rs, cfg):
            reps = enumerate_minreps(rs, p)
            for j, k in itertools.combinations(p.nodes, 2):
                for w in reps:
                    for eq in (False, True):
                        c = sigma(p, w)
                        lhs = chevalley_multiply(j, chevalley_multiply(k, c, eq), eq)
                        rhs = chevalley_multiply(k, chevalley_multiply(j, c, eq), eq)
                        res.check(
                            lhs == rhs,
                            f"{rs.name()} I_P={p.nodes} D{j}D{k} eq={eq} "
                            f"w={reduced_word(w)}")
    for n in (1, 2, 3, 4):
        name = f"A{n}"
        if name not in cfg.types or n > cfg.max_rank:
            continue
        rs = build_root_system(name)
        p = parabolic(rs, (1,))
        c = unit_class(p)
        for _ in range(n + 1):
            c = chevalley_multiply(1, c)
        res.check(c == q_shift(unit_class(p), (1,)),
                  f"A{n} I_P=(1,): D_1^{n + 1}(1) = {qh_text(c)}, wanted q*1")
    return res


# -- criterion 4: orbits and the composite group law ----------------------------


def suite_orbit(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("orbit")
    group_order = {"A1": 2, "A2": 3, "A3": 4, "A4": 5, "B2": 2, "B3": 2,
                   "C3": 2, "D4": 4}
    for rs in _scoped_types(cfg, res):
        zs = central_elements(rs)
        orders = {z.node: central_order(z) for z in zs if z.node is not None}
        for node, order in orders.items():
            res.check(group_order[rs.name()] % order == 0,
                      f"{rs.name()} tau_{node}: order {order} does not divide "
                      f"|P_vee/Q_vee| = {group_order[rs.name()]}")
        if rs.name()[0] == "A":
            res.check(orders.get(1) == rs.rank + 1,
                      f"{rs.name()}: tau_1 should generate the cyclic quotient")
        for p in _scoped_parabolics(rs, cfg):
            for i in rs.minuscule_nodes:
                steps, _ = seidel_orbit(i, p)
                res.check(
                    len(steps) == orders[i],
                    f"{rs.name()} I_P={p.nodes} i={i}: orbit length {len(steps)}"
                    f" != central order {orders[i]}")
            reps = enumerate_minreps(rs, p)
            for z1 in zs:
                for z2 in zs:
                    if z1.is_identity() or z2.is_identity():
                        continue
                    z3 = central_mul(z1, z2)
                    vexp = (v_element(rs, z3.node) if z3.node
                            else identity(rs))
                    res.check(
                        w_mul(v_element(rs, z1.node), v_element(rs, z2.node))
                        == vexp,
                        f"{rs.name()}: v-part of tau_{z1.node} tau_{z2.node} "
                        f"is not v-part of the product")
                    exponent = None
                    for w in reps:
                        c = sigma(p, w)
                        a = seidel_apply(z1, seidel_apply(z2, c))
                        b = seidel_apply(z3, c)
                        ((wa, da),) = a.terms.keys()
                        ((wb, db),) = b.terms.keys()
                        e = vsub(da, db)
                        if exponent is None:
                            exponent = e
                        res.check(
                            wa == wb and e == exponent,
                            f"{rs.name()} I_P={p.nodes} z1={z1.node} z2={z2.node}"
                            f" w={reduced_word(w)}: composite law broken")
                    j1 = rs.involution[z1.node - 1]
                    j2 = rs.involution[z2.node - 1]
                    cw = rs.fund_coweight(j1)
                    predicted = eta_P(
                        rs, vsub(cw, w_inv(v_element(rs, j2)).act_coweight(cw)), p)
                    res.check(exponent == predicted,
                              f"{rs.name()} I_P={p.nodes} z1={z1.node} "
                              f"z2={z2.node}: exponent {exponent} != predicted "
                              f"{predicted}")
    return res


# -- criterion 5: the length formula against inversion counting -----------------


def suite_length(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("length")
    for rs in _scoped_types(cfg, res, rank_cap=3):
        elems = enumerate_weyl(rs)
        for c in _coroot_box(rs.rank, cfg.radius):
            lam = rs.coroot_to_coweight(c)
            for w in elems:
                x = ExtAffElt(w, lam)
                lhs = aff_length(x)
                rhs = inversion_count_oracle(x)
                res.check(lhs == rhs,
                          f"{rs.name()} w={reduced_word(w)} lam={c}: "
                          f"formula {lhs} != inversions {rhs}")
    return res


# -- criterion 6: hat decomposition round trip ----------------------------------


def suite_hat(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("hat")
    for rs in _scoped_types(cfg, res, rank_cap=3):
        elems = enumerate_weyl(rs)
        for m in itertools.product(range(-cfg.radius, cfg.radius + 1),
                                   repeat=rs.rank):
            for w in elems:
                x = ExtAffElt(w, m)
                tau, hat = hat_decompose(x)
                res.check(aff_mul(tau.to_ext(), hat) == x,
                          f"{rs.name()} w={reduced_word(w)} lam={m}: "
                          f"tau*hat != x")
                res.check(rs.in_coroot_lattice(hat.lam),
                          f"{rs.name()} w={reduced_word(w)} lam={m}: "
                          f"hat translation escapes the coroot lattice")
                res.check(tau.node == rs.minuscule_class_node(m),
                          f"{rs.name()} lam={m}: wrong central class")
                res.check(aff_length(x) == aff_length(hat),
                          f"{rs.name()} w={reduced_word(w)} lam={m}: "
                          f"l(x) != l(hat)")
    return res


# -- criterion 7: pi_P correctness and windowed uniqueness -----------------------


def _parabolic_translation(p: ParabolicSet, coeffs: dict[int, int]) -> Vec:
    rs = p.rs
    m = (0,) * rs.rank
    for k, c in coeffs.items():
        m = vadd(m, tuple(c * a for a in rs.coroot_to_coweight(
            tuple(int(t == k - 1) for t in range(rs.rank)))))
    return m


def suite_pi_p(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("pi-p")
    for rs in _scoped_types(cfg, res):
        box = [rs.coroot_to_coweight(c) for c in _coroot_box(rs.rank, cfg.radius)]
        for p in _scoped_parabolics(rs, cfg):
            wp = enumerate_parabolic_subgroup(p)
            rp = p.rp_pos
            answers = []
            maxc = cfg.radius
            for lam in box:
                x = translation(rs, lam)
                x1 = pi_P(x, p)
                x2 = aff_mul(aff_inv(x1), x)
                res.check(is_wpaff(x1, p),
                          f"{rs.name()} I_P={p.nodes} lam={lam}: pi_P escapes")
                res.check(in_parabolic_aff(x2, p),
                          f"{rs.name()} I_P={p.nodes} lam={lam}: bad residual")
                mu_c = rs.coroot_coords(x2.lam)
                res.check(all(mu_c[k - 1] == 0 for k in p.nodes),
                          f"{rs.name()} I_P={p.nodes} lam={lam}: residual "
                          f"translation not in the parabolic coroot lattice")
                answers.append((x, x2))
                maxc = max(maxc, max(abs(c) for c in mu_c) + 1)
            # windowed brute force: enumerate factorizations x = x1 (u t_mu)
            # with u in W_P and mu in the coefficient window, keeping the
            # candidates whose x1 = u^-1 t_{u(lam-mu)} satisfies the coset
            # criterion on R_P^+; exactly one may survive.
            window = []
            for cs in itertools.product(range(-maxc, maxc + 1),
                                        repeat=len(p.wp_nodes)):
                coeffs = dict(zip(p.wp_nodes, cs))
                window.append(_parabolic_translation(p, coeffs))
            u_data = []
            for u in wp:
                ui = w_inv(u)
                roots = [ui.act_root(a) for a in rp]
                targets = [0 if is_positive_vec(r) else -1 for r in roots]
                mu_pair = [[dot(mu, r) for r in roots] for mu in window]
                u_data.append((u, roots, targets, mu_pair))
            for x, x2 in answers:
                hits = []
                for u, roots, targets, mu_pair in u_data:
                    base = [dot(x.lam, r) for r in roots]
                    nr = len(roots)
                    for mi in range(len(window)):
                        pairs = mu_pair[mi]
                        good = True
                        for t in range(nr):
                            if base[t] - pairs[t] != targets[t]:
                                good = False
                                break
                        if good:
                            hits.append((u, window[mi]))
                res.check(len(hits) == 1,
                          f"{rs.name()} I_P={p.nodes} lam={x.lam}: "
                          f"{len(hits)} factorizations in the window")
                if len(hits) == 1:
                    u, mu = hits[0]
                    res.check(x2 == ExtAffElt(u, mu),
                              f"{rs.name()} I_P={p.nodes} lam={x.lam}: brute "
                              f"residual disagrees with pi_P")
    return res


# -- criterion 8: closure under right multiplication by pi_P(t_lambda) ----------


def suite_closure(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("closure")
    for rs in _scoped_types(cfg, res, rank_cap=3):
        for p in _scoped_parabolics(rs, cfg):
            rp = p.rp_pos
            # the translation criterion, exhaustively over the coordinate box
            for m in itertools.product(range(-cfg.radius, cfg.radius + 1),
                                       repeat=rs.rank):
                t = translation(rs, m)
                lhs = is_waff_minus(t) and is_wpaff(t, p)
                rhs = is_antidominant(m) and all(dot(m, a) == 0 for a in rp)
                res.check(lhs == rhs,
                          f"{rs.name()} I_P={p.nodes} lam={m}: translation "
                          f"membership biconditional broken")
            # closure and length additivity
            anti = list(_antidominant_box(rs.rank, min(cfg.radius, 2)))
            pis = {m: pi_P_ext(translation(rs, m), p) for m in anti}
            for nu in anti:
                for lam in anti:
                    total = vadd(nu, lam)
                    lt = aff_length(pi_P_ext(translation(rs, total), p))
                    res.check(
                        lt == aff_length(pis[nu]) + aff_length(pis[lam]),
                        f"{rs.name()} I_P={p.nodes}: length additivity fails "
                        f"at nu={nu} lam={lam}")
            seen = 0
            for w in enumerate_minreps(rs, p):
                for nu in anti:
                    x = aff_mul(ext(w), pis[nu])
                    if not (is_waff_minus(x) and is_wpaff(x, p)):
                        continue
                    seen += 1
                    for lam in anti:
                        y = aff_mul(x, pis[lam])
                        res.check(
                            is_waff_minus(y) and is_wpaff(y, p),
                            f"{rs.name()} I_P={p.nodes} w={reduced_word(w)} "
                            f"nu={nu} lam={lam}: product leaves the "
                            f"intersection")
            res.check(seen > 0,
                      f"{rs.name()} I_P={p.nodes}: no sample points")
    return res


# -- criterion 9: the v_i elements ----------------------------------------------


def suite_v_elements(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("v-elements")
    for rs in _scoped_types(cfg, res, rank_cap=4):
        for i in rs.minuscule_nodes:
            vi = v_element(rs, i)
            res.check(w_inv(vi) == v_element(rs, rs.involution[i - 1]),
                      f"{rs.name()}: v_{i}^-1 != v_f({i})")
            for a in rs.pos_roots:
                pos = is_positive_vec(vi.act_root(a))
                res.check(pos == (a[i - 1] == 0),
                          f"{rs.name()} v_{i}: positivity criterion fails "
                          f"at root {a}")
    return res


# -- criterion 10: the nil Hecke suite -------------------------------------------


def _short_affine_elements(rs: RootSystem, max_len: int) -> list[ExtAffElt]:
    frontier = [identity_aff(rs)]
    seen = {frontier[0]}
    out = [frontier[0]]
    gens = [affine_simple_ext(rs, i) for i in range(rs.rank + 1)]
    for _ in range(max_len):
        nxt = []
        for x in frontier:
            for g in gens:
                y = aff_mul(x, g)
                if y not in seen and aff_length(y) == aff_length(x) + 1:
                    seen.add(y)
                    nxt.append(y)
        out.extend(nxt)
        frontier = nxt
    return out


def suite_nilhecke(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("nilhecke")

    for name in ("A1", "A2"):
        if name not in cfg.types:
            continue
        rs = build_root_system(name)
        for i in range(rs.rank + 1):
            si = embed_group(affine_simple_ext(rs, i))
            res.check(nh_mul(si, si) == nh_one(rs),
                      f"{name}: embedded s_{i}^2 != 1")
        if name == "A2":
            for a, b in ((1, 2), (0, 1), (0, 2)):
                ea = embed_group(affine_simple_ext(rs, a))
                eb = embed_group(affine_simple_ext(rs, b))
                res.check(nh_mul(nh_mul(ea, eb), ea)
                          == nh_mul(nh_mul(eb, ea), eb),
                          f"A2: braid relation fails for ({a},{b})")
        for z in central_elements(rs):
            if z.is_identity():
                continue
            ez = nh_basis(z.to_ext())
            ezi = nh_basis(central_inv(z).to_ext())
            for i in range(rs.rank + 1):
                j = central_dynkin_action(z, i)
                lhs = nh_mul(nh_mul(ez, nh_basis(affine_simple_ext(rs, i))), ezi)
                res.check(lhs == nh_basis(affine_simple_ext(rs, j)),
                          f"{name}: tau_{z.node} A_s{i} tau^-1 != A_s{j}")
    # seeded multiplicativity of the group embedding
    rs = build_root_system("A2" if "A2" in cfg.types else cfg.types[0])
    rng = random.Random(cfg.seed)
    zs = central_elements(rs)
    pairs = 0
    while pairs < 200:
        lx = rng.randint(0, 3)
        ly = rng.randint(0, 3)
        x = ext(identity(rs))
        for _ in range(lx):
            x = aff_mul(x, affine_simple_ext(rs, rng.randint(0, rs.rank)))
        y = ext(identity(rs))
        for _ in range(ly):
            y = aff_mul(y, affine_simple_ext(rs, rng.randint(0, rs.rank)))
        if rng.random() < 0.5:
            x = aff_mul(zs[rng.randrange(len(zs))].to_ext(), x)
        if rng.random() < 0.5:
            y = aff_mul(zs[rng.randrange(len(zs))].to_ext(), y)
        if aff_length(x) + aff_length(y) > cfg.expansion_cap:
            continue
        pairs += 1
        res.check(nh_mul(embed_group(x), embed_group(y))
                  == embed_group(aff_mul(x, y)),
                  f"{rs.name()}: embedding not multiplicative on pair {pairs}")
    # the module action against the nil Hecke engine itself
    for name in ("A1", "A2"):
        if name not in cfg.types:
            continue
        rs = build_root_system(name)
        elems = _short_affine_elements(rs, 4)
        minus = [y for y in elems if is_waff_minus(y)]
        for x in elems:
            ax = nh_basis(x)
            for y in minus:
                if aff_length(x) + aff_length(y) > cfg.expansion_cap:
                    continue
                via_engine = nh_mod_Jtilde(nh_mul(ax, nh_basis(y)))
                via_rule = act_on_xi(x, XiVector(rs, {y: SPoly.one(rs.rank)}))
                engine_terms = {k[1]: v for k, v in via_engine.terms.items()}
                res.check(engine_terms == via_rule.terms,
                          f"{name}: xi action disagrees with the engine at "
                          f"x={x!r} y={y!r}")
    return res


# -- criterion 11: the Peterson dictionary ---------------------------------------


def suite_psi(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("psi")
    if "A1" in cfg.types:
        rs = build_root_system("A1")
        b = parabolic(rs, (1,))
        s0 = aff_mul(ext(from_word(rs, (1,))), translation(rs, (-2,)))
        mu = (-2,)
        res.check(psi_P(s0, mu, b) == sigma(b, from_word(rs, (1,))),
                  "A1: psi(xi_s0) != sigma(s1)")
        res.check(psi_P(identity_aff(rs), mu, b)
                  == q_shift(unit_class(b), (1,)),
                  "A1: psi(xi_id) relative to t_{-alpha1vee} != q*1")
    # representative independence on every scoped (type, I_P)
    for rs in _scoped_types(cfg, res, rank_cap=3):
        for p in _scoped_parabolics(rs, cfg):
            rp = p.rp_pos
            shifts = []
            for c in _coroot_box(rs.rank, cfg.radius):
                m = rs.coroot_to_coweight(c)
                if (any(m) and is_antidominant(m)
                        and all(dot(m, a) == 0 for a in rp)):
                    shifts.append(m)
            if not shifts:
                continue
            anti = [rs.coroot_to_coweight(c)
                    for c in _antidominant_box(rs.rank, cfg.radius)]
            tested = 0
            for w in enumerate_minreps(rs, p):
                for nu in anti:
                    y = aff_mul(ext(w), pi_P(translation(rs, nu), p))
                    if not (is_waff_minus(y) and is_wpaff(y, p)):
                        continue
                    base = psi_P(y, (0,) * rs.rank, p)
                    for m in shifts:
                        y2 = aff_mul(y, translation(rs, m))
                        res.check(psi_P(y2, m, p) == base,
                                  f"{rs.name()} I_P={p.nodes}: psi not "
                                  f"representative independent at "
                                  f"w={reduced_word(w)} nu={nu} shift={m}")
                        tested += 1
            res.check(tested > 0,
                      f"{rs.name()} I_P={p.nodes}: no psi samples")
    return res


# -- criterion 12: the equivariant divergence report ----------------------------


def suite_equivariant(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("equivariant")
    rs = build_root_system("A1")
    b = parabolic(rs, (1,))
    s1 = from_word(rs, (1,))
    alpha1 = SPoly.weight((2,))
    expected = {
        (): qh_scale(sigma(b, s1), alpha1),
        (1,): qh_scale(q_shift(unit_class(b), (1,)), -1 * alpha1),
    }
    for w in enumerate_minreps(rs, b):
        c = sigma(b, w)
        disc = qh_sub(chevalley_multiply(1, seidel_multiply(1, c), True),
                      seidel_multiply(1, chevalley_multiply(1, c, True)))
        want = expected[reduced_word(w)]
        res.check(disc == want,
                  f"A1 w={reduced_word(w)}: divergence {qh_text(disc)} is not "
                  f"the documented {qh_text(want)}")
        if disc == want and not disc.is_zero():
            res.findings.append(
                f"expected divergence at w={reduced_word(w)}: "
                f"D1(S1(c)) - S1(D1(c)) = {qh_text(disc)}")
    return res


# -- the dictionary intertwines Seidel operators with translations ---------------


def suite_intertwine(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("intertwine")
    for rs in _scoped_types(cfg, res, rank_cap=2):
        zero = (0,) * rs.rank
        for p in _scoped_parabolics(rs, cfg):
            anti = [m for m in _antidominant_box(rs.rank, 1)]
            tested = 0
            for w in enumerate_minreps(rs, p):
                for nu in anti:
                    x = aff_mul(ext(w), pi_P_ext(translation(rs, nu), p))
                    if not (is_waff_minus(x) and is_wpaff(x, p)):
                        continue
                    taux, xhat = hat_decompose(x)
                    if not taux.is_identity():
                        continue
                    for lam in anti:
                        if not any(lam):
                            continue
                        z = CentralElt(rs, rs.minuscule_class_node(lam))
                        plam = pi_P_ext(translation(rs, lam), p)
                        tau1, phat = hat_decompose(plam)
                        res.check(tau1.node == z.node,
                                  f"{rs.name()} I_P={p.nodes} lam={lam}: "
                                  f"pi_P changed the central class")
                        factor = psi_P(phat, zero, p)
                        ((wf, df),) = factor.terms.keys()
                        res.check(
                            sigma(p, wf) == seidel_element(z, p),
                            f"{rs.name()} I_P={p.nodes} lam={lam}: psi of "
                            f"pi_P(t_lam) is not the Seidel class")
                        y = aff_mul(x, plam)
                        res.check(is_waff_minus(y) and is_wpaff(y, p),
                                  f"{rs.name()} I_P={p.nodes}: product left "
                                  f"the intersection at w={reduced_word(w)} "
                                  f"nu={nu} lam={lam}")
                        tau2, yhat = hat_decompose(y)
                        res.check(tau2.node == z.node,
                                  f"{rs.name()} I_P={p.nodes}: central part "
                                  f"of the product is not [t_lam]")
                        lhs = q_shift(seidel_apply(z, psi_P(x, zero, p)), df)
                        rhs = psi_P(yhat, zero, p)
                        res.check(lhs == rhs,
                                  f"{rs.name()} I_P={p.nodes} "
                                  f"w={reduced_word(w)} nu={nu} lam={lam}: "
                                  f"{qh_text(lhs)} != {qh_text(rhs)}")
                        tested += 1
            res.check(tested > 0,
                      f"{rs.name()} I_P={p.nodes}: no intertwining samples")
    return res


SUITES = {
    "seidel-table": suite_seidel_table,
    "commutation": suite_commutation,
    "chevalley": suite_chevalley,
    "orbit": suite_orbit,
    "length": suite_length,
    "hat": suite_hat,
    "pi-p": suite_pi_p,
    "closure": suite_closure,
    "v-elements": suite_v_elements,
    "nilhecke": suite_nilhecke,
    "psi": suite_psi,
    "equivariant": suite_equivariant,
    "intertwine": suite_intertwine,
}


def run_suites(cfg: RunConfig) -> list[SuiteResult]:
    if cfg.suite == "all":
        names = list(SUITES)
    elif cfg.suite in SUITES:
        names = [cfg.suite]
    else:
        raise ValueError(f"unknown suite {cfg.suite!r}; "
                         f"choose from {', '.join(SUITES)} or all")
    return [SUITES[n](cfg) for n in names]

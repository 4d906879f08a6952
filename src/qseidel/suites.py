"""Named verification suites, each scoped by its rank cap in SUITES.

Every suite is a function (RunConfig, SuiteResult, types) -> None that fills
the result run_suites made for it, on the root systems run_suites gave it.
The CLI `verify` subcommand and the acceptance tests both run these through
run_suites; nothing here prints.
A failure is a condition the library claims always holds; a finding is an
observation the suite is expected to report without failing (the equivariant
suite uses findings for the documented commutation divergence).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass, field, fields

from .affine import (
    CentralElt,
    ExtAffElt,
    aff_inv,
    aff_length,
    aff_mul,
    affine_simple_ext,
    central_dynkin_action,
    central_elements,
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
    translation,
)
from .nilhecke import (
    act_on_xi,
    embed_group,
    nh_basis,
    nh_mod_Jtilde,
    nh_mul,
    nh_one,
)
from .poly import SPoly
from .qh import (
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
    seidel_table,
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
    mat_vec,
    strict_int,
    strict_ints,
    strict_keys,
    vadd,
    vsub,
)
from .weyl import (
    ParabolicSet,
    enumerate_minreps,
    enumerate_parabolic_subgroup,
    enumerate_weyl,
    from_word,
    identity,
    involution,
    parabolic,
    reduced_word,
    v_element,
    w_inv,
    w_mul,
)


@dataclass(frozen=True)
class RunConfig:
    types: tuple[str, ...] = CATALOG
    parabolic: tuple[int, ...] | None = None
    suite: str = "all"
    radius: int = 2
    fmt: str = "text"
    max_rank: int = 4
    seed: int = 0

    def __post_init__(self):
        """Every type and bound on a field, however the config was built: an
        integer field takes an int only (no bool, float or str)."""
        for key, value, choices in (("suite", self.suite, (*SUITES, "all")),
                                    ("format", self.fmt, ("text", "json"))):
            if value not in choices:
                raise ValueError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        if (not isinstance(self.types, tuple) or not self.types
                or not all(isinstance(t, str) for t in self.types)):
            raise ValueError(f"types must be a non-empty list of type names, got {self.types!r}")
        types = [build_root_system(name) for name in self.types]
        if len(set(self.types)) != len(self.types):  # would run each repeat again
            raise ValueError(f"types must be distinct, got {list(self.types)}")
        if self.parabolic is not None:
            nodes = strict_ints(self.parabolic, "parabolic")
            # Only the suites that build a parabolic set would meet a bad
            # node; the others would run as if the list were well formed.
            for rs in types:
                parabolic(rs, nodes)
        for key in ("radius", "max_rank", "seed"):
            strict_int(getattr(self, key), key)
        # Either would run an empty scope and report "made no checks".
        if self.radius < 0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")
        if self.max_rank < 1:
            raise ValueError(f"max_rank must be at least 1, got {self.max_rank}")

    @staticmethod
    def from_json(data: dict) -> "RunConfig":
        """Map the JSON keys to fields (`format` is fmt) and lists to tuples;
        __post_init__ checks every value."""
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        keys = {"format" if f.name == "fmt" else f.name: f.name for f in fields(RunConfig)}
        strict_keys(data, keys, "config")
        return RunConfig(**{keys[k]: tuple(v) if isinstance(v, list) else v
                            for k, v in data.items()})


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # types a rank cap left out

    def ok(self) -> bool:
        return not self.failures

    def check(self, cond: bool, msg: Callable[[], str]) -> None:
        """Count one check; msg builds the failure text, and runs only when cond is false."""
        self.checks += 1
        if not cond:
            self.failures.append(msg())


def _parabolics(rs: RootSystem, cfg: RunConfig) -> list[ParabolicSet]:
    if cfg.parabolic is not None:
        return [parabolic(rs, cfg.parabolic)]
    nodes = range(1, rs.rank + 1)
    subsets = []
    for r in range(1, rs.rank + 1):
        subsets.extend(itertools.combinations(nodes, r))
    return [parabolic(rs, s) for s in subsets]


def _pairs(cfg: RunConfig, types: list[RootSystem]):
    """(rs, P) over the given types and, per type, its configured parabolic sets."""
    for rs in types:
        for p in _parabolics(rs, cfg):
            yield rs, p


def _named(types: list[RootSystem], *names: str) -> list[RootSystem]:
    """The given types that are among names, for the checks made on named types only."""
    return [rs for rs in types if rs.name() in names]


def _intersection(p: ParabolicSet, pis: dict[Vec, ExtAffElt]):
    """(w, nu, x) for w in W^P and nu in pis with x = w pi_P(t_nu) in
    W_aff^- intersect (W^P)_aff; pis maps any coweight nu to pi_P(t_nu)."""
    for w in enumerate_minreps(p.rs, p):
        ew = ext(w)
        for nu, pi in pis.items():
            x = aff_mul(ew, pi)
            if is_waff_minus(x) and is_wpaff(x, p):
                yield w, nu, x


def _box(rank: int, radius: int):
    """Integer vectors (coroot or coweight coordinates) in [-radius, radius]^rank."""
    return itertools.product(range(-radius, radius + 1), repeat=rank)


def _antidominant_box(rank: int, radius: int):
    return itertools.product(range(-radius, 1), repeat=rank)


# -- criterion 1: the projective-plane table -----------------------------------


def suite_seidel_table(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs in _named(types, "A2"):
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
            (2, (2, 1)): q_shift(sigma(p, s1), (1,)),
        }
        table = seidel_table(p)
        res.check(len(table) == 9, lambda: f"table has {len(table)} entries, wanted 9")
        for z, w, prod in table:
            want = expected.get((z.node, reduced_word(w)))
            res.check(want is not None and prod == want,
                      lambda: f"entry z={z.node} w={reduced_word(w)}: got {qh_text(prod)}")


# -- criterion 2: Seidel/Chevalley commutation ----------------------------------


def suite_commutation(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs, p in _pairs(cfg, types):
        reps = enumerate_minreps(rs, p)
        for i in rs.minuscule_nodes:
            for j in p.nodes:
                for w in reps:
                    c = sigma(p, w)
                    lhs = seidel_multiply(i, chevalley_multiply(j, c))
                    rhs = chevalley_multiply(j, seidel_multiply(i, c))
                    res.check(
                        lhs == rhs,
                        lambda: f"{rs.name()} I_P={p.nodes} i={i} j={j} "
                                f"w={reduced_word(w)}: {qh_text(lhs)} != {qh_text(rhs)}")


# -- criterion 3: Chevalley operators commute; h^(n+1) = q ----------------------


def suite_chevalley(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs, p in _pairs(cfg, types):
        reps = enumerate_minreps(rs, p)
        for j, k in itertools.combinations(p.nodes, 2):
            for w in reps:
                for eq in (False, True):
                    c = sigma(p, w)
                    lhs = chevalley_multiply(j, chevalley_multiply(k, c, eq), eq)
                    rhs = chevalley_multiply(k, chevalley_multiply(j, c, eq), eq)
                    res.check(
                        lhs == rhs,
                        lambda: f"{rs.name()} I_P={p.nodes} D{j}D{k} eq={eq} "
                                f"w={reduced_word(w)}")
    # projective space A_n/P_1, whatever --parabolic says
    for rs in [rs for rs in types if rs.letter == "A"]:
        p = parabolic(rs, (1,))
        c = unit_class(p)
        for _ in range(rs.rank + 1):
            c = chevalley_multiply(1, c)
        res.check(c == q_shift(unit_class(p), (1,)),
                  lambda: f"{rs.name()} I_P=(1,): D_1^{rs.rank + 1}(1) = {qh_text(c)}, wanted q*1")


# -- criterion 4: orbits and the composite group law ----------------------------


def suite_orbit(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs in types:
        # |P_vee/Q_vee| = det(Cartan), read off the type (F and G: 1)
        n = rs.rank
        index = {"A": n + 1, "B": 2, "C": 2, "D": 4, "E": 9 - n}.get(rs.letter, 1)
        zs = central_elements(rs)
        orders = {z.node: central_order(z) for z in zs if z.node is not None}
        for node, order in orders.items():
            res.check(index % order == 0,
                      lambda: f"{rs.name()} tau_{node}: order {order} does not divide "
                              f"|P_vee/Q_vee| = {index}")
        if rs.name()[0] == "A":
            res.check(orders.get(1) == rs.rank + 1,
                      lambda: f"{rs.name()}: tau_1 should generate the cyclic quotient")
        for p in _parabolics(rs, cfg):
            for i in rs.minuscule_nodes:
                steps, _ = seidel_orbit(i, p)
                res.check(
                    len(steps) == orders[i],
                    lambda: f"{rs.name()} I_P={p.nodes} i={i}: orbit length {len(steps)}"
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
                        lambda: f"{rs.name()}: v-part of tau_{z1.node} tau_{z2.node} "
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
                            lambda: f"{rs.name()} I_P={p.nodes} z1={z1.node} z2={z2.node}"
                                    f" w={reduced_word(w)}: composite law broken")
                    j1 = involution(rs)[z1.node - 1]
                    j2 = involution(rs)[z2.node - 1]
                    cw = rs.fund_coweight(j1)
                    predicted = eta_P(vsub(cw, w_inv(v_element(rs, j2)).act_coweight(cw)), p)
                    res.check(exponent == predicted,
                              lambda: f"{rs.name()} I_P={p.nodes} z1={z1.node} "
                                      f"z2={z2.node}: exponent {exponent} != predicted "
                                      f"{predicted}")


# -- criterion 5: the length formula against inversion counting -----------------


def suite_length(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs in types:
        elems = enumerate_weyl(rs)
        for c in _box(rs.rank, cfg.radius):
            lam = rs.coroot_to_coweight(c)
            for w in elems:
                x = ExtAffElt(w, lam)
                lhs = aff_length(x)
                rhs = inversion_count_oracle(x)
                res.check(lhs == rhs,
                          lambda: f"{rs.name()} w={reduced_word(w)} lam={c}: "
                                  f"formula {lhs} != inversions {rhs}")


# -- criterion 6: hat decomposition round trip ----------------------------------


def suite_hat(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs in types:
        elems = enumerate_weyl(rs)
        for m in _box(rs.rank, cfg.radius):
            for w in elems:
                x = ExtAffElt(w, m)
                tau, hat = hat_decompose(x)
                res.check(aff_mul(tau, hat) == x,
                          lambda: f"{rs.name()} w={reduced_word(w)} lam={m}: "
                                  f"tau*hat != x")
                res.check(rs.in_coroot_lattice(hat.lam),
                          lambda: f"{rs.name()} w={reduced_word(w)} lam={m}: "
                                  f"hat translation escapes the coroot lattice")
                res.check(tau.node == rs.minuscule_class_node(m),
                          lambda: f"{rs.name()} lam={m}: wrong central class")
                res.check(aff_length(x) == aff_length(hat),
                          lambda: f"{rs.name()} w={reduced_word(w)} lam={m}: "
                                  f"l(x) != l(hat)")


# -- criterion 7: pi_P correctness and windowed uniqueness -----------------------


def suite_pi_p(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs in types:
        box = [rs.coroot_to_coweight(c) for c in _box(rs.rank, cfg.radius)]
        for p in _parabolics(rs, cfg):
            wp = enumerate_parabolic_subgroup(p)
            rp = p.rp_pos
            answers = []
            maxc = cfg.radius
            for lam in box:
                x = translation(rs, lam)
                x1 = pi_P(x, p)
                x2 = aff_mul(aff_inv(x1), x)
                res.check(is_wpaff(x1, p),
                          lambda: f"{rs.name()} I_P={p.nodes} lam={lam}: pi_P escapes")
                res.check(in_parabolic_aff(x2, p),
                          lambda: f"{rs.name()} I_P={p.nodes} lam={lam}: bad residual")
                mu_c = rs.coroot_coords(x2.lam)
                res.check(all(mu_c[k - 1] == 0 for k in p.nodes),
                          lambda: f"{rs.name()} I_P={p.nodes} lam={lam}: residual "
                                  f"translation not in the parabolic coroot lattice")
                answers.append((x, x2))
                maxc = max(maxc, max(abs(c) for c in mu_c) + 1)
            # windowed brute force: enumerate factorizations x = x1 (u t_mu)
            # with u in W_P and mu in the coefficient window, keeping the
            # candidates whose x1 = u^-1 t_{u(lam-mu)} satisfies the coset
            # criterion on R_P^+; exactly one may survive.
            window = []
            for cs in _box(len(p.wp_nodes), maxc):
                coeffs = dict(zip(p.wp_nodes, cs))
                window.append(rs.coroot_to_coweight(
                    tuple(coeffs.get(k, 0) for k in range(1, rs.rank + 1))))
            # x1 = u^-1 t_{u(lam-mu)} meets the criterion when <lam - mu,
            # u^-1 alpha> = -[u^-1 alpha < 0] for every alpha in R_P^+. u^-1
            # permutes +-R_P^+, so with gamma = +-u^-1 alpha taken positive this
            # reads <lam - mu, gamma> = [u(gamma) < 0] for every gamma in R_P^+:
            # the window is indexed once by its pairings with R_P^+, and each
            # (u, answer) is one lookup that yields its hits in window order
            by_pairing: dict[Vec, list[Vec]] = {}
            for mu in window:
                by_pairing.setdefault(mat_vec(rp, mu), []).append(mu)
            pairings = [mat_vec(rp, x.lam) for x, _ in answers]
            hits_of = [[] for _ in answers]
            for u in wp:
                inverted = [not is_positive_vec(u.act_root(a)) for a in rp]
                for lp, hits in zip(pairings, hits_of):
                    hits.extend((u, mu) for mu in by_pairing.get(vsub(lp, inverted), ()))
            for (x, x2), hits in zip(answers, hits_of):
                res.check(len(hits) == 1,
                          lambda: f"{rs.name()} I_P={p.nodes} lam={x.lam}: "
                                  f"{len(hits)} factorizations in the window")
                if len(hits) == 1:
                    u, mu = hits[0]
                    res.check(x2 == ExtAffElt(u, mu),
                              lambda: f"{rs.name()} I_P={p.nodes} lam={x.lam}: brute "
                                      f"residual disagrees with pi_P")


# -- criterion 8: closure under right multiplication by pi_P(t_lambda) ----------


def suite_closure(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs, p in _pairs(cfg, types):
        rp = p.rp_pos
        # the translation criterion, exhaustively over the coordinate box
        for m in _box(rs.rank, cfg.radius):
            t = translation(rs, m)
            lhs = is_waff_minus(t) and is_wpaff(t, p)
            rhs = is_antidominant(m) and all(dot(m, a) == 0 for a in rp)
            res.check(lhs == rhs,
                      lambda: f"{rs.name()} I_P={p.nodes} lam={m}: translation "
                              f"membership biconditional broken")
        # closure and length additivity
        anti = list(_antidominant_box(rs.rank, min(cfg.radius, 2)))
        pis = {m: pi_P(translation(rs, m), p) for m in anti}
        for nu in anti:
            for lam in anti:
                total = vadd(nu, lam)
                lt = aff_length(pi_P(translation(rs, total), p))
                res.check(
                    lt == aff_length(pis[nu]) + aff_length(pis[lam]),
                    lambda: f"{rs.name()} I_P={p.nodes}: length additivity fails "
                            f"at nu={nu} lam={lam}")
        seen = 0
        for w, nu, x in _intersection(p, pis):
            seen += 1
            for lam in anti:
                y = aff_mul(x, pis[lam])
                res.check(
                    is_waff_minus(y) and is_wpaff(y, p),
                    lambda: f"{rs.name()} I_P={p.nodes} w={reduced_word(w)} "
                            f"nu={nu} lam={lam}: product leaves the intersection")
        res.check(seen > 0,
                  lambda: f"{rs.name()} I_P={p.nodes}: no sample points")


# -- criterion 9: the v_i elements ----------------------------------------------


def suite_v_elements(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs in types:
        for i in rs.minuscule_nodes:
            vi = v_element(rs, i)
            res.check(w_inv(vi) == v_element(rs, involution(rs)[i - 1]),
                      lambda: f"{rs.name()}: v_{i}^-1 != v_f({i})")
            for a in rs.pos_roots:
                pos = is_positive_vec(vi.act_root(a))
                res.check(pos == (a[i - 1] == 0),
                          lambda: f"{rs.name()} v_{i}: positivity criterion fails "
                                  f"at root {a}")


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


def suite_nilhecke(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    small = _named(types, "A1", "A2")
    for rs in small:
        name = rs.name()
        for i in range(rs.rank + 1):
            si = embed_group(affine_simple_ext(rs, i))
            res.check(nh_mul(si, si) == nh_one(rs),
                      lambda: f"{name}: embedded s_{i}^2 != 1")
        if name == "A2":
            for a, b in ((1, 2), (0, 1), (0, 2)):
                ea = embed_group(affine_simple_ext(rs, a))
                eb = embed_group(affine_simple_ext(rs, b))
                res.check(nh_mul(nh_mul(ea, eb), ea)
                          == nh_mul(nh_mul(eb, ea), eb),
                          lambda: f"A2: braid relation fails for ({a},{b})")
        for z in central_elements(rs):
            if z.is_identity():
                continue
            ez = nh_basis(z)
            ezi = nh_basis(aff_inv(z))
            for i in range(rs.rank + 1):
                j = central_dynkin_action(z, i)
                lhs = nh_mul(nh_mul(ez, nh_basis(affine_simple_ext(rs, i))), ezi)
                res.check(lhs == nh_basis(affine_simple_ext(rs, j)),
                          lambda: f"{name}: tau_{z.node} A_s{i} tau^-1 != A_s{j}")
    # seeded multiplicativity of the group embedding, on A2 if given
    for rs in (_named(types, "A2") or types)[:1]:
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
                x = aff_mul(zs[rng.randrange(len(zs))], x)
            if rng.random() < 0.5:
                y = aff_mul(zs[rng.randrange(len(zs))], y)
            pairs += 1
            res.check(nh_mul(embed_group(x), embed_group(y))
                      == embed_group(aff_mul(x, y)),
                      lambda: f"{rs.name()}: embedding not multiplicative on pair {pairs}")
    # the module action against the nil Hecke engine itself
    for rs in small:
        elems = _short_affine_elements(rs, 4)
        minus = [y for y in elems if is_waff_minus(y)]
        for x in elems:
            ax = nh_basis(x)
            for y in minus:
                via_engine = nh_mod_Jtilde(nh_mul(ax, nh_basis(y)))
                via_rule = act_on_xi(x, nh_basis(y))
                res.check(via_engine == via_rule,
                          lambda: f"{rs.name()}: xi action disagrees with the engine at "
                                  f"x={x!r} y={y!r}")


# -- criterion 11: the Peterson dictionary ---------------------------------------


def suite_psi(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs in _named(types, "A1"):
        b = parabolic(rs, (1,))
        s0 = aff_mul(ext(from_word(rs, (1,))), translation(rs, (-2,)))
        mu = (-2,)
        res.check(psi_P(s0, mu, b) == sigma(b, from_word(rs, (1,))),
                  lambda: "A1: psi(xi_s0) != sigma(s1)")
        res.check(psi_P(identity_aff(rs), mu, b)
                  == q_shift(unit_class(b), (1,)),
                  lambda: "A1: psi(xi_id) relative to t_{-alpha1vee} != q*1")
    # representative independence on every scoped (type, I_P)
    for rs, p in _pairs(cfg, types):
        rp = p.rp_pos
        shifts = []
        for c in _box(rs.rank, cfg.radius):
            m = rs.coroot_to_coweight(c)
            if any(m) and is_antidominant(m) and all(dot(m, a) == 0 for a in rp):
                shifts.append(m)
        if not shifts:
            continue
        anti = [rs.coroot_to_coweight(c)
                for c in _antidominant_box(rs.rank, cfg.radius)]
        pis = {nu: pi_P(translation(rs, nu), p) for nu in anti}
        tested = 0
        for w, nu, y in _intersection(p, pis):
            base = psi_P(y, (0,) * rs.rank, p)
            for m in shifts:
                y2 = aff_mul(y, translation(rs, m))
                res.check(psi_P(y2, m, p) == base,
                          lambda: f"{rs.name()} I_P={p.nodes}: psi not "
                                  f"representative independent at "
                                  f"w={reduced_word(w)} nu={nu} shift={m}")
                tested += 1
        res.check(tested > 0,
                  lambda: f"{rs.name()} I_P={p.nodes}: no psi samples")


# -- criterion 12: the equivariant divergence report ----------------------------


def suite_equivariant(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs in _named(types, "A1"):
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
                      lambda: f"A1 w={reduced_word(w)}: divergence {qh_text(disc)} is not "
                              f"the documented {qh_text(want)}")
            if disc == want and not disc.is_zero():
                res.findings.append(
                    f"expected divergence at w={reduced_word(w)}: "
                    f"D1(S1(c)) - S1(D1(c)) = {qh_text(disc)}")


# -- the dictionary intertwines Seidel operators with translations ---------------


def suite_intertwine(cfg: RunConfig, res: SuiteResult, types: list[RootSystem]) -> None:
    for rs, p in _pairs(cfg, types):
        zero = (0,) * rs.rank
        anti = list(_antidominant_box(rs.rank, 1))
        pis = {m: pi_P(translation(rs, m), p) for m in anti}
        tested = 0
        for w, nu, x in _intersection(p, pis):
            taux, xhat = hat_decompose(x)
            if not taux.is_identity():
                continue
            for lam in anti:
                if not any(lam):
                    continue
                z = CentralElt(rs, rs.minuscule_class_node(lam))
                plam = pis[lam]
                tau1, phat = hat_decompose(plam)
                res.check(tau1.node == z.node,
                          lambda: f"{rs.name()} I_P={p.nodes} lam={lam}: "
                                  f"pi_P changed the central class")
                factor = psi_P(phat, zero, p)
                ((wf, df),) = factor.terms.keys()
                res.check(
                    sigma(p, wf) == seidel_element(z, p),
                    lambda: f"{rs.name()} I_P={p.nodes} lam={lam}: psi of "
                            f"pi_P(t_lam) is not the Seidel class")
                y = aff_mul(x, plam)
                res.check(is_waff_minus(y) and is_wpaff(y, p),
                          lambda: f"{rs.name()} I_P={p.nodes}: product left "
                                  f"the intersection at w={reduced_word(w)} "
                                  f"nu={nu} lam={lam}")
                tau2, yhat = hat_decompose(y)
                res.check(tau2.node == z.node,
                          lambda: f"{rs.name()} I_P={p.nodes}: central part "
                                  f"of the product is not [t_lam]")
                lhs = q_shift(seidel_apply(z, psi_P(x, zero, p)), df)
                rhs = psi_P(yhat, zero, p)
                res.check(lhs == rhs,
                          lambda: f"{rs.name()} I_P={p.nodes} "
                                  f"w={reduced_word(w)} nu={nu} lam={lam}: "
                                  f"{qh_text(lhs)} != {qh_text(rhs)}")
                tested += 1
        res.check(tested > 0,
                  lambda: f"{rs.name()} I_P={p.nodes}: no intertwining samples")


# Each suite with its rank cap: run_suites gives it the configured types of
# rank at most min(max_rank, cap), and None means max_rank alone.
SUITES = {
    "seidel-table": (suite_seidel_table, None),
    "commutation": (suite_commutation, None),
    "chevalley": (suite_chevalley, None),
    "orbit": (suite_orbit, None),
    "length": (suite_length, 3),
    "hat": (suite_hat, 3),
    "pi-p": (suite_pi_p, None),
    "closure": (suite_closure, 3),
    "v-elements": (suite_v_elements, 4),
    "nilhecke": (suite_nilhecke, None),
    "psi": (suite_psi, 3),
    "equivariant": (suite_equivariant, None),
    "intertwine": (suite_intertwine, 2),
}


def run_suites(cfg: RunConfig) -> list[SuiteResult]:
    """One result per selected suite, in SUITES order, each filled by its suite
    on the configured types within its rank cap; the others go to skipped."""
    systems = [build_root_system(name) for name in cfg.types]
    results = []
    for name in (SUITES if cfg.suite == "all" else [cfg.suite]):
        suite, cap = SUITES[name]
        top = cfg.max_rank if cap is None else min(cfg.max_rank, cap)
        res = SuiteResult(name, skipped=[rs.name() for rs in systems if rs.rank > top])
        suite(cfg, res, [rs for rs in systems if rs.rank <= top])
        results.append(res)
    return results

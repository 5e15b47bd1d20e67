"""The headline checks: Theorem 7.3 inequalities, Corollary 7.10, the
Grothendieck-group counts, and the Gorenstein transfer, evaluated on
concrete (algebra, F, tilting complex, endomorphism algebra) quadruples.

Every inequality is three-valued (verified / vacuous-at-cutoff / violated);
"violated" is only ever reported when both sides are exact, never when a
cutoff censored one of them.
"""

from __future__ import annotations

from .algebra import AbstractAlgebra
from .complexes import term_length
from .relative import (
    SubbifunctorF,
    findim_f,
    finitistic_sup,
    gldim,
    gldim_f,
    id_f,
    is_gorenstein,
    ordinary_pd,
    pd_f,
    regular_id,
    relative_injectives,
)
from .rep import Representation
from .reports import (
    VACUOUS,
    VERIFIED,
    VIOLATED,
    Dim,
    DimensionReport,
    InequalityCheck,
    dim_max,
)
from .tilting import ComplexSum, verify_f_tilting


class BoundsReport:
    """The values, checks, counts and notes of one headline check, filled in
    by the check as it runs."""

    def __init__(self, name: str):
        self.name = name
        self.values: dict = {}
        self.checks: list[InequalityCheck] = []
        self.counts: dict = {}
        self.notes: list[str] = []

    @property
    def violated(self) -> bool:
        return any(c.status == VIOLATED for c in self.checks)

    @property
    def worst_status(self) -> str:
        if self.violated:
            return VIOLATED
        if any(c.status == VACUOUS for c in self.checks):
            return VACUOUS
        return VERIFIED

    def to_json(self):
        return {
            "name": self.name,
            "values": {k: (v.to_json() if hasattr(v, "to_json") else v)
                       for k, v in sorted(self.values.items())},
            "checks": [c.to_json() for c in self.checks],
            "counts": {k: v for k, v in sorted(self.counts.items())},
            "notes": list(self.notes),
            "status": self.worst_status,
        }


def _shifted(d: Dim, offset: int) -> Dim:
    return Dim(d.value + offset, d.censored)


def _fd_dim(report: DimensionReport, complete: bool) -> Dim:
    """fd as a Dim: exact when the corpus is complete and nothing was
    censored, otherwise a certified lower bound ("actual >= value")."""
    any_censored = any(isinstance(v, Dim) and v.censored for v in report.breakdown.values())
    if complete and not any_censored:
        return Dim(report.dim.value, False)
    return Dim(report.dim.value, True)


def _gamma_pd_breakdown(gl_g: Dim) -> dict[str, Dim]:
    """pd of the Gamma modules the finitistic sides are taken over: the
    regular module is free, so pd 0, and pd(Gamma/rad) is gldim(Gamma), which
    the caller already holds."""
    return {"regular": Dim(0), "Gamma/rad": gl_g}


def _fd_gamma_upper(fd_g: Dim, gl_g: Dim) -> Dim:
    """The supplied-corpus fd(Gamma) as the left side of an upper bound: it
    equals fd(Gamma) when gldim(Gamma) is exact (then fd = gldim), and is only
    a lower bound when gldim(Gamma) is censored."""
    return Dim(fd_g.value, gl_g.censored)


def theorem73_check(f: SubbifunctorF, corpus: list[tuple[str, Representation]],
                    ts: ComplexSum, cutoff: int, complete: bool = False) -> BoundsReport:
    rep = BoundsReport("theorem73")
    tilt = verify_f_tilting(ts, f, declared_count=len(ts.parts))
    if not tilt.self_orthogonal_ok:
        raise ValueError("tilting precondition failed: " + "; ".join(tilt.failures))
    gl_f = gldim_f(corpus, f, cutoff, complete=complete)
    t = tilt.term_length
    gamma = ts.gamma()
    gl_g = gldim(gamma.presentation(), cutoff)
    rep.values["gldim_F(Lambda)"] = gl_f
    rep.values["t(T)"] = t
    rep.values["dim(Gamma)"] = gamma.dim
    rep.values["gldim(Gamma)"] = gl_g
    lhs = _shifted(gl_f.dim, -t)
    rep.checks.append(InequalityCheck.of("gldim_F(Lambda) - t <= gldim(Gamma)", lhs, gl_g.dim))
    rhs = _shifted(gl_f.dim, t + 2)
    rep.checks.append(InequalityCheck.of("gldim(Gamma) <= gldim_F(Lambda) + t + 2", gl_g.dim, rhs))
    if not complete:
        rep.notes.append("Lambda corpus not declared complete; gldim_F is a corpus max")
    # finitistic side
    fd_f_rep = findim_f(gl_f, complete=complete)
    fd_f = _fd_dim(fd_f_rep, complete)
    fd_g_break = _gamma_pd_breakdown(gl_g.dim)
    fd_g_value = finitistic_sup(fd_g_break.values())
    rep.values["fd_F(Lambda)"] = fd_f_rep
    rep.values["fd(Gamma) corpus max"] = DimensionReport(
        "fd", fd_g_value, cutoff, breakdown=fd_g_break,
        assumptions=["max over the supplied Gamma modules of finite pd; a lower bound of fd"])
    rep.checks.append(InequalityCheck.of(
        "fd_F(Lambda) - t <= fd(Gamma)", _shifted(fd_f, -t), Dim(fd_g_value.value, True)))
    rep.checks.append(InequalityCheck.of(
        "fd(Gamma) <= fd_F(Lambda) + t + 2 (per supplied corpora)",
        _fd_gamma_upper(fd_g_value, gl_g.dim), _shifted(fd_f, t + 2)))
    return rep


def corollary710_check(f: SubbifunctorF, corpus: list[tuple[str, Representation]],
                       ts: ComplexSum, cutoff: int, complete: bool = False) -> BoundsReport:
    algebra = f.algebra
    n = algebra.quiver.n
    if len(f.summands) != n or not all(f.is_projective_summand(k) for k in range(len(f.summands))):
        raise ValueError("corollary 7.10 requires the ordinary case G = Lambda")
    rep = BoundsReport("corollary710")
    tilt = verify_f_tilting(ts, f, declared_count=len(ts.parts))
    if not tilt.self_orthogonal_ok:
        raise ValueError("tilting precondition failed: " + "; ".join(tilt.failures))
    l = tilt.term_length
    gamma = ts.gamma().presentation()
    gl_l = gldim(algebra, cutoff)
    gl_g = gldim(gamma, cutoff)
    id_l = regular_id(algebra, cutoff)
    id_g = regular_id(gamma, cutoff)
    rep.values["gldim(Lambda)"] = gl_l
    rep.values["gldim(Gamma)"] = gl_g
    rep.values["l(T)"] = l
    rep.values["id(Lambda)"] = id_l
    rep.values["id(Gamma)"] = id_g
    rep.checks.append(InequalityCheck.of("gldim(Lambda) - l <= gldim(Gamma)",
                                         _shifted(gl_l.dim, -l), gl_g.dim))
    rep.checks.append(InequalityCheck.of("gldim(Gamma) <= gldim(Lambda) + l",
                                         gl_g.dim, _shifted(gl_l.dim, l)))
    # ordinary finitistic side over the corpus
    fd_break = {name: ordinary_pd(m, cutoff) for name, m in corpus}
    fd_l = finitistic_sup(fd_break.values())
    fd_l_exact = complete and not any(d.censored for d in fd_break.values())
    fd_g_break = _gamma_pd_breakdown(gl_g.dim)
    fd_g = finitistic_sup(fd_g_break.values())
    rep.values["fd(Lambda)"] = DimensionReport("fd", Dim(fd_l.value, not fd_l_exact), cutoff,
                                               breakdown=fd_break)
    rep.values["fd(Gamma) corpus max"] = DimensionReport("fd", fd_g, cutoff, breakdown=fd_g_break)
    rep.checks.append(InequalityCheck.of(
        "fd(Lambda) - l <= fd(Gamma)",
        _shifted(Dim(fd_l.value, not fd_l_exact), -l), Dim(fd_g.value, True)))
    rep.checks.append(InequalityCheck.of(
        "fd(Gamma) <= fd(Lambda) + l (per supplied corpora)",
        _fd_gamma_upper(fd_g, gl_g.dim), _shifted(Dim(fd_l.value, not fd_l_exact), l)))
    rep.checks.append(InequalityCheck.of("id(Lambda) - l <= id(Gamma)",
                                         _shifted(id_l.dim, -l), id_g.dim))
    rep.checks.append(InequalityCheck.of("id(Gamma) <= id(Lambda) + l",
                                         id_g.dim, _shifted(id_l.dim, l)))
    return rep


def prop63_64_counts(f: SubbifunctorF, declared_summands: int,
                     gamma: AbstractAlgebra) -> BoundsReport:
    rep = BoundsReport("prop63_64")
    n_pf = len(f.summands)
    quotient_dim = gamma.semisimple_quotient_dim()
    split = gamma.idempotents_split_basic()
    rep.counts["indecomposables in P(F)"] = n_pf
    rep.counts["declared summands of T"] = declared_summands
    rep.counts["dim(Gamma/rad Gamma)"] = quotient_dim
    rep.counts["split_basic_verified"] = split
    ok = n_pf == declared_summands == quotient_dim
    # unless Gamma/rad is split, its dimension only bounds the number of
    # simples, so a disagreement refutes nothing
    status = VERIFIED if ok else VIOLATED if split else VACUOUS
    rep.checks.append(InequalityCheck(
        "counts agree (|ind P(F)| = |ind T| = #simples of Gamma)",
        Dim(n_pf), Dim(quotient_dim), status))
    if not split:
        rep.notes.append("Gamma/rad split status unverified: dim is only an upper proxy "
                         "for the number of simples")
    return rep


def gorenstein_check(f: SubbifunctorF, corpus: list[tuple[str, Representation]],
                     ts: ComplexSum, cutoff: int) -> BoundsReport:
    rep = BoundsReport("gorenstein")
    plain = [m for _, m in corpus]
    injs, validated, notes = relative_injectives(f, plain)
    if not validated:
        rep.notes.append("I(F) recipe validation failed: " + "; ".join(notes))
    # Lemma 7.7 criterion: id_F over P(F) and pd_F over I(F)
    id_break, id_vals = {}, []
    for s in f.summands:
        r = id_f(s.module, f, injs, cutoff)
        id_break[s.name] = r.dim
        id_vals.append(r.dim)
    idf_pf = dim_max(id_vals)
    pd_break, pd_vals = {}, []
    for c in injs:
        r = pd_f(c.module, f, cutoff)
        pd_break[c.name] = r.dim
        pd_vals.append(r.dim)
    pdf_if = dim_max(pd_vals)
    rep.values["id_F(P(F))"] = DimensionReport("id_F", idf_pf, cutoff, breakdown=id_break)
    rep.values["pd_F(I(F))"] = DimensionReport("pd_F", pdf_if, cutoff, breakdown=pd_break)
    lambda_gorenstein = None
    if not idf_pf.censored and not pdf_if.censored:
        lambda_gorenstein = True
    rep.values["Lambda F-Gorenstein"] = (
        "yes" if lambda_gorenstein else "undetermined at cutoff")
    t = term_length(ts.total)
    status, left, right = is_gorenstein(ts.gamma().presentation(), cutoff)
    rep.values["id(Gamma left regular)"] = left
    rep.values["id(Gamma right regular)"] = right
    rep.values["Gamma Gorenstein"] = "yes" if status else "undetermined at cutoff"
    # Prop 7.8
    rep.checks.append(InequalityCheck.of("id_F(P(F)) - t <= id(Gamma left regular)",
                                         _shifted(idf_pf, -t), left.dim))
    rep.checks.append(InequalityCheck.of("id(Gamma left regular) <= id_F(P(F)) + t + 2",
                                         left.dim, _shifted(idf_pf, t + 2)))
    # Prop 7.9 biconditional, only decidable when both sides are confirmed
    if lambda_gorenstein and status:
        rep.checks.append(InequalityCheck("Lambda F-Gorenstein <=> Gamma Gorenstein",
                                          Dim(1), Dim(1), VERIFIED))
    else:
        rep.checks.append(InequalityCheck("Lambda F-Gorenstein <=> Gamma Gorenstein",
                                          Dim(0), Dim(0), VACUOUS))
        rep.notes.append("a side of the Gorenstein biconditional is censored at this cutoff")
    return rep

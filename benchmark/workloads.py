"""The three workloads: seeded job lists and the expected verdict of each job.

A workload is a list of jobs, one pass.  The seed fixes the order of the
jobs and the details of each input (which primes, which generator set from
a cost class, the element order of a table, the mutated entry, the random
functions), never the mix: every pass of every seed holds the same job
kinds at the same sizes, so runs with different seeds measure the same
amount of work.

A job's ``run`` makes the latfact calls and is what gets timed; its
``check`` compares the outcome with a verdict that comes from outside the
code under test (theorems about the instance families, or the benchmark's
own exhaustive checks in ``oracle``) and returns a failure text or None.
Every job builds its own lattice objects from its input.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

import oracle

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

# numerical monoids whose check-sp cost at the given budget is within a
# few percent of each other; the seed picks one per class
NUMERICAL_CLASSES = {
    250: [(3, 4), (3, 5), (4, 5, 6)],
    120: [(2, 3), (3, 5), (2, 7), (4, 5, 6)],  # (2, 5) runs about 5 % faster
    64: [(2, 3), (2, 5), (3, 4), (3, 5, 7)],
}

WORKLOADS = ("sp-presented", "finite-tables", "represent-usc")


@dataclass
class Job:
    key: str  # what the job does, stable for a seed
    kind: str
    size: int  # budget, table size or batch size; orders jobs of one kind
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    cli: bool = False  # run() returns (exit code, stdout, stderr) of the CLI

    def report(self, outcome) -> Optional[str]:
        return outcome[1] if self.cli else None


def build(workload: str, seed: int, lf) -> list[Job]:
    """One pass of the workload for this seed; lf holds the latfact modules."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sp-presented":
        return _sp_presented(rng, lf)
    if workload == "finite-tables":
        return _finite_tables(rng, lf)
    if workload == "represent-usc":
        return _represent_usc(rng, lf)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def smallest(jobs: list[Job], count: int) -> list[Job]:
    """The count smallest jobs, taken round-robin over the job kinds so a
    short list still covers every kind."""
    by_kind: dict = {}
    for job in jobs:
        by_kind.setdefault(job.kind, []).append(job)
    queues = [sorted(group, key=lambda j: j.size) for group in by_kind.values()]
    picked = []
    while len(picked) < count and any(queues):
        for queue in queues:
            if queue and len(picked) < count:
                picked.append(queue.pop(0))
    return picked


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------


def _cli_job(lf, argv, kind, size, check) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lf.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return Job(" ".join(argv), kind, size, run, check, cli=True)


def _cli_document(outcome):
    code, out, err = outcome
    if code != 0:
        return None, f"exit code {code}: {err.strip()[:200]}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"


def _expect_sp(value: bool, token: Optional[str] = None):
    """Thm 7.7: the Dedekind and power-of-j lattices satisfy all six
    conditions.  Thm 8.5 and criterion 3: the rank-two valuation chain and
    numerical monoids fail all six, and the condition-3 witness names the
    nonmaximal prime Limit(0) or the maximal ideal M."""
    def check(outcome):
        doc, problem = _cli_document(outcome)
        if problem:
            return problem
        verdicts = {v["name"]: v["value"] for v in doc["verdicts"]}
        conditions = [verdicts.get(f"condition-{i}") for i in range(1, 7)]
        if conditions != [value] * 6:
            return f"conditions {conditions}, expected all {value}"
        if verdicts.get("agreement") is not True:
            return "conditions do not agree"
        if token is not None:
            witness = {w["name"]: w["detail"] for w in doc["witnesses"]}.get("condition-3", "")
            if not re.search(r"\b" + re.escape(token) + (r"\b" if token[-1].isalnum() else ""),
                             witness):
                return f"condition-3 witness {witness!r} does not name {token}"
        return None
    return check


def _squarefree(rng, count) -> int:
    out = 1
    for p in rng.sample(PRIMES, count):
        out *= p
    return out


def _sp_presented(rng, lf) -> list[Job]:
    def sp(selector, budget, value, token=None):
        argv = ["check-sp", "--builtin", selector, "--format", "json"]
        if budget:
            argv[3:3] = ["--window", str(budget)]
        kind = "check-sp:positive" if value else "check-sp:negative"
        return _cli_job(lf, argv, kind, budget or 24, _expect_sp(value, token))

    # Below the one numerical job at 250, six positive jobs cost within a
    # few percent of each other (about 1.3 s each).  With one big job and a
    # group of six, the eleventh-slowest job of 2 to 4 passes always falls in
    # that group, so the tail latency does not jump with the number of passes.
    jobs = [
        sp("dedekind:2", 46, True),
        sp("dedekind:3", 46, True),
        sp("dedekind:4", 42, True),
        sp("dedekind:5", 36, True),
        sp(f"power-of-j:{_squarefree(rng, 2)}", 48, True),
        sp(f"power-of-j:{_squarefree(rng, 3)}", 46, True),
        sp("dedekind:1", 72, True),
        sp("dedekind:3", 24, True),
        sp("dedekind:4", 24, True),
        sp("dedekind:5", 24, True),
        sp(f"power-of-j:{_squarefree(rng, 3)}", 24, True),
        sp("rank2", None, False, "Limit(0)"),
    ]
    for budget, generator_sets in NUMERICAL_CLASSES.items():
        gens = rng.choice(generator_sets)
        jobs.append(sp("numerical:" + ",".join(map(str, gens)), budget, False, "M"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# finite tables
# ---------------------------------------------------------------------------

# prime signatures of the divisor tables; the element count is
# prod(e + 1), on both sides of the exhaustive-validation cap of 64
TABLE_SIGNATURES = (
    (1, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
    (2, 2, 1, 1), (2, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    (2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 1), (4, 2, 1, 1, 1), (2, 2, 1, 1, 1, 1),
    (4, 2, 1, 1, 1, 1),
)
MUTATED_SIGNATURES = ((2, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (2, 1, 1, 1, 1))
LOCALIZATION_LIMIT = 64  # tables up to this size also run the localization suite
SYSTEMS = (("s", 8), ("d", 8), ("s", 10), ("d", 10), ("s", 12), ("d", 12))


def _factors(rng, signature):
    return list(zip(rng.sample(PRIMES, len(signature)), signature))


def _table_job(lf, doc) -> Job:
    """Divisor lattices of Z/n are valid multiplicative lattices, every
    element factors into an ascending radical chain, and the localization
    identities hold on them."""
    text = json.dumps(doc)
    mul = doc["mul"]
    n = len(doc["elements"])
    unit = doc["elements"].index("1")

    def run():
        lattice = lf.finite.loads(text)
        chains = [lf.factor.radical_factor(lattice, x)
                  for x in lattice.elements() if x != lattice.top]
        local = lf.props.localization_checks(lattice) if n <= LOCALIZATION_LIMIT else {}
        return lattice.validate(), chains, local

    def check(outcome):
        report, chains, local = outcome
        if not report.all_axioms_pass:
            return "valid table reported invalid"
        if len(chains) != n - 1:
            return f"{len(chains)} chains for {n - 1} proper elements"
        for chain in chains:
            product = unit
            for factor in chain.factors:
                product = mul[product][factor.key]
            if not chain.product_check or product != chain.source.key:
                return f"chain of {doc['elements'][chain.source.key]} does not multiply back"
        bad = sorted(name for name, (ok, _) in local.items() if not ok)
        return f"localization identities fail: {bad}" if bad else None

    return Job(f"table {doc['name']} ({n} elements)", "table", n, run, check)


def _mutated_job(lf, doc, rng) -> Job:
    """One table entry changed: latfact must reject the table naming the
    first failing axiom that the benchmark's exhaustive check finds, with a
    witness that refutes it, or accept it when the check finds none."""
    mutated, where = oracle.mutate(doc, rng)
    text = json.dumps(mutated)
    tables = oracle.Tables(mutated)
    expected = tables.first_violation()
    n = len(doc["elements"])

    def run():
        try:
            return lf.finite.loads(text), None
        except lf.errors.LatFactError as exc:
            return None, exc

    def check(outcome):
        lattice, exc = outcome
        if expected is None:
            return None if lattice is not None else f"valid mutation rejected: {exc}"
        axiom, _ = expected
        if exc is None:
            return f"mutation {where} breaks {axiom} but the table was accepted"
        if isinstance(exc, lf.errors.ParseError):
            named, witness = oracle.order_error_witness(str(exc))
        elif isinstance(exc, lf.errors.AxiomViolation):
            named, witness = exc.axiom, tuple(exc.witness or ())
        else:
            return f"unexpected {type(exc).__name__}: {exc}"
        if named != axiom:
            return f"mutation {where}: reported {named}, first failing axiom is {axiom}"
        if not tables.violates(axiom, witness):
            return f"mutation {where}: witness {witness} does not refute {axiom}"
        return None

    return Job(f"mutated {doc['name']} {where}", "mutated", n, run, check)


def _system_job(lf, n, system, rng) -> Job:
    """The s- and ring systems of Z/n are ideal systems; their ideals are
    counted by the benchmark; the top ideal is invertible, the bottom is
    not cancellative, and every ring ideal of Z/n is principal, hence a
    principal element."""
    doc, residues = oracle.zmod_monoid_doc(n, system, rng)
    text = json.dumps(doc)
    count = oracle.ideal_count(n, system, residues)
    top_mask = (1 << n) - 1
    zero_mask = 1 << residues.index(0)

    def run():
        ideal_system = lf.idealsys.system_from_document(json.loads(text))
        report = lf.idealsys.validate_system(ideal_system)
        lattice = lf.idealsys.build_ideal_lattice(ideal_system)
        records = [lattice.element_predicates(x) for x in lattice.elements()]
        return report, lattice.ideal_masks, records

    def check(outcome):
        report, masks, records = outcome
        if not (report.all_axioms_pass and report.is_ideal_system):
            return "system axioms reported failing"
        if len(masks) != count:
            return f"{len(masks)} ideals, expected {count}"
        by_mask = dict(zip(masks, records))
        top, bottom = by_mask.get(top_mask), by_mask.get(zero_mask)
        if top is None or not (top.ell_invertible and top.cancellative):
            return "the top ideal is not reported invertible"
        if bottom is None or bottom.cancellative:
            return "the zero ideal is reported cancellative"
        if system == "d" and not all(r.ell_principal for r in records):
            return "a ring ideal of Z/n is reported not principal"
        return None

    return Job(f"system {system} on zmod-mult:{n}", "system", n, run, check)


def _finite_tables(rng, lf) -> list[Job]:
    jobs = [_table_job(lf, oracle.divisor_table(_factors(rng, sig), rng))
            for sig in TABLE_SIGNATURES]
    for sig in MUTATED_SIGNATURES:
        jobs.append(_mutated_job(lf, oracle.divisor_table(_factors(rng, sig), rng), rng))
    jobs.extend(_system_job(lf, n, system, rng) for system, n in SYSTEMS)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# representation and usc functions
# ---------------------------------------------------------------------------


def _expect_iso(points: int):
    """A radical factorial lattice is isomorphic to its function lattice
    (the paper's representation theorem), so every check passes, and the
    spectrum has one point per prime."""
    def check(outcome):
        doc, problem = _cli_document(outcome)
        if problem:
            return problem
        verdicts = {v["name"]: v["value"] for v in doc["verdicts"]}
        for name in ("additive", "order_reflecting", "injective", "surjective_on_window",
                     "engine_vs_decomposition", "spectrum_discrete"):
            if verdicts.get(name) is not True:
                return f"{name} is {verdicts.get(name)!r}"
        if verdicts.get("spectrum_points") != points:
            return f"spectrum has {verdicts.get('spectrum_points')} points, expected {points}"
        return None
    return check


def _random_function_doc(kind, rng) -> dict:
    """A usc function document on one of the three space kinds."""
    if kind == "finite_discrete":
        support = [[p, v] for p in range(5) if (v := rng.randrange(0, 6))]
        return {"space": {"kind": kind, "points": 5}, "support": support}
    points = rng.sample(range(18), rng.randrange(0, 7))
    if kind == "countable_discrete":
        return {"space": {"kind": kind}, "support": [[p, rng.randrange(1, 6)] for p in points]}
    default = rng.randrange(0, 5)
    support = [[p, v] for p in points if (v := rng.randrange(0, 6)) != default]
    return {"space": {"kind": kind}, "support": support, "default": default,
            "infinity": default + rng.randrange(0, 6 - default)}


def _roundtrip_job(lf, kind, count, rng) -> Job:
    """decompose then recompose is the identity."""
    docs = [_random_function_doc(kind, rng) for _ in range(count)]

    def run():
        usc = lf.usc
        out = []
        for doc in docs:
            f = usc.fun_from_doc(doc)
            out.append((f, usc.recompose(usc.decompose(f))))
        return out

    def check(outcome):
        for (f, back), doc in zip(outcome, docs):
            if back != f:
                return f"round trip changed {doc}"
            if sorted(map(tuple, doc["support"])) != list(f.values):
                return f"function {doc} read back as {f.values}"
        return None

    return Job(f"usc round trips on {kind} x{count}", "usc:roundtrip", count, run, check)


def _radical_job(lf, points, cap) -> Job:
    """On a finite discrete space a function is radical exactly when it
    takes no value above one; is_radical and the definitional radical
    must both say so on every function of the exhaustive fragment."""
    combos = list(itertools.product(range(cap + 1), repeat=points))
    docs = [{"space": {"kind": "finite_discrete", "points": points},
             "support": [[p, v] for p, v in enumerate(c) if v]} for c in combos]
    expected = [max(c) <= 1 for c in combos]

    def run():
        usc = lf.usc
        fragment = [usc.fun_from_doc(doc) for doc in docs]
        return [(usc.is_radical(f)[0], usc.definitional_radical(f, fragment) == f)
                for f in fragment]

    def check(outcome):
        for (flag, fixed), want, combo in zip(outcome, expected, combos):
            if flag != want or fixed != want:
                return f"radical verdicts ({flag}, {fixed}) at values {combo}, expected {want}"
        return None

    return Job(f"definitional radical on {points} points, values <= {cap}",
               "usc:radical", len(combos), run, check)


def _represent_usc(rng, lf) -> list[Job]:
    def rep(selector, budget, points):
        argv = ["represent", "--builtin", selector, "--window", str(budget), "--format", "json"]
        return _cli_job(lf, argv, "represent", budget, _expect_iso(points))

    def pj(count, budget):
        return rep(f"power-of-j:{_squarefree(rng, count)}", budget, count)

    # the four largest cost within a few percent of each other, so the tail
    # latency stays on them whatever the number of passes
    represent_jobs = [
        rep("dedekind:4", 200, 4), pj(4, 200), pj(4, 200), rep("dedekind:3", 200, 3),
        rep("dedekind:5", 200, 5), rep("dedekind:2", 200, 2),
        pj(3, 100), rep("dedekind:3", 100, 3), rep("dedekind:5", 100, 5),
        rep("dedekind:4", 48, 4), rep("dedekind:1", 48, 1),
    ]
    usc_jobs = [_roundtrip_job(lf, kind, 600, rng)
                for kind in ("finite_discrete", "countable_discrete", "one_point_compactified")]
    usc_jobs += [_radical_job(lf, 3, 3), _radical_job(lf, 4, 2)]
    rng.shuffle(represent_jobs)
    rng.shuffle(usc_jobs)
    # batches of usc jobs run between the represent jobs
    jobs = []
    for i, job in enumerate(represent_jobs):
        jobs.append(job)
        if i % 2 == 1 and usc_jobs:
            jobs.append(usc_jobs.pop())
    return jobs + usc_jobs

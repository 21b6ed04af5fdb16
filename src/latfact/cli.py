"""Command line entry point.

Subcommands: ``validate`` (lattice or ideal-system documents and
builtins), ``factor`` (radical chains for one element), ``check-sp``
(the condition suite; exit 0 means the conditions agree, whatever their
shared verdict), ``represent`` (spectrum, sampled value tables and the
isomorphism checks) and ``props`` (the acceptance suites).

Exit codes: 0 success/agreement, 1 computational failure (axiom or
condition disagreement, failed factorization, failed hypothesis), 2 for
malformed documents, selectors or element literals.  Reports are
deterministic for a fixed configuration and seed; timing is attached
only on request so byte-identical reruns stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import factor, finite, idealsys, instances, props, represent
from .errors import (
    HypothesisViolated,
    InvalidGenerators,
    InvalidModulus,
    LatFactError,
    NotRadical,
    ParseError,
    Stalled,
    StepFailed,
)

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "config", "verdicts", "witnesses"],
    "properties": {
        "command": {"type": "string"},
        "config": {"type": "object"},
        "verdicts": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "value"],
                "properties": {
                    "name": {"type": "string"},
                    "value": {"type": ["boolean", "string", "integer"]},
                    "scope": {"type": "string"},
                },
            },
        },
        "witnesses": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "detail"],
                "properties": {"name": {"type": "string"}, "detail": {"type": "string"}},
            },
        },
        "timing": {"type": "number"},
    },
    "additionalProperties": False,
}


class _Report:
    def __init__(self, command, config):
        self.doc = {"command": command, "config": config, "verdicts": [], "witnesses": []}

    def verdict(self, name, value, scope=None):
        entry = {"name": name, "value": value}
        if scope:
            entry["scope"] = scope
        self.doc["verdicts"].append(entry)

    def witness(self, name, detail):
        self.doc["witnesses"].append({"name": name, "detail": str(detail)})

    def emit(self, args, started):
        if args.timing:
            self.doc["timing"] = round(time.perf_counter() - started, 3)
        if args.format == "json":
            print(json.dumps(self.doc, sort_keys=True))
        else:
            for v in self.doc["verdicts"]:
                scope = f" [{v['scope']}]" if "scope" in v else ""
                print(f"{v['name']}: {v['value']}{scope}")
            for w in self.doc["witnesses"]:
                print(f"  witness {w['name']}: {w['detail']}")
            if "timing" in self.doc:
                print(f"timing: {self.doc['timing']}s")


def _load_source(args, as_lattice: bool = False):
    """Resolve --builtin/--file into a lattice backend or an ideal system.

    Without as_lattice a lattice document is parsed but not validated, so
    ``validate`` can report every failing axiom; with as_lattice it must
    pass validation (AxiomViolation on the first failure) and ideal
    systems are materialized into their lattice.  Unreadable files and
    invalid JSON are parse errors.
    """
    if args.builtin:
        source = _builtin(args.builtin)
    elif args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ParseError(str(exc)) from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"invalid JSON in {args.file}: {exc}") from None
        if isinstance(doc, dict) and "cayley" in doc:
            source = idealsys.system_from_document(doc)
        elif as_lattice:
            source = finite.load(doc)
        else:
            source = finite.FiniteMultLattice.from_document(doc)
    else:
        raise ParseError("pass --builtin or --file")
    if as_lattice and isinstance(source, idealsys.WeakIdealSystem):
        return idealsys.build_ideal_lattice(source)
    return source


def _builtin(selector: str):
    parts = selector.split(":")
    kind = parts[0]
    try:
        if kind == "zmod":
            return finite.materialize_from_divisors(int(parts[1]))
        if kind == "dedekind":
            return instances.dedekind(int(parts[1]))
        if kind == "rank2":
            return instances.rank2_valuation()
        if kind == "numerical":
            return instances.numerical_monoid(tuple(int(g) for g in parts[1].split(",")))
        if kind == "power-of-j":
            return instances.power_of_j_from_int(int(parts[1]))
        if kind == "s-system":
            if parts[1] == "zmod-mult":
                return idealsys.WeakIdealSystem.s_system(
                    idealsys.zmod_mult_monoid(int(parts[2])))
        if kind == "d-system":
            if parts[1] == "zmod":
                n = int(parts[2])
                return idealsys.WeakIdealSystem.d_system(
                    idealsys.zmod_mult_monoid(n), idealsys.zmod_addition(n))
    except (IndexError, ValueError):
        raise ParseError(f"malformed builtin selector {selector!r}") from None
    except (InvalidModulus, InvalidGenerators, NotRadical) as exc:
        raise ParseError(f"malformed builtin selector {selector!r}: {exc}") from None
    raise ParseError(f"unknown builtin {selector!r}")


def _parse_element(lattice, text: str):
    """Element literals per instance family: a divisor, a prime:exponent
    list, a catalog name, or an ideal description n+H / generator list /
    the {m1,...,c+} member form that labels print."""
    text = text.strip()
    if isinstance(lattice, finite.FiniteMultLattice):
        masks = lattice.ideal_masks
        if masks is not None and text.startswith("mask:"):
            mask = int(text[len("mask:"):], 0)
            if mask not in masks:
                raise ParseError(f"mask {mask} is not an ideal of this system")
            return lattice.ref(masks.index(mask))
        return lattice.ref_by_label(text)
    if isinstance(lattice, instances.DedekindExponentLattice):
        if text in ("top", "1"):
            return lattice.top
        if text in ("zero", "0"):
            return lattice.bottom
        if ":" in text:
            vec = {}
            for part in text.split(","):
                label, _, exp = part.partition(":")
                vec[_prime_index(lattice, label.strip())] = int(exp)
            return lattice.element(vec)
        return _element_from_integer(lattice, int(text))
    if isinstance(lattice, instances.Rank2ValuationIdealLattice):
        if text.lower() == "top":
            return lattice.top
        if text.lower() == "empty":
            return lattice.bottom
        if text.startswith("Principal(") and text.endswith(")"):
            a, b = (int(v) for v in text[len("Principal("):-1].split(","))
            return lattice.principal(a, b)
        if text.startswith("Limit(") and text.endswith(")"):
            return lattice.limit(int(text[len("Limit("):-1]))
        raise ParseError(f"unknown catalog element {text!r}")
    if isinstance(lattice, instances.NumericalMonoidIdealLattice):
        body = text[len("ideal:"):] if text.startswith("ideal:") else text
        if body == "H":
            return lattice.top
        if body in ("empty", "0"):
            return lattice.bottom
        if body == "M":
            return lattice.maximal_ideal()
        if body.endswith("+H"):
            return lattice.ideal([int(body[:-2])])
        if body.startswith("{") and body.endswith("+}"):
            *members, ray = body[1:-2].split(",")
            return lattice.ideal_from_members([int(m) for m in members], int(ray))
        return lattice.ideal([int(v) for v in body.split(",")])
    raise ParseError(f"no element grammar for {lattice.id}")


def _window(args, lattice):
    """The quantification window under --window (default 48) and --seed;
    a budget below 1 is malformed."""
    if args.window is not None and args.window < 1:
        raise ParseError(f"--window must be at least 1, got {args.window}")
    return lattice.window(budget=48 if args.window is None else args.window, seed=args.seed)


def _prime_index(lattice, label: str) -> int:
    for i in (lattice.indices or range(len(instances.PRIME_LABELS))):
        if str(lattice.prime_label(i)) == label:
            return i
    raise ParseError(f"unknown prime label {label!r} in {lattice.id}")


def _element_from_integer(lattice, value: int):
    if value < 1:
        raise ParseError("integer elements must be positive")
    vec = {}
    rest = value
    for i, p in enumerate(instances.PRIME_LABELS):
        while rest % p == 0:
            vec[i] = vec.get(i, 0) + 1
            rest //= p
    if rest != 1:
        raise ParseError(f"{value} has a prime factor beyond the built-in labels")
    return lattice.element(vec)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    started = time.perf_counter()
    source = _load_source(args)
    if not isinstance(source, (finite.FiniteMultLattice, idealsys.WeakIdealSystem)):
        raise ParseError(f"validate checks tables, not the closed-form builtin "
                         f"{args.builtin!r}; pass zmod:<n>, s-system:zmod-mult:<n>, "
                         f"d-system:zmod:<n> or --file")
    report = _Report("validate", _config(args))
    if isinstance(source, idealsys.WeakIdealSystem):
        sys_report = idealsys.validate_system(source)
        for entry in sys_report.entries:
            report.verdict(entry.name, entry.passed)
            if not entry.passed:
                report.witness(entry.name, entry.witness)
        report.verdict("ideal_system", sys_report.is_ideal_system)
        report.verdict("finitary", sys_report.is_finitary)
        report.verdict("modular", sys_report.is_modular)
        ok = sys_report.all_axioms_pass
    else:
        val = source.validate(seed=args.seed)
        for entry in val.entries:
            report.verdict(entry.name, entry.passed)
            if not entry.passed:
                report.witness(entry.name, entry.witness or entry.detail)
        report.verdict("modular", val.modular)
        report.verdict("domain", val.domain)
        report.verdict("c_lattice", val.c_lattice)
        ok = val.all_axioms_pass
    report.emit(args, started)
    return 0 if ok else 1


def cmd_factor(args) -> int:
    started = time.perf_counter()
    lattice = _load_source(args, as_lattice=True)
    try:
        element = _parse_element(lattice, args.element)
    except ValueError:  # a number that does not parse
        raise ParseError(f"malformed element literal {args.element!r}") from None
    report = _Report("factor", _config(args))
    try:
        chain = factor.radical_factor(lattice, element, max_steps=args.max_steps)
    except (StepFailed, Stalled) as exc:
        report.verdict("factorization", False)
        report.witness("engine", exc)
        report.emit(args, started)
        return 1
    report.verdict("factorization", True)
    report.verdict("chain", " | ".join(lattice.label(f) for f in chain) or "(empty)")
    report.verdict("product_check", chain.product_check)
    for f in chain:
        report.verdict(f"radical[{lattice.label(f)}]", lattice.is_radical_elem(f))
    report.emit(args, started)
    return 0


def cmd_check_sp(args) -> int:
    started = time.perf_counter()
    lattice = _load_source(args, as_lattice=True)
    window = _window(args, lattice)
    flavor = args.flavor or _default_flavor(lattice)
    report = _Report("check-sp", _config(args, flavor=flavor))
    try:
        conditions = factor.check_sp_conditions(lattice, flavor, window)
    except HypothesisViolated as exc:
        report.verdict("hypotheses", False)
        report.witness("hypotheses", exc)
        report.emit(args, started)
        return 1
    for cond in conditions.conditions:
        report.verdict(f"condition-{cond.number}", cond.value, cond.scope)
        if cond.witness:
            report.witness(f"condition-{cond.number}", cond.witness)
    report.verdict("agreement", conditions.agreement)
    report.emit(args, started)
    return 0 if conditions.agreement else 1


def _default_flavor(lattice) -> str:
    if isinstance(lattice, (instances.Rank2ValuationIdealLattice,
                            instances.NumericalMonoidIdealLattice)):
        return "monoid-8.5"
    if isinstance(lattice, instances.DedekindExponentLattice):
        return "domain-7.7"
    return "lattice-4.6"


def cmd_represent(args) -> int:
    started = time.perf_counter()
    lattice = _load_source(args, as_lattice=True)
    window = _window(args, lattice)
    report = _Report("represent", _config(args))
    try:
        phi = represent.build_phi(lattice)
    except (HypothesisViolated, LatFactError) as exc:
        report.verdict("hypotheses", False)
        report.witness("hypotheses", exc)
        report.emit(args, started)
        return 1
    spectrum = phi.spectrum
    card = spectrum.cardinality()
    report.verdict("spectrum_points", card if card is not None else "countable")
    report.verdict("spectrum_discrete", spectrum.discrete)
    iso = represent.verify_iso(phi, window)
    for check in iso.checks:
        report.verdict(check.name, check.passed)
        if not check.passed:
            report.witness(check.name, check.witness)
    sample = [x for x in window if x != lattice.bottom][:5]
    for x in sample:
        fun = phi.forward(x)
        report.verdict(f"alpha[{lattice.label(x)}]",
                       ",".join(f"{p}:{v}" for p, v in fun.values) or "0")
    agree = True
    for x in sample:
        if not represent.engine_agrees_with_decomposition(lattice, x):
            agree = False
            report.witness("engine_vs_decomposition", lattice.label(x))
    report.verdict("engine_vs_decomposition", agree)
    report.emit(args, started)
    return 0 if iso.all_pass and agree else 1


def cmd_props(args) -> int:
    keys = args.criteria.split(",") if args.criteria else None
    results = props.run_criteria(keys)
    all_pass = all(r.passed for r in results)
    if args.format == "json":
        print(json.dumps({
            "criteria": [{"key": r.key, "name": r.name, "passed": r.passed,
                          "detail": r.detail, "elapsed_s": round(r.elapsed, 3)}
                         for r in results],
            "all_pass": all_pass,
        }, sort_keys=True))
    else:
        for result in results:
            print(result.line())
    return 0 if all_pass else 1


def _config(args, **extra) -> dict:
    config = {}
    for key in ("builtin", "file", "element", "flavor", "window", "max_steps", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    config.update(extra)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latfact",
        description="multiplicative lattices, radical factorization, ideal systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, element=False):
        p.add_argument("--builtin", help="builtin selector, e.g. zmod:12, dedekind:3, "
                                         "rank2, numerical:2,3, power-of-j:30, "
                                         "s-system:zmod-mult:4, d-system:zmod:12")
        p.add_argument("--file", help="JSON document (lattice or monoid+system)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--timing", action="store_true",
                       help="attach wall time (off by default to keep reports "
                            "byte-identical)")
        p.add_argument("--seed", type=int, default=0)
        if element:
            p.add_argument("--element", required=True,
                           help="element literal in the instance grammar")

    p_validate = sub.add_parser("validate", help="axiom validation")
    common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_factor = sub.add_parser("factor", help="radical factorization of one element")
    common(p_factor, element=True)
    p_factor.add_argument("--max-steps", type=int, default=factor.DEFAULT_MAX_STEPS,
                          dest="max_steps")
    p_factor.set_defaults(func=cmd_factor)

    p_check = sub.add_parser("check-sp", help="the SP condition suite")
    common(p_check)
    p_check.add_argument("--flavor", choices=factor.FLAVORS)
    p_check.add_argument("--window", type=int)
    p_check.set_defaults(func=cmd_check_sp)

    p_repr = sub.add_parser("represent", help="spectrum and isomorphism report")
    common(p_repr)
    p_repr.add_argument("--window", type=int)
    p_repr.set_defaults(func=cmd_represent)

    p_props = sub.add_parser("props", help="acceptance suites")
    p_props.add_argument("--criteria", help="comma list like 1,3,9 (default all)")
    p_props.add_argument("--format", choices=("text", "json"), default="text")
    p_props.set_defaults(func=cmd_props)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except LatFactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

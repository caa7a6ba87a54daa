"""The fmlab command line: batch analysis of structure files, experiments, and
report emission.

Each action of types/indisc/ramsey/experiment/classify takes
--format/--seed/--threads and only the flags its handler reads, spelled in
full; any other flag is a usage error, and the report's `config` echoes
exactly those flags. Each handler returns its report and exit code (and, for
the two tabular experiment actions, the CSV rows); `main` emits the report
once, so format, config echo and print limit live in one place.

Exit codes: 0 on success, 1 when an assertion-style subcommand is refuted
(bound verification fails, a relation check comes back false), 2 on usage or
parse errors, or when a report value is longer than Python will print.
Reports are deterministic JSON (or CSV/text for tabular output): identical
argv and seed give byte-identical bytes, regardless of --threads.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .classify import (AmalgamConfig, average_type, delta_star, is_good,
                       kappa, make_class_context, prec_K, stable_amalgam,
                       symmetry_test, GoodnessRefutation)
from .core import tp
from .counting import (count_phi_types, find_shattered,
                       verify_independence_bound, verify_order_bound,
                       verify_shattered)
from .detect import (arrow_check, find_cover_violation,
                     find_k_independence, find_n_order, find_weak_m_order,
                     splits, verify_independence, verify_order,
                     verify_split, verify_weak_order)
from .formats import (ParseError, emit_report, parse_formula, parse_structure,
                      refuse_unprintable_power, reportable)
from .indisc import (BoundParams, ConstantGrowth, PolynomialGrowth,
                     WorstCaseGrowth, beth, check_indiscernible,
                     extraction_length_estimates, extract_end_indiscernible,
                     extract_indiscernible, f_star, g_func, ExtractionFailure)
from .ramsey import (E_bound, ExperimentConfig, RGraph, bound_compare,
                     coupon_q, extract_homogeneous, independence_probability_mc,
                     independence_trend, verify_homogeneous)
from .util import BudgetExceeded, FmlabError


def _read(path, flag):
    """A UTF-8 file's text, with CRLF and a lone CR read as LF, as in text mode."""
    if path is None:
        raise FmlabError(f"--{flag} is required for this subcommand")
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        if isinstance(e, FileNotFoundError):
            raise
        raise FmlabError(f"cannot read --{flag} file {path}: "
                         f"{getattr(e, 'strerror', None) or e}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _load(args):
    """The structure file, its structure, and the formula over its signature."""
    doc = parse_structure(_read(args.structure, "structure"))
    M = doc.structure
    phi = parse_formula(_read(args.formula, "formula"), M.signature).formula
    return doc, M, phi


def _named(sections, name, kind):
    """The section of a structure file called `name`, or a usage error."""
    if name not in sections:
        raise FmlabError(f"no {kind} named {name!r} in the structure file")
    return sections[name]


def _tuple_arg(text, flag):
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise FmlabError(f"{flag} takes comma-separated integers: {text!r}") from None


def _echo_config(args):
    return {k: v for k, v in sorted(vars(args).items()) if not callable(v)}


def _emit(args, report, rows=None):
    report = dict(report)
    report["fmlab_report"] = 1
    report["config"] = _echo_config(args)
    if args.format == "json":
        sys.stdout.write(emit_report(report) + "\n")
    elif args.format == "csv":
        if rows is None:
            raise FmlabError("csv output is only available for tabular subcommands")
        cols = ["k", "n", "trials", "estimate", "stderr", "exact_per_tuple",
                "union_bound"]
        sys.stdout.write(",".join(cols) + "\n")
        for row in rows:
            cells = [f"{v:.12g}" if isinstance(v, float) else str(reportable(v))
                     for v in (row.get(c, "") for c in cols)]
            sys.stdout.write(",".join(cells) + "\n")
    else:
        for k in sorted(report):
            sys.stdout.write(f"{k}: {emit_report(report[k])}\n")


def _outcome(value):
    if value is None:
        return "none"
    if isinstance(value, BudgetExceeded):
        return "budget"
    return "witness"


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


# the detect properties answered by one search: (search, the flag that sizes
# it, the checker that re-verifies its witness)
_SEARCHES = {
    "independence": (find_k_independence, "k", verify_independence),
    "order": (find_n_order, "n", lambda M, phi, w: verify_order(M, phi, w.a)),
    "weak-order": (find_weak_m_order, "m", verify_weak_order),
}


def _cmd_detect(args):
    doc, M, phi = _load(args)
    if args.property in _SEARCHES:
        search, flag, check = _SEARCHES[args.property]
        size = getattr(args, flag)
        res = search(M, phi, size)
        report = {"property": args.property, flag: size, "outcome": _outcome(res)}
        if report["outcome"] == "witness":
            report["witness"] = res
            report["verified"] = check(M, phi, res)
    elif args.property == "cover":
        n_max = args.n_max if args.n_max is not None else max(
            M.universe_size ** phi.s, args.d)
        res = find_cover_violation(M, phi, args.d, n_max)
        report = {"property": "cover", "d": args.d, "n_max": n_max,
                  "outcome": _outcome(res)}
        if report["outcome"] == "witness":
            report["witness"] = res
    else:  # splitting
        A = sorted(_named(doc.sets, args.params_set, "set"))
        B = sorted(_named(doc.sets, args.base_set, "set")) if args.base_set else []
        delta = [phi, phi.negated()]
        obj = _tuple_arg(args.object, "--object")
        if len(obj) != phi.r:
            raise FmlabError(f"--object needs {phi.r} entries, got {len(obj)}")
        p = tp(delta, obj, A, M)
        ok, wit = splits(p, B, delta, delta, M)
        report = {"property": "splitting", "splits": ok}
        if wit is not None:
            report["witness"] = wit
            report["verified"] = verify_split(M, p, B, delta, delta, wit)
    return report, 0


def _cmd_types(args):
    if args.action == "shatter":
        family = [frozenset(_tuple_arg(m, "--member")) for m in args.member]
        wit = find_shattered(family, args.k)
        report = {"action": "shatter", "k": args.k, "found": wit is not None}
        if isinstance(wit, BudgetExceeded):
            report["found"] = "budget"
        elif wit is not None:
            report["witness"] = wit
            report["verified"] = verify_shattered(wit, family)
        return report, 0
    doc, M, phi = _load(args)
    A = (sorted(_named(doc.sets, args.set, "set")) if args.set
         else sorted(M.tuples(phi.s)))
    if args.action == "count":
        return {"action": "count", "count": count_phi_types(M, phi, A),
                "params": len(A)}, 0
    if args.action == "verify-order-bound":
        rep = verify_order_bound(M, phi, A, args.n)
    else:
        # rhs = |A|^(s(k-1)), refused unbuilt when it surely cannot print
        refuse_unprintable_power(1, len(A), phi.s * (args.k - 1))
        rep = verify_independence_bound(M, phi, A, args.k)
    return ({"action": args.action, "report": rep},
            0 if (rep.holds and rep.hypothesis_ok) else 1)


def _growth(args):
    if args.growth == "worst":
        return WorstCaseGrowth(args.growth_m)
    if args.growth == "poly":
        return PolynomialGrowth(args.growth_p)
    return ConstantGrowth(args.growth_c)


def _cmd_indisc(args):
    if args.action == "bounds":
        if args.fn != "beth" and args.k is None:
            raise FmlabError(f"--fn {args.fn} needs --k")
        if args.fn == "beth":
            value = beth(args.i, args.x)
        elif args.fn == "estimates":
            value = extraction_length_estimates(args.case, args.m, args.k,
                                                args.p_or_n, args.s, args.t)
        else:
            params = BoundParams(_growth(args), args.alpha, args.r, args.m, args.k)
            value = (f_star(params, args.j) if args.fn == "fstar"
                     else g_func(params, args.i, args.x))
        return {"fn": args.fn, "value": value}, 0
    doc, M, phi = _load(args)
    I = _named(doc.seqs, args.seq, "seq")
    A = sorted(_named(doc.sets, args.set, "set")) if args.set else []
    if args.action == "check":
        cert = check_indiscernible(I, [phi, phi.negated()], args.m, A, M,
                                   mode=args.mode)
        return {"action": "check", "certificate": cert}, 0 if cert.verified else 1
    if args.action == "extract-end":
        got = extract_end_indiscernible(I, phi, args.m, A, M, k=args.k)
    else:
        got = extract_indiscernible(I, phi, args.m, A, M, args.k)
    if isinstance(got, ExtractionFailure):
        return {"action": args.action, "failure": got}, 1
    # both extractions return only a sequence that passed check_indiscernible
    if args.action == "extract-end":
        return {"action": args.action, "sequence": got[0], "verified": True,
                "trace": got[1]}, 0
    return {"action": args.action, "sequence": got, "verified": True}, 0


def _cmd_ramsey(args):
    if args.action == "arrow":
        holds = arrow_check(args.x, args.y, args.a, args.b)
        return ({"action": "arrow", "x": args.x, "y": args.y, "a": args.a,
                 "b": args.b, "holds": holds}, 0 if holds else 1)
    if args.action == "compare-bounds":
        return {"action": "compare-bounds",
                "comparison": bound_compare(args.r, args.n, args.k)}, 0
    if args.action == "e-bound":
        return {"action": "e-bound", "value": E_bound(args.p, args.j, args.x)}, 0
    doc = parse_structure(_read(args.structure, "structure"))
    G = RGraph.from_structure(doc.structure, args.relation)
    got = extract_homogeneous(G, args.n, args.k)
    if isinstance(got, ExtractionFailure):
        return {"action": "homogeneous", "failure": got}, 1
    vertices, tag = got
    return {"action": "homogeneous", "vertices": sorted(vertices), "tag": tag,
            "verified": verify_homogeneous(G, vertices, tag)}, 0


def _cmd_experiment(args):
    if args.action == "coupon":
        return {"action": "coupon", "n": args.n, "m": args.m,
                "q": coupon_q(args.n, args.m)}, 0
    if args.action == "independence-mc":
        row = independence_probability_mc(
            ExperimentConfig(args.n, args.k, args.trials, args.seed))
        return {"action": "independence-mc", "row": row}, 0, [row]
    rows = independence_trend(_tuple_arg(args.k_list, "--k-list"),
                              args.trials, args.seed)
    return {"action": "thmg1", "rows": rows}, 0, rows


# every classify action builds delta_star of [phi, ~phi] at width --n: one
# realizability formula per sign pattern of each width 1..n, 2^(n+1) - 2 in
# all, plus subformulas; each step of n doubles them and about doubles the
# time (on a 2-core x86 box, seconds at n = 10 and 7 s at n = 11)
_MAX_SIGN_PATTERNS = 2046


def _cmd_classify(args):
    if args.n > 1 and (1 << min(args.n, 64) + 1) - 2 > _MAX_SIGN_PATTERNS:
        raise FmlabError(f"--n {args.n} needs 2^{args.n + 1} - 2 realizability "
                         f"formulas, past the cap of {_MAX_SIGN_PATTERNS}")
    if args.action == "delta-star":
        phi = parse_formula(_read(args.formula, "formula"), None).formula
        star = delta_star([phi, phi.negated()], args.n)
        return {"action": "delta-star", "size": len(star.formulas),
                "formulas": [f.text() for f in star.formulas]}, 0
    doc, M, phi = _load(args)
    if args.action == "kappa":
        res = kappa(M, [phi, phi.negated()], args.n, max_len=args.max_len)
        report = {"action": "kappa", "result": res}
        if isinstance(res, BudgetExceeded):
            report["outcome"] = _outcome(res)
        return report, 0
    if args.action == "good":
        got = is_good(M, phi, args.n, args.d)
        return ({"action": "good", "result": got},
                1 if isinstance(got, GoodnessRefutation) else 0)
    if args.action == "average":
        I = _named(doc.seqs, args.seq, "seq")
        A = sorted(_named(doc.sets, args.set, "set"))
        av = average_type(I, [phi, phi.negated()], A, M, args.kappa, n=args.n)
        return {"action": "average", "entries": [
            [f.text(), list(b), s] for f, b, s in av.sorted_entries()]}, 0
    A = sorted(_named(doc.sets, args.set, "set"))
    domains = [frozenset(_named(doc.submodels, name, "submodel"))
               for name in args.submodels.split(",")]
    if args.action in ("amalgam", "symmetry") and len(domains) < 3:
        raise FmlabError(f"classify {args.action} needs three submodels, "
                         f"got {len(domains)}")
    ctx = make_class_context(M, [None] + domains, phi, args.n, args.d, args.k, A)
    if isinstance(ctx, GoodnessRefutation):
        return {"action": args.action, "error": "class is not good",
                "refutation": ctx}, 1
    if args.action == "prec":
        rep = prec_K(M, domains[0], ctx)
        return {"action": "prec", "report": rep}, 0 if rep.holds is True else 1
    config = AmalgamConfig(M, domains[0], domains[1], domains[2], ctx)
    if args.action == "amalgam":
        res = stable_amalgam(config)
        return {"action": "amalgam", "result": res}, 0 if res.holds is True else 1
    res = symmetry_test(config)
    return ({"action": "symmetry", "forward": res["forward"],
             "backward": res["backward"], "symmetric": res["symmetric"]},
            0 if res["symmetric"] else 1)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _common(p):
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="reserved; results are deterministic regardless")


def _int(default):
    return {"type": int, "default": default}


def _group(sub, command, summary, handler, flags, actions):
    """Add `command` with one subparser per action. Each action takes
    --format/--seed/--threads and, of the group's `flags`, only those its
    entry in `actions` names. Flags must be spelled in full, so one the
    action does not read is a usage error, never an abbreviation of another."""
    group = sub.add_parser(command, help=summary)
    asub = group.add_subparsers(dest="action", required=True)
    for action, names in actions.items():
        p = asub.add_parser(action, allow_abbrev=False)
        _common(p)
        for name in names.split():
            p.add_argument("--" + name, **flags[name])
        p.set_defaults(func=handler)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The `fmlab` parser, built on first use and then shared: parsing leaves
    it unchanged, and importing the module does not pay for it."""
    ap = argparse.ArgumentParser(
        prog="fmlab",
        description="Analyze finite relational structures: witness searches, "
                    "type counting, indiscernible extraction, Ramsey-style "
                    "experiments, and classification checks.")
    ap.add_argument("--version", action="version", version=f"fmlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="search for independence / order / "
                                      "weak-order / cover / splitting witnesses")
    _common(p)
    p.add_argument("--structure", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--property", required=True,
                   choices=["independence", "order", "weak-order", "cover",
                            "splitting"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--object", default="0", help="object tuple for splitting")
    p.add_argument("--params-set", default="A")
    p.add_argument("--base-set", default=None)
    p.set_defaults(func=_cmd_detect)

    _group(sub, "types", "count realized types, verify the polynomial bounds, "
           "find shattered sets", _cmd_types, {
               "structure": {"required": True}, "formula": {"required": True},
               "set": {"default": None}, "n": _int(1), "k": _int(1),
               "member": {"action": "append", "default": [],
                          "help": "family member for shatter, e.g. --member 0,1"},
           }, {
               "count": "structure formula set",
               "verify-order-bound": "structure formula set n",
               "verify-independence-bound": "structure formula set k",
               "shatter": "member k",
           })

    _group(sub, "indisc", "check indiscernibility, extract end/full "
           "indiscernible subsequences, evaluate length bounds", _cmd_indisc, {
               "structure": {}, "formula": {}, "seq": {"default": "I"},
               "set": {"default": None}, "m": _int(1), "k": _int(None),
               "mode": {"choices": ["sequence", "set", "end"],
                        "default": "sequence"},
               "fn": {"choices": ["fstar", "g", "beth", "estimates"],
                      "default": "fstar"},
               "growth": {"choices": ["worst", "poly", "const"],
                          "default": "worst"},
               "growth-m": _int(1), "growth-p": _int(1), "growth-c": _int(2),
               "alpha": _int(0), "r": _int(1), "j": _int(0), "i": _int(0),
               "x": _int(0), "case": _int(1), "p-or-n": _int(None),
               "s": _int(None), "t": _int(None),
           }, {
               "check": "structure formula seq set m mode",
               "extract-end": "structure formula seq set m k",
               "extract": "structure formula seq set m k",
               "bounds": "fn growth growth-m growth-p growth-c alpha r m k j "
                         "i x case p-or-n s t",
           })

    _group(sub, "ramsey", "arrow relation, homogeneous-set extraction, bound "
           "comparison, E iterates", _cmd_ramsey, {
               "structure": {}, "relation": {"default": "R"}, "x": _int(0),
               "y": _int(0), "a": _int(2), "b": _int(2), "r": _int(3),
               "n": _int(2), "k": _int(3), "p": _int(1), "j": _int(1),
           }, {
               "arrow": "x y a b", "homogeneous": "structure relation n k",
               "compare-bounds": "r n k", "e-bound": "p j x",
           })

    _group(sub, "experiment", "coupon-collector exact values and seeded "
           "random-graph estimates", _cmd_experiment, {
               "n": _int(2), "m": _int(2), "k": _int(2), "trials": _int(100),
               "k-list": {"default": "2,3,4"},
           }, {
               "coupon": "n m", "independence-mc": "n k trials",
               "thmg1": "k-list trials",
           })

    _group(sub, "classify", "closure sets, kappa, averages, goodness, strong "
           "submodels, amalgamation and its symmetry", _cmd_classify, {
               "structure": {}, "formula": {"required": True},
               "set": {"default": "A"}, "seq": {"default": "I"},
               "submodels": {"default": "M0,M1,M2", "help": "comma-separated "
                             "submodel names from the file"},
               "n": _int(1), "d": _int(2), "k": _int(1), "kappa": _int(1),
               "max-len": _int(None),
           }, {
               "delta-star": "formula n", "kappa": "structure formula n max-len",
               "average": "structure formula seq set kappa n",
               "good": "structure formula n d",
               "prec": "structure formula set submodels n d k",
               "amalgam": "structure formula set submodels n d k",
               "symmetry": "structure formula set submodels n d k",
           })

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        report, code, *rows = args.func(args)
        _emit(args, report, *rows)
        return code
    except ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return 2
    except FileNotFoundError as e:
        sys.stderr.write(f"missing file: {e.filename}\n")
        return 2
    except FmlabError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

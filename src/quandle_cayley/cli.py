"""Command-line front end.

Every subcommand is a thin wrapper over the library: specs are parsed,
objects are built, results are printed.  No algebra or graph logic lives
here.  Exit codes: 0 success, 1 domain failure (axiom violation, failed
check, non-isomorphic pair), 2 usage or parse error.  Output for a fixed
command line is byte-identical across runs.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import graphs as gr
from . import quandles as Q
from . import specs
from . import verify as V

_EXPORT_FORMATS = ("dot", "json", "adjlist")


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", help="write the main output here instead of stdout")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", type=int, metavar="N",
                   help="reserved; the core is deterministic and ignores it")


def _add_quandle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   choices=("trivial", "conj", "core", "dihedral",
                            "alexander", "gen_alexander", "raw"))
    p.add_argument("--n", type=int, help="size for trivial/dihedral")
    p.add_argument("--group", metavar="SPEC",
                   help="group spec: Zn, Dm, Sn, or products like Z4xZ4")
    p.add_argument("--phi", metavar="AUTO",
                   help="automorphism spec: inner:<name>, matrix:[[a,b],[c,d]], "
                        "perm:[...], or neg")
    p.add_argument("--raw-path", metavar="FILE", help="quandle JSON for --family raw")


def _spec_from_args(args) -> specs.QuandleSpec:
    return specs.make_quandle_spec(args.family, n=args.n, group=args.group,
                                   automorphism=args.phi, raw_path=args.raw_path)


def cmd_build(args) -> int:
    quandle = specs.build_quandle(_spec_from_args(args))
    text = json.dumps(Q.quandle_to_json(quandle), indent=2) + "\n"
    _write_output(text, args.out)
    return 0


def _analysis(quandle: Q.Quandle, spec: specs.QuandleSpec) -> tuple:
    graph = gr.build_cayley_graph(quandle)
    comps = gr.strongly_connected_components(graph)
    degs = gr.degrees(graph)
    outs = [o for o, _ in degs]
    ins = [i for _, i in degs]
    components = []
    for comp in comps.components:
        sub = gr.induced_subgraph(graph, comp)
        components.append({
            "vertices": [graph.names[v] for v in comp],
            "size": len(comp),
            "complete": gr.is_complete(sub),
            "diameter": gr.component_diameter(graph, comp),
        })
    return {
        "spec": spec.describe(),
        "order": quandle.order,
        "involutory": Q.is_involutory(quandle),
        "edges": graph.edge_count,
        "edgeless": gr.is_edgeless(graph),
        "symmetric": gr.is_symmetric(graph),
        "complete": gr.is_complete(graph),
        "degrees": {"out": [min(outs), max(outs)], "in": [min(ins), max(ins)]},
        "component_count": comps.count,
        "components": components,
    }, graph


def _format_analysis(info: dict) -> str:
    def yn(flag):
        return "yes" if flag else "no"

    lines = [
        f"quandle {info['spec']}  (order {info['order']})",
        f"involutory: {yn(info['involutory'])}",
        f"edges: {info['edges']}  edgeless: {yn(info['edgeless'])}  "
        f"symmetric: {yn(info['symmetric'])}  complete: {yn(info['complete'])}",
        f"degrees: out {info['degrees']['out'][0]}..{info['degrees']['out'][1]}, "
        f"in {info['degrees']['in'][0]}..{info['degrees']['in'][1]}",
        f"components: {info['component_count']}",
    ]
    for k, c in enumerate(info["components"]):
        lines.append(f"  [{k}] size {c['size']}, "
                     f"{'complete' if c['complete'] else 'not complete'}, "
                     f"diameter {c['diameter']}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    spec = _spec_from_args(args)
    quandle = specs.build_quandle(spec)
    info, graph = _analysis(quandle, spec)
    report = json.dumps(info, indent=2) + "\n" if args.json else _format_analysis(info)
    if args.export:
        # report goes to stdout; the serialized graph to --out when given
        serialized = gr.export_graph(graph, args.export)
        sys.stdout.write(report)
        if args.out:
            _write_output(serialized, args.out)
        else:
            sys.stdout.write("\n" + serialized)
    else:
        _write_output(report, args.out)
    return 0


def cmd_export(args) -> int:
    spec = _spec_from_args(args)
    graph = gr.build_cayley_graph(specs.build_quandle(spec))
    _write_output(gr.export_graph(graph, args.format), args.out)
    return 0


def _parse_range(text: str) -> tuple:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        raise specs.SpecParseError(text, 0, "expected a range like 2..12")
    return int(lo), int(hi)


def cmd_verify(args) -> int:
    cfg_obj = {}
    if args.config:
        with open(args.config) as fh:
            cfg_obj = json.load(fh)
        if not isinstance(cfg_obj, dict):
            raise ValueError("suite config must be a JSON object")
    if args.check:
        ids = [c for chunk in args.check for c in chunk.split(",") if c]
        cfg_obj["checks"] = ids
    if args.range:
        cfg_obj["dihedral_range"] = list(_parse_range(args.range))
    config = V.SuiteConfig.from_json(cfg_obj)
    reports = V.run_suite(config)
    failed = sum(1 for r in reports if not r.passed)
    if args.json:
        payload = []
        for r in reports:
            d = r.to_dict()
            if not args.timing:
                del d["elapsed"]
            payload.append(d)
        text = json.dumps({"reports": payload, "failed": failed}, indent=2) + "\n"
    else:
        text = V.format_reports(reports, show_timing=args.timing)
    _write_output(text, args.out)
    return 0 if failed == 0 else 1


def cmd_isomorphic(args) -> int:
    qa = specs.build_quandle(specs.parse_quandle_string(args.spec_a))
    qb = specs.build_quandle(specs.parse_quandle_string(args.spec_b))
    ga = gr.build_cayley_graph(qa)
    gb = gr.build_cayley_graph(qb)
    mapping = gr.find_isomorphism(ga, gb)
    if args.json:
        obj = {"isomorphic": mapping is not None,
               "mapping": list(mapping) if mapping is not None else None}
        text = json.dumps(obj, indent=2) + "\n"
    elif mapping is None:
        text = "not isomorphic\n"
    else:
        pairs = ", ".join(f"{ga.names[u]}->{gb.names[v]}"
                          for u, v in enumerate(mapping))
        text = f"isomorphic\n{pairs}\n"
    _write_output(text, args.out)
    return 0 if mapping is not None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandle-cayley",
        description="Build finite quandles from groups, inspect their directed "
                    "Cayley graphs, and run the structural verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a quandle and emit its JSON")
    _add_quandle_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="report the graph structure of a quandle")
    _add_quandle_flags(p)
    _add_common_flags(p)
    p.add_argument("--export", choices=_EXPORT_FORMATS,
                   help="also serialize the graph (to --out when given)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_common_flags(p)
    p.add_argument("--config", metavar="FILE", help="suite config JSON")
    p.add_argument("--check", action="append", metavar="ID[,ID...]",
                   help=f"restrict to these checks; ids: {', '.join(V.CHECK_IDS)}")
    p.add_argument("--range", metavar="LO..HI",
                   help="override the dihedral parameter range")
    p.add_argument("--timing", action="store_true",
                   help="add each report's elapsed seconds (the output then "
                        "differs from run to run)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="serialize the Cayley graph of a quandle")
    _add_quandle_flags(p)
    _add_common_flags(p)
    p.add_argument("--format", required=True, choices=_EXPORT_FORMATS)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("isomorphic",
                       help="decide whether two quandle graphs are isomorphic")
    p.add_argument("spec_a", help="compact quandle spec, e.g. dihedral:6")
    p.add_argument("spec_b", help="compact quandle spec, e.g. alexander:Z4xZ4:neg")
    _add_common_flags(p)
    p.set_defaults(func=cmd_isomorphic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Q.AxiomViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except specs.SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

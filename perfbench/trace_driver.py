"""Run one ginalg CLI call in-process with every layer's public functions
wrapped in spans.

    python3 perfbench/trace_driver.py SPANS_JSON -- <ginalg argv...>

The program is not modified: each listed function is replaced, in every
ginalg module namespace that imported it, by a wrapper that records a span
(name, start, end, parent) and, for a few functions, sizes taken from its
arguments and result.  `Form.__init__` is wrapped as a bare counter.  Spans
stay in memory and are written once, after `ginalg.cli.run` returns; stdout
and the exit status are the CLI's own.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from math import comb

import ginalg
from ginalg import cli, demo, factors, forms, gin, ideals, subspaces

LAYERS = {
    "cli": (cli, ("run", "read_forms_file")),
    "forms": (forms, ("apply_change", "restrict", "parse_form", "format_form")),
    "subspaces": (
        subspaces,
        ("echelonize", "transform_subspace", "restrict_subspace", "contains", "random_subspace"),
    ),
    "gin": (gin, ("gin_subspace", "gin_ideal_truncated", "ideal_graded_piece")),
    "factors": (
        factors,
        (
            "gcd_forms",
            "common_factor",
            "divide_subspace",
            "verify_main_theorem",
            "make_instance",
            "hyperplane_factor_probe",
        ),
    ),
    "ideals": (ideals, ("enumerate_gin_candidates", "hilbert_function", "is_borel_fixed")),
    "demo": (demo, ("ci_quadrics_demo", "search_j2_revlex_witness", "is_three_quadric_ci")),
}

# spans whose time is the tracer's own bookkeeping; they count as children of
# the span that was open, so no layer's self time includes them
BOOKKEEPING = "trace.bookkeeping"


def _coeff_bits(forms_) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for f in forms_ for c in f.terms.values()),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.stats: dict[str, int] = {}

    def add(self, key: str, value: int) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def record_sizes(self, name: str, args, result) -> None:
        if name == "subspaces.echelonize":
            self.add("echelonize.rows_in", len(args[0]))
            self.add("echelonize.rank_out", result.dim)
            bits = max(_coeff_bits(args[0]), _coeff_bits(result.basis))
            self.stats["echelonize.max_coeff_bits"] = max(self.stats.get("echelonize.max_coeff_bits", 0), bits)
        elif name == "gin.ideal_graded_piece":
            gens, degree, _, num_vars = args[:4]
            self.add(
                "ideal_graded_piece.rows",
                sum(comb(degree - g.degree + num_vars - 1, num_vars - 1) for g in gens if g.degree <= degree),
            )
        elif name == "gin.gin_subspace":
            self.add("gin.agreements", result.agreements)
            self.add("gin.trials", result.trials)
        elif name == "gin.gin_ideal_truncated":
            for report in result.per_degree.values():
                self.add("gin.agreements", report.agreements)
                self.add("gin.trials", report.trials)
        elif name == "demo.search_j2_revlex_witness":
            self.add("witness.candidates_examined", 0 if result is None else result[1])
        elif name == "factors.verify_main_theorem":
            self.add("verify.calls", 1)
            certified = result.certificate is not None and result.certificate.checked
            self.add("verify.certificates", int(certified))

    def wrap(self, name: str, func):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "subspaces.echelonize":
                # materialize a generator once so the row count can be taken
                args = (list(args[0]),) + args[1:]
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self.record_sizes(name, args, result)
            spans.append([BOOKKEEPING, span[2], clock(), span[3]])
            return result

        return traced

    def install(self) -> None:
        namespaces = [ginalg] + [module for module, _ in LAYERS.values()]
        for layer, (module, names) in LAYERS.items():
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_driver.py SPANS_JSON -- <ginalg argv...>", file=sys.stderr)
        return 3
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    constructed = itertools.count()
    original_init = forms.Form.__init__

    def counting_init(self, *args, **kwargs):
        next(constructed)
        original_init(self, *args, **kwargs)

    forms.Form.__init__ = counting_init
    status = cli.run(cli_argv)
    sys.stdout.flush()
    tracer.stats["forms.Form.constructed"] = next(constructed)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "stats": tracer.stats}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

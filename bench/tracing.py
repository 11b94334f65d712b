"""Span recorder for the traced run, installed around morselat's public functions.

Each wrapped call records (name, start, end, parent span, op id) into memory;
nothing is written until the run ends.  A layer's self time is its spans'
durations minus the durations of their direct child spans.  Functions are
wrapped where they are looked up: class attributes for methods, and every
``morselat.*`` module global that names the original function (``cli``
imports ``lift``, ``comb_att_lattice`` and others by name), plus the entries
of ``verify.CHECKS``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, metric the span's self time adds to)
SPANS = [
    ("order", "Poset.all_down_sets", "order.down_sets_s"),
    ("order", "Poset.down_masks", "order.down_sets_s"),
    ("order", "Poset.__init__", "order.poset_s"),
    ("order", "Poset.from_covers", "order.poset_s"),
    ("order", "Poset.from_relation", "order.poset_s"),
    ("order", "Poset.dual", "order.poset_s"),
    ("lattice", "SetLattice.__init__", "lattice.setlattice_s"),
    ("lattice", "join_irreducibles", "lattice.join_irreducibles_s"),
    ("lattice", "SetLattice.covers", "lattice.covers_s"),
    ("lattice", "booleanize", "lattice.booleanize_s"),
    ("dynsys", "FiniteDynSys.att_lattice", "dynsys.lattices_s"),
    ("dynsys", "FiniteDynSys.rep_lattice", "dynsys.lattices_s"),
    ("dynsys", "FiniteDynSys.attracting_neighborhoods", "dynsys.neighborhoods_s"),
    ("dynsys", "FiniteDynSys.repelling_neighborhoods", "dynsys.neighborhoods_s"),
    ("dynsys", "FiniteDynSys.commuting_square_check", "dynsys.commuting_square_s"),
    ("dynsys", "FiniteDynSys.dual_repeller", "dynsys.duals_s"),
    ("dynsys", "FiniteDynSys.dual_attractor", "dynsys.duals_s"),
    ("dynsys_lift", "repeller_sublattice", "dynsys_lift.self_s"),
    ("dynsys_lift", "attractor_sublattice", "dynsys_lift.self_s"),
    ("dynsys_lift", "repeller_lift_problem", "dynsys_lift.self_s"),
    ("dynsys_lift", "repeller_lift", "dynsys_lift.self_s"),
    ("dynsys_lift", "attractor_lift", "dynsys_lift.self_s"),
    ("lifting", "lift", "lifting.lift_s"),
    ("lifting", "transport_by_duality", "lifting.transport_s"),
    ("lifting", "LiftCertificate.verify", "lifting.verify_s"),
    ("grid", "ingest_interval_map", "grid.ingest_s"),
    ("grid", "attracting_blocks", "grid.blocks_s"),
    ("grid", "repelling_blocks", "grid.blocks_s"),
    ("grid", "block_lattices", "grid.blocks_s"),
    ("grid", "comb_att_lattice", "grid.comb_lattices_s"),
    ("grid", "comb_rep_lattice", "grid.comb_lattices_s"),
    ("grid", "grid_lift_problem", "grid.lift_setup_s"),
    ("grid", "grid_attractor_lift", "grid.lift_setup_s"),
    ("expr", "parse", "expr.parse_s"),
    ("expr", "Expr.__call__", "expr.eval_s"),
    ("verify", "SystemData.__init__", "verify.systemdata_s"),
    ("formats", "load_system", "cli.load_s"),
    ("formats", "load_gridmap", "cli.load_s"),
    ("formats", "load_poset", "cli.load_s"),
    ("formats", "load_sublattice", "cli.load_s"),
    ("cli", "_read_json", "cli.load_s"),
    ("formats", "lattice_payload", "cli.payload_s"),
    ("formats", "certificate_payload", "cli.payload_s"),
    ("formats", "cellset_payload", "cli.payload_s"),
    ("formats", "sorted_labels", "cli.payload_s"),
    ("formats", "dumps", "cli.payload_s"),
    ("formats", "hasse_dot", "cli.payload_s"),
    ("cli", "_emit", "cli.payload_s"),
    ("cli", "main", "cli.self_s"),
    ("cli", "cmd_analyze", "cli.self_s"),
    ("cli", "cmd_lift", "cli.self_s"),
    ("cli", "cmd_verify", "cli.self_s"),
    ("cli", "cmd_birkhoff", "cli.self_s"),
]


def _scan_bits(args, kwargs, result):
    return 1 << args[0]._n


# exact counters: (module, attribute path) -> (metric, amount of one call)
COUNTERS = {
    ("order", "Poset.all_down_sets"): ("order.down_sets_calls", lambda a, k, r: 1),
    ("order", "Poset.down_masks"): ("order.down_sets_calls", lambda a, k, r: 1),
    ("lattice", "SetLattice.__init__"): ("lattice.setlattice_elements", lambda a, k, r: len(a[0].elements)),
    ("dynsys", "FiniteDynSys.att_lattice"): ("dynsys.subset_scans", _scan_bits),
    ("dynsys", "FiniteDynSys.rep_lattice"): ("dynsys.subset_scans", _scan_bits),
    ("dynsys", "FiniteDynSys.attracting_neighborhoods"): ("dynsys.subset_scans", _scan_bits),
    ("dynsys", "FiniteDynSys.repelling_neighborhoods"): ("dynsys.subset_scans", _scan_bits),
    ("dynsys", "FiniteDynSys.commuting_square_check"): ("dynsys.subset_scans", _scan_bits),
    ("lifting", "lift"): ("lifting.steps", lambda a, k, r: len(r.audit)),
    ("grid", "attracting_blocks"): ("grid.blocks", lambda a, k, r: len(r)),
    ("expr", "Expr.__call__"): ("expr.evals", lambda a, k, r: 1),
    ("verify", "SystemData.__init__"): ("verify.systems", lambda a, k, r: 1),
    ("cli", "_emit"): ("cli.output_bytes", lambda a, k, r: len(a[0].encode())),
}


def tag_metric(tag: str) -> str:
    return "verify.tag." + tag.replace("+", "_") + "_s"


def per_layer_names(tags) -> list:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for _, _, metric in SPANS:
        if metric not in names:
            names.append(metric)
    for metric, _ in COUNTERS.values():
        if metric not in names:
            names.append(metric)
    names += [tag_metric(t) for t in tags]
    return names


class Tracer:
    """In-memory spans: parallel lists, one entry per call."""

    def __init__(self):
        self.names = []
        self.metric_of = []
        self.name_ids = []
        self.start = []
        self.end = []
        self.parent = []
        self.op_of = []
        self.stack = []
        self.op = 0
        self.counts = defaultdict(int)
        self._undo = []

    def _name_id(self, name: str, metric: str) -> int:
        self.names.append(name)
        self.metric_of.append(metric)
        return len(self.names) - 1

    def wrap(self, name: str, metric: str, fn, counter=None):
        nid = self._name_id(name, metric)
        start, end, parent, op_of, stack = self.start, self.end, self.parent, self.op_of, self.stack
        names, counts = self.name_ids, self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap every function in SPANS; each call records into this tracer."""
        modules = {name: sys.modules[f"morselat.{name}"] for name in
                   ("order", "lattice", "dynsys", "dynsys_lift", "lifting", "grid", "expr", "verify", "formats", "cli")}
        for mod_name, path, metric in SPANS:
            counter = COUNTERS.get((mod_name, path))
            mod = modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self.wrap(path, metric, raw.__func__, counter)))
                else:
                    self._set(cls, attr, self.wrap(path, metric, raw, counter))
                continue
            original = getattr(mod, path)
            traced = self.wrap(f"{mod_name}.{path}", metric, original, counter)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "morselat":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, traced)
        checks = modules["verify"].CHECKS
        self._undo.append((checks, None, list(checks)))
        for i, (tag, fn) in enumerate(checks):
            checks[i] = (tag, self.wrap(f"verify.{fn.__name__}", tag_metric(tag), fn))

    def uninstall(self) -> None:
        """Put back every original that install replaced."""
        for obj, attr, value in reversed(self._undo):
            if attr is None:
                obj[:] = value
            else:
                setattr(obj, attr, value)
        self._undo = []

    def self_times(self) -> dict:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(float)
        for i in range(n):
            out[self.metric_of[self.name_ids[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: op, name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op_of[i]}\t{self.names[self.name_ids[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")

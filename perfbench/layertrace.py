"""Per-layer tracing of the cvqnet package from outside it.

`Tracer.install()` replaces every binding of the traced public functions
inside the loaded `cvqnet.*` modules with a timing wrapper.  Replacing only
the defining module would lose calls: modules bind names with
`from .gaussian import ...`, and `keyrates._HOLEVO` holds the Holevo
functions in a dict.  The lazy imports inside `joint_key_rate` and
`derive_worst_case` resolve through the defining module, which is patched
too.

Self time of a call is its duration minus the time spent in nested traced
calls.  Wrappers record nothing while `active` is false, so warm-up and
output checks can run through the same patched functions untraced.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

# layer -> public functions whose calls and self time are recorded
TRACED = {
    "gaussian": ("symplectic_eigenvalues", "von_neumann_entropy", "condition_on_heterodyne",
                 "check_physicality"),
    "network": ("build_channel_output_cm", "attach_trusted_detector", "classical_outcome_cov"),
    "keyrates": ("key_rate", "mutual_information", "holevo_untrusted", "holevo_trusted",
                 "holevo_collaborative", "derive_worst_case"),
    "decomposition": ("all_orderings", "sample_orderings", "decompose", "joint_key_rate"),
    "simulate": ("simulate", "estimate_report", "write_block", "read_block", "write_block_csv",
                 "worst_case_params"),
    "config": ("parse_config",),
}

# Functions reported by call count and self time; the rest of TRACED feed
# only the derived metrics or report self time alone.
CALLS_AND_SELF = {
    "gaussian": ("symplectic_eigenvalues", "von_neumann_entropy", "condition_on_heterodyne"),
    "network": TRACED["network"],
    "keyrates": TRACED["keyrates"],
    "decomposition": TRACED["decomposition"],
    "config": TRACED["config"],
}
SELF_ONLY = {"simulate": TRACED["simulate"]}
CLI_COMMANDS = ("keyrate", "decompose", "sweep", "simulate", "estimate")


def _coalition(labels) -> frozenset:
    """Users already measured in a conditioned decomposition state: each
    measured user leaves its trusted-receiver ancillae D1_B<k>, D2_B<k>."""
    return frozenset(lab[3:] for lab in labels if lab.startswith("D1_"))


class Tracer:
    """Call counts, self times and derived counters for the traced functions."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self._child_ns: list[int] = []
        self.covariance_matrices = 0
        self.spectrum_modes = 0
        self._decompose_params: list = []
        self.decompose_conditionings = 0
        self.coalitions: set = set()
        self.bytes_written = 0
        self.bytes_read = 0
        self.cli_ms: dict[str, list[float]] = {}
        self.cli_import_ms = 0.0

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name, args)
            tracer._child_ns.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                child = tracer._child_ns.pop()
                if tracer._child_ns:
                    tracer._child_ns[-1] += elapsed
                tracer.calls[name] += 1
                tracer.self_ns[name] += elapsed - child
                tracer.incl_ns[name] += elapsed
                tracer._leave(name, args)
            tracer._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _enter(self, name: str, args) -> None:
        if name == "decomposition.decompose":
            self._decompose_params.append(args[0])
        elif name == "gaussian.symplectic_eigenvalues":
            self.spectrum_modes += args[0].dim_modes

    def _leave(self, name: str, args) -> None:
        if name == "decomposition.decompose":
            self._decompose_params.pop()

    def _observe(self, name: str, args, result) -> None:
        if name == "gaussian.condition_on_heterodyne" and self._decompose_params:
            self.decompose_conditionings += 1
            self.coalitions.add((self._decompose_params[-1], _coalition(result.mode_labels)))
        elif name == "simulate.write_block":
            self.bytes_written += os.path.getsize(args[1])
        elif name == "simulate.read_block":
            self.bytes_read += os.path.getsize(args[0])

    def install(self) -> None:
        """Patch every cvqnet.* binding of the traced functions; call once per process."""
        import cvqnet.cli  # noqa: F401  (loads every module whose bindings are patched)
        from cvqnet.gaussian import CovarianceMatrix

        modules = [m for n, m in sys.modules.items() if n == "cvqnet" or n.startswith("cvqnet.")]
        for layer, names in TRACED.items():
            defining = sys.modules[f"cvqnet.{layer}"]
            for fname in names:
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, item in value.items():
                                if item is original:
                                    value[key] = wrapper

        post_init = CovarianceMatrix.__post_init__
        tracer = self

        def counted_post_init(cm) -> None:
            if tracer.active:
                tracer.covariance_matrices += 1
            post_init(cm)

        CovarianceMatrix.__post_init__ = counted_post_init

    # ------------------------------------------------------------- metrics

    def metrics(self, items_per_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer, names in CALLS_AND_SELF.items():
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = (self.calls[key], "count")
                out[f"{key}.self_ms"] = (self.self_ns[key] / 1e6, "ms")
        out["gaussian.check_physicality.calls"] = (self.calls["gaussian.check_physicality"], "count")
        out["gaussian.covariance_matrices"] = (self.covariance_matrices, "count")
        out["gaussian.spectrum_modes"] = (self.spectrum_modes, "count")
        rows = self.calls["decomposition.decompose"]
        steps = self.decompose_conditionings
        out["decomposition.rows"] = (rows, "count")
        out["decomposition.conditionings_per_row"] = (steps / rows if rows else 0.0, "ratio")
        out["decomposition.distinct_coalition_share"] = (
            len(self.coalitions) / steps if steps else 0.0, "ratio")
        for layer, names in SELF_ONLY.items():
            for fname in names:
                out[f"{layer}.{fname}.self_ms"] = (self.self_ns[f"{layer}.{fname}"] / 1e6, "ms")
        write_s = self.incl_ns["simulate.write_block"] / 1e9
        read_s = self.incl_ns["simulate.read_block"] / 1e9
        out["simulate.block_bytes"] = (self.bytes_written, "B")
        out["simulate.write_mb_per_s"] = (self.bytes_written / 1e6 / write_s if write_s else 0.0, "MB/s")
        out["simulate.read_mb_per_s"] = (self.bytes_read / 1e6 / read_s if read_s else 0.0, "MB/s")
        for command in CLI_COMMANDS:
            times = self.cli_ms.get(command, [])
            out[f"cli.{command}.ms"] = (sum(times) / len(times) if times else 0.0, "ms")
        out["cli.import_ms"] = (self.cli_import_ms, "ms")
        out["trace.items_per_s"] = (items_per_s, "1/s")
        return out

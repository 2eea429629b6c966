"""The launchable artifact produced by the OpenMP IR builder.

A :class:`CompiledKernel` bundles everything the launcher needs: the
directive tree, the resolved execution modes (with the analysis report), the
dispatch table of outlined functions, and the entry-generator factory the IR
builder lowered.  It is immutable after compilation; the same kernel can be
launched many times with different geometries and argument bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import CodegenError
from repro.codegen.directives import Target
from repro.codegen.outline import OutlinedTask
from repro.codegen.spmdization import SpmdReport
from repro.runtime.dispatch import DispatchTable
from repro.runtime.icv import DEFAULT_SHARING_BYTES, ExecMode, LaunchConfig


@dataclass
class CompiledKernel:
    """A compiled target region, ready to launch."""

    name: str
    target: Target
    report: SpmdReport
    table: DispatchTable
    arg_names: Tuple[str, ...]
    #: Outlined tasks by name -> (metadata, fn_id).
    tasks: Dict[str, Tuple[OutlinedTask, int]]
    #: All launch-arg names referenced anywhere in the tree.
    total_uses: Tuple[str, ...]
    #: factory(cfg, gmem, counters, args) -> entry generator function.
    entry_factory: Callable = field(repr=False, default=None)

    @property
    def has_simd(self) -> bool:
        """Whether the tree contains a ``simd`` construct.

        Without one, SIMD groups are meaningless: launches force group size
        1, reproducing the paper's "in the case where the simd directive is
        unused, parallel regions will always execute in SPMD mode with a
        SIMD group size of one" (§5.4).
        """
        from repro.codegen.directives import iter_loops

        return any(node.kind == "simd" for node, _, _ in iter_loops(self.target))

    @property
    def launch_hints(self):
        """``(num_teams, thread_limit)`` clause hints of the teams construct."""
        child = self.target.child
        return (getattr(child, "num_teams", None), getattr(child, "thread_limit", None))

    @property
    def simdlen_hint(self):
        """The ``simdlen`` clause of the kernel's simd construct, if any."""
        from repro.codegen.directives import iter_loops

        for node, _, _ in iter_loops(self.target):
            if node.kind == "simd" and node.simdlen is not None:
                return node.simdlen
        return None

    @property
    def teams_mode(self) -> ExecMode:
        return self.report.teams_mode

    @property
    def parallel_mode(self) -> ExecMode:
        return self.report.parallel_mode

    def launch_config(self, num_teams: int, team_size: int,
                      simd_len: Optional[int] = None, *,
                      sharing_bytes: int = DEFAULT_SHARING_BYTES,
                      params=None) -> LaunchConfig:
        """Resolve one launch's geometry and modes.

        ``simd_len`` defaults to the simd construct's ``simdlen`` clause,
        else 1 (pre-paper two-level behaviour), and is forced to 1 when
        the tree has no simd construct (§5.4) — otherwise group lanes
        would execute leaf loop bodies redundantly.  Solo, batched and
        warm-pool launches all resolve geometry here, so they agree
        bit for bit.
        """
        if simd_len is None:
            simd_len = self.simdlen_hint or 1
        if not self.has_simd:
            simd_len = 1
        return LaunchConfig(
            num_teams=num_teams,
            team_size=team_size,
            simd_len=simd_len,
            teams_mode=self.teams_mode,
            parallel_mode=self.parallel_mode,
            sharing_bytes=sharing_bytes,
            params=params,
        )

    def make_entry(self, cfg, gmem, counters, args: Dict[str, object]):
        """Bind launch arguments and produce the per-thread entry generator."""
        missing = [u for u in self.total_uses if u not in args]
        if missing:
            raise CodegenError(
                f"kernel {self.name!r} launch is missing args {missing}; "
                f"expected {list(self.total_uses)}"
            )
        return self.entry_factory(cfg, gmem, counters, args)

    def describe(self) -> str:
        lines = [f"kernel {self.name!r}: {self.report.describe()}"]
        for tname, (task, fn_id) in self.tasks.items():
            lines.append(
                f"  task #{fn_id} {tname}: uses={list(task.uses)} "
                f"captures={[c for c, _ in task.captures]} depth={task.depth}"
            )
        return "\n".join(lines)

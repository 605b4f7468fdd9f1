"""Bi-level memory planning (Section 4.2 of the paper).

Level 1 solves the offline-DSA problem for a single transformer layer's
forward (and backward) trace.  Because every transformer layer issues an
identical request sequence, the level-1 plan can be reused verbatim by all
layers.  Level 2 then replaces each layer's fine-grained requests with one
"pseudo" block of the level-1 peak size and solves a second, much smaller DSA
problem over the whole iteration (embedding layer, pseudo blocks, classifier
layer).  Composing the two solutions yields a static address for every
transient tensor of the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import DEFAULT_PRECISION, PrecisionConfig, require_count
from repro.memory.request import MemoryRequest, RequestKind
from repro.model.specs import ModelConfig
from repro.model.trace import (
    classifier_trace,
    embedding_trace,
    layer_backward_trace,
    layer_forward_trace,
)
from repro.planner.dsa import DSAProblem, problem_from_trace
from repro.planner.exact import ExactSolverOptions, solve_exact
from repro.planner.heuristics import solve_heuristic
from repro.planner.plan import MemoryPlan, TiledEntries


@dataclass(frozen=True)
class BiLevelPlanResult:
    """Output of the bi-level planner.

    Attributes:
        layer_forward_plan: level-1 plan for one layer's forward transients,
            with addresses relative to the layer's pseudo block.
        layer_backward_plan: level-1 plan for one layer's backward transients.
        model_plan: level-2 plan assigning an address to the embedding
            activations, the (shared) layer pseudo block and the classifier
            transients.
        full_plan: fully composed plan covering every tensor of an iteration,
            directly executable by :class:`repro.memory.PlannedAllocator`; its
            entries tile the level-1 plans over the layers (read-only).
        layer_peak_bytes: level-1 peak (pseudo-block size).
        total_peak_bytes: level-2 peak, i.e. the transient-activation memory
            the plan needs for the whole iteration.
    """

    layer_forward_plan: MemoryPlan
    layer_backward_plan: MemoryPlan
    model_plan: MemoryPlan
    full_plan: MemoryPlan
    layer_peak_bytes: int
    total_peak_bytes: int


PSEUDO_LAYER_BLOCK = "pseudo.layer_block"


@dataclass
class BiLevelPlanner:
    """Plans transient-activation memory for one training iteration.

    Args:
        model: model configuration (defines the per-layer request sequence).
        batch_size / sequence_length: per-device activation shape.
        use_exact: solve level-1/level-2 DSA exactly (branch-and-bound); when
            False the deterministic heuristics are used -- the ablation
            benchmark compares both.
        precision: numeric precision (activation byte width).
    """

    model: ModelConfig
    batch_size: int
    sequence_length: int
    use_exact: bool = True
    precision: PrecisionConfig = DEFAULT_PRECISION
    exact_options: ExactSolverOptions = field(default_factory=ExactSolverOptions)

    def __post_init__(self) -> None:
        require_count("batch_size", self.batch_size, 1)
        require_count("sequence_length", self.sequence_length, 1)

    def _solve(self, problem: DSAProblem) -> MemoryPlan:
        if self.use_exact:
            return solve_exact(problem, self.exact_options)
        return solve_heuristic(problem)

    def _layer_traces(self) -> Dict[str, List[MemoryRequest]]:
        """Transient-only traces of one layer's forward and backward pass.

        Skeletal tensors are excluded: under MEMO they live in the rounding
        buffers, not in dynamically planned memory.
        """
        forward = layer_forward_trace(
            self.model, self.batch_size, self.sequence_length,
            layer_index=0, precision=self.precision, include_skeletal=False,
        )
        backward = layer_backward_trace(
            self.model, self.batch_size, self.sequence_length,
            layer_index=0, precision=self.precision, include_skeletal_frees=False,
        )
        return {"forward": forward, "backward": backward}

    def plan(self) -> BiLevelPlanResult:
        """Run both planning levels and compose the full iteration plan."""
        traces = self._layer_traces()

        # ----- Level 1: one transformer layer (forward and backward passes).
        forward_problem = problem_from_trace(traces["forward"])
        backward_problem = problem_from_trace(traces["backward"])
        layer_forward_plan = self._solve(forward_problem)
        layer_backward_plan = self._solve(backward_problem)
        layer_peak = max(layer_forward_plan.peak_bytes, layer_backward_plan.peak_bytes)
        # A layer's forward and backward passes never overlap in time, so one
        # pseudo block sized to the larger of the two suffices for both.

        # ----- Level 2: whole-iteration trace with the layer requests replaced
        # by a single pseudo allocation per layer occupancy window.
        model_trace = self._model_level_trace(layer_peak)
        model_problem = problem_from_trace(model_trace)
        model_plan = self._solve(model_problem)

        full_plan = self._compose(layer_forward_plan, layer_backward_plan, model_plan)
        return BiLevelPlanResult(
            layer_forward_plan=layer_forward_plan,
            layer_backward_plan=layer_backward_plan,
            model_plan=model_plan,
            full_plan=full_plan,
            layer_peak_bytes=layer_peak,
            total_peak_bytes=model_plan.peak_bytes,
        )

    def _model_level_trace(self, layer_peak: int) -> List[MemoryRequest]:
        """Level-2 request sequence: embedding, pseudo layer block, classifier.

        All transformer layers reuse the same pseudo block, so the block is
        allocated before the first layer's forward pass and released after the
        last layer's backward pass.
        """
        trace: List[MemoryRequest] = []
        trace.extend(embedding_trace(self.model, self.batch_size, self.sequence_length, self.precision))
        if layer_peak > 0:
            trace.append(MemoryRequest(RequestKind.MALLOC, PSEUDO_LAYER_BLOCK, layer_peak))
        trace.extend(classifier_trace(self.model, self.batch_size, self.sequence_length, self.precision))
        if layer_peak > 0:
            trace.append(MemoryRequest(RequestKind.FREE, PSEUDO_LAYER_BLOCK, layer_peak))
        return trace

    def _compose(
        self,
        layer_forward_plan: MemoryPlan,
        layer_backward_plan: MemoryPlan,
        model_plan: MemoryPlan,
    ) -> MemoryPlan:
        """Tile the per-layer plans at the pseudo block's address over every layer.

        Level-1 entries are named "L0.fwd.x" / "L0.bwd.x"; each layer reuses
        them as "L{k}.fwd.x" at the same address, so the full plan stores the
        tile once and names its per-layer entries only when they are read.
        """
        pseudo_entry = model_plan.get(PSEUDO_LAYER_BLOCK)
        pseudo_address = pseudo_entry.address if pseudo_entry is not None else 0
        model_entries = {
            tensor_id: entry for tensor_id, entry in model_plan.entries.items()
            if tensor_id != PSEUDO_LAYER_BLOCK
        }
        tile = []
        for base_plan, pass_name in ((layer_forward_plan, "fwd"), (layer_backward_plan, "bwd")):
            for entry in base_plan.entries.values():
                suffix = entry.tensor_id.split(".", 1)[1]
                if suffix.startswith(pass_name):
                    tile.append((suffix, pseudo_address + entry.address, entry.size))
        # The tile lies inside the pseudo block, so the level-2 peak covers it.
        return MemoryPlan(
            TiledEntries(model_entries, tile, self.model.num_layers),
            model_plan.peak_bytes,
            f"bilevel({layer_forward_plan.solver})",
        )


def plan_iteration(
    model: ModelConfig,
    batch_size: int,
    sequence_length: int,
    use_exact: bool = True,
    precision: PrecisionConfig = DEFAULT_PRECISION,
) -> BiLevelPlanResult:
    """Convenience wrapper: build a planner and plan one iteration."""
    planner = BiLevelPlanner(
        model=model,
        batch_size=batch_size,
        sequence_length=sequence_length,
        use_exact=use_exact,
        precision=precision,
    )
    return planner.plan()

//! Shared-prefix candidate evaluation (incremental search).
//!
//! The DFS search tree of Section IV-B varies one instruction choice at a
//! time, so sibling candidates share a *prefix* of choices: the same MMA
//! atom and the same copy plan for most edges. The reference path re-unifies
//! shared-memory constraints and re-selects swizzles from scratch for every
//! candidate; this module instead treats each selection as a path through a
//! prefix tree, carrying per-shared-tensor constraint state down the path
//! (each edge unifies only the constraint of the newly decided copy), and
//! memoizes the expensive per-tensor finishing step (materialization +
//! swizzle selection) keyed by the choices of exactly the copies touching
//! the tensor — a sibling whose differing suffix does not touch a tensor
//! reuses its finished layout outright. This is the same trick BDD packages
//! use with apply-caches over shared subgraphs.
//!
//! ## Data layout
//!
//! The tree is not a tree of owned maps. Shared tensors are interned to
//! dense slots by a [`TensorSlotInterner`], so per-node constraint state is
//! a flat `Vec<ConstraintSlot>` indexed by slot; the states live in an
//! **arena** of reusable rows, and the walk's stack holds `u32` row indices
//! instead of owned nodes. An edge whose copy touches no shared tensor
//! pushes its parent's row index (zero cost); a stateful edge clones its
//! parent's row into the next arena slot, reusing the allocations of rows
//! abandoned by earlier backtracking (allocation order = traversal order).
//! Constraint conflicts are carried as the `Copy`
//! [`ConstraintError`] code — the `String` reason
//! only materializes at the API boundary.
//!
//! The results are bit-identical to the reference path: the same constraints
//! are unified in the same (program) order and the same finishing code runs
//! on cache misses. The equivalence is cross-checked by
//! `tests/incremental_vs_reference.rs` and the randomized kernel sweep in
//! `hexcute-core`.
//!
//! ## The parallel subtree walk
//!
//! On many-core machines the walk itself is parallelized: the selections are
//! split at a configurable depth (see
//! [`crate::SynthesisOptions::parallel_subtree_depth`]) into independent
//! subtrees — selections sharing their first `depth` choices form one
//! subtree — and the subtrees are evaluated on the persistent worker pool of
//! `hexcute-parallel`. The per-tensor finishing memo is a sharded concurrent
//! map shared across all workers, and every cached value is a pure function
//! of its key, so subtree results merged back in enumeration order are
//! **bit-for-bit identical** to the serial walk (and to the re-evaluating
//! reference) at any worker count. The preferred selection is finished
//! first, serially, so the memo is warm before the fan-out and concurrent
//! subtrees rarely recompute a layout redundantly.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use hexcute_arch::DType;
use hexcute_ir::{OpKind, TensorId};
use hexcute_layout::{Layout, SwizzledLayout};
use hexcute_parallel::cache::{CacheStats, ShardedMap};
use hexcute_parallel::cancel::{CancelReason, CancelToken};

use crate::choice::{Candidate, CopyChoice};
use crate::engine::{degrade_to_scalar, CopyPlan, Synthesizer, TvBase};
use crate::error::SynthesisError;
use crate::hooks;
use crate::smem::{
    copy_constraint, materialize_and_swizzle, unify_touching, ConstraintError, LayoutConstraint,
};

/// Sentinel for "tensor not interned" in the sparse index.
const NO_SLOT: u32 = u32::MAX;

/// Interns a set of [`TensorId`]s to dense `u32` slots, so per-tensor state
/// can live in flat vectors indexed by slot instead of ordered maps keyed by
/// id. Slot order is insertion order; lookups in both directions are O(1)
/// (ids are dense per program, so the reverse index is a plain vector).
#[derive(Debug, Clone, Default)]
pub struct TensorSlotInterner {
    /// `slot -> tensor`, in insertion order.
    tensors: Vec<TensorId>,
    /// `tensor.index() -> slot`, [`NO_SLOT`] when not interned.
    slots: Vec<u32>,
}

impl TensorSlotInterner {
    /// Interns the tensors in iteration order (duplicates keep their first
    /// slot).
    pub fn new(tensors: impl IntoIterator<Item = TensorId>) -> Self {
        let mut interner = TensorSlotInterner::default();
        for tensor in tensors {
            interner.intern(tensor);
        }
        interner
    }

    /// The slot of `tensor`, interning it if new.
    pub fn intern(&mut self, tensor: TensorId) -> u32 {
        if let Some(slot) = self.slot(tensor) {
            return slot;
        }
        let slot = u32::try_from(self.tensors.len()).expect("fewer than 2^32 tensors");
        if tensor.index() >= self.slots.len() {
            self.slots.resize(tensor.index() + 1, NO_SLOT);
        }
        self.slots[tensor.index()] = slot;
        self.tensors.push(tensor);
        slot
    }

    /// The slot of `tensor`, if interned.
    pub fn slot(&self, tensor: TensorId) -> Option<u32> {
        match self.slots.get(tensor.index()) {
            Some(&slot) if slot != NO_SLOT => Some(slot),
            _ => None,
        }
    }

    /// The tensor occupying `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot` was never handed out.
    pub fn tensor(&self, slot: u32) -> TensorId {
        self.tensors[slot as usize]
    }

    /// Number of interned tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether no tensor is interned.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// The interned tensors in slot order.
    pub fn tensors(&self) -> &[TensorId] {
        &self.tensors
    }
}

/// Per-tensor constraint state of one tree node: the unified constraint, or
/// the first unification conflict encountered along the path (which sends
/// every candidate below the node to the scalar fallback). `Copy` error
/// codes keep cloning a row allocation-free on the error side.
type ConstraintSlot = Result<LayoutConstraint, ConstraintError>;

/// Counters exposing how much work the prefix sharing saved and how the
/// parallel walk split it. Used by tests to assert that sharing actually
/// happens and reported by the `repro_*` binaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Tree edges expanded (per-copy constraint unifications performed).
    pub nodes_expanded: usize,
    /// Per-tensor finishing computations (materialize + swizzle selection).
    pub tensor_layouts_computed: usize,
    /// Per-tensor finishing results served from the prefix cache.
    pub tensor_layout_hits: usize,
    /// Hit/miss/eviction counters of the shared finished-layout memo (the
    /// map-level view of the two counters above; under the parallel walk the
    /// map may see slightly more misses than `tensor_layouts_computed` when
    /// concurrent subtrees race on one key).
    pub finished_cache: CacheStats,
    /// Independent subtrees the walk was split into (1 = serial walk).
    pub subtrees: usize,
    /// Worker threads the walk used (1 = serial walk).
    pub workers: usize,
    /// Admissible completion bounds evaluated by the pruned walk (group
    /// prefixes and individual leaves). Zero for the exhaustive walks.
    pub bound_evaluations: usize,
    /// Subtree groups cut whole because their prefix bound could not beat
    /// the incumbent. Depends on incumbent timing: **not** deterministic
    /// across worker counts (the winner is).
    pub subtrees_cut: usize,
    /// Selections skipped by pruning — members of cut groups plus
    /// individually cut leaves. Timing-dependent like `subtrees_cut`.
    pub selections_pruned: usize,
    /// Offers that actually lowered the shared incumbent score.
    pub incumbent_updates: usize,
    /// Leaves the pruned walk finished and exactly scored (the quantity the
    /// `repro_prune` bench compares against the exhaustive candidate count).
    pub candidates_scored: usize,
}

/// The shared per-tensor finishing memo: finished shared-memory layouts (or
/// the unification/materialization error code) keyed by the tensor and the
/// fingerprint of the copy choices touching it. Values are pure functions of
/// the key, which is what makes sharing it across subtree workers safe *and*
/// deterministic.
type FinishedMemo = ShardedMap<(TensorId, u64), Result<SwizzledLayout, ConstraintError>>;

/// The state of one incremental search: the current path through the prefix
/// tree plus the cross-path memo of finished per-tensor layouts.
struct PrefixSearch<'s, 'a> {
    synth: &'s Synthesizer<'a>,
    plans: &'s [CopyPlan],
    /// Shared tensors interned to dense slots, in `program.shared_tensors()`
    /// order (the order the reference path processes them in).
    interner: TensorSlotInterner,
    /// Tile shape and dtype per slot.
    info: Vec<(Vec<usize>, DType)>,
    /// Plan indices (in plan = program order) touching each slot.
    touch: Vec<Vec<u32>>,
    /// Slots touched by each plan.
    plan_touch: Vec<Vec<u32>>,
    /// Arena of constraint-state rows; `arena[..arena_len]` are live, rows
    /// beyond keep their allocations for reuse after backtracking.
    arena: Vec<Vec<ConstraintSlot>>,
    arena_len: usize,
    /// `stack[d]` is the arena row holding the state after the first `d`
    /// choices of `path`. Stateless edges repeat their parent's row, so the
    /// indices are non-decreasing along the stack.
    stack: Vec<u32>,
    path: Vec<usize>,
    /// Finished per-tensor layouts keyed by the choices of the copies
    /// touching the tensor; shared across every subtree worker of one
    /// search.
    finished: &'s FinishedMemo,
    /// Wall-clock cancellation flag, polled once per tree row (each
    /// [`PrefixSearch::extend`] is one row). `None` runs uninterruptible.
    cancel: Option<&'s CancelToken>,
    stats: PrefixStats,
}

impl<'s, 'a> PrefixSearch<'s, 'a> {
    fn new(
        synth: &'s Synthesizer<'a>,
        plans: &'s [CopyPlan],
        finished: &'s FinishedMemo,
        cancel: Option<&'s CancelToken>,
    ) -> Self {
        let program = synth.program();
        let interner = TensorSlotInterner::new(program.shared_tensors());
        let mut info = Vec::with_capacity(interner.len());
        for &tensor in interner.tensors() {
            let decl = program.tensor(tensor);
            info.push((decl.tile_shape_2d(), decl.dtype));
        }
        let mut touch: Vec<Vec<u32>> = vec![Vec::new(); interner.len()];
        let mut plan_touch: Vec<Vec<u32>> = vec![Vec::new(); plans.len()];
        for (d, plan) in plans.iter().enumerate() {
            let OpKind::Copy { src, dst } = program.op(plan.op).kind else {
                continue;
            };
            for tensor in [src, dst] {
                let Some(slot) = interner.slot(tensor) else {
                    continue;
                };
                if !plan_touch[d].contains(&slot) {
                    plan_touch[d].push(slot);
                    touch[slot as usize].push(d as u32);
                }
            }
        }
        let root: Vec<ConstraintSlot> = info
            .iter()
            .map(|(tile, _)| Ok(LayoutConstraint::unconstrained(tile)))
            .collect();
        PrefixSearch {
            synth,
            plans,
            interner,
            info,
            touch,
            plan_touch,
            arena: vec![root],
            arena_len: 1,
            stack: vec![0],
            path: Vec::new(),
            finished,
            cancel,
            stats: PrefixStats::default(),
        }
    }

    /// Repositions the walk at the leaf for `sel`, reusing the nodes of the
    /// longest prefix shared with the previous path and expanding only the
    /// differing suffix. Arena rows abandoned by the backtrack keep their
    /// allocations and are overwritten by the new branch.
    ///
    /// The cancel token (when carried) is polled once per expanded row, so a
    /// deadline or watchdog cancel aborts the walk within one row of work.
    fn walk_to(&mut self, sel: &[usize]) -> Result<(), CancelReason> {
        let common = self
            .path
            .iter()
            .zip(sel.iter())
            .take_while(|(a, b)| a == b)
            .count();
        self.path.truncate(common);
        self.stack.truncate(common + 1);
        // Row indices are non-decreasing along the stack, so everything past
        // the kept top is unreachable from the new branch.
        self.arena_len = self.stack[common] as usize + 1;
        for (depth, &alternative) in sel.iter().enumerate().skip(common) {
            if let Some(reason) = hooks::poll_cancelled(self.cancel) {
                return Err(reason);
            }
            self.extend(depth, alternative);
        }
        Ok(())
    }

    /// The arena row holding the constraint state at the current end of the
    /// path.
    fn current_row(&self) -> u32 {
        *self.stack.last().expect("the root is always on the stack")
    }

    /// Clones the parent row into the next arena slot (reusing a spare row's
    /// allocations when the walk backtracked past it) and returns its index.
    fn push_row_from(&mut self, parent: u32) -> u32 {
        let idx = self.arena_len;
        if idx < self.arena.len() {
            let (live, spare) = self.arena.split_at_mut(idx);
            spare[0].clone_from(&live[parent as usize]);
        } else {
            let row = self.arena[parent as usize].clone();
            self.arena.push(row);
        }
        self.arena_len += 1;
        u32::try_from(idx).expect("fewer than 2^32 tree rows")
    }

    /// Pushes one choice: unifies the chosen copy's constraint into the
    /// state of every shared tensor the copy touches. Choices touching no
    /// shared tensor repeat their parent's row (the ancestor state applies
    /// unchanged — edges for register/global copies cost nothing).
    fn extend(&mut self, depth: usize, alternative: usize) {
        let plan = &self.plans[depth];
        let parent = self.current_row();
        let row = if self.plan_touch[depth].is_empty() {
            parent
        } else {
            self.stats.nodes_expanded += 1;
            let row = self.push_row_from(parent);
            // Mirror the clamp `materialize_candidate` applies to the
            // alternative index.
            let (atom, elems) = &plan.alternatives[alternative.min(plan.alternatives.len() - 1)];
            for &slot in &self.plan_touch[depth] {
                let (tile, dtype) = &self.info[slot as usize];
                let entry = &mut self.arena[row as usize][slot as usize];
                if let Ok(current) = entry {
                    let c = copy_constraint(atom, plan.vector_dim, *elems, tile, *dtype);
                    *entry = current.unify(&c);
                }
            }
            row
        };
        self.stack.push(row);
        self.path.push(alternative);
    }

    /// Finishes the candidate at the current leaf: attaches memoized
    /// shared-memory layouts, falling back to all-scalar copies when the
    /// constraints conflict (and dropping the candidate when even the
    /// fallback is unsatisfiable) — exactly like the reference path.
    fn finish_leaf(&mut self, base: &TvBase, sel: &[usize]) -> Option<Candidate> {
        let mut candidate = self.synth.materialize_candidate(base, self.plans, sel);
        let leaf = self.current_row();
        if self.attach_smem(&mut candidate, Some(leaf)).is_ok() {
            return Some(candidate);
        }
        // Degrade every shared-memory copy to its scalar alternative and
        // retry once (Section V: "the compiler falls back to scalar
        // instructions"). The degraded choice set is the same for every
        // failing sibling, so its per-tensor layouts are computed once.
        degrade_to_scalar(self.plans, &mut candidate);
        if self.attach_smem(&mut candidate, None).is_ok() {
            candidate
                .notes
                .push("fell back to scalar copies for shared memory".to_string());
            return Some(candidate);
        }
        None
    }

    /// Fingerprint of the copy choices touching the tensor in `slot` —
    /// exactly the inputs `copy_constraint` and the swizzle scoring read
    /// (the per-thread coverage is plan-constant, so the op identity covers
    /// it). Walks the precomputed per-slot plan indices and hashes the
    /// choices in place — no temporary `Vec<&CopyChoice>` per tensor per
    /// leaf.
    fn touching_fingerprint(&self, candidate: &Candidate, slot: u32) -> u64 {
        let mut hasher = DefaultHasher::new();
        for &pi in &self.touch[slot as usize] {
            let choice = &candidate.copy_choices[&self.plans[pi as usize].op];
            choice.atom.name.hash(&mut hasher);
            choice.elements_per_thread.hash(&mut hasher);
            choice.vector_dim.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The touching copy choices of `slot`, materialized only on memo misses
    /// (the finishing code needs the actual slice).
    fn touching_choices_of<'c>(&self, candidate: &'c Candidate, slot: u32) -> Vec<&'c CopyChoice> {
        self.touch[slot as usize]
            .iter()
            .map(|&pi| &candidate.copy_choices[&self.plans[pi as usize].op])
            .collect()
    }

    /// Attaches a synthesized layout for every shared tensor of the program
    /// to `candidate`, reusing memoized results when the choices of the
    /// copies touching a tensor were seen before. `leaf` is the arena row
    /// carrying the prefix-unified constraints; `None` (the degraded
    /// fallback) re-unifies from the candidate's actual choices on a memo
    /// miss.
    fn attach_smem(&mut self, candidate: &mut Candidate, leaf: Option<u32>) -> Result<(), ()> {
        let options = self.synth.options();
        for slot in 0..self.interner.len() as u32 {
            let tensor = self.interner.tensor(slot);
            if options.force_row_major_smem {
                let (tile, _) = &self.info[slot as usize];
                candidate
                    .smem_layouts
                    .insert(tensor, SwizzledLayout::unswizzled(Layout::row_major(tile)));
                continue;
            }
            let key = (tensor, self.touching_fingerprint(candidate, slot));
            let result = match self.finished.get(&key) {
                Some(hit) => {
                    self.stats.tensor_layout_hits += 1;
                    hit
                }
                None => {
                    self.stats.tensor_layouts_computed += 1;
                    let (tile, dtype) = &self.info[slot as usize];
                    let touching = self.touching_choices_of(candidate, slot);
                    let constraint = match leaf {
                        Some(row) => self.arena[row as usize][slot as usize].clone(),
                        None => unify_touching(tile, &touching, *dtype),
                    };
                    let computed = constraint.and_then(|c| {
                        materialize_and_swizzle(
                            &c,
                            &touching,
                            tile,
                            dtype.bits(),
                            self.synth.arch(),
                            options,
                        )
                    });
                    // Concurrent subtrees may race here; `computed` is a
                    // pure function of `key`, so either insert wins with a
                    // bit-identical value.
                    self.finished.insert(key, computed.clone());
                    computed
                }
            };
            match result {
                Ok(layout) => {
                    candidate.smem_layouts.insert(tensor, layout);
                }
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }
}

/// The subtree depth the parallel walk uses: the explicit option when set,
/// otherwise the smallest depth whose prefix split yields at least
/// `4 * workers` subtrees (so the pool has slack to balance uneven subtree
/// costs), falling back to the full selection length — every leaf its own
/// subtree, relying on the shared memo for cross-leaf reuse. Deterministic,
/// but the *output* never depends on it: any split merges back to the same
/// candidate list.
fn resolve_subtree_depth(
    explicit: Option<usize>,
    workers: usize,
    selections: &[Vec<usize>],
) -> usize {
    if let Some(depth) = explicit {
        return depth;
    }
    let max_len = selections.iter().map(Vec::len).max().unwrap_or(0);
    let target = workers.saturating_mul(4);
    for depth in 1..=max_len {
        let distinct: std::collections::HashSet<&[usize]> = selections
            .iter()
            .map(|sel| &sel[..depth.min(sel.len())])
            .collect();
        if distinct.len() >= target {
            return depth;
        }
    }
    max_len
}

/// Groups selection indices by their depth-`depth` choice prefix, preserving
/// the enumeration order of first occurrence (and of members within each
/// group).
fn subtree_groups(selections: &[Vec<usize>], depth: usize) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut index_of: HashMap<&[usize], usize> = HashMap::new();
    for (i, sel) in selections.iter().enumerate() {
        let key = &sel[..depth.min(sel.len())];
        match index_of.get(key) {
            Some(&g) => groups[g].push(i),
            None => {
                index_of.insert(key, groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

impl<'a> Synthesizer<'a> {
    /// Evaluates the selections through the shared-prefix search, returning
    /// at most `max` finished candidates in enumeration order, plus the
    /// sharing counters.
    ///
    /// Dispatches between the serial walk (the cross-checked reference:
    /// one worker, `parallel_subtree_depth = 0`, or a trivial selection
    /// list) and the parallel subtree walk. Both produce bit-identical
    /// candidate lists; only the counters differ.
    ///
    /// `token` (when carried) is polled cooperatively at row granularity;
    /// a tripped token aborts with [`SynthesisError::Cancelled`] — never a
    /// partial candidate list.
    pub(crate) fn evaluate_incremental_with_stats(
        &self,
        base: &TvBase,
        plans: &[CopyPlan],
        selections: &[Vec<usize>],
        max: usize,
        token: Option<&CancelToken>,
    ) -> Result<(Vec<Candidate>, PrefixStats), SynthesisError> {
        let workers = self
            .options()
            .parallel_workers
            .unwrap_or_else(hexcute_parallel::worker_count)
            .max(1);
        let depth =
            resolve_subtree_depth(self.options().parallel_subtree_depth, workers, selections);
        let finished_memo = FinishedMemo::new();
        if workers <= 1 || depth == 0 || selections.len() <= 2 {
            return self.walk_serial(base, plans, selections, max, &finished_memo, token);
        }
        self.walk_parallel(
            base,
            plans,
            selections,
            max,
            depth,
            workers,
            &finished_memo,
            token,
        )
    }

    /// The serial incremental walk (the PR 2 behaviour).
    fn walk_serial(
        &self,
        base: &TvBase,
        plans: &[CopyPlan],
        selections: &[Vec<usize>],
        max: usize,
        finished_memo: &FinishedMemo,
        token: Option<&CancelToken>,
    ) -> Result<(Vec<Candidate>, PrefixStats), SynthesisError> {
        let mut search = PrefixSearch::new(self, plans, finished_memo, token);
        let mut finished = Vec::new();
        for sel in selections {
            if finished.len() >= max {
                break;
            }
            if let Some(reason) = hooks::injected_stall(token) {
                return Err(SynthesisError::Cancelled(reason));
            }
            search.walk_to(sel).map_err(SynthesisError::Cancelled)?;
            if let Some(candidate) = search.finish_leaf(base, sel) {
                finished.push(candidate);
            }
        }
        let mut stats = search.stats;
        stats.subtrees = 1;
        stats.workers = 1;
        stats.finished_cache = finished_memo.stats();
        Ok((finished, stats))
    }

    /// The parallel subtree walk: the first (preferred) selection is
    /// finished serially to warm the shared memo, the remaining selections
    /// are split into depth-`depth` prefix subtrees evaluated on the worker
    /// pool, and the per-selection results are merged back in enumeration
    /// order before applying the `max` cap — so the output is bit-for-bit
    /// the serial walk's at any worker count. (Like the parallel reference
    /// path, every selection is finished even when `max` would have stopped
    /// the serial walk early; with the default `max_candidates` no discarded
    /// work occurs.)
    #[allow(clippy::too_many_arguments)]
    fn walk_parallel(
        &self,
        base: &TvBase,
        plans: &[CopyPlan],
        selections: &[Vec<usize>],
        max: usize,
        depth: usize,
        workers: usize,
        finished_memo: &FinishedMemo,
        token: Option<&CancelToken>,
    ) -> Result<(Vec<Candidate>, PrefixStats), SynthesisError> {
        let mut slots: Vec<Option<Candidate>> = vec![None; selections.len()];
        let mut stats = PrefixStats::default();

        // Warm the memo with the preferred selection: it carries the common
        // choices, so concurrent subtrees mostly hit instead of racing.
        {
            let mut search = PrefixSearch::new(self, plans, finished_memo, token);
            if let Some(reason) = hooks::injected_stall(token) {
                return Err(SynthesisError::Cancelled(reason));
            }
            search
                .walk_to(&selections[0])
                .map_err(SynthesisError::Cancelled)?;
            slots[0] = search.finish_leaf(base, &selections[0]);
            stats = merge_stats(&stats, &search.stats);
        }

        let groups = subtree_groups(&selections[1..], depth);
        let subtrees = groups.len() + 1;
        type GroupResult = Result<(Vec<(usize, Option<Candidate>)>, PrefixStats), CancelReason>;
        let eval_group = |group: Vec<usize>| -> GroupResult {
            let mut search = PrefixSearch::new(self, plans, finished_memo, token);
            let mut out = Vec::with_capacity(group.len());
            for idx in group {
                let sel = &selections[idx + 1];
                if let Some(reason) = hooks::injected_stall(token) {
                    return Err(reason);
                }
                search.walk_to(sel)?;
                out.push((idx + 1, search.finish_leaf(base, sel)));
            }
            Ok((out, search.stats))
        };
        // A carried token additionally cancels at pool-job granularity:
        // subtrees not yet claimed when the token trips are never started
        // (and are counted by `PoolStats::cancelled`).
        let evaluated = match token {
            Some(tok) => hexcute_parallel::par_map_cancellable(groups, eval_group, workers, tok)
                .ok_or_else(|| {
                    SynthesisError::Cancelled(tok.reason().unwrap_or(CancelReason::Shutdown))
                })?,
            None => hexcute_parallel::par_map_with_workers(groups, eval_group, workers),
        };
        for group_result in evaluated {
            let (group, group_stats) = group_result.map_err(SynthesisError::Cancelled)?;
            stats = merge_stats(&stats, &group_stats);
            for (idx, candidate) in group {
                slots[idx] = candidate;
            }
        }
        stats.subtrees = subtrees;
        stats.workers = workers;
        stats.finished_cache = finished_memo.stats();
        let finished: Vec<Candidate> = slots.into_iter().flatten().take(max).collect();
        Ok((finished, stats))
    }

    /// The branch-and-bound walk behind [`Synthesizer::synthesize_pruned`]:
    /// evaluates the selections through the shared-prefix search, but keeps
    /// a shared incumbent `(score, index)` pair and cuts every subtree
    /// group (and individual leaf) whose admissible completion bound cannot
    /// beat it lexicographically. Returns the winner as `(enumeration
    /// index, candidate, score)` plus the walk counters.
    ///
    /// ## Why the winner is deterministic under a racing incumbent
    ///
    /// The incumbent only ever holds exact `(score, index)` pairs of
    /// finished candidates, so at any instant it is lexicographically ≥ the
    /// global minimum pair. A subtree containing the global minimizer has a
    /// bound ≤ its score and a first index ≤ its index, so its `(bound,
    /// first index)` pair is ≤ the incumbent — and pruning requires the
    /// pair to be **strictly greater** (score under [`f64::total_cmp`],
    /// then index). Every global minimizer therefore survives every
    /// interleaving; pruning on index breaks score *ties* exactly the way
    /// the final reduction does. Survivors are reduced to the lexicographic
    /// minimum of `(score, enumeration index)`, which reproduces the
    /// exhaustive argmin's first-minimal tie-break exactly. Only the
    /// *counters* (`subtrees_cut`, `selections_pruned`,
    /// `bound_evaluations`, `incumbent_updates`, `candidates_scored`)
    /// depend on timing.
    pub(crate) fn evaluate_pruned<B: crate::SearchBounder + ?Sized>(
        &self,
        base: &TvBase,
        plans: &[CopyPlan],
        selections: &[Vec<usize>],
        bounder: &B,
        token: Option<&CancelToken>,
    ) -> PrunedWalk {
        type Best = (f64, usize, Candidate);
        let mut stats = PrefixStats::default();
        if selections.is_empty() {
            stats.subtrees = 1;
            stats.workers = 1;
            return Ok((None, stats));
        }
        let workers = self
            .options()
            .parallel_workers
            .unwrap_or_else(hexcute_parallel::worker_count)
            .max(1);
        let depth =
            resolve_subtree_depth(self.options().parallel_subtree_depth, workers, selections);
        let finished_memo = FinishedMemo::new();
        let incumbent = hexcute_parallel::incumbent::IncumbentCell::new();

        // Seed: finish and score the preferred selection serially. This
        // warms the shared memo (like the exhaustive parallel walk) and —
        // because the preferred selection usually wins — gives every group
        // a near-final incumbent before the fan-out.
        let mut best: Option<Best> = None;
        {
            let mut search = PrefixSearch::new(self, plans, &finished_memo, token);
            if let Some(reason) = hooks::injected_stall(token) {
                return Err(SynthesisError::Cancelled(reason));
            }
            search
                .walk_to(&selections[0])
                .map_err(SynthesisError::Cancelled)?;
            if let Some(candidate) = search.finish_leaf(base, &selections[0]) {
                let score = bounder.exact_score(&candidate);
                search.stats.candidates_scored += 1;
                if incumbent.offer(score, 0) {
                    search.stats.incumbent_updates += 1;
                }
                best = Some((score, 0, candidate));
            }
            stats = merge_stats(&stats, &search.stats);
        }

        // Ops still open below the split depth: the prefix bound of a group
        // leaves exactly these undecided.
        let undecided: Vec<hexcute_ir::OpId> = plans.iter().skip(depth).map(|p| p.op).collect();
        // Cut when `(bound, first index)` is lexicographically above the
        // incumbent pair: a strictly larger bound can never win, and an
        // *equal* bound from a later index can only tie on score and then
        // loses the first-minimal tie-break.
        let prunes = |bound: f64, first_index: usize| {
            let (inc_score, inc_index) = incumbent.get();
            match bound.total_cmp(&inc_score) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => first_index > inc_index,
                std::cmp::Ordering::Less => false,
            }
        };
        type GroupResult = Result<(Option<(f64, usize, Candidate)>, PrefixStats), CancelReason>;
        let eval_group = |group: Vec<usize>| -> GroupResult {
            let mut search = PrefixSearch::new(self, plans, &finished_memo, token);
            let mut extra = PrefixStats::default();
            // Prefix bound: one probe for the whole group (its members share
            // the first `depth` choices, which is all the bound reads — the
            // suffix ops are passed as undecided).
            if group.len() > 1 && !undecided.is_empty() {
                if let Some(reason) = hooks::poll_cancelled(token) {
                    return Err(reason);
                }
                let probe = self.materialize_candidate(base, plans, &selections[group[0] + 1]);
                extra.bound_evaluations += 1;
                if prunes(bounder.completion_bound(&probe, &undecided), group[0] + 1) {
                    extra.subtrees_cut += 1;
                    extra.selections_pruned += group.len();
                    return Ok((None, extra));
                }
            }
            let mut local: Option<Best> = None;
            for idx in group {
                let sel = &selections[idx + 1];
                if let Some(reason) = hooks::injected_stall(token) {
                    return Err(reason);
                }
                if let Some(reason) = hooks::poll_cancelled(token) {
                    return Err(reason);
                }
                // Leaf bound: fully decided. Admissible for both ways the
                // leaf can finish — as materialized, or through the
                // all-plans scalar degradation — so a cut leaf cannot hide
                // a winner.
                let candidate = self.materialize_candidate(base, plans, sel);
                extra.bound_evaluations += 1;
                if prunes(bounder.completion_bound(&candidate, &[]), idx + 1) {
                    extra.selections_pruned += 1;
                    continue;
                }
                search.walk_to(sel)?;
                if let Some(finished) = search.finish_leaf(base, sel) {
                    let score = bounder.exact_score(&finished);
                    extra.candidates_scored += 1;
                    if incumbent.offer(score, idx + 1) {
                        extra.incumbent_updates += 1;
                    }
                    let better = match &local {
                        None => true,
                        Some((s, i, _)) => match score.total_cmp(s) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => idx + 1 < *i,
                            std::cmp::Ordering::Greater => false,
                        },
                    };
                    if better {
                        local = Some((score, idx + 1, finished));
                    }
                }
            }
            Ok((local, merge_stats(&extra, &search.stats)))
        };

        let groups = subtree_groups(&selections[1..], depth);
        let subtrees = groups.len() + 1;
        let serial = workers <= 1 || depth == 0 || selections.len() <= 2;
        let evaluated: Vec<GroupResult> = if serial {
            groups.into_iter().map(eval_group).collect()
        } else {
            match token {
                Some(tok) => {
                    hexcute_parallel::par_map_cancellable(groups, eval_group, workers, tok)
                        .ok_or_else(|| {
                            SynthesisError::Cancelled(
                                tok.reason().unwrap_or(CancelReason::Shutdown),
                            )
                        })?
                }
                None => hexcute_parallel::par_map_with_workers(groups, eval_group, workers),
            }
        };
        for group_result in evaluated {
            let (local, group_stats) = group_result.map_err(SynthesisError::Cancelled)?;
            stats = merge_stats(&stats, &group_stats);
            if let Some((score, idx, candidate)) = local {
                let better = match &best {
                    None => true,
                    Some((s, i, _)) => match score.total_cmp(s) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => idx < *i,
                        std::cmp::Ordering::Greater => false,
                    },
                };
                if better {
                    best = Some((score, idx, candidate));
                }
            }
        }
        stats.subtrees = subtrees;
        stats.workers = if serial { 1 } else { workers };
        stats.finished_cache = finished_memo.stats();
        Ok((
            best.map(|(score, idx, candidate)| (idx, candidate, score)),
            stats,
        ))
    }
}

/// Result of the pruned walk: the winning `(enumeration index, candidate,
/// score)` triple, when any leaf finished, plus the walk counters.
type PrunedWalk = Result<(Option<(usize, Candidate, f64)>, PrefixStats), SynthesisError>;

/// Sums the per-walk counters (the cache snapshot is set once at the end).
fn merge_stats(a: &PrefixStats, b: &PrefixStats) -> PrefixStats {
    PrefixStats {
        nodes_expanded: a.nodes_expanded + b.nodes_expanded,
        tensor_layouts_computed: a.tensor_layouts_computed + b.tensor_layouts_computed,
        tensor_layout_hits: a.tensor_layout_hits + b.tensor_layout_hits,
        finished_cache: a.finished_cache,
        subtrees: a.subtrees,
        workers: a.workers,
        bound_evaluations: a.bound_evaluations + b.bound_evaluations,
        subtrees_cut: a.subtrees_cut + b.subtrees_cut,
        selections_pruned: a.selections_pruned + b.selections_pruned,
        incumbent_updates: a.incumbent_updates + b.incumbent_updates,
        candidates_scored: a.candidates_scored + b.candidates_scored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_arch::DType;
    use hexcute_ir::KernelBuilder;
    use hexcute_layout::Layout as IrLayout;

    /// Builds a small program just to obtain real (dense) tensor ids.
    fn some_tensor_ids(n: usize) -> Vec<TensorId> {
        let mut kb = KernelBuilder::new("interner_fixture", 128);
        (0..n)
            .map(|i| {
                kb.global_view(
                    format!("t{i}"),
                    DType::F16,
                    IrLayout::row_major(&[8, 8]),
                    &[8, 8],
                )
            })
            .collect()
    }

    #[test]
    fn interner_assigns_dense_slots_in_insertion_order() {
        let ids = some_tensor_ids(4);
        // Intern out of order, with a duplicate.
        let interner = TensorSlotInterner::new([ids[2], ids[0], ids[2], ids[3]]);
        assert_eq!(interner.len(), 3);
        assert_eq!(interner.slot(ids[2]), Some(0));
        assert_eq!(interner.slot(ids[0]), Some(1));
        assert_eq!(interner.slot(ids[3]), Some(2));
        assert_eq!(interner.slot(ids[1]), None, "never interned");
        // Both directions agree.
        for slot in 0..interner.len() as u32 {
            assert_eq!(interner.slot(interner.tensor(slot)), Some(slot));
        }
        assert_eq!(interner.tensors(), &[ids[2], ids[0], ids[3]]);
    }

    #[test]
    fn interner_is_idempotent_and_growable() {
        let ids = some_tensor_ids(3);
        let mut interner = TensorSlotInterner::default();
        assert!(interner.is_empty());
        let s0 = interner.intern(ids[1]);
        assert_eq!(interner.intern(ids[1]), s0, "re-interning keeps the slot");
        let s1 = interner.intern(ids[0]);
        assert_ne!(s0, s1);
        assert_eq!(interner.len(), 2);
    }
}

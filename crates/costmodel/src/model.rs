//! The analytical latency model.
//!
//! Per-operation issue/completion estimates are memoized across candidates:
//! the search tree varies one instruction choice at a time, so most
//! operations of sibling candidates share identical choices and their costs
//! are computed once. The cache key is a fingerprint of exactly the choice
//! fields the estimate reads, so memoized results are bit-identical to
//! recomputed ones.
//!
//! With the incremental prefix-shared search (see
//! [`hexcute_synthesis::prefix`]) the accumulation over a candidate is
//! additionally memoized whole: estimates accrue per shared prefix through
//! the per-operation cache, and a repeat estimate of a candidate whose full
//! choice fingerprint was seen before is a single lookup. A warm answer from
//! either layer equals a cold estimate on a fresh model bit for bit; the
//! memo-hit oracle tests in `hexcute-core` check it over every workload
//! family.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

use hexcute_arch::GpuArch;
use hexcute_ir::{Op, OpId, OpKind, Program, TensorId};
use hexcute_parallel::cache::{CacheStats, ShardedMap};
use hexcute_parallel::lossy::{self, LossyPurpose};
use hexcute_synthesis::Candidate;

/// Bound on resident whole-candidate estimates: each entry carries a per-op
/// cost vector, so the cache is capped (with simple shard eviction) instead
/// of growing with every candidate a long-lived model ever sees.
const CANDIDATE_CACHE_CAPACITY: usize = 8192;

/// Per-operation cost attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCost {
    /// The operation.
    pub op: OpId,
    /// Cycles the issuing warps are occupied.
    pub issue_cycles: f64,
    /// Additional cycles stalled waiting for in-flight producers.
    pub stall_cycles: f64,
    /// Cycles until the result is available after issuing.
    pub completion_cycles: f64,
}

/// The estimated latency of a candidate program on one streaming
/// multiprocessor, split into its components.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// Estimated cycles for one thread block to execute the whole kernel.
    pub total_cycles: f64,
    /// Cycles spent before the main loop (prologue).
    pub prologue_cycles: f64,
    /// Cycles spent in one iteration of the main loop (after pipelining).
    pub loop_iteration_cycles: f64,
    /// Cycles spent after the main loop (epilogue).
    pub epilogue_cycles: f64,
    /// Extra cycles charged for register-layout conversions (rearranges).
    pub rearrange_cycles: f64,
    /// Per-operation attribution (one entry per static operation).
    pub per_op: Vec<OpCost>,
}

impl CostBreakdown {
    /// Estimated latency in microseconds at the architecture's clock.
    pub fn micros(&self, arch: &GpuArch) -> f64 {
        arch.cycles_to_ns(self.total_cycles) / 1000.0
    }
}

/// The analytical cost model: estimates the latency of a candidate program
/// without compiling or running it.
///
/// The model is `Sync`: one instance can score many candidates from several
/// threads, sharing its per-operation memoization cache.
#[derive(Debug)]
pub struct CostModel<'a> {
    arch: &'a GpuArch,
    /// Read-mostly after warm-up: keys are spread over sharded read-write
    /// locks so the parallel subtree search and candidate scoring do not
    /// serialize on the cache.
    op_cache: ShardedMap<(OpId, u64), (f64, f64)>,
    /// Whole-candidate estimates keyed by [`candidate_fingerprint`]: repeat
    /// scorings of a candidate (e.g. the cost model feeding the performance
    /// simulator) are a single lookup when the incremental search is on.
    /// Bounded by [`CANDIDATE_CACHE_CAPACITY`].
    candidate_cache: ShardedMap<u64, CostBreakdown>,
    /// [`program_fingerprint`] of the program the caches currently describe.
    /// The per-operation cache is keyed by `OpId`, which is only unique
    /// within one program, so estimating a different program clears both
    /// caches (see [`CostModel::retag`]).
    program_tag: RwLock<Option<u64>>,
    /// Prologue/body/epilogue op-index partition for the tagged program,
    /// computed once per retag instead of re-partitioning (three `Vec<&Op>`
    /// allocations) per estimate.
    partition: RwLock<Option<(u64, Arc<OpPartition>)>>,
    /// Process-unique salt mixed into every lossy-tier key: thread-local
    /// lossy tables outlive this model, and a later model for a different
    /// architecture must never see its entries.
    salt: u64,
}

/// Indices into `program.ops()` split by position relative to the main loop.
#[derive(Debug, Default)]
struct OpPartition {
    pre: Vec<u32>,
    body: Vec<u32>,
    post: Vec<u32>,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model for the given architecture.
    pub fn new(arch: &'a GpuArch) -> Self {
        CostModel {
            arch,
            op_cache: ShardedMap::new(),
            candidate_cache: ShardedMap::bounded(CANDIDATE_CACHE_CAPACITY),
            program_tag: RwLock::new(None),
            partition: RwLock::new(None),
            salt: lossy::instance_salt(),
        }
    }

    /// Clears the memoization caches when `program` differs from the one
    /// they were built for, making *sequential* reuse of one model across
    /// programs safe (`OpId`s are only unique within a program). Estimating
    /// different programs concurrently on one model is not supported.
    /// Returns the program's fingerprint so the estimate path can salt its
    /// lossy-tier keys without re-reading the lock.
    pub(crate) fn retag(&self, program: &Program) -> u64 {
        let tag = program_fingerprint(program);
        if *self.program_tag.read().unwrap() == Some(tag) {
            return tag;
        }
        let mut current = self.program_tag.write().unwrap();
        if *current != Some(tag) {
            *current = Some(tag);
            self.op_cache.clear();
            self.candidate_cache.clear();
            *self.partition.write().unwrap() = None;
        }
        tag
    }

    /// The op partition for the tagged program, built on first use per tag.
    fn partition(&self, program: &Program, tag: u64) -> Arc<OpPartition> {
        if let Some((t, p)) = self.partition.read().unwrap().as_ref() {
            if *t == tag {
                return p.clone();
            }
        }
        let ops = program.ops();
        let first_loop = ops.iter().position(|o| o.in_main_loop);
        let last_loop = ops.iter().rposition(|o| o.in_main_loop);
        let part = match (first_loop, last_loop) {
            (Some(first), Some(last)) => OpPartition {
                pre: (0..first as u32).collect(),
                body: (first..=last)
                    .filter(|&i| ops[i].in_main_loop)
                    .map(|i| i as u32)
                    .collect(),
                post: (last as u32 + 1..ops.len() as u32).collect(),
            },
            _ => OpPartition {
                pre: (0..ops.len() as u32).collect(),
                ..OpPartition::default()
            },
        };
        let part = Arc::new(part);
        *self.partition.write().unwrap() = Some((tag, part.clone()));
        part
    }

    /// Estimates the per-block latency of a candidate program.
    ///
    /// The whole estimate is memoized per candidate fingerprint; the
    /// memoized value is bit-identical to a recomputation.
    pub fn estimate(&self, program: &Program, candidate: &Candidate) -> CostBreakdown {
        let tag = self.retag(program);
        let key = candidate_fingerprint(program, candidate);
        // The candidate fingerprint already embeds the program fingerprint,
        // so the lossy key only needs the instance salt.
        lossy::two_tier_get_or_insert_with(
            LossyPurpose::CandidateEstimate,
            self.salt,
            key,
            &self.candidate_cache,
            key,
            || self.estimate_uncached(program, candidate, tag),
        )
    }

    /// The uncached estimate behind [`CostModel::estimate`].
    fn estimate_uncached(
        &self,
        program: &Program,
        candidate: &Candidate,
        tag: u64,
    ) -> CostBreakdown {
        self.estimate_with_costs(
            program,
            tag,
            &|op| self.op_cycles_memo(program, candidate, op, tag),
            self.rearrange_cycles(candidate),
        )
    }

    /// The estimate arithmetic with the per-operation costs supplied by the
    /// caller instead of [`CostModel::op_cycles`]. With the memoized costs
    /// this *is* [`CostModel::estimate`]; the branch-and-bound completion
    /// bound feeds per-op cost *floors* through the same formulas, and the
    /// formulas are monotone nondecreasing in every op's issue and completion
    /// cycles, so the result is an admissible lower bound (see
    /// [`crate::CompletionBounds`]).
    pub(crate) fn estimate_with_costs(
        &self,
        program: &Program,
        tag: u64,
        costs: &dyn Fn(&Op) -> (f64, f64),
        rearrange_cycles: f64,
    ) -> CostBreakdown {
        // Split the static ops into prologue (before the loop), loop body and
        // epilogue (after the loop) by program order; the index partition is
        // computed once per program tag.
        let partition = self.partition(program, tag);
        let (pre, body, post) = (&partition.pre, &partition.body, &partition.post);

        let mut per_op = Vec::with_capacity(program.ops().len());

        let prologue_cycles = self.sequence_cycles(program, pre, &mut per_op, false, costs);
        let body_serial = self.sequence_cycles(program, body, &mut per_op, false, costs);
        let epilogue_cycles = self.sequence_cycles(program, post, &mut per_op, true, costs);

        // Pipelining and warp specialization overlap the memory and compute
        // portions of the loop body across iterations.
        let (body_mem_issue, body_compute_issue, body_max_completion) =
            self.body_split(program, body, costs);
        let stages = program.schedule.pipeline_stages.max(1) as f64;
        let overlapped = program.schedule.pipeline_stages > 1 || program.schedule.warp_specialized;
        let loop_iteration_cycles = if body.is_empty() {
            0.0
        } else if overlapped {
            // Steady state: completion latencies are hidden by the pipeline
            // (only a fraction remains exposed for shallow pipelines). Warp
            // specialization additionally moves the memory instructions onto
            // dedicated producer warps, so the memory and compute *issue*
            // streams overlap too; otherwise both streams share the same
            // warp schedulers and their issue cycles add up.
            let exposed = body_max_completion / (stages * stages.max(1.0));
            if program.schedule.warp_specialized {
                body_mem_issue.max(body_compute_issue) + exposed
            } else {
                body_mem_issue + body_compute_issue + exposed
            }
        } else {
            body_serial
        };
        let trip = program.main_loop_trip_count.max(1) as f64;
        // Pipeline fill cost: the first iteration still waits for its data.
        let fill = if overlapped && !body.is_empty() {
            body_max_completion
        } else {
            0.0
        };

        let total_cycles = prologue_cycles
            + fill
            + trip * loop_iteration_cycles
            + epilogue_cycles
            + rearrange_cycles;

        CostBreakdown {
            total_cycles,
            prologue_cycles,
            loop_iteration_cycles,
            epilogue_cycles,
            rearrange_cycles,
            per_op,
        }
    }

    /// Issue-plus-stall cycles of a straight-line op sequence, tracking
    /// read-after-write dependencies against in-flight completions.
    ///
    /// The tensor-readiness map is a thread-local SoA scratch (epoch-stamped
    /// clock vector indexed by the dense [`TensorId::index`]) reused across
    /// every candidate a worker scores — sibling candidates in the search
    /// walk pay zero allocations here.
    fn sequence_cycles(
        &self,
        program: &Program,
        ops: &[u32],
        per_op: &mut Vec<OpCost>,
        wait_for_all: bool,
        costs: &dyn Fn(&Op) -> (f64, f64),
    ) -> f64 {
        READY_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let epoch = scratch.begin(program.tensors().len());
            let mut clock = 0.0f64;
            let mut last_completion = 0.0f64;
            for &i in ops {
                let op = &program.ops()[i as usize];
                // RAW stall: wait until every input is ready.
                let input_ready = op
                    .inputs()
                    .iter()
                    .map(|t| scratch.ready(epoch, *t))
                    .fold(0.0f64, f64::max);
                let stall = (input_ready - clock).max(0.0);
                clock += stall;

                let (issue, completion) = costs(op);
                clock += issue;
                for out in op.outputs() {
                    scratch.set_ready(epoch, out, clock + completion);
                }
                last_completion = last_completion.max(clock + completion);
                per_op.push(OpCost {
                    op: op.id,
                    issue_cycles: issue,
                    stall_cycles: stall,
                    completion_cycles: completion,
                });
            }
            if wait_for_all {
                clock = clock.max(last_completion);
            }
            clock
        })
    }

    /// Splits the loop body into memory-pipe issue cycles, compute-pipe issue
    /// cycles, and the largest completion latency (used for the pipelining
    /// overlap model).
    fn body_split(
        &self,
        program: &Program,
        body: &[u32],
        costs: &dyn Fn(&Op) -> (f64, f64),
    ) -> (f64, f64, f64) {
        let mut mem = 0.0f64;
        let mut compute = 0.0f64;
        let mut max_completion = 0.0f64;
        for &i in body {
            let op = &program.ops()[i as usize];
            let (issue, completion) = costs(op);
            max_completion = max_completion.max(completion);
            if matches!(op.kind, OpKind::Copy { .. } | OpKind::Rearrange { .. }) {
                mem += issue;
            } else {
                compute += issue;
            }
        }
        (mem, compute, max_completion)
    }

    /// Issue and completion cycles of one tile-level operation under the
    /// candidate's instruction choices.
    ///
    /// Results are memoized per `(operation, choice fingerprint)`, so
    /// candidates sharing a choice for an operation pay for its estimate
    /// once. The cache is invalidated when `program` differs from the one
    /// the model last saw (operation ids are only unique within a program).
    pub fn op_cycles(&self, program: &Program, candidate: &Candidate, op: &Op) -> (f64, f64) {
        let tag = self.retag(program);
        self.op_cycles_memo(program, candidate, op, tag)
    }

    /// [`CostModel::op_cycles`] without the per-call retag — used by the
    /// estimate loops, which retag once per candidate. The lossy front is
    /// salted with the program tag: `OpId`s are only unique within one
    /// program, and the thread-local tables are never cleared.
    pub(crate) fn op_cycles_memo(
        &self,
        program: &Program,
        candidate: &Candidate,
        op: &Op,
        tag: u64,
    ) -> (f64, f64) {
        let fp = op_choice_fingerprint(candidate, op);
        // The op-cost compute is cheap and touches no other cache, so the
        // shared fallthrough can afford the compute-under-lock single probe.
        lossy::two_tier_probe_or_insert_with(
            LossyPurpose::OpCost,
            lossy::mix(self.salt, tag),
            lossy::mix(op.id.index() as u64, fp),
            &self.op_cache,
            (op.id, fp),
            || self.op_cycles_uncached(program, candidate, op),
        )
    }

    /// The uncached estimate behind [`CostModel::op_cycles`].
    fn op_cycles_uncached(&self, program: &Program, candidate: &Candidate, op: &Op) -> (f64, f64) {
        match &op.kind {
            OpKind::Copy { src, dst } => {
                if let Some(choice) = candidate.copy_choices.get(&op.id) {
                    let issue = choice.invocations as f64 * choice.atom.issue_cycles;
                    let completion = choice.atom.completion_cycles(self.arch);
                    (issue, completion)
                } else {
                    let elems = program
                        .tensor(*src)
                        .tile_elements_2d()
                        .max(program.tensor(*dst).tile_elements_2d());
                    let per_thread = elems.div_ceil(program.threads_per_block).max(1);
                    let src_space = program.tensor(*src).space;
                    let dst_space = program.tensor(*dst).space;
                    if src_space == hexcute_arch::MemSpace::Register
                        && dst_space == hexcute_arch::MemSpace::Register
                    {
                        // Register-to-register move: pure SIMT traffic.
                        (per_thread as f64, 4.0)
                    } else {
                        // Unselected memory copy: assume scalar element-by-element movement.
                        (2.0 * per_thread as f64, self.arch.dram_latency_cycles)
                    }
                }
            }
            OpKind::Gemm { .. } => {
                if let Some(choice) = candidate.mma_choices.get(&op.id) {
                    let issue = choice.invocations as f64 * choice.atom.issue_cycles;
                    (issue, choice.atom.completion_cycles)
                } else {
                    (1000.0, 50.0)
                }
            }
            OpKind::Rearrange { src, .. } => {
                // Round trip through shared memory: a store and a load per element.
                let decl = program.tensor(*src);
                let per_thread = decl
                    .tile_elements_2d()
                    .div_ceil(program.threads_per_block)
                    .max(1);
                (4.0 * per_thread as f64, 2.0 * self.arch.smem_latency_cycles)
            }
            OpKind::Cast { .. } | OpKind::Elementwise { .. } | OpKind::Fill { .. } => {
                let width = candidate.simt_widths.get(&op.id).copied().unwrap_or(1);
                (width as f64, 4.0)
            }
            OpKind::Dequant { .. } => {
                // Subtract + multiply per element (lop3/fma pairs in the
                // Marlin sequence), all within each thread's own lanes.
                let width = candidate.simt_widths.get(&op.id).copied().unwrap_or(1);
                (2.0 * width as f64, 4.0)
            }
            OpKind::Reduce { src, dim, .. } => {
                // Intra-thread accumulation plus a log-depth warp shuffle tree.
                let width = candidate.simt_widths.get(&op.id).copied().unwrap_or(1);
                let decl = program.tensor(*src);
                let extent = decl.shape.get(*dim).copied().unwrap_or(1) as f64;
                (width as f64 + 2.0 * extent.log2().max(1.0), 8.0)
            }
        }
    }

    /// Clears the per-operation and per-candidate memoization caches. The
    /// thread-local lossy front retains its (salted) entries — every cached
    /// value is a pure function of its key, so a post-clear hit there is
    /// still bit-identical to a recomputation.
    pub fn clear_cache(&self) {
        self.op_cache.clear();
        self.candidate_cache.clear();
    }

    /// Hit/miss/eviction counters of the per-operation estimate cache.
    pub fn op_cache_stats(&self) -> CacheStats {
        self.op_cache.stats()
    }

    /// Hit/miss/eviction counters of the bounded whole-candidate estimate
    /// cache.
    pub fn candidate_cache_stats(&self) -> CacheStats {
        self.candidate_cache.stats()
    }

    pub(crate) fn rearrange_cycles(&self, candidate: &Candidate) -> f64 {
        // Each inserted rearrange is a shared-memory round trip of the tensor.
        candidate
            .rearranges
            .iter()
            .map(|r| {
                let bytes = r.bytes as f64;
                // 128 bytes per cycle per SM through shared memory, twice
                // (store + load), plus two barrier latencies.
                2.0 * bytes / self.arch.smem_bytes_per_cycle_per_sm
                    + 2.0 * self.arch.smem_latency_cycles
            })
            .sum()
    }
}

/// Thread-local SoA scratch for [`CostModel::sequence_cycles`]: tensor
/// readiness clocks in a flat vector indexed by the dense
/// [`TensorId::index`], invalidated wholesale by bumping an epoch stamp
/// instead of clearing (one add per sequence, zero allocation once grown to
/// the largest program seen by the thread).
struct ReadyScratch {
    epoch: u64,
    marks: Vec<u64>,
    clocks: Vec<f64>,
}

impl ReadyScratch {
    /// Starts a fresh sequence over a program with `tensors` declarations,
    /// returning the epoch that validates this sequence's writes.
    fn begin(&mut self, tensors: usize) -> u64 {
        self.epoch += 1;
        if self.marks.len() < tensors {
            self.marks.resize(tensors, 0);
            self.clocks.resize(tensors, 0.0);
        }
        self.epoch
    }

    /// The readiness clock of `t` in this epoch (0.0 when never produced —
    /// the same default the old per-call hash map returned).
    fn ready(&self, epoch: u64, t: TensorId) -> f64 {
        match self.marks.get(t.index()) {
            Some(&mark) if mark == epoch => self.clocks[t.index()],
            _ => 0.0,
        }
    }

    fn set_ready(&mut self, epoch: u64, t: TensorId, clock: f64) {
        let i = t.index();
        if i >= self.marks.len() {
            // Defensive: a tensor id past the decl count (should not happen
            // with the dense builder ids, but growth is cheap and correct).
            self.marks.resize(i + 1, 0);
            self.clocks.resize(i + 1, 0.0);
        }
        self.marks[i] = epoch;
        self.clocks[i] = clock;
    }
}

thread_local! {
    static READY_SCRATCH: RefCell<ReadyScratch> = const {
        RefCell::new(ReadyScratch {
            epoch: 0,
            marks: Vec::new(),
            clocks: Vec::new(),
        })
    };
}

/// A fingerprint of everything candidate-independent the cost model reads
/// from a program: its identity, schedule, and every tensor declaration.
/// Two same-named programs differing only in shapes or dtypes fingerprint
/// differently. Used to invalidate per-operation caches when a shared model
/// or evaluator sees a different program.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut hasher = DefaultHasher::new();
    program.name.hash(&mut hasher);
    program.threads_per_block.hash(&mut hasher);
    program.main_loop_trip_count.hash(&mut hasher);
    program.schedule.pipeline_stages.hash(&mut hasher);
    program.schedule.warp_specialized.hash(&mut hasher);
    for decl in program.tensors() {
        decl.id.hash(&mut hasher);
        decl.dtype.hash(&mut hasher);
        decl.space.hash(&mut hasher);
        decl.shape.hash(&mut hasher);
        decl.global_layout.hash(&mut hasher);
    }
    for op in program.ops() {
        op.id.hash(&mut hasher);
        op.in_main_loop.hash(&mut hasher);
    }
    hasher.finish()
}

/// A fingerprint of the whole candidate as `estimate` reads it — the
/// [`program_fingerprint`] plus every per-operation choice fingerprint and
/// the rearrange set — used to memoize whole-candidate estimates.
pub fn candidate_fingerprint(program: &Program, candidate: &Candidate) -> u64 {
    let mut hasher = DefaultHasher::new();
    program_fingerprint(program).hash(&mut hasher);
    for op in program.ops() {
        op.id.hash(&mut hasher);
        op_choice_fingerprint(candidate, op).hash(&mut hasher);
    }
    for rearrange in &candidate.rearranges {
        rearrange.bytes.hash(&mut hasher);
    }
    hasher.finish()
}

/// A fingerprint of every candidate-dependent input `op_cycles` reads for
/// `op`, used as the memoization key. Candidate-independent inputs (tensor
/// shapes, thread counts, the architecture) are fixed per model instance and
/// per operation, so they do not need to participate. Public so the
/// performance simulator can key its own per-operation caches on the same
/// fingerprint.
pub fn op_choice_fingerprint(candidate: &Candidate, op: &Op) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = FNV_OFFSET;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(FNV_PRIME);
    };
    match &op.kind {
        OpKind::Copy { .. } => {
            if let Some(choice) = candidate.copy_choices.get(&op.id) {
                mix(1);
                mix(choice.invocations as u64);
                mix(choice.elements_per_thread as u64);
                for b in choice.atom.name.bytes() {
                    mix(u64::from(b));
                }
            } else {
                mix(2);
            }
        }
        OpKind::Gemm { .. } => {
            if let Some(choice) = candidate.mma_choices.get(&op.id) {
                mix(3);
                mix(choice.invocations as u64);
                mix(choice.atom.issue_cycles.to_bits());
                mix(choice.atom.completion_cycles.to_bits());
            } else {
                mix(4);
            }
        }
        OpKind::Rearrange { .. } => mix(5),
        OpKind::Cast { .. }
        | OpKind::Elementwise { .. }
        | OpKind::Fill { .. }
        | OpKind::Reduce { .. } => {
            mix(6);
            mix(candidate.simt_widths.get(&op.id).copied().unwrap_or(1) as u64);
        }
        OpKind::Dequant { group_size, .. } => {
            mix(7);
            mix(*group_size as u64);
            mix(candidate.simt_widths.get(&op.id).copied().unwrap_or(1) as u64);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_arch::DType;
    use hexcute_ir::KernelBuilder;
    use hexcute_layout::Layout;
    use hexcute_synthesis::{SynthesisOptions, Synthesizer};

    fn pipelined_gemm(stages: usize) -> Program {
        let (bm, bn, bk, k) = (128, 128, 32, 1024);
        let mut kb = KernelBuilder::new("gemm", 128);
        kb.set_pipeline_stages(stages);
        let ga = kb.global_view(
            "a",
            DType::F16,
            Layout::from_flat(&[bm, bk, k / bk], &[k, 1, bk]),
            &[bm, bk, k / bk],
        );
        let gb = kb.global_view(
            "b",
            DType::F16,
            Layout::from_flat(&[bn, bk, k / bk], &[k, 1, bk]),
            &[bn, bk, k / bk],
        );
        let gc = kb.global_view("c", DType::F16, Layout::row_major(&[bm, bn]), &[bm, bn]);
        let sa = kb.shared_tensor("sa", DType::F16, &[bm, bk]);
        let sb = kb.shared_tensor("sb", DType::F16, &[bn, bk]);
        let ra = kb.register_tensor("ra", DType::F16, &[bm, bk]);
        let rb = kb.register_tensor("rb", DType::F16, &[bn, bk]);
        let rc = kb.register_tensor("rc", DType::F32, &[bm, bn]);
        kb.fill(rc, 0.0);
        kb.begin_loop(k / bk);
        kb.copy(ga, sa);
        kb.copy(gb, sb);
        kb.copy(sa, ra);
        kb.copy(sb, rb);
        kb.gemm(rc, ra, rb);
        kb.end_loop();
        let rc16 = kb.cast(rc, DType::F16);
        kb.copy(rc16, gc);
        kb.build().unwrap()
    }

    fn best_candidate(program: &Program, arch: &GpuArch) -> Candidate {
        Synthesizer::new(program, arch, SynthesisOptions::default())
            .synthesize_preferred()
            .unwrap()
    }

    #[test]
    fn pipelining_reduces_estimated_latency() {
        let arch = GpuArch::a100();
        let serial = pipelined_gemm(1);
        let piped = pipelined_gemm(3);
        let serial_cost = CostModel::new(&arch).estimate(&serial, &best_candidate(&serial, &arch));
        let piped_cost = CostModel::new(&arch).estimate(&piped, &best_candidate(&piped, &arch));
        assert!(
            piped_cost.total_cycles < serial_cost.total_cycles,
            "pipelined {} !< serial {}",
            piped_cost.total_cycles,
            serial_cost.total_cycles
        );
        assert!(piped_cost.loop_iteration_cycles < serial_cost.loop_iteration_cycles);
    }

    #[test]
    fn wider_instructions_are_cheaper() {
        let arch = GpuArch::a100();
        let program = pipelined_gemm(2);
        let candidates = Synthesizer::new(&program, &arch, SynthesisOptions::default())
            .synthesize()
            .unwrap();
        let model = CostModel::new(&arch);
        let preferred = model.estimate(&program, &candidates[0]).total_cycles;
        let scalar = model
            .estimate(&program, candidates.last().unwrap())
            .total_cycles;
        assert!(
            preferred < scalar,
            "preferred {preferred} !< scalar fallback {scalar}"
        );
    }

    #[test]
    fn scalar_ablation_is_slower() {
        let arch = GpuArch::a100();
        let program = pipelined_gemm(2);
        let model = CostModel::new(&arch);
        let vectorized = model.estimate(&program, &best_candidate(&program, &arch));
        let scalar_candidate =
            Synthesizer::new(&program, &arch, SynthesisOptions::scalar_fallback())
                .synthesize_preferred()
                .unwrap();
        let scalar = model.estimate(&program, &scalar_candidate);
        // The kernel is Tensor-Core bound, so the gap is bounded, but the
        // scalar data movement must still cost strictly more.
        assert!(vectorized.total_cycles * 1.2 < scalar.total_cycles);
        assert!(scalar.loop_iteration_cycles > vectorized.loop_iteration_cycles * 1.3);
    }

    #[test]
    fn per_op_attribution_covers_all_static_ops() {
        let arch = GpuArch::a100();
        let program = pipelined_gemm(2);
        let cost = CostModel::new(&arch).estimate(&program, &best_candidate(&program, &arch));
        assert_eq!(cost.per_op.len(), program.ops().len());
        assert!(cost.per_op.iter().all(|c| c.issue_cycles > 0.0));
        assert!(cost.micros(&arch) > 0.0);
    }

    #[test]
    fn candidate_cache_returns_bit_identical_estimates() {
        let arch = GpuArch::a100();
        let program = pipelined_gemm(2);
        let candidate = best_candidate(&program, &arch);
        let model = CostModel::new(&arch);
        let first = model.estimate(&program, &candidate);
        let cached = model.estimate(&program, &candidate);
        let fresh = CostModel::new(&arch).estimate(&program, &candidate);
        assert_eq!(first.total_cycles.to_bits(), cached.total_cycles.to_bits());
        assert_eq!(first, cached);
        assert_eq!(first, fresh);
        // Distinct candidates have distinct fingerprints.
        let scalar = Synthesizer::new(&program, &arch, SynthesisOptions::scalar_fallback())
            .synthesize_preferred()
            .unwrap();
        assert_ne!(
            candidate_fingerprint(&program, &candidate),
            candidate_fingerprint(&program, &scalar)
        );
    }

    #[test]
    fn rearranges_add_cost() {
        let arch = GpuArch::a100();
        let mut kb = KernelBuilder::new("two_gemms", 128);
        let q = kb.register_tensor("q", DType::F16, &[64, 64]);
        let k = kb.register_tensor("k", DType::F16, &[64, 64]);
        let v = kb.register_tensor("v", DType::F16, &[64, 64]);
        let s = kb.register_tensor("s", DType::F32, &[64, 64]);
        let o = kb.register_tensor("o", DType::F32, &[64, 64]);
        kb.fill(s, 0.0);
        kb.fill(o, 0.0);
        kb.gemm(s, q, k);
        let p = kb.cast(s, DType::F16);
        kb.gemm(o, p, v);
        let program = kb.build().unwrap();
        let candidate = best_candidate(&program, &arch);
        assert!(!candidate.rearranges.is_empty());
        let cost = CostModel::new(&arch).estimate(&program, &candidate);
        assert!(cost.rearrange_cycles > 0.0);
    }
}

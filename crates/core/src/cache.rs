//! A persistent, disk-backed kernel-artifact cache.
//!
//! Synthesizing a kernel is the expensive step of serving it: PRs 1–3 made a
//! *single* synthesis fast and parallel, but a vLLM-style deployment compiles
//! the same few dozen kernels on every process start. This module caches the
//! *result* of a compilation — the winning candidate's layouts, the lowered
//! program, the emitted pseudo-CUDA and the cost/perf breakdowns — keyed by a
//! **stable fingerprint** of everything that determines it:
//!
//! ```text
//! fingerprint = stable_hash(program structure, target GpuArch, CompilerOptions)
//! ```
//!
//! Options that are cross-checked to be bit-identical (the incremental
//! search, pruning, worker counts) deliberately do *not* participate, so
//! one artifact serves every execution configuration.
//!
//! Artifacts are stored as checksummed binary files (`<fingerprint>.hxa`,
//! see [`KernelArtifact::to_bytes`]) under a cache directory, with a
//! bounded in-memory front that keeps the most requested artifacts, so
//! their repeat lookups never touch the filesystem:
//! a [`FrequencySketch`] of every lookup decides which artifacts stay (see
//! [`KernelCache`]). The cache is
//! defensive: corrupt files, artifacts written by a different
//! [`ARTIFACT_VERSION`] and fingerprint mismatches are rejected (and moved
//! aside or deleted) so the caller re-synthesizes; every outcome is counted
//! in [`KernelCacheStats`].
//!
//! ```
//! use hexcute_arch::{DType, GpuArch};
//! use hexcute_core::{Compiler, KernelCache, KernelCacheConfig, ArtifactSource};
//! use hexcute_ir::KernelBuilder;
//! use hexcute_layout::Layout;
//!
//! let mut kb = KernelBuilder::new("cached_scale", 128);
//! let x = kb.global_view("x", DType::F32, Layout::row_major(&[64, 64]), &[64, 64]);
//! let y = kb.global_view("y", DType::F32, Layout::row_major(&[64, 64]), &[64, 64]);
//! let r = kb.register_tensor("r", DType::F32, &[64, 64]);
//! kb.copy(x, r);
//! kb.copy(r, y);
//! let program = kb.build()?;
//!
//! // A memory-only cache (no `dir`): the second compile is a cache hit and
//! // returns a bit-identical artifact.
//! let cache = KernelCache::new(KernelCacheConfig::default());
//! let compiler = Compiler::new(GpuArch::a100());
//! let (cold, source) = compiler.compile_with_cache(&program, &cache)?;
//! assert_eq!(source, ArtifactSource::Synthesized);
//! let (warm, source) = compiler.compile_with_cache(&program, &cache)?;
//! assert_eq!(source, ArtifactSource::Memory);
//! assert_eq!(*cold, *warm);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use hexcute_arch::GpuArch;
use hexcute_ir::Program;
use hexcute_parallel::cache::CacheStats;

use crate::compiler::{CompiledKernel, CompilerOptions};
use crate::faults::{FaultInjector, FaultKind};
use crate::json::{JsonError, JsonValue};

/// Version tag written into every artifact file. Bump it whenever the
/// artifact schema *or* the semantics of any serialized field change: files
/// carrying a different version are rejected on read and re-synthesized.
pub const ARTIFACT_VERSION: usize = 2;

// ---------------------------------------------------------------------------
// Stable fingerprints.
// ---------------------------------------------------------------------------

/// A [`Hasher`] with a fixed algorithm (FNV-1a over the byte stream), so
/// fingerprints are stable across processes and Rust versions — unlike
/// `DefaultHasher`, whose algorithm is unspecified. Multi-byte integer
/// writes follow the platform's native byte order, so fingerprints are
/// per-machine (which is all a local disk cache needs); [`ARTIFACT_VERSION`]
/// plus the fingerprint-match check on read guard everything else.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher {
            state: Self::FNV_OFFSET,
        }
    }

    /// Hashes the `{:?}` rendering of `value` exactly as
    /// `format!("{value:?}").hash(self)` would: the rendered bytes, then the
    /// `0xff` terminator that `str`'s `Hash` writes. The rendering streams
    /// into the hasher instead of being built as a `String` first.
    pub fn write_debug(&mut self, value: &impl fmt::Debug) {
        struct Sink<'h>(&'h mut StableHasher);
        impl fmt::Write for Sink<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        fmt::write(&mut Sink(self), format_args!("{value:?}"))
            .expect("the sink never fails, so only a broken Debug impl can");
        self.write_u8(0xff);
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The stable cache key for compiling `program` for `arch` under `options`.
///
/// The hash covers the full program structure (name, schedule, every tensor
/// declaration, every operation), the complete architecture model (so A100
/// and H100 artifacts never collide) and every result-affecting compiler
/// option (see [`SynthesisOptions::hash_stable`]). Execution-strategy
/// options that are cross-checked bit-for-bit — the incremental search,
/// pruning, worker counts — are excluded on purpose.
///
/// [`SynthesisOptions::hash_stable`]: hexcute_synthesis::SynthesisOptions::hash_stable
pub fn artifact_fingerprint(program: &Program, arch: &GpuArch, options: &CompilerOptions) -> u64 {
    fingerprint_with(program, |h| h.write_debug(arch), options)
}

/// [`artifact_fingerprint`] with the architecture hashed by `hash_arch`, so
/// a caller that keeps the architecture's `{:?}` rendering can hash those
/// bytes instead of formatting the architecture again.
pub(crate) fn fingerprint_with(
    program: &Program,
    hash_arch: impl FnOnce(&mut StableHasher),
    options: &CompilerOptions,
) -> u64 {
    let mut h = StableHasher::new();
    // Program structure. The grid participates: two programs differing only
    // in `grid_blocks` (e.g. the same tile kernel at two batch sizes, or two
    // grouped-GEMM problem lists with different routings) produce different
    // device-level performance reports, so they must not share an artifact.
    program.name.hash(&mut h);
    program.threads_per_block.hash(&mut h);
    program.grid_blocks.hash(&mut h);
    program.main_loop_trip_count.hash(&mut h);
    program.schedule.pipeline_stages.hash(&mut h);
    program.schedule.warp_specialized.hash(&mut h);
    for decl in program.tensors() {
        decl.id.hash(&mut h);
        decl.name.hash(&mut h);
        decl.dtype.hash(&mut h);
        decl.space.hash(&mut h);
        decl.shape.hash(&mut h);
        decl.global_layout.hash(&mut h);
    }
    for op in program.ops() {
        op.id.hash(&mut h);
        // `OpKind`'s debug rendering spells out the operation and its
        // operands deterministically; hashing it keeps this function
        // independent of per-variant field churn.
        h.write_debug(&op.kind);
        op.in_main_loop.hash(&mut h);
    }
    // Target architecture: the debug rendering covers every modelled
    // parameter (clocks, bandwidths, instruction catalog), so two arches
    // that would compile differently fingerprint differently.
    hash_arch(&mut h);
    // Compiler options.
    options.use_cost_model.hash(&mut h);
    options.synthesis.hash_stable(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// The artifact.
// ---------------------------------------------------------------------------

/// The synthesized shared-memory layout of one tensor, rendered stably.
#[derive(Debug, Clone, PartialEq)]
pub struct SmemLayoutRecord {
    /// Tensor name.
    pub tensor: String,
    /// Byte offset within dynamic shared memory.
    pub offset_bytes: usize,
    /// Allocation size in bytes.
    pub size_bytes: usize,
    /// The synthesized (possibly swizzled) layout, rendered via `Display`.
    pub layout: String,
}

/// The synthesized thread-value layout of one register tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct TvLayoutRecord {
    /// Tensor name.
    pub tensor: String,
    /// The thread-value layout, rendered via `Display`.
    pub layout: String,
}

/// One operation's slice of the cost breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCostRecord {
    /// Cycles the issuing warps are occupied.
    pub issue_cycles: f64,
    /// Cycles stalled waiting for in-flight producers.
    pub stall_cycles: f64,
    /// Cycles until the result is available after issuing.
    pub completion_cycles: f64,
}

/// The analytical cost breakdown of the winning candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRecord {
    /// Estimated cycles for one thread block.
    pub total_cycles: f64,
    /// Prologue cycles.
    pub prologue_cycles: f64,
    /// Cycles of one (pipelined) main-loop iteration.
    pub loop_iteration_cycles: f64,
    /// Epilogue cycles.
    pub epilogue_cycles: f64,
    /// Cycles charged to register-layout conversions.
    pub rearrange_cycles: f64,
    /// Per-operation attribution, in program order.
    pub per_op: Vec<OpCostRecord>,
}

/// The simulated device-level performance of the winning candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// End-to-end latency in microseconds.
    pub latency_us: f64,
    /// Cycles for one thread block including bank-conflict penalties.
    pub block_cycles: f64,
    /// DRAM-bound latency component.
    pub dram_us: f64,
    /// Tensor-Core-bound latency component.
    pub compute_us: f64,
    /// SM-execution latency component.
    pub sm_us: f64,
    /// Waves of thread blocks across the device.
    pub waves: usize,
    /// Extra cycles per block from shared-memory bank conflicts.
    pub bank_conflict_cycles: f64,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
}

/// A cached compilation result: everything downstream consumers (the
/// serving layer, code emission, reporting) need, without re-running
/// synthesis. Every field is a deterministic function of the fingerprint
/// inputs, so a cache hit is bit-identical to a fresh synthesis — enforced
/// by `crates/core/tests/artifact_cache.rs` across all four kernel families.
///
/// Wall-clock compile time is deliberately *not* part of the artifact: it
/// differs run to run and would break the bit-identical contract.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelArtifact {
    /// Schema version ([`ARTIFACT_VERSION`] at write time).
    pub version: usize,
    /// The cache key this artifact was stored under.
    pub fingerprint: u64,
    /// Kernel (program) name.
    pub kernel: String,
    /// Target architecture name.
    pub arch: String,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Blocks launched for the modelled problem.
    pub grid_blocks: usize,
    /// Main-loop trip count.
    pub main_loop_trip_count: usize,
    /// Software pipeline depth.
    pub pipeline_stages: usize,
    /// Whether the kernel is warp specialized.
    pub warp_specialized: bool,
    /// Total dynamic shared memory in bytes.
    pub smem_bytes: usize,
    /// Estimated 32-bit registers per thread.
    pub registers_per_thread: usize,
    /// Winning candidate's thread-value layouts (register tensors).
    pub tv_layouts: Vec<TvLayoutRecord>,
    /// Winning candidate's synthesized shared-memory layouts.
    pub smem_layouts: Vec<SmemLayoutRecord>,
    /// The lowered per-block instruction stream, one line per instruction.
    pub lowered: Vec<String>,
    /// The emitted pseudo-CUDA source.
    pub cuda: String,
    /// Analytical cost breakdown of the winner.
    pub cost: CostRecord,
    /// Simulated performance of the winner.
    pub perf: PerfRecord,
}

/// Why an artifact file or an artifact's JSON export could not be used.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The artifact file is damaged: not an artifact file at all, truncated,
    /// a checksum mismatch, a length or value out of bounds, or bytes left
    /// over after the last field.
    Corrupt {
        /// Byte offset of the first damaged field.
        offset: usize,
        /// What is wrong there.
        reason: &'static str,
    },
    /// The JSON export is not valid JSON (truncated, garbage).
    Json(JsonError),
    /// The JSON parses but does not match the artifact schema.
    Schema(String),
    /// The artifact was written by a different [`ARTIFACT_VERSION`].
    Version {
        /// The version found in the file.
        found: usize,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Corrupt { offset, reason } => {
                write!(f, "corrupt artifact file at byte {offset}: {reason}")
            }
            ArtifactError::Json(e) => write!(f, "corrupt artifact: {e}"),
            ArtifactError::Schema(msg) => write!(f, "artifact schema mismatch: {msg}"),
            ArtifactError::Version { found } => write!(
                f,
                "artifact version {found} != supported version {ARTIFACT_VERSION}"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<JsonError> for ArtifactError {
    fn from(e: JsonError) -> Self {
        ArtifactError::Json(e)
    }
}

fn schema_err(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Schema(msg.into())
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, ArtifactError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| schema_err(format!("missing or non-numeric `{key}`")))
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, ArtifactError> {
    v.get(key)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| schema_err(format!("missing or non-integral `{key}`")))
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, ArtifactError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| schema_err(format!("missing or non-string `{key}`")))
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, ArtifactError> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| schema_err(format!("missing or non-boolean `{key}`")))
}

fn get_arr<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], ArtifactError> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| schema_err(format!("missing or non-array `{key}`")))
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The first bytes of every artifact file.
const MAGIC: [u8; 4] = *b"HXA\0";

/// The extension of artifact files: `<fingerprint>.hxa`.
const ARTIFACT_EXTENSION: &str = "hxa";

/// The checksum sealing an artifact file. Each little-endian 8-byte word of
/// `bytes` (the last one zero-padded), then the length, is folded into the
/// sum by an xor, a multiply by an odd constant and a rotation. Each step
/// is a bijection of the sum and of the word, so changing any one word
/// always changes the result, and the length tells a file from its
/// zero-padded truncation.
fn checksum(bytes: &[u8]) -> u64 {
    let fold = |sum: u64, word: u64| {
        (sum ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    };
    let mut words = bytes.chunks_exact(8);
    let mut sum = (&mut words).fold(0, |sum, word| {
        fold(sum, u64::from_le_bytes(word.try_into().expect("8 bytes")))
    });
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0; 8];
        word[..tail.len()].copy_from_slice(tail);
        sum = fold(sum, u64::from_le_bytes(word));
    }
    fold(sum, bytes.len() as u64)
}

/// Writes the fields of an artifact file: integers as little-endian `u64`,
/// floats as their bits, booleans as one byte, strings and arrays as a
/// `u64` length followed by their contents.
struct ByteWriter(Vec<u8>);

impl ByteWriter {
    fn u64(&mut self, value: u64) {
        self.0.extend_from_slice(&value.to_le_bytes());
    }

    fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn bool(&mut self, value: bool) {
        self.0.push(u8::from(value));
    }

    fn str(&mut self, value: &str) {
        self.usize(value.len());
        self.0.extend_from_slice(value.as_bytes());
    }
}

/// Reads the fields [`ByteWriter`] wrote, checking each against the bytes
/// left before it takes or allocates anything.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn corrupt(offset: usize, reason: &'static str) -> ArtifactError {
        ArtifactError::Corrupt { offset, reason }
    }

    /// The next `len` bytes.
    fn take(&mut self, len: u64) -> Result<&'a [u8], ArtifactError> {
        let left = &self.bytes[self.pos..];
        match usize::try_from(len).ok().and_then(|len| left.get(..len)) {
            Some(taken) => {
                self.pos += taken.len();
                Ok(taken)
            }
            None => Err(Self::corrupt(self.pos, "runs past the end of the file")),
        }
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        let word = self.take(8)?;
        Ok(u64::from_le_bytes(word.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize, ArtifactError> {
        let at = self.pos;
        usize::try_from(self.u64()?).map_err(|_| Self::corrupt(at, "integer too large"))
    }

    fn f64(&mut self) -> Result<f64, ArtifactError> {
        self.u64().map(f64::from_bits)
    }

    fn bool(&mut self) -> Result<bool, ArtifactError> {
        match self.take(1)? {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(Self::corrupt(self.pos - 1, "boolean is neither 0 nor 1")),
        }
    }

    fn string(&mut self) -> Result<String, ArtifactError> {
        let at = self.pos;
        let len = self.u64()?;
        let bytes = self
            .take(len)
            .map_err(|_| Self::corrupt(at, "string runs past the end of the file"))?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| Self::corrupt(at, "string is not UTF-8"))
    }

    /// An array whose items `item` reads. Each item takes at least
    /// `min_len` bytes, so a count the bytes left cannot hold is an error
    /// before anything is allocated for it.
    fn array<T>(
        &mut self,
        min_len: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, ArtifactError>,
    ) -> Result<Vec<T>, ArtifactError> {
        let at = self.pos;
        let count = self.u64()?;
        let room = (self.bytes.len() - self.pos) / min_len;
        let count = usize::try_from(count)
            .ok()
            .filter(|&count| count <= room)
            .ok_or_else(|| Self::corrupt(at, "array runs past the end of the file"))?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(item(self)?);
        }
        Ok(items)
    }
}

impl KernelArtifact {
    /// Builds the artifact for a finished compilation. `fingerprint` must be
    /// the [`artifact_fingerprint`] of the inputs that produced `compiled`.
    pub fn from_compiled(fingerprint: u64, compiled: &CompiledKernel, arch: &GpuArch) -> Self {
        let program = &compiled.program;
        KernelArtifact {
            version: ARTIFACT_VERSION,
            fingerprint,
            kernel: program.name.clone(),
            arch: arch.name.clone(),
            threads_per_block: compiled.lowered.threads_per_block,
            grid_blocks: compiled.lowered.grid_blocks,
            main_loop_trip_count: compiled.lowered.main_loop_trip_count,
            pipeline_stages: compiled.lowered.pipeline_stages,
            warp_specialized: compiled.lowered.warp_specialized,
            smem_bytes: compiled.lowered.smem_bytes,
            registers_per_thread: compiled.lowered.registers_per_thread,
            tv_layouts: compiled
                .candidate
                .tv_layouts
                .iter()
                .map(|(id, tv)| TvLayoutRecord {
                    tensor: program.tensor(*id).name.clone(),
                    layout: tv.to_string(),
                })
                .collect(),
            smem_layouts: compiled
                .lowered
                .smem_allocs
                .iter()
                .map(|a| SmemLayoutRecord {
                    tensor: program.tensor(a.tensor).name.clone(),
                    offset_bytes: a.offset_bytes,
                    size_bytes: a.size_bytes,
                    layout: a.layout.to_string(),
                })
                .collect(),
            lowered: compiled.lowered.instruction_lines(program),
            cuda: compiled.cuda_source(),
            cost: CostRecord {
                total_cycles: compiled.cost.total_cycles,
                prologue_cycles: compiled.cost.prologue_cycles,
                loop_iteration_cycles: compiled.cost.loop_iteration_cycles,
                epilogue_cycles: compiled.cost.epilogue_cycles,
                rearrange_cycles: compiled.cost.rearrange_cycles,
                per_op: compiled
                    .cost
                    .per_op
                    .iter()
                    .map(|c| OpCostRecord {
                        issue_cycles: c.issue_cycles,
                        stall_cycles: c.stall_cycles,
                        completion_cycles: c.completion_cycles,
                    })
                    .collect(),
            },
            perf: PerfRecord {
                latency_us: compiled.perf.latency_us,
                block_cycles: compiled.perf.block_cycles,
                dram_us: compiled.perf.dram_us,
                compute_us: compiled.perf.compute_us,
                sm_us: compiled.perf.sm_us,
                waves: compiled.perf.waves,
                bank_conflict_cycles: compiled.perf.bank_conflict_cycles,
                launch_overhead_us: compiled.perf.launch_overhead_us,
            },
        }
    }

    /// The estimated kernel latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.perf.latency_us
    }

    /// Serializes the artifact as an artifact file, the cache's on-disk
    /// format: the magic bytes `HXA\0`, the `version`, then every other
    /// field in declaration order, and last a checksum of all the bytes
    /// before it. Integers (the version, counts and lengths included) are
    /// little-endian `u64`s, floats their IEEE 754 bits, `warp_specialized`
    /// one byte (0 or 1), a string its byte length and its UTF-8 bytes, and
    /// an array its length and its items. The checksum folds each
    /// little-endian 8-byte word (the last one zero-padded), then the
    /// length, into a `u64` with steps that are bijections of the running
    /// sum, so any change to one word changes it.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Room for the long strings and the rest of a typical artifact.
        let text = self.cuda.len() + self.lowered.iter().map(String::len).sum::<usize>();
        let mut w = ByteWriter(Vec::with_capacity(text + 4096));
        w.0.extend_from_slice(&MAGIC);
        w.usize(self.version);
        w.u64(self.fingerprint);
        w.str(&self.kernel);
        w.str(&self.arch);
        w.usize(self.threads_per_block);
        w.usize(self.grid_blocks);
        w.usize(self.main_loop_trip_count);
        w.usize(self.pipeline_stages);
        w.bool(self.warp_specialized);
        w.usize(self.smem_bytes);
        w.usize(self.registers_per_thread);
        w.usize(self.tv_layouts.len());
        for l in &self.tv_layouts {
            w.str(&l.tensor);
            w.str(&l.layout);
        }
        w.usize(self.smem_layouts.len());
        for l in &self.smem_layouts {
            w.str(&l.tensor);
            w.usize(l.offset_bytes);
            w.usize(l.size_bytes);
            w.str(&l.layout);
        }
        w.usize(self.lowered.len());
        for line in &self.lowered {
            w.str(line);
        }
        w.str(&self.cuda);
        let cost = &self.cost;
        for x in [
            cost.total_cycles,
            cost.prologue_cycles,
            cost.loop_iteration_cycles,
            cost.epilogue_cycles,
            cost.rearrange_cycles,
        ] {
            w.f64(x);
        }
        w.usize(cost.per_op.len());
        for op in &cost.per_op {
            w.f64(op.issue_cycles);
            w.f64(op.stall_cycles);
            w.f64(op.completion_cycles);
        }
        let perf = &self.perf;
        for x in [
            perf.latency_us,
            perf.block_cycles,
            perf.dram_us,
            perf.compute_us,
            perf.sm_us,
        ] {
            w.f64(x);
        }
        w.usize(perf.waves);
        w.f64(perf.bank_conflict_cycles);
        w.f64(perf.launch_overhead_us);
        let sum = checksum(&w.0);
        w.u64(sum);
        w.0
    }

    /// Reads an artifact file that [`KernelArtifact::to_bytes`] wrote. It
    /// never panics, and never allocates for a length or count that the
    /// bytes left cannot hold.
    ///
    /// # Errors
    ///
    /// In order of precedence: [`ArtifactError::Corrupt`] when the file
    /// does not start with the magic bytes and a version; [`ArtifactError::Version`]
    /// when it was written by a different [`ARTIFACT_VERSION`] (nothing
    /// after the version is read, so a later schema may change all of it);
    /// and [`ArtifactError::Corrupt`] when the checksum does not match, a
    /// field runs past the end, a string is not UTF-8, a boolean is neither
    /// 0 nor 1, or bytes are left over.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = ByteReader { bytes, pos: 0 };
        if r.take(MAGIC.len() as u64)? != MAGIC {
            return Err(ByteReader::corrupt(0, "not an artifact file"));
        }
        let version = r.u64()?;
        if version != ARTIFACT_VERSION as u64 {
            let found = usize::try_from(version).unwrap_or(usize::MAX);
            return Err(ArtifactError::Version { found });
        }
        let sealed = bytes
            .len()
            .checked_sub(8)
            .filter(|&sealed| sealed >= r.pos)
            .ok_or_else(|| ByteReader::corrupt(r.pos, "no checksum"))?;
        let (body, sum) = bytes.split_at(sealed);
        if checksum(body) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
            return Err(ByteReader::corrupt(sealed, "checksum mismatch"));
        }
        r.bytes = body;
        // Struct fields are read in the order they are written here, which
        // is the order `to_bytes` writes them in.
        let artifact = KernelArtifact {
            version: ARTIFACT_VERSION,
            fingerprint: r.u64()?,
            kernel: r.string()?,
            arch: r.string()?,
            threads_per_block: r.usize()?,
            grid_blocks: r.usize()?,
            main_loop_trip_count: r.usize()?,
            pipeline_stages: r.usize()?,
            warp_specialized: r.bool()?,
            smem_bytes: r.usize()?,
            registers_per_thread: r.usize()?,
            tv_layouts: r.array(16, |r| {
                Ok(TvLayoutRecord {
                    tensor: r.string()?,
                    layout: r.string()?,
                })
            })?,
            smem_layouts: r.array(32, |r| {
                Ok(SmemLayoutRecord {
                    tensor: r.string()?,
                    offset_bytes: r.usize()?,
                    size_bytes: r.usize()?,
                    layout: r.string()?,
                })
            })?,
            lowered: r.array(8, ByteReader::string)?,
            cuda: r.string()?,
            cost: CostRecord {
                total_cycles: r.f64()?,
                prologue_cycles: r.f64()?,
                loop_iteration_cycles: r.f64()?,
                epilogue_cycles: r.f64()?,
                rearrange_cycles: r.f64()?,
                per_op: r.array(24, |r| {
                    Ok(OpCostRecord {
                        issue_cycles: r.f64()?,
                        stall_cycles: r.f64()?,
                        completion_cycles: r.f64()?,
                    })
                })?,
            },
            perf: PerfRecord {
                latency_us: r.f64()?,
                block_cycles: r.f64()?,
                dram_us: r.f64()?,
                compute_us: r.f64()?,
                sm_us: r.f64()?,
                waves: r.usize()?,
                bank_conflict_cycles: r.f64()?,
                launch_overhead_us: r.f64()?,
            },
        };
        if r.pos != body.len() {
            return Err(ByteReader::corrupt(r.pos, "bytes after the last field"));
        }
        Ok(artifact)
    }

    /// Serializes the artifact as versioned JSON, the export format:
    /// assembles the whole artifact as a [`JsonValue`], then prints it, so
    /// members are written in sorted key order and floats in their
    /// shortest round-trip form. Non-finite floats print as `null`, which
    /// [`KernelArtifact::from_json`] rejects; the artifact file
    /// ([`KernelArtifact::to_bytes`]) keeps every bit.
    pub fn to_json(&self) -> String {
        let num = JsonValue::Num;
        let layouts = self
            .smem_layouts
            .iter()
            .map(|l| {
                obj(vec![
                    ("tensor", JsonValue::Str(l.tensor.clone())),
                    ("offset_bytes", num(l.offset_bytes as f64)),
                    ("size_bytes", num(l.size_bytes as f64)),
                    ("layout", JsonValue::Str(l.layout.clone())),
                ])
            })
            .collect();
        let tv = self
            .tv_layouts
            .iter()
            .map(|l| {
                obj(vec![
                    ("tensor", JsonValue::Str(l.tensor.clone())),
                    ("layout", JsonValue::Str(l.layout.clone())),
                ])
            })
            .collect();
        let per_op = self
            .cost
            .per_op
            .iter()
            .map(|c| {
                obj(vec![
                    ("issue_cycles", num(c.issue_cycles)),
                    ("stall_cycles", num(c.stall_cycles)),
                    ("completion_cycles", num(c.completion_cycles)),
                ])
            })
            .collect();
        obj(vec![
            ("version", num(self.version as f64)),
            (
                "fingerprint",
                JsonValue::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("kernel", JsonValue::Str(self.kernel.clone())),
            ("arch", JsonValue::Str(self.arch.clone())),
            ("threads_per_block", num(self.threads_per_block as f64)),
            ("grid_blocks", num(self.grid_blocks as f64)),
            (
                "main_loop_trip_count",
                num(self.main_loop_trip_count as f64),
            ),
            ("pipeline_stages", num(self.pipeline_stages as f64)),
            ("warp_specialized", JsonValue::Bool(self.warp_specialized)),
            ("smem_bytes", num(self.smem_bytes as f64)),
            (
                "registers_per_thread",
                num(self.registers_per_thread as f64),
            ),
            ("tv_layouts", JsonValue::Arr(tv)),
            ("smem_layouts", JsonValue::Arr(layouts)),
            (
                "lowered",
                JsonValue::Arr(
                    self.lowered
                        .iter()
                        .map(|l| JsonValue::Str(l.clone()))
                        .collect(),
                ),
            ),
            ("cuda", JsonValue::Str(self.cuda.clone())),
            (
                "cost",
                obj(vec![
                    ("total_cycles", num(self.cost.total_cycles)),
                    ("prologue_cycles", num(self.cost.prologue_cycles)),
                    (
                        "loop_iteration_cycles",
                        num(self.cost.loop_iteration_cycles),
                    ),
                    ("epilogue_cycles", num(self.cost.epilogue_cycles)),
                    ("rearrange_cycles", num(self.cost.rearrange_cycles)),
                    ("per_op", JsonValue::Arr(per_op)),
                ]),
            ),
            (
                "perf",
                obj(vec![
                    ("latency_us", num(self.perf.latency_us)),
                    ("block_cycles", num(self.perf.block_cycles)),
                    ("dram_us", num(self.perf.dram_us)),
                    ("compute_us", num(self.perf.compute_us)),
                    ("sm_us", num(self.perf.sm_us)),
                    ("waves", num(self.perf.waves as f64)),
                    ("bank_conflict_cycles", num(self.perf.bank_conflict_cycles)),
                    ("launch_overhead_us", num(self.perf.launch_overhead_us)),
                ]),
            ),
        ])
        .write()
    }

    /// Parses an artifact's JSON export: the whole document into a
    /// [`JsonValue`], then each field looked up. Members this schema does
    /// not know are skipped (the parse has validated them), and when a key
    /// appears twice, the last occurrence wins.
    ///
    /// # Errors
    ///
    /// In order of precedence: [`ArtifactError::Json`] for malformed JSON
    /// anywhere in the text; [`ArtifactError::Schema`] when `version` is
    /// missing or not a non-negative integer; [`ArtifactError::Version`]
    /// when the document was written by a different schema version; and
    /// [`ArtifactError::Schema`] when any other field is missing or
    /// mistyped.
    pub fn from_json(text: &str) -> Result<Self, ArtifactError> {
        let v = JsonValue::parse(text)?;
        let version = get_usize(&v, "version")?;
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::Version { found: version });
        }
        let fingerprint = u64::from_str_radix(&get_str(&v, "fingerprint")?, 16)
            .map_err(|_| schema_err("`fingerprint` is not a hex u64"))?;
        let tv_layouts = get_arr(&v, "tv_layouts")?
            .iter()
            .map(|l| {
                Ok(TvLayoutRecord {
                    tensor: get_str(l, "tensor")?,
                    layout: get_str(l, "layout")?,
                })
            })
            .collect::<Result<_, ArtifactError>>()?;
        let smem_layouts = get_arr(&v, "smem_layouts")?
            .iter()
            .map(|l| {
                Ok(SmemLayoutRecord {
                    tensor: get_str(l, "tensor")?,
                    offset_bytes: get_usize(l, "offset_bytes")?,
                    size_bytes: get_usize(l, "size_bytes")?,
                    layout: get_str(l, "layout")?,
                })
            })
            .collect::<Result<_, ArtifactError>>()?;
        let lowered = get_arr(&v, "lowered")?
            .iter()
            .map(|l| {
                l.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| schema_err("non-string `lowered` entry"))
            })
            .collect::<Result<_, ArtifactError>>()?;
        let cost_v = v.get("cost").ok_or_else(|| schema_err("missing `cost`"))?;
        let per_op = get_arr(cost_v, "per_op")?
            .iter()
            .map(|c| {
                Ok(OpCostRecord {
                    issue_cycles: get_f64(c, "issue_cycles")?,
                    stall_cycles: get_f64(c, "stall_cycles")?,
                    completion_cycles: get_f64(c, "completion_cycles")?,
                })
            })
            .collect::<Result<_, ArtifactError>>()?;
        let perf_v = v.get("perf").ok_or_else(|| schema_err("missing `perf`"))?;
        Ok(KernelArtifact {
            version,
            fingerprint,
            kernel: get_str(&v, "kernel")?,
            arch: get_str(&v, "arch")?,
            threads_per_block: get_usize(&v, "threads_per_block")?,
            grid_blocks: get_usize(&v, "grid_blocks")?,
            main_loop_trip_count: get_usize(&v, "main_loop_trip_count")?,
            pipeline_stages: get_usize(&v, "pipeline_stages")?,
            warp_specialized: get_bool(&v, "warp_specialized")?,
            smem_bytes: get_usize(&v, "smem_bytes")?,
            registers_per_thread: get_usize(&v, "registers_per_thread")?,
            tv_layouts,
            smem_layouts,
            lowered,
            cuda: get_str(&v, "cuda")?,
            cost: CostRecord {
                total_cycles: get_f64(cost_v, "total_cycles")?,
                prologue_cycles: get_f64(cost_v, "prologue_cycles")?,
                loop_iteration_cycles: get_f64(cost_v, "loop_iteration_cycles")?,
                epilogue_cycles: get_f64(cost_v, "epilogue_cycles")?,
                rearrange_cycles: get_f64(cost_v, "rearrange_cycles")?,
                per_op,
            },
            perf: PerfRecord {
                latency_us: get_f64(perf_v, "latency_us")?,
                block_cycles: get_f64(perf_v, "block_cycles")?,
                dram_us: get_f64(perf_v, "dram_us")?,
                compute_us: get_f64(perf_v, "compute_us")?,
                sm_us: get_f64(perf_v, "sm_us")?,
                waves: get_usize(perf_v, "waves")?,
                bank_conflict_cycles: get_f64(perf_v, "bank_conflict_cycles")?,
                launch_overhead_us: get_f64(perf_v, "launch_overhead_us")?,
            },
        })
    }
}

// ---------------------------------------------------------------------------
// The cache.
// ---------------------------------------------------------------------------

/// Where a served artifact came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactSource {
    /// Served from the in-memory front.
    Memory,
    /// Loaded (and validated) from the disk store.
    Disk,
    /// Freshly synthesized (a cache miss).
    Synthesized,
}

impl fmt::Display for ArtifactSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArtifactSource::Memory => "memory",
            ArtifactSource::Disk => "disk",
            ArtifactSource::Synthesized => "synthesized",
        })
    }
}

/// Configuration of a [`KernelCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCacheConfig {
    /// Directory for the persistent store. `None` (the default) keeps the
    /// cache memory-only. Point it at persistent storage so artifacts
    /// survive process restarts; it is created on first store.
    pub dir: Option<PathBuf>,
    /// Most in-memory artifacts resident at once (`0` counts as 1). When
    /// the tier is full, a fresh synthesis displaces the resident looked up
    /// least often recently, and a disk hit displaces it only if it was
    /// itself looked up more often, and more than once; otherwise the disk
    /// hit is served without entering memory (see [`FrequencySketch`]).
    /// There is nothing else to tune: the sketch's size and aging period
    /// follow from the capacity. Raise it if one
    /// process serves more hot kernels than this; an artifact is a few tens
    /// of KB.
    pub memory_capacity: usize,
    /// Maximum artifact files kept on disk; the oldest (by modification
    /// time) are pruned after each store.
    pub disk_capacity: usize,
    /// Consecutive disk-write failures that trip the circuit breaker into
    /// memory-only mode (reads and writes skip the disk tier). `0` disables
    /// the breaker. Lower it where failures are strongly correlated (a full
    /// disk stays full); raise it where transient write errors are common
    /// and harmless.
    pub breaker_threshold: usize,
    /// While the breaker is open, one probe write per interval tests whether
    /// the disk tier has recovered; a successful probe closes the breaker.
    /// A shorter interval recovers sooner at the cost of more attempts
    /// against a broken disk.
    pub breaker_probe_interval: Duration,
}

impl Default for KernelCacheConfig {
    fn default() -> Self {
        KernelCacheConfig {
            dir: None,
            memory_capacity: 256,
            disk_capacity: 1024,
            breaker_threshold: 8,
            breaker_probe_interval: Duration::from_millis(500),
        }
    }
}

// ---------------------------------------------------------------------------
// The disk-tier circuit breaker.
// ---------------------------------------------------------------------------

/// What the breaker allows a disk write to do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerDecision {
    /// Breaker closed: writes proceed normally.
    Closed,
    /// Breaker open, probe interval elapsed: this one write may test the
    /// disk tier; its outcome closes or re-arms the breaker.
    Probe,
    /// Breaker open: skip the disk tier (memory-only mode).
    Skip,
}

#[derive(Debug)]
struct BreakerState {
    consecutive_failures: usize,
    open: bool,
    last_probe: Option<Instant>,
}

/// A consecutive-failure circuit breaker over the disk store. Writes drive
/// it: `threshold` failures in a row open it (the cache degrades to
/// memory-only), after which one probe write per `probe_interval` tests for
/// recovery; any successful write closes it again.
#[derive(Debug)]
struct Breaker {
    threshold: usize,
    probe_interval: Duration,
    state: std::sync::Mutex<BreakerState>,
    trips: AtomicU64,
    recoveries: AtomicU64,
}

impl Breaker {
    fn new(threshold: usize, probe_interval: Duration) -> Self {
        Breaker {
            threshold,
            probe_interval,
            state: std::sync::Mutex::new(BreakerState {
                consecutive_failures: 0,
                open: false,
                last_probe: None,
            }),
            trips: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn is_open(&self) -> bool {
        self.lock().open
    }

    fn decide(&self) -> BreakerDecision {
        let mut s = self.lock();
        if !s.open {
            return BreakerDecision::Closed;
        }
        let now = Instant::now();
        match s.last_probe {
            Some(t) if now.duration_since(t) < self.probe_interval => BreakerDecision::Skip,
            _ => {
                s.last_probe = Some(now);
                BreakerDecision::Probe
            }
        }
    }

    fn success(&self) {
        let mut s = self.lock();
        s.consecutive_failures = 0;
        if s.open {
            s.open = false;
            s.last_probe = None;
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn failure(&self) {
        if self.threshold == 0 {
            return;
        }
        let mut s = self.lock();
        s.consecutive_failures += 1;
        if !s.open && s.consecutive_failures >= self.threshold {
            s.open = true;
            s.last_probe = Some(Instant::now());
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// The memory tier: a frequency-admitted map behind one lock.
// ---------------------------------------------------------------------------

/// Rows of a [`FrequencySketch`]; a key has one counter in each.
const SKETCH_ROWS: usize = 4;
/// Counters per row for each entry of the memory tier (rounded up to a
/// power of two).
const SKETCH_COUNTERS_PER_ENTRY: usize = 8;
/// Lookups between two halvings for each entry of the memory tier.
const SKETCH_PERIOD_PER_ENTRY: usize = 10;
/// A counter's ceiling: counters are 4 bits wide, sixteen to a word.
const SKETCH_MAX_COUNT: u64 = 15;

/// A count-min sketch of how often each key was looked up recently: the
/// admission filter of TinyLFU (Einziger, Friedman and Manes, "TinyLFU: A
/// Highly Efficient Cache Admission Policy", ACM TOS 2017).
///
/// A sketch sized for a tier of `capacity` entries has 4 rows of at least
/// `8 × capacity` 4-bit counters. A key increments one counter per row and
/// its estimate is the least of the four, so the sketch never under-counts
/// a key (until the counter saturates at 15); collisions can only
/// over-count. Every `10 × capacity` increments every counter is halved, so
/// estimates follow recent popularity, not the whole history.
///
/// ```
/// use hexcute_core::cache::FrequencySketch;
///
/// let mut sketch = FrequencySketch::new(16);
/// for _ in 0..3 {
///     sketch.increment(7);
/// }
/// assert!(sketch.estimate(7) >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct FrequencySketch {
    /// `SKETCH_ROWS` rows of `width / 16` words.
    words: Vec<u64>,
    /// Counters per row, a power of two.
    width: usize,
    /// Increments since the last halving.
    increments: usize,
    /// Increments between two halvings.
    period: usize,
}

impl FrequencySketch {
    /// A sketch for a memory tier of `capacity` entries (`0` counts as 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let width = (SKETCH_COUNTERS_PER_ENTRY * capacity)
            .next_power_of_two()
            .max(16);
        FrequencySketch {
            words: vec![0; SKETCH_ROWS * width / 16],
            width,
            increments: 0,
            period: SKETCH_PERIOD_PER_ENTRY * capacity,
        }
    }

    /// Increments between two halvings of every counter.
    pub fn period(&self) -> usize {
        self.period
    }

    /// The word and bit offset of `key`'s counter in `row`: a SplitMix64
    /// finalizer over the key salted by the row, masked to the row width.
    fn counter(&self, row: usize, key: u64) -> (usize, u32) {
        let mut z = key.wrapping_add((row as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let index = row * self.width + (z as usize & (self.width - 1));
        (index / 16, (index % 16) as u32 * 4)
    }

    /// Counts one lookup of `key`, then halves every counter if that ends
    /// the period.
    pub fn increment(&mut self, key: u64) {
        for row in 0..SKETCH_ROWS {
            let (word, shift) = self.counter(row, key);
            if (self.words[word] >> shift) & 0xf < SKETCH_MAX_COUNT {
                self.words[word] += 1 << shift;
            }
        }
        self.increments += 1;
        if self.increments == self.period {
            self.increments = 0;
            for word in &mut self.words {
                *word = (*word >> 1) & 0x7777_7777_7777_7777;
            }
        }
    }

    /// How often `key` was looked up recently: at least the true count
    /// since the last halving, capped at 15.
    pub fn estimate(&self, key: u64) -> u8 {
        (0..SKETCH_ROWS)
            .map(|row| {
                let (word, shift) = self.counter(row, key);
                ((self.words[word] >> shift) & 0xf) as u8
            })
            .min()
            .expect("the sketch has rows")
    }
}

/// The in-memory tier: at most `capacity` artifacts in one map behind one
/// lock, with a [`FrequencySketch`] of every lookup. When the tier is full
/// the victim is the resident with the lowest estimate (ties go to the
/// lowest fingerprint).
#[derive(Debug)]
struct MemoryTier {
    capacity: usize,
    state: std::sync::Mutex<TierState>,
}

#[derive(Debug)]
struct TierState {
    residents: HashMap<u64, Arc<KernelArtifact>>,
    sketch: FrequencySketch,
    hits: u64,
    misses: u64,
    evictions: u64,
    declined: u64,
}

impl MemoryTier {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        MemoryTier {
            capacity,
            state: std::sync::Mutex::new(TierState {
                residents: HashMap::with_capacity(capacity),
                sketch: FrequencySketch::new(capacity),
                hits: 0,
                misses: 0,
                evictions: 0,
                declined: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TierState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Counts a lookup of `fingerprint` and returns its resident artifact.
    fn get(&self, fingerprint: u64) -> Option<Arc<KernelArtifact>> {
        let mut state = self.lock();
        state.sketch.increment(fingerprint);
        let hit = state.residents.get(&fingerprint).cloned();
        match hit {
            Some(_) => state.hits += 1,
            None => state.misses += 1,
        }
        hit
    }

    /// Makes a fresh synthesis resident, displacing the victim if the tier
    /// is full.
    fn insert(&self, artifact: Arc<KernelArtifact>) {
        self.admit(artifact, false);
    }

    /// Makes a disk hit resident if there is room or its estimate beats both
    /// the victim's and 1; otherwise counts the promotion as declined.
    fn promote(&self, artifact: Arc<KernelArtifact>) {
        self.admit(artifact, true);
    }

    fn admit(&self, artifact: Arc<KernelArtifact>, by_frequency: bool) {
        let fingerprint = artifact.fingerprint;
        let mut guard = self.lock();
        let state = &mut *guard;
        if state.residents.len() >= self.capacity && !state.residents.contains_key(&fingerprint) {
            let (estimate, victim) = state
                .residents
                .keys()
                .map(|&key| (state.sketch.estimate(key), key))
                .min()
                .expect("a full tier has residents");
            // A disk hit must beat the victim, and one counted only once (by
            // this very lookup) never displaces a resident: one-off requests
            // are served from disk instead of churning the hot set.
            if by_frequency && state.sketch.estimate(fingerprint) <= estimate.max(1) {
                state.declined += 1;
                return;
            }
            state.residents.remove(&victim);
            state.evictions += 1;
        }
        state.residents.insert(fingerprint, artifact);
    }

    /// The tier's counters, and the promotions it declined.
    fn stats(&self) -> (CacheStats, u64) {
        let state = self.lock();
        let stats = CacheStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.residents.len(),
        };
        (stats, state.declined)
    }
}

/// Counters describing a [`KernelCache`]'s behaviour. Snapshot via
/// [`KernelCache::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelCacheStats {
    /// Hit/miss/eviction counters of the in-memory front (an eviction is a
    /// resident displaced by a newcomer).
    pub memory: CacheStats,
    /// Disk hits served without entering the full in-memory front, because
    /// they were not looked up more often recently than the resident they
    /// would have displaced, or only once.
    pub promotions_declined: u64,
    /// Artifacts served from the disk store.
    pub disk_hits: u64,
    /// Lookups that found no usable artifact file.
    pub disk_misses: u64,
    /// Files rejected as corrupt (damaged bytes or a fingerprint mismatch)
    /// and quarantined.
    pub corrupt: u64,
    /// Files rejected for carrying a different [`ARTIFACT_VERSION`], and
    /// `<fingerprint>.json` files of the earlier JSON file format, deleted.
    pub stale_version: u64,
    /// Artifacts written to disk.
    pub stores: u64,
    /// Files pruned by the disk-capacity bound.
    pub file_evictions: u64,
    /// Artifact files currently on disk (0 for memory-only caches).
    pub disk_entries: usize,
    /// Defective files renamed aside (`.quarantined`) for post-mortem
    /// inspection instead of being served.
    pub quarantined: u64,
    /// Disk writes that failed (I/O error or injected fault).
    pub write_failures: u64,
    /// Atomic-rename races lost to a concurrent writer of the same artifact
    /// (benign: the other writer's bit-identical file stands).
    pub rename_races: u64,
    /// Disk operations skipped because the circuit breaker was open.
    pub breaker_skips: u64,
    /// Times the breaker tripped into memory-only mode.
    pub breaker_trips: u64,
    /// Times a probe write closed the breaker again.
    pub breaker_recoveries: u64,
    /// Whether the breaker is open right now (disk tier bypassed).
    pub breaker_open: bool,
}

impl fmt::Display for KernelCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory: {}, {} promotions declined; disk: {} hits / {} misses, \
             {} stored, {} resident, {} corrupt, {} stale-version, {} pruned, \
             {} quarantined, {} write-failures, {} rename-races; \
             breaker: {} ({} trips, {} recoveries, {} skips)",
            self.memory,
            self.promotions_declined,
            self.disk_hits,
            self.disk_misses,
            self.stores,
            self.disk_entries,
            self.corrupt,
            self.stale_version,
            self.file_evictions,
            self.quarantined,
            self.write_failures,
            self.rename_races,
            if self.breaker_open { "open" } else { "closed" },
            self.breaker_trips,
            self.breaker_recoveries,
            self.breaker_skips
        )
    }
}

/// Whether `path` names an artifact file, `<fingerprint>.hxa`.
fn is_artifact_file(path: &Path) -> bool {
    path.extension().is_some_and(|x| x == ARTIFACT_EXTENSION)
}

/// Whether `path` names an artifact of the earlier JSON file format:
/// `<fingerprint>.json`, sixteen hex digits.
fn is_json_artifact_file(path: &Path) -> bool {
    path.extension().is_some_and(|x| x == "json")
        && path
            .file_stem()
            .and_then(|stem| stem.to_str())
            .is_some_and(|stem| stem.len() == 16 && stem.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// A persistent, disk-backed kernel-artifact cache with a bounded in-memory
/// front.
///
/// Lookups go memory → disk → miss. Every lookup is counted in a
/// [`FrequencySketch`], and the front keeps what is requested most: when it
/// is full, a disk hit is promoted only if it was looked up more often
/// recently than the least-requested resident, which it then displaces
/// (TinyLFU admission), and more than once, so one-off requests never
/// churn the hot set. A fresh synthesis always displaces that resident, so
/// the next request for it is a memory hit.
/// Artifacts are written crash-consistently (temp file, fsync, atomic
/// rename), so a concurrent reader never observes a partial file even across
/// power loss, and every defect a reader *can* observe (corruption, version
/// drift) is rejected and counted instead of surfacing as an error —
/// corrupt files are quarantined (renamed aside for post-mortem inspection)
/// and the caller just re-synthesizes. Persistent write failure trips a
/// circuit breaker into memory-only mode with probe-based recovery, and
/// a [`FaultInjector`] can be threaded through every disk path for chaos
/// testing. See the [module docs](self) for a usage example.
#[derive(Debug)]
pub struct KernelCache {
    config: KernelCacheConfig,
    memory: MemoryTier,
    faults: Option<Arc<FaultInjector>>,
    breaker: Breaker,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    corrupt: AtomicU64,
    stale_version: AtomicU64,
    stores: AtomicU64,
    file_evictions: AtomicU64,
    quarantined: AtomicU64,
    write_failures: AtomicU64,
    rename_races: AtomicU64,
    breaker_skips: AtomicU64,
}

impl KernelCache {
    /// Creates a fault-free cache with the given configuration. The cache
    /// directory is created lazily on first store.
    pub fn new(config: KernelCacheConfig) -> Self {
        Self::with_faults(config, None)
    }

    /// Creates a cache whose disk tier draws faults from `faults` (`None`
    /// is the same as [`KernelCache::new`]).
    pub fn with_faults(config: KernelCacheConfig, faults: Option<Arc<FaultInjector>>) -> Self {
        let memory = MemoryTier::new(config.memory_capacity);
        let breaker = Breaker::new(config.breaker_threshold, config.breaker_probe_interval);
        KernelCache {
            config,
            memory,
            faults,
            breaker,
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            stale_version: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            file_evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            rename_races: AtomicU64::new(0),
            breaker_skips: AtomicU64::new(0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &KernelCacheConfig {
        &self.config
    }

    /// The on-disk path an artifact with this fingerprint is stored at
    /// (`None` for memory-only caches).
    pub fn artifact_path(&self, fingerprint: u64) -> Option<PathBuf> {
        self.config
            .dir
            .as_ref()
            .map(|d| d.join(format!("{fingerprint:016x}.{ARTIFACT_EXTENSION}")))
    }

    /// Looks up an artifact: the in-memory front first, then the disk store.
    /// A disk hit is promoted into memory if there is room or it beats the
    /// least-requested resident (see [`KernelCache`]); a defective file
    /// (corrupt, wrong version, wrong fingerprint) is moved aside or deleted
    /// and counted, and the lookup reports a miss so the caller
    /// re-synthesizes.
    pub fn get(&self, fingerprint: u64) -> Option<(Arc<KernelArtifact>, ArtifactSource)> {
        if let Some(hit) = self.memory.get(fingerprint) {
            return Some((hit, ArtifactSource::Memory));
        }
        let path = self.artifact_path(fingerprint)?;
        if self.breaker.is_open() {
            // Memory-only mode: the disk tier is misbehaving, don't touch it
            // on the read path (probes happen on writes).
            self.breaker_skips.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match self.load(&path, fingerprint) {
            Some(artifact) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                let artifact = Arc::new(artifact);
                self.memory.promote(artifact.clone());
                Some((artifact, ArtifactSource::Disk))
            }
            None => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn load(&self, path: &Path, fingerprint: u64) -> Option<KernelArtifact> {
        // Open before the injected I/O delay: a miss (no file) must stay
        // as cheap under a fault schedule as without one.
        let mut file = std::fs::File::open(path).ok()?;
        if let Some(f) = &self.faults {
            f.io_delay();
        }
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).ok()?;
        let parsed = match &self.faults {
            Some(f) if f.should(FaultKind::DiskReadCorrupt) => {
                KernelArtifact::from_bytes(&f.corrupt_bytes(&bytes))
            }
            Some(f) if f.should(FaultKind::StaleVersion) => Err(ArtifactError::Version {
                found: ARTIFACT_VERSION + 1,
            }),
            _ => KernelArtifact::from_bytes(&bytes),
        };
        match parsed {
            Ok(artifact) if artifact.fingerprint == fingerprint => Some(artifact),
            Ok(_) => {
                // A file whose content disagrees with its name: treat as
                // corruption (e.g. a hand-copied or bit-flipped file).
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.quarantine(path);
                None
            }
            Err(ArtifactError::Version { .. }) => {
                // Version drift is expected across upgrades, not worth a
                // post-mortem: delete rather than quarantine.
                self.stale_version.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(path);
                None
            }
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.quarantine(path);
                None
            }
        }
    }

    /// Moves a defective artifact file aside as `<fingerprint>.quarantined`
    /// so it can never be served again but survives for inspection. Falls
    /// back to deletion if the rename fails; either way the `.hxa` name is
    /// free for the re-synthesized replacement.
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        let aside = path.with_extension("quarantined");
        if std::fs::rename(path, &aside).is_err() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Inserts an artifact into the memory front, displacing the
    /// least-requested resident if it is full, and (when a directory is
    /// configured) the disk store. Disk writes are crash-consistent — temp
    /// file, fsync, atomic rename — and filesystem failures degrade to a
    /// memory-only insert rather than an error: the cache is an accelerator,
    /// not a dependency. Enough consecutive write failures trip the circuit
    /// breaker, after which the disk tier is skipped entirely except for one
    /// probe write per probe interval.
    pub fn insert(&self, artifact: Arc<KernelArtifact>) {
        let fingerprint = artifact.fingerprint;
        self.memory.insert(artifact.clone());
        let Some(path) = self.artifact_path(fingerprint) else {
            return;
        };
        if self.breaker.decide() == BreakerDecision::Skip {
            self.breaker_skips.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let dir = path.parent().expect("artifact path has a parent");
        if std::fs::create_dir_all(dir).is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            self.breaker.failure();
            return;
        }
        // The counter keeps concurrent writers of the *same* fingerprint in
        // one process from sharing a temp file.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            "{fingerprint:016x}.tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if let Some(f) = &self.faults {
            f.io_delay();
        }
        let bytes = artifact.to_bytes();
        let injected_fail = self
            .faults
            .as_ref()
            .is_some_and(|f| f.should(FaultKind::DiskWriteFail));
        let written = if injected_fail {
            // Simulate ENOSPC mid-write: leave a truncated temp file behind,
            // then report failure. The rename never happens, so readers
            // never see the partial content.
            let _ = std::fs::write(&tmp, &bytes[..bytes.len() / 2]);
            false
        } else {
            Self::write_durable(&tmp, &bytes).is_ok()
        };
        if !written {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            self.breaker.failure();
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        match std::fs::rename(&tmp, &path) {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                self.breaker.success();
                self.prune(dir);
            }
            Err(_) if path.exists() => {
                // Lost an atomic-rename race: a concurrent writer landed its
                // (bit-identical) file first. Benign — count and move on.
                self.rename_races.fetch_add(1, Ordering::Relaxed);
                self.breaker.success();
                let _ = std::fs::remove_file(&tmp);
            }
            Err(_) => {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
                self.breaker.failure();
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    /// Writes `bytes` and fsyncs before returning, so the subsequent rename
    /// never publishes a file whose content could still be lost to a crash.
    fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        let mut file = std::fs::File::create(path)?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    /// Enforces the disk-capacity bound by deleting the oldest artifact
    /// files (by modification time), deletes the `<fingerprint>.json`
    /// artifacts of the earlier JSON file format (counted as
    /// `stale_version`, like any artifact of another schema), and sweeps up
    /// temp files orphaned by crashed writers (a live write is younger than
    /// a minute — it is a single write + rename — so old stragglers are safe
    /// to delete). This runs after every store, so it counts artifact files
    /// by name and stats them only when there are more than the bound; only
    /// the debris is statted on every run, for its age.
    fn prune(&self, dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let modified = |entry: &std::fs::DirEntry| entry.metadata().and_then(|m| m.modified());
        let mut artifacts = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if is_artifact_file(&path) {
                artifacts.push(entry);
            } else if is_json_artifact_file(&path) {
                if std::fs::remove_file(&path).is_ok() {
                    self.stale_version.fetch_add(1, Ordering::Relaxed);
                }
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp-") || n.ends_with(".quarantined"))
                && modified(&entry).is_ok_and(|modified| {
                    SystemTime::now()
                        .duration_since(modified)
                        .is_ok_and(|age| age >= Duration::from_secs(60))
                })
            {
                // Orphaned temp files and inspected quarantine debris: both
                // are invisible to lookups; sweep once they are stale.
                let _ = std::fs::remove_file(&path);
            }
        }
        if artifacts.len() <= self.config.disk_capacity {
            return;
        }
        // A file that vanished since the listing no longer counts.
        let mut files: Vec<(SystemTime, PathBuf)> = artifacts
            .iter()
            .filter_map(|entry| Some((modified(entry).ok()?, entry.path())))
            .collect();
        if files.len() <= self.config.disk_capacity {
            return;
        }
        files.sort_by_key(|(modified, _)| *modified);
        let excess = files.len() - self.config.disk_capacity;
        for (_, path) in files.into_iter().take(excess) {
            if std::fs::remove_file(path).is_ok() {
                self.file_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of artifact files currently on disk (0 for memory-only).
    pub fn disk_entries(&self) -> usize {
        let Some(dir) = self.config.dir.as_ref() else {
            return 0;
        };
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| is_artifact_file(&e.path()))
                    .count()
            })
            .unwrap_or(0)
    }

    /// A snapshot of every counter plus the current disk occupancy.
    pub fn stats(&self) -> KernelCacheStats {
        let (memory, promotions_declined) = self.memory.stats();
        KernelCacheStats {
            memory,
            promotions_declined,
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stale_version: self.stale_version.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            file_evictions: self.file_evictions.load(Ordering::Relaxed),
            disk_entries: self.disk_entries(),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            rename_races: self.rename_races.load(Ordering::Relaxed),
            breaker_skips: self.breaker_skips.load(Ordering::Relaxed),
            breaker_trips: self.breaker.trips.load(Ordering::Relaxed),
            breaker_recoveries: self.breaker.recoveries.load(Ordering::Relaxed),
            breaker_open: self.breaker.is_open(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hasher_is_deterministic_and_sensitive() {
        let mut a = StableHasher::new();
        "hello".hash(&mut a);
        42usize.hash(&mut a);
        let mut b = StableHasher::new();
        "hello".hash(&mut b);
        42usize.hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        "hellp".hash(&mut c);
        42usize.hash(&mut c);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn config_defaults_are_memory_only() {
        let config = KernelCacheConfig::default();
        assert!(config.dir.is_none());
        let cache = KernelCache::new(config);
        assert!(cache.get(123).is_none());
        assert_eq!(cache.artifact_path(123), None);
        assert_eq!(cache.stats().disk_entries, 0);
    }
}

//! The artifact codecs: the binary artifact file the cache stores, and the
//! JSON export.
//!
//! `KernelArtifact::to_bytes` writes the cache's `<fingerprint>.hxa` files
//! and `from_bytes` reads them. The two round-trip every family's artifact
//! bit for bit, also when its strings hold quotes, backslashes, control and
//! non-ASCII characters and its floats are `-0.0`, subnormal, huge, NaN
//! (with payloads) or infinite. A damaged file is always a typed
//! `ArtifactError`, never a panic: every truncation, every single-byte
//! substitution, and lengths and counts past the end of the file, which are
//! rejected before anything is allocated for them. The variant is what the
//! cache acts on: `Corrupt` quarantines the file, `Version` deletes it.
//!
//! `KernelArtifact::{to_json, from_json}` are the export format. Their
//! tests pin the contract the cache's JSON decoder was held to while the
//! cache stored JSON: every truncation is a `Json` error; a syntax error
//! anywhere beats version drift, and version drift beats any other schema
//! error; the last of two duplicate keys wins; escaped keys decode to their
//! names; unknown members are validated, then skipped; and `-0`, `-0.0`
//! and exponent spellings read as the numbers they spell. Each group also
//! checks that its mutations produce the outcomes they are meant to, so a
//! mutation that silently stopped applying would show.
//!
//! The last group checks that `StableHasher::write_debug`, which streams a
//! `{:?}` rendering into the fingerprint hasher, feeds it exactly the bytes
//! that formatting to a `String` and hashing that would.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use hexcute_arch::{DType, GpuArch};
use hexcute_core::{
    artifact_fingerprint, ArtifactError, Compiler, CompilerOptions, KernelArtifact, StableHasher,
    ARTIFACT_VERSION,
};
use hexcute_ir::{ElementwiseOp, KernelBuilder, OpKind, Program, ReduceOp, TensorId};
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{
    fp16_gemm, fp8_blockwise_gemm, warp_specialized_gemm, GemmConfig, GemmShape,
};
use hexcute_kernels::grouped_gemm::{grouped_gemm, GroupedGemmConfig, GroupedGemmShape};
use hexcute_kernels::mamba::{selective_scan, ScanConfig, ScanShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_kernels::quant_gemm::{w4a16_gemm, QuantGemmConfig, QuantGemmShape};
use proptest::prelude::*;

/// The system allocator, recording the largest single allocation each
/// thread makes, so a test can see what one decode asked for.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// One program of each of the eight workload families, on an architecture
/// that supports it.
fn family_programs() -> Vec<(&'static str, Program, GpuArch)> {
    let (a100, h100) = (GpuArch::a100(), GpuArch::h100());
    vec![
        (
            "gemm",
            fp16_gemm(GemmShape::new(128, 128, 128), GemmConfig::default()).unwrap(),
            a100.clone(),
        ),
        (
            "warp_specialized_gemm",
            warp_specialized_gemm(
                GemmShape::new(512, 512, 256),
                GemmConfig::warp_specialized_hopper(),
            )
            .unwrap(),
            h100.clone(),
        ),
        (
            "fp8_gemm",
            fp8_blockwise_gemm(GemmShape::new(512, 512, 256), GemmConfig::default()).unwrap(),
            h100.clone(),
        ),
        (
            "attention",
            mha_forward(
                AttentionShape::forward(1, 2, 128, 64),
                AttentionConfig::default(),
            )
            .unwrap(),
            a100.clone(),
        ),
        (
            "moe",
            mixed_type_moe(
                MoeShape::deepseek_r1(4),
                MoeConfig::default(),
                MoeDataflow::Efficient,
            )
            .unwrap(),
            h100.clone(),
        ),
        (
            "mamba",
            selective_scan(ScanShape::new(1, 512, 16, 256), ScanConfig::default()).unwrap(),
            a100,
        ),
        (
            "quant_gemm",
            w4a16_gemm(
                QuantGemmShape::new(16, 128, 256, 64),
                QuantGemmConfig::default(),
            )
            .unwrap(),
            h100.clone(),
        ),
        (
            "grouped_gemm",
            grouped_gemm(
                &GroupedGemmShape::from_token_counts(vec![16, 0, 5, 32], 256, 512),
                GroupedGemmConfig::default(),
            )
            .unwrap(),
            h100,
        ),
    ]
}

/// The artifact of every family, compiled once per test binary.
fn artifacts() -> &'static [(&'static str, KernelArtifact)] {
    static ARTIFACTS: OnceLock<Vec<(&'static str, KernelArtifact)>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        family_programs()
            .into_iter()
            .map(|(family, program, arch)| {
                let artifact = Compiler::new(arch)
                    .compile_artifact(&program)
                    .unwrap_or_else(|e| panic!("{family}: compilation failed: {e}"));
                (family, artifact)
            })
            .collect()
    })
}

/// The JSON export of every family's artifact.
fn documents() -> &'static [(&'static str, String)] {
    static DOCS: OnceLock<Vec<(&'static str, String)>> = OnceLock::new();
    DOCS.get_or_init(|| {
        artifacts()
            .iter()
            .map(|(family, artifact)| (*family, artifact.to_json()))
            .collect()
    })
}

/// The artifact whose file is smallest, and that file.
fn smallest_file() -> (&'static str, &'static KernelArtifact, Vec<u8>) {
    artifacts()
        .iter()
        .map(|(family, artifact)| (*family, artifact, artifact.to_bytes()))
        .min_by_key(|(_, _, bytes)| bytes.len())
        .unwrap()
}

// ---------------------------------------------------------------------------
// The artifact file.
// ---------------------------------------------------------------------------

/// Strings that exercise every escaping rule of the export and multi-byte
/// characters.
const HOSTILE_STRINGS: &[&str] = &[
    "",
    "\"quoted\"",
    "back\\slash\\",
    "\\\"",
    "line\nbreak\ttab\rreturn",
    "\u{0}\u{1}\u{8}\u{c}\u{1b}\u{1f} controls",
    "\u{7f} delete is not a control",
    "non-ASCII: é ß 中文 🚀 \u{2028}",
    "🚀\"🚀\\🚀\n",
];

/// Floats at the edges of the encodings: signed zeros, subnormals, huge
/// values, NaNs with payloads and both infinities.
const EDGE_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    5e-324,
    f64::from_bits(0x000f_ffff_ffff_ffff),
    f64::MIN_POSITIVE,
    1e-300,
    0.1,
    -1.5e17,
    1e21,
    1.7976931348623157e308,
    -f64::MAX,
    f64::NAN,
    f64::from_bits(0x7ff0_0000_0000_0001),
    f64::from_bits(0xfff8_dead_beef_0001),
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Sets every float field of `artifact` to `x`.
fn set_floats(artifact: &mut KernelArtifact, x: f64) {
    let cost = &mut artifact.cost;
    for field in [
        &mut cost.total_cycles,
        &mut cost.prologue_cycles,
        &mut cost.loop_iteration_cycles,
        &mut cost.epilogue_cycles,
        &mut cost.rearrange_cycles,
    ] {
        *field = x;
    }
    for op in &mut cost.per_op {
        (op.issue_cycles, op.stall_cycles, op.completion_cycles) = (x, -x, x / 3.0);
    }
    let perf = &mut artifact.perf;
    for field in [
        &mut perf.latency_us,
        &mut perf.block_cycles,
        &mut perf.dram_us,
        &mut perf.compute_us,
        &mut perf.sm_us,
        &mut perf.bank_conflict_cycles,
        &mut perf.launch_overhead_us,
    ] {
        *field = x;
    }
}

/// Puts `text` into every string field of `artifact`, in front of what
/// the field held.
fn set_strings(artifact: &mut KernelArtifact, text: &str) {
    let prefix = |field: &mut String| field.insert_str(0, text);
    prefix(&mut artifact.kernel);
    prefix(&mut artifact.arch);
    prefix(&mut artifact.cuda);
    artifact.lowered.iter_mut().for_each(prefix);
    artifact.lowered.push(text.to_string());
    for record in &mut artifact.tv_layouts {
        prefix(&mut record.tensor);
        prefix(&mut record.layout);
    }
    for record in &mut artifact.smem_layouts {
        prefix(&mut record.tensor);
        prefix(&mut record.layout);
    }
}

/// The bits of every float field of `artifact`, in declaration order.
fn float_bits(artifact: &KernelArtifact) -> Vec<u64> {
    let (cost, perf) = (&artifact.cost, &artifact.perf);
    let mut floats = vec![
        cost.total_cycles,
        cost.prologue_cycles,
        cost.loop_iteration_cycles,
        cost.epilogue_cycles,
        cost.rearrange_cycles,
    ];
    for op in &cost.per_op {
        floats.extend([op.issue_cycles, op.stall_cycles, op.completion_cycles]);
    }
    floats.extend([
        perf.latency_us,
        perf.block_cycles,
        perf.dram_us,
        perf.compute_us,
        perf.sm_us,
        perf.bank_conflict_cycles,
        perf.launch_overhead_us,
    ]);
    floats.into_iter().map(f64::to_bits).collect()
}

/// Asserts that `decoded` equals `original` bit for bit: every float has
/// the same bits (which `==` cannot tell for NaN and `-0.0`) and every
/// other field is equal.
fn assert_bit_identical(decoded: &KernelArtifact, original: &KernelArtifact, label: &str) {
    assert_eq!(float_bits(decoded), float_bits(original), "{label}: floats");
    let (mut decoded, mut original) = (decoded.clone(), original.clone());
    set_floats(&mut decoded, 0.0);
    set_floats(&mut original, 0.0);
    assert_eq!(decoded, original, "{label}: fields");
}

/// Seals `body` as an artifact file: appends its checksum, computed by the
/// definition, one zero-padded 8-byte word at a time and then the length,
/// each folded in as `(sum ^ word) * 0x9E37_79B9_7F4A_7C15`, rotated left
/// by 29.
fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    let sum = body
        .chunks(8)
        .map(|chunk| {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(word)
        })
        .chain([body.len() as u64])
        .fold(0u64, |sum, word| {
            (sum ^ word)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(29)
        });
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

#[test]
fn artifacts_of_every_family_decode_identically() {
    assert_eq!(artifacts().len(), 8, "one artifact per workload family");
    for (family, artifact) in artifacts() {
        let bytes = artifact.to_bytes();
        let decoded = KernelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(&decoded, artifact, "{family}: file round trip");
        assert_eq!(decoded.to_bytes(), bytes, "{family}: file re-encoding");
        // The file ends in the checksum of everything before it.
        assert_eq!(sealed(bytes[..bytes.len() - 8].to_vec()), bytes, "{family}");
        let json = artifact.to_json();
        let imported = KernelArtifact::from_json(&json).unwrap();
        assert_eq!(&imported, artifact, "{family}: JSON round trip");
        assert_eq!(imported.to_json(), json, "{family}: JSON re-export");
        println!("{family}: {} B file, {} B JSON", bytes.len(), json.len());
    }
}

#[test]
fn bytes_round_trip_bit_identically_for_every_family() {
    let mut cases = 0;
    for (family, artifact) in artifacts() {
        let mut variants = vec![(family.to_string(), artifact.clone())];
        for (i, text) in HOSTILE_STRINGS.iter().enumerate() {
            let mut variant = artifact.clone();
            set_strings(&mut variant, text);
            variants.push((format!("{family} string #{i}"), variant));
        }
        for &x in EDGE_FLOATS {
            let mut variant = artifact.clone();
            set_floats(&mut variant, x);
            variants.push((format!("{family} float {:#018x}", x.to_bits()), variant));
        }
        let mut empty = artifact.clone();
        empty.tv_layouts.clear();
        empty.smem_layouts.clear();
        empty.lowered.clear();
        empty.cost.per_op.clear();
        empty.cuda.clear();
        (empty.grid_blocks, empty.smem_bytes, empty.fingerprint) = (usize::MAX, 0, u64::MAX);
        empty.warp_specialized = !empty.warp_specialized;
        variants.push((format!("{family} empty"), empty));
        for (label, variant) in &variants {
            let bytes = variant.to_bytes();
            let decoded = KernelArtifact::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{label}: decoding failed: {e}"));
            assert_bit_identical(&decoded, variant, label);
            assert_eq!(decoded.to_bytes(), bytes, "{label}: re-encoding");
        }
        cases += variants.len();
    }
    println!("{cases} artifacts round-tripped bit for bit");
}

/// The string `codes` spell: three in four pick an ASCII character
/// (quotes, backslashes and controls included), the rest any code point.
fn text_of(codes: &[u32]) -> String {
    codes
        .iter()
        .map(|&code| match code % 4 {
            0 => char::from_u32(code / 4).unwrap_or(char::REPLACEMENT_CHARACTER),
            _ => char::from((code / 4 % 0x80) as u8),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated strings and float bit patterns round-trip bit for bit.
    #[test]
    fn bytes_round_trip_generated_strings_and_floats(
        family in 0usize..8,
        codes in collection::vec(0u32..0x44_0000, 0..24),
        bits in 0u64..=u64::MAX,
    ) {
        let mut artifact = artifacts()[family].1.clone();
        set_strings(&mut artifact, &text_of(&codes));
        set_floats(&mut artifact, f64::from_bits(bits));
        let bytes = artifact.to_bytes();
        let decoded = KernelArtifact::from_bytes(&bytes);
        prop_assert!(decoded.is_ok(), "{:?}", decoded.err());
        let decoded = decoded.unwrap();
        prop_assert_eq!(float_bits(&decoded), float_bits(&artifact));
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    // The artifact file: every proper prefix of every family's file is
    // corrupt, wherever it ends (header, field, checksum).
    for (family, artifact) in artifacts() {
        let bytes = artifact.to_bytes();
        for end in 0..bytes.len() {
            let outcome = KernelArtifact::from_bytes(&bytes[..end]).map(|_| ());
            assert!(
                matches!(outcome, Err(ArtifactError::Corrupt { .. })),
                "{family}: truncated at {end} of {}: {outcome:?}",
                bytes.len()
            );
        }
    }
    // The JSON export: every prefix shorter than the document proper is a
    // syntax error; the ones that only drop trailing whitespace are the
    // whole artifact.
    let doc = documents()
        .iter()
        .map(|(_, doc)| doc.as_str())
        .min_by_key(|doc| doc.len())
        .unwrap();
    let complete = doc.trim_end().len();
    let mut tally = BTreeMap::new();
    for end in (0..doc.len()).filter(|&end| doc.is_char_boundary(end)) {
        let kind = verdict(&doc[..end], doc).kind();
        let expected = if end < complete { "json" } else { "same" };
        assert_eq!(kind, expected, "JSON truncated at {end} of {}", doc.len());
        *tally.entry(kind).or_insert(0) += 1;
    }
    println!("JSON truncations: {tally:?}");
}

#[test]
fn single_byte_substitutions_give_typed_errors() {
    // Every value at every byte of a miniature of the smallest artifact: one
    // item in each array and the first line of its CUDA source. A wrong
    // magic number is corrupt at byte 0; a changed version is version
    // drift, found before the checksum is read; any other change fails the
    // checksum.
    let (family, artifact, _) = smallest_file();
    let mut miniature = artifact.clone();
    miniature.tv_layouts.truncate(1);
    miniature.smem_layouts.truncate(1);
    miniature.lowered.truncate(1);
    miniature.cost.per_op.truncate(1);
    miniature.cuda = miniature.cuda.lines().next().unwrap_or("").to_string();
    let bytes = miniature.to_bytes();
    let sealed_at = bytes.len() - 8;
    let mut mutated = bytes.clone();
    let mut tally = BTreeMap::new();
    for at in 0..bytes.len() {
        for value in (0..=255u8).filter(|&value| value != bytes[at]) {
            mutated[at] = value;
            let version = u64::from_le_bytes(mutated[4..12].try_into().unwrap());
            let outcome = KernelArtifact::from_bytes(&mutated).map(|_| ());
            let expected = match (at, &outcome) {
                (0..4, Err(ArtifactError::Corrupt { offset: 0, .. })) => "magic",
                (4..12, Err(ArtifactError::Version { found })) if *found as u64 == version => {
                    "version"
                }
                (12.., Err(ArtifactError::Corrupt { offset, .. })) if *offset == sealed_at => {
                    "checksum"
                }
                _ => panic!("{family}: byte {at} set to {value:#04x}: {outcome:?}"),
            };
            *tally.entry(expected).or_insert(0) += 1;
            mutated[at] = bytes[at];
        }
    }
    println!(
        "{family} miniature: {} bytes, substitutions {tally:?}",
        bytes.len()
    );
    // Every family: one substitution at every byte, flipping the low bit,
    // the high bit or all eight in turn.
    for (family, artifact) in artifacts() {
        let bytes = artifact.to_bytes();
        let mut mutated = bytes.clone();
        for at in 0..bytes.len() {
            let flip = [0x01, 0x80, 0xff][at % 3];
            mutated[at] ^= flip;
            let outcome = KernelArtifact::from_bytes(&mutated).map(|_| ());
            assert!(
                matches!(
                    outcome,
                    Err(ArtifactError::Corrupt { .. } | ArtifactError::Version { .. })
                ),
                "{family}: byte {at} ^ {flip:#04x}: {outcome:?}"
            );
            mutated[at] = bytes[at];
        }
    }
}

#[test]
fn lengths_and_counts_past_the_input_error_without_allocating() {
    let (family, artifact, bytes) = smallest_file();
    let body = &bytes[..bytes.len() - 8];
    // The kernel name's length is the file's first length: after the magic
    // number, the version and the fingerprint. The first count is the
    // thread-value layouts', after the name, the architecture, six integers
    // and the `warp_specialized` byte.
    let name_at = 4 + 8 + 8;
    let count_at = name_at + 8 + artifact.kernel.len() + 8 + artifact.arch.len() + 6 * 8 + 1;
    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
    assert_eq!(word(name_at), artifact.kernel.len() as u64);
    assert_eq!(word(count_at), artifact.tv_layouts.len() as u64);
    // Every 8-byte window after the version, set to a length no file of
    // this size can hold. An array of `n` items reserves `n` records only
    // after checking that the bytes left hold `n` times the item's smallest
    // encoding, which is at least a third of its record's size.
    let mut errors = 0;
    for at in 12..=body.len() - 8 {
        for value in [u64::MAX, 1 << 63, u64::from(u32::MAX), body.len() as u64] {
            let mut mutated = body.to_vec();
            mutated[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let file = sealed(mutated);
            LARGEST.set(0);
            let outcome = KernelArtifact::from_bytes(&file).map(|_| ());
            let largest = LARGEST.get();
            assert!(
                largest <= 3 * file.len(),
                "{family}: {value:#x} at byte {at} allocated {largest} bytes for a {}-byte file",
                file.len()
            );
            if at == name_at || at == count_at {
                assert!(
                    matches!(outcome, Err(ArtifactError::Corrupt { offset, .. }) if offset == at),
                    "{family}: {value:#x} at byte {at}: {outcome:?}"
                );
                // Nothing is allocated before the name.
                if at == name_at {
                    assert_eq!(largest, 0, "{family}: {value:#x} as the name's length");
                }
            }
            errors += usize::from(outcome.is_err());
        }
    }
    println!("{family}: {errors} windows rejected");
}

// ---------------------------------------------------------------------------
// The JSON export.
// ---------------------------------------------------------------------------

/// What `from_json` made of a mutated document: the artifact it came from
/// (`Same`), another artifact (`Changed`), or the error variant.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Verdict {
    Same,
    Changed,
    Json,
    Schema,
    Version(usize),
    Corrupt,
}

impl Verdict {
    fn kind(&self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Changed => "changed",
            Verdict::Json => "json",
            Verdict::Schema => "schema",
            Verdict::Version(_) => "version",
            Verdict::Corrupt => "corrupt",
        }
    }
}

/// `from_json`'s verdict on `doc`, a mutation of the export `original`.
fn verdict(doc: &str, original: &str) -> Verdict {
    match KernelArtifact::from_json(doc) {
        Ok(artifact) if artifact.to_json() == original => Verdict::Same,
        Ok(_) => Verdict::Changed,
        Err(ArtifactError::Json(_)) => Verdict::Json,
        Err(ArtifactError::Schema(_)) => Verdict::Schema,
        Err(ArtifactError::Version { found }) => Verdict::Version(found),
        Err(ArtifactError::Corrupt { .. }) => Verdict::Corrupt,
    }
}

/// A labelled mutation of a family's export.
struct Mutation {
    label: String,
    doc: String,
    original: &'static str,
}

/// Decodes every mutation and counts the verdicts of each kind.
fn tally(group: &str, mutations: &[Mutation]) -> BTreeMap<&'static str, usize> {
    let mut tally = BTreeMap::new();
    for m in mutations {
        *tally.entry(verdict(&m.doc, m.original).kind()).or_insert(0) += 1;
    }
    println!("{group}: {} documents, {tally:?}", mutations.len());
    tally
}

/// Asserts that every mutation decodes to `expected`, naming the first
/// that does not.
fn assert_all(group: &str, mutations: &[Mutation], expected: &Verdict) {
    let wrong: Vec<String> = mutations
        .iter()
        .filter_map(|m| {
            let got = verdict(&m.doc, m.original);
            (got != *expected).then(|| format!("{}: {got:?}", m.label))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{group}: {} of {} documents are not {expected:?}; first: {:#?}",
        wrong.len(),
        mutations.len(),
        &wrong[..wrong.len().min(8)]
    );
    println!("{group}: {} documents, all {expected:?}", mutations.len());
}

/// Byte offsets of every `"key":` in `doc` for the given keys, so a
/// mutation can land inside the top-level object and the nested ones alike.
fn key_sites(doc: &str, keys: &[&str]) -> Vec<(String, usize)> {
    let mut sites = Vec::new();
    for key in keys {
        let needle = format!("\"{key}\":");
        sites.extend(
            doc.match_indices(&needle)
                .map(|(at, _)| (key.to_string(), at)),
        );
    }
    sites
}

/// Every member name of the artifact schema, top-level and nested.
const SCHEMA_KEYS: &[&str] = &[
    "version",
    "fingerprint",
    "kernel",
    "arch",
    "threads_per_block",
    "grid_blocks",
    "main_loop_trip_count",
    "pipeline_stages",
    "warp_specialized",
    "smem_bytes",
    "registers_per_thread",
    "tv_layouts",
    "smem_layouts",
    "lowered",
    "cuda",
    "cost",
    "perf",
    "tensor",
    "layout",
    "offset_bytes",
    "size_bytes",
    "total_cycles",
    "prologue_cycles",
    "loop_iteration_cycles",
    "epilogue_cycles",
    "rearrange_cycles",
    "per_op",
    "issue_cycles",
    "stall_cycles",
    "completion_cycles",
    "latency_us",
    "block_cycles",
    "dram_us",
    "compute_us",
    "sm_us",
    "waves",
    "bank_conflict_cycles",
    "launch_overhead_us",
];

/// Values that are syntactically valid JSON of every type.
const ANY_TYPE: &[&str] = &[
    "null",
    "true",
    "\"x\"",
    "-0.5e1",
    "[1, {\"a\": [null]}]",
    "{\"k\": \"v\"}",
];

/// The `"version": N` member as the exports spell it.
fn version_member() -> String {
    format!("\"version\": {ARTIFACT_VERSION}")
}

#[test]
fn duplicate_keys_let_the_last_occurrence_win() {
    let mut first_wrong = Vec::new();
    let mut last_wrong = Vec::new();
    for (family, doc) in documents() {
        // A wrong-typed first occurrence, overridden by the real member.
        for (key, at) in key_sites(doc, SCHEMA_KEYS) {
            for wrong in ANY_TYPE {
                first_wrong.push(Mutation {
                    label: format!("{family}: {wrong} before `{key}`@{at}"),
                    doc: format!("{}\"{key}\": {wrong}, {}", &doc[..at], &doc[at..]),
                    original: doc,
                });
            }
        }
        // A wrong-typed last occurrence of a top-level member.
        let close = doc.rfind('}').unwrap();
        for key in &SCHEMA_KEYS[..17] {
            for wrong in ["null", "[]", "{}", "\"2\"", "1.5"] {
                last_wrong.push(Mutation {
                    label: format!("{family}: `{key}` last as {wrong}"),
                    doc: format!("{}, \"{key}\": {wrong}{}", &doc[..close], &doc[close..]),
                    original: doc,
                });
            }
        }
    }
    assert_all("wrong first", &first_wrong, &Verdict::Same);
    let tally = tally("wrong last", &last_wrong);
    assert!(tally.contains_key("schema"), "{tally:?}");
    assert!(!tally.contains_key("json"), "{tally:?}");
}

#[test]
fn escaped_keys_decode_to_their_names() {
    let mut escaped = Vec::new();
    let mut renamed = Vec::new();
    for (family, doc) in documents() {
        for (key, at) in key_sites(doc, SCHEMA_KEYS) {
            let rest = &doc[at + 1 + key.len()..];
            // `"\u0061rch"` is `"arch"`.
            let first = key.as_bytes()[0];
            escaped.push(Mutation {
                label: format!("{family}: escaped `{key}`@{at}"),
                doc: format!("{}\"\\u{:04x}{}{rest}", &doc[..at], first, &key[1..]),
                original: doc,
            });
            // A non-letter escape in the middle of the key.
            let mid = key.len() / 2;
            escaped.push(Mutation {
                label: format!("{family}: mid-escaped `{key}`@{at}"),
                doc: format!(
                    "{}\"{}\\u{:04X}{}{rest}",
                    &doc[..at],
                    &key[..mid],
                    key.as_bytes()[mid],
                    &key[mid + 1..]
                ),
                original: doc,
            });
            // An escape that decodes to a different name hides the member.
            renamed.push(Mutation {
                label: format!("{family}: renamed `{key}`@{at}"),
                doc: format!("{}\"\\u{:04x}{}{rest}", &doc[..at], first ^ 0x20, &key[1..]),
                original: doc,
            });
        }
    }
    assert_all("escaped keys", &escaped, &Verdict::Same);
    assert_all("renamed keys", &renamed, &Verdict::Schema);
}

#[test]
fn unknown_members_are_validated_then_skipped() {
    // Nesting within the parser's bound, and past it (the member sits at
    // most four levels deep, the bound is 128).
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let (shallow, deep) = (nested(100), nested(200));
    let valid_values = [
        "{\"nested\": {\"deeper\": [1, -2.5e-3, [], {}, \"\\u00e9\\n\"]}, \"b\": false}",
        "[[[null]], {\"version\": 3}]",
        "\"a string with \\\"quotes\\\" and \\\\ backslashes\"",
        "-0",
        &shallow,
    ];
    let broken_values = [
        "[1, ]",
        "{\"a\" 1}",
        "\"\\q\"",
        "tru",
        "[1 2]",
        "01x",
        "{,}",
        &deep,
    ];
    let mut valid = Vec::new();
    let mut broken = Vec::new();
    for (family, doc) in documents() {
        // Before the first member of the document and of every nested
        // object that starts with a schema key.
        for (_, at) in key_sites(doc, SCHEMA_KEYS) {
            if !doc[..at].trim_end().ends_with('{') {
                continue;
            }
            for (i, value) in valid_values.iter().enumerate() {
                valid.push(Mutation {
                    label: format!("{family}: unknown #{i} @{at}"),
                    doc: format!("{}\"zz_unknown\": {value}, {}", &doc[..at], &doc[at..]),
                    original: doc,
                });
            }
            for (i, value) in broken_values.iter().enumerate() {
                broken.push(Mutation {
                    label: format!("{family}: broken #{i} @{at}"),
                    doc: format!("{}\"zz_unknown\": {value}, {}", &doc[..at], &doc[at..]),
                    original: doc,
                });
            }
        }
    }
    assert_all("unknown members", &valid, &Verdict::Same);
    assert_all("broken unknown members", &broken, &Verdict::Json);
}

#[test]
fn negative_zero_and_exponent_numbers_agree() {
    let version = version_member();
    let mut spelled = Vec::new();
    let mut rewritten = Vec::new();
    for (family, doc) in documents() {
        // Spellings of the version: the number, not the text, is compared.
        for (spelling, expected) in [
            ("2e0", Verdict::Same),
            ("2.0", Verdict::Same),
            ("0.2e1", Verdict::Same),
            ("20E-1", Verdict::Same),
            ("-0", Verdict::Version(0)),
            ("-0.0", Verdict::Version(0)),
            ("2.5", Verdict::Schema),
            ("-2", Verdict::Schema),
            ("1e400", Verdict::Schema),
        ] {
            let mutated = doc.replacen(&version, &format!("\"version\": {spelling}"), 1);
            assert_eq!(
                verdict(&mutated, doc),
                expected,
                "{family}: version {spelling}"
            );
            spelled.push(spelling);
        }
        // Rewrite the first number of every numeric member.
        for (key, at) in key_sites(doc, SCHEMA_KEYS) {
            let value_at = at + key.len() + 4;
            let rest = &doc[value_at..];
            let len = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            if len == 0 {
                continue;
            }
            for spelling in ["-0", "-0.0", "0e0", "1E2", "1e+2", "-1e-5", "1e400", "7.0"] {
                rewritten.push(Mutation {
                    label: format!("{family}: `{key}`@{at} = {spelling}"),
                    doc: format!("{}{spelling}{}", &doc[..value_at], &rest[len..]),
                    original: doc,
                });
            }
        }
    }
    assert_eq!(spelled.len(), 9 * 8);
    let tally = tally("numbers", &rewritten);
    for kind in ["changed", "schema", "version"] {
        assert!(tally.contains_key(kind), "no {kind} verdicts: {tally:?}");
    }
    assert!(!tally.contains_key("json"), "{tally:?}");
    // `-0` keeps its sign in a float field and reads as 0 in an integer
    // one; an export of `-0.0` floats imports with every sign bit set.
    let (_, doc) = &documents()[0];
    let float = doc.replacen("\"total_cycles\": ", "\"total_cycles\": -0, \"zz\": ", 1);
    let imported = KernelArtifact::from_json(&float).unwrap();
    assert_eq!(imported.cost.total_cycles.to_bits(), (-0.0f64).to_bits());
    let integer = doc.replacen("\"smem_bytes\": ", "\"smem_bytes\": -0, \"zz\": ", 1);
    assert_eq!(KernelArtifact::from_json(&integer).unwrap().smem_bytes, 0);
    let mut negative_zeros = artifacts()[0].1.clone();
    set_floats(&mut negative_zeros, -0.0);
    let imported = KernelArtifact::from_json(&negative_zeros.to_json()).unwrap();
    assert_eq!(float_bits(&imported), float_bits(&negative_zeros));
}

#[test]
fn version_drift_yields_to_syntax_errors_but_not_to_schema_errors() {
    let version = version_member();
    let next = ARTIFACT_VERSION + 1;
    let mut drifted = Vec::new();
    let mut broken = Vec::new();
    let mut missing = Vec::new();
    for (family, doc) in documents() {
        let mutation = |label: String, mutated: String| Mutation {
            label: format!("{family}: {label}"),
            doc: mutated,
            original: doc,
        };
        let v3 = doc.replacen(&version, &format!("\"version\": {next}"), 1);
        drifted.push(mutation(format!("version {next}"), v3.clone()));
        // Version drift beats any field problem...
        let no_cuda = v3.replacen("\"cuda\":", "\"not_cuda\":", 1);
        drifted.push(mutation(format!("version {next}, no cuda"), no_cuda));
        // ...but not a syntax error anywhere after it.
        let close = v3.rfind('}').unwrap();
        broken.push(mutation(
            format!("version {next}, truncated"),
            v3[..close].to_string(),
        ));
        broken.push(mutation(
            format!("version {next}, trailing garbage"),
            format!("{v3}]"),
        ));
        broken.push(mutation(
            format!("version {next}, broken unknown member"),
            format!("{}, \"zz\": [1,]{}", &v3[..close], &v3[close..]),
        ));
        // A missing or non-integral version is a schema error.
        missing.push(mutation(
            "no version".to_string(),
            doc.replacen(&version, "\"not_version\": 2", 1),
        ));
        missing.push(mutation(
            "string version".to_string(),
            doc.replacen(&version, &format!("\"version\": \"{ARTIFACT_VERSION}\""), 1),
        ));
    }
    assert_all("drifted", &drifted, &Verdict::Version(next));
    assert_all("drifted and broken", &broken, &Verdict::Json);
    assert_all("missing version", &missing, &Verdict::Schema);
    // Documents that are not artifact objects at all.
    let brackets = "[".repeat(1_000_000);
    for (doc, expected) in [
        ("[]", Verdict::Schema),
        ("{}", Verdict::Schema),
        ("2", Verdict::Schema),
        ("\"x\"", Verdict::Schema),
        ("null", Verdict::Schema),
        (" ", Verdict::Json),
        ("{\"version\": 2}", Verdict::Schema),
        (&brackets, Verdict::Json),
    ] {
        let shown = &doc[..doc.len().min(16)];
        assert_eq!(verdict(doc, ""), expected, "document {shown:?}");
    }
}

// ---------------------------------------------------------------------------
// Streamed `{:?}` hashing.
// ---------------------------------------------------------------------------

fn streamed(value: &impl Debug) -> u64 {
    let mut h = StableHasher::new();
    h.write_debug(value);
    h.finish()
}

fn formatted(value: &impl Debug) -> u64 {
    let mut h = StableHasher::new();
    format!("{value:?}").hash(&mut h);
    h.finish()
}

/// `artifact_fingerprint` as it was written before it streamed: every
/// `{:?}` rendering built as a `String`, then hashed.
fn fingerprint_formatted(program: &Program, arch: &GpuArch, options: &CompilerOptions) -> u64 {
    let mut h = StableHasher::new();
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
        format!("{:?}", op.kind).hash(&mut h);
        op.in_main_loop.hash(&mut h);
    }
    format!("{:?}", arch).hash(&mut h);
    options.use_cost_model.hash(&mut h);
    options.synthesis.hash_stable(&mut h);
    h.finish()
}

#[test]
fn streamed_arch_hash_equals_formatted_hash() {
    for arch in [GpuArch::a100(), GpuArch::h100()] {
        assert_eq!(streamed(&arch), formatted(&arch), "{}", arch.name);
    }
}

/// Both ways to fingerprint — the free function, which streams the arch's
/// rendering, and `Compiler`'s, which hashes the rendering it keeps — equal
/// the format-then-hash definition.
#[test]
fn fingerprints_equal_the_formatted_definition_for_every_family() {
    let options = CompilerOptions::new();
    let compilers = [GpuArch::a100(), GpuArch::h100()]
        .map(|arch| Compiler::with_options(arch, options.clone()));
    for (family, program, _) in family_programs() {
        for compiler in &compilers {
            let arch = compiler.arch();
            let formatted = fingerprint_formatted(&program, arch, &options);
            assert_eq!(
                artifact_fingerprint(&program, arch, &options),
                formatted,
                "{family} on {}",
                arch.name
            );
            assert_eq!(
                compiler.artifact_fingerprint(&program),
                formatted,
                "{family} on {} through Compiler",
                arch.name
            );
        }
    }
}

/// Tensor ids to build operations from (a builder is the only way to get
/// them outside the IR crate).
fn tensor_pool() -> Vec<TensorId> {
    let mut kb = KernelBuilder::new("pool", 128);
    (0..6)
        .map(|i| kb.register_tensor(format!("t{i}"), DType::F16, &[16, 16]))
        .collect()
}

const ELEMENTWISE: [ElementwiseOp; 12] = [
    ElementwiseOp::Add,
    ElementwiseOp::Sub,
    ElementwiseOp::Mul,
    ElementwiseOp::Div,
    ElementwiseOp::Max,
    ElementwiseOp::Min,
    ElementwiseOp::Exp,
    ElementwiseOp::Relu,
    ElementwiseOp::Silu,
    ElementwiseOp::Sigmoid,
    ElementwiseOp::Fma,
    ElementwiseOp::Identity,
];

/// An operation of kind `variant % 8` over tensors picked from `pool`, with
/// `bits` as its float payload and `n` as its integer one.
fn op_kind(pool: &[TensorId], variant: usize, picks: &[usize], bits: u64, n: usize) -> OpKind {
    let t = |i: usize| pool[picks[i % picks.len()] % pool.len()];
    let value = f64::from_bits(bits);
    match variant % 8 {
        0 => OpKind::Copy {
            src: t(0),
            dst: t(1),
        },
        1 => OpKind::Gemm {
            c: t(0),
            a: t(1),
            b: t(2),
        },
        2 => OpKind::Cast {
            src: t(0),
            dst: t(1),
        },
        3 => OpKind::Rearrange {
            src: t(0),
            dst: t(1),
        },
        4 => OpKind::Elementwise {
            inputs: picks
                .iter()
                .skip(1)
                .map(|&p| pool[p % pool.len()])
                .collect(),
            output: t(0),
            op: match n % 14 {
                12 => ElementwiseOp::AddScalar(value),
                13 => ElementwiseOp::MulScalar(value),
                i => ELEMENTWISE[i],
            },
        },
        5 => OpKind::Reduce {
            src: t(0),
            dst: t(1),
            dim: n,
            op: [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][n % 3],
        },
        6 => OpKind::Fill { dst: t(0), value },
        _ => OpKind::Dequant {
            src: t(0),
            scale: t(1),
            zero: n.is_multiple_of(2).then(|| t(2)),
            dst: t(3),
            group_size: n,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// For generated operations of every kind, including every float bit
    /// pattern (NaN, infinities, subnormals) in their payloads, the
    /// streamed hash equals the format-then-hash one.
    #[test]
    fn streamed_op_hash_equals_formatted_hash(
        variant in 0usize..8,
        picks in collection::vec(0usize..6, 1..=4),
        bits in 0u64..=u64::MAX,
        n in 0usize..=usize::MAX,
    ) {
        let kind = op_kind(&tensor_pool(), variant, &picks, bits, n);
        prop_assert_eq!(streamed(&kind), formatted(&kind), "{:?}", kind);
    }
}

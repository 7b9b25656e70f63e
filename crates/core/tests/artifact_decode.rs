//! The single-pass artifact decoder against its tree-walking oracle.
//!
//! `KernelArtifact::from_json` reads each member straight into its field;
//! `KernelArtifact::from_json_reference` parses a `JsonValue` tree first and
//! then looks the fields up. On every document below the two must agree:
//! both `Ok` with the same `to_json`, or both `Err` with the same
//! `ArtifactError` variant (and, for `Version`, the same version found).
//! The variant is what the cache acts on: a `Json` or `Schema` failure
//! quarantines the file, a `Version` failure deletes it.
//!
//! The documents are artifacts of all eight workload families and
//! mutations of them: every truncation of one artifact, single-byte
//! substitutions, duplicate keys whose first occurrence has the wrong type,
//! escaped keys, unknown members holding nested values, `-0` and exponent
//! numbers, and version drift with and without a later syntax error. Each
//! group also checks that its mutations produce the outcomes they are
//! meant to, so a mutation that silently stopped applying would show.
//!
//! The encoder is held to its oracle the same way: `KernelArtifact::to_json`
//! streams the artifact into one `String`, `to_json_reference` builds a
//! `JsonValue` tree and prints it, and the two must be byte-identical for
//! every family's artifact and for variants of them whose strings hold
//! quotes, backslashes, control and non-ASCII characters and whose numbers
//! are `-0.0`, subnormal, huge or not finite.
//!
//! The last group checks that `StableHasher::write_debug`, which streams a
//! `{:?}` rendering into the fingerprint hasher, feeds it exactly the bytes
//! that formatting to a `String` and hashing that would.

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
use rand::{rngs::StdRng, Rng, SeedableRng};

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

/// The artifact JSON of every family, compiled once per test binary.
fn artifacts() -> &'static [(&'static str, String)] {
    static DOCS: OnceLock<Vec<(&'static str, String)>> = OnceLock::new();
    DOCS.get_or_init(|| {
        family_programs()
            .into_iter()
            .map(|(family, program, arch)| {
                let artifact = Compiler::new(arch)
                    .compile_artifact(&program)
                    .unwrap_or_else(|e| panic!("{family}: compilation failed: {e}"));
                (family, artifact.to_json())
            })
            .collect()
    })
}

/// The smallest artifact: the one every truncation is taken of.
fn smallest() -> &'static str {
    artifacts()
        .iter()
        .map(|(_, doc)| doc.as_str())
        .min_by_key(|doc| doc.len())
        .unwrap()
}

/// What a decoder made of a document, in a form two decoders can be
/// compared by: the re-encoded artifact, or the error variant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Verdict {
    Ok(String),
    Json,
    Schema,
    Version(usize),
}

impl Verdict {
    fn of(decoded: Result<KernelArtifact, ArtifactError>) -> Self {
        match decoded {
            Ok(artifact) => Verdict::Ok(artifact.to_json()),
            Err(ArtifactError::Json(_)) => Verdict::Json,
            Err(ArtifactError::Schema(_)) => Verdict::Schema,
            Err(ArtifactError::Version { found }) => Verdict::Version(found),
        }
    }

    /// The verdict without the artifact text, for tallies and messages.
    fn kind(&self) -> &'static str {
        match self {
            Verdict::Ok(_) => "ok",
            Verdict::Json => "json",
            Verdict::Schema => "schema",
            Verdict::Version(_) => "version",
        }
    }
}

/// Decodes every document both ways and asserts that the two agree on each
/// (0 disagreements). Returns how many documents ended in each verdict kind.
fn assert_agreement(group: &str, docs: &[(String, String)]) -> BTreeMap<&'static str, usize> {
    let mut tally = BTreeMap::new();
    let mut disagreements = Vec::new();
    for (label, doc) in docs {
        let fast = Verdict::of(KernelArtifact::from_json(doc));
        let reference = Verdict::of(KernelArtifact::from_json_reference(doc));
        if fast == reference {
            *tally.entry(fast.kind()).or_insert(0) += 1;
        } else {
            disagreements.push(format!(
                "{label}: from_json {:?} vs reference {:?}",
                fast.kind(),
                reference.kind()
            ));
        }
    }
    assert!(
        disagreements.is_empty(),
        "{group}: {} of {} documents disagree; first: {:#?}",
        disagreements.len(),
        docs.len(),
        &disagreements[..disagreements.len().min(8)]
    );
    println!(
        "{group}: {} documents, 0 disagreements, {tally:?}",
        docs.len()
    );
    tally
}

/// The verdict kinds a tally saw, in order.
fn kinds(tally: &BTreeMap<&'static str, usize>) -> Vec<&'static str> {
    tally.keys().copied().collect()
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

/// The `"version": N` member as the artifacts spell it.
fn version_member() -> String {
    format!("\"version\": {ARTIFACT_VERSION}")
}

#[test]
fn artifacts_of_every_family_decode_identically() {
    let docs: Vec<(String, String)> = artifacts()
        .iter()
        .map(|(family, doc)| (family.to_string(), doc.clone()))
        .collect();
    assert_eq!(docs.len(), 8, "one artifact per workload family");
    let tally = assert_agreement("families", &docs);
    assert_eq!(tally.get("ok"), Some(&8), "{tally:?}");
    // And both equal the artifact they were encoded from.
    for (family, doc) in &docs {
        let decoded = KernelArtifact::from_json(doc).unwrap();
        assert_eq!(&decoded.to_json(), doc, "{family}: round trip");
    }
}

// ---------------------------------------------------------------------------
// The streamed encoder against the tree encoder.
// ---------------------------------------------------------------------------

/// Strings that exercise every escaping rule and multi-byte characters.
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

/// Floats at the edges of the number printer; the non-finite ones print as
/// `null`.
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

/// Counts the artifacts whose two encodings differ, naming the first.
fn encoding_disagreements(cases: &[(String, KernelArtifact)]) -> (usize, Option<String>) {
    let mut bad = cases
        .iter()
        .filter(|(_, artifact)| artifact.to_json() != artifact.to_json_reference())
        .map(|(label, _)| label.clone());
    let first = bad.next();
    (first.iter().count() + bad.count(), first)
}

#[test]
fn streamed_encoding_is_byte_identical_to_the_tree_encoding() {
    let mut cases = Vec::new();
    for (family, doc) in artifacts() {
        let artifact = KernelArtifact::from_json(doc).unwrap();
        assert_eq!(&artifact.to_json(), doc, "{family}: the stored encoding");
        for (i, text) in HOSTILE_STRINGS.iter().enumerate() {
            let mut variant = artifact.clone();
            set_strings(&mut variant, text);
            cases.push((format!("{family} string #{i}"), variant));
        }
        for &x in EDGE_FLOATS {
            let mut variant = artifact.clone();
            set_floats(&mut variant, x);
            cases.push((format!("{family} float {x:e}"), variant));
        }
        let mut empty = artifact.clone();
        empty.tv_layouts.clear();
        empty.smem_layouts.clear();
        empty.lowered.clear();
        empty.cost.per_op.clear();
        (empty.grid_blocks, empty.smem_bytes, empty.fingerprint) = (usize::MAX, 0, u64::MAX);
        empty.warp_specialized = !empty.warp_specialized;
        cases.push((format!("{family} empty arrays"), empty));
        cases.push((family.to_string(), artifact));
    }
    let (disagreements, first) = encoding_disagreements(&cases);
    assert_eq!(disagreements, 0, "first: {first:?}");
    println!("encoder: {} artifacts, 0 disagreements", cases.len());
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

    /// Generated strings and float bit patterns encode the same both ways.
    #[test]
    fn streamed_encoding_matches_on_generated_strings_and_floats(
        family in 0usize..8,
        codes in collection::vec(0u32..0x44_0000, 0..24),
        bits in 0u64..=u64::MAX,
    ) {
        let mut artifact = KernelArtifact::from_json(&artifacts()[family].1).unwrap();
        set_strings(&mut artifact, &text_of(&codes));
        set_floats(&mut artifact, f64::from_bits(bits));
        prop_assert_eq!(artifact.to_json(), artifact.to_json_reference());
    }
}

#[test]
fn every_truncation_is_a_json_error_on_both_paths() {
    let doc = smallest();
    let complete = doc.trim_end().len();
    let docs: Vec<(String, String)> = (0..doc.len())
        .filter(|&end| doc.is_char_boundary(end))
        .map(|end| (format!("truncated at {end}"), doc[..end].to_string()))
        .collect();
    let tally = assert_agreement("truncations", &docs);
    // Every prefix shorter than the document proper is malformed; the ones
    // that only drop trailing whitespace are the whole artifact.
    let proper = (0..complete).filter(|&e| doc.is_char_boundary(e)).count();
    assert_eq!(tally.get("json"), Some(&proper), "{tally:?}");
    assert_eq!(tally.get("ok"), Some(&(docs.len() - proper)), "{tally:?}");
}

#[test]
fn single_byte_substitutions_agree() {
    const SUBSTITUTES: &[u8] = b"\"{}[],:0-\\ ntxe.";
    let mut rng = StdRng::seed_from_u64(0x5eed_dec0de);
    let mut docs = Vec::new();
    for (family, doc) in artifacts() {
        let bytes = doc.as_bytes();
        // Half the sites anywhere ASCII (mostly string bodies), half on
        // structure and numbers, where a substitution changes the shape.
        let anywhere: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii()).collect();
        let structural: Vec<usize> = (0..bytes.len())
            .filter(|&i| b"{}[],:\"0123456789-.eE".contains(&bytes[i]))
            .collect();
        for pool in [&anywhere, &structural] {
            for _ in 0..24 {
                let at = pool[rng.gen_range(0..pool.len())];
                for &sub in SUBSTITUTES {
                    if sub == bytes[at] {
                        continue;
                    }
                    let mut mutated = bytes.to_vec();
                    mutated[at] = sub;
                    // ASCII for ASCII keeps the text valid UTF-8.
                    let mutated = String::from_utf8(mutated).unwrap();
                    docs.push((format!("{family}: byte {at} -> {:?}", sub as char), mutated));
                }
            }
        }
    }
    let tally = assert_agreement("substitutions", &docs);
    for kind in ["ok", "json", "schema"] {
        assert!(tally.contains_key(kind), "no {kind} verdicts: {tally:?}");
    }
}

#[test]
fn duplicate_keys_let_the_last_occurrence_win() {
    let mut docs = Vec::new();
    let mut last_wrong = Vec::new();
    for (family, doc) in artifacts() {
        // A wrong-typed first occurrence, overridden by the real member.
        for (key, at) in key_sites(doc, SCHEMA_KEYS) {
            for wrong in ANY_TYPE {
                let mutated = format!("{}\"{key}\": {wrong}, {}", &doc[..at], &doc[at..]);
                docs.push((format!("{family}: {wrong} before `{key}`@{at}"), mutated));
            }
        }
        // A wrong-typed last occurrence of a top-level member.
        let close = doc.rfind('}').unwrap();
        for key in &SCHEMA_KEYS[..17] {
            for wrong in ["null", "[]", "{}", "\"2\"", "1.5"] {
                let mutated = format!("{}, \"{key}\": {wrong}{}", &doc[..close], &doc[close..]);
                last_wrong.push((format!("{family}: `{key}` last as {wrong}"), mutated));
            }
        }
    }
    let tally = assert_agreement("wrong first", &docs);
    assert_eq!(kinds(&tally), ["ok"], "{tally:?}");
    let tally = assert_agreement("wrong last", &last_wrong);
    assert!(tally.contains_key("schema"), "{tally:?}");
    assert!(!tally.contains_key("json"), "{tally:?}");
}

#[test]
fn escaped_keys_decode_to_their_names() {
    let mut docs = Vec::new();
    let mut renamed = Vec::new();
    for (family, doc) in artifacts() {
        for (key, at) in key_sites(doc, SCHEMA_KEYS) {
            let rest = &doc[at + 1 + key.len()..];
            // `"\u0061rch"` is `"arch"`.
            let first = key.as_bytes()[0];
            let escaped = format!("{}\"\\u{:04x}{}{rest}", &doc[..at], first, &key[1..]);
            docs.push((format!("{family}: escaped `{key}`@{at}"), escaped));
            // A non-letter escape in the middle of the key.
            let mid = key.len() / 2;
            let escaped = format!(
                "{}\"{}\\u{:04X}{}{rest}",
                &doc[..at],
                &key[..mid],
                key.as_bytes()[mid],
                &key[mid + 1..]
            );
            docs.push((format!("{family}: mid-escaped `{key}`@{at}"), escaped));
            // An escape that decodes to a different name hides the member.
            let other = format!("{}\"\\u{:04x}{}{rest}", &doc[..at], first ^ 0x20, &key[1..]);
            renamed.push((format!("{family}: renamed `{key}`@{at}"), other));
        }
    }
    let tally = assert_agreement("escaped keys", &docs);
    assert_eq!(kinds(&tally), ["ok"], "{tally:?}");
    let tally = assert_agreement("renamed keys", &renamed);
    assert_eq!(kinds(&tally), ["schema"], "{tally:?}");
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
    for (family, doc) in artifacts() {
        // Before the first member of the document and of every nested
        // object that starts with a schema key.
        for (_, at) in key_sites(doc, SCHEMA_KEYS) {
            if !doc[..at].trim_end().ends_with('{') {
                continue;
            }
            for (i, value) in valid_values.iter().enumerate() {
                let mutated = format!("{}\"zz_unknown\": {value}, {}", &doc[..at], &doc[at..]);
                valid.push((format!("{family}: unknown #{i} @{at}"), mutated));
            }
            for (i, value) in broken_values.iter().enumerate() {
                let mutated = format!("{}\"zz_unknown\": {value}, {}", &doc[..at], &doc[at..]);
                broken.push((format!("{family}: broken #{i} @{at}"), mutated));
            }
        }
    }
    let tally = assert_agreement("unknown members", &valid);
    assert_eq!(kinds(&tally), ["ok"], "{tally:?}");
    let tally = assert_agreement("broken unknown members", &broken);
    assert_eq!(kinds(&tally), ["json"], "{tally:?}");
}

#[test]
fn negative_zero_and_exponent_numbers_agree() {
    let version = version_member();
    let mut docs = Vec::new();
    for (family, doc) in artifacts() {
        for spelling in [
            "2e0", "2.0", "0.2e1", "20E-1", "-0", "-0.0", "2.5", "-2", "1e400",
        ] {
            let mutated = doc.replacen(&version, &format!("\"version\": {spelling}"), 1);
            docs.push((format!("{family}: version {spelling}"), mutated));
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
                let mutated = format!("{}{spelling}{}", &doc[..value_at], &rest[len..]);
                docs.push((format!("{family}: `{key}`@{at} = {spelling}"), mutated));
            }
        }
    }
    let tally = assert_agreement("numbers", &docs);
    for kind in ["ok", "schema", "version"] {
        assert!(tally.contains_key(kind), "no {kind} verdicts: {tally:?}");
    }
}

#[test]
fn version_drift_yields_to_syntax_errors_but_not_to_schema_errors() {
    let version = version_member();
    let next = ARTIFACT_VERSION + 1;
    let mut drifted = Vec::new();
    let mut broken = Vec::new();
    let mut missing = Vec::new();
    for (family, doc) in artifacts() {
        let v3 = doc.replacen(&version, &format!("\"version\": {next}"), 1);
        drifted.push((format!("{family}: version {next}"), v3.clone()));
        // Version drift beats any field problem...
        let no_cuda = v3.replacen("\"cuda\":", "\"not_cuda\":", 1);
        drifted.push((format!("{family}: version {next}, no cuda"), no_cuda));
        // ...but not a syntax error anywhere after it.
        let close = v3.rfind('}').unwrap();
        broken.push((
            format!("{family}: version {next}, truncated"),
            v3[..close].to_string(),
        ));
        broken.push((
            format!("{family}: version {next}, trailing garbage"),
            format!("{v3}]"),
        ));
        broken.push((
            format!("{family}: version {next}, broken unknown member"),
            format!("{}, \"zz\": [1,]{}", &v3[..close], &v3[close..]),
        ));
        // A missing or non-integral version is a schema error.
        missing.push((
            format!("{family}: no version"),
            doc.replacen(&version, "\"not_version\": 2", 1),
        ));
        missing.push((
            format!("{family}: string version"),
            doc.replacen(&version, &format!("\"version\": \"{ARTIFACT_VERSION}\""), 1),
        ));
    }
    let tally = assert_agreement("drifted", &drifted);
    assert_eq!(kinds(&tally), ["version"], "{tally:?}");
    let tally = assert_agreement("drifted and broken", &broken);
    assert_eq!(kinds(&tally), ["json"], "{tally:?}");
    let tally = assert_agreement("missing version", &missing);
    assert_eq!(kinds(&tally), ["schema"], "{tally:?}");
    // Documents that are not artifact objects at all.
    let brackets = "[".repeat(1_000_000);
    let shapes: Vec<(String, String)> = [
        "[]",
        "{}",
        "2",
        "\"x\"",
        "null",
        " ",
        "{\"version\": 2}",
        &brackets,
    ]
    .iter()
    .map(|doc| {
        (
            format!("document {:?}", &doc[..doc.len().min(16)]),
            doc.to_string(),
        )
    })
    .collect();
    assert_agreement("other shapes", &shapes);
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

//! Measures cold vs. warm serving throughput over the persistent
//! kernel-artifact cache and the batched compile service (PR 4), and writes
//! the machine-readable comparison committed as `BENCH_pr4.json`.
//!
//! The request stream (every Fig. 13 model × batch size) is served three
//! times: cold (empty cache), memory-warm (same service) and disk-warm (a
//! fresh service over the same cache directory, i.e. a process restart).
//! Warm results are asserted bit-identical to cold ones. The cache lives in
//! a per-process temporary directory that is removed afterwards.
//!
//! Usage: `cargo run --release --bin repro_serving [-- output.json]`

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr4.json".to_string());
    let cache_dir =
        std::env::temp_dir().join(format!("hexcute-serving-cache-{}", std::process::id()));

    let (entries, notes) = hexcute_bench::serving_bench::serving_entries(&cache_dir);
    let mut report = hexcute_bench::fastpath::as_report(&entries);
    report.title = "Serving: cold vs. warm kernel-artifact cache".to_string();
    for note in &notes {
        report.push_note(note.clone());
    }
    print!("{report}");
    hexcute_bench::print_shared_cache_summary();

    std::fs::remove_dir_all(&cache_dir).ok();

    match hexcute_bench::fastpath::write_json_named(
        &out_path,
        "persistent kernel-artifact cache + batched compile service",
        &entries,
    ) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    hexcute_bench::checks::exit_if_failed();
}

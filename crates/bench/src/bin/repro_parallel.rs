//! Measures the parallel prefix-tree search (persistent worker pool +
//! subtree split + shared sharded memo caches) against the PR 2
//! serial-incremental walk, and writes the machine-readable scaling curves
//! committed as `BENCH_pr3.json` (one `synthesis_parallel_w{N}` group per
//! worker count; the group geomean is that worker count's end-to-end
//! synthesize+compile speedup over the serial baseline).
//!
//! Also reports the prefix-search sharing counters and per-cache
//! hit/miss/eviction statistics for each kernel family.
//!
//! Usage: `cargo run --release --bin repro_parallel [-- output.json]`

use hexcute_arch::GpuArch;
use hexcute_kernels::attention::{mha_forward, AttentionConfig, AttentionShape};
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_kernels::moe::{mixed_type_moe, MoeConfig, MoeDataflow, MoeShape};
use hexcute_synthesis::{SynthesisOptions, Synthesizer};

fn print_prefix_stats() {
    let arch = GpuArch::a100();
    let workers = *hexcute_bench::fastpath::scaling_worker_counts()
        .last()
        .unwrap_or(&1);
    let kernels = [
        (
            "gemm",
            fp16_gemm(GemmShape::new(4096, 4096, 4096), GemmConfig::default()).unwrap(),
        ),
        (
            "attention",
            mha_forward(
                AttentionShape::forward(8, 32, 2048, 128),
                AttentionConfig::default(),
            )
            .unwrap(),
        ),
        (
            "moe",
            mixed_type_moe(
                MoeShape::deepseek_r1(128),
                MoeConfig::default(),
                MoeDataflow::Efficient,
            )
            .unwrap(),
        ),
    ];
    println!("\nPrefix-search stats at {workers} workers (auto subtree depth):");
    for (name, program) in &kernels {
        let options = SynthesisOptions {
            parallel_workers: Some(workers),
            ..SynthesisOptions::default()
        };
        let (candidates, stats) = Synthesizer::new(program, &arch, options)
            .synthesize_with_stats(None)
            .unwrap();
        let stats = stats.expect("incremental search reports stats");
        println!(
            "  {name}: {} candidates over {} subtrees, {} edges expanded, \
             {} layouts computed / {} reused; finished-layout memo: {}",
            candidates.len(),
            stats.subtrees,
            stats.nodes_expanded,
            stats.tensor_layouts_computed,
            stats.tensor_layout_hits,
            stats.finished_cache,
        );
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr3.json".to_string());
    let entries = hexcute_bench::fastpath::synthesis_parallel_entries();
    print!("{}", hexcute_bench::fastpath::as_report(&entries));
    print_prefix_stats();
    hexcute_bench::print_shared_cache_summary();
    match hexcute_bench::fastpath::write_json_named(
        &out_path,
        "parallel prefix-tree search over a persistent worker pool",
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

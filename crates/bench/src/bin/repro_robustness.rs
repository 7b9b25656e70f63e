//! Chaos-replay reproduction for the fault-tolerant compile service
//! (PR 6, extended in PR 8 with the cancellation ladder): replays the
//! Fig. 13 serving trace under several fault schedules (disk chaos,
//! synthesis panics, worker deaths, deadline pressure, admission overload,
//! cancellation storm) and writes the machine-readable summary committed
//! as `BENCH_pr8.json`.
//!
//! The process exits nonzero unless every schedule stays above its
//! availability floor, every served artifact is bit-identical to the
//! fault-free reference, and no schedule exceeds its wall-clock bound.
//!
//! Usage: `cargo run --release --bin repro_robustness [-- output.json]`

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr8.json".to_string());

    let (results, (trace_kernels, distinct)) = hexcute_bench::robustness_bench::run_all();

    println!("Chaos replay: {trace_kernels} kernels/pass, {distinct} distinct fingerprints\n");
    println!(
        "{:<18} {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>6} {:>9} {:>9} {:>7}",
        "schedule",
        "avail",
        "floor",
        "ok",
        "fail",
        "shed",
        "dline",
        "retry",
        "panic",
        "p50_ms",
        "p99_ms",
        "wall_s"
    );
    for r in &results {
        println!(
            "{:<18} {:>6.3} {:>6.2} {:>6} {:>6} {:>7} {:>7} {:>6} {:>6} {:>9.2} {:>9.2} {:>7.1}",
            r.name,
            r.availability,
            r.floor,
            r.ok,
            r.failed,
            r.shed,
            r.deadline_expired,
            r.retries,
            r.synth_panics,
            r.p50_ms,
            r.p99_ms,
            r.wall_s
        );
    }
    println!();
    for r in &results {
        println!(
            "{}: spec={} coalesced={} syntheses={} max_queue_depth={} quarantined={} \
             write_failures={} breaker_trips={}/{} stale_version={} injected={} \
             pool jobs/items/deaths/respawns={}/{}/{}/{} mismatches={} \
             cancelled={} watchdog_trips={} shutdown_drained={} pool_cancelled={} \
             cancel_free_p99_ms={:.2}",
            r.name,
            r.spec,
            r.coalesced,
            r.syntheses,
            r.max_queue_depth,
            r.quarantined,
            r.write_failures,
            r.breaker_trips,
            r.breaker_recoveries,
            r.stale_version,
            r.injected_faults,
            r.pool_jobs,
            r.pool_items,
            r.pool_deaths,
            r.pool_respawns,
            r.mismatches,
            r.synth_cancelled,
            r.watchdog_trips,
            r.shutdown_drained,
            r.pool_cancelled,
            r.cancel_free_p99_ms
        );
    }

    let json = hexcute_bench::robustness_bench::to_json(&results, trace_kernels, distinct);
    match hexcute_bench::write_output(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    hexcute_bench::print_shared_cache_summary();
    hexcute_bench::checks::exit_if_failed();
}

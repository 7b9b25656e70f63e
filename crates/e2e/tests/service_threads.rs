//! The compile service starts no thread of its own: deadlines and the
//! watchdog are expiry instants on each synthesis' cancel token, checked by
//! the polls themselves. This test has a binary of its own because it
//! counts the process's threads, which sibling tests would disturb.
#![cfg(target_os = "linux")]

use std::time::Duration;

use hexcute_arch::GpuArch;
use hexcute_core::{CompilerOptions, KernelCacheConfig};
use hexcute_e2e::{CompileService, ServedFrom, ServiceConfig};
use hexcute_ir::Program;
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_parallel::pool_thread_count;

fn programs() -> Vec<Program> {
    [64, 96, 128]
        .into_iter()
        .map(|k| fp16_gemm(GemmShape::new(128, 128, k), GemmConfig::default()).unwrap())
        .collect()
}

/// Threads of this process other than the worker pool's. The pool may
/// still grow when a job arrives before the last one's helpers are idle
/// again; it is process-wide and not the service's.
fn threads_outside_the_pool() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count();
    tasks - pool_thread_count()
}

#[test]
fn deadlines_and_watchdogs_start_no_thread() {
    // Warm the pool with the same syntheses the service will run.
    let warmup = CompileService::new(GpuArch::h100());
    for program in programs() {
        warmup.compile(&program).unwrap();
    }
    let before = threads_outside_the_pool();

    let service = CompileService::with_service_config(
        GpuArch::h100(),
        CompilerOptions::new(),
        KernelCacheConfig::default(),
        ServiceConfig {
            deadline: Some(Duration::from_secs(600)),
            watchdog: Some(Duration::from_secs(600)),
            ..ServiceConfig::default()
        },
    );
    for program in programs() {
        let response = service.compile(&program).unwrap();
        assert_eq!(response.served_from, ServedFrom::Synthesized);
    }
    assert_eq!(
        threads_outside_the_pool(),
        before,
        "serving with a deadline and a watchdog started a thread"
    );
    service.shutdown();
    assert_eq!(threads_outside_the_pool(), before);
}

//! The persistent pool must not spawn threads per call. This test has a
//! binary of its own: the pool and its thread counter are process-global,
//! so sibling tests mapping concurrently in the same process would grow the
//! pool under it.

use hexcute_parallel::{par_map_with_workers, pool_thread_count, MAX_POOL_THREADS};

#[test]
fn pool_threads_are_reused_across_calls() {
    // Warm the pool, then issue many more maps at the same width: the
    // persistent pool must not spawn a thread per call (32 calls would add
    // ~96 threads if each spawned its own helpers).
    let _ = par_map_with_workers((0..64).collect::<Vec<_>>(), |x| x, 4);
    let after_warmup = pool_thread_count();
    for _ in 0..32 {
        let _ = par_map_with_workers((0..64).collect::<Vec<_>>(), |x| x + 1, 4);
    }
    let after_burst = pool_thread_count();
    assert!(
        after_burst <= after_warmup + 16,
        "pool grew per call: {after_warmup} -> {after_burst}"
    );
    assert!(after_burst <= MAX_POOL_THREADS);
}

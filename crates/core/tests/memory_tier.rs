//! The kernel cache's in-memory tier: bounded, an insert always lands, the
//! frequency sketch never under-counts, and on a serving-like trace the
//! tier keeps the popular artifacts instead of whatever came last.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hexcute_core::cache::{CostRecord, FrequencySketch, PerfRecord};
use hexcute_core::{
    ArtifactSource, KernelArtifact, KernelCache, KernelCacheConfig, ARTIFACT_VERSION,
};
use proptest::prelude::*;

/// The memory capacity of the serving benchmark's cache.
const CAPACITY: usize = 16;

fn unique_temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "hexcute-memory-tier-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A small artifact stored under `fingerprint`; no compile involved.
fn synthetic(fingerprint: u64) -> Arc<KernelArtifact> {
    Arc::new(KernelArtifact {
        version: ARTIFACT_VERSION,
        fingerprint,
        kernel: format!("synthetic_{fingerprint:016x}"),
        arch: "A100".to_string(),
        threads_per_block: 128,
        grid_blocks: 1,
        main_loop_trip_count: 1,
        pipeline_stages: 1,
        warp_specialized: false,
        smem_bytes: 0,
        registers_per_thread: 32,
        tv_layouts: Vec::new(),
        smem_layouts: Vec::new(),
        lowered: vec!["nop".to_string()],
        cuda: String::new(),
        cost: CostRecord {
            total_cycles: 1.0,
            prologue_cycles: 0.0,
            loop_iteration_cycles: 1.0,
            epilogue_cycles: 0.0,
            rearrange_cycles: 0.0,
            per_op: Vec::new(),
        },
        perf: PerfRecord {
            latency_us: 1.0,
            block_cycles: 1.0,
            dram_us: 0.0,
            compute_us: 0.0,
            sm_us: 1.0,
            waves: 1,
            bank_conflict_cycles: 0.0,
            launch_overhead_us: 0.0,
        },
    })
}

/// SplitMix64: the trace's seeded random source.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn memory_only(capacity: usize) -> KernelCache {
    KernelCache::new(KernelCacheConfig {
        memory_capacity: capacity,
        ..KernelCacheConfig::default()
    })
}

#[test]
fn the_tier_never_exceeds_its_capacity() {
    for capacity in [1, 3, CAPACITY] {
        let cache = memory_only(capacity);
        let mut rng = SplitMix(capacity as u64);
        for _ in 0..2000 {
            let key = rng.next() % (4 * capacity as u64);
            if cache.get(key).is_none() {
                cache.insert(synthetic(key));
            }
            let entries = cache.stats().memory.entries;
            assert!(
                entries <= capacity,
                "{entries} resident, capacity {capacity}"
            );
        }
        assert_eq!(cache.stats().memory.entries, capacity);
    }
}

#[test]
fn the_tier_stays_bounded_under_concurrent_callers() {
    let cache = memory_only(CAPACITY);
    std::thread::scope(|scope| {
        for thread in 0..4u64 {
            let cache = &cache;
            scope.spawn(move || {
                let mut rng = SplitMix(thread);
                for _ in 0..2000 {
                    let key = rng.next() % 64;
                    if cache.get(key).is_none() {
                        cache.insert(synthetic(key));
                    }
                    assert!(cache.stats().memory.entries <= CAPACITY);
                }
            });
        }
    });
    let stats = cache.stats().memory;
    assert_eq!(stats.entries, CAPACITY);
    assert_eq!(stats.hits + stats.misses, 4 * 2000);
}

#[test]
fn an_insert_is_resident_right_after_it_returns() {
    let dir = unique_temp_dir("insert");
    let disk_backed = KernelCache::new(KernelCacheConfig {
        dir: Some(dir.clone()),
        memory_capacity: 4,
        ..KernelCacheConfig::default()
    });
    for cache in [memory_only(4), disk_backed] {
        // Make the residents popular first: a newcomer seen once must still
        // land when it comes from a synthesis.
        for key in 0..4 {
            cache.insert(synthetic(key));
            for _ in 0..8 {
                assert!(cache.get(key).is_some());
            }
        }
        for key in 100..140 {
            assert!(cache.get(key).is_none());
            cache.insert(synthetic(key));
            let (artifact, source) = cache.get(key).expect("a fresh insert is resident");
            assert_eq!(source, ArtifactSource::Memory);
            assert_eq!(artifact.fingerprint, key);
        }
        assert_eq!(cache.stats().memory.evictions, 40);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Within one aging period the count-min estimate is at least the exact
    /// count (until the 4-bit counter saturates): collisions can only add.
    #[test]
    fn the_sketch_never_under_counts_within_a_period(
        capacity in 1usize..48,
        keys in proptest::collection::vec(0u64..96, 0..480),
    ) {
        let mut sketch = FrequencySketch::new(capacity);
        let lookups = keys.len().min(sketch.period() - 1);
        let mut exact: HashMap<u64, u8> = HashMap::new();
        for &key in &keys[..lookups] {
            // Spread the small key space over the whole fingerprint range.
            let key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            sketch.increment(key);
            *exact.entry(key).or_default() += 1;
            for (&seen, &count) in &exact {
                prop_assert!(
                    sketch.estimate(seen) >= count.min(15),
                    "key {seen:#x}: estimate {} < exact {count}",
                    sketch.estimate(seen)
                );
            }
        }
    }
}

#[test]
fn the_sketch_halves_every_counter_at_the_end_of_a_period() {
    let mut sketch = FrequencySketch::new(1);
    assert_eq!(sketch.period(), 10);
    for _ in 0..9 {
        sketch.increment(42);
    }
    assert_eq!(sketch.estimate(42), 9);
    sketch.increment(42);
    assert_eq!(sketch.estimate(42), 5, "10 halves to 5");
    for _ in 0..30 {
        sketch.increment(42);
    }
    assert_eq!(sketch.estimate(42), 7, "15 saturates, then halves to 7");
}

/// Programs on disk in the replay: about as many as the serving benchmark's
/// captured decode steps compile.
const DISK_KEYS: usize = 230;
/// One request in this many is for a key never requested before.
const NEW_KEY_EVERY: usize = 32;
const REQUESTS: usize = 8000;

/// A seeded replay of a serving trace: Zipf(1) popularity over the keys on
/// disk, and one request in 32 for a key that is on no tier (a synthesis,
/// then an insert). A direct-mapped tier keeps about a third of the
/// requests in memory; frequency admission must keep at least half, and a
/// disk hit for a key counted once in the aging period (by that lookup)
/// must never displace a resident.
#[test]
fn a_zipf_trace_keeps_the_popular_keys_in_memory() {
    let dir = unique_temp_dir("replay");
    let mut rng = SplitMix(0x7469_6e79_6c66_7531);
    let keys: Vec<u64> = (0..DISK_KEYS).map(|_| rng.next()).collect();
    let fill = KernelCache::new(KernelCacheConfig {
        dir: Some(dir.clone()),
        memory_capacity: DISK_KEYS,
        disk_capacity: 1 << 16,
        ..KernelCacheConfig::default()
    });
    for &key in &keys {
        fill.insert(synthetic(key));
    }
    assert_eq!(fill.disk_entries(), DISK_KEYS);

    let cache = KernelCache::new(KernelCacheConfig {
        dir: Some(dir.clone()),
        memory_capacity: CAPACITY,
        disk_capacity: 1 << 16,
        ..KernelCacheConfig::default()
    });
    let cumulative: Vec<f64> = (1..=DISK_KEYS)
        .scan(0.0, |sum, rank| {
            *sum += 1.0 / rank as f64;
            Some(*sum)
        })
        .collect();
    let total = cumulative[DISK_KEYS - 1];
    // Every lookup counts its key once, so a sketch fed the same keys holds
    // the counts the cache's own sketch holds.
    let mut sketch = FrequencySketch::new(CAPACITY);
    let (mut memory, mut once_counted_promotions) = (0usize, 0usize);
    for i in 0..REQUESTS {
        let key = if i % NEW_KEY_EVERY == NEW_KEY_EVERY - 1 {
            rng.next()
        } else {
            let u = rng.unit() * total;
            keys[cumulative.partition_point(|&c| c < u).min(DISK_KEYS - 1)]
        };
        sketch.increment(key);
        let evictions = cache.stats().memory.evictions;
        match cache.get(key) {
            Some((_, ArtifactSource::Memory)) => memory += 1,
            Some((_, ArtifactSource::Disk)) if sketch.estimate(key) == 1 => {
                once_counted_promotions += 1;
                assert_eq!(
                    cache.stats().memory.evictions,
                    evictions,
                    "request {i}: a disk hit counted once displaced a resident"
                );
            }
            Some((_, ArtifactSource::Disk)) => {}
            Some((_, source)) => panic!("a lookup never synthesizes, got {source:?}"),
            None => cache.insert(synthetic(key)),
        }
    }
    let stats = cache.stats();
    let share = memory as f64 / REQUESTS as f64;
    assert!(share >= 0.5, "memory share {share:.3} < 0.5: {stats}");
    assert!(
        once_counted_promotions > 0,
        "the trace must exercise the rule"
    );
    assert!(stats.promotions_declined > 0, "{stats}");
    assert!(stats.memory.entries <= CAPACITY);
    let _ = std::fs::remove_dir_all(&dir);
}

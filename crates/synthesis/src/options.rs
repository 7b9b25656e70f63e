//! Synthesis options: which instruction families the search may use and the
//! ablation switches used in Section VII-E of the paper.

/// Options controlling the layout-synthesis search.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisOptions {
    /// Allow `ldmatrix` for shared→register copies.
    pub allow_ldmatrix: bool,
    /// Allow `cp.async` for global→shared copies.
    pub allow_cp_async: bool,
    /// Allow unpack loads (vectorized shared→register loads of packed
    /// sub-byte elements with an in-register unpack) for quantized weight
    /// tensors — the Marlin dequant-in-flight path.
    pub allow_unpack: bool,
    /// Allow TMA bulk copies on architectures that support it.
    pub allow_tma: bool,
    /// Allow warp-group MMA (`wgmma`) on architectures that support it.
    pub allow_wgmma: bool,
    /// Upper bound on the number of candidate programs returned by the
    /// search tree expansion.
    pub max_candidates: usize,
    /// Ablation: force every copy to use scalar (1-byte-per-thread
    /// element-wise) instructions, mimicking the fallback path.
    pub force_scalar_copies: bool,
    /// Ablation: force shared-memory tensors to a plain row-major layout
    /// without alignment-aware synthesis (the "Triton layout" ablation of
    /// Fig. 14).
    pub force_row_major_smem: bool,
    /// Ablation: disable swizzle selection (keeps whatever bank conflicts the
    /// base layout has).
    pub disable_swizzles: bool,
    /// Allow non-power-of-two warp tilings of the C tile (the paper notes 28
    /// of 40 GEMM shapes pick non-power-of-two tiles on H100).
    pub allow_non_power_of_two_tiles: bool,
    /// Evaluate candidates with the shared-prefix incremental search (memoized
    /// constraint unification and shared-memory synthesis along shared choice
    /// prefixes). When `false`, every candidate is re-evaluated from scratch
    /// (the reference the incremental search is cross-checked against). Both
    /// paths produce bit-identical candidate lists.
    pub incremental: bool,
    /// Depth at which the incremental search splits the choice tree into
    /// independent subtrees evaluated in parallel on the persistent worker
    /// pool (selections sharing their first `depth` choices form one
    /// subtree). `None` (the default) auto-tunes the depth from the worker
    /// count; `Some(0)` forces the serial walk — the cross-checked
    /// reference, also reachable with `HEXCUTE_THREADS=1`. The parallel walk
    /// is bit-for-bit identical to the serial one at any depth and worker
    /// count.
    pub parallel_subtree_depth: Option<usize>,
    /// Worker count for the parallel subtree walk and candidate scoring.
    /// `None` (the default) uses [`hexcute_parallel::worker_count`]
    /// (i.e. `HEXCUTE_THREADS`); tests and benchmarks set an explicit count
    /// because mutating the environment of a threaded process is unsafe.
    pub parallel_workers: Option<usize>,
    /// Prune the search with branch-and-bound: cut subtrees whose admissible
    /// lower bound (from [`crate::SearchBounder`]) cannot beat the incumbent
    /// best score. Pruning is *lossless* — the winning candidate and its
    /// score are bit-identical to exhaustive search — so, like
    /// `incremental`, this toggle is excluded from the stable hash. When
    /// `false`, the compiler ranks every candidate exhaustively (the
    /// reference the pruned search is cross-checked against). The pruned
    /// walk rides on the incremental search, so the compiler prunes only
    /// when `incremental` is on too.
    pub prune: bool,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            allow_ldmatrix: true,
            allow_cp_async: true,
            allow_unpack: true,
            allow_tma: true,
            allow_wgmma: true,
            max_candidates: 128,
            force_scalar_copies: false,
            force_row_major_smem: false,
            disable_swizzles: false,
            allow_non_power_of_two_tiles: true,
            incremental: true,
            parallel_subtree_depth: None,
            parallel_workers: None,
            prune: true,
        }
    }
}

impl SynthesisOptions {
    /// The default option set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Options mimicking the scalar-fallback ablation.
    pub fn scalar_fallback() -> Self {
        SynthesisOptions {
            force_scalar_copies: true,
            ..Self::default()
        }
    }

    /// Feeds every *result-affecting* field into `state`, in a fixed order.
    /// The persistent kernel-artifact cache keys artifacts on this hash (via
    /// a stable hasher), so the contract matters:
    ///
    /// * Fields that change which candidates exist or how they rank
    ///   (instruction allowances, `max_candidates`, the ablation switches)
    ///   all participate.
    /// * `incremental`, `parallel_subtree_depth`, `parallel_workers` and
    ///   `prune` are **deliberately excluded**: the incremental, parallel
    ///   and branch-and-bound walks are cross-checked bit-for-bit against
    ///   the serial exhaustive reference, so they cannot change the winning
    ///   candidate — hashing them would only fragment the cache across
    ///   thread counts and prune toggles.
    pub fn hash_stable<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        self.allow_ldmatrix.hash(state);
        self.allow_cp_async.hash(state);
        self.allow_unpack.hash(state);
        self.allow_tma.hash(state);
        self.allow_wgmma.hash(state);
        self.max_candidates.hash(state);
        self.force_scalar_copies.hash(state);
        self.force_row_major_smem.hash(state);
        self.disable_swizzles.hash(state);
        self.allow_non_power_of_two_tiles.hash(state);
    }

    /// Options mimicking the "Triton shared-memory layout" ablation of
    /// Fig. 14 (row-major shared memory, no swizzle search).
    pub fn triton_smem_layout() -> Self {
        SynthesisOptions {
            force_row_major_smem: true,
            disable_swizzles: true,
            allow_ldmatrix: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let o = SynthesisOptions::default();
        assert!(o.allow_ldmatrix && o.allow_cp_async && o.allow_tma && o.allow_wgmma);
        assert!(!o.force_scalar_copies);
        assert!(o.incremental);
        assert!(o.max_candidates >= 16);
        assert_eq!(o.parallel_subtree_depth, None, "default is auto-tuned");
        assert_eq!(o.parallel_workers, None, "default follows HEXCUTE_THREADS");
        assert!(
            o.prune,
            "exact branch-and-bound is lossless, so it defaults on"
        );
    }

    fn fp(o: &SynthesisOptions) -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        o.hash_stable(&mut h);
        std::hash::Hasher::finish(&h)
    }

    #[test]
    fn workers_never_change_the_stable_hash() {
        let base = SynthesisOptions::default();
        let threaded = SynthesisOptions {
            parallel_workers: Some(7),
            ..base.clone()
        };
        assert_eq!(fp(&base), fp(&threaded), "workers never fragment");
    }

    #[test]
    fn prune_never_changes_the_stable_hash() {
        let base = SynthesisOptions::default();
        let unpruned = SynthesisOptions {
            prune: false,
            ..base.clone()
        };
        assert_eq!(
            fp(&base),
            fp(&unpruned),
            "exact B&B is lossless, so the prune toggle never fragments"
        );
    }

    #[test]
    fn ablation_presets() {
        assert!(SynthesisOptions::scalar_fallback().force_scalar_copies);
        let t = SynthesisOptions::triton_smem_layout();
        assert!(t.force_row_major_smem && t.disable_swizzles && !t.allow_ldmatrix);
    }
}

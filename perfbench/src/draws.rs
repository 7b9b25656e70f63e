//! Seeded program draws for the compile workloads.
//!
//! A workload is a fixed list of *cells* (family × arch × variant). Draws
//! visit the cells in rounds, each round in a fresh seeded order, so the
//! family mix is the same for every seed. Within a cell, shapes and tile
//! configurations come from a Latin-hypercube schedule: every dimension is
//! cut into [`STRATA`] equal slices and each block of [`STRATA`] draws of
//! the cell visits every slice once. That keeps the mix of small and large
//! problems — and with it the kernel-latency geomean — nearly independent
//! of the seed, while the exact shapes still differ per seed.

use hexcute_arch::GpuArch;
use hexcute_ir::Program;
use hexcute_kernels::{
    bf16_gemm, fp16_gemm, fp8_blockwise_gemm, grouped_gemm, mha_decoding, mha_forward,
    mixed_type_moe, selective_scan, w4a16_gemm, warp_specialized_gemm, AttentionConfig,
    AttentionShape, GemmConfig, GemmShape, GroupedGemmConfig, GroupedGemmShape, MoeConfig,
    MoeDataflow, MoeShape, QuantGemmConfig, QuantGemmShape, ScanConfig, ScanShape,
};

/// Slices per dimension in the Latin-hypercube schedule of one cell.
pub const STRATA: usize = 4;

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The family of a drawn program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    Fp16Gemm,
    Bf16Gemm,
    Fp8Gemm,
    WarpSpecializedGemm,
    W4a16Gemm,
    MoeEfficient,
    MoeTriton,
    GroupedGemm,
    AttentionForward,
    AttentionDecoding,
    SelectiveScan,
}

impl Family {
    pub fn label(self) -> &'static str {
        match self {
            Family::Fp16Gemm => "fp16_gemm",
            Family::Bf16Gemm => "bf16_gemm",
            Family::Fp8Gemm => "fp8_blockwise_gemm",
            Family::WarpSpecializedGemm => "warp_specialized_gemm",
            Family::W4a16Gemm => "w4a16_gemm",
            Family::MoeEfficient => "mixed_type_moe.efficient",
            Family::MoeTriton => "mixed_type_moe.triton",
            Family::GroupedGemm => "grouped_gemm",
            Family::AttentionForward => "mha_forward",
            Family::AttentionDecoding => "mha_decoding",
            Family::SelectiveScan => "selective_scan",
        }
    }
}

/// Which architecture a cell compiles for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    A100,
    H100,
}

impl Arch {
    pub fn gpu(self) -> GpuArch {
        match self {
            Arch::A100 => GpuArch::a100(),
            Arch::H100 => GpuArch::h100(),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Arch::A100 => "A100",
            Arch::H100 => "H100",
        }
    }
}

/// One drawn program plus the properties the run records about it.
#[derive(Debug, Clone)]
pub struct Draw {
    pub family: Family,
    pub arch: Arch,
    /// The tile-level problem: family, tile configuration, dtype and arch.
    /// Draws sharing it differ only in problem shape, so the thread-value
    /// solve they run is the same.
    pub tile_key: String,
    pub program: Program,
}

/// Visits the entries of a template in rounds, each round in a fresh seeded
/// order, so every entry gets the same share of visits whatever the seed.
#[derive(Debug, Clone)]
pub struct Rounds {
    template: Vec<usize>,
    /// The current round, consumed from the back.
    round: Vec<usize>,
}

impl Rounds {
    pub fn new(template: Vec<usize>) -> Self {
        assert!(!template.is_empty(), "a round needs at least one entry");
        Rounds {
            template,
            round: Vec::new(),
        }
    }

    /// Visits in one round (the template's length).
    pub fn per_round(&self) -> usize {
        self.template.len()
    }

    pub fn next(&mut self, rng: &mut Rng) -> usize {
        if self.round.is_empty() {
            self.round = self.template.clone();
            rng.shuffle(&mut self.round);
        }
        self.round.pop().expect("a round is never empty")
    }
}

/// Latin-hypercube uniforms: each dimension is cut into [`STRATA`] equal
/// slices, and every block of [`STRATA`] draws visits each slice of each
/// dimension once, in a seeded order.
#[derive(Debug, Clone)]
struct Strata {
    dims: usize,
    /// Per-dimension slice order for the current block of draws.
    perms: Vec<Vec<usize>>,
    drawn: usize,
}

impl Strata {
    fn new(dims: usize) -> Self {
        Strata {
            dims,
            perms: Vec::new(),
            drawn: 0,
        }
    }

    fn next(&mut self, rng: &mut Rng) -> Vec<f64> {
        let j = self.drawn % STRATA;
        if j == 0 {
            self.perms = (0..self.dims)
                .map(|_| {
                    let mut p: Vec<usize> = (0..STRATA).collect();
                    rng.shuffle(&mut p);
                    p
                })
                .collect();
        }
        self.drawn += 1;
        self.perms
            .iter()
            .map(|p| (p[j] as f64 + rng.unit()) / STRATA as f64)
            .collect()
    }
}

/// One (family, arch) cell and its Latin-hypercube state.
#[derive(Debug)]
struct Cell {
    family: Family,
    arch: Arch,
    strata: Strata,
}

/// Uniforms per draw; each family reads the first few.
const DIMS: usize = 5;

impl Cell {
    fn new(family: Family, arch: Arch) -> Self {
        Cell {
            family,
            arch,
            strata: Strata::new(DIMS),
        }
    }

    fn uniforms(&mut self, rng: &mut Rng) -> [f64; DIMS] {
        let mut u = [0.0; DIMS];
        u.copy_from_slice(&self.strata.next(rng));
        u
    }
}

/// `lo·(hi/lo)^u` rounded down to a multiple of `step` (at least `step`).
fn log_pick(u: f64, lo: usize, hi: usize, step: usize) -> usize {
    let v = lo as f64 * (hi as f64 / lo as f64).powf(u);
    ((v as usize / step) * step).max(step)
}

/// Element `floor(u·len)` of `choices`.
fn pick<T: Copy>(u: f64, choices: &[T]) -> T {
    choices[((u * choices.len() as f64) as usize).min(choices.len() - 1)]
}

fn gemm_configs() -> [GemmConfig; 4] {
    let base = GemmConfig::default();
    [
        base,
        GemmConfig {
            block_n: 64,
            ..base
        },
        GemmConfig {
            block_m: 64,
            block_n: 64,
            block_k: 64,
            stages: 2,
            ..base
        },
        GemmConfig {
            block_k: 64,
            stages: 4,
            ..base
        },
    ]
}

fn build(family: Family, arch: Arch, u: [f64; DIMS]) -> Draw {
    let (program, tile) = match family {
        Family::Fp16Gemm | Family::Bf16Gemm => {
            let config = pick(u[3], &gemm_configs());
            let shape = GemmShape::new(
                log_pick(u[0], 256, 8192, config.block_m),
                log_pick(u[1], 256, 8192, config.block_n),
                log_pick(u[2], 512, 8192, config.block_k),
            );
            let program = if family == Family::Fp16Gemm {
                fp16_gemm(shape, config)
            } else {
                bf16_gemm(shape, config)
            };
            (program, format!("{config:?}"))
        }
        Family::Fp8Gemm => {
            let config = pick(u[3], &gemm_configs());
            let shape = GemmShape::new(
                log_pick(u[0], 256, 8192, config.block_m),
                log_pick(u[1], 256, 8192, config.block_n),
                log_pick(u[2], 512, 8192, 64),
            );
            (fp8_blockwise_gemm(shape, config), format!("{config:?}"))
        }
        Family::WarpSpecializedGemm => {
            let base = GemmConfig::warp_specialized_hopper();
            let config = pick(
                u[3],
                &[
                    base,
                    GemmConfig {
                        block_n: 64,
                        ..base
                    },
                ],
            );
            let shape = GemmShape::new(
                log_pick(u[0], 512, 8192, config.block_m),
                log_pick(u[1], 512, 8192, config.block_n),
                log_pick(u[2], 512, 8192, config.block_k),
            );
            (warp_specialized_gemm(shape, config), format!("{config:?}"))
        }
        Family::W4a16Gemm => {
            let group = pick(u[3], &[64usize, 128]);
            let shape = QuantGemmShape::new(
                log_pick(u[0], 1, 256, 1),
                log_pick(u[1], 1024, 16384, 128),
                log_pick(u[2], 1024, 8192, 128),
                group,
            );
            let config = QuantGemmConfig::for_shape(&shape);
            (
                w4a16_gemm(shape, config),
                format!("{config:?} group={group}"),
            )
        }
        Family::MoeEfficient | Family::MoeTriton => {
            let shape = MoeShape {
                tokens: log_pick(u[0], 1, 512, 1),
                hidden: pick(u[1], &[4096usize, 7168]),
                intermediate: log_pick(u[2], 1024, 4096, 128),
                experts: pick(u[3], &[64usize, 256]),
                top_k: 8,
            };
            let dataflow = if family == Family::MoeEfficient {
                MoeDataflow::Efficient
            } else {
                MoeDataflow::TritonStyle
            };
            let config = MoeConfig::default();
            (
                mixed_type_moe(shape, config, dataflow),
                format!("{config:?}"),
            )
        }
        Family::GroupedGemm => {
            let shape = GroupedGemmShape::top_k_routed(
                pick(u[3], &[8usize, 16, 32, 64]),
                log_pick(u[0], 1, 512, 1),
                2,
                log_pick(u[1], 1024, 14336, 128),
                log_pick(u[2], 1024, 8192, 64),
            );
            let config = GroupedGemmConfig::default();
            (grouped_gemm(&shape, config), format!("{config:?}"))
        }
        Family::AttentionForward => {
            let config = pick(
                u[3],
                &[
                    AttentionConfig::default(),
                    AttentionConfig {
                        block_q: 128,
                        threads: 256,
                        ..AttentionConfig::default()
                    },
                ],
            );
            let head_dim = pick(u[4], &[64usize, 128]);
            let shape = AttentionShape::forward(
                log_pick(u[0], 1, 16, 1),
                pick(u[1], &[8usize, 16, 32, 64]),
                log_pick(u[2], 512, 16384, config.block_kv),
                head_dim,
            );
            (
                mha_forward(shape, config),
                format!("{config:?} head_dim={head_dim}"),
            )
        }
        Family::AttentionDecoding => {
            let config = pick(
                u[3],
                &[
                    AttentionConfig::default(),
                    AttentionConfig {
                        block_kv: 128,
                        ..AttentionConfig::default()
                    },
                ],
            );
            let head_dim = pick(u[4], &[64usize, 128]);
            let shape = AttentionShape::decoding(
                log_pick(u[0], 1, 128, 1),
                pick(u[1], &[8usize, 16, 32, 64]),
                log_pick(u[2], 512, 32768, config.block_kv),
                head_dim,
            );
            (
                mha_decoding(shape, config),
                format!("{config:?} head_dim={head_dim}"),
            )
        }
        Family::SelectiveScan => {
            let state = pick(u[3], &[16usize, 32]);
            let config = ScanConfig::default();
            let shape = ScanShape::new(
                log_pick(u[0], 1, 64, 1),
                log_pick(u[1], 1024, 8192, config.block_dim),
                state,
                log_pick(u[2], 256, 16384, config.block_seq),
            );
            (
                selective_scan(shape, config),
                format!("{config:?} state={state}"),
            )
        }
    };
    let program = program.unwrap_or_else(|e| {
        panic!(
            "the {} draw space only holds buildable programs: {e}",
            family.label()
        )
    });
    Draw {
        family,
        arch,
        tile_key: format!("{} {} {}", family.label(), arch.label(), tile),
        program,
    }
}

/// The cells of each compile workload. A family listed twice carries twice
/// the weight.
fn cells(workload: &str) -> Vec<(Family, Arch)> {
    use Arch::*;
    use Family::*;
    match workload {
        "compile-matmul" => vec![
            (Fp16Gemm, A100),
            (Fp16Gemm, H100),
            (Bf16Gemm, A100),
            (Bf16Gemm, H100),
            (Fp8Gemm, H100),
            (WarpSpecializedGemm, H100),
            (W4a16Gemm, A100),
            (W4a16Gemm, H100),
            (MoeEfficient, A100),
            (MoeEfficient, H100),
            (MoeTriton, A100),
            (MoeTriton, H100),
            (GroupedGemm, A100),
            (GroupedGemm, H100),
        ],
        // Attention forward takes two thirds of the draws. With half, the
        // median compile sat on the edge between the forward cluster (median
        // ~20-27 ms) and the decoding and scan clusters (~3-10 ms), and
        // jumped between them from run to run.
        "compile-fused" => vec![
            (AttentionForward, A100),
            (AttentionForward, H100),
            (AttentionForward, A100),
            (AttentionForward, H100),
            (AttentionForward, A100),
            (AttentionForward, H100),
            (AttentionForward, A100),
            (AttentionForward, H100),
            (AttentionDecoding, A100),
            (AttentionDecoding, H100),
            (SelectiveScan, A100),
            (SelectiveScan, H100),
        ],
        other => panic!("{other} is not a compile workload"),
    }
}

/// The endless, seeded draw sequence of one compile workload.
#[derive(Debug)]
pub struct DrawStream {
    rng: Rng,
    cells: Vec<Cell>,
    /// Rounds over the workload's cell list (indices into `cells`).
    rounds: Rounds,
}

impl DrawStream {
    pub fn new(workload: &str, seed: u64) -> Self {
        // Repeated (family, arch) pairs share one Latin-hypercube state, so
        // a double weight means twice the draws from one stratified stream.
        let mut unique: Vec<Cell> = Vec::new();
        let mut template = Vec::new();
        for (family, arch) in cells(workload) {
            let index = match unique
                .iter()
                .position(|c| c.family == family && c.arch == arch)
            {
                Some(i) => i,
                None => {
                    unique.push(Cell::new(family, arch));
                    unique.len() - 1
                }
            };
            template.push(index);
        }
        DrawStream {
            rng: Rng::new(seed),
            cells: unique,
            rounds: Rounds::new(template),
        }
    }

    /// Draws in one round (the workload's cell count).
    pub fn round_len(&self) -> usize {
        self.rounds.per_round()
    }

    /// One fixed, mid-range program per distinct cell, for warm-up.
    pub fn warmup_draws(&self) -> Vec<Draw> {
        self.cells
            .iter()
            .map(|c| build(c.family, c.arch, [0.5; DIMS]))
            .collect()
    }

    pub fn next_draw(&mut self) -> Draw {
        let index = self.rounds.next(&mut self.rng);
        let cell = &mut self.cells[index];
        let u = cell.uniforms(&mut self.rng);
        build(cell.family, cell.arch, u)
    }
}

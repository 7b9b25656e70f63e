//! Data-movement instruction atoms: vectorized global/shared loads and
//! stores, `cp.async`, `ldmatrix` and the Tensor Memory Accelerator.
//!
//! Each atom records how many bytes a single thread moves per invocation and
//! the alignment the contiguous run must satisfy. Wider atoms are preferred
//! by the synthesis engine (Section IV-B: the anchor copy is "constructed by
//! coalescing memory accesses" and the vector size is "determined by
//! analyzing the divisibility of the strides").

use std::fmt;

use hexcute_layout::{Layout, TvLayout};

use crate::dtype::{DType, MemSpace};
use crate::gpu::GpuArch;

/// The flavour of a copy instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyKind {
    /// Plain vectorized load/store through registers (`ld.global`, `st.global`,
    /// `ld.shared`, `st.shared`).
    Vector,
    /// Asynchronous global→shared copy bypassing registers (`cp.async`).
    CpAsync,
    /// Warp-collective shared→register matrix load (`ldmatrix.xN`).
    LdMatrix {
        /// Number of 8×8 matrices loaded per instruction (1, 2 or 4).
        matrices: usize,
    },
    /// Bulk tensor copy issued by a single thread (Hopper TMA).
    Tma,
    /// Vectorized shared→register load of *packed sub-byte* elements followed
    /// by an in-register unpack (`lop3`/`prmt` bit manipulation, the Marlin
    /// dequant-in-flight weight path): each thread loads a contiguous run of
    /// packed nibbles and expands them into its own lanes, so no inter-thread
    /// exchange is needed before the dequantization arithmetic.
    Unpack,
    /// Scalar fallback (one element per thread per instruction).
    Scalar,
}

/// Which memory level determines the completion latency of the copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyClass {
    /// Served by DRAM.
    Dram,
    /// Served by the L2 cache.
    L2,
    /// Served by shared memory.
    Smem,
}

/// A copy instruction atom.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyAtom {
    /// PTX-style mnemonic, e.g. `ld.global.v4.b32` or `cp.async.cg.shared.global.16`.
    pub name: String,
    /// Instruction flavour.
    pub kind: CopyKind,
    /// Source memory space.
    pub src: MemSpace,
    /// Destination memory space.
    pub dst: MemSpace,
    /// Bytes moved by one thread per invocation (for TMA: bytes per issued
    /// instruction, since a single thread issues the copy).
    pub bytes_per_thread: usize,
    /// Number of threads participating collectively (32 for warp-wide
    /// instructions, 1 for TMA).
    pub threads: usize,
    /// Required alignment (and contiguity) of each thread's access in bytes.
    pub alignment_bytes: usize,
    /// Whether the copy is asynchronous (completion overlaps with compute).
    pub is_async: bool,
    /// Minimum compute capability.
    pub min_cc: (u32, u32),
    /// Cycles the issuing warp is occupied per invocation.
    pub issue_cycles: f64,
    /// Which memory level determines the completion latency.
    pub latency_class: LatencyClass,
}

impl CopyAtom {
    /// Elements of `dtype` moved per thread per invocation.
    pub fn elements_per_thread(&self, dtype: DType) -> usize {
        dtype.elements_per_bytes(self.bytes_per_thread)
    }

    /// Completion latency on the given architecture in cycles.
    pub fn completion_cycles(&self, arch: &GpuArch) -> f64 {
        match self.latency_class {
            LatencyClass::Dram => arch.dram_latency_cycles,
            LatencyClass::L2 => arch.l2_latency_cycles,
            LatencyClass::Smem => arch.smem_latency_cycles,
        }
    }

    /// Whether this atom is usable on the architecture.
    pub fn available_on(&self, arch: &GpuArch) -> bool {
        arch.supports_cc(self.min_cc) && (self.kind != CopyKind::Tma || arch.has_tma)
    }

    /// The source and destination thread-value layouts of one invocation for
    /// elements of `dtype`, over a flat tile of `threads × elements_per_thread`
    /// elements.
    ///
    /// For plain vector/scalar/`cp.async` copies the source and destination
    /// distributions coincide (each thread moves its own contiguous vector).
    /// `ldmatrix` redistributes data across the warp and therefore has
    /// distinct source and destination layouts (Fig. 7 of the paper).
    /// Returns `None` for TMA, whose source side is not described by a
    /// thread-value layout (it is issued by a single thread).
    pub fn tv_layouts(&self, dtype: DType) -> Option<(TvLayout, TvLayout)> {
        match self.kind {
            CopyKind::Tma => None,
            CopyKind::LdMatrix { matrices } => Some(ldmatrix_layouts(matrices)),
            _ => {
                let elems = self.elements_per_thread(dtype).max(1);
                let tile = vec![self.threads * elems];
                let tv = TvLayout::contiguous(self.threads, elems, tile)
                    .expect("contiguous copy layout is well-formed");
                Some((tv.clone(), tv))
            }
        }
    }
}

impl fmt::Display for CopyAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} B/thread, {}→{})",
            self.name, self.bytes_per_thread, self.src, self.dst
        )
    }
}

/// The source (`p`) and destination (`q`) thread-value layouts of
/// `ldmatrix.xN` (Fig. 7 of the paper).
///
/// The destination layout matches the Tensor Core A-operand fragment so that
/// an `ldmatrix`-loaded tile can feed `mma` without any inter-thread data
/// exchange — the property the Marlin dataflow of Fig. 5 relies on.
pub fn ldmatrix_layouts(matrices: usize) -> (TvLayout, TvLayout) {
    match matrices {
        4 => {
            // Tile: 16x16 halves (four 8x8 matrices arranged 2x2).
            let p = TvLayout::new(
                Layout::from_flat(&[8, 2, 2], &[1, 8, 128]),
                Layout::from_mode(8, 16),
                vec![16, 16],
            )
            .expect("ldmatrix.x4 source layout");
            let q = TvLayout::new(
                Layout::from_flat(&[4, 8], &[32, 1]),
                Layout::from_flat(&[2, 2, 2], &[16, 8, 128]),
                vec![16, 16],
            )
            .expect("ldmatrix.x4 destination layout");
            (p, q)
        }
        2 => {
            // Tile: 16x8 halves (two 8x8 matrices stacked along M).
            let p = TvLayout::new(
                Layout::from_flat(&[8, 2, 2], &[1, 8, 0]),
                Layout::from_mode(8, 16),
                vec![16, 8],
            )
            .expect("ldmatrix.x2 source layout");
            let q = TvLayout::new(
                Layout::from_flat(&[4, 8], &[32, 1]),
                Layout::from_flat(&[2, 2], &[16, 8]),
                vec![16, 8],
            )
            .expect("ldmatrix.x2 destination layout");
            (p, q)
        }
        1 => {
            // Tile: one 8x8 matrix.
            let p = TvLayout::new(
                Layout::from_flat(&[8, 4], &[1, 0]),
                Layout::from_mode(8, 8),
                vec![8, 8],
            )
            .expect("ldmatrix.x1 source layout");
            let q = TvLayout::new(
                Layout::from_flat(&[4, 8], &[16, 1]),
                Layout::from_mode(2, 8),
                vec![8, 8],
            )
            .expect("ldmatrix.x1 destination layout");
            (p, q)
        }
        other => panic!("ldmatrix supports 1, 2 or 4 matrices, not {other}"),
    }
}

fn vector_atom(
    name: &str,
    src: MemSpace,
    dst: MemSpace,
    bytes: usize,
    latency_class: LatencyClass,
    issue: f64,
) -> CopyAtom {
    CopyAtom {
        name: name.to_string(),
        kind: if bytes <= 1 {
            CopyKind::Scalar
        } else {
            CopyKind::Vector
        },
        src,
        dst,
        bytes_per_thread: bytes,
        threads: 32,
        alignment_bytes: bytes,
        is_async: false,
        min_cc: (7, 0),
        issue_cycles: issue,
        latency_class,
    }
}

/// The full copy-instruction catalog for an architecture, covering every
/// source/destination memory-space pair, widest instructions first.
pub fn copy_catalog(arch: &GpuArch) -> Vec<CopyAtom> {
    let mut atoms = Vec::new();

    // Global → register loads.
    for bytes in [16, 8, 4, 2, 1] {
        let suffix = match bytes {
            16 => "v4.b32",
            8 => "v2.b32",
            4 => "b32",
            2 => "b16",
            _ => "b8",
        };
        atoms.push(vector_atom(
            &format!("ld.global.{suffix}"),
            MemSpace::Global,
            MemSpace::Register,
            bytes,
            LatencyClass::Dram,
            2.0,
        ));
    }
    // Register → global stores.
    for bytes in [16, 8, 4, 2, 1] {
        let suffix = match bytes {
            16 => "v4.b32",
            8 => "v2.b32",
            4 => "b32",
            2 => "b16",
            _ => "b8",
        };
        atoms.push(vector_atom(
            &format!("st.global.{suffix}"),
            MemSpace::Register,
            MemSpace::Global,
            bytes,
            LatencyClass::Dram,
            2.0,
        ));
    }
    // Global → shared asynchronous copies (SM80+).
    for bytes in [16, 8, 4] {
        atoms.push(CopyAtom {
            name: format!("cp.async.cg.shared.global.{bytes}"),
            kind: CopyKind::CpAsync,
            src: MemSpace::Global,
            dst: MemSpace::Shared,
            bytes_per_thread: bytes,
            threads: 32,
            alignment_bytes: bytes,
            is_async: true,
            min_cc: (8, 0),
            issue_cycles: 2.0,
            latency_class: LatencyClass::Dram,
        });
    }
    // Hopper TMA bulk copies (issued by one thread, 128-byte granularity).
    if arch.has_tma {
        atoms.push(CopyAtom {
            name: "cp.async.bulk.tensor (TMA)".to_string(),
            kind: CopyKind::Tma,
            src: MemSpace::Global,
            dst: MemSpace::Shared,
            bytes_per_thread: 16384,
            threads: 1,
            alignment_bytes: 128,
            is_async: true,
            min_cc: (9, 0),
            issue_cycles: 20.0,
            latency_class: LatencyClass::Dram,
        });
        atoms.push(CopyAtom {
            name: "cp.async.bulk.tensor.store (TMA)".to_string(),
            kind: CopyKind::Tma,
            src: MemSpace::Shared,
            dst: MemSpace::Global,
            bytes_per_thread: 16384,
            threads: 1,
            alignment_bytes: 128,
            is_async: true,
            min_cc: (9, 0),
            issue_cycles: 20.0,
            latency_class: LatencyClass::Dram,
        });
    }
    // Shared → register unpack loads for packed sub-byte weight tensors: a
    // plain vector load of the packed nibbles plus the in-register unpack
    // sequence (charged as one extra issue cycle). Only offered by the
    // synthesis engine when the tensor's dtype is sub-byte.
    for bytes in [16, 8, 4] {
        let suffix = match bytes {
            16 => "b128",
            8 => "b64",
            _ => "b32",
        };
        atoms.push(CopyAtom {
            name: format!("ld.shared.{suffix}.unpack"),
            kind: CopyKind::Unpack,
            src: MemSpace::Shared,
            dst: MemSpace::Register,
            bytes_per_thread: bytes,
            threads: 32,
            alignment_bytes: bytes,
            is_async: false,
            min_cc: (7, 0),
            issue_cycles: 3.0,
            latency_class: LatencyClass::Smem,
        });
    }
    // Shared → register: ldmatrix then plain vector loads.
    for matrices in [4, 2, 1] {
        atoms.push(CopyAtom {
            name: format!("ldmatrix.sync.aligned.x{matrices}.m8n8"),
            kind: CopyKind::LdMatrix { matrices },
            src: MemSpace::Shared,
            dst: MemSpace::Register,
            bytes_per_thread: 4 * matrices,
            threads: 32,
            alignment_bytes: 16,
            is_async: false,
            min_cc: (7, 5),
            issue_cycles: 2.0,
            latency_class: LatencyClass::Smem,
        });
    }
    for bytes in [16, 8, 4, 2, 1] {
        let suffix = match bytes {
            16 => "b128",
            8 => "b64",
            4 => "b32",
            2 => "b16",
            _ => "b8",
        };
        atoms.push(vector_atom(
            &format!("ld.shared.{suffix}"),
            MemSpace::Shared,
            MemSpace::Register,
            bytes,
            LatencyClass::Smem,
            2.0,
        ));
        atoms.push(vector_atom(
            &format!("st.shared.{suffix}"),
            MemSpace::Register,
            MemSpace::Shared,
            bytes,
            LatencyClass::Smem,
            2.0,
        ));
    }

    atoms.retain(|a| a.available_on(arch));
    atoms
}

/// All copy atoms moving data from `src` to `dst` on the architecture,
/// widest (per-thread bytes) first.
pub fn copy_candidates(arch: &GpuArch, src: MemSpace, dst: MemSpace) -> Vec<CopyAtom> {
    let mut atoms: Vec<CopyAtom> = copy_catalog(arch)
        .into_iter()
        .filter(|a| a.src == src && a.dst == dst)
        .collect();
    atoms.sort_by_key(|a| std::cmp::Reverse(a.bytes_per_thread));
    atoms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_space_pairs() {
        let arch = GpuArch::a100();
        for (src, dst) in [
            (MemSpace::Global, MemSpace::Register),
            (MemSpace::Global, MemSpace::Shared),
            (MemSpace::Shared, MemSpace::Register),
            (MemSpace::Register, MemSpace::Shared),
            (MemSpace::Register, MemSpace::Global),
        ] {
            assert!(
                !copy_candidates(&arch, src, dst).is_empty(),
                "no copy atoms for {src} → {dst}"
            );
        }
    }

    #[test]
    fn candidates_are_sorted_widest_first() {
        let arch = GpuArch::h100();
        for (src, dst) in [
            (MemSpace::Global, MemSpace::Register),
            (MemSpace::Shared, MemSpace::Register),
        ] {
            let atoms = copy_candidates(&arch, src, dst);
            for pair in atoms.windows(2) {
                assert!(pair[0].bytes_per_thread >= pair[1].bytes_per_thread);
            }
        }
    }

    #[test]
    fn tma_only_on_hopper() {
        let a100 = copy_catalog(&GpuArch::a100());
        let h100 = copy_catalog(&GpuArch::h100());
        assert!(!a100.iter().any(|a| a.kind == CopyKind::Tma));
        assert!(h100.iter().any(|a| a.kind == CopyKind::Tma));
    }

    #[test]
    fn cp_async_bypasses_registers() {
        let arch = GpuArch::a100();
        let atoms = copy_candidates(&arch, MemSpace::Global, MemSpace::Shared);
        assert!(atoms.iter().all(|a| a.is_async || a.kind == CopyKind::Tma));
        assert_eq!(atoms[0].bytes_per_thread, 16);
    }

    #[test]
    fn vector_copy_layouts_are_contiguous_and_exclusive() {
        let arch = GpuArch::a100();
        let atom = &copy_candidates(&arch, MemSpace::Global, MemSpace::Register)[0];
        let (p, q) = atom.tv_layouts(DType::F16).unwrap();
        assert_eq!(p, q);
        assert!(p.is_exclusive());
        assert_eq!(p.values_per_thread(), 8);
        // INT4 elements pack twice as densely.
        let (p4, _) = atom.tv_layouts(DType::I4).unwrap();
        assert_eq!(p4.values_per_thread(), 32);
    }

    #[test]
    fn ldmatrix_x4_layouts_match_the_paper() {
        let (p, q) = ldmatrix_layouts(4);
        assert_eq!(p.num_threads(), 32);
        assert_eq!(p.values_per_thread(), 8);
        assert!(p.is_exclusive());
        assert!(q.is_exclusive());
        // Thread 0 provides the address of row 0 of the first 8x8 matrix and
        // covers its 8 contiguous (column-direction) elements.
        assert_eq!(p.tile_coords(0, 0), vec![0, 0]);
        assert_eq!(p.tile_coords(0, 7), vec![0, 7]);
        // Thread 8 covers row 8 (second matrix), thread 16 column 8 (third).
        assert_eq!(p.tile_coords(8, 0), vec![8, 0]);
        assert_eq!(p.tile_coords(16, 0), vec![0, 8]);
        // The destination distribution equals the mma A-operand fragment:
        // thread 0 holds (0,0), (0,1), (8,0), (8,1), (0,8), ...
        assert_eq!(q.tile_coords(0, 0), vec![0, 0]);
        assert_eq!(q.tile_coords(0, 1), vec![0, 1]);
        assert_eq!(q.tile_coords(0, 2), vec![8, 0]);
        assert_eq!(q.tile_coords(0, 4), vec![0, 8]);
    }

    #[test]
    fn ldmatrix_destination_equals_mma_a_fragment() {
        let (_, q) = ldmatrix_layouts(4);
        let mma = crate::mma::mma_m16n8k16(DType::F16, DType::F32);
        assert_eq!(q.as_layout(), mma.a.as_layout());
        let (_, q2) = ldmatrix_layouts(2);
        assert_eq!(q2.as_layout(), mma.c.as_layout());
    }

    #[test]
    #[should_panic(expected = "ldmatrix supports 1, 2 or 4")]
    fn ldmatrix_rejects_bad_matrix_count() {
        ldmatrix_layouts(3);
    }

    #[test]
    fn completion_latency_tracks_memory_level() {
        let arch = GpuArch::a100();
        let global = &copy_candidates(&arch, MemSpace::Global, MemSpace::Register)[0];
        let shared = &copy_candidates(&arch, MemSpace::Shared, MemSpace::Register)[0];
        assert!(global.completion_cycles(&arch) > shared.completion_cycles(&arch));
    }

    #[test]
    fn unpack_atoms_cover_the_packed_weight_path() {
        let arch = GpuArch::a100();
        let unpacks: Vec<CopyAtom> = copy_candidates(&arch, MemSpace::Shared, MemSpace::Register)
            .into_iter()
            .filter(|a| a.kind == CopyKind::Unpack)
            .collect();
        assert_eq!(unpacks.len(), 3);
        // The widest unpack moves 32 packed int4 elements per thread and
        // costs one extra issue cycle over the plain vector load.
        let widest = &unpacks[0];
        assert_eq!(widest.bytes_per_thread, 16);
        assert_eq!(widest.elements_per_thread(DType::I4), 32);
        assert!(widest.issue_cycles > 2.0);
        // Its thread-value layout is the plain contiguous distribution (the
        // unpack happens within each thread's own lanes).
        let (p, q) = widest.tv_layouts(DType::I4).unwrap();
        assert_eq!(p, q);
        assert!(p.is_exclusive());
    }

    #[test]
    fn tma_has_no_tv_layout() {
        let arch = GpuArch::h100();
        let tma = copy_catalog(&arch)
            .into_iter()
            .find(|a| a.kind == CopyKind::Tma)
            .unwrap();
        assert!(tma.tv_layouts(DType::F16).is_none());
        assert_eq!(tma.threads, 1);
    }
}

//! Shared-memory layout synthesis (Section V of the paper).
//!
//! The layout of a shared tensor is represented as `M = S ∘ m`: a base
//! memory layout `m` subject to instruction alignment constraints, composed
//! with a swizzle `S` that permutes addresses to avoid bank conflicts.
//! Constraints from every copy touching the buffer are *unified*; the
//! undetermined strides of the unified constraint are then materialized into
//! a concrete compact layout, and finally a swizzle is selected by counting
//! bank conflicts of the actual warp access patterns.

use std::fmt;

use hexcute_arch::{CopyAtom, CopyKind, DType, GpuArch};
use hexcute_ir::{OpKind, Program};
use hexcute_layout::{IntTuple, Layout, Swizzle, SwizzledLayout};

use crate::choice::{Candidate, CopyChoice};
use crate::error::SynthesisError;
use crate::options::SynthesisOptions;

/// An interned constraint-conflict code: why unification or materialization
/// of a shared-memory layout constraint failed.
///
/// The prefix-shared search stores one of these per tensor per tree node and
/// clones that state along every stateful edge, so the type is deliberately
/// `Copy` — the hot path never allocates for an error. The human-readable
/// description (what the old `Result<_, String>` carried) is produced by the
/// `Display` impl only at the API boundary
/// ([`crate::synthesize_smem_layouts`] converting into
/// [`SynthesisError::SmemUnsatisfiable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintError {
    /// Two constraints describe tiles of different ranks.
    RankMismatch,
    /// Two constraints disagree on a dimension's total extent.
    ExtentMismatch {
        /// Total extent on the left-hand side.
        a: usize,
        /// Total extent on the right-hand side.
        b: usize,
    },
    /// Mode factorizations cannot be refined into a common one.
    IncompatibleFactorization {
        /// Remaining left-hand extent at the point of failure.
        a: usize,
        /// Remaining right-hand extent at the point of failure.
        b: usize,
    },
    /// Two determined strides disagree for one shared mode.
    StrideConflict {
        /// The left-hand stride.
        a: usize,
        /// The right-hand stride.
        b: usize,
        /// The size of the shared mode.
        size: usize,
    },
    /// Two different dimensions both require stride-1 modes (Case 2 of
    /// Fig. 10(c)): distinct elements would alias.
    AliasingContiguity {
        /// The first dimension demanding contiguity.
        first: usize,
        /// The second dimension demanding contiguity.
        second: usize,
    },
    /// A determined mode cannot be placed at the next free address offset.
    ModePlacement {
        /// The mode's extent.
        size: usize,
        /// The mode's determined stride.
        stride: usize,
        /// The dimension the mode belongs to.
        dim: usize,
        /// The offset at which placement was attempted.
        offset: usize,
    },
    /// The materialized layout maps distinct coordinates to one address.
    NotInjective,
    /// The assembled shape/stride pair was rejected by the layout algebra.
    LayoutBuild,
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConstraintError::RankMismatch => {
                write!(f, "constraints describe tiles of different ranks")
            }
            ConstraintError::ExtentMismatch { a, b } => {
                write!(f, "dimension extents differ ({a} vs {b})")
            }
            ConstraintError::IncompatibleFactorization { a, b } => {
                write!(f, "mode factorizations are incompatible ({a} vs {b})")
            }
            ConstraintError::StrideConflict { a, b, size } => {
                write!(f, "conflicting strides {a} and {b} for a shared mode of size {size}")
            }
            ConstraintError::AliasingContiguity { first, second } => write!(
                f,
                "dimensions [{first}, {second}] all require stride-1 modes; distinct elements would alias"
            ),
            ConstraintError::ModePlacement {
                size,
                stride,
                dim,
                offset,
            } => write!(
                f,
                "mode {size}:{stride} of dimension {dim} cannot be placed at offset {offset}"
            ),
            ConstraintError::NotInjective => {
                write!(f, "materialized layout is not injective")
            }
            ConstraintError::LayoutBuild => {
                write!(f, "materialized shape and stride are inconsistent")
            }
        }
    }
}

impl std::error::Error for ConstraintError {}

/// One factor of a layout constraint: a mode whose stride is either pinned
/// (e.g. `1` for an alignment requirement) or still a free variable
/// (`D₁, …, Dₙ` in Fig. 10 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintMode {
    /// The extent of the mode.
    pub size: usize,
    /// The stride, if already determined.
    pub stride: Option<usize>,
}

impl ConstraintMode {
    /// A mode with a known stride.
    pub fn known(size: usize, stride: usize) -> Self {
        ConstraintMode {
            size,
            stride: Some(stride),
        }
    }

    /// A mode whose stride is a free variable.
    pub fn free(size: usize) -> Self {
        ConstraintMode { size, stride: None }
    }
}

/// A partially determined layout for a shared-memory tile: one factor list
/// per tile dimension, innermost factor first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutConstraint {
    dims: Vec<Vec<ConstraintMode>>,
}

impl LayoutConstraint {
    /// The unconstrained layout of a tile (every dimension a single free
    /// mode).
    pub fn unconstrained(tile: &[usize]) -> Self {
        LayoutConstraint {
            dims: tile
                .iter()
                .map(|&s| vec![ConstraintMode::free(s)])
                .collect(),
        }
    }

    /// The constraint generated by a copy that accesses `vector` contiguous
    /// elements along dimension `dim` (the `(8 : 1)` red-box mode of
    /// Fig. 10(b)).
    pub fn aligned(tile: &[usize], dim: usize, vector: usize) -> Self {
        let mut c = LayoutConstraint::unconstrained(tile);
        let extent = tile[dim];
        let vector = vector.clamp(1, extent);
        if vector > 1 && extent.is_multiple_of(vector) {
            if vector == extent {
                c.dims[dim] = vec![ConstraintMode::known(extent, 1)];
            } else {
                c.dims[dim] = vec![
                    ConstraintMode::known(vector, 1),
                    ConstraintMode::free(extent / vector),
                ];
            }
        }
        c
    }

    /// The per-dimension factor lists.
    pub fn dims(&self) -> &[Vec<ConstraintMode>] {
        &self.dims
    }

    /// Unifies two constraints over the same tile, refining modes where
    /// needed (Fig. 10(c)). Returns an error when the determined strides
    /// conflict.
    ///
    /// # Errors
    ///
    /// Returns the interned [`ConstraintError`] code of the conflict (its
    /// `Display` impl produces the human-readable description).
    pub fn unify(&self, other: &LayoutConstraint) -> Result<LayoutConstraint, ConstraintError> {
        if self.dims.len() != other.dims.len() {
            return Err(ConstraintError::RankMismatch);
        }
        let mut dims = Vec::with_capacity(self.dims.len());
        for (a, b) in self.dims.iter().zip(other.dims.iter()) {
            dims.push(unify_dim(a, b)?);
        }
        Ok(LayoutConstraint { dims })
    }

    /// Materializes the undetermined strides into a concrete, compact layout
    /// whose hierarchy mirrors the tile dimensions.
    ///
    /// Dimensions carrying a stride-1 alignment requirement are placed
    /// innermost. Two different dimensions both demanding stride-1 modes are
    /// a conflict (Case 2 of Fig. 10(c)): distinct elements would map to the
    /// same address.
    ///
    /// # Errors
    ///
    /// Returns the interned [`ConstraintError`] code when no valid assignment
    /// exists.
    pub fn materialize(&self) -> Result<Layout, ConstraintError> {
        // Which dimensions require contiguity (a known stride-1 mode of size > 1)?
        let contiguous_dims: Vec<usize> = self
            .dims
            .iter()
            .enumerate()
            .filter(|(_, modes)| modes.iter().any(|m| m.stride == Some(1) && m.size > 1))
            .map(|(d, _)| d)
            .collect();
        if contiguous_dims.len() > 1 {
            return Err(ConstraintError::AliasingContiguity {
                first: contiguous_dims[0],
                second: contiguous_dims[1],
            });
        }
        // Order: the contiguous dimension first, then the remaining
        // dimensions in index order.
        let mut order: Vec<usize> = Vec::with_capacity(self.dims.len());
        if let Some(&d) = contiguous_dims.first() {
            order.push(d);
        }
        for d in 0..self.dims.len() {
            if !order.contains(&d) {
                order.push(d);
            }
        }
        // Assign strides greedily in that order.
        let mut strides: Vec<Vec<usize>> = self.dims.iter().map(|m| vec![0; m.len()]).collect();
        let mut current = 1usize;
        for &d in &order {
            for (i, mode) in self.dims[d].iter().enumerate() {
                match mode.stride {
                    Some(s) => {
                        if s != current && mode.size > 1 {
                            return Err(ConstraintError::ModePlacement {
                                size: mode.size,
                                stride: s,
                                dim: d,
                                offset: current,
                            });
                        }
                        strides[d][i] = s;
                        current = current.max(s * mode.size);
                    }
                    None => {
                        strides[d][i] = current;
                        current *= mode.size;
                    }
                }
            }
        }
        // Build the hierarchical layout mirroring the tile dimensions.
        let shape = IntTuple::Tuple(
            self.dims
                .iter()
                .map(|modes| {
                    if modes.len() == 1 {
                        IntTuple::Int(modes[0].size)
                    } else {
                        IntTuple::Tuple(modes.iter().map(|m| IntTuple::Int(m.size)).collect())
                    }
                })
                .collect(),
        );
        let stride = IntTuple::Tuple(
            self.dims
                .iter()
                .zip(strides.iter())
                .map(|(modes, s)| {
                    if modes.len() == 1 {
                        IntTuple::Int(s[0])
                    } else {
                        IntTuple::Tuple(s.iter().map(|&v| IntTuple::Int(v)).collect())
                    }
                })
                .collect(),
        );
        let layout = Layout::new(shape, stride).map_err(|_| ConstraintError::LayoutBuild)?;
        if !layout.is_injective() {
            return Err(ConstraintError::NotInjective);
        }
        Ok(layout)
    }
}

fn unify_dim(
    a: &[ConstraintMode],
    b: &[ConstraintMode],
) -> Result<Vec<ConstraintMode>, ConstraintError> {
    let total_a: usize = a.iter().map(|m| m.size).product();
    let total_b: usize = b.iter().map(|m| m.size).product();
    if total_a != total_b {
        return Err(ConstraintError::ExtentMismatch {
            a: total_a,
            b: total_b,
        });
    }
    let mut out = Vec::new();
    let mut ai = 0usize;
    let mut bi = 0usize;
    let mut a_rem = a.first().map(|m| m.size).unwrap_or(1);
    let mut b_rem = b.first().map(|m| m.size).unwrap_or(1);
    let mut a_stride = a.first().and_then(|m| m.stride);
    let mut b_stride = b.first().and_then(|m| m.stride);
    while ai < a.len() && bi < b.len() {
        let take = a_rem.min(b_rem);
        if take > 0 && (!a_rem.is_multiple_of(take) || !b_rem.is_multiple_of(take)) {
            return Err(ConstraintError::IncompatibleFactorization { a: a_rem, b: b_rem });
        }
        if take > 0 {
            let stride = match (a_stride, b_stride) {
                (Some(x), Some(y)) if x != y => {
                    return Err(ConstraintError::StrideConflict {
                        a: x,
                        b: y,
                        size: take,
                    })
                }
                (Some(x), _) => Some(x),
                (_, Some(y)) => Some(y),
                _ => None,
            };
            out.push(ConstraintMode { size: take, stride });
            // Advance both factorizations by `take`.
            advance(&mut a_rem, &mut a_stride, take);
            advance(&mut b_rem, &mut b_stride, take);
        }
        if a_rem == 1 {
            ai += 1;
            if ai < a.len() {
                a_rem = a[ai].size;
                a_stride = a[ai].stride;
            }
        }
        if b_rem == 1 {
            bi += 1;
            if bi < b.len() {
                b_rem = b[bi].size;
                b_stride = b[bi].stride;
            }
        }
    }
    // Merge adjacent modes that are both free or contiguous continuations.
    let mut merged: Vec<ConstraintMode> = Vec::new();
    for m in out {
        if let Some(last) = merged.last_mut() {
            if last.stride.is_none() && m.stride.is_none() {
                last.size *= m.size;
                continue;
            }
        }
        merged.push(m);
    }
    Ok(merged)
}

fn advance(rem: &mut usize, stride: &mut Option<usize>, take: usize) {
    debug_assert_eq!(*rem % take, 0);
    *rem /= take;
    if let Some(s) = stride {
        *stride = Some(*s * take);
    }
}

/// Counts shared-memory bank conflicts for a set of simultaneous per-thread
/// element accesses under the given layout: the result is the worst-case
/// number of serialized passes minus one (0 = conflict free).
pub fn bank_conflict_degree(
    layout: &SwizzledLayout,
    element_indices: &[usize],
    element_bits: usize,
    arch: &GpuArch,
) -> usize {
    // A warp touches at most 32 addresses, so a flat sort-and-dedup of
    // (bank, word) pairs beats nested hash maps: distinct words per bank
    // are runs in the sorted order.
    let mut accesses: Vec<(usize, usize)> = Vec::with_capacity(element_indices.len());
    for &idx in element_indices {
        let byte = layout.map(idx) * element_bits / 8;
        let word = byte / arch.smem_bank_bytes;
        let bank = word % arch.smem_banks;
        accesses.push((bank, word));
    }
    accesses.sort_unstable();
    accesses.dedup();
    let mut worst = 0usize;
    let mut run = 0usize;
    let mut prev_bank = usize::MAX;
    for &(bank, _) in &accesses {
        if bank == prev_bank {
            run += 1;
        } else {
            prev_bank = bank;
            run = 1;
        }
        worst = worst.max(run);
    }
    worst.saturating_sub(1)
}

/// Builds the warp access pattern of a copy: the element index (within the
/// shared tile) touched first by each of the 32 threads of warp 0.
fn warp_access_pattern(choice: &CopyChoice, tile: &[usize]) -> Vec<usize> {
    match choice.atom.kind {
        CopyKind::LdMatrix { .. } => {
            // Each thread provides one 8-element row pointer (Fig. 7(a)).
            let rows = tile[0].max(1);
            let cols = tile.get(1).copied().unwrap_or(1).max(1);
            (0..32)
                .map(|t| {
                    let row = t % rows.min(16);
                    let col_block = (t / rows.min(16)) * 8 % cols.max(1);
                    row + col_block * rows
                })
                .collect()
        }
        _ => (0..32.min(choice.coverage.num_threads()))
            .map(|t| choice.coverage.map(t, 0))
            .collect(),
    }
}

/// The alignment-aware layout constraint one copy instruction imposes on the
/// shared tile it touches (Fig. 10(b)). Depends only on the instruction atom,
/// the vector dimension, the per-thread width, the tile shape and the dtype —
/// the prefix-shared search keys its memoization on exactly these inputs.
pub(crate) fn copy_constraint(
    atom: &CopyAtom,
    vector_dim: usize,
    elements_per_thread: usize,
    tile: &[usize],
    dtype: DType,
) -> LayoutConstraint {
    match atom.kind {
        CopyKind::LdMatrix { .. } => {
            // ldmatrix reads 8 contiguous 16-bit-unit elements along
            // the K dimension of the operand tile.
            let dim = 1.min(tile.len() - 1);
            LayoutConstraint::aligned(tile, dim, 8.min(tile[dim]))
        }
        CopyKind::Tma => LayoutConstraint::aligned(
            tile,
            vector_dim,
            dtype.elements_per_bytes(128).min(tile[vector_dim]),
        ),
        _ => LayoutConstraint::aligned(tile, vector_dim, elements_per_thread),
    }
}

/// Unifies the constraints of every copy touching one shared tile, in the
/// order given (program order). Returns the first conflict as an interned
/// [`ConstraintError`] code.
pub(crate) fn unify_touching(
    tile: &[usize],
    touching: &[&CopyChoice],
    dtype: DType,
) -> Result<LayoutConstraint, ConstraintError> {
    let mut constraint = LayoutConstraint::unconstrained(tile);
    for choice in touching {
        let c = copy_constraint(
            &choice.atom,
            choice.vector_dim,
            choice.elements_per_thread,
            tile,
            dtype,
        );
        constraint = constraint.unify(&c)?;
    }
    Ok(constraint)
}

/// Materializes a unified constraint into a concrete layout and selects the
/// swizzle minimizing the total bank-conflict degree over the touching
/// copies (the second half of the per-tensor synthesis of Section V).
pub(crate) fn materialize_and_swizzle(
    constraint: &LayoutConstraint,
    touching: &[&CopyChoice],
    tile: &[usize],
    dtype_bits: usize,
    arch: &GpuArch,
    options: &SynthesisOptions,
) -> Result<SwizzledLayout, ConstraintError> {
    let base_layout = constraint.materialize()?;
    if options.disable_swizzles {
        return Ok(SwizzledLayout::unswizzled(base_layout));
    }
    // The warp access patterns depend only on the choices and the tile, so
    // they are hoisted out of the scoring loop: each swizzle costs only the
    // (at most 32-element) bank count per touching copy. `materialize` only
    // returns injective layouts, and a bijective swizzle keeps them so, so
    // only the other swizzles need the injectivity walk.
    let patterns: Vec<Vec<usize>> = touching
        .iter()
        .map(|choice| warp_access_pattern(choice, tile))
        .collect();
    let mut best = SwizzledLayout::unswizzled(base_layout.clone());
    let mut best_score = usize::MAX;
    for swizzle in Swizzle::candidates() {
        let sl = SwizzledLayout::new(swizzle, base_layout.clone());
        if !swizzle.is_bijective() && !sl.is_injective() {
            continue;
        }
        let score: usize = patterns
            .iter()
            .map(|pattern| bank_conflict_degree(&sl, pattern, dtype_bits, arch))
            .sum();
        if score < best_score || (score == best_score && swizzle.is_identity()) {
            best_score = score;
            best = sl;
        }
    }
    Ok(best)
}

/// The copies (and their instruction choices) of `candidate` touching the
/// shared tensor, in program order.
pub(crate) fn touching_choices<'c>(
    program: &Program,
    candidate: &'c Candidate,
    tensor: hexcute_ir::TensorId,
) -> Vec<&'c CopyChoice> {
    let mut touching = Vec::new();
    for op in program.ops() {
        let OpKind::Copy { src, dst } = op.kind else {
            continue;
        };
        if src != tensor && dst != tensor {
            continue;
        }
        if let Some(choice) = candidate.copy_choices.get(&op.id) {
            touching.push(choice);
        }
    }
    touching
}

/// Synthesizes the layouts (base layout + swizzle) of every shared-memory
/// tensor of the program for the given candidate, updating the candidate in
/// place.
///
/// # Errors
///
/// Returns [`SynthesisError::SmemUnsatisfiable`] when the alignment
/// constraints of the copies touching a buffer cannot be unified; the caller
/// then degrades the copies to scalar instructions (Section V,
/// "Integration").
pub fn synthesize_smem_layouts(
    program: &Program,
    arch: &GpuArch,
    options: &SynthesisOptions,
    candidate: &mut Candidate,
) -> Result<(), SynthesisError> {
    for &tensor in &program.shared_tensors() {
        let decl = program.tensor(tensor);
        let tile = decl.tile_shape_2d();

        if options.force_row_major_smem {
            let layout = Layout::row_major(&tile);
            candidate
                .smem_layouts
                .insert(tensor, SwizzledLayout::unswizzled(layout));
            continue;
        }

        // Gather the copies (and their instruction choices) touching this
        // buffer, unify their alignment-aware constraints, then materialize
        // and select a swizzle.
        let touching = touching_choices(program, candidate, tensor);
        let chosen = unify_touching(&tile, &touching, decl.dtype)
            .and_then(|constraint| {
                materialize_and_swizzle(
                    &constraint,
                    &touching,
                    &tile,
                    decl.dtype.bits(),
                    arch,
                    options,
                )
            })
            .map_err(|code| SynthesisError::SmemUnsatisfiable {
                tensor: decl.name.clone(),
                // The String materializes only here, at the API boundary; the
                // search paths below carry the `Copy` code.
                reason: code.to_string(),
            })?;
        candidate.smem_layouts.insert(tensor, chosen);
    }
    // Shared tensors never touched by copies (rare) keep a row-major layout.
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexcute_arch::GpuArch;

    #[test]
    fn aligned_constraint_pins_the_vector_mode() {
        let c = LayoutConstraint::aligned(&[64, 64], 0, 8);
        assert_eq!(
            c.dims()[0],
            vec![ConstraintMode::known(8, 1), ConstraintMode::free(8)]
        );
        assert_eq!(c.dims()[1], vec![ConstraintMode::free(64)]);
    }

    #[test]
    fn unification_refines_modes_like_fig10_case1() {
        // C1: ((8,8),64) : ((1,D1),D2)  — 8 contiguous along dim 0.
        // C2: ((16,4),64) : ((1,D1'),D2') — 16 contiguous along dim 0.
        let c1 = LayoutConstraint::aligned(&[64, 64], 0, 8);
        let c2 = LayoutConstraint::aligned(&[64, 64], 0, 16);
        let merged = c1.unify(&c2).unwrap();
        // The merged constraint keeps the finer decomposition with the
        // stride-1 requirement on the first 8 elements and a determined
        // stride continuation (8) for the next factor.
        assert_eq!(merged.dims()[0][0], ConstraintMode::known(8, 1));
        assert_eq!(merged.dims()[0][1], ConstraintMode::known(2, 8));
        let layout = merged.materialize().unwrap();
        assert!(layout.is_injective());
        // Elements along dim 0 are contiguous for at least 16 entries.
        for i in 0..16 {
            assert_eq!(layout.map_coords(&split_coords(&layout, &[i, 0])), i);
        }
    }

    #[test]
    fn unification_fails_like_fig10_case2() {
        // Two copies demanding contiguity along *different* dimensions of the
        // same buffer cannot both be satisfied by a single memory layout.
        let c1 = LayoutConstraint::aligned(&[64, 64], 0, 8);
        let c2 = LayoutConstraint::aligned(&[64, 64], 1, 8);
        let merged = c1.unify(&c2).unwrap();
        assert!(merged.materialize().is_err());
    }

    #[test]
    fn unification_detects_stride_conflicts() {
        let mut a = LayoutConstraint::unconstrained(&[64]);
        a.dims[0] = vec![ConstraintMode::known(8, 1), ConstraintMode::free(8)];
        let mut b = LayoutConstraint::unconstrained(&[64]);
        b.dims[0] = vec![ConstraintMode::known(8, 4), ConstraintMode::free(8)];
        assert!(a.unify(&b).is_err());
    }

    #[test]
    fn materialized_layouts_are_compact_and_respect_alignment() {
        let c = LayoutConstraint::aligned(&[64, 32], 1, 8);
        let layout = c.materialize().unwrap();
        assert_eq!(layout.size(), 64 * 32);
        assert!(layout.is_compact_bijection());
        // Dim 1 is the innermost: stepping along it by one changes the
        // address by one for the first 8 steps.
        let base = layout.map_coords(&split_coords(&layout, &[0, 0]));
        let step = layout.map_coords(&split_coords(&layout, &[0, 1]));
        assert_eq!(step, base + 1);
    }

    /// Converts a per-dimension coordinate into the flat per-leaf coordinate
    /// expected by `map_coords`, accounting for dimensions that were split
    /// into several factors during unification.
    fn split_coords(layout: &Layout, coords: &[usize]) -> Vec<usize> {
        let mut out = Vec::new();
        for (d, &c) in coords.iter().enumerate() {
            let mode = layout.shape().mode(d).flatten();
            let mut rest = c;
            for (i, &s) in mode.iter().enumerate() {
                if i + 1 == mode.len() {
                    out.push(rest);
                } else {
                    out.push(rest % s);
                    rest /= s;
                }
            }
        }
        out
    }

    #[test]
    fn swizzles_remove_column_access_conflicts() {
        let arch = GpuArch::a100();
        // Row-major 64-wide fp32 tile: a column access conflicts heavily.
        let base = Layout::row_major(&[32, 64]);
        // Element (r, 0) for every thread r, in the tile's column-major
        // linearization.
        let column_access: Vec<usize> = (0..32).collect();
        let plain = SwizzledLayout::unswizzled(base.clone());
        let plain_degree = bank_conflict_degree(&plain, &column_access, 32, &arch);
        assert!(
            plain_degree >= 15,
            "expected heavy conflicts, got {plain_degree}"
        );
        let best = Swizzle::candidates()
            .into_iter()
            .map(|s| SwizzledLayout::new(s, base.clone()))
            .min_by_key(|sl| bank_conflict_degree(sl, &column_access, 32, &arch))
            .unwrap();
        let best_degree = bank_conflict_degree(&best, &column_access, 32, &arch);
        assert!(best_degree < plain_degree / 2);
    }
}

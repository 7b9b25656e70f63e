//! The [`Layout`] type: a function from integers to integers described by a
//! hierarchical shape and stride pair, following the CuTe convention.

use std::fmt;

use crate::error::{LayoutError, Result};
use crate::flat::FlatLayout;
use crate::int_tuple::IntTuple;

/// A CuTe-style layout: a pair of congruent shape and stride tuples that
/// together define a function from a column-major linear index (or a
/// hierarchical coordinate) to an integer offset.
///
/// A layout `(s₁,…,sₙ):(d₁,…,dₙ)` maps the coordinate `(c₁,…,cₙ)` to
/// `Σ cᵢ·dᵢ`; linear indices are decomposed into coordinates column-major
/// (leftmost mode fastest).
///
/// # Examples
///
/// The row-major-interleaved layout of Fig. 1(a)/Fig. 2(a) of the Hexcute
/// paper:
///
/// ```
/// use hexcute_layout::{Layout, ituple};
///
/// let m = Layout::new(ituple![(2, 2), 8], ituple![(1, 16), 2]).unwrap();
/// // Coordinate (row=2, col=4) is the hierarchical coordinate ((0,1),4).
/// assert_eq!(m.map_coords(&[0, 1, 4]), 24);
/// assert_eq!(m.to_string(), "((2,2),8):((1,16),2)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layout {
    shape: IntTuple,
    stride: IntTuple,
}

impl Layout {
    /// Creates a layout from congruent shape and stride tuples.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::ProfileMismatch`] when the tuples do not have
    /// the same nesting profile.
    pub fn new(shape: IntTuple, stride: IntTuple) -> Result<Self> {
        if !shape.congruent(&stride) {
            return Err(LayoutError::ProfileMismatch {
                shape: shape.to_string(),
                stride: stride.to_string(),
            });
        }
        Ok(Layout { shape, stride })
    }

    /// Creates a rank-1 layout `shape:stride`.
    pub fn from_mode(shape: usize, stride: usize) -> Self {
        Layout {
            shape: IntTuple::Int(shape),
            stride: IntTuple::Int(stride),
        }
    }

    /// Creates a flat (non-hierarchical) layout from parallel shape and
    /// stride slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_flat(shape: &[usize], stride: &[usize]) -> Self {
        assert_eq!(shape.len(), stride.len(), "shape/stride length mismatch");
        Layout {
            shape: IntTuple::from(shape),
            stride: IntTuple::from(stride),
        }
    }

    /// Creates a flat layout from `(shape, stride)` mode pairs.
    pub fn from_modes(modes: &[(usize, usize)]) -> Self {
        let shape: Vec<usize> = modes.iter().map(|m| m.0).collect();
        let stride: Vec<usize> = modes.iter().map(|m| m.1).collect();
        Layout::from_flat(&shape, &stride)
    }

    /// The column-major (leftmost-fastest) layout of the given shape.
    ///
    /// ```
    /// use hexcute_layout::Layout;
    /// let l = Layout::column_major(&[4, 8]);
    /// assert_eq!(l.map(5), 5);
    /// ```
    pub fn column_major(shape: &[usize]) -> Self {
        let mut stride = Vec::with_capacity(shape.len());
        let mut acc = 1usize;
        for &s in shape {
            stride.push(acc);
            acc *= s.max(1);
        }
        Layout::from_flat(shape, &stride)
    }

    /// The row-major (rightmost-fastest) layout of the given shape.
    pub fn row_major(shape: &[usize]) -> Self {
        let mut stride = vec![0usize; shape.len()];
        let mut acc = 1usize;
        for (i, &s) in shape.iter().enumerate().rev() {
            stride[i] = acc;
            acc *= s.max(1);
        }
        Layout::from_flat(shape, &stride)
    }

    /// The identity layout on `size` elements: `size:1`.
    pub fn identity(size: usize) -> Self {
        Layout::from_mode(size, 1)
    }

    /// The shape tuple.
    pub fn shape(&self) -> &IntTuple {
        &self.shape
    }

    /// The stride tuple.
    pub fn stride(&self) -> &IntTuple {
        &self.stride
    }

    /// The number of top-level modes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// The domain size: the product of the shape.
    pub fn size(&self) -> usize {
        self.shape.product()
    }

    /// The cosize: one plus the largest value the layout produces
    /// (`layout(size-1) + 1`), or 1 for an empty layout.
    pub fn cosize(&self) -> usize {
        if self.size() == 0 {
            return 1;
        }
        self.map(self.size() - 1) + 1
    }

    /// The `i`-th top-level mode as a sub-layout.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn mode(&self, i: usize) -> Layout {
        Layout {
            shape: self.shape.mode(i).clone(),
            stride: self.stride.mode(i).clone(),
        }
    }

    /// All top-level modes as sub-layouts.
    pub fn modes(&self) -> Vec<Layout> {
        (0..self.rank()).map(|i| self.mode(i)).collect()
    }

    /// Selects a subset of top-level modes, preserving order.
    pub fn select(&self, indices: &[usize]) -> Layout {
        let modes: Vec<Layout> = indices.iter().map(|&i| self.mode(i)).collect();
        Layout::concat(&modes)
    }

    /// Flattens the hierarchy into a list of `(shape, stride)` leaf modes.
    pub fn flat_modes(&self) -> Vec<(usize, usize)> {
        self.shape
            .flatten()
            .into_iter()
            .zip(self.stride.flatten())
            .collect()
    }

    /// Rebuilds a flat layout (depth 1) with the same leaves.
    pub fn flatten(&self) -> Layout {
        let modes = self.flat_modes();
        Layout::from_modes(&modes)
    }

    /// Concatenates layouts into a single layout whose top-level modes are
    /// the arguments, i.e. `(A, B, …)`.
    pub fn concat(layouts: &[Layout]) -> Layout {
        Layout {
            shape: IntTuple::Tuple(layouts.iter().map(|l| l.shape.clone()).collect()),
            stride: IntTuple::Tuple(layouts.iter().map(|l| l.stride.clone()).collect()),
        }
    }

    /// Wraps two layouts as the two top-level modes `(A, B)`.
    pub fn make_pair(a: &Layout, b: &Layout) -> Layout {
        Layout::concat(&[a.clone(), b.clone()])
    }

    /// Evaluates the layout at a column-major linear index.
    ///
    /// Indices beyond `size()` extend along the last mode, matching CuTe.
    ///
    /// The evaluation traverses the shape and stride trees in lock step
    /// without allocating; [`Layout::map_reference`] is the original
    /// allocation-per-call implementation kept for cross-checking.
    pub fn map(&self, index: usize) -> usize {
        // Single allocation-free traversal. This intentionally does NOT go
        // through `FlatLayout::from_layout(self).map(index)`: `map` is the
        // hottest call in synthesis (cosize/bijectivity/equivalence checks)
        // and materializing the mode array measurably slows it down. The
        // digit-decomposition semantics must match `FlatLayout::map`.
        fn walk(
            shape: &IntTuple,
            stride: &IntTuple,
            rest: &mut usize,
            remaining: &mut usize,
            acc: &mut usize,
        ) {
            match (shape, stride) {
                (IntTuple::Int(s), IntTuple::Int(d)) => {
                    *remaining -= 1;
                    let c = if *remaining == 0 {
                        *rest
                    } else {
                        let s = (*s).max(1);
                        let c = *rest % s;
                        *rest /= s;
                        c
                    };
                    *acc += c * d;
                }
                (IntTuple::Tuple(ss), IntTuple::Tuple(ds)) => {
                    for (s, d) in ss.iter().zip(ds.iter()) {
                        walk(s, d, rest, remaining, acc);
                    }
                }
                _ => unreachable!("layout shape and stride are congruent"),
            }
        }
        let mut remaining = self.shape.leaf_count();
        if remaining == 0 {
            return 0;
        }
        let mut rest = index;
        let mut acc = 0usize;
        walk(
            &self.shape,
            &self.stride,
            &mut rest,
            &mut remaining,
            &mut acc,
        );
        acc
    }

    /// The original recursive implementation of [`Layout::map`], kept as the
    /// reference for the flat fast path.
    pub fn map_reference(&self, index: usize) -> usize {
        let coords = self.shape.index_to_coords(index);
        let strides = self.stride.flatten();
        coords.iter().zip(strides.iter()).map(|(c, d)| c * d).sum()
    }

    /// Evaluates the layout at a flat hierarchical coordinate (one entry per
    /// leaf, leftmost leaf first).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate rank does not match the leaf count.
    pub fn map_coords(&self, coords: &[usize]) -> usize {
        fn walk(stride: &IntTuple, coords: &[usize], pos: &mut usize, acc: &mut usize) {
            match stride {
                IntTuple::Int(d) => {
                    *acc += coords[*pos] * d;
                    *pos += 1;
                }
                IntTuple::Tuple(ds) => {
                    for d in ds {
                        walk(d, coords, pos, acc);
                    }
                }
            }
        }
        assert_eq!(
            coords.len(),
            self.stride.leaf_count(),
            "coordinate rank mismatch"
        );
        let mut pos = 0usize;
        let mut acc = 0usize;
        walk(&self.stride, coords, &mut pos, &mut acc);
        acc
    }

    /// The original implementation of [`Layout::map_coords`], kept as the
    /// reference for the flat fast path.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate rank does not match the leaf count.
    pub fn map_coords_reference(&self, coords: &[usize]) -> usize {
        let strides = self.stride.flatten();
        assert_eq!(coords.len(), strides.len(), "coordinate rank mismatch");
        coords.iter().zip(strides.iter()).map(|(c, d)| c * d).sum()
    }

    /// Evaluates the layout at a per-top-level-mode linear coordinate (one
    /// linear index per top-level mode).
    ///
    /// # Panics
    ///
    /// Panics if the number of coordinates does not match the rank.
    pub fn map_mode_indices(&self, indices: &[usize]) -> usize {
        assert_eq!(indices.len(), self.rank(), "mode index rank mismatch");
        indices
            .iter()
            .enumerate()
            .map(|(i, &idx)| self.mode(i).map(idx))
            .sum()
    }

    /// Collects all outputs of the layout over its domain, in domain order.
    pub fn image(&self) -> Vec<usize> {
        (0..self.size()).map(|i| self.map(i)).collect()
    }

    /// Returns `true` when the two layouts define the same function on the
    /// same domain size (ignoring hierarchical structure).
    pub fn equivalent(&self, other: &Layout) -> bool {
        self.size() == other.size() && (0..self.size()).all(|i| self.map(i) == other.map(i))
    }

    /// Returns `true` when the layout is injective over its domain.
    pub fn is_injective(&self) -> bool {
        let size = self.size();
        let cosize = self.cosize();
        // One bit per address beats hashing whenever the codomain is small
        // enough to fit a dense bitmap — the common case for tile layouts,
        // and the hot case in shared-memory swizzle scoring.
        const BITMAP_LIMIT: usize = 1 << 26;
        if cosize <= BITMAP_LIMIT {
            let mut seen = vec![0u64; cosize.div_ceil(64)];
            for i in 0..size {
                let v = self.map(i);
                let (word, bit) = (v / 64, v % 64);
                if seen[word] >> bit & 1 == 1 {
                    return false;
                }
                seen[word] |= 1 << bit;
            }
            true
        } else {
            let mut seen = std::collections::HashSet::with_capacity(size);
            (0..size).all(|i| seen.insert(self.map(i)))
        }
    }

    /// Returns `true` when the layout is a bijection onto `[0, size)`.
    pub fn is_compact_bijection(&self) -> bool {
        let size = self.size();
        let mut seen = vec![false; size];
        for i in 0..size {
            let v = self.map(i);
            if v >= size || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        true
    }

    /// Simplifies the layout by dropping size-1 modes and merging adjacent
    /// modes where `stride_{i+1} == shape_i * stride_i`, preserving the
    /// function.
    ///
    /// ```
    /// use hexcute_layout::Layout;
    /// let l = Layout::from_flat(&[2, 1, 4], &[1, 77, 2]);
    /// let c = l.coalesce();
    /// assert_eq!(c, Layout::from_mode(8, 1));
    /// assert!(l.equivalent(&c));
    /// ```
    pub fn coalesce(&self) -> Layout {
        let flat = FlatLayout::from_layout(self).coalesced();
        let modes = flat.modes();
        if modes.len() == 1 {
            return Layout::from_mode(modes[0].0, modes[0].1);
        }
        Layout::from_modes(modes)
    }

    /// The original recursive implementation of [`Layout::coalesce`], kept as
    /// the reference for the flat fast path.
    pub fn coalesce_reference(&self) -> Layout {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for (s, d) in self.flat_modes() {
            if s == 1 {
                continue;
            }
            if let Some(last) = out.last_mut() {
                if d == last.0 * last.1 && last.1 != 0 {
                    last.0 *= s;
                    continue;
                }
                if last.1 == 0 && d == 0 {
                    last.0 *= s;
                    continue;
                }
            }
            out.push((s, d));
        }
        if out.is_empty() {
            return Layout::from_mode(1, 0);
        }
        if out.len() == 1 {
            return Layout::from_mode(out[0].0, out[0].1);
        }
        Layout::from_modes(&out)
    }

    /// Sorts the flattened modes by stride (then shape), preserving the set
    /// of `(coordinate, output)` pairs but not the domain order. Useful for
    /// complement and inverse computations.
    pub fn sorted_by_stride(&self) -> Layout {
        let mut modes = self.flat_modes();
        modes.sort_by_key(|&(s, d)| (d, s));
        Layout::from_modes(&modes)
    }

    /// Replaces the strides of every leaf, keeping the shape profile.
    ///
    /// # Panics
    ///
    /// Panics if the number of strides does not match the leaf count.
    pub fn with_strides(&self, strides: &[usize]) -> Layout {
        let stride = self
            .shape
            .unflatten(strides)
            .expect("stride count must match leaf count");
        Layout {
            shape: self.shape.clone(),
            stride,
        }
    }

    /// Returns a layout with the same function but whose codomain indices
    /// are scaled by `factor` (every stride multiplied).
    pub fn scale_strides(&self, factor: usize) -> Layout {
        let strides: Vec<usize> = self.stride.flatten().iter().map(|d| d * factor).collect();
        self.with_strides(&strides)
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.shape, self.stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ituple;

    #[test]
    fn rejects_incongruent_profiles() {
        let err = Layout::new(ituple![2, 4], ituple![(1, 2), 4]).unwrap_err();
        assert!(matches!(err, LayoutError::ProfileMismatch { .. }));
    }

    #[test]
    fn paper_fig2a_row_major_interleaved() {
        // m = ((2,2),8) : ((1,16),2), Fig. 2(a).
        let m = Layout::new(ituple![(2, 2), 8], ituple![(1, 16), 2]).unwrap();
        assert_eq!(m.size(), 32);
        // (row, col) = (2, 4) corresponds to hierarchical coordinate ((0,1),4)
        // and must map to address 24 (callout 1 in Fig. 1a).
        assert_eq!(m.map_coords(&[0, 1, 4]), 24);
        // Row 0 of the tile: addresses 0,2,4,...
        assert_eq!(m.map_coords(&[0, 0, 1]), 2);
        assert_eq!(m.map_coords(&[1, 0, 0]), 1);
        assert_eq!(m.map_coords(&[0, 1, 0]), 16);
        assert_eq!(m.cosize(), 32);
    }

    #[test]
    fn paper_fig2b_thread_value_layout() {
        // f = ((2,4),(2,2)) : ((8,1),(4,16)), Fig. 2(b) and (c).
        let f = Layout::new(ituple![(2, 4), (2, 2)], ituple![(8, 1), (4, 16)]).unwrap();
        // (tid, vid) = (2, 3): tid -> (0, 1), vid -> (1, 1); index 21.
        assert_eq!(f.map_coords(&[0, 1, 1, 1]), 21);
        // As mode-linear evaluation: thread mode index 2, value mode index 3.
        assert_eq!(f.map_mode_indices(&[2, 3]), 21);
        // Index 21 in a 4x8 column-major tile is (m, n) = (1, 5).
        assert_eq!(21 % 4, 1);
        assert_eq!(21 / 4, 5);
    }

    #[test]
    fn column_and_row_major() {
        let cm = Layout::column_major(&[4, 8]);
        assert_eq!(cm.map_coords(&[1, 5]), 21);
        let rm = Layout::row_major(&[4, 8]);
        assert_eq!(rm.map_coords(&[1, 5]), 13);
        assert_eq!(cm.cosize(), 32);
        assert_eq!(rm.cosize(), 32);
        assert!(cm.is_compact_bijection());
        assert!(rm.is_compact_bijection());
    }

    #[test]
    fn map_extends_last_mode() {
        let l = Layout::from_flat(&[4, 2], &[1, 4]);
        assert_eq!(l.map(7), 7);
        // Index 9 extends the last mode: coords (1, 2) -> 1 + 8 = 9.
        assert_eq!(l.map(9), 9);
    }

    #[test]
    fn coalesce_merges_contiguous_modes() {
        let l = Layout::from_flat(&[2, 4, 8], &[1, 2, 8]);
        assert_eq!(l.coalesce(), Layout::from_mode(64, 1));
        let l2 = Layout::from_flat(&[2, 4], &[1, 4]);
        assert_eq!(l2.coalesce(), l2);
        let l3 = Layout::from_flat(&[1, 1], &[5, 9]);
        assert_eq!(l3.coalesce(), Layout::from_mode(1, 0));
    }

    #[test]
    fn coalesce_preserves_function() {
        let l = Layout::new(ituple![(2, 2), 8, 1], ituple![(1, 2), 4, 99]).unwrap();
        let c = l.coalesce();
        assert!(l.equivalent(&c));
    }

    #[test]
    fn coalesce_merges_zero_strides() {
        let l = Layout::from_flat(&[4, 2], &[0, 0]);
        assert_eq!(l.coalesce(), Layout::from_mode(8, 0));
    }

    #[test]
    fn injectivity_checks() {
        assert!(Layout::from_flat(&[4, 8], &[8, 1]).is_injective());
        assert!(!Layout::from_flat(&[4, 8], &[1, 1]).is_injective());
        assert!(Layout::from_flat(&[4, 8], &[8, 1]).is_compact_bijection());
        assert!(!Layout::from_flat(&[4, 8], &[16, 1]).is_compact_bijection());
    }

    #[test]
    fn concat_and_select() {
        let a = Layout::from_mode(4, 1);
        let b = Layout::from_mode(8, 4);
        let pair = Layout::make_pair(&a, &b);
        assert_eq!(pair.rank(), 2);
        assert_eq!(pair.size(), 32);
        assert!(pair.equivalent(&Layout::column_major(&[4, 8])));
        let swapped = pair.select(&[1, 0]);
        assert_eq!(swapped.mode(0), b);
        assert_eq!(swapped.mode(1), a);
    }

    #[test]
    fn mode_access_and_flatten() {
        let l = Layout::new(ituple![(2, 4), (2, 2)], ituple![(8, 1), (4, 16)]).unwrap();
        assert_eq!(l.mode(0), Layout::from_flat(&[2, 4], &[8, 1]));
        assert_eq!(l.mode(1), Layout::from_flat(&[2, 2], &[4, 16]));
        assert_eq!(l.flat_modes(), vec![(2, 8), (4, 1), (2, 4), (2, 16)]);
        assert_eq!(l.flatten().rank(), 4);
    }

    #[test]
    fn display_round_trip_notation() {
        let l = Layout::new(ituple![(2, 2), 8], ituple![(1, 16), 2]).unwrap();
        assert_eq!(l.to_string(), "((2,2),8):((1,16),2)");
        assert_eq!(Layout::from_mode(8, 1).to_string(), "8:1");
    }

    #[test]
    fn with_strides_and_scale() {
        let l = Layout::new(ituple![(2, 2), 8], ituple![(1, 16), 2]).unwrap();
        let scaled = l.scale_strides(2);
        assert_eq!(scaled.map(1), 2 * l.map(1));
        let replaced = l.with_strides(&[1, 2, 4]);
        assert_eq!(replaced.stride().flatten(), vec![1, 2, 4]);
        assert_eq!(replaced.shape(), l.shape());
    }

    #[test]
    fn sorted_by_stride_orders_modes() {
        let l = Layout::from_flat(&[4, 8, 2], &[64, 1, 32]);
        let sorted = l.sorted_by_stride();
        assert_eq!(sorted.flat_modes(), vec![(8, 1), (2, 32), (4, 64)]);
    }

    #[test]
    fn identity_layout() {
        let id = Layout::identity(16);
        for i in 0..16 {
            assert_eq!(id.map(i), i);
        }
    }
}

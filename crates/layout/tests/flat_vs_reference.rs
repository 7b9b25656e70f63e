//! Randomized cross-checks of the flat fast path against the recursive
//! reference implementation of the layout algebra.
//!
//! The fast path (flat `FlatLayout` arrays plus the per-thread memoization
//! cache) must be **bit-for-bit** equivalent to the reference: identical
//! hierarchical result layouts (not merely pointwise-equivalent functions)
//! and identical errors. These tests drive both paths on randomized layouts
//! and compare the full `Result`, which also exercises memoized error
//! replay (every operation is evaluated twice through the fast path).

use hexcute_layout::{Layout, TvLayout};
use proptest::prelude::*;

/// Strategy producing small flat layouts with power-of-two-ish shapes and
/// permuted prefix-product strides, optionally scaled (making them strided
/// but still injective).
fn compact_layout(max_modes: usize) -> impl Strategy<Value = Layout> {
    proptest::collection::vec(1usize..=4, 1..=max_modes).prop_flat_map(|log_shapes| {
        let shapes: Vec<usize> = log_shapes.iter().map(|&l| 1usize << l).collect();
        let n = shapes.len();
        proptest::collection::vec(0usize..1000, n).prop_map(move |keys| {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| keys[i]);
            let mut strides = vec![0usize; n];
            let mut acc = 1usize;
            for &i in &order {
                strides[i] = acc;
                acc *= shapes[i];
            }
            Layout::from_flat(&shapes, &strides)
        })
    })
}

/// Strategy producing arbitrary (possibly overlapping, possibly broadcast,
/// possibly hierarchical after regrouping) small layouts.
fn any_layout(max_modes: usize) -> impl Strategy<Value = Layout> {
    proptest::collection::vec((1usize..=6, 0usize..=12), 1..=max_modes)
        .prop_map(|modes| Layout::from_modes(&modes))
}

/// Both paths must agree on the full `Result`: equal layouts on success
/// (structurally, not just pointwise) and equal errors on failure.
fn assert_same_result(
    fast: &hexcute_layout::Result<Layout>,
    reference: &hexcute_layout::Result<Layout>,
    what: &str,
) -> Result<(), TestCaseError> {
    match (fast, reference) {
        (Ok(f), Ok(r)) => prop_assert_eq!(f, r, "{}: fast {} != reference {}", what, f, r),
        (Err(f), Err(r)) => prop_assert_eq!(f, r, "{}: errors diverged", what),
        (f, r) => prop_assert!(false, "{}: fast {:?} vs reference {:?}", what, f, r),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn map_agrees_with_reference(layout in any_layout(4)) {
        for i in 0..layout.size() + 4 {
            prop_assert_eq!(layout.map(i), layout.map_reference(i), "{} at {}", layout, i);
        }
    }

    #[test]
    fn map_coords_agrees_with_reference(
        flat in any_layout(4),
        tile in compact_layout(3),
        rep_log in 0usize..=3,
        inner_log in 1usize..=3,
        stride_log in 0usize..=3,
        outer_log in 2usize..=4,
    ) {
        // The tree walk of `map_coords` must match the flattened-stride dot
        // product on hierarchical layouts too: a logical_divide result nests
        // the tiler and its complement, a logical_product the tile and its
        // repetition.
        let total = 1usize << (inner_log + stride_log + outer_log);
        let divided = Layout::identity(total)
            .logical_divide(&Layout::from_mode(1 << inner_log, 1 << stride_log))
            .unwrap();
        let product = tile
            .logical_product(&Layout::from_mode(1 << rep_log, 1))
            .unwrap();
        for layout in [&flat, &divided, &product] {
            // Every in-range leaf coordinate, leftmost leaf fastest.
            let extents = layout.shape().flatten();
            for i in 0..layout.size() {
                let mut rest = i;
                let coords: Vec<usize> = extents
                    .iter()
                    .map(|&extent| {
                        let c = rest % extent;
                        rest /= extent;
                        c
                    })
                    .collect();
                prop_assert_eq!(
                    layout.map_coords(&coords),
                    layout.map_coords_reference(&coords),
                    "{} at {:?}",
                    layout,
                    coords
                );
            }
        }
    }

    #[test]
    fn coalesce_agrees_with_reference(layout in any_layout(5)) {
        prop_assert_eq!(layout.coalesce(), layout.coalesce_reference());
    }

    #[test]
    fn compose_agrees_with_reference(a in any_layout(4), b in any_layout(3)) {
        // Evaluate the fast path twice so the second call replays the memo.
        let fast_first = a.compose(&b);
        let fast_memoized = a.compose(&b);
        let reference = a.compose_reference(&b);
        assert_same_result(&fast_first, &reference, "compose")?;
        assert_same_result(&fast_memoized, &reference, "compose (memoized)")?;
    }

    #[test]
    fn compose_of_compact_layouts_agrees(a in compact_layout(4), b in compact_layout(3)) {
        let fast = a.compose(&b);
        let reference = a.compose_reference(&b);
        assert_same_result(&fast, &reference, "compose/compact")?;
    }

    #[test]
    fn complement_agrees_with_reference(layout in any_layout(3), extra in 1usize..=4) {
        let target = layout.cosize().next_power_of_two() * (1 << extra);
        let fast = layout.complement(target);
        let memoized = layout.complement(target);
        let reference = layout.complement_reference(target);
        assert_same_result(&fast, &reference, "complement")?;
        assert_same_result(&memoized, &reference, "complement (memoized)")?;
    }

    #[test]
    fn interior_complement_agrees_with_reference(layout in any_layout(3), scale in 1usize..=4) {
        let strided = layout.scale_strides(scale);
        let fast = strided.interior_complement();
        let reference = strided.interior_complement_reference();
        assert_same_result(&fast, &reference, "interior_complement")?;
    }

    #[test]
    fn right_inverse_agrees_with_reference(layout in any_layout(4)) {
        let fast = layout.right_inverse();
        let memoized = layout.right_inverse();
        let reference = layout.right_inverse_reference();
        assert_same_result(&fast, &reference, "right_inverse")?;
        assert_same_result(&memoized, &reference, "right_inverse (memoized)")?;
    }

    #[test]
    fn right_inverse_of_bijections_agrees(layout in compact_layout(4)) {
        let fast = layout.right_inverse();
        let reference = layout.right_inverse_reference();
        assert_same_result(&fast, &reference, "right_inverse/compact")?;
    }

    #[test]
    fn left_inverse_agrees_with_reference(layout in compact_layout(3), scale in 1usize..=4) {
        let strided = layout.scale_strides(scale);
        let fast = strided.left_inverse();
        let reference = strided.left_inverse_reference();
        assert_same_result(&fast, &reference, "left_inverse")?;
    }

    #[test]
    fn logical_divide_agrees_with_reference(
        inner_log in 1usize..=3,
        stride_log in 0usize..=3,
        outer_log in 2usize..=4,
    ) {
        let total = 1usize << (inner_log + stride_log + outer_log);
        let a = Layout::identity(total);
        let tiler = Layout::from_mode(1 << inner_log, 1 << stride_log);
        let fast = a.logical_divide(&tiler);
        let reference = a.logical_divide_reference(&tiler);
        assert_same_result(&fast, &reference, "logical_divide")?;
    }

    #[test]
    fn logical_product_agrees_with_reference(tile in compact_layout(3), rep_log in 0usize..=3) {
        let rep = Layout::from_mode(1 << rep_log, 1);
        let fast = tile.logical_product(&rep);
        let reference = tile.logical_product_reference(&rep);
        assert_same_result(&fast, &reference, "logical_product")?;
    }

    #[test]
    fn tv_expand_agrees_between_paths(
        threads_log in 3usize..=5,
        values_log in 0usize..=3,
        um in 1usize..=2,
        un in 1usize..=2,
    ) {
        // TvLayout::expand is pure composition through the memoized flat
        // algebra. Its coordinates must match
        // an element-by-element evaluation through the reference map.
        let threads = 1 << threads_log;
        let values = 1 << values_log;
        let tile = vec![threads, values];
        let atom = TvLayout::contiguous(threads, values, tile).unwrap();
        let expanded = atom
            .expand(
                &[hexcute_layout::RepeatMode::along(um, 0), hexcute_layout::RepeatMode::along(un, 1)],
                &[hexcute_layout::RepeatMode::along(2, 1)],
            )
            .unwrap();
        let full = expanded.as_layout();
        for i in 0..full.size() {
            prop_assert_eq!(full.map(i), full.map_reference(i));
        }
    }
}

//! # hexcute-layout
//!
//! CuTe-style layout algebra: the mathematical substrate of the Hexcute
//! compiler (CGO 2026).
//!
//! A *layout* is a function from integers to integers described by a pair of
//! congruent, hierarchical shape and stride tuples. Layouts describe how
//! tensors are arranged in memory and how register tensors are distributed
//! across GPU threads (*thread-value layouts*). Layouts form a monoid under
//! composition, and the composition/inversion/complement operations in this
//! crate are what Hexcute's layout-synthesis constraints are built from.
//!
//! ## Quick start
//!
//! ```
//! use hexcute_layout::{ituple, Layout, TvLayout};
//!
//! // The row-major-interleaved shared-memory layout of Fig. 1(a).
//! let m = Layout::new(ituple![(2, 2), 8], ituple![(1, 16), 2])?;
//! assert_eq!(m.map_coords(&[0, 1, 4]), 24);
//!
//! // The register-tensor distribution of Fig. 1(b).
//! let f = TvLayout::new(
//!     Layout::from_flat(&[2, 4], &[8, 1]),
//!     Layout::from_flat(&[2, 2], &[4, 16]),
//!     vec![4, 8],
//! )?;
//! assert_eq!(f.tile_coords(2, 3), vec![1, 5]);
//! # Ok::<(), hexcute_layout::LayoutError>(())
//! ```
//!
//! The crate also provides XOR [`Swizzle`] functors and [`SwizzledLayout`]s
//! used for bank-conflict-free shared-memory layouts.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algebra;
mod error;
pub mod fastpath;
mod flat;
mod int_tuple;
mod layout;
mod swizzle;
mod tv;

pub use error::{LayoutError, Result};
pub use fastpath::{cache_stats, clear_cache, CacheStats};
pub use flat::FlatLayout;
pub use int_tuple::IntTuple;
pub use layout::Layout;
pub use swizzle::{Swizzle, SwizzledLayout};
pub use tv::{RepeatMode, TvLayout};

//! Hierarchical integer tuples, the building block of CuTe-style layouts.
//!
//! An [`IntTuple`] is either a single non-negative integer or a nested tuple
//! of integer tuples. Shapes and strides of layouts are both represented as
//! `IntTuple`s with *congruent* profiles (the same nesting structure).

use std::fmt;

/// A hierarchical (possibly nested) tuple of non-negative integers.
///
/// # Examples
///
/// ```
/// use hexcute_layout::IntTuple;
///
/// let t = IntTuple::from(vec![IntTuple::from(2), IntTuple::tuple(vec![3usize.into(), 4usize.into()])]);
/// assert_eq!(t.product(), 24);
/// assert_eq!(t.flatten(), vec![2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IntTuple {
    /// A leaf integer.
    Int(usize),
    /// A nested tuple of integer tuples.
    Tuple(Vec<IntTuple>),
}

impl IntTuple {
    /// Creates a leaf integer tuple.
    pub fn int(v: usize) -> Self {
        IntTuple::Int(v)
    }

    /// Creates a nested tuple from a list of children.
    pub fn tuple(children: Vec<IntTuple>) -> Self {
        IntTuple::Tuple(children)
    }

    /// Returns `true` when this node is a leaf integer.
    pub fn is_int(&self) -> bool {
        matches!(self, IntTuple::Int(_))
    }

    /// Returns the leaf value if this node is a leaf.
    pub fn as_int(&self) -> Option<usize> {
        match self {
            IntTuple::Int(v) => Some(*v),
            IntTuple::Tuple(_) => None,
        }
    }

    /// The number of top-level modes. A leaf has rank 1.
    pub fn rank(&self) -> usize {
        match self {
            IntTuple::Int(_) => 1,
            IntTuple::Tuple(children) => children.len(),
        }
    }

    /// The nesting depth. A leaf has depth 0.
    pub fn depth(&self) -> usize {
        match self {
            IntTuple::Int(_) => 0,
            IntTuple::Tuple(children) => {
                1 + children.iter().map(IntTuple::depth).max().unwrap_or(0)
            }
        }
    }

    /// The product of all leaves. An empty tuple has product 1.
    pub fn product(&self) -> usize {
        match self {
            IntTuple::Int(v) => *v,
            IntTuple::Tuple(children) => children.iter().map(IntTuple::product).product(),
        }
    }

    /// The number of leaves.
    pub fn leaf_count(&self) -> usize {
        match self {
            IntTuple::Int(_) => 1,
            IntTuple::Tuple(children) => children.iter().map(IntTuple::leaf_count).sum(),
        }
    }

    /// Flattens the tuple into a left-to-right list of leaves.
    pub fn flatten(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.leaf_count());
        self.flatten_into(&mut out);
        out
    }

    fn flatten_into(&self, out: &mut Vec<usize>) {
        match self {
            IntTuple::Int(v) => out.push(*v),
            IntTuple::Tuple(children) => {
                for child in children {
                    child.flatten_into(out);
                }
            }
        }
    }

    /// Returns the `i`-th top-level mode. A leaf is its own single mode.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn mode(&self, i: usize) -> &IntTuple {
        match self {
            IntTuple::Int(_) => {
                assert_eq!(i, 0, "leaf IntTuple only has mode 0");
                self
            }
            IntTuple::Tuple(children) => &children[i],
        }
    }

    /// Returns `true` when `self` and `other` have the same nesting profile
    /// (identical structure, ignoring leaf values).
    pub fn congruent(&self, other: &IntTuple) -> bool {
        match (self, other) {
            (IntTuple::Int(_), IntTuple::Int(_)) => true,
            (IntTuple::Tuple(a), IntTuple::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.congruent(y))
            }
            _ => false,
        }
    }

    /// Rebuilds an `IntTuple` with this node's profile from a flat list of
    /// leaf values. Returns `None` when the number of leaves does not match.
    pub fn unflatten(&self, leaves: &[usize]) -> Option<IntTuple> {
        let mut iter = leaves.iter().copied();
        let out = self.unflatten_from(&mut iter)?;
        if iter.next().is_some() {
            return None;
        }
        Some(out)
    }

    fn unflatten_from<I: Iterator<Item = usize>>(&self, iter: &mut I) -> Option<IntTuple> {
        match self {
            IntTuple::Int(_) => iter.next().map(IntTuple::Int),
            IntTuple::Tuple(children) => {
                let mut out = Vec::with_capacity(children.len());
                for child in children {
                    out.push(child.unflatten_from(iter)?);
                }
                Some(IntTuple::Tuple(out))
            }
        }
    }

    /// Converts a column-major linear index within `self` (interpreted as a
    /// shape) into a flat coordinate list, leftmost leaf fastest.
    ///
    /// Indices beyond the product wrap modulo every mode except the last,
    /// matching CuTe's convention of extending the last mode.
    pub fn index_to_coords(&self, index: usize) -> Vec<usize> {
        let shape = self.flatten();
        let mut coords = Vec::with_capacity(shape.len());
        let mut rest = index;
        for (i, &s) in shape.iter().enumerate() {
            if i + 1 == shape.len() {
                coords.push(rest);
            } else {
                let s = s.max(1);
                coords.push(rest % s);
                rest /= s;
            }
        }
        coords
    }

    /// Converts a flat coordinate list into a column-major linear index
    /// within `self` interpreted as a shape.
    ///
    /// # Panics
    ///
    /// Panics if the number of coordinates does not match the leaf count.
    pub fn coords_to_index(&self, coords: &[usize]) -> usize {
        let shape = self.flatten();
        assert_eq!(shape.len(), coords.len(), "coordinate rank mismatch");
        let mut index = 0usize;
        let mut scale = 1usize;
        for (&c, &s) in coords.iter().zip(shape.iter()) {
            index += c * scale;
            scale *= s.max(1);
        }
        index
    }
}

impl From<usize> for IntTuple {
    fn from(v: usize) -> Self {
        IntTuple::Int(v)
    }
}

impl From<Vec<IntTuple>> for IntTuple {
    fn from(children: Vec<IntTuple>) -> Self {
        IntTuple::Tuple(children)
    }
}

impl From<&[usize]> for IntTuple {
    fn from(values: &[usize]) -> Self {
        IntTuple::Tuple(values.iter().map(|&v| IntTuple::Int(v)).collect())
    }
}

impl From<Vec<usize>> for IntTuple {
    fn from(values: Vec<usize>) -> Self {
        IntTuple::from(values.as_slice())
    }
}

impl fmt::Display for IntTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntTuple::Int(v) => write!(f, "{v}"),
            IntTuple::Tuple(children) => {
                write!(f, "(")?;
                for (i, child) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{child}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Constructs an [`IntTuple`] from a nested parenthesised expression.
///
/// # Examples
///
/// ```
/// use hexcute_layout::{ituple, IntTuple};
///
/// let t = ituple![(2, 2), 8];
/// assert_eq!(t.flatten(), vec![2, 2, 8]);
/// assert_eq!(t.to_string(), "((2,2),8)");
/// ```
#[macro_export]
macro_rules! ituple {
    // Entry: a comma-separated list of elements becomes a tuple.
    ($($elem:tt),+ $(,)?) => {
        $crate::IntTuple::Tuple(vec![$($crate::ituple!(@elem $elem)),+])
    };
    (@elem ( $($inner:tt),+ $(,)? )) => {
        $crate::IntTuple::Tuple(vec![$($crate::ituple!(@elem $inner)),+])
    };
    (@elem $value:expr) => {
        $crate::IntTuple::Int($value)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_basics() {
        let t = IntTuple::int(7);
        assert!(t.is_int());
        assert_eq!(t.as_int(), Some(7));
        assert_eq!(t.rank(), 1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.product(), 7);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.flatten(), vec![7]);
        assert_eq!(t.to_string(), "7");
    }

    #[test]
    fn nested_basics() {
        let t = ituple![(2, 2), 8];
        assert!(!t.is_int());
        assert_eq!(t.rank(), 2);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.product(), 32);
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.flatten(), vec![2, 2, 8]);
        assert_eq!(t.to_string(), "((2,2),8)");
    }

    #[test]
    fn congruence() {
        let a = ituple![(2, 2), 8];
        let b = ituple![(1, 16), 2];
        let c = ituple![2, (2, 8)];
        assert!(a.congruent(&b));
        assert!(!a.congruent(&c));
        assert!(!a.congruent(&IntTuple::int(3)));
    }

    #[test]
    fn unflatten_round_trip() {
        let profile = ituple![(2, 4), (2, 2)];
        let rebuilt = profile.unflatten(&[8, 1, 4, 16]).unwrap();
        assert_eq!(rebuilt, ituple![(8, 1), (4, 16)]);
        assert!(profile.unflatten(&[1, 2]).is_none());
        assert!(profile.unflatten(&[1, 2, 3, 4, 5]).is_none());
    }

    #[test]
    fn index_coord_round_trip() {
        let shape = ituple![(2, 4), (2, 2)];
        for idx in 0..shape.product() {
            let coords = shape.index_to_coords(idx);
            assert_eq!(shape.coords_to_index(&coords), idx);
        }
    }

    #[test]
    fn index_to_coords_extends_last_mode() {
        let shape = ituple![4, 8];
        let coords = shape.index_to_coords(35);
        assert_eq!(coords, vec![3, 8]);
    }

    #[test]
    fn from_slice() {
        let t: IntTuple = vec![4usize, 8].into();
        assert_eq!(t, ituple![4, 8]);
    }

    #[test]
    fn mode_access() {
        let t = ituple![(2, 2), 8];
        assert_eq!(t.mode(0), &ituple![2, 2]);
        assert_eq!(t.mode(1), &IntTuple::int(8));
        let leaf = IntTuple::int(5);
        assert_eq!(leaf.mode(0), &leaf);
    }

    #[test]
    fn empty_tuple_product_is_one() {
        let t = IntTuple::tuple(vec![]);
        assert_eq!(t.product(), 1);
        assert_eq!(t.leaf_count(), 0);
    }
}

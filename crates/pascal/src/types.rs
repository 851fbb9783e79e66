//! Semantic types for the Pascal subset.

use std::fmt;

/// A fully resolved type.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    /// `integer`
    Integer,
    /// `real`
    Real,
    /// `boolean`
    Boolean,
    /// `char`
    Char,
    /// `array[lo..hi] of elem`
    Array {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Element type.
        elem: Box<Type>,
    },
    /// String literals (only usable in `write` arguments and comparisons
    /// against other strings; not a declarable variable type).
    String,
}

impl Type {
    /// Whether this is a numeric scalar type.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::Integer | Type::Real)
    }

    /// Whether this is a scalar (non-array, non-string) type.
    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            Type::Integer | Type::Real | Type::Boolean | Type::Char
        )
    }

    /// Whether a value of `self` can be assigned from a value of `from`
    /// (identity, or the implicit integer→real widening).
    pub fn assignable_from(&self, from: &Type) -> bool {
        self == from || (matches!(self, Type::Real) && matches!(from, Type::Integer))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Integer => write!(f, "integer"),
            Type::Real => write!(f, "real"),
            Type::Boolean => write!(f, "boolean"),
            Type::Char => write!(f, "char"),
            Type::Array { lo, hi, elem } => write!(f, "array[{lo}..{hi}] of {elem}"),
            Type::String => write!(f, "string"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignability() {
        assert!(Type::Real.assignable_from(&Type::Integer));
        assert!(!Type::Integer.assignable_from(&Type::Real));
        assert!(Type::Integer.assignable_from(&Type::Integer));
        assert!(!Type::Boolean.assignable_from(&Type::Integer));
    }

    #[test]
    fn display_round_trips_array() {
        let t = Type::Array {
            lo: 1,
            hi: 10,
            elem: Box::new(Type::Integer),
        };
        assert_eq!(t.to_string(), "array[1..10] of integer");
    }
}

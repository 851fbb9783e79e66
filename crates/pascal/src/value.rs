//! Runtime values.
//!
//! Values print the way the paper's debugger shows them in queries, e.g.
//! arrays as `[1,2]` and booleans as `true`/`false`, so execution-tree
//! transcripts match Figure 7's `sqrtest(In [1,2], In 2, Out false)`.

use crate::types::Type;
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Real.
    Real(f64),
    /// Boolean.
    Bool(bool),
    /// Character.
    Char(char),
    /// String (literals in `write`, captured output).
    Str(String),
    /// Array with an inclusive lower bound and dense element storage.
    Array(ArrayValue),
}

/// An array value: `elems[i]` holds the element with index `lo + i`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayValue {
    /// Declared lower bound.
    pub lo: i64,
    /// Elements, from index `lo` upward.
    pub elems: Vec<Value>,
}

impl ArrayValue {
    /// Inclusive upper bound.
    pub fn hi(&self) -> i64 {
        self.lo + self.elems.len() as i64 - 1
    }

    /// Element at Pascal index `i`, if in bounds.
    pub fn get(&self, i: i64) -> Option<&Value> {
        let off = i.checked_sub(self.lo)?;
        usize::try_from(off).ok().and_then(|o| self.elems.get(o))
    }

    /// Mutable element at Pascal index `i`, if in bounds.
    pub fn get_mut(&mut self, i: i64) -> Option<&mut Value> {
        let off = i.checked_sub(self.lo)?;
        usize::try_from(off)
            .ok()
            .and_then(move |o| self.elems.get_mut(o))
    }
}

impl Value {
    /// The zero-initialized default value of a type.
    ///
    /// Standard Pascal leaves variables undefined; we zero-initialize for
    /// deterministic, reproducible traces (documented substitution).
    pub fn zero_of(ty: &Type) -> Value {
        match ty {
            Type::Integer => Value::Int(0),
            Type::Real => Value::Real(0.0),
            Type::Boolean => Value::Bool(false),
            Type::Char => Value::Char(' '),
            Type::String => Value::Str(String::new()),
            Type::Array { lo, hi, elem } => {
                let n = usize::try_from((hi - lo + 1).max(0)).unwrap_or(0);
                Value::Array(ArrayValue {
                    lo: *lo,
                    elems: vec![Value::zero_of(elem); n],
                })
            }
        }
    }

    /// The semantic type of this value (array bounds come from the value).
    pub fn type_of(&self) -> Type {
        match self {
            Value::Int(_) => Type::Integer,
            Value::Real(_) => Type::Real,
            Value::Bool(_) => Type::Boolean,
            Value::Char(_) => Type::Char,
            Value::Str(_) => Type::String,
            Value::Array(a) => Type::Array {
                lo: a.lo,
                hi: a.hi(),
                elem: Box::new(a.elems.first().map(Value::type_of).unwrap_or(Type::Integer)),
            },
        }
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Extracts a real, widening integers.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(x) => Some(*x),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Real(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Bool(b) => write!(f, "{b}"),
            Value::Char(c) => write!(f, "{c}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, e) in a.elems.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Real(x)
    }
}

impl From<Vec<i64>> for Value {
    /// Builds a 1-based integer array, matching Pascal's conventional
    /// `array[1..n]` declarations.
    fn from(v: Vec<i64>) -> Self {
        Value::Array(ArrayValue {
            lo: 1,
            elems: v.into_iter().map(Value::Int).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_of_array() {
        let t = Type::Array {
            lo: 1,
            hi: 3,
            elem: Box::new(Type::Integer),
        };
        let v = Value::zero_of(&t);
        assert_eq!(v.to_string(), "[0,0,0]");
    }

    #[test]
    fn array_indexing_respects_lower_bound() {
        let v: Value = vec![10, 20, 30].into();
        let Value::Array(a) = v else { panic!() };
        assert_eq!(a.get(1), Some(&Value::Int(10)));
        assert_eq!(a.get(3), Some(&Value::Int(30)));
        assert_eq!(a.get(0), None);
        assert_eq!(a.get(4), None);
        assert_eq!(a.hi(), 3);
    }

    #[test]
    fn display_matches_paper_forms() {
        let v: Value = vec![1, 2].into();
        assert_eq!(v.to_string(), "[1,2]");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::Int(12).to_string(), "12");
        assert_eq!(Value::Real(2.0).to_string(), "2.0");
    }

    #[test]
    fn widening_coercion() {
        assert_eq!(Value::Int(3).as_real(), Some(3.0));
        assert_eq!(Value::Real(3.5).as_int(), None);
    }

    #[test]
    fn type_of_round_trips() {
        let v: Value = vec![1, 2, 3].into();
        assert_eq!(
            v.type_of(),
            Type::Array {
                lo: 1,
                hi: 3,
                elem: Box::new(Type::Integer)
            }
        );
    }
}

//! [`Name`]: the text of an identifier, stored inline when it is short.
//!
//! Every identifier occurrence in the AST, every variable and procedure
//! in sema's tables, every scope key and label, and every In/Out name of
//! an execution tree is a [`Name`]. A campaign clones the golden AST for
//! each mutant and rebuilds those tables from it, so a name that owned a
//! heap `String` cost one allocation at each copy. A [`Name`] of up to
//! [`INLINE_CAPACITY`] bytes lives inside the value itself, and cloning
//! it copies 24 bytes; longer text is boxed.
//!
//! [`Name`] is the size of a `String`, so the nodes that hold one do not
//! grow, and it behaves as the `str` it holds: `==`, `cmp`, hashing
//! (a `HashMap<Name, _>` can be looked up by `&str`), `Debug` and
//! `Display` give what the same `str` gives. Equality, ordering and
//! hashing read the bytes directly and never re-check that they are
//! UTF-8, so a scope lookup costs no more than it did on a `String`.
//!
//! ```
//! use gadt_pascal::name::Name;
//! let name = Name::new("ArrSum");
//! assert!(name.is_inline());
//! assert_eq!(name, "ArrSum");
//! assert_eq!(name.to_ascii_lowercase(), "arrsum");
//! assert_eq!(format!("{name:?}"), format!("{:?}", "ArrSum"));
//! ```

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The longest text, in bytes, that a [`Name`] stores without a heap
/// allocation.
pub const INLINE_CAPACITY: usize = 22;

/// Identifier text: inline up to [`INLINE_CAPACITY`] bytes, boxed past
/// it. See the [module docs](self).
#[derive(Clone)]
pub struct Name(Repr);

/// Text of at most [`INLINE_CAPACITY`] bytes is always `Inline` and
/// longer text always `Boxed`, so each text has one representation.
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAPACITY],
    },
    Boxed(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Name>() == std::mem::size_of::<String>());

impl Name {
    /// A name holding `text`: inline when it fits, boxed otherwise.
    pub fn new(text: &str) -> Name {
        match Name::inline(text.as_bytes()) {
            Some(name) => name,
            None => Name(Repr::Boxed(text.into())),
        }
    }

    /// `bytes` stored inline, or `None` when they do not fit. Callers
    /// pass the bytes of a `str`, so the stored bytes are UTF-8.
    fn inline(text: &[u8]) -> Option<Name> {
        let mut bytes = [0u8; INLINE_CAPACITY];
        bytes.get_mut(..text.len())?.copy_from_slice(text);
        Some(Name(Repr::Inline {
            len: text.len() as u8,
            bytes,
        }))
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline bytes are copied from a str")
            }
            Repr::Boxed(text) => text,
        }
    }

    /// The text's bytes, read without a UTF-8 check.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Boxed(text) => text.as_bytes(),
        }
    }

    /// Whether the text is stored inline (at most [`INLINE_CAPACITY`]
    /// bytes) rather than boxed.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// The name with ASCII letters lowercased, as
    /// [`str::to_ascii_lowercase`] gives it; an inline name stays inline.
    pub fn to_ascii_lowercase(&self) -> Name {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                let mut bytes = *bytes;
                bytes.make_ascii_lowercase();
                Name(Repr::Inline { len: *len, bytes })
            }
            Repr::Boxed(text) => Name(Repr::Boxed(text.to_ascii_lowercase().into())),
        }
    }

    /// The text `args` formats to, built in place: formatting allocates
    /// only when the text turns out longer than [`INLINE_CAPACITY`].
    ///
    /// ```
    /// use gadt_pascal::name::Name;
    /// let temp = Name::format(format_args!("limit@{}", 12));
    /// assert_eq!(temp, "limit@12");
    /// assert!(temp.is_inline());
    /// ```
    pub fn format(args: fmt::Arguments<'_>) -> Name {
        if let Some(text) = args.as_str() {
            return Name::new(text);
        }
        let mut builder = Builder::Inline(0, [0; INLINE_CAPACITY]);
        fmt::write(&mut builder, args).expect("writing to a name cannot fail");
        match builder {
            Builder::Inline(len, bytes) => Name(Repr::Inline {
                len: len as u8,
                bytes,
            }),
            Builder::Spilled(text) => Name::from(text),
        }
    }

    /// Whether `self` and `other` are equal ignoring ASCII case, as
    /// [`str::eq_ignore_ascii_case`] tells it, without a UTF-8 check.
    pub fn eq_ignore_ascii_case(&self, other: &str) -> bool {
        self.as_bytes().eq_ignore_ascii_case(other.as_bytes())
    }
}

/// [`Name::format`]'s buffer: inline until the text outgrows it.
enum Builder {
    Inline(usize, [u8; INLINE_CAPACITY]),
    Spilled(String),
}

impl fmt::Write for Builder {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match self {
            Builder::Inline(len, bytes) => match bytes.get_mut(*len..*len + s.len()) {
                Some(dst) => {
                    dst.copy_from_slice(s.as_bytes());
                    *len += s.len();
                }
                None => {
                    let written =
                        std::str::from_utf8(&bytes[..*len]).expect("whole strs were written");
                    *self = Builder::Spilled([written, s].concat());
                }
            },
            Builder::Spilled(text) => text.push_str(s),
        }
        Ok(())
    }
}

impl Default for Name {
    fn default() -> Name {
        Name(Repr::Inline {
            len: 0,
            bytes: [0; INLINE_CAPACITY],
        })
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::new(text)
    }
}

impl From<String> for Name {
    /// Keeps the string's buffer when the text is too long to inline.
    fn from(text: String) -> Name {
        Name::inline(text.as_bytes()).unwrap_or_else(|| Name(Repr::Boxed(text.into_boxed_str())))
    }
}

impl From<&Name> for Name {
    fn from(name: &Name) -> Name {
        name.clone()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Byte order, which is `str`'s order.
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Name {
    /// Hashes as `str` hashes (its bytes, then `0xff`), so a map keyed
    /// by `Name` finds its entries by `&str` through [`Borrow<str>`].
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

macro_rules! eq_with {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Name {
            fn eq(&self, other: &$other) -> bool {
                self.as_bytes() == AsRef::<[u8]>::as_ref(other)
            }
        }
    )*};
}

eq_with!(str, &str, String);

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    /// Texts on both sides of the inline boundary, with and without
    /// uppercase letters and non-ASCII characters.
    fn samples() -> Vec<String> {
        vec![
            String::new(),
            "x".into(),
            "ArrSum".into(),
            "a".repeat(INLINE_CAPACITY),
            "b".repeat(INLINE_CAPACITY + 1),
            "MixedCase_identifier_of_some_length".into(),
            "ünïcödé".into(),
            "é".repeat(INLINE_CAPACITY / 2),
            "é".repeat(INLINE_CAPACITY / 2 + 1),
        ]
    }

    #[test]
    fn is_the_size_of_a_string() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        assert_eq!(std::mem::size_of::<Option<Name>>(), 24);
    }

    #[test]
    fn twenty_two_bytes_inline_twenty_three_boxed() {
        let at = "n".repeat(22);
        let past = "n".repeat(23);
        assert!(Name::new(&at).is_inline());
        assert!(!Name::new(&past).is_inline());
        assert!(Name::from(at.clone()).is_inline());
        assert!(!Name::from(past.clone()).is_inline());
        assert_eq!(Name::new(&at), at.as_str());
        assert_eq!(Name::new(&past), past.as_str());
        assert_eq!(Name::new(&at).len(), 22);
        assert_eq!(Name::new(&past).len(), 23);
        // A two-byte character straddling the boundary goes to the box.
        let straddle = format!("{}é", "n".repeat(21));
        assert_eq!(straddle.len(), 23);
        assert!(!Name::new(&straddle).is_inline());
        assert_eq!(Name::new(&straddle), straddle.as_str());
        // Lowercasing keeps each side where it was.
        assert!(Name::new(&at.to_uppercase())
            .to_ascii_lowercase()
            .is_inline());
        assert_eq!(Name::new(&past.to_uppercase()).to_ascii_lowercase(), past);
    }

    #[test]
    fn formatting_spills_past_the_boundary() {
        let short = Name::format(format_args!("{}@{}", "limit", 7));
        assert!(short.is_inline());
        assert_eq!(short, "limit@7");
        let at = Name::format(format_args!("{}{}", "n".repeat(20), 12));
        assert!(at.is_inline());
        assert_eq!(at, format!("{}12", "n".repeat(20)));
        let past = Name::format(format_args!("{}{}{}", "n".repeat(20), 12, "x"));
        assert!(!past.is_inline());
        assert_eq!(past, format!("{}12x", "n".repeat(20)));
        assert_eq!(Name::format(format_args!("")), "");
    }

    #[test]
    fn the_empty_name() {
        let empty = Name::new("");
        assert!(empty.is_inline());
        assert!(empty.is_empty());
        assert_eq!(empty, "");
        assert_eq!(empty, Name::default());
        assert_eq!(empty.as_str(), "");
        assert_eq!(format!("{empty}|{empty:?}"), "|\"\"");
    }

    #[test]
    fn agrees_with_str() {
        let texts = samples();
        for a in &texts {
            let na = Name::new(a);
            assert_eq!(na.as_str(), a);
            assert_eq!(format!("{na:?}"), format!("{a:?}"));
            assert_eq!(format!("{na}"), a.to_string());
            assert_eq!(format!("[{na:>40}]"), format!("[{a:>40}]"));
            assert_eq!(hash_of(&na), hash_of(a.as_str()));
            assert_eq!(na.to_ascii_lowercase(), a.to_ascii_lowercase());
            for b in &texts {
                let nb = Name::new(b);
                assert_eq!(na == nb, a == b, "{a:?} == {b:?}");
                assert_eq!(na == *b.as_str(), a == b);
                assert_eq!(na.cmp(&nb), a.cmp(b), "{a:?} cmp {b:?}");
                assert_eq!(na.partial_cmp(&nb), a.partial_cmp(b));
                assert_eq!(na.eq_ignore_ascii_case(b), a.eq_ignore_ascii_case(b));
            }
        }
    }

    #[test]
    fn maps_keyed_by_name_find_str_keys() {
        let texts = samples();
        let map: HashMap<Name, usize> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (Name::new(t), i))
            .collect();
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(map.get(t.as_str()), Some(&i), "{t:?}");
            assert_eq!(map.get(&Name::new(t)), Some(&i));
        }
        assert_eq!(map.get("absent"), None);
        let sorted: std::collections::BTreeSet<Name> = texts.iter().map(|t| Name::new(t)).collect();
        let by_str: std::collections::BTreeSet<&str> = texts.iter().map(String::as_str).collect();
        assert!(sorted.iter().map(Name::as_str).eq(by_str.iter().copied()));
    }
}

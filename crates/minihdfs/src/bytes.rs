//! Cheap-to-clone immutable buffers for block payloads.
//!
//! A minimal in-tree replacement for the `bytes` crate: block payloads
//! are written once and then shared read-only between the namenode map
//! and every reader handle, so an `Arc<[u8]>` with slicing-free
//! semantics is all the file system needs. [`Text`] is the same buffer
//! once it is known to be UTF-8, so readers borrow `&str` lines from it
//! without checking the bytes again.

use std::ops::Deref;
use std::str::Utf8Error;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Cloning is O(1).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Bytes {
        Bytes {
            data: Arc::from([]),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The payload as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { data: v.into() }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes {
            data: s.into_bytes().into(),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes { data: s.into() }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.data == other.data
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.data.len())
    }
}

/// An immutable, reference-counted UTF-8 buffer. Cloning is O(1).
#[derive(Clone, PartialEq, Eq)]
pub struct Text {
    data: Arc<str>,
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        &self.data
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text { data: s.into() }
    }
}

impl TryFrom<&Bytes> for Text {
    type Error = Utf8Error;

    /// Checks the bytes once and copies them into a text buffer.
    fn try_from(b: &Bytes) -> Result<Text, Utf8Error> {
        Ok(Text {
            data: std::str::from_utf8(b)?.into(),
        })
    }
}

impl std::fmt::Debug for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Text({} bytes)", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let b = Bytes::from(String::from("hello\n"));
        assert_eq!(b.len(), 6);
        assert!(!b.is_empty());
        assert!(b.ends_with(b"\n")); // via Deref to [u8]
        assert_eq!(b.as_slice(), b"hello\n");
        assert_eq!(b, Bytes::from(b"hello\n".as_slice()));
    }

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a.as_ref().as_ptr(), b.as_ref().as_ptr());
    }

    #[test]
    fn text_checks_utf8_once() {
        let t = Text::try_from(&Bytes::from(String::from("a\nb\n"))).unwrap();
        assert_eq!(&*t, "a\nb\n");
        assert_eq!(t, Text::from(String::from("a\nb\n")));
        assert_eq!(t.clone().as_ptr(), t.as_ptr());
        assert!(Text::try_from(&Bytes::from(vec![b'a', 0xC3, 0x28])).is_err());
        assert_eq!(format!("{t:?}"), "Text(4 bytes)");
    }

    #[test]
    fn empty_default() {
        assert!(Bytes::new().is_empty());
        assert!(Bytes::default().is_empty());
        assert_eq!(Bytes::new().len(), 0);
        assert_eq!(format!("{:?}", Bytes::new()), "Bytes(0 bytes)");
    }
}

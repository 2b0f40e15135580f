//! The typed value stored against a key: a payload or a tombstone.
//!
//! LSM deletes are *logical*: removing a key writes a tombstone record that
//! shadows every older version of the key until compaction merges the
//! tombstone past the oldest table holding that key, at which point both the
//! tombstone and the shadowed versions are physically dropped (RocksDB's
//! `kTypeDeletion` entries behave the same way). Tombstone keys are inserted
//! into SST filter blocks like any other key — a lookup for a deleted key
//! must *route to* the tombstone to learn the key is gone, rather than fall
//! through to an older table and resurrect a stale value.

/// One version of a key: either a stored payload or a delete marker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A stored payload.
    Put(Vec<u8>),
    /// A delete marker shadowing every older version of the key.
    Tombstone,
}

impl Value {
    /// True for [`Value::Tombstone`].
    pub fn is_tombstone(&self) -> bool {
        matches!(self, Value::Tombstone)
    }

    /// The payload, or `None` for a tombstone.
    pub fn as_put(&self) -> Option<&[u8]> {
        match self {
            Value::Put(bytes) => Some(bytes),
            Value::Tombstone => None,
        }
    }

    /// Consume into the payload, or `None` for a tombstone.
    pub fn into_put(self) -> Option<Vec<u8>> {
        match self {
            Value::Put(bytes) => Some(bytes),
            Value::Tombstone => None,
        }
    }
}

impl From<Vec<u8>> for Value {
    fn from(bytes: Vec<u8>) -> Self {
        Value::Put(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_distinguish_puts_from_tombstones() {
        let put = Value::Put(vec![1, 2, 3]);
        assert!(!put.is_tombstone());
        assert_eq!(put.as_put(), Some(&[1u8, 2, 3][..]));
        assert_eq!(put.clone().into_put(), Some(vec![1, 2, 3]));
        let del = Value::Tombstone;
        assert!(del.is_tombstone());
        assert_eq!(del.as_put(), None);
        assert_eq!(del.into_put(), None);
        assert_eq!(Value::from(vec![9]), Value::Put(vec![9]));
    }
}

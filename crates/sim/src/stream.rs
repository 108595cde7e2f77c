//! The per-GPU access stream connecting workload generators to the
//! simulator.

use std::sync::Arc;

use crate::access::Access;

/// A per-GPU sequence of memory accesses, backed by a pre-materialized,
/// immutably shared trace. Workload generators in `grit-workloads` build
/// one per GPU; the system runner pulls one access at a time.
///
/// The trace lives behind an `Arc<[Access]>`, so cloning a stream (or
/// re-running the same workload under a different policy) shares the
/// underlying accesses instead of copying them: the stream itself is just a
/// shared trace plus a private cursor.
///
/// ```
/// use grit_sim::{Access, PageId, SliceStream};
/// let mut s = SliceStream::new(vec![Access::read(PageId(1), 0)]);
/// assert!(s.next_access().is_some());
/// assert!(s.next_access().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct SliceStream {
    trace: Arc<[Access]>,
    pos: usize,
}

impl Default for SliceStream {
    fn default() -> Self {
        SliceStream {
            trace: Arc::from(Vec::new()),
            pos: 0,
        }
    }
}

impl SliceStream {
    /// Wraps a vector of accesses.
    pub fn new(accesses: Vec<Access>) -> Self {
        SliceStream {
            trace: accesses.into(),
            pos: 0,
        }
    }

    /// The shared trace backing this stream.
    pub fn shared(&self) -> Arc<[Access]> {
        Arc::clone(&self.trace)
    }

    /// Accesses remaining.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }

    /// Produces the next access, or `None` when the GPU's work is done.
    pub fn next_access(&mut self) -> Option<Access> {
        let a = self.trace.get(self.pos).copied();
        if a.is_some() {
            self.pos += 1;
        }
        a
    }
}

impl FromIterator<Access> for SliceStream {
    fn from_iter<T: IntoIterator<Item = Access>>(iter: T) -> Self {
        SliceStream::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PageId;

    #[test]
    fn slice_stream_yields_in_order_then_none() {
        let acc = vec![Access::read(PageId(1), 0), Access::write(PageId(2), 1)];
        let mut s = SliceStream::new(acc.clone());
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.next_access(), Some(acc[0]));
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.next_access(), Some(acc[1]));
        assert_eq!(s.next_access(), None);
        assert_eq!(s.next_access(), None);
    }

    #[test]
    fn from_iterator_collects() {
        let s: SliceStream = (0..5).map(|i| Access::read(PageId(i), 0)).collect();
        assert_eq!(s.remaining(), 5);
    }

    #[test]
    fn clones_share_one_trace_with_private_cursors() {
        let mut a: SliceStream = (0..3).map(|i| Access::read(PageId(i), 0)).collect();
        let b = a.clone();
        a.next_access();
        assert!(Arc::ptr_eq(&a.shared(), &b.shared()));
        assert_eq!(a.remaining(), 2);
        assert_eq!(b.remaining(), 3);
    }
}

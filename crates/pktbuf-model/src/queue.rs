//! Queue identifiers.
//!
//! The paper distinguishes *logical* VOQ names (`Q^l_i`, used by the
//! switch-fabric scheduler) from *physical* queue names (`Q^p_j`, used
//! internally by the CFDS memory organisation after renaming, §6). Keeping the
//! two as distinct new-types prevents accidentally indexing a DRAM group with a
//! logical name that has not been renamed.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a *logical* Virtual Output Queue.
///
/// A logical queue corresponds to an (output interface, class of service)
/// pair; the scheduler requests cells in terms of logical queues.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LogicalQueueId(u32);

/// Identifier of a *physical* queue inside the DRAM organisation.
///
/// Physical queues are statically assigned to DRAM bank groups; the renaming
/// layer maps logical queues onto (chains of) physical queues.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PhysicalQueueId(u32);

/// Whether an identifier names a logical or a physical queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueKind {
    /// Scheduler-visible VOQ name.
    Logical,
    /// Internal, group-local queue name.
    Physical,
}

macro_rules! impl_queue_id {
    ($ty:ident, $kind:expr, $prefix:literal) => {
        impl $ty {
            /// Creates an identifier from a dense index.
            pub fn new(index: u32) -> Self {
                $ty(index)
            }

            /// Dense index of this queue (0-based).
            pub fn index(self) -> u32 {
                self.0
            }

            /// Dense index as `usize`, convenient for table lookups.
            pub fn as_usize(self) -> usize {
                self.0 as usize
            }

            /// The kind of this identifier.
            pub fn kind(self) -> QueueKind {
                $kind
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $ty {
            fn from(v: u32) -> Self {
                $ty(v)
            }
        }

        impl From<$ty> for u32 {
            fn from(v: $ty) -> u32 {
                v.0
            }
        }

        impl From<$ty> for usize {
            fn from(v: $ty) -> usize {
                v.0 as usize
            }
        }
    };
}

impl_queue_id!(LogicalQueueId, QueueKind::Logical, "Ql");
impl_queue_id!(PhysicalQueueId, QueueKind::Physical, "Qp");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_and_physical_are_distinct_types() {
        let l = LogicalQueueId::new(3);
        let p = PhysicalQueueId::new(3);
        assert_eq!(l.index(), p.index());
        assert_eq!(l.kind(), QueueKind::Logical);
        assert_eq!(p.kind(), QueueKind::Physical);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(LogicalQueueId::new(7).to_string(), "Ql7");
        assert_eq!(PhysicalQueueId::new(7).to_string(), "Qp7");
    }

    #[test]
    fn conversions_round_trip() {
        let l: LogicalQueueId = 9u32.into();
        let back: u32 = l.into();
        assert_eq!(back, 9);
        let as_usize: usize = l.into();
        assert_eq!(as_usize, 9);
        assert_eq!(l.as_usize(), 9);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(LogicalQueueId::new(1) < LogicalQueueId::new(2));
        assert!(PhysicalQueueId::new(10) > PhysicalQueueId::new(2));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(LogicalQueueId::default().index(), 0);
        assert_eq!(PhysicalQueueId::default().index(), 0);
    }
}

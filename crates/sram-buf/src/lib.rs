//! Functional models of the shared SRAM buffer organisations studied in §7.1
//! and §8.2 of the paper.
//!
//! The head and tail SRAMs are *shared* by all queues (a unified buffer leads
//! to smaller memories than per-queue partitions), which raises the question of
//! how to locate "the i-th cell of queue q" inside the shared array. The paper
//! studies two organisations:
//!
//! * [`GlobalCamBuffer`] — every cell is stored alongside a tag
//!   `(queue, order)`; a request searches all tags associatively. Out-of-order
//!   insertion (needed by CFDS, whose DRAM returns blocks out of order) is
//!   trivial because the order is part of the tag.
//! * [`UnifiedLinkedListBuffer`] — a direct-mapped array where each entry
//!   holds a cell and a next pointer, plus a head/tail pointer table per list.
//!   Out-of-order insertion is supported by keeping `B/b` *lanes* (sub-lists)
//!   per queue — consecutive blocks of a queue rotate over the lanes exactly
//!   like they rotate over the banks of a group, and two blocks that map to the
//!   same lane (same bank) are always delivered in order.
//!
//! Both implement [`SharedBuffer`]. The packet-buffer front end in the
//! `pktbuf` crate holds a [`GlobalCamBuffer`]: the linked list needs
//! same-lane blocks in order, which CFDS's queue renaming does not keep. The
//! linked list is the technology evaluation's comparison point.
//!
//! # Example
//!
//! ```
//! use pktbuf_model::{Cell, LogicalQueueId};
//! use sram_buf::{GlobalCamBuffer, SharedBuffer};
//!
//! let q = LogicalQueueId::new(3);
//! let mut buf = GlobalCamBuffer::with_block_size(8, 1024, 2);
//! buf.insert_block(q, 1, &[Cell::new(q, 2, 0), Cell::new(q, 3, 0)]).unwrap();
//! buf.insert_block(q, 0, &[Cell::new(q, 0, 0), Cell::new(q, 1, 0)]).unwrap();
//! // Cells come out in FIFO order even though block 1 arrived first.
//! assert_eq!(buf.pop_front(q).unwrap().seq(), 0);
//! assert_eq!(buf.pop_front(q).unwrap().seq(), 1);
//! assert_eq!(buf.pop_front(q).unwrap().seq(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cam_buffer;
mod linked_list_buffer;
mod pointer_table;
mod spec;
mod traits;

pub use cam_buffer::GlobalCamBuffer;
pub use linked_list_buffer::UnifiedLinkedListBuffer;
pub use pointer_table::PointerTable;
pub use spec::{SramImplKind, SramImplSpec};
pub use traits::{BufferError, SharedBuffer};

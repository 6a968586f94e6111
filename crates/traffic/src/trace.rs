//! Traffic-matrix recording and replay.

use crate::arrivals::ArrivalGenerator;
use pktbuf_model::{Cell, LogicalQueueId};
use serde::{Deserialize, Serialize};

/// A recorded *traffic matrix*: per-port, per-slot arrivals with explicit
/// destinations **and sequence numbers**.
///
/// A closed-loop transport reuses sequence numbers on retransmission, so its
/// arrival stream cannot be reproduced by re-minting them per queue — the
/// matrix trace therefore stores the exact `(dest, seq)` of every injected
/// cell. Replaying one through a fabric (from slot 0, with the same fault
/// plan armed) must reproduce the recorded run's delivery matrix
/// bit-identically.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct MatrixTrace {
    /// `arrivals[port][slot]` is the cell injected at `port` in `slot` as
    /// `(dest, seq)`, or `None` for an idle slot.
    pub arrivals: Vec<Vec<Option<(u32, u64)>>>,
}

impl MatrixTrace {
    /// Creates an empty trace over `ports` external ports.
    pub fn new(ports: usize) -> Self {
        MatrixTrace {
            arrivals: vec![Vec::new(); ports],
        }
    }

    /// Appends one slot: `row[p]` is the cell injected at port `p`.
    ///
    /// # Panics
    /// If `row.len()` does not match the port count.
    pub fn record_slot(&mut self, row: &[Option<(u32, u64)>]) {
        assert_eq!(row.len(), self.arrivals.len(), "row width != port count");
        for (port, cell) in self.arrivals.iter_mut().zip(row) {
            port.push(*cell);
        }
    }

    /// Appends `slots` idle slots on every port (used when the recording
    /// run fast-forwards through a quiet gap).
    pub fn pad_idle(&mut self, slots: u64) {
        for port in &mut self.arrivals {
            port.extend(std::iter::repeat_n(None, slots as usize));
        }
    }

    /// Number of recorded slots.
    pub fn len(&self) -> usize {
        self.arrivals.first().map_or(0, Vec::len)
    }

    /// Whether the trace holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of external ports.
    pub fn ports(&self) -> usize {
        self.arrivals.len()
    }

    /// Records `slots` slots of the given per-port generators by consuming
    /// them — the open-loop path into a matrix trace.
    pub fn record<A: ArrivalGenerator>(gens: &mut [A], slots: u64) -> MatrixTrace {
        let mut trace = MatrixTrace::new(gens.len());
        let mut row = vec![None; gens.len()];
        for slot in 0..slots {
            for (g, out) in gens.iter_mut().zip(row.iter_mut()) {
                *out = g.next(slot).map(|c| (c.queue().index(), c.seq()));
            }
            trace.record_slot(&row);
        }
        trace
    }

    /// Builds one replay generator per recorded port. Replays must start at
    /// fabric slot 0: entries are indexed by absolute slot.
    pub fn replay(&self) -> Vec<MatrixTraceArrivals> {
        (0..self.ports())
            .map(|p| MatrixTraceArrivals {
                trace: self.arrivals[p].clone(),
                num_queues: self.ports(),
            })
            .collect()
    }
}

/// Replays one port of a [`MatrixTrace`] verbatim — destinations *and*
/// sequence numbers come from the trace, nothing is re-minted.
#[derive(Debug, Clone)]
pub struct MatrixTraceArrivals {
    trace: Vec<Option<(u32, u64)>>,
    num_queues: usize,
}

impl ArrivalGenerator for MatrixTraceArrivals {
    fn next(&mut self, slot: u64) -> Option<Cell> {
        let (dest, seq) = self.trace.get(slot as usize).copied().flatten()?;
        Some(Cell::new(LogicalQueueId::new(dest), seq, slot))
    }

    fn num_queues(&self) -> usize {
        self.num_queues
    }

    fn name(&self) -> &'static str {
        "matrix-trace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_empty() {
        assert!(MatrixTrace::new(4).is_empty());
    }

    #[test]
    fn matrix_trace_replays_explicit_seqs_verbatim() {
        let mut trace = MatrixTrace::new(2);
        trace.record_slot(&[Some((1, 0)), None]);
        trace.record_slot(&[None, Some((0, 5))]);
        // A retransmission reuses seq 0 — a re-minting replay could not
        // reproduce this.
        trace.record_slot(&[Some((1, 0)), None]);
        trace.pad_idle(2);
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.ports(), 2);

        let mut gens = trace.replay();
        assert_eq!(gens.len(), 2);
        let c = gens[0].next(0).unwrap();
        assert_eq!((c.queue().index(), c.seq(), c.arrival_slot()), (1, 0, 0));
        assert!(gens[0].next(1).is_none());
        let c = gens[1].next(1).unwrap();
        assert_eq!((c.queue().index(), c.seq()), (0, 5));
        let c = gens[0].next(2).unwrap();
        assert_eq!((c.queue().index(), c.seq()), (1, 0), "reused seq survives");
        assert!(gens[0].next(3).is_none());
        assert!(gens[0].next(4).is_none());
        assert!(gens[0].next(5).is_none(), "past the end");
        assert_eq!(gens[0].name(), "matrix-trace");
        assert_eq!(gens[0].num_queues(), 2);
    }

    #[test]
    fn matrix_trace_record_captures_open_loop_generators() {
        use crate::arrivals::UniformArrivals;
        let mk = || {
            (0..3)
                .map(|p| UniformArrivals::new(3, 0.6, crate::stream_seed(9, p)))
                .collect::<Vec<_>>()
        };
        let trace = MatrixTrace::record(&mut mk(), 500);
        assert_eq!(trace.len(), 500);
        // The replay stream matches a fresh run of the same generators.
        let mut fresh = mk();
        let mut replay = trace.replay();
        for slot in 0..500u64 {
            for p in 0..3 {
                let want = fresh[p].next(slot).map(|c| (c.queue().index(), c.seq()));
                let got = replay[p].next(slot).map(|c| (c.queue().index(), c.seq()));
                assert_eq!(got, want, "port {p} slot {slot}");
            }
        }
    }
}

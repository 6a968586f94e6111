//! Slot-sampled time-series rings.
//!
//! A [`SeriesRing`] captures one sample every `stride` slots: the throughput
//! and stall counts accumulated over the window plus an occupancy reading
//! taken at the window boundary. Storage is preallocated at arm time
//! (hot-path-alloc clean); once `capacity` samples are stored further windows
//! only bump a drop counter, which keeps long runs bounded while staying
//! deterministic — the *first* `capacity` windows are always the ones kept.
//!
//! Idle fast-forward support: the engine may skip whole windows in which
//! nothing can move. [`SeriesRing::advance_idle`] synthesizes the samples
//! those windows would have produced (zero throughput and stalls, constant
//! occupancy), so a fast-forwarded run and a fully stepped reference run
//! emit byte-identical series.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

/// Largest capacity a [`SeriesRing`] preallocates, in samples (2^22). A
/// [`SeriesSample`] is four `u64`s (32 bytes), so a full ring reserves
/// 128 MiB per stage; a larger requested capacity is clamped to this.
pub const MAX_SERIES_CAPACITY: usize = 1 << 22;

/// One sample of a per-stage time-series window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesSample {
    /// Last slot of the sampled window.
    pub slot: u64,
    /// Cells transmitted (crossbar departures) during the window.
    pub transmitted: u64,
    /// Backlog at the window boundary: queued VOQ tags plus link-resident
    /// cells for the stage being sampled.
    pub occupancy: u64,
    /// Slots within the window in which at least one output was blocked on
    /// exhausted link credit (the stage's stall cause).
    pub stalls: u64,
}

/// Bounded, preallocated ring of [`SeriesSample`]s sampled every `stride`
/// slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesRing {
    stride: u64,
    next_sample: u64,
    transmitted_accum: u64,
    stall_accum: u64,
    samples: Vec<SeriesSample>,
    dropped: u64,
}

impl SeriesRing {
    /// A ring sampling every `stride` slots (clamped to at least 1), keeping
    /// the first `capacity` samples (clamped to [`MAX_SERIES_CAPACITY`]).
    /// All storage is allocated here.
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "setup, not the slot loop")]
    pub fn new(stride: u64, capacity: usize) -> Self {
        let stride = stride.max(1);
        Self {
            stride,
            next_sample: stride - 1,
            transmitted_accum: 0,
            stall_accum: 0,
            samples: Vec::with_capacity(capacity.min(MAX_SERIES_CAPACITY)),
            dropped: 0,
        }
    }

    /// Sampling stride in slots.
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Count a transmitted cell toward the current window.
    #[inline]
    pub fn add_transmitted(&mut self, n: u64) {
        self.transmitted_accum += n;
    }

    /// Count credit-stall slots toward the current window.
    #[inline]
    pub fn add_stalls(&mut self, n: u64) {
        self.stall_accum += n;
    }

    /// True when `slot` closes the current window and a sample is due.
    #[inline]
    #[must_use]
    pub fn due(&self, slot: u64) -> bool {
        slot == self.next_sample
    }

    /// Close the window ending at `slot` with the given boundary occupancy.
    /// Call only when [`SeriesRing::due`] returned true for `slot`.
    pub fn sample(&mut self, slot: u64, occupancy: u64) {
        let sample = SeriesSample {
            slot,
            transmitted: self.transmitted_accum,
            occupancy,
            stalls: self.stall_accum,
        };
        self.transmitted_accum = 0;
        self.stall_accum = 0;
        if self.samples.len() < self.samples.capacity() {
            self.samples.push(sample);
        } else {
            self.dropped += 1;
        }
        self.next_sample += self.stride;
    }

    /// Synthesize the samples for `slots` idle slots starting at `from_slot`:
    /// windows closing inside the span record zero throughput/stalls (beyond
    /// anything already accumulated) and the constant idle `occupancy`.
    pub fn advance_idle(&mut self, from_slot: u64, slots: u64, occupancy: u64) {
        let end = from_slot + slots;
        while self.next_sample < end {
            let at = self.next_sample;
            self.sample(at, occupancy);
        }
    }

    /// Samples captured so far, oldest first.
    #[must_use]
    pub fn samples(&self) -> &[SeriesSample] {
        &self.samples
    }

    /// Windows discarded after the ring filled.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::SeriesRing;

    #[test]
    fn samples_close_every_stride_slots() {
        let mut ring = SeriesRing::new(4, 8);
        for slot in 0..10u64 {
            ring.add_transmitted(1);
            if ring.due(slot) {
                ring.sample(slot, 42);
            }
        }
        let s = ring.samples();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].slot, s[0].transmitted, s[0].occupancy), (3, 4, 42));
        assert_eq!((s[1].slot, s[1].transmitted), (7, 4));
    }

    #[test]
    fn idle_synthesis_matches_stepping() {
        let mut stepped = SeriesRing::new(3, 16);
        for slot in 0..12u64 {
            if stepped.due(slot) {
                stepped.sample(slot, 5);
            }
        }
        let mut jumped = SeriesRing::new(3, 16);
        jumped.advance_idle(0, 12, 5);
        assert_eq!(stepped, jumped);
    }

    #[test]
    fn full_ring_counts_drops_deterministically() {
        let mut ring = SeriesRing::new(1, 2);
        for slot in 0..5u64 {
            if ring.due(slot) {
                ring.sample(slot, 0);
            }
        }
        assert_eq!(ring.samples().len(), 2);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.samples()[1].slot, 1);
    }
}
